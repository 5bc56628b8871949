"""Time-dependent Riemannian geometry on model manifolds.

Closed-form models (Euclidean space, round spheres with an optional linearly
growing metric scale, constant-conformal rescalings, hyperbolic space) plus a
numeric-chart fallback defined elsewhere. Points live in embedding
coordinates for spheres and the hyperboloid, chart coordinates otherwise.
All model methods accept arrays with shape (..., ambient_dim) and broadcast
over leading axes; the dataclass wrappers below are the typed single-point
API used at module boundaries.

Evaluators are pure and immutable after construction; concurrent reads are
safe.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DegenerateGeodesic, InvalidInput, UnsupportedOperation

POINT_TOL = 1e-9
COINCIDE_TOL = 1e-12


def _sum_columns(cols: list) -> np.ndarray:
    """Sum of coordinate columns, bit-equal to np.sum over their stack.

    numpy's reduce over a short last axis costs several times more than
    adding the columns; below 8 columns it sums them in order.
    """
    if len(cols) >= 8:
        return np.sum(np.stack(cols, axis=-1), axis=-1)
    out = cols[0]
    for c in cols[1:]:
        out = out + c
    return out


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    p = a * b
    if p.shape[-1] >= 8:
        return np.sum(p, axis=-1)
    return _sum_columns([p[..., c] for c in range(p.shape[-1])])


def _norm(v: np.ndarray) -> np.ndarray:
    """Euclidean norm over the last axis, equal to np.linalg.norm's."""
    return np.sqrt(_dot(v, v))


def _reflect_across(v: np.ndarray, d: np.ndarray, dot) -> np.ndarray:
    """v reflected across the hyperplane ``dot``-orthogonal to d:
    v - 2 dot(v, n) n with n = d / sqrt(dot(d, d)). Rows where d has no
    positive length (coincident points) return v."""
    dn = np.sqrt(np.maximum(dot(d, d), 0.0))
    n = d / np.where(dn > 0.0, dn, np.inf)[..., None]
    return v - 2.0 * dot(v, n)[..., None] * n


# ---------------------------------------------------------------------------
# Typed wrappers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Point:
    """A point on a model manifold, in that model's representation coords."""
    coords: np.ndarray
    model_id: str

    def __post_init__(self):
        object.__setattr__(self, "coords", np.asarray(self.coords, dtype=float))
        if not np.all(np.isfinite(self.coords)):
            raise InvalidInput("point has non-finite coordinates")


@dataclass(frozen=True)
class TangentVector:
    """A tangent vector attached to a base point."""
    base: Point
    components: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "components",
                           np.asarray(self.components, dtype=float))
        if not np.all(np.isfinite(self.components)):
            raise InvalidInput("tangent vector has non-finite components")
        if self.components.shape != self.base.coords.shape:
            raise InvalidInput("tangent vector shape differs from base point")


@dataclass(frozen=True)
class Frame:
    """An orthonormal tangent frame at (time, base)."""
    base: Point
    time: float
    vectors: tuple[TangentVector, ...]

    @property
    def matrix(self) -> np.ndarray:
        """(m, ambient_dim) array of frame vector components."""
        return np.stack([v.components for v in self.vectors])


class Geodesic:
    """Unit-speed geodesic segment for a fixed metric time.

    ``sample(u)`` and ``velocity(u)`` take the arclength parameter
    u in [0, length] measured in the metric at ``time``.
    """

    def __init__(self, model: "ManifoldModel", time: float, start: np.ndarray,
                 end: np.ndarray, length: float, initial_velocity: np.ndarray):
        self.model = model
        self.time = float(time)
        self._start = np.asarray(start, dtype=float)
        self._end = np.asarray(end, dtype=float)
        self.length = float(length)
        self._initial_velocity = np.asarray(initial_velocity, dtype=float)

    @property
    def start(self) -> Point:
        return Point(self._start, self.model.model_id)

    @property
    def end(self) -> Point:
        return Point(self._end, self.model.model_id)

    @property
    def initial_velocity(self) -> TangentVector:
        return TangentVector(self.start, self._initial_velocity)

    def sample_coords(self, u) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        return self.model.exp(self.time, self._start,
                              u[..., None] * self._initial_velocity)

    def sample(self, u: float) -> Point:
        return Point(self.sample_coords(float(u)), self.model.model_id)

    def velocity_coords(self, u: float) -> np.ndarray:
        return self.model.transport_along(
            self.time, self._start, self._initial_velocity, float(u),
            self._initial_velocity)

    def velocity(self, u: float) -> TangentVector:
        return TangentVector(self.sample(u), self.velocity_coords(u))

    def transport_from_start(self, v: np.ndarray, u: float) -> np.ndarray:
        """Parallel transport of v (at start) to sample(u)."""
        return self.model.transport_along(self.time, self._start,
                                          self._initial_velocity, float(u), v)

    def reversed(self) -> "Geodesic":
        """The same segment traversed end-to-start (symmetric choice)."""
        u1 = self.velocity_coords(self.length)
        return Geodesic(self.model, self.time, self._end, self._start,
                        self.length, -u1)


# ---------------------------------------------------------------------------
# Model base class
# ---------------------------------------------------------------------------

class ManifoldModel(abc.ABC):
    """A manifold with a family of metrics g(t) over a time window.

    Lengths, norms and geodesic arclengths in the public methods are always
    measured in g(t) for the t passed in.
    """

    kind: str = "abstract"

    def __init__(self, dim: int, ambient_dim: int,
                 time_window: tuple[float, float] = (0.0, 1.0)):
        if dim < 1:
            raise InvalidInput("dimension must be >= 1")
        t1, t2 = float(time_window[0]), float(time_window[1])
        if not t1 < t2:
            raise InvalidInput("time window must satisfy t1 < t2")
        self.dim = int(dim)
        self.ambient_dim = int(ambient_dim)
        self.time_window = (t1, t2)

    # -- identification ----------------------------------------------------

    @property
    def model_id(self) -> str:
        return f"{self.kind}:{self.dim}"

    def describe(self) -> dict:
        return {"kind": self.kind, "dim": self.dim}

    # -- metric ------------------------------------------------------------

    @abc.abstractmethod
    def inner(self, t: float, x: np.ndarray, u: np.ndarray,
              v: np.ndarray) -> np.ndarray:
        """g(t)(u, v) at x."""

    def norm(self, t: float, x: np.ndarray, v: np.ndarray) -> np.ndarray:
        return np.sqrt(np.maximum(self.inner(t, x, v, v), 0.0))

    @abc.abstractmethod
    def metric_dt(self, t: float, x: np.ndarray, u: np.ndarray,
                  v: np.ndarray) -> np.ndarray:
        """(d/dt) g(t)(u, v) at x."""

    @abc.abstractmethod
    def ricci(self, t: float, x: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Ric_{g(t)}(v, v) at x."""

    @abc.abstractmethod
    def curvature(self, t: float, x: np.ndarray, u: np.ndarray, v: np.ndarray,
                  w: np.ndarray) -> np.ndarray:
        """R(u, v)w at x for the metric g(t)."""

    # -- drift field (zero unless a model opts in) ---------------------------

    has_drift: bool = False

    def drift(self, t: float, x: np.ndarray) -> np.ndarray:
        return np.zeros_like(x)

    # -- maps ---------------------------------------------------------------

    @abc.abstractmethod
    def exp(self, t: float, x: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Exponential map of g(t) at x."""

    def log(self, t: float, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Initial velocity of the chosen minimal geodesic from x to y.

        Satisfies exp(t, x, log(t, x, y)) = y and |log|_{g(t)} = distance.
        Deterministic tie-break at the cut locus where applicable.
        """
        raise UnsupportedOperation(f"{self.kind}: no closed-form log")

    def distance(self, t: float, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        raise UnsupportedOperation(f"{self.kind}: no closed-form distance")

    @abc.abstractmethod
    def transport_along(self, t: float, x: np.ndarray, u: np.ndarray,
                        length, v: np.ndarray) -> np.ndarray:
        """Parallel transport of v from x along the geodesic with g(t)-unit
        initial velocity u, for g(t)-arclength ``length``."""

    @abc.abstractmethod
    def frame(self, t: float, x: np.ndarray) -> np.ndarray:
        """Deterministic g(t)-orthonormal frame, shape (..., dim, ambient)."""

    def lift(self, t: float, x: np.ndarray, xi: np.ndarray) -> np.ndarray:
        """sqrt(m+2) sum_j xi_j Phi_j(t, x): ball-sample coordinates xi
        (..., dim) lifted to a tangent vector (..., ambient) with the frame.

        Overrides skip building the frame but must equal this composition
        bit for bit, so a walk does not depend on which one runs.
        """
        return np.sqrt(self.dim + 2.0) * np.einsum(
            "...j,...jd->...d", xi, self.frame(t, x))

    # -- representation constraints ------------------------------------------

    def constraint_residual(self, x: np.ndarray) -> np.ndarray:
        """How far x sits from the model's embedding constraint (0 = on it)."""
        return np.zeros(x.shape[:-1])

    def tangency_residual(self, x: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Inner product of v with the constraint gradient at x (0 = tangent)."""
        return np.zeros(x.shape[:-1])

    def origin(self) -> np.ndarray:
        """Canonical reference point."""
        return np.zeros(self.ambient_dim)

    # -- derived helpers -----------------------------------------------------

    def check_time(self, t: float) -> None:
        t1, t2 = self.time_window
        if not (t1 - 1e-9 <= t <= t2 + 1e-9):
            raise InvalidInput(f"time {t} outside window [{t1}, {t2}]")

    def depart(self, t: float, x: np.ndarray, y: np.ndarray):
        """(dist, u0) for the chosen minimal geodesic from x to y: the
        distance and the g(t)-unit departure direction, equal bit for bit
        to the first two entries of ``connect``. For callers that never
        read the arrival direction.
        """
        dist = self.distance(t, x, y)
        safe = np.where(dist < 1e-300, 1.0, dist)
        return dist, self.log(t, x, y) / safe[..., None]

    def connect(self, t: float, x: np.ndarray, y: np.ndarray):
        """(dist, u0, u1) for the chosen minimal geodesic from x to y: the
        distance and the g(t)-unit departure and arrival directions.

        ``dist`` equals ``distance(t, x, y)`` bit for bit, so coupling
        detection does not depend on which of the two a caller uses.
        Coincident points get zero directions.
        """
        dist, u0 = self.depart(t, x, y)
        return dist, u0, self.transport_along(t, x, u0, dist, u0)

    def mirror(self, t: float, x: np.ndarray, y: np.ndarray, geo,
               v: np.ndarray) -> np.ndarray:
        """The reflection coupling's map from T_x to T_y: v parallel-
        transported along the chosen minimal geodesic from x to y, then
        mirrored across the hyperplane g(t)-orthogonal to the arrival
        direction u1. ``geo`` is ``depart(t, x, y)``.

        A g(t)-isometry that sends u0 to -u1, so
        2 <mirror(v), u1> = -2 <v, u0>. Coincident points (zero
        directions) return v. The closed-form models override it with the
        reflection of the ambient space across the bisector of x and y,
        which needs neither a transport nor u1.
        """
        dist, u0 = geo
        carried = self.transport_along(t, x, u0, dist, v)
        u1 = self.transport_along(t, x, u0, dist, u0)
        return carried - 2.0 * self.inner(t, y, carried, u1)[..., None] * u1


# ---------------------------------------------------------------------------
# Euclidean space
# ---------------------------------------------------------------------------

class Euclidean(ManifoldModel):
    """Flat R^m with the standard static metric."""

    kind = "euclidean"

    def __init__(self, dim: int, time_window=(0.0, 1.0),
                 drift: Callable[[float, np.ndarray], np.ndarray] | None = None):
        super().__init__(dim, dim, time_window)
        self._drift = drift
        self.has_drift = drift is not None

    def inner(self, t, x, u, v):
        return _dot(u, v)

    def metric_dt(self, t, x, u, v):
        return np.zeros(np.broadcast(u[..., 0], v[..., 0]).shape)

    def ricci(self, t, x, v):
        return np.zeros(v.shape[:-1])

    def curvature(self, t, x, u, v, w):
        return np.zeros(np.broadcast(u, v, w).shape)

    def drift(self, t, x):
        if self._drift is None:
            return np.zeros_like(x)
        return np.asarray(self._drift(t, x), dtype=float)

    def exp(self, t, x, v):
        return x + v

    def log(self, t, x, y):
        return y - x

    def distance(self, t, x, y):
        return _norm(y - x)

    def transport_along(self, t, x, u, length, v):
        return np.broadcast_to(v, np.broadcast(x, v).shape).copy()

    def mirror(self, t, x, y, geo, v):
        # The plain mirror across depart's unit direction; u1 = u0 here.
        u0 = geo[1]
        return v - 2.0 * _dot(v, u0)[..., None] * u0

    def frame(self, t, x):
        eye = np.eye(self.dim)
        return np.broadcast_to(eye, x.shape[:-1] + eye.shape).copy()

    def lift(self, t, x, xi):
        # The frame is the identity.
        return np.sqrt(self.dim + 2.0) * xi


# ---------------------------------------------------------------------------
# Round sphere, optionally with a linearly growing metric scale
# ---------------------------------------------------------------------------

class RoundSphere(ManifoldModel):
    """Sphere of dimension m embedded in R^(m+1) with metric c(t)/c0 times
    the induced round metric on the representation sphere of radius sqrt(c0).

    With ``flow=True`` the scale is c(t) = c0 + (m-1)(t - t1), which makes
    the time derivative of the metric equal its Ricci tensor pointwise; a
    constant scale c0 gives the static round sphere.
    """

    kind = "sphere"

    def __init__(self, dim: int, c0: float = 1.0, flow: bool = False,
                 time_window=(0.0, 1.0), frame_variant: int = 0):
        super().__init__(dim, dim + 1, time_window)
        if c0 <= 0:
            raise InvalidInput("c0 must be positive")
        self.c0 = float(c0)
        self.flow = bool(flow)
        self.radius = float(np.sqrt(c0))
        self.frame_variant = int(frame_variant)

    def describe(self) -> dict:
        return {"kind": self.kind, "dim": self.dim, "radius_c0": self.c0,
                "flow": self.flow}

    def scale(self, t: float) -> float:
        """c(t)."""
        if self.flow:
            return self.c0 + (self.dim - 1) * (t - self.time_window[0])
        return self.c0

    def scale_dt(self, t: float) -> float:
        return float(self.dim - 1) if self.flow else 0.0

    def _s2(self, t: float) -> float:
        # conformal factor relative to the representation sphere
        return self.scale(t) / self.c0

    def inner(self, t, x, u, v):
        return self._s2(t) * _dot(u, v)

    def metric_dt(self, t, x, u, v):
        return (self.scale_dt(t) / self.c0) * _dot(u, v)

    def ricci(self, t, x, v):
        return ((self.dim - 1) / self.c0) * _dot(v, v)

    def curvature(self, t, x, u, v, w):
        return (_dot(v, w)[..., None] * u - _dot(u, w)[..., None] * v) / self.c0

    def exp(self, t, x, v):
        # constant conformal scaling leaves the exponential map unchanged
        r = self.radius
        nv = _norm(v)
        theta = nv / r
        small = theta < 1e-15
        safe = np.where(small, 1.0, nv)
        y = np.cos(theta)[..., None] * x + (r * np.sin(theta) / safe)[..., None] * v
        y = y * (r / _norm(y))[..., None]
        return np.where(small[..., None], x, y) if np.any(small) else y

    def _tiebreak_direction(self, xhat: np.ndarray) -> np.ndarray:
        """Unit tangent along the first ambient axis not parallel to x."""
        d = self.ambient_dim
        proj_sq = 1.0 - xhat ** 2  # squared norm of each projected axis
        idx = np.argmax(proj_sq > 0.1, axis=-1)
        e = np.eye(d)[idx]
        u = e - xhat * np.take_along_axis(xhat, idx[..., None], axis=-1)
        return u / np.linalg.norm(u, axis=-1, keepdims=True)

    def _angle(self, x, y):
        """Angle between x, y on the representation sphere and its clipped
        cosine. 2 atan2(|y - x|, |y + x|) keeps full precision on the whole
        range, near 0 and near pi, where arcsin and arccos lose digits."""
        r = self.radius
        cosang = np.clip(_dot(x, y) / (r * r), -1.0, 1.0)
        theta = 2.0 * np.arctan2(_norm(y - x), _norm(y + x))
        return theta, cosang

    def _direction(self, x, y):
        """(theta, e): the angle and the unit embedding direction of the
        chosen minimal geodesic from x to y.

        The tie-break direction is built only for antipodal rows; rows at
        angle 0 get e = 0.
        """
        theta, cosang = self._angle(x, y)
        xhat = x / self.radius
        w = y / self.radius - cosang[..., None] * xhat
        wn = _norm(w)
        antipodal = (wn < 1e-8) & (cosang < 0.0)
        e = w / np.where((theta > 0.0) & (wn >= 1e-300), wn, np.inf)[..., None]
        if np.any(antipodal):
            # x may carry fewer batch axes than y
            xb = np.broadcast_to(xhat, w.shape)
            e[antipodal] = self._tiebreak_direction(xb[antipodal])
        return theta, e

    def log(self, t, x, y):
        theta, e = self._direction(x, y)
        return (self.radius * theta)[..., None] * e

    def distance(self, t, x, y):
        return np.sqrt(self._s2(t)) * self.radius * self._angle(x, y)[0]

    def depart(self, t, x, y):
        theta, e = self._direction(x, y)
        s = np.sqrt(self._s2(t))
        return s * self.radius * theta, e / s

    def transport_along(self, t, x, u, length, v):
        r = self.radius
        s = np.sqrt(self._s2(t))
        length = np.asarray(length, dtype=float)
        # embedding-unit direction and rotation angle
        e = s * u
        theta = (length / s) / r
        xhat = x / r
        a = _dot(v, e)
        w = v - a[..., None] * e
        e_rot = np.cos(theta)[..., None] * e - np.sin(theta)[..., None] * xhat
        return a[..., None] * e_rot + w

    def mirror(self, t, x, y, geo, v):
        # The reflection of R^(m+1) across the bisector of x and y maps the
        # sphere to itself and x to y; g(t) is a constant multiple of the
        # ambient product, so it is a g(t)-isometry. On antipodal rows
        # x - y is normal to T_x and v comes back unchanged.
        return _reflect_across(v, x - y, _dot)

    def _gram_schmidt(self, x):
        """The frame vectors in frame order, each as its list of coordinate
        columns, unit on the representation sphere.

        A Gram-Schmidt of the axis vectors other than the one x leans on
        most, in increasing axis order (decreasing for frame_variant 1).
        It works on coordinate columns, which numpy handles much faster
        than short rows; every entry sees the same operations in the same
        order as in a row-wise Gram-Schmidt.
        """
        d, m = self.ambient_dim, self.dim
        xhat = x / self.radius
        drop = np.argmax(np.abs(xhat), axis=-1)
        xh = [xhat[..., c] for c in range(d)]
        done = []
        for i in range(m):
            j = m - 1 - i if self.frame_variant else i
            below = drop <= j
            k = j + below  # the j-th axis other than the dropped one
            xk = np.where(below, xh[j + 1], xh[j])
            w = [(k == c) - xk * xh[c] for c in range(d)]
            for prev in done:
                dot = _sum_columns([wc * pc for wc, pc in zip(w, prev)])
                w = [wc - dot * pc for wc, pc in zip(w, prev)]
            norm = np.sqrt(_sum_columns([wc * wc for wc in w]))
            w = [wc / norm for wc in w]
            done.append(w)
            yield w

    def frame(self, t, x):
        s = np.sqrt(self._s2(t))
        out = np.empty(x.shape[:-1] + (self.dim, self.ambient_dim))
        for i, w in enumerate(self._gram_schmidt(x)):
            for c, wc in enumerate(w):
                out[..., i, c] = wc / s
        return out

    def lift(self, t, x, xi):
        # Sums xi_i Phi_i column by column in frame order, as the base
        # version's einsum does, without the (..., m, ambient) frame.
        s = np.sqrt(self._s2(t))
        acc = None
        for i, w in enumerate(self._gram_schmidt(x)):
            terms = [xi[..., i] * (wc / s) for wc in w]
            acc = terms if acc is None else [
                a + b for a, b in zip(acc, terms)]
        return np.sqrt(self.dim + 2.0) * np.stack(acc, axis=-1)

    def constraint_residual(self, x):
        return np.abs(np.linalg.norm(x, axis=-1) - self.radius)

    def tangency_residual(self, x, v):
        return np.abs(_dot(x, v)) / self.radius

    def origin(self):
        o = np.zeros(self.ambient_dim)
        o[-1] = self.radius
        return o


# ---------------------------------------------------------------------------
# Constant-conformal rescaling of a static base model
# ---------------------------------------------------------------------------

class ScaledMetric(ManifoldModel):
    """g(t) = exp(-k (t - t1)) g_base for a static base model.

    Geodesics, transports and curvature operators agree with the base;
    norms, distances and frames pick up the conformal factor.
    """

    kind = "scaled"

    def __init__(self, base: ManifoldModel, k: float, time_window=(0.0, 1.0)):
        if isinstance(base, RoundSphere) and base.flow:
            raise InvalidInput("scaled metric requires a static base model")
        super().__init__(base.dim, base.ambient_dim, time_window)
        self.base = base
        self.k = float(k)

    def describe(self) -> dict:
        return {"kind": self.kind, "dim": self.dim, "k": self.k,
                "base": self.base.describe()}

    @property
    def model_id(self) -> str:
        return f"scaled[{self.base.model_id}]:k={self.k}"

    def _sigma(self, t: float) -> float:
        return float(np.exp(-self.k * (t - self.time_window[0])))

    def _bt(self) -> float:
        # any fixed time is valid for the static base
        return self.base.time_window[0]

    def inner(self, t, x, u, v):
        return self._sigma(t) * self.base.inner(self._bt(), x, u, v)

    def metric_dt(self, t, x, u, v):
        return -self.k * self.inner(t, x, u, v)

    def ricci(self, t, x, v):
        return self.base.ricci(self._bt(), x, v)

    def curvature(self, t, x, u, v, w):
        return self.base.curvature(self._bt(), x, u, v, w)

    def exp(self, t, x, v):
        return self.base.exp(self._bt(), x, v)

    def log(self, t, x, y):
        return self.base.log(self._bt(), x, y)

    def distance(self, t, x, y):
        return np.sqrt(self._sigma(t)) * self.base.distance(self._bt(), x, y)

    def transport_along(self, t, x, u, length, v):
        root = np.sqrt(self._sigma(t))
        return self.base.transport_along(self._bt(), x, root * u,
                                         np.asarray(length) / root, v)

    def mirror(self, t, x, y, geo, v):
        # The base's mirror, given the base metric's distance and direction.
        root = np.sqrt(self._sigma(t))
        dist, u0 = geo
        return self.base.mirror(self._bt(), x, y,
                                (np.asarray(dist) / root, root * u0), v)

    def frame(self, t, x):
        return self.base.frame(self._bt(), x) / np.sqrt(self._sigma(t))

    def constraint_residual(self, x):
        return self.base.constraint_residual(x)

    def tangency_residual(self, x, v):
        return self.base.tangency_residual(x, v)

    def origin(self):
        return self.base.origin()


# ---------------------------------------------------------------------------
# Hyperbolic space (hyperboloid model)
# ---------------------------------------------------------------------------

class Hyperbolic(ManifoldModel):
    """H^m with curvature -1, as the upper hyperboloid in Minkowski space.

    Coordinates (x_0, ..., x_m) with <x, x>_L = -1, x_0 > 0, where
    <u, v>_L = -u_0 v_0 + sum u_i v_i.
    """

    kind = "hyperbolic"

    def __init__(self, dim: int, time_window=(0.0, 1.0)):
        super().__init__(dim, dim + 1, time_window)

    @staticmethod
    def _ldot(u, v):
        return _dot(u[..., 1:], v[..., 1:]) - u[..., 0] * v[..., 0]

    def inner(self, t, x, u, v):
        return self._ldot(u, v)

    def metric_dt(self, t, x, u, v):
        return np.zeros(np.broadcast(u[..., 0], v[..., 0]).shape)

    def ricci(self, t, x, v):
        return -(self.dim - 1) * self._ldot(v, v)

    def curvature(self, t, x, u, v, w):
        return -(self._ldot(v, w)[..., None] * u - self._ldot(u, w)[..., None] * v)

    def _reproject(self, y):
        spatial = y[..., 1:]
        y0 = np.sqrt(1.0 + _dot(spatial, spatial))
        return np.concatenate([y0[..., None], spatial], axis=-1)

    def exp(self, t, x, v):
        nv = np.sqrt(np.maximum(self._ldot(v, v), 0.0))
        small = nv < 1e-15
        safe = np.where(small, 1.0, nv)
        y = np.cosh(nv)[..., None] * x + (np.sinh(nv) / safe)[..., None] * v
        return np.where(small[..., None], x, self._reproject(y))

    def _separation(self, x, y):
        """Hyperbolic distance; the arcsinh chord form is exact near
        coincidence where arccosh(1 + eps) loses half the digits."""
        c = np.clip(-self._ldot(x, y), 1.0, None)
        diff = y - x
        chord_sq = np.maximum(self._ldot(diff, diff), 0.0)
        near = c < 1.5
        return np.where(near, 2.0 * np.arcsinh(0.5 * np.sqrt(chord_sq)),
                        np.arccosh(c))

    def log(self, t, x, y):
        c = np.clip(-self._ldot(x, y), 1.0, None)
        theta = self._separation(x, y)
        w = y - c[..., None] * x
        wn = np.sqrt(np.maximum(self._ldot(w, w), 0.0))
        small = wn < 1e-300
        safe = np.where(small, 1.0, wn)
        v = (theta / safe)[..., None] * w
        return np.where(small[..., None], np.zeros_like(v), v)

    def distance(self, t, x, y):
        return self._separation(x, y)

    def transport_along(self, t, x, u, length, v):
        length = np.asarray(length, dtype=float)
        a = self._ldot(v, u)
        w = v - a[..., None] * u
        u_rot = np.sinh(length)[..., None] * x + np.cosh(length)[..., None] * u
        return a[..., None] * u_rot + w

    def mirror(self, t, x, y, geo, v):
        # The Minkowski reflection across the bisector of x and y: x - y is
        # spacelike, and the reflection is a Lorentz map of the upper sheet
        # that sends x to y.
        return _reflect_across(v, x - y, self._ldot)

    def frame(self, t, x):
        d = self.ambient_dim
        basis = np.broadcast_to(np.eye(d)[1:], x.shape[:-1] + (self.dim, d)).copy()
        out = np.empty_like(basis)
        for i in range(self.dim):
            w = basis[..., i, :]
            w = w + self._ldot(w, x)[..., None] * x  # Lorentz projection
            for j in range(i):
                w = w - self._ldot(w, out[..., j, :])[..., None] * out[..., j, :]
            out[..., i, :] = w / np.sqrt(self._ldot(w, w))[..., None]
        return out

    def constraint_residual(self, x):
        return np.abs(self._ldot(x, x) + 1.0)

    def tangency_residual(self, x, v):
        return np.abs(self._ldot(x, v))

    def origin(self):
        o = np.zeros(self.ambient_dim)
        o[0] = 1.0
        return o


# ---------------------------------------------------------------------------
# Typed operations
# ---------------------------------------------------------------------------

def _coords(p) -> np.ndarray:
    return p.coords if isinstance(p, Point) else np.asarray(p, dtype=float)


def _components(v) -> np.ndarray:
    return v.components if isinstance(v, TangentVector) else np.asarray(v, dtype=float)


def exp(model: ManifoldModel, t: float, x, v) -> Point:
    """Exponential map of g(t): follow the geodesic with initial velocity v."""
    model.check_time(t)
    xc, vc = _coords(x), _components(v)
    if not (np.all(np.isfinite(xc)) and np.all(np.isfinite(vc))):
        raise InvalidInput("exp: non-finite input")
    if isinstance(v, TangentVector) and isinstance(x, Point):
        if not np.allclose(v.base.coords, xc, atol=POINT_TOL):
            raise InvalidInput("exp: tangent vector not based at x")
    return Point(model.exp(t, xc, vc), model.model_id)


def minimal_geodesic(model: ManifoldModel, t: float, x, y) -> Geodesic:
    """Unit-speed minimal geodesic from x to y for the metric g(t).

    Tie-breaks deterministically at the cut locus; the reversed segment is
    the geodesic chosen from y to x.
    """
    model.check_time(t)
    xc, yc = _coords(x), _coords(y)
    v = model.log(t, xc, yc)
    length = float(model.norm(t, xc, v))
    if length < COINCIDE_TOL:
        raise DegenerateGeodesic("minimal_geodesic: endpoints coincide")
    return Geodesic(model, t, xc, yc, length, v / length)


def parallel_transport(model: ManifoldModel, geodesic: Geodesic,
                       v) -> TangentVector:
    """Parallel transport of v from geodesic.start to geodesic.end."""
    vc = _components(v)
    if isinstance(v, TangentVector):
        if not np.allclose(v.base.coords, geodesic.start.coords, atol=POINT_TOL):
            raise InvalidInput("parallel_transport: v not based at geodesic start")
    out = geodesic.transport_from_start(vc, geodesic.length)
    return TangentVector(geodesic.end, out)


def distance(model: ManifoldModel, t: float, x, y) -> float:
    """Geodesic distance for the metric g(t)."""
    model.check_time(t)
    return float(model.distance(t, _coords(x), _coords(y)))


def frame_at(model: ManifoldModel, t: float, x) -> Frame:
    """Deterministic g(t)-orthonormal frame at x."""
    model.check_time(t)
    xc = _coords(x)
    mat = model.frame(t, xc)
    base = Point(xc, model.model_id)
    vectors = tuple(TangentVector(base, mat[i]) for i in range(model.dim))
    return Frame(base, float(t), vectors)


def curvature_condition_residual(model: ManifoldModel, t: float, x, v,
                                 k: float) -> float:
    """Ric(v,v) + k g(v,v) - (d/dt g)(v,v) - 2 (grad Z)^flat(v,v) at (t, x).

    Nonnegative for all (t, x, v) exactly when the curvature/metric-growth
    balance holds with constant k.
    """
    model.check_time(t)
    xc, vc = _coords(x), _components(v)
    if float(model.norm(t, xc, vc)) == 0.0:
        raise InvalidInput("curvature_condition_residual: v must be nonzero")
    ric = float(model.ricci(t, xc, vc))
    gvv = float(model.inner(t, xc, vc, vc))
    dtg = float(model.metric_dt(t, xc, vc, vc))
    drift_term = 0.0
    if model.has_drift:
        nv = float(model.norm(t, xc, vc))
        u = vc / nv
        eps = 1e-5
        plus = model.exp(t, xc, eps * u)
        minus = model.exp(t, xc, -eps * u)
        u_plus = model.transport_along(t, xc, u, eps, u)
        u_minus = model.transport_along(t, xc, -u, eps, -u)
        z_plus = model.transport_along(t, plus, -u_plus, eps, model.drift(t, plus))
        z_minus = model.transport_along(t, minus, -u_minus, eps, model.drift(t, minus))
        dz = (z_plus - z_minus) / (2.0 * eps)
        drift_term = float(model.inner(t, xc, dz, vc)) * nv
    return ric + k * gvv - dtg - 2.0 * drift_term


def estimate_kappa(model: ManifoldModel, t: float, s: float,
                   sample_points: Sequence) -> float:
    """Smallest kappa with e^{-2 kappa |t-s|} g(s) <= g(t) <= e^{2 kappa |t-s|} g(s)
    over the sampled points (sup of |log ratio| / (2 |t-s|) over directions)."""
    model.check_time(t)
    model.check_time(s)
    if t == s:
        return 0.0
    worst = 0.0
    for p in sample_points:
        xc = _coords(p)
        fr = model.frame(s, xc)  # g(s)-orthonormal basis rows
        m = model.dim
        gram = np.empty((m, m))
        for i in range(m):
            for j in range(i, m):
                gram[i, j] = gram[j, i] = float(
                    model.inner(t, xc, fr[i], fr[j]))
        eigs = np.linalg.eigvalsh(gram)
        worst = max(worst, float(np.max(np.abs(np.log(eigs)))))
    return worst / (2.0 * abs(t - s))


# ---------------------------------------------------------------------------
# Descriptor factory
# ---------------------------------------------------------------------------

def make_model(desc: dict, time_window: tuple[float, float]) -> ManifoldModel:
    """Build a model from a config descriptor: kind tag plus parameters."""
    from .numeric import NumericChart  # local import to avoid a cycle

    d = dict(desc)
    kind = d.pop("kind", None)
    if kind == "euclidean":
        return Euclidean(int(d.pop("dim")), time_window, **_no_extra(d, "euclidean"))
    if kind == "sphere":
        dim = int(d.pop("dim"))
        c0 = float(d.pop("radius_c0", 1.0))
        flow = bool(d.pop("flow", False))
        _no_extra(d, "sphere")
        return RoundSphere(dim, c0, flow, time_window)
    if kind == "hyperbolic":
        dim = int(d.pop("dim"))
        _no_extra(d, "hyperbolic")
        return Hyperbolic(dim, time_window)
    if kind == "scaled":
        k = float(d.pop("k"))
        base_desc = d.pop("base", {"kind": "euclidean", "dim": d.pop("dim", 2)})
        _no_extra(d, "scaled")
        base = make_model(base_desc, time_window)
        return ScaledMetric(base, k, time_window)
    raise InvalidInput(f"unknown manifold kind: {kind!r}")


def _no_extra(d: dict, kind: str) -> dict:
    if d:
        raise InvalidInput(f"unknown manifold parameter(s) for {kind}: {sorted(d)}")
    return {}


def list_model_kinds() -> list[str]:
    return ["euclidean", "sphere", "scaled", "hyperbolic", "numeric-chart"]
