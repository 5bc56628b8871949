"""Time-dependent Riemannian geometry on model manifolds.

Closed-form models (Euclidean space, round spheres with an optional linearly
growing metric scale, constant-conformal rescalings, hyperbolic space), all
space forms: each states its geometry at factor 1 in a few hooks, and the
base class states the metric methods and the geodesic maps of g(t) once,
applying the time factor in one place. A constant-conformal rescaling is a
time factor over its base's hooks. The sphere keeps its own distance,
depart, toward and lift, whose bits the seeded walks replay: the first
two round the factor in apart from the base's composition, toward reuses
the chord of its angle, and the lift skips the frame tensor. Its frame
is a Gram-Schmidt of the axes in closed form, a constant number of array
operations per frame vector. The numeric-chart fallback is defined
elsewhere. Points live in embedding coordinates for
spheres and the hyperboloid, chart coordinates otherwise. All model
methods accept arrays with shape (..., ambient_dim) and broadcast over
leading axes, in any memory layout (``_lead``); the dataclass wrappers
below are the typed single-point API used at module boundaries.

Evaluators are pure and immutable after construction; concurrent reads are
safe.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (DegenerateGeodesic, InvalidInput, UnsupportedOperation,
                     check_json_type)

POINT_TOL = 1e-9
# Largest model dimension: the largest the tests check. No map needs it;
# the sphere's frame costs dim^2 per path-step, so a 100-sphere walk of 256
# paths and 13 steps takes about 0.3 s.
MAX_DIM = 100
COINCIDE_TOL = 1e-12


def _lead(*arrays: np.ndarray) -> list:
    """The coordinate-leading views (d, ...) of (..., d) arrays, batch axes
    aligned as the arrays broadcast: for a block stored coordinate-major,
    one contiguous row per coordinate, so a vector operation is one call."""
    nd = max([a.ndim for a in arrays])
    return [a.T if a.ndim == nd == 2 else
            (a.T if a.ndim <= 2 else np.moveaxis(a, -1, 0)).reshape(
                a.shape[-1:] + (1,) * (nd - a.ndim) + a.shape[:-1])
            for a in arrays]


def _trail(a: np.ndarray) -> np.ndarray:
    """The (..., d) view of a coordinate-leading array: _lead's inverse."""
    return a.T if a.ndim <= 2 else np.moveaxis(a, 0, -1)


def _cdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Euclidean product of coordinate-leading arrays with the bits of
    np.sum over the C-ordered product's last axis: rows added in order below
    8 coordinates, numpy's pairwise sum of contiguous rows from 8."""
    p = a * b
    if len(p) >= 8:
        return np.sum(np.ascontiguousarray(_trail(p)), axis=-1)
    out = p[0]
    for row in p[1:]:
        out += row
    return out


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return _cdot(*_lead(a, b))


def _reflect_across(v: np.ndarray, x: np.ndarray, y: np.ndarray,
                    dot) -> np.ndarray:
    """v reflected across the hyperplane ``dot``-orthogonal (a product of
    coordinate-leading arrays) to d = x - y: v - 2 dot(v, n) n with
    n = d / sqrt(dot(d, d)); v where d has no positive length."""
    v, x, y = _lead(v, x, y)
    d = x - y
    dn = np.sqrt(np.maximum(dot(d, d), 0.0))
    n = d / np.where(dn > 0.0, dn, np.inf)
    return _trail(v - 2.0 * dot(v, n) * n)


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


class Geodesic:
    """Unit-speed geodesic segment for a fixed metric time.

    ``sample(u)`` and ``velocity_coords(u)`` take the arclength parameter
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
        if not 1 <= dim <= MAX_DIM:
            raise InvalidInput(f"dimension must be from 1 to {MAX_DIM}",
                               key="dim")
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
    #
    # A closed-form model is a space form: g(t) is _factor(t) times a fixed
    # ambient product ``_product`` of coordinate-leading arrays, on a
    # representation of constant curvature 1 / ``_r2`` (the signed squared
    # curvature radius, inf when flat). Ricci and the curvature operator do
    # not see a constant factor. A model with no such product (``_product``
    # None) overrides these methods and has no ``mirror``.

    _product: Callable | None = None
    _r2: float

    def _factor(self, t: float) -> float:
        return 1.0

    def _factor_dt(self, t: float) -> float:
        return 0.0

    def inner(self, t: float, x: np.ndarray, u: np.ndarray,
              v: np.ndarray) -> np.ndarray:
        """g(t)(u, v) at x."""
        return self._factor(t) * self._product(*_lead(u, v))

    def norm(self, t: float, x: np.ndarray, v: np.ndarray) -> np.ndarray:
        return np.sqrt(np.maximum(self.inner(t, x, v, v), 0.0))

    def metric_dt(self, t: float, x: np.ndarray, u: np.ndarray,
                  v: np.ndarray) -> np.ndarray:
        """(d/dt) g(t)(u, v) at x."""
        return self._factor_dt(t) * self._product(*_lead(u, v))

    def ricci(self, t: float, x: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Ric_{g(t)}(v, v) at x."""
        return ((self.dim - 1) / self._r2) * self._product(*_lead(v, v))

    def curvature(self, t: float, x: np.ndarray, u: np.ndarray, v: np.ndarray,
                  w: np.ndarray) -> np.ndarray:
        """R(u, v)w at x for the metric g(t)."""
        dot = self._product
        return (dot(*_lead(v, w))[..., None] * u
                - dot(*_lead(u, w))[..., None] * v) / self._r2

    # -- drift field (zero unless a model opts in) ---------------------------

    has_drift: bool = False

    def drift(self, t: float, x: np.ndarray) -> np.ndarray:
        return np.zeros_like(x)

    # -- maps ---------------------------------------------------------------
    #
    # A closed-form model states its geodesics at factor 1, in hooks on
    # coordinate-leading arrays: ``_log(x, y)`` is (d, v), the distance and
    # the log velocity; ``_transport(x, e, length, v)`` carries v along the
    # geodesic with unit velocity e for arclength ``length``; ``_frame(x)``
    # is an orthonormal frame (..., dim, ambient). A constant factor moves
    # no geodesic, so exp and log take none, and the maps below scale
    # lengths by s = sqrt(_factor(t)) in this one place.

    @abc.abstractmethod
    def exp(self, t: float, x: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Exponential map of g(t) at x."""

    def _log(self, x: np.ndarray, y: np.ndarray):
        raise UnsupportedOperation(f"{self.kind}: no closed-form log")

    def log(self, t: float, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Initial velocity of the chosen minimal geodesic from x to y.

        Satisfies exp(t, x, log(t, x, y)) = y and |log|_{g(t)} = distance.
        Deterministic tie-break at the cut locus where applicable.
        """
        return _trail(self._log(*_lead(x, y))[1])

    def distance(self, t: float, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        raise UnsupportedOperation(f"{self.kind}: no closed-form distance")

    def transport_along(self, t: float, x: np.ndarray, u: np.ndarray,
                        length, v: np.ndarray) -> np.ndarray:
        """Parallel transport of v from x along the geodesic with g(t)-unit
        initial velocity u, for g(t)-arclength ``length``."""
        s = np.sqrt(self._factor(t))
        # length with a coordinate axis of one, so it broadcasts as a row
        x, u, v, length = _lead(x, u, v, np.asarray(length, float)[..., None])
        return _trail(self._transport(x, s * u, length / s, v))

    def frame(self, t: float, x: np.ndarray) -> np.ndarray:
        """Deterministic g(t)-orthonormal frame, shape (..., dim, ambient)."""
        return self._frame(*_lead(x)) / np.sqrt(self._factor(t))

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
        distance and the g(t)-unit departure direction.

        ``dist`` equals ``distance(t, x, y)`` bit for bit, so coupling
        detection does not depend on which of the two a caller uses.
        Coincident points get u0 = 0. The arrival direction, where a caller
        needs it, is ``transport_along(t, x, u0, dist, u0)``.
        """
        d, v = self._log(*_lead(x, y))
        dist = np.sqrt(self._factor(t)) * d
        return dist, _trail(v / np.where(dist < 1e-300, 1.0, dist))

    def toward(self, t: float, x: np.ndarray, o: np.ndarray):
        """(dist, q): ``distance(t, x, o)`` bit for bit, and a field q whose
        g(t)-product with every tangent v at x is that of ``depart``'s u0,
        up to rounding: all that the radial replay reads. Here q is u0; the
        sphere overrides it with a field that is not tangent.
        """
        return self.depart(t, x, o)

    def mirror(self, t: float, x: np.ndarray, y: np.ndarray,
               v: np.ndarray) -> np.ndarray:
        """The reflection coupling's map from T_x to T_y: v transported
        along the chosen minimal geodesic and mirrored across the hyperplane
        g(t)-orthogonal to the arrival direction u1, so it sends u0 to -u1.

        On a space form that is the reflection of the ambient space across
        the ``_product``-bisector of x and y, which maps the representation
        to itself and x to y, with no ``depart``, transport or u1.
        Coincident rows return v, and so do antipodal rows on the sphere,
        where x - y is normal to T_x.
        """
        if self._product is None:
            raise UnsupportedOperation(f"{self.kind}: no closed-form mirror")
        return _reflect_across(v, x, y, self._product)


# ---------------------------------------------------------------------------
# Euclidean space
# ---------------------------------------------------------------------------

class Euclidean(ManifoldModel):
    """Flat R^m with the standard static metric."""

    kind = "euclidean"
    _product = staticmethod(_cdot)
    _r2 = np.inf

    def __init__(self, dim: int, time_window=(0.0, 1.0),
                 drift: Callable[[float, np.ndarray], np.ndarray] | None = None):
        super().__init__(dim, dim, time_window)
        self._drift = drift
        self.has_drift = drift is not None

    def drift(self, t, x):
        if self._drift is None:
            return np.zeros_like(x)
        return np.asarray(self._drift(t, x), dtype=float)

    def exp(self, t, x, v):
        return x + v

    def _log(self, x, y):
        v = y - x
        return np.sqrt(_cdot(v, v)), v

    def distance(self, t, x, y):
        v = y - x
        return np.sqrt(_dot(v, v))

    def _transport(self, x, e, length, v):
        return np.broadcast_to(v, np.broadcast(x, v).shape).copy()

    def _frame(self, x):
        eye = np.eye(self.dim)
        return np.broadcast_to(eye, x.shape[1:] + eye.shape)

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
    _product = staticmethod(_cdot)

    def __init__(self, dim: int, c0: float = 1.0, flow: bool = False,
                 time_window=(0.0, 1.0)):
        super().__init__(dim, dim + 1, time_window)
        if c0 <= 0:
            raise InvalidInput("c0 must be positive", key="radius_c0")
        self.c0 = self._r2 = float(c0)
        self.flow = bool(flow)
        self.radius = float(np.sqrt(c0))

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

    def _factor(self, t: float) -> float:
        # conformal factor relative to the representation sphere
        return self.scale(t) / self.c0

    def _factor_dt(self, t: float) -> float:
        return self.scale_dt(t) / self.c0

    def exp(self, t, x, v):
        # constant conformal scaling leaves the exponential map unchanged
        r = self.radius
        x, v = _lead(x, v)
        nv = np.sqrt(_cdot(v, v))
        theta = nv / r
        small = theta < 1e-15
        y = np.cos(theta) * x
        y += (r * np.sin(theta) / np.where(small, 1.0, nv)) * v
        y *= r / np.sqrt(_cdot(y, y))
        return _trail(np.where(small, x, y) if small.any() else y)

    def _tiebreak_direction(self, xhat: np.ndarray) -> np.ndarray:
        """Unit tangent along the first ambient axis not parallel to x."""
        d = self.ambient_dim
        proj_sq = 1.0 - xhat ** 2  # squared norm of each projected axis
        idx = np.argmax(proj_sq > 0.1, axis=-1)
        e = np.eye(d)[idx]
        u = e - xhat * np.take_along_axis(xhat, idx[..., None], axis=-1)
        return u / np.linalg.norm(u, axis=-1, keepdims=True)

    def _chord(self, x, y):
        """(d, |d|, |y + x|), d = y - x, of coordinate-leading x and y."""
        d, s = y - x, y + x
        return d, np.sqrt(_cdot(d, d)), np.sqrt(_cdot(s, s))

    def _angle(self, x, y):
        """The angle between coordinate-leading x and y on the representation
        sphere: 2 atan2(|y - x|, |y + x|) keeps full precision near 0 and
        near pi, where arcsin and arccos lose digits."""
        _, dn, pn = self._chord(x, y)
        return 2.0 * np.arctan2(dn, pn)

    def _direction(self, x, y):
        """(theta, e): the angle and the unit embedding direction, both
        coordinate-leading, of the chosen minimal geodesic from x to y.

        The tie-break direction is built only for antipodal rows; rows at
        angle 0 get e = 0.
        """
        r = self.radius
        theta = self._angle(x, y)
        # np.clip's bits, without its dispatch
        cosang = np.minimum(np.maximum(_cdot(x, y) / (r * r), -1.0), 1.0)
        xhat = x / r
        w = y / r - cosang * xhat
        wn = np.sqrt(_cdot(w, w))
        antipodal = (wn < 1e-8) & (cosang < 0.0)
        e = w / np.where((theta > 0.0) & (wn >= 1e-300), wn, np.inf)
        if antipodal.any():
            # x may carry fewer batch axes than y
            xb = _trail(np.broadcast_to(xhat, w.shape))
            _trail(e)[antipodal] = self._tiebreak_direction(xb[antipodal])
        return theta, e

    def _log(self, x, y):
        theta, e = self._direction(x, y)
        d = self.radius * theta
        return d, d * e

    # distance and depart scale the angle by s * radius, which the base's
    # s * (radius * angle) would round differently, and depart's direction
    # is e / s, which log / dist would round twice.

    def distance(self, t, x, y):
        s = np.sqrt(self._factor(t))
        return s * self.radius * self._angle(*_lead(x, y))

    def depart(self, t, x, y):
        theta, e = self._direction(*_lead(x, y))
        s = np.sqrt(self._factor(t))
        return s * self.radius * theta, _trail(e / s)

    def toward(self, t, x, o):
        # The chord gives both the angle, as in _angle, and
        # R sin(angle) = |o - x| |o + x| / 2R, with no sin call.
        r = self.radius
        x, o = _lead(x, o)
        d, dn, pn = self._chord(x, o)
        s = np.sqrt(self._factor(t))
        den = dn * pn * (s / (2.0 * r))
        q = d / np.where(den > 0.0, den, np.inf)
        fold = pn < 1e-7 * r  # at or near the antipode: depart's u0
        if fold.any():
            x, o = (_trail(np.broadcast_to(a, q.shape)) for a in (x, o))
            _trail(q)[fold] = self.depart(t, x[fold], o[fold])[1]
        return s * r * (2.0 * np.arctan2(dn, pn)), _trail(q)

    def _transport(self, x, e, length, v):
        # rotation by the angle length / radius in the plane of x and e
        theta = length / self.radius
        a = _cdot(v, e)
        w = v - a * e
        return a * (np.cos(theta) * e - np.sin(theta) * (x / self.radius)) + w

    def _gram_schmidt(self, x):
        """The unit frame vectors at coordinate-leading x, coordinate-leading
        and in frame order: the Gram-Schmidt, in closed form, of the axes
        other than the one x leans on most, in increasing order. With
        y = x / radius, vector i is g (e_k - (y_k / |a|^2) a) for the i-th
        kept axis k, a the part of y on the axes not yet used (the dropped
        one stays in it) and g = |a| / |a - y_k e_k|. Zeros are +0."""
        m = self.dim
        y = x / self.radius
        # Each buffer is reused once its contents are spent, so the loop
        # holds a, h, the masks and the two diagonal terms alone.
        t = np.abs(y)  # the dropped axis is the first top of its maxima
        for c in range(m):
            t[c + 1] = np.maximum(t[c], t[c + 1])
        past = (t[:m] == t[m]) * 1.0  # 1: dropped axis <= i, k = i + 1
        h = np.where(past, y[1:], y[:-1])  # y_k, until it becomes h
        t[m] *= t[m]  # |a|^2: suffix sums of the kept squares
        for i in range(m - 1, -1, -1):
            t[i] = h[i] * h[i] + t[i + 1]
        g = t[:m] / t[1:]
        np.sqrt(g, out=g)
        h *= g
        h /= t[:m]
        stay = np.subtract(1.0, past, out=t[:m])
        on_i, on_next = stay * g, np.multiply(past, g, out=g)
        a = y
        for i in range(m):
            w = np.subtract(0.0, h[i] * a)
            w[i] += on_i[i]
            w[i + 1] += on_next[i]
            yield w
            if i + 1 < m:  # row k leaves a, which the last vector spends
                a[i] *= past[i]
                a[i + 1] *= stay[i]

    def _frame(self, x):
        out = np.empty(x.shape[1:] + (self.dim, self.ambient_dim))
        for i, w in enumerate(self._gram_schmidt(x)):
            out[..., i, :] = _trail(w)
        return out

    def lift(self, t, x, xi):
        # Sums xi_i Phi_i in frame order, as the base version's einsum
        # does, without the (..., m, ambient) frame.
        s = np.sqrt(self._factor(t))
        x, xi = _lead(x, xi)
        terms = [xi[i] * (w / s) for i, w in enumerate(self._gram_schmidt(x))]
        return _trail(np.sqrt(self.dim + 2.0) * sum(terms[1:], terms[0]))

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
    """g(t) = exp(-k (t - t1)) g_base for a static space form g_base.

    The time factor over the base's hooks: geodesics, the mirror and the
    curvature operator are the base's, and the base class scales norms,
    distances, transports and frames by the factor. The base's own time
    factor would be lost, so a flow sphere, a scaled metric and a model
    with no ambient product are refused as bases.
    """

    kind = "scaled"

    def __init__(self, base: ManifoldModel, k: float, time_window=(0.0, 1.0)):
        if (base._product is None or isinstance(base, ScaledMetric)
                or isinstance(base, RoundSphere) and base.flow):
            raise InvalidInput("scaled metric requires a static space form "
                               "as its base", key="base")
        super().__init__(base.dim, base.ambient_dim, time_window)
        self.base = base
        self.k = float(k)
        self._product, self._r2 = base._product, base._r2
        self._log, self._transport = base._log, base._transport
        self._frame = base._frame

    def describe(self) -> dict:
        return {"kind": self.kind, "dim": self.dim, "k": self.k,
                "base": self.base.describe()}

    @property
    def model_id(self) -> str:
        return f"scaled[{self.base.model_id}]:k={self.k}"

    def _factor(self, t: float) -> float:
        return float(np.exp(-self.k * (t - self.time_window[0])))

    def _factor_dt(self, t: float) -> float:
        return -self.k * self._factor(t)

    def exp(self, t, x, v):
        return self.base.exp(t, x, v)

    def distance(self, t, x, y):
        return np.sqrt(self._factor(t)) * self.base.distance(t, x, y)

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
    def _lorentz(u, v):
        """<u, v>_L of coordinate-leading u and v."""
        return _cdot(u[1:], v[1:]) - u[0] * v[0]

    # x - y is spacelike, so mirror is a Lorentz map of the upper sheet
    _product = _lorentz
    _r2 = -1.0

    def _ldot(self, u, v):
        return self._lorentz(*_lead(u, v))

    def exp(self, t, x, v):
        x, v = _lead(x, v)
        nv = np.sqrt(np.maximum(self._lorentz(v, v), 0.0))
        small = nv < 1e-15
        y = np.cosh(nv) * x
        y += (np.sinh(nv) / np.where(small, 1.0, nv)) * v
        # back onto the hyperboloid through x_0
        y[0] = np.sqrt(1.0 + _cdot(y[1:], y[1:]))
        return _trail(np.where(small, x, y) if small.any() else y)

    def _separation(self, x, y):
        """(c, theta) of coordinate-leading x and y: c = max(-<x, y>_L, 1),
        with np.clip's bits, and theta the distance, whose arcsinh chord
        form is exact near coincidence where arccosh(1 + eps) loses half the
        digits."""
        c = np.maximum(-self._lorentz(x, y), 1.0)
        d = y - x
        chord = np.sqrt(np.maximum(self._lorentz(d, d), 0.0))
        return c, np.where(c < 1.5, 2.0 * np.arcsinh(0.5 * chord), np.arccosh(c))

    def _log(self, x, y):
        c, theta = self._separation(x, y)
        w = y - c * x
        wn = np.sqrt(np.maximum(self._lorentz(w, w), 0.0))
        small = wn < 1e-300
        v = (theta / np.where(small, 1.0, wn)) * w
        return theta, np.where(small, 0.0, v)

    def distance(self, t, x, y):
        return self._separation(*_lead(x, y))[1]

    def _transport(self, x, u, length, v):
        a = self._lorentz(v, u)
        w = v - a * u
        return a * (np.sinh(length) * x + np.cosh(length) * u) + w

    def _frame(self, x):
        # The boost from the origin, Phi_i = e_i + x_i / (1 + x_0) (x + e_0):
        # Lorentz-orthonormal and tangent at x by algebra, with no square
        # root, and exactly e_i at the origin.
        bent = np.array(x, dtype=float)
        bent[0] += 1.0
        lean = _trail(bent[1:] / bent[0])
        out = lean[..., None] * _trail(bent)[..., None, :]
        out[..., np.arange(self.dim), np.arange(1, self.ambient_dim)] += 1.0
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


def _components(v, at=None, refusal: str = "") -> np.ndarray:
    """The components of v; a TangentVector based more than POINT_TOL off
    ``at`` in some coordinate is refused."""
    if not isinstance(v, TangentVector):
        return np.asarray(v, dtype=float)
    if at is not None and not np.allclose(v.base.coords, at, rtol=0.0,
                                          atol=POINT_TOL):
        raise InvalidInput(refusal)
    return v.components


def exp(model: ManifoldModel, t: float, x, v) -> Point:
    """Exponential map of g(t): follow the geodesic with initial velocity v."""
    model.check_time(t)
    xc = _coords(x)
    vc = _components(v, xc if isinstance(x, Point) else None,
                     "exp: tangent vector not based at x")
    if not (np.all(np.isfinite(xc)) and np.all(np.isfinite(vc))):
        raise InvalidInput("exp: non-finite input")
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
    vc = _components(v, geodesic.start.coords,
                     "parallel_transport: v not based at geodesic start")
    out = geodesic.transport_from_start(vc, geodesic.length)
    return TangentVector(geodesic.end, out)


def distance(model: ManifoldModel, t: float, x, y) -> float:
    """Geodesic distance for the metric g(t)."""
    model.check_time(t)
    return float(model.distance(t, _coords(x), _coords(y)))


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


# ---------------------------------------------------------------------------
# Descriptor factory
# ---------------------------------------------------------------------------

# The manifold kinds a config can name: each key besides "kind" with its
# JSON type and default (_REQUIRED if it must be given), and the constructor,
# called with the keys' values in this order and the time window. A scaled
# metric's base is a nested descriptor; without one its base is Euclidean.
_REQUIRED = object()
_KINDS: dict[str, tuple[dict, Callable]] = {
    "euclidean": ({"dim": (int, _REQUIRED)}, Euclidean),
    "sphere": ({"dim": (int, _REQUIRED), "radius_c0": (float, 1.0),
                "flow": (bool, False)}, RoundSphere),
    "scaled": ({"k": (float, _REQUIRED), "base": (dict, None), "dim": (int, 2)},
               lambda k, base, dim, w: ScaledMetric(
                   base or Euclidean(dim, w), k, w)),
    "hyperbolic": ({"dim": (int, _REQUIRED)}, Hyperbolic),
}


def make_model(desc: dict, time_window: tuple[float, float]) -> ManifoldModel:
    """Build a model from a config descriptor: a kind tag plus that kind's
    keys. A fault raises InvalidInput naming its key, ``base.<key>`` inside
    a scaled metric's base."""
    if not isinstance(desc, dict):
        raise InvalidInput("must be an object with a 'kind' tag")
    kind = desc.get("kind")
    if kind is None:
        raise InvalidInput("missing", key="kind")
    if not isinstance(kind, str) or kind not in _KINDS:
        raise InvalidInput(f"unknown manifold kind {kind!r}", key="kind")
    keys, build = _KINDS[kind]
    for key in sorted(set(desc) - set(keys) - {"kind"}):
        raise InvalidInput(f"unknown key for manifold kind {kind!r}", key=key)
    for key, (_, default) in keys.items():
        if default is _REQUIRED and key not in desc:
            raise InvalidInput("missing", key=key)
    if kind == "scaled" and "base" in desc and "dim" in desc:
        raise InvalidInput("give a scaled metric dim or base, not both",
                           key="dim")
    for key, value in desc.items():
        if key != "kind" and keys[key][0] is not dict:
            check_json_type(key, value, keys[key][0])
    values = {key: desc.get(key, default) for key, (_, default) in keys.items()}
    if "base" in desc:
        try:
            values["base"] = make_model(desc["base"], time_window)
        except InvalidInput as e:
            raise InvalidInput(str(e), key=".".join(
                filter(None, ("base", e.key)))) from None
    return build(*values.values(), time_window)


def list_model_kinds() -> list[str]:
    """The manifold kinds a config can name."""
    return list(_KINDS)
