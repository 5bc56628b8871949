"""Numeric-chart manifold: user-supplied metric on a coordinate chart.

One fixed-step RK4 integrator, with Christoffel symbols from central finite
differences of the metric, serves every geodesic operation: it integrates
the geodesic equation alone for ``exp`` and the geodesic trace, and the
joint geodesic and parallel-transport system for transport. The math is
pointwise; like every model, the public methods broadcast over leading
axes, here by one call per point. Minimal geodesics and distances between
arbitrary points (boundary-value problems) are not supported here.
"""

from __future__ import annotations

from functools import partial
from typing import Callable

import numpy as np

from .errors import InvalidInput
from .manifolds import Geodesic, ManifoldModel

FD_EPS = 1e-5        # metric finite-difference step
FD_EPS_T = 1e-6      # metric time-derivative step
FD_EPS_CURV = 1e-4   # Christoffel finite-difference step for curvature
MAX_STEP = 0.05      # chart-length covered by one RK4 step
MIN_STEPS = 20


def _over_points(fn, *args, scalars: tuple = ()):
    """The pointwise ``fn`` called once per point of the broadcast leading
    axes of args, results stacked. Args at the ``scalars`` positions hold
    one number per point, the others one (dim,) vector, as a contiguous
    row: a per-point ``@`` may sum a strided row in another order."""
    arrays = [np.asarray(a, dtype=float) for a in args]
    cores = [0 if i in scalars else 1 for i in range(len(arrays))]
    lead = np.broadcast_shapes(*(a.shape[:a.ndim - c]
                                 for a, c in zip(arrays, cores)))
    if not lead:
        return fn(*arrays)
    rows = [np.ascontiguousarray(np.broadcast_to(a, lead + a.shape[a.ndim - c:])
                                 .reshape((-1,) + a.shape[a.ndim - c:]))
            for a, c in zip(arrays, cores)]
    out = np.array([fn(*row) for row in zip(*rows)])
    return out.reshape(lead + out.shape[1:])


class NumericChart(ManifoldModel):
    """Chart R^m with metric from a callable ``metric(t, x) -> (m, m)``.

    An optional callable provides a drift field; the metric time derivative
    is a central difference in t. Every callable takes one point of shape
    (m,); the methods map them over batches.
    """

    kind = "numeric-chart"

    def __init__(self, dim: int,
                 metric: Callable[[float, np.ndarray], np.ndarray],
                 drift: Callable[[float, np.ndarray], np.ndarray] | None = None,
                 time_window=(0.0, 1.0)):
        super().__init__(dim, dim, time_window)
        self._metric = metric
        self._drift = drift
        self.has_drift = drift is not None

    # -- pointwise metric data ----------------------------------------------

    def metric_matrix(self, t: float, x: np.ndarray) -> np.ndarray:
        g = np.asarray(self._metric(t, np.asarray(x, dtype=float)), dtype=float)
        if g.shape != (self.dim, self.dim):
            raise InvalidInput(f"metric callable returned shape {g.shape}")
        return 0.5 * (g + g.T)

    def inner(self, t, x, u, v):
        return _over_points(
            lambda x, u, v: float(u @ self.metric_matrix(t, x) @ v), x, u, v)

    def metric_dt(self, t, x, u, v):
        def at(x, u, v):
            h = FD_EPS_T
            g = (self.metric_matrix(t + h, x)
                 - self.metric_matrix(t - h, x)) / (2 * h)
            return float(u @ g @ v)
        return _over_points(at, x, u, v)

    def drift(self, t, x):
        if self._drift is None:
            return np.zeros_like(np.asarray(x, dtype=float))
        return _over_points(
            lambda x: np.asarray(self._drift(t, x), dtype=float), x)

    # -- Christoffel symbols and curvature ------------------------------------

    def christoffel(self, t: float, x: np.ndarray) -> np.ndarray:
        """Gamma^i_{jk} at (t, x) via central differences of the metric."""
        m = self.dim
        x = np.asarray(x, dtype=float)
        dg = np.empty((m, m, m))  # dg[l, j, k] = d g_jk / d x_l
        for l in range(m):
            step = np.zeros(m)
            step[l] = FD_EPS
            dg[l] = (self.metric_matrix(t, x + step)
                     - self.metric_matrix(t, x - step)) / (2 * FD_EPS)
        ginv = np.linalg.inv(self.metric_matrix(t, x))
        # term[j, k, l] = d_j g_kl + d_k g_jl - d_l g_jk
        term = dg + dg.transpose(1, 0, 2) - dg.transpose(1, 2, 0)
        return 0.5 * np.einsum("il,jkl->ijk", ginv, term)

    def curvature(self, t, x, u, v, w):
        return _over_points(partial(self._curvature_at, t), x, u, v, w)

    def _curvature_at(self, t, x, u, v, w):
        m = self.dim
        dgam = np.empty((m, m, m, m))  # dgam[l] = d Gamma / d x_l
        for l in range(m):
            step = np.zeros(m)
            step[l] = FD_EPS_CURV
            dgam[l] = (self.christoffel(t, x + step)
                       - self.christoffel(t, x - step)) / (2 * FD_EPS_CURV)
        gam = self.christoffel(t, x)
        # R(u,v)w = (d_u Gamma)(v,w) - (d_v Gamma)(u,w) + Gamma(u, Gamma(v,w)) - Gamma(v, Gamma(u,w))
        du_gam = np.einsum("lijk,l->ijk", dgam, u)
        dv_gam = np.einsum("lijk,l->ijk", dgam, v)
        gvw = np.einsum("ijk,j,k->i", gam, v, w)
        guw = np.einsum("ijk,j,k->i", gam, u, w)
        out = (np.einsum("ijk,j,k->i", du_gam, v, w)
               - np.einsum("ijk,j,k->i", dv_gam, u, w)
               + np.einsum("ijk,j,k->i", gam, u, gvw)
               - np.einsum("ijk,j,k->i", gam, v, guw))
        return out

    def ricci(self, t, x, v):
        def at(x, v):
            fr = self.frame(t, x)
            total = 0.0
            for a in range(self.dim):
                r = self.curvature(t, x, fr[a], v, v)
                total += self.inner(t, x, r, fr[a])
            return total
        return _over_points(at, x, v)

    # -- geodesics -------------------------------------------------------------

    def _rk4(self, t: float, state: tuple,
             min_steps: int = MIN_STEPS) -> np.ndarray:
        """Fixed-step RK4 over affine parameter [0, 1] for ``state`` = (x, v),
        the geodesic equation, or (x, v, w), jointly with the transport of
        w along it: one Christoffel evaluation per stage and
        max(min_steps, ceil(|v| / MAX_STEP)) steps. Returns the state at
        every grid point, shape (n + 1, len(state), dim)."""
        n = max(min_steps, int(np.ceil(float(np.linalg.norm(state[1]))
                                       / MAX_STEP)))
        h = 1.0 / n

        def rhs(s):
            x, v, *w = s
            gam = self.christoffel(t, x)
            return (v, *(-np.einsum("ijk,j,k->i", gam, v, b)
                         for b in (v, *w)))

        s = tuple(np.array(a, dtype=float) for a in state)
        trace = np.empty((n + 1, len(s), self.dim))
        trace[0] = s
        for i in range(n):
            k1 = rhs(s)
            k2 = rhs(tuple(a + 0.5 * h * b for a, b in zip(s, k1)))
            k3 = rhs(tuple(a + 0.5 * h * b for a, b in zip(s, k2)))
            k4 = rhs(tuple(a + h * b for a, b in zip(s, k3)))
            s = tuple(a + (h / 6.0) * (b1 + 2 * b2 + 2 * b3 + b4)
                      for a, b1, b2, b3, b4 in zip(s, k1, k2, k3, k4))
            trace[i + 1] = s
        return trace

    def exp(self, t, x, v):
        x = np.asarray(x, dtype=float)
        v = np.asarray(v, dtype=float)
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(v))):
            raise InvalidInput("exp: non-finite input")

        def at(x, v):
            if float(np.linalg.norm(v)) == 0.0:
                return x.copy()
            return self._rk4(t, (x, v))[-1, 0]
        return _over_points(at, x, v)

    def geodesic_from_exp(self, t: float, x: np.ndarray,
                          v: np.ndarray) -> Geodesic:
        """The geodesic segment traced by exp(t, x, s v), s in [0, 1],
        reparametrized by g(t)-arclength, with a cached dense trajectory."""
        x = np.asarray(x, dtype=float)
        v = np.asarray(v, dtype=float)
        length = float(np.sqrt(self.inner(t, x, v, v)))
        # denser trace than plain exp: samples are interpolated later
        trace = self._rk4(t, (x, v), min_steps=4 * MIN_STEPS)
        taus = np.linspace(0.0, 1.0, len(trace))
        return _NumericGeodesic(self, t, trace[:, 0], trace[:, 1], taus,
                                length)

    def transport_along(self, t, x, u, length, v):
        # u is a g(t)-unit initial velocity; integrate the transport
        # equation jointly with the geodesic of length ``length``.
        def at(x, u, length, v):
            L = float(length)
            if L == 0.0:
                return v.copy()
            return self._rk4(t, (x, L * u, v))[-1, 2]
        return _over_points(at, x, u, length, v, scalars=(2,))

    def frame(self, t, x):
        return _over_points(partial(self._frame_at, t), x)

    def _frame_at(self, t, x):
        g = self.metric_matrix(t, x)
        basis = np.eye(self.dim)
        out = np.empty((self.dim, self.dim))
        for i in range(self.dim):
            w = basis[i]
            for j in range(i):
                w = w - (out[j] @ g @ w) * out[j]
            out[i] = w / np.sqrt(w @ g @ w)
        return out


class _NumericGeodesic(Geodesic):
    """Geodesic backed by a dense RK4 trace with Hermite interpolation."""

    def __init__(self, model: NumericChart, time: float, xs: np.ndarray,
                 vs: np.ndarray, taus: np.ndarray, length: float):
        u0 = vs[0] / length if length > 0 else vs[0]
        super().__init__(model, time, xs[0], xs[-1], length, u0)
        self._xs, self._vs, self._taus = xs, vs, taus

    def _locate(self, u: float):
        tau = np.clip(u / self.length if self.length > 0 else 0.0, 0.0, 1.0)
        i = min(int(tau * (len(self._taus) - 1)), len(self._taus) - 2)
        h = self._taus[i + 1] - self._taus[i]
        s = (tau - self._taus[i]) / h
        return i, s, h

    def sample_coords(self, u) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        if u.ndim:
            return np.stack([self.sample_coords(float(ui)) for ui in u])
        i, s, h = self._locate(float(u))
        x0, x1 = self._xs[i], self._xs[i + 1]
        v0, v1 = h * self._vs[i], h * self._vs[i + 1]
        h00 = 2 * s ** 3 - 3 * s ** 2 + 1
        h10 = s ** 3 - 2 * s ** 2 + s
        h01 = -2 * s ** 3 + 3 * s ** 2
        h11 = s ** 3 - s ** 2
        return h00 * x0 + h10 * v0 + h01 * x1 + h11 * v1

    def velocity_coords(self, u: float) -> np.ndarray:
        i, s, h = self._locate(float(u))
        v = (1 - s) * self._vs[i] + s * self._vs[i + 1]
        return v / self.length if self.length > 0 else v

    def transport_from_start(self, v: np.ndarray, u: float) -> np.ndarray:
        model: NumericChart = self.model  # type: ignore[assignment]
        if u <= 0.0 or self.length == 0.0:
            return np.asarray(v, dtype=float).copy()
        scaled_v0 = (float(u) / self.length) * self._vs[0]
        return model._rk4(self.time, (self._xs[0], scaled_v0, v))[-1, 2]
