"""Second-variation machinery along geodesics.

The scalar comparison ODE G'' = -Ric(gdot, gdot) G / (m-1), index forms of
sampled vector fields, the rescaled parallel field used in curvature
comparisons, and the time derivative of geodesic distance under a
time-dependent metric. All quadrature is composite trapezoid on uniform
grids; covariant derivatives of sampled fields come from transporting
neighbor samples to a common point and central-differencing.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (DegenerateGeodesic, InvalidInput, SingularConfiguration,
                     UnsupportedOperation)
from .manifolds import Geodesic, ManifoldModel, _components

DEFAULT_GRID = 64
MIN_GRID = 16


@dataclass
class GreenSolution:
    """Solution G with G(0) = 0, G'(0) = 1 of the comparison ODE."""
    geodesic: Geodesic
    grid: np.ndarray
    values: np.ndarray
    derivative: np.ndarray

    @property
    def end_value(self) -> float:
        return float(self.values[-1])

    @property
    def end_derivative(self) -> float:
        return float(self.derivative[-1])


@dataclass
class SampledField:
    """A tangent field sampled on a uniform arclength grid of a geodesic."""
    geodesic: Geodesic
    grid: np.ndarray
    values: np.ndarray  # (n, ambient_dim)


@dataclass
class VariationTerms:
    """First/second-variation coefficients of one coupled step.

    ``lambda_star`` pairs the noise with the geodesic's departure direction
    (2 <xi, gdot(0)>); see the coupling module for the sign convention used
    in recorded distance recursions. ``Lambda_star`` is the sum of its
    breakdown components, exactly.
    """
    lambda_star: float
    Lambda_star: float
    components: dict[str, float] = field(default_factory=dict)


def _uniform_grid(length: float, n_grid: int) -> np.ndarray:
    return np.linspace(0.0, length, n_grid)


def _geodesic_points_velocities(model: ManifoldModel, geodesic: Geodesic,
                                grid: np.ndarray):
    pts = np.stack([geodesic.sample_coords(float(u)) for u in grid])
    vels = np.stack([geodesic.velocity_coords(float(u)) for u in grid])
    return pts, vels


def solve_green(model: ManifoldModel, geodesic: Geodesic,
                n_grid: int = DEFAULT_GRID) -> GreenSolution:
    """Integrate G'' = -Ric(gdot, gdot) G / (m - 1) along the geodesic.

    Fixed-step RK4 on [0, length] with G(0) = 0, G'(0) = 1. Exact up to RK4
    error; on constant-curvature models G is u, sin-like or sinh-like.
    """
    if model.dim < 2:
        raise UnsupportedOperation("solve_green needs dimension >= 2")
    if n_grid < MIN_GRID:
        raise InvalidInput(f"n_grid must be >= {MIN_GRID}")
    if geodesic.length <= 0.0:
        raise DegenerateGeodesic("solve_green: zero-length geodesic")
    t = geodesic.time
    grid = _uniform_grid(geodesic.length, n_grid)
    h = grid[1] - grid[0]

    def coeff(u: float) -> float:
        p = geodesic.sample_coords(u)
        gd = geodesic.velocity_coords(u)
        return -float(model.ricci(t, p, gd)) / (model.dim - 1)

    # coefficient at nodes and midpoints, reused by the RK4 sweep
    a_nodes = np.array([coeff(float(u)) for u in grid])
    a_mid = np.array([coeff(float(u) + h / 2.0) for u in grid[:-1]])

    G = np.empty(n_grid)
    Gp = np.empty(n_grid)
    G[0], Gp[0] = 0.0, 1.0
    y = np.array([0.0, 1.0])
    for i in range(n_grid - 1):
        def rhs(state, a):
            return np.array([state[1], a * state[0]])
        k1 = rhs(y, a_nodes[i])
        k2 = rhs(y + 0.5 * h * k1, a_mid[i])
        k3 = rhs(y + 0.5 * h * k2, a_mid[i])
        k4 = rhs(y + h * k3, a_nodes[i + 1])
        y = y + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        G[i + 1], Gp[i + 1] = y
    return GreenSolution(geodesic, grid, G, Gp)


def dagger_field(green: GreenSolution, model: ManifoldModel,
                 v) -> SampledField:
    """The field (G(u)/G(L)) times the parallel extension of v from the end.

    Vanishes at u = 0 and equals v at u = L.
    """
    geo = green.geodesic
    vc = _components(v, geo.end.coords,
                     "dagger_field: v must be based at the geodesic end")
    if green.end_value <= 0.0:
        raise SingularConfiguration("dagger_field: G(length) <= 0")
    rev = geo.reversed()
    L = geo.length
    vals = np.empty((len(green.grid), vc.shape[-1]))
    for i, u in enumerate(green.grid):
        vals[i] = rev.transport_from_start(vc, L - float(u))
    vals *= (green.values / green.end_value)[:, None]
    return SampledField(geo, green.grid.copy(), vals)


def index_form(model: ManifoldModel, t: float, geodesic: Geodesic,
               field_values) -> float:
    """Second-variation quadratic form of a sampled field along a geodesic.

    Composite trapezoid of |nabla_gdot V|^2 - <R(V, gdot) gdot, V> on the
    field's uniform grid; covariant derivatives by transporting neighbor
    samples to the evaluation point (second-order one-sided at the ends).
    """
    if isinstance(field_values, SampledField):
        grid, vals = field_values.grid, field_values.values
    else:
        vals = np.asarray(field_values, dtype=float)
        grid = _uniform_grid(geodesic.length, vals.shape[0])
    n = len(grid)
    if n < MIN_GRID:
        raise InvalidInput(f"index_form: grid too coarse ({n} < {MIN_GRID})")
    if geodesic.length <= 0.0:
        raise DegenerateGeodesic("index_form: zero-length geodesic")
    h = grid[1] - grid[0]
    pts, vels = _geodesic_points_velocities(model, geodesic, grid)

    fwd = model.transport_along(t, pts[:-1], vels[:-1], h, vals[:-1])
    bwd = model.transport_along(t, pts[1:], -vels[1:], h, vals[1:])
    fwd2 = model.transport_along(t, pts[:-2], vels[:-2], 2 * h, vals[:-2])
    bwd2 = model.transport_along(t, pts[2:], -vels[2:], 2 * h, vals[2:])

    deriv = np.empty_like(vals)
    deriv[1:-1] = (bwd[1:] - fwd[:-1]) / (2 * h)
    deriv[0] = (-3 * vals[0] + 4 * bwd[0] - bwd2[0]) / (2 * h)
    deriv[-1] = (3 * vals[-1] - 4 * fwd[-1] + fwd2[-1]) / (2 * h)

    curv = model.inner(t, pts, model.curvature(t, pts, vals, vels, vels),
                       vals)
    integrand = model.inner(t, pts, deriv, deriv) - curv
    return float(np.trapezoid(integrand, grid))


def dt_distance(model: ManifoldModel, t: float, geodesic: Geodesic,
                n_grid: int = DEFAULT_GRID) -> float:
    """Time derivative of d_{g(t)}(start, end): half the integral of
    (d/dt g)(gdot, gdot) along the minimal geodesic."""
    if geodesic.length <= 0.0:
        raise DegenerateGeodesic("dt_distance: zero-length geodesic")
    grid = _uniform_grid(geodesic.length, n_grid)
    pts, vels = _geodesic_points_velocities(model, geodesic, grid)
    vals = model.metric_dt(t, pts, vels, vels)
    return 0.5 * float(np.trapezoid(vals, grid))


def coupled_variation_terms(model: ManifoldModel, t: float,
                            geodesic: Geodesic, xi1,
                            n_grid: int = DEFAULT_GRID) -> VariationTerms:
    """First- and second-variation coefficients for a coupled step.

    lambda* = 2 <xi1, gdot(0)>; Lambda* is half the integral of
    (d/dt g + 2 (grad Z)^flat)(gdot, gdot) plus half the index form of the
    parallel extension of the gdot-orthogonal part of xi1. The drift part
    telescopes to boundary terms of <Z, gdot>, which is exact.
    """
    if geodesic.length <= 0.0:
        raise DegenerateGeodesic("coupled_variation_terms: zero-length geodesic")
    xic = _components(xi1, geodesic.start.coords,
                      "coupled_variation_terms: xi1 not based at start")
    start = geodesic.start.coords
    u0 = geodesic.initial_velocity.components
    lam = 2.0 * float(model.inner(t, start, xic, u0))

    dt_comp = dt_distance(model, t, geodesic, n_grid)

    drift_comp = 0.0
    if model.has_drift:
        uL = geodesic.velocity_coords(geodesic.length)
        end = geodesic.end.coords
        drift_comp = (float(model.inner(t, end, model.drift(t, end), uL))
                      - float(model.inner(t, start, model.drift(t, start), u0)))

    v_perp = xic - float(model.inner(t, start, xic, u0)) * u0
    grid = _uniform_grid(geodesic.length, n_grid)
    vals = np.stack([geodesic.transport_from_start(v_perp, float(u))
                     for u in grid])
    index_comp = 0.5 * index_form(model, t, geodesic,
                                  SampledField(geodesic, grid, vals))

    components = {"dt_distance": dt_comp, "drift_term": drift_comp,
                  "index_term": index_comp}
    return VariationTerms(lambda_star=lam,
                          Lambda_star=dt_comp + drift_comp + index_comp,
                          components=components)
