"""Coupled geodesic random walks: reflection and parallel transport.

Both couplings drive the pair with a single ball sample per step. The
second particle receives the first's lifted noise parallel-transported
along the connecting minimal geodesic; the reflection coupling additionally
mirrors it across the hyperplane orthogonal to the geodesic's arrival
direction. That map is ``model.mirror``; on the closed-form models it is
the reflection of the ambient space (Euclidean, or Minkowski on the
hyperboloid) across the bisector of the two points, the classical mirror
coupling. Discrete walks almost surely never meet exactly, so pairs are
declared coupled at distance <= delta_couple and the second particle
follows the first from then on, which preserves the marginal transition
rule because the declaration time is a stopping time of the pair.
``coupled_step`` is one transition of a pair; ``coupled_kernel`` runs a
block of pairs, and its ``trace`` one pair's records, whose coupling time
is ``schedule.times[couple_step]`` (none when ``couple_step`` is -1).
"""

from __future__ import annotations

import math
from functools import partial

import numpy as np

from . import engine
from .comparison import beta, chi
from .engine import CouplingKind
from .errors import InvalidInput
from .manifolds import COINCIDE_TOL, ManifoldModel, Point, _coords
from .walk import Schedule, _ball_sample


def coupled_step(model: ManifoldModel, t: float, x1, x2, xi: np.ndarray,
                 alpha: float, kind: CouplingKind = CouplingKind.REFLECTION,
                 frac: float = 1.0):
    """One synchronized transition of the pair: ``engine.reflect_step`` on
    a block of one, the pair stacked as its two rows.

    Returns (new x1, new x2, lambda_star) with lambda_star the signed
    first-variation rate of the distance (zero for parallel transport).
    Coincident inputs count as coupled and move together; their
    lambda_star is the kernel's, 2 sqrt(m+2) xi_1 for reflection.
    """
    Z, xi = np.stack([_coords(x1), _coords(x2)]), _ball_sample(xi)[None, :]
    geo = model.depart(t, Z[:1], Z[1:])
    coupled = geo[0] < COINCIDE_TOL
    Zn, lift = engine.reflect_step(model, t, Z, xi, geo, coupled, alpha,
                                   frac, kind=kind)
    lam = engine.lambda_star(model, t, Z[:1], xi, lift[:1], geo[1], coupled,
                             kind)
    return (Point(Zn[0], model.model_id), Point(Zn[1], model.model_id),
            float(lam[0]))


def coupled_kernel(model: ManifoldModel, schedule: Schedule, start1, start2,
                   seed: int, n_paths: int = 1, *,
                   kind: CouplingKind = CouplingKind.REFLECTION,
                   delta_couple: float | None = None, k: float = 0.0,
                   origin: np.ndarray | None = None,
                   exit_radius: float | None = None) -> engine.PathKernel:
    """``engine.coupled_chunk`` of the pair from (start1, start2) with
    these settings, and the params every coupled kind reports for
    ``n_paths`` pairs. ``delta_couple`` defaults to 2 alpha and is at
    least alpha, or 0 to couple no pair."""
    alpha = schedule.alpha
    delta = 2.0 * alpha if delta_couple is None else float(delta_couple)
    if 0.0 < delta < alpha:
        raise InvalidInput("delta_couple must be >= alpha (or 0 to "
                           "disable)", key="delta_couple")
    engine.check_exit_radius(exit_radius, origin)
    start1, start2 = np.asarray(start1, float), np.asarray(start2, float)
    d0 = float(model.distance(schedule.t1, start1, start2))
    return engine.PathKernel(partial(
        engine.coupled_chunk, model, schedule, start1, start2, seed,
        kind=kind, delta_couple=delta, k=k, origin=origin,
        exit_radius=exit_radius), {
        "alpha": alpha, "delta_couple": delta, "k": k, "d0": d0,
        "horizon": schedule.t2 - schedule.t1, "coupling": kind.value,
        "n_paths": n_paths, "manifold": model.describe()}, seed, schedule)


def coupling_probability_bound(d0: float, k: float, horizon: float) -> float:
    """Upper bound on the probability that the pair never meets by the
    horizon: the two-sided normal mass at d0 / (2 sqrt(beta(horizon)))."""
    if d0 < 0 or horizon < 0:
        raise InvalidInput("d0 and horizon must be nonnegative")
    if d0 == 0.0:
        return 0.0
    if horizon == 0.0:
        return 1.0
    return float(chi(d0 / (2.0 * math.sqrt(beta(horizon, k)))))


def dominating_process(schedule: Schedule, distance: np.ndarray,
                       lambda_star: np.ndarray, k: float) -> np.ndarray:
    """The one-dimensional dominating path at skeleton times, rebuilt from
    the recorded distances (..., n+1) and lambda* values (..., n):
    U_n = e^{-k (t_n - t1)/2} (d_0 + alpha sum_{j<n} w_j lambda*_j) with
    w_j = frac_j e^{k (t_{j+1} - t1)/2}. Leading axes are paths, so a
    kernel trace (``distance``, ``lambda_star``) gives every path's U."""
    rel = schedule.times - schedule.t1
    weights = schedule.fracs * np.exp(k * rel[1:] / 2.0)
    lam = np.asarray(lambda_star, dtype=float)
    sums = np.cumsum(weights * lam, axis=-1)
    sums = np.concatenate([np.zeros(lam.shape[:-1] + (1,)), sums], axis=-1)
    d0 = np.asarray(distance, dtype=float)[..., :1]
    return np.exp(-k * rel / 2.0) * (d0 + schedule.alpha * sums)
