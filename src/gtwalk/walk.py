"""Time-inhomogeneous geodesic random walks.

The walk advances on the schedule t_n = (t1 + alpha^2 n) wedge t2. At each
step a sample xi uniform on the unit ball is lifted through the orthonormal
frame, scaled by sqrt(m+2) alpha, the model's drift field (if
``model.has_drift``) is added at order alpha^2, and the exponential map is
applied; the final step, possibly partial, traverses its defining geodesic
only to the fraction (t2 - t_n)/alpha^2. Paths are reproducible bit for
bit from (seed, path index) and embarrassingly parallel. ``step`` is one
transition; ``walk_kernel`` runs a block of paths, and its ``trace`` one
path's records.
"""

from __future__ import annotations

import math
from functools import partial

import numpy as np

from . import engine
from .errors import InvalidInput
from .manifolds import ManifoldModel, Point, TangentVector, _coords


class Schedule:
    """The step times (t1 + alpha^2 n) wedge t2 and their step fractions."""

    def __init__(self, t1: float, t2: float, alpha: float):
        if not (alpha > 0 and alpha ** 2 < t2 - t1):
            raise InvalidInput(f"need 0 < alpha and alpha^2 < t2 - t1 = "
                               f"{t2 - t1}, not alpha = {alpha}", key="alpha")
        self.t1, self.t2, self.alpha = float(t1), float(t2), float(alpha)
        n_steps = int(math.ceil((t2 - t1) / alpha ** 2 - 1e-9))
        times = t1 + alpha ** 2 * np.arange(n_steps + 1)
        times[-1] = min(times[-1], t2)
        self.times = times
        self.fracs = np.diff(times) / alpha ** 2

    @property
    def n_steps(self) -> int:
        """Total number of steps, the final possibly partial."""
        return len(self.times) - 1


def _ball_sample(xi) -> np.ndarray:
    """xi as an array, refused unless |xi| <= 1 up to rounding."""
    xi = np.asarray(xi, dtype=float)
    if float(np.linalg.norm(xi)) > 1.0 + 1e-12:
        raise InvalidInput("ball sample must satisfy |xi| <= 1")
    return xi


def step(model: ManifoldModel, t: float, x, xi: np.ndarray, alpha: float,
         frac: float = 1.0):
    """One walk transition from x at time t driven by the ball sample xi:
    ``engine.walk_step`` on a block of one.

    Returns the landing point and the lift sqrt(m+2) Phi(x) xi at x.
    ``frac`` traverses only that fraction of the defining geodesic (the
    final partial step).
    """
    xc, xi = _coords(x), _ball_sample(xi)
    y, lift, _ = engine.walk_step(model, t, xc[None, :], xi[None, :], alpha,
                                  frac)
    return (Point(y[0], model.model_id),
            TangentVector(Point(xc, model.model_id), lift[0]))


def walk_kernel(model: ManifoldModel, schedule: Schedule, start: np.ndarray,
                seed: int, n_paths: int = 1, *,
                origin: np.ndarray | None = None,
                exit_radius: float | None = None,
                radial: dict | None = None) -> engine.PathKernel:
    """``engine.walk_chunk`` from ``start`` with these settings, and the
    params every walk kind reports for ``n_paths`` paths."""
    engine.check_exit_radius(exit_radius, None if radial else origin)
    return engine.PathKernel(
        partial(engine.walk_chunk, model, schedule, start, seed,
                origin=origin, exit_radius=exit_radius, radial=radial),
        {"alpha": schedule.alpha, "n_paths": n_paths,
         "exit_radius": exit_radius, "manifold": model.describe()}, seed,
        schedule)

