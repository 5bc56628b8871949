"""Coupled geodesic random walks: reflection and parallel transport.

Both couplings drive the pair with a single ball sample per step. The
second particle receives the first's lifted noise parallel-transported
along the connecting minimal geodesic; the reflection coupling additionally
mirrors it across the hyperplane orthogonal to the geodesic's arrival
direction. That map is ``model.mirror``; on the closed-form models it is
the reflection of the ambient space (Euclidean, or Minkowski on the
hyperboloid) across the bisector of the two points, the classical mirror
coupling. Discrete walks almost surely never meet exactly, so pairs are
declared coupled at distance <= delta_couple and, by default, the second
particle follows the first from then on, which preserves the marginal
transition rule because the declaration time is a stopping time of the pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import engine
from .comparison import beta, chi
from .engine import CouplingKind
from .errors import InvalidInput
from .manifolds import COINCIDE_TOL, ManifoldModel, Point, _coords
from .walk import Schedule


@dataclass(frozen=True)
class CouplingConfig:
    """Parameters of one coupled run."""
    alpha: float
    t1: float
    t2: float
    seed: int
    start1: np.ndarray
    start2: np.ndarray
    kind: CouplingKind = CouplingKind.REFLECTION
    delta_couple: float | None = None   # default 2 alpha
    k: float = 0.0
    stick_after_coupling: bool = True
    origin: np.ndarray | None = None
    exit_radius: float | None = None
    path_index: int = 0

    def __post_init__(self):
        if self.alpha <= 0 or self.alpha ** 2 >= self.t2 - self.t1:
            raise InvalidInput("need 0 < alpha^2 < t2 - t1")
        delta = self.delta_couple
        if delta is None:
            delta = 2.0 * self.alpha
        if delta > 0.0 and delta < self.alpha:
            raise InvalidInput("delta_couple must be >= alpha (or 0 to disable)")
        if self.exit_radius is not None and self.exit_radius <= 1.0:
            raise InvalidInput("exit radius must exceed 1")
        object.__setattr__(self, "delta_couple", float(delta))
        object.__setattr__(self, "start1", np.asarray(self.start1, dtype=float))
        object.__setattr__(self, "start2", np.asarray(self.start2, dtype=float))
        if self.origin is not None:
            object.__setattr__(self, "origin",
                               np.asarray(self.origin, dtype=float))

    def schedule(self) -> Schedule:
        return Schedule(self.t1, self.t2, self.alpha)


@dataclass
class CoupledPath:
    """Synchronized pair of skeletons with the distance and noise records.

    ``lambda_star_record[n]`` is the signed first-variation rate of the
    distance over step n (2 <xi~2, gdot(d)> = -2 <xi~1, gdot(0)>): in flat
    space distance_process[n+1] = |distance_process[n] + alpha lambda*[n]|
    exactly. ``noise_record`` holds the shared ball samples; replaying them
    through the single-walk step reproduces skeleton1, and
    ``noise_record_2`` (the second particle's effective ball coordinates)
    reproduces skeleton2.
    """
    model_id: str
    schedule: Schedule
    skeleton1: np.ndarray
    skeleton2: np.ndarray
    distance_process: np.ndarray
    lambda_star_record: np.ndarray
    coupled_flags: np.ndarray
    coupling_time: float
    noise_record: np.ndarray
    noise_record_2: np.ndarray


def coupled_step(model: ManifoldModel, t: float, x1, x2, xi: np.ndarray,
                 alpha: float, kind: CouplingKind = CouplingKind.REFLECTION,
                 frac: float = 1.0):
    """One synchronized transition of the pair: ``engine.reflect_step`` on
    a block of one.

    Returns (new x1, new x2, lambda_star) with lambda_star the signed
    first-variation rate of the distance (zero for parallel transport).
    Coincident inputs count as coupled and move together; their
    lambda_star is the kernel's, 2 sqrt(m+2) xi_1 for reflection.
    """
    X1, X2 = _coords(x1)[None, :], _coords(x2)[None, :]
    xi = np.asarray(xi, dtype=float)
    if float(np.linalg.norm(xi)) > 1.0 + 1e-12:
        raise InvalidInput("ball sample must satisfy |xi| <= 1")
    geo = model.depart(t, X1, X2)
    y1, y2, lam, _ = engine.reflect_step(
        model, t, X1, X2, xi[None, :], geo, geo[0] < COINCIDE_TOL, alpha,
        frac, kind=kind)
    return (Point(y1[0], model.model_id), Point(y2[0], model.model_id),
            float(lam[0]))


def coupled_block(model: ManifoldModel, cc: CouplingConfig, paths: range,
                  **diagnostics) -> dict:
    """``engine.coupled_chunk`` on ``paths`` with the settings of ``cc``.

    The one place a CouplingConfig becomes kernel arguments; estimators map
    ``partial(coupled_block, model, cc)`` over path chunks. ``diagnostics``
    are the kernel's optional outputs (``contraction``, ``want_trace``).
    """
    return engine.coupled_chunk(
        model, cc.schedule(), cc.start1, cc.start2, cc.seed, paths,
        kind=cc.kind, delta_couple=cc.delta_couple,
        stick=cc.stick_after_coupling, k=cc.k, origin=cc.origin,
        exit_radius=cc.exit_radius, **diagnostics)


def run_coupled(model: ManifoldModel, config: CouplingConfig) -> CoupledPath:
    """Simulate one coupled pair over the full schedule."""
    sched = config.schedule()
    res = coupled_block(model, config,
                        range(config.path_index, config.path_index + 1),
                        want_trace=True)
    step = int(res["couple_step"][0])
    coupling_time = math.inf if step < 0 else float(sched.times[step])
    skel2, lift2 = res["skeleton2"][0], res["lift2"][0]
    # The kernel traces the second particle's lifted noise; its ball
    # coordinates need a frame per step, paid here for this one path.
    noise2 = np.empty((sched.n_steps, model.dim))
    for n in range(sched.n_steps):
        noise2[n] = engine.frame_coordinates(
            model, float(sched.times[n]), skel2[n:n + 1], lift2[n:n + 1])[0]
    return CoupledPath(model.model_id, sched, res["skeleton1"][0], skel2,
                       res["distance"][0], res["lambda_star"][0],
                       res["coupled"][0], coupling_time, res["noise"][0],
                       noise2)


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
