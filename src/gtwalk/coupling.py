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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import engine
from .comparison import beta, chi
from .engine import CouplingKind
from .errors import InvalidInput
from .manifolds import COINCIDE_TOL, ManifoldModel, Point, _coords
from .walk import Schedule, _ball_sample


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
    origin: np.ndarray | None = None
    exit_radius: float | None = None
    path_index: int = 0

    def __post_init__(self):
        self.schedule()   # refuses an alpha outside the window
        delta = 2.0 * self.alpha if self.delta_couple is None \
            else self.delta_couple
        if delta > 0.0 and delta < self.alpha:
            raise InvalidInput("delta_couple must be >= alpha (or 0 to "
                               "disable)", key="delta_couple")
        engine.check_exit_radius(self.exit_radius, self.origin)
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


def coupled_kernel(model: ManifoldModel, cc: CouplingConfig,
                   n_paths: int = 1) -> engine.PathKernel:
    """``engine.coupled_chunk`` with the settings of ``cc``, and the params
    every coupled kind reports for ``n_paths`` pairs.

    The one place a CouplingConfig becomes kernel arguments; estimators map
    its ``fn`` over path chunks with the records they read, from
    ``engine.COUPLED_RECORDS``. A caller that reads only ``couple_step``
    lets pairs retire when they couple.
    """
    d0 = float(model.distance(cc.t1, cc.start1, cc.start2))
    return engine.PathKernel(partial(
        engine.coupled_chunk, model, cc.schedule(), cc.start1, cc.start2,
        cc.seed, kind=cc.kind, delta_couple=cc.delta_couple, k=cc.k,
        origin=cc.origin, exit_radius=cc.exit_radius), {
        "alpha": cc.alpha, "delta_couple": cc.delta_couple, "k": cc.k,
        "d0": d0, "horizon": cc.t2 - cc.t1, "coupling": cc.kind.value,
        "n_paths": n_paths, "manifold": model.describe()}, cc.seed)


def run_coupled(model: ManifoldModel, config: CouplingConfig) -> CoupledPath:
    """Simulate one coupled pair over the full schedule."""
    sched = config.schedule()
    res = coupled_kernel(model, config).fn(
        range(config.path_index, config.path_index + 1),
        records={"couple_step", "skeleton", "distance", "lambda_star",
                 "noise", "lift2"})
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
                       engine.coupled_flags(res["couple_step"],
                                            sched.n_steps)[0],
                       coupling_time, res["noise"][0], noise2)


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
