"""Vectorized path kernels and the transition functions they share.

The kernels advance a contiguous block of paths through the whole schedule
with numpy operations of shape (block, ambient_dim), collecting online
summaries and, for small blocks, full traces. Noise comes from per-path
counter-based streams, so results do not depend on how paths are grouped
into blocks or scheduled onto workers. The kernels read that noise
step-major, ``noise[n]`` being step n of every path, and their traces give
it back as (block, n_steps, dim). A step's tangent vector is
``model.lift``: bit-equal to sqrt(m+2) times the frame contracted with the
ball sample, but it need not build the frame. ``walk_step`` and
``reflect_step`` are the only transition functions; ``walk.step`` and
``coupling.coupled_step`` call them on a block of one. A step adds the
drift alpha^2 Z exactly when ``model.has_drift``; no caller decides that.

A coupled step makes one pair-geometry call, ``model.depart``: the
distance, bit-identical to ``model.distance``, and the unit departure
direction u0; the sphere builds its antipodal tie-break only on antipodal
rows. The reflection kind maps the first lift to the second particle with
``model.mirror`` (on the closed-form models the reflection of the ambient
space across the bisector of the pair, with no transport) and records
lambda* = -2 <lift1, u0>; the parallel kind transports the first lift.
Neither needs the arrival direction. A non-finite distance or endpoint
raises SingularConfiguration instead of being counted. The radial replay
reads only the distance to the origin and the direction toward it, so it
calls ``model.depart`` too.

``coupled_chunk`` keeps the pair in one stacked (2B, ambient) state, X1
and X2 being its halves, and ``reflect_step`` writes both lifts into one
stacked buffer, so the drift and exp of both particles are one call each
and no step concatenates or splits. A step does only the work its outputs
read. lambda* (``lambda_star``) is computed only for the trace. The
coupled-row selects run only once a row has coupled: the second lift
becomes the first on coupled rows, and with ``stick`` X2 := X1 is written
on newly coupled rows alone, since rows coupled earlier already equal X1
bit for bit (the same lift through the same exp). ``walk_chunk`` keeps
its not-yet-exited rows as a mask that changes only when a row exits.
"""

from __future__ import annotations

import enum

import numpy as np

from . import rng
from .errors import SingularConfiguration
from .manifolds import ManifoldModel


class CouplingKind(enum.Enum):
    REFLECTION = "reflection"
    PARALLEL_TRANSPORT = "parallel"


def frame_coordinates(model: ManifoldModel, t: float, x: np.ndarray,
                      v: np.ndarray) -> np.ndarray:
    """Ball-sample coordinates of a lifted vector: inverse of model.lift."""
    fr = model.frame(t, x)
    coords = np.empty((x.shape[0], model.dim))
    for j in range(model.dim):
        coords[:, j] = model.inner(t, x, fr[:, j, :], v)
    return coords / np.sqrt(model.dim + 2.0)


def _rows(a: np.ndarray) -> np.ndarray:
    """The rows of a (B, d) float block with contiguous rows as B opaque
    items, so a masked row copy is one loop over B instead of a broadcast
    over d (several times faster at d = 2). A view: writes reach ``a``."""
    return a.view(np.dtype((np.void, a.itemsize * a.shape[-1])))[..., 0]


def _advance(model: ManifoldModel, t: float, X: np.ndarray, lift: np.ndarray,
             alpha: float, frac: float):
    """Follow alpha lift + alpha^2 Z for ``frac`` of a step; returns the
    landing points and the step vector."""
    w = alpha * lift
    if model.has_drift:
        w = w + alpha ** 2 * model.drift(t, X)
    return model.exp(t, X, w if frac == 1.0 else frac * w), w


def walk_step(model: ManifoldModel, t: float, X: np.ndarray, xi: np.ndarray,
              alpha: float, frac: float = 1.0):
    """One transition of a block of walks driven by the ball samples xi.

    Returns (landing points, lift sqrt(m+2) Phi xi, step vector
    alpha lift + alpha^2 Z). Only ``frac`` of the step's geodesic is
    traversed (the final partial step).
    """
    lift = model.lift(t, X, xi)
    Xn, w = _advance(model, t, X, lift, alpha, frac)
    return Xn, lift, w


def reflect_step(model: ManifoldModel, t: float, Z: np.ndarray,
                 xi: np.ndarray, geo, coupled: np.ndarray, alpha: float,
                 frac: float = 1.0, *,
                 kind: CouplingKind = CouplingKind.REFLECTION):
    """One synchronized transition of a block of B pairs.

    ``Z`` is the stacked pair state (2B, ambient): X1 = Z[:B], X2 = Z[B:].
    ``geo`` is ``model.depart(t, X1, X2)``, the distance and the unit
    departure direction u0. For the reflection kind the second lift is
    ``model.mirror`` of the first; for parallel transport it is the first
    lift transported to X2 along the connecting geodesic. Rows flagged
    ``coupled`` reuse the first lift. Both particles take one exp call on
    the stacked block. Returns (next stacked state, stacked lifts
    [lift1; lift2]); ``lambda_star`` gives the step's lambda*.
    """
    B = len(xi)
    X1, X2 = Z[:B], Z[B:]
    lift = np.empty(Z.shape)
    lift1, lift2 = lift[:B], lift[B:]
    lift1[...] = model.lift(t, X1, xi)
    if kind is CouplingKind.REFLECTION:
        lift2[...] = model.mirror(t, X1, X2, geo, lift1)
    else:
        lift2[...] = model.transport_along(t, X1, geo[1], geo[0], lift1)
    if coupled.any():
        np.copyto(_rows(lift2), _rows(lift1), where=coupled)
    Zn, _ = _advance(model, t, Z, lift, alpha, frac)
    return Zn, lift


def lambda_star(model: ManifoldModel, t: float, X1: np.ndarray,
                xi: np.ndarray, lift1: np.ndarray, u0: np.ndarray,
                coupled: np.ndarray, kind: CouplingKind) -> np.ndarray:
    """lambda* of a ``reflect_step`` from X1 with first lift ``lift1``:
    -2 <lift1, u0> (equal to 2 <lift2, arrival direction>), or
    2 sqrt(m+2) xi_1 on coupled rows (the dominating process's noise), and
    zero for parallel transport."""
    if kind is not CouplingKind.REFLECTION:
        return np.zeros(len(X1))
    return np.where(coupled, 2.0 * np.sqrt(model.dim + 2.0) * xi[:, 0],
                    -2.0 * model.inner(t, X1, lift1, u0))


def walk_chunk(model: ManifoldModel, sched, x0: np.ndarray, seed: int,
               paths: range, *, origin: np.ndarray | None = None,
               exit_radius: float | None = None,
               radial: dict | None = None,
               want_trace: bool = False) -> dict:
    """Run a block of independent walks over the schedule.

    ``radial`` enables the one-dimensional comparison replay:
    {"spec": RadialComparisonSpec, "rho0": float, "margin": float} tracks
    rho alongside each walk by ``spec.step``, driven by the walk's own
    radial noise pairing, and flags paths whose radial distance exceeds
    rho + margin before exit.
    """
    B = len(paths)
    times, fracs = sched.times, sched.fracs
    n_steps = len(fracs)
    alpha = sched.alpha
    m, d = model.dim, model.ambient_dim

    noise = rng.walk_noise_block(seed, paths, n_steps, m)
    X = np.broadcast_to(np.asarray(x0, dtype=float), (B, d)).copy()

    track_exit = exit_radius is not None
    track_radial = radial is not None
    if track_exit or track_radial:
        o = np.asarray(origin if origin is not None else model.origin(),
                       dtype=float)
    exit_step = np.full(B, -1, dtype=np.int64)
    live = np.ones(B, dtype=bool)   # exit_step < 0

    if track_radial:
        spec = radial["spec"]
        rho = np.full(B, float(radial["rho0"]))
        margin = float(radial["margin"])
        violated = np.zeros(B, dtype=bool)
        sqrt_m2 = np.sqrt(m + 2.0)

    if want_trace:
        skeleton = np.empty((B, n_steps + 1, d))
        step_vectors = np.empty((B, n_steps, d))
        rho_trace = np.empty((B, n_steps + 1)) if track_radial else None

    for n in range(n_steps + 1):
        t = float(times[n])
        if track_radial:
            d_o, toward_o = model.depart(t, X, o)
        elif track_exit:
            d_o = model.distance(t, o, X)
        if track_exit:
            hit = live & (d_o > exit_radius - 1.0)
            if hit.any():
                exit_step[hit] = n
                live &= ~hit
        if track_radial:
            violated |= live & (d_o > rho + margin)
        if want_trace:
            skeleton[:, n] = X
            if track_radial:
                rho_trace[:, n] = rho
        if n == n_steps:
            break

        xi = noise[n]
        Xn, lift, w = walk_step(model, t, X, xi, alpha, float(fracs[n]))
        if track_radial:
            lam = np.where(d_o >= spec.r0, -model.inner(t, X, lift, toward_o),
                           sqrt_m2 * xi[:, 0])
            rho = spec.step(rho, lam, alpha, float(fracs[n]))
        X = Xn
        if not np.isfinite(X).all():
            raise SingularConfiguration(f"non-finite position at step {n + 1}")
        if want_trace:
            step_vectors[:, n] = w

    out = {"end": X, "exit_step": exit_step}
    if track_radial:
        out["radial_violation"] = violated
    if want_trace:
        out["skeleton"] = skeleton
        out["step_vectors"] = step_vectors
        out["noise"] = noise.transpose(1, 0, 2)
        if track_radial:
            out["rho_trace"] = rho_trace
    return out


def coupled_chunk(model: ManifoldModel, sched, x1: np.ndarray, x2: np.ndarray,
                  seed: int, paths: range, *,
                  kind: CouplingKind = CouplingKind.REFLECTION,
                  delta_couple: float = 0.0, stick: bool = True,
                  k: float = 0.0,
                  origin: np.ndarray | None = None,
                  exit_radius: float | None = None,
                  contraction: bool = False,
                  want_trace: bool = False) -> dict:
    """Run a block of coupled walks driven by one ball sample per step.

    The second particle's noise is the first's lift mapped to X2: by
    ``model.mirror`` for the reflection kind (parallel transport along the
    connecting minimal geodesic, then the mirror across the hyperplane
    orthogonal to its arrival direction), by parallel transport alone for
    the parallel kind. Pairs closer than ``delta_couple`` at a schedule time
    are declared coupled; with ``stick`` the second particle is replaced by
    the first from that time on.

    The recorded lambda* is the signed first-variation rate of the distance,
    2 <xi~2, gdot(dist)> = -2 <xi~1, gdot(0)>, so in flat space the distance
    obeys d_{n+1} = |d_n + alpha lambda*| exactly. The trace's ``distance``
    and ``lambda_star`` give ``coupling.dominating_process``; its ``lift2``
    is the second particle's tangent noise, which ``frame_coordinates``
    turns into ball coordinates.
    """
    B = len(paths)
    times, fracs = sched.times, sched.fracs
    n_steps = len(fracs)
    alpha = sched.alpha
    m, d = model.dim, model.ambient_dim

    noise = rng.walk_noise_block(seed, paths, n_steps, m)
    Z = np.empty((2 * B, d))
    Z[:B], Z[B:] = x1, x2

    coupled = np.zeros(B, dtype=bool)
    couple_step = np.full(B, -1, dtype=np.int64)

    if exit_radius is not None:
        o = np.asarray(origin if origin is not None else model.origin(),
                       dtype=float)
        exited = np.zeros(B, dtype=bool)

    if contraction:
        run_min = np.full(B, np.inf)
        contraction_max = np.full(B, -np.inf)

    if want_trace:
        skel1 = np.empty((B, n_steps + 1, d))
        skel2 = np.empty((B, n_steps + 1, d))
        dist_trace = np.empty((B, n_steps + 1))
        lam_trace = np.empty((B, n_steps))
        coupled_trace = np.zeros((B, n_steps + 1), dtype=bool)
        lift2_trace = np.empty((B, n_steps, d))

    for n in range(n_steps + 1):
        t = float(times[n])
        X1, X2 = Z[:B], Z[B:]
        geo = model.depart(t, X1, X2)
        dist = geo[0]
        if not np.isfinite(dist).all():
            raise SingularConfiguration(f"non-finite distance at step {n}")
        if exit_radius is not None:
            out_o = model.distance(t, o, Z)
            exited |= (out_o > exit_radius - 1.0).reshape(2, B).any(axis=0)
        newly = ~coupled & (dist <= delta_couple)
        if newly.any():
            coupled |= newly
            couple_step[newly] = n
            if stick:
                # Earlier coupled rows already equal X1: same lift, same exp.
                np.copyto(_rows(X2), _rows(X1), where=newly)
        if stick:
            dist = np.where(coupled, 0.0, dist)
        if contraction:
            weighted = np.exp(k * (t - sched.t1) / 2.0) * dist
            np.maximum(contraction_max, weighted - run_min,
                       out=contraction_max)
            np.minimum(run_min, weighted, out=run_min)
        if want_trace:
            skel1[:, n] = X1
            skel2[:, n] = X2
            dist_trace[:, n] = dist
            coupled_trace[:, n] = coupled
        if n == n_steps:
            break

        Z, lift = reflect_step(model, t, Z, noise[n], geo, coupled, alpha,
                               float(fracs[n]), kind=kind)
        if want_trace:
            lam_trace[:, n] = lambda_star(model, t, X1, noise[n], lift[:B],
                                          geo[1], coupled, kind)
            lift2_trace[:, n] = lift[B:]

    out = {
        "end1": X1, "end2": X2,
        "couple_step": couple_step,
        "survival": couple_step < 0,
        "final_distance": dist,
    }
    if exit_radius is not None:
        out["exited"] = exited
    if contraction:
        out["contraction_max"] = contraction_max
    if want_trace:
        out.update({"skeleton1": skel1, "skeleton2": skel2,
                    "distance": dist_trace, "lambda_star": lam_trace,
                    "coupled": coupled_trace,
                    "noise": noise.transpose(1, 0, 2),
                    "lift2": lift2_trace})
    return out
