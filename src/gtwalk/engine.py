"""Vectorized path kernels and the transition functions they share.

The kernels advance a contiguous block of paths through the whole schedule
with numpy operations of shape (block, ambient_dim), collecting online
summaries and, for small blocks, full traces. Noise comes from per-path
counter-based streams, so results do not depend on how paths are grouped
into blocks or scheduled onto workers. The kernels read that noise
step-major, ``noise[n]`` being step n of every path, and their traces give
it back as (block, n_steps, dim).

Every block a kernel steps is stored coordinate-major, one contiguous row
per coordinate, and the models get its (block, ambient_dim) view
(``_block``), with the bits of a C-ordered block. Records leave
C-contiguous, except the ``noise`` trace, a view of the block. A step's
tangent vector is ``model.lift``: bit-equal to sqrt(m+2) times the frame
contracted with the ball sample, but it need not build the frame.
``walk_step`` and ``reflect_step`` are the only transition functions;
``walk.step`` and ``coupling.coupled_step`` call them on a block of one. A
step adds the drift alpha^2 Z exactly when ``model.has_drift``; no caller
decides that.

A coupled step makes one pair-geometry call. It is ``model.depart``, the
distance and the unit departure direction u0, when u0 is read: by the
parallel kind, which transports the first lift along the geodesic, or by
the lambda* record. Otherwise it is ``model.distance``, which gives the
same distance bit for bit. The reflection kind maps the first lift to the
second particle with ``model.mirror(t, x, y, v)``; on the closed-form
models that is the reflection of the ambient space across the bisector of
the pair, with neither u0 nor a transport, and its lambda* is
-2 <lift1, u0>. No step needs the arrival direction. A non-finite
distance or endpoint raises SingularConfiguration instead of being
counted. The radial replay reads only the distance to the origin and the
rate at which the lift moves the walker toward it, so it calls
``model.toward``: the distance bit for bit and a field whose product with
the lift is that rate (depart's direction, but on the sphere a field built
from the chord).

``coupled_chunk`` keeps the pair in one stacked (2B, ambient) state, X1
and X2 being its halves, and ``reflect_step`` writes both lifts into one
stacked buffer, so the drift and exp of both particles are one call each
and no step concatenates or splits. A step does only the work its outputs
read: the caller names the records it reads (``records=``), and lambda*
(``lambda_star``), the contraction weights, the exit check and each trace
run only when asked for. A pair declared coupled moves as one particle
from then on: the second lift becomes the first on coupled rows, and
X2 := X1 is written on newly coupled rows alone, since rows coupled
earlier already equal X1 bit for bit (the same lift through the same exp);
neither select runs before a row has coupled. ``couple_step`` is the one
coupling record (``coupled_flags`` gives its per-step flags). When it is
the only record asked for, a pair instead leaves the working block at the
step where it couples: the stacked rows of the pairs still uncoupled
(and, for the parallel kind, their u0) are gathered, one global row index
writes ``couple_step`` and gathers the step's noise, and the loop stops
once no pair is left. Each row's arithmetic does not depend on the other
rows of its block, the contract that makes results independent of the
block split, so retirement keeps every bit. ``walk_chunk`` keeps its
not-yet-exited rows as a mask that changes only when a row exits, and
takes ``records=`` too; both kernels check the names with one helper.
``PathKernel`` is a kernel partial with the params block its reports
share and the schedule it steps on; the estimators map its ``fn`` over
path chunks with the records they read, looking the kernel up when they
build it, never at import, and ``PathKernel.trace`` gives one path's
records, the trace API beside the single-step API and the bulk kernels.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Callable, NamedTuple

import numpy as np

from . import rng
from .errors import InvalidInput, SingularConfiguration
from .manifolds import ManifoldModel

if TYPE_CHECKING:
    from .walk import Schedule


class CouplingKind(enum.Enum):
    REFLECTION = "reflection"
    PARALLEL_TRANSPORT = "parallel"


# The outputs coupled_chunk can compute; "end" and "skeleton" each give one
# array per particle.
COUPLED_RECORDS = frozenset({
    "couple_step", "end", "final_distance", "exited", "contraction_max",
    "skeleton", "distance", "lambda_star", "noise", "lift2"})
_UNTRACED = frozenset({"end", "couple_step", "final_distance", "exited"})
# The outputs walk_chunk can compute.
WALK_RECORDS = frozenset({
    "end", "exit_step", "radial_violation", "skeleton", "step_vectors",
    "noise", "rho_trace"})
_WALK_UNTRACED = frozenset({"end", "exit_step", "radial_violation"})
# Records fixed at the step a pair couples: a run that reads no others
# retires each pair from the working block at that step.
_AT_COUPLING = frozenset({"couple_step"})


def coupled_flags(couple_step: np.ndarray, n_steps: int) -> np.ndarray:
    """The (B, n_steps + 1) flags a ``couple_step`` record gives: a pair is
    coupled at step n when 0 <= couple_step <= n."""
    step = np.asarray(couple_step)[:, None]
    return (step >= 0) & (np.arange(n_steps + 1) >= step)


class PathKernel(NamedTuple):
    """A kernel partial, ``fn(paths, records=...)``, with the ``params``
    block of the runs it makes (``n_paths`` among them), their seed and
    the ``walk.Schedule`` they step on (None for a kernel off it)."""
    fn: Callable[..., dict]
    params: dict
    seed: int
    schedule: Schedule | None = None

    def trace(self, i: int, records) -> dict:
        """Path ``i``'s ``records`` as a run of that path alone gives
        them: each record's row for the path."""
        return {name: value[0] for name, value in
                self.fn(range(i, i + 1), records=records).items()}


def origin_point(model: ManifoldModel, origin) -> np.ndarray:
    """The point the exit check and the radial replay measure from:
    ``origin``, or the model's origin when it is None."""
    return np.asarray(origin if origin is not None else model.origin(),
                      dtype=float)


def check_exit_radius(radius: float | None, origin=None) -> None:
    """The exit check's radius must exceed 1; None runs no exit check, so
    an ``origin`` read by the exit check alone is refused."""
    if radius is not None and not radius > 1.0:
        raise InvalidInput("exit radius must exceed 1", key="exit_radius")
    if radius is None and origin is not None:
        raise InvalidInput("does nothing without an exit_radius", key="origin")


def _checked_records(kernel: str, records, allowed: frozenset,
                     untraced: frozenset, needs: dict) -> frozenset:
    """The validated record set of a ``kernel`` call; None gives the
    ``untraced`` records. ``needs`` maps a record to the (name, value) of
    the setting it needs: a record whose setting is None, or an unknown
    name, raises InvalidInput, and None leaves it out."""
    unset = {name for name, (_, value) in needs.items() if value is None}
    records = frozenset(untraced - unset if records is None else records)
    if records - allowed:
        raise InvalidInput(
            f"unknown {kernel} records: {sorted(records - allowed)}")
    for name in sorted(records & unset):
        raise InvalidInput(f"record {name!r} needs {needs[name][0]}")
    return records


def _block(B: int, d: int) -> np.ndarray:
    """An empty (B, d) block stored coordinate-major."""
    return np.empty((d, B)).T


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
    For the reflection kind the second lift is ``model.mirror`` of the
    first; for parallel transport it is the first lift transported to X2
    along the connecting geodesic, which reads ``geo`` =
    ``model.depart(t, X1, X2)`` (the reflection kind takes None). Rows
    flagged ``coupled`` reuse the first lift. Both particles take one exp
    call on the stacked block. Returns (next stacked state, stacked lifts
    [lift1; lift2]); ``lambda_star`` gives the step's lambda*.
    """
    B = len(xi)
    X1, X2 = Z[:B], Z[B:]
    lift = _block(*Z.shape)
    lift1, lift2 = lift[:B], lift[B:]
    lift1[...] = model.lift(t, X1, xi)
    if kind is CouplingKind.REFLECTION:
        lift2[...] = model.mirror(t, X1, X2, lift1)
    else:
        lift2[...] = model.transport_along(t, X1, geo[1], geo[0], lift1)
    if coupled.any():
        np.copyto(lift2.T, lift1.T, where=coupled)
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
               records=None) -> dict:
    """Run a block of independent walks over the schedule.

    ``radial`` enables the one-dimensional comparison replay:
    {"spec": RadialComparisonSpec, "rho0": float, "margin": float} tracks
    rho alongside each walk by ``spec.step``, driven by the walk's own
    radial noise pairing, and flags paths whose radial distance exceeds
    rho + margin before exit.

    ``records`` names the outputs to compute, from ``WALK_RECORDS``:
    ``end``, ``exit_step`` (-1 for paths that never exit; needs
    ``exit_radius``), ``radial_violation`` and the per-step traces
    ``skeleton``, ``step_vectors``, ``noise`` and ``rho_trace`` (needs
    ``radial``, as does ``radial_violation``). None gives the first three
    whose settings are given. The exit check runs whenever ``exit_radius``
    is set, since it also ends the radial replay's check.
    """
    records = _checked_records(
        "walk_chunk", records, WALK_RECORDS, _WALK_UNTRACED,
        {"exit_step": ("exit_radius", exit_radius),
         "radial_violation": ("radial", radial),
         "rho_trace": ("radial", radial)})
    B = len(paths)
    times, fracs = sched.times, sched.fracs
    n_steps = len(fracs)
    alpha = sched.alpha
    m, d = model.dim, model.ambient_dim

    noise = rng.walk_noise_block(seed, paths, n_steps, m)
    X = _block(B, d)
    X[...] = x0

    track_exit = exit_radius is not None
    track_radial = radial is not None
    if track_exit or track_radial:
        o = origin_point(model, origin)
    exit_step = np.full(B, -1, dtype=np.int64)
    live = np.ones(B, dtype=bool)   # exit_step < 0

    if track_radial:
        spec = radial["spec"]
        rho = np.full(B, float(radial["rho0"]))
        margin = float(radial["margin"])
        violated = np.zeros(B, dtype=bool)
        sqrt_m2 = np.sqrt(m + 2.0)

    out = {}   # the records, (B, ...), filled in place
    if "skeleton" in records:
        out["skeleton"] = np.empty((B, n_steps + 1, d))
    if "step_vectors" in records:
        out["step_vectors"] = np.empty((B, n_steps, d))
    if "rho_trace" in records:
        out["rho_trace"] = np.empty((B, n_steps + 1))
    if "noise" in records:
        out["noise"] = noise.transpose(1, 0, 2)

    for n in range(n_steps + 1):
        t = float(times[n])
        if track_radial:
            d_o, toward_o = model.toward(t, X, o)
        elif track_exit:
            d_o = model.distance(t, o, X)
        if track_exit:
            hit = live & (d_o > exit_radius - 1.0)
            if hit.any():
                exit_step[hit] = n
                live &= ~hit
        if track_radial:
            violated |= live & (d_o > rho + margin)
        if "skeleton" in records:
            out["skeleton"][:, n] = X
        if "rho_trace" in records:
            out["rho_trace"][:, n] = rho
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
        if "step_vectors" in records:
            out["step_vectors"][:, n] = w

    if "end" in records:
        out["end"] = np.ascontiguousarray(X)
    if "exit_step" in records:
        out["exit_step"] = exit_step
    if "radial_violation" in records:
        out["radial_violation"] = violated
    return out


def coupled_chunk(model: ManifoldModel, sched, x1: np.ndarray, x2: np.ndarray,
                  seed: int, paths: range, *,
                  kind: CouplingKind = CouplingKind.REFLECTION,
                  delta_couple: float = 0.0, k: float = 0.0,
                  origin: np.ndarray | None = None,
                  exit_radius: float | None = None,
                  records=None) -> dict:
    """Run a block of coupled walks driven by one ball sample per step.

    The second particle's noise is the first's lift mapped to X2: by
    ``model.mirror`` for the reflection kind (parallel transport along the
    connecting minimal geodesic, then the mirror across the hyperplane
    orthogonal to its arrival direction), by parallel transport alone for
    the parallel kind. Pairs closer than ``delta_couple`` at a schedule time
    are declared coupled, and the second particle is replaced by the first
    from that time on.

    ``records`` names the outputs to compute, from ``COUPLED_RECORDS``:
    ``couple_step`` (-1 for pairs that never couple), ``end`` (``end1`` and
    ``end2``), ``final_distance``, ``exited`` (needs ``exit_radius``),
    ``contraction_max`` (the largest increase of e^{k(t-t1)/2} d over
    skeleton times s <= t) and the per-step traces ``skeleton``
    (``skeleton1`` and ``skeleton2``), ``distance``, ``lambda_star``,
    ``noise`` and ``lift2``. None gives ``end``, ``couple_step`` and
    ``final_distance``, plus ``exited`` when ``exit_radius`` is set; an
    unknown name raises InvalidInput. A run that asks only for
    ``couple_step`` retires each pair when it couples, and no check or step
    reads that pair again.

    The recorded lambda* is the signed first-variation rate of the distance,
    2 <xi~2, gdot(dist)> = -2 <xi~1, gdot(0)>, so in flat space the distance
    obeys d_{n+1} = |d_n + alpha lambda*| exactly. The ``distance`` and
    ``lambda_star`` records give ``coupling.dominating_process``; ``lift2``
    is the second particle's tangent noise, the first's lift mapped to X2.
    """
    records = _checked_records("coupled_chunk", records, COUPLED_RECORDS,
                               _UNTRACED,
                               {"exited": ("exit_radius", exit_radius)})
    B = len(paths)
    times, fracs = sched.times, sched.fracs
    n_steps = len(fracs)
    alpha = sched.alpha
    m, d = model.dim, model.ambient_dim
    retire = records <= _AT_COUPLING
    want_u0 = (kind is CouplingKind.PARALLEL_TRANSPORT
               or "lambda_star" in records)
    reads_distance = bool(records & {"final_distance", "contraction_max",
                                     "distance"})

    noise = rng.walk_noise_block(seed, paths, n_steps, m)
    Z = _block(2 * B, d)
    Z[:B], Z[B:] = x1, x2

    rows = np.arange(B)   # the path of each working row
    xi_rows = np.empty(m * B)   # the gathered noise, (m, rows) from the front
    coupled = np.zeros(B, dtype=bool)
    couple_step = np.full(B, -1, dtype=np.int64)

    out = {}   # the records, (B, ...), filled in place
    if "exited" in records:
        o = origin_point(model, origin)
        exited = out["exited"] = np.zeros(B, dtype=bool)
    if "contraction_max" in records:
        run_min = np.full(B, np.inf)
        contraction_max = out["contraction_max"] = np.full(B, -np.inf)
    if "skeleton" in records:
        out["skeleton1"] = np.empty((B, n_steps + 1, d))
        out["skeleton2"] = np.empty((B, n_steps + 1, d))
    if "distance" in records:
        out["distance"] = np.empty((B, n_steps + 1))
    if "lambda_star" in records:
        out["lambda_star"] = np.empty((B, n_steps))
    if "lift2" in records:
        out["lift2"] = np.empty((B, n_steps, d))
    if "noise" in records:
        out["noise"] = noise.transpose(1, 0, 2)

    for n in range(n_steps + 1):
        t = float(times[n])
        b = len(rows)
        X1, X2 = Z[:b], Z[b:]
        if want_u0:
            geo = model.depart(t, X1, X2)
            dist = geo[0]
        else:
            geo, dist = None, model.distance(t, X1, X2)
        if not np.isfinite(dist).all():
            raise SingularConfiguration(f"non-finite distance at step {n}")
        if "exited" in records:
            out_o = model.distance(t, o, Z)
            exited |= (out_o > exit_radius - 1.0).reshape(2, B).any(axis=0)
        newly = ~coupled & (dist <= delta_couple)
        if newly.any():
            coupled |= newly
            couple_step[rows[newly]] = n
            if retire:
                kept = np.flatnonzero(~newly)
                rows, coupled = rows[kept], coupled[kept]
                if not len(rows):
                    break
                Z = Z.T.take(np.concatenate([kept, kept + b]), axis=1).T
                xi_kept = xi_rows[:m * len(kept)].reshape(m, -1)
                if geo is not None:
                    geo = (geo[0][kept], geo[1].T.take(kept, axis=1).T)
            else:
                # Earlier coupled rows already equal X1: same lift, same exp.
                np.copyto(X2.T, X1.T, where=newly)
        if reads_distance:
            dist = np.where(coupled, 0.0, dist)
        if "contraction_max" in records:
            weighted = np.exp(k * (t - sched.t1) / 2.0) * dist
            np.maximum(contraction_max, weighted - run_min,
                       out=contraction_max)
            np.minimum(run_min, weighted, out=run_min)
        if "skeleton" in records:
            out["skeleton1"][:, n] = X1
            out["skeleton2"][:, n] = X2
        if "distance" in records:
            out["distance"][:, n] = dist
        if n == n_steps:
            break

        if len(rows) == B:
            xi = noise[n]
        else:   # gathered into one buffer: no allocation per step
            xi = noise[n].T.take(rows, axis=1, out=xi_kept, mode="clip").T
        Z, lift = reflect_step(model, t, Z, xi, geo, coupled, alpha,
                               float(fracs[n]), kind=kind)
        if "lambda_star" in records:
            out["lambda_star"][:, n] = lambda_star(
                model, t, X1, xi, lift[:B], geo[1], coupled, kind)
        if "lift2" in records:
            out["lift2"][:, n] = lift[B:]

    if "end" in records:
        out["end1"], out["end2"] = map(np.ascontiguousarray, (X1, X2))
    if "couple_step" in records:
        out["couple_step"] = couple_step
    if "final_distance" in records:
        out["final_distance"] = dist
    return out
