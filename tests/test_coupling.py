import math

import numpy as np
import pytest

from conftest import random_point, random_tangent
from oracles import gaussian_mass, reflection_map

from gtwalk import engine
from gtwalk.comparison import RadialComparisonSpec, builtin_b
from gtwalk.coupling import (CouplingConfig, CouplingKind,
                             coupled_step, coupling_probability_bound,
                             dominating_process, run_coupled)
from gtwalk.errors import (DegenerateGeodesic, InvalidInput,
                           SingularConfiguration)
from gtwalk.manifolds import ManifoldModel, RoundSphere, minimal_geodesic
from gtwalk.runner import run_document
from gtwalk.walk import Schedule, step

MODEL_NAMES = ["euclid2", "sphere2", "flow_sphere", "scaled_euclid2",
               "hyperbolic2"]


# ---------------------------------------------------------------------------
# reflection_map, the test oracle for model.mirror
# ---------------------------------------------------------------------------

def test_reflection_euclidean_components(euclid2):
    g = minimal_geodesic(euclid2, 0.0, np.zeros(2), np.array([1.0, 0.0]))
    fixed = reflection_map(euclid2, 0.0, g, np.array([0.0, 1.0]))
    assert np.allclose(fixed.components, [0.0, 1.0], atol=1e-15)
    flipped = reflection_map(euclid2, 0.0, g, np.array([1.0, 0.0]))
    assert np.allclose(flipped.components, [-1.0, 0.0], atol=1e-15)
    combo = reflection_map(euclid2, 0.0, g, np.array([1.0, 1.0]))
    assert np.allclose(combo.components, [-1.0, 1.0], atol=1e-15)


@pytest.mark.parametrize("name", MODEL_NAMES)
def test_reflection_is_isometry(request, name, rng):
    model = request.getfixturevalue(name)
    t = model.time_window[0] + 0.2
    for _ in range(250):
        x = random_point(model, rng)
        y = model.exp(t, x, random_tangent(model, t, x, rng, scale=0.6))
        g = minimal_geodesic(model, t, x, y)
        v = random_tangent(model, t, x, rng)
        out = reflection_map(model, t, g, v)
        assert abs(model.norm(t, y, out.components)
                   - model.norm(t, x, v)) <= 1e-9


@pytest.mark.parametrize("name", MODEL_NAMES)
def test_reflection_sends_velocity_to_negative(request, name, rng):
    model = request.getfixturevalue(name)
    t = model.time_window[0] + 0.1
    x = random_point(model, rng)
    y = model.exp(t, x, random_tangent(model, t, x, rng, scale=0.5))
    g = minimal_geodesic(model, t, x, y)
    out = reflection_map(model, t, g, g.initial_velocity.components)
    assert np.allclose(out.components, -g.velocity_coords(g.length),
                       atol=1e-9)


@pytest.mark.parametrize("name", MODEL_NAMES)
def test_reflection_involution_through_reverse(request, name, rng):
    """Reflecting back along the symmetric reversed geodesic restores v."""
    model = request.getfixturevalue(name)
    t = model.time_window[0] + 0.3
    for _ in range(30):
        x = random_point(model, rng)
        y = model.exp(t, x, random_tangent(model, t, x, rng, scale=0.7))
        g = minimal_geodesic(model, t, x, y)
        v = random_tangent(model, t, x, rng)
        there = reflection_map(model, t, g, v)
        back = reflection_map(model, t, g.reversed(), there.components)
        assert np.allclose(back.components, v, atol=1e-9)


def test_reflection_degenerate_raises(euclid2):
    from gtwalk.manifolds import Geodesic
    degenerate = Geodesic(euclid2, 0.0, np.zeros(2), np.zeros(2), 0.0,
                          np.array([1.0, 0.0]))
    with pytest.raises(DegenerateGeodesic):
        reflection_map(euclid2, 0.0, degenerate, np.ones(2))


# ---------------------------------------------------------------------------
# model.mirror
# ---------------------------------------------------------------------------

def _mirror_rows(model, t, rng, n=60):
    """Pairs x, y at distances up to about 2 (the last five coincident)
    and a tangent vector v at each x."""
    x = np.stack([random_point(model, rng) for _ in range(n)])
    y = np.stack([model.exp(t, p, random_tangent(model, t, p, rng, scale=0.6))
                  for p in x])
    y[-5:] = x[-5:]
    v = np.stack([random_tangent(model, t, p, rng) for p in x])
    return x, y, v


@pytest.mark.parametrize("name", MODEL_NAMES)
def test_mirror_matches_oracle(request, name, rng):
    model = request.getfixturevalue(name)
    t = model.time_window[0] + 0.2
    x, y, v = _mirror_rows(model, t, rng)
    got = model.mirror(t, x, y, model.depart(t, x, y), v)
    for i in range(len(x) - 5):
        want = reflection_map(model, t, minimal_geodesic(model, t, x[i], y[i]),
                              v[i]).components
        assert np.allclose(got[i], want, rtol=0, atol=1e-12)


@pytest.mark.parametrize("name", MODEL_NAMES)
def test_mirror_is_a_tangent_isometry(request, name, rng):
    model = request.getfixturevalue(name)
    t = model.time_window[0] + 0.4
    x, y, v = _mirror_rows(model, t, rng)
    w = np.stack([random_tangent(model, t, p, rng) for p in x])
    geo = model.depart(t, x, y)
    mv, mw = model.mirror(t, x, y, geo, v), model.mirror(t, x, y, geo, w)
    assert np.allclose(model.inner(t, y, mv, mw), model.inner(t, x, v, w),
                       rtol=0, atol=1e-12)
    assert np.all(model.tangency_residual(y, mv) <= 1e-12)


@pytest.mark.parametrize("name", MODEL_NAMES)
def test_mirror_is_an_involution(request, name, rng):
    """Mirroring from y back to x restores v."""
    model = request.getfixturevalue(name)
    t = model.time_window[0] + 0.3
    x, y, v = _mirror_rows(model, t, rng)
    there = model.mirror(t, x, y, model.depart(t, x, y), v)
    back = model.mirror(t, y, x, model.depart(t, y, x), there)
    assert np.allclose(back, v, rtol=0, atol=1e-12)


@pytest.mark.parametrize("name", MODEL_NAMES)
def test_mirror_sends_u0_to_minus_u1(request, name, rng):
    """mirror(u0) = -u1, and the reflection kernel's lambda* formula
    -2 <v, u0> at x equals 2 <mirror(v), u1> at y."""
    model = request.getfixturevalue(name)
    t = model.time_window[0] + 0.1
    x, y, v = _mirror_rows(model, t, rng)
    dist, u0, u1 = model.connect(t, x, y)
    geo = (dist, u0)
    assert np.allclose(model.mirror(t, x, y, geo, u0), -u1, rtol=0,
                       atol=1e-12)
    lam = 2.0 * model.inner(t, y, model.mirror(t, x, y, geo, v), u1)
    assert np.allclose(lam, -2.0 * model.inner(t, x, v, u0), rtol=0,
                       atol=1e-12)


@pytest.mark.parametrize("model", [
    RoundSphere(2, 1.0), RoundSphere(2, 1.0, flow=True),
    RoundSphere(3, 2.5, flow=True)], ids=["sphere2", "flow_sphere", "sphere3"])
def test_sphere_mirror_antipodal_and_coincident_rows(model, rng):
    t = 0.4
    x = np.stack([random_point(model, rng) for _ in range(20)])
    v = np.stack([random_tangent(model, t, p, rng) for p in x])
    # antipodal rows: x - y is normal to the sphere at x, so v is fixed,
    # as it is by transport along the tie-break geodesic and its mirror
    y = -x
    geo = model.depart(t, x, y)
    got = model.mirror(t, x, y, geo, v)
    assert np.allclose(got, v, rtol=0, atol=1e-15)
    assert np.allclose(got, ManifoldModel.mirror(model, t, x, y, geo, v),
                       rtol=0, atol=1e-12)
    # coincident rows
    got = model.mirror(t, x, x, model.depart(t, x, x), v)
    assert np.all(np.isfinite(got)) and np.array_equal(got, v)


def test_hyperbolic_mirror_stays_tangent_far_out(hyperbolic2, rng):
    """Pairs up to distance 4 from the origin: the Minkowski mirror keeps
    its output tangent at y and its length."""
    model, t = hyperbolic2, 0.0
    o = model.origin()
    for r in (1.0, 2.0, 3.0, 4.0):
        for _ in range(20):
            u = random_tangent(model, t, o, rng)
            x = model.exp(t, o, r * u / model.norm(t, o, u))
            y = model.exp(t, x, random_tangent(model, t, x, rng, scale=0.3))
            v = random_tangent(model, t, x, rng)
            out = model.mirror(t, x, y, model.depart(t, x, y), v)
            assert model.tangency_residual(y, out) <= 1e-11
            assert abs(model.norm(t, y, out) - model.norm(t, x, v)) <= 1e-11


# ---------------------------------------------------------------------------
# coupled_step
# ---------------------------------------------------------------------------

def test_coupled_step_flat_distance_recursion(euclid2, rng):
    alpha = 0.1
    for _ in range(50):
        x1 = rng.normal(size=2)
        x2 = rng.normal(size=2)
        if np.linalg.norm(x2 - x1) < 0.2:
            continue
        xi = rng.normal(size=2)
        xi /= max(np.linalg.norm(xi), 1.0) * 1.0001
        y1, y2, lam = coupled_step(euclid2, 0.0, x1, x2, xi, alpha)
        d0 = np.linalg.norm(x2 - x1)
        d1 = np.linalg.norm(y2.coords - y1.coords)
        assert d1 == pytest.approx(abs(d0 + alpha * lam), abs=1e-12)
        # the separation changes only along the connecting direction
        e = (x2 - x1) / d0
        delta = (y2.coords - y1.coords) - (x2 - x1)
        assert np.allclose(delta - (delta @ e) * e, 0.0, atol=1e-12)


def test_coupled_step_parallel_keeps_difference(euclid2, rng):
    for _ in range(20):
        x1, x2 = rng.normal(size=2), rng.normal(size=2) + 2.0
        xi = rng.normal(size=2)
        xi /= max(np.linalg.norm(xi), 1.0) * 1.0001
        y1, y2, lam = coupled_step(euclid2, 0.0, x1, x2, xi, 0.1,
                                   kind=CouplingKind.PARALLEL_TRANSPORT)
        assert lam == 0.0
        assert np.allclose(y2.coords - y1.coords, x2 - x1, atol=1e-14)


def test_coupled_step_diagonal_moves_together(sphere2):
    x = np.array([0.0, 0.0, 1.0])
    y1, y2, lam = coupled_step(sphere2, 0.0, x, x, np.array([0.4, 0.3]), 0.2)
    assert np.array_equal(y1.coords, y2.coords)


# ---------------------------------------------------------------------------
# run_coupled
# ---------------------------------------------------------------------------

def _config(model, alpha=0.05, t2=1.0, kind=CouplingKind.REFLECTION,
            start_scale=0.5, seed=77, **kw):
    t1 = model.time_window[0]
    o = model.origin()
    e1 = model.frame(t1, o)[0]
    x1 = model.exp(t1, o, -start_scale * e1)
    x2 = model.exp(t1, o, +start_scale * e1)
    return CouplingConfig(alpha=alpha, t1=t1, t2=t2, seed=seed, start1=x1,
                          start2=x2, kind=kind, **kw)


def test_run_coupled_identical_starts(euclid2):
    cfg = CouplingConfig(alpha=0.1, t1=0.0, t2=1.0, seed=1,
                         start1=np.zeros(2), start2=np.zeros(2))
    path = run_coupled(euclid2, cfg)
    assert path.coupling_time == 0.0
    assert np.array_equal(path.skeleton1, path.skeleton2)
    assert np.all(path.distance_process == 0.0)
    assert np.all(path.coupled_flags)


@pytest.mark.parametrize("name", MODEL_NAMES)
def test_run_coupled_marginal_replay(request, name):
    """Replaying either coordinate's noise through the single-walk step
    reproduces that coordinate's skeleton."""
    model = request.getfixturevalue(name)
    t2 = model.time_window[1]
    cfg = _config(model, alpha=0.1, t2=t2, seed=13)
    path = run_coupled(model, cfg)
    sched = path.schedule
    # X1 always follows the single-walk rule; X2 does until the declaration
    # time, where the sticking construction replaces it by X1.
    stop2 = sched.n_steps if math.isinf(path.coupling_time) else \
        max(int(np.searchsorted(sched.times, path.coupling_time)) - 1, 0)
    for n in range(sched.n_steps):
        t = float(sched.times[n])
        frac = float(sched.fracs[n])
        p1, _ = step(model, t, path.skeleton1[n], path.noise_record[n],
                     cfg.alpha, frac=frac)
        assert np.array_equal(p1.coords, path.skeleton1[n + 1])
        if n < stop2:
            p2, _ = step(model, t, path.skeleton2[n], path.noise_record_2[n],
                         cfg.alpha, frac=frac)
            assert np.allclose(p2.coords, path.skeleton2[n + 1], atol=1e-12)


def test_run_coupled_sticks_and_stays(euclid2):
    cfg = _config(euclid2, alpha=0.05, seed=3, delta_couple=0.2)
    path = run_coupled(euclid2, cfg)
    assert not math.isinf(path.coupling_time)
    start = int(np.searchsorted(path.schedule.times, path.coupling_time))
    assert np.array_equal(path.skeleton1[start:], path.skeleton2[start:])
    assert np.all(path.distance_process[start:] == 0.0)
    flags = path.coupled_flags
    assert np.all(flags[start:]) and not np.any(flags[:start])
    # monotone: once coupled, forever coupled
    assert np.all(np.diff(flags.astype(int)) >= 0)


def test_run_coupled_parallel_scaled_metric_identity(scaled_euclid2):
    """Conformal flat model: the weighted distance is exactly constant."""
    cfg = _config(scaled_euclid2, alpha=0.02, seed=3,
                  kind=CouplingKind.PARALLEL_TRANSPORT, k=1.0,
                  delta_couple=0.0)
    path = run_coupled(scaled_euclid2, cfg)
    times = path.schedule.times
    expected = path.distance_process[0] * np.exp(-1.0 * (times - times[0]) / 2)
    assert np.max(np.abs(path.distance_process - expected)) <= 1e-10


def test_lambda_star_zero_for_parallel(flow_sphere):
    cfg = _config(flow_sphere, alpha=0.1, t2=0.5, seed=21,
                  kind=CouplingKind.PARALLEL_TRANSPORT, delta_couple=0.0)
    path = run_coupled(flow_sphere, cfg)
    assert np.all(path.lambda_star_record == 0.0)


@pytest.mark.parametrize("kind", list(CouplingKind))
@pytest.mark.parametrize("name", MODEL_NAMES)
def test_coupled_step_is_a_kernel_step(request, name, kind):
    """coupled_step reproduces a one-path coupled_chunk step by step, before
    and after the pair couples, and for a pair that starts coincident."""
    model = request.getfixturevalue(name)
    t2 = model.time_window[1] - 0.03
    separated = _config(model, alpha=0.1, t2=t2, kind=kind, seed=13,
                        start_scale=0.2, delta_couple=0.15)
    coincident = CouplingConfig(**{**separated.__dict__,
                                   "start2": separated.start1})
    for cfg in (separated, coincident):
        path = run_coupled(model, cfg)
        sched = path.schedule
        for n in range(sched.n_steps):
            y1, y2, lam = coupled_step(
                model, float(sched.times[n]), path.skeleton1[n],
                path.skeleton2[n], path.noise_record[n], cfg.alpha, kind,
                frac=float(sched.fracs[n]))
            assert np.array_equal(y1.coords, path.skeleton1[n + 1])
            assert lam == path.lambda_star_record[n]
            if path.coupled_flags[n + 1] and not path.coupled_flags[n]:
                # declared coupled at n+1: the skeleton records X2 := X1
                assert np.array_equal(path.skeleton2[n + 1],
                                      path.skeleton1[n + 1])
            else:
                assert np.array_equal(y2.coords, path.skeleton2[n + 1])
    assert run_coupled(model, coincident).coupling_time == cfg.t1
    if kind is CouplingKind.REFLECTION:
        assert math.isfinite(run_coupled(model, separated).coupling_time)


SPLIT = (1, 7, 249, 343)


def _by_blocks(run) -> list:
    """Outputs of ``run(paths)`` on one block of sum(SPLIT) paths and,
    concatenated along the path axis, on the blocks of SPLIT."""
    edges = np.cumsum((0,) + SPLIT)
    parts = [run(range(lo, hi)) for lo, hi in zip(edges[:-1], edges[1:])]
    split = {key: np.concatenate([p[key] for p in parts]) for key in parts[0]}
    return run(range(edges[-1])), split


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("kind", list(CouplingKind))
@pytest.mark.parametrize("name", MODEL_NAMES)
def test_coupled_chunk_ignores_the_block_split(request, name, kind, trace):
    """Every coupled_chunk output is the same, bit for bit, whether the
    paths run as one block or as blocks of 1, 7, 249 and 343."""
    model = request.getfixturevalue(name)
    t1 = model.time_window[0]
    sched = Schedule(t1, t1 + 0.1, 0.05)
    o = model.origin()
    e1 = model.frame(t1, o)[0]
    x1, x2 = model.exp(t1, o, -0.1 * e1), model.exp(t1, o, 0.1 * e1)
    whole, split = _by_blocks(lambda paths: engine.coupled_chunk(
        model, sched, x1, x2, 19, paths, kind=kind, delta_couple=0.1, k=0.3,
        exit_radius=1.3, contraction=True, want_trace=trace))
    assert whole.keys() == split.keys()
    for key in whole:
        assert np.array_equal(whole[key], split[key]), key
    if kind is CouplingKind.REFLECTION:
        assert 0 < whole["survival"].mean() < 1


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", MODEL_NAMES)
def test_walk_chunk_ignores_the_block_split(request, name, trace):
    """The same for walk_chunk with the exit check and the radial replay."""
    model = request.getfixturevalue(name)
    t1 = model.time_window[0]
    sched = Schedule(t1, t1 + 0.1, 0.05)
    o = model.origin()
    spec = RadialComparisonSpec(builtin_b({"name": "zero"}), c0=1.0, r0=0.5)
    radial = {"spec": spec, "rho0": 1.5, "margin": -1.2}
    whole, split = _by_blocks(lambda paths: engine.walk_chunk(
        model, sched, o, 23, paths, origin=o, exit_radius=1.3, radial=radial,
        want_trace=trace))
    assert whole.keys() == split.keys()
    for key in whole:
        assert np.array_equal(whole[key], split[key]), key
    assert 0 < whole["radial_violation"].mean() < 1


def test_sphere_reflect_survival_count_is_pinned():
    """Seed-7 survivors of the first 256 paths of the flow-sphere
    reflection benchmark config. Reordered float work in the kernel shows
    up here before it moves a benchmark reference."""
    doc = {"kind": "verify-coupling-bound",
           "manifold": {"kind": "sphere", "dim": 2, "radius_c0": 1.0,
                        "flow": True},
           "t1": 0.0, "t2": 0.5, "alpha": 0.02, "d0": 1.0,
           "delta_couple": 0.04, "n_paths": 256, "seed": 7}
    _, [report] = run_document(doc)
    assert report.estimate.n == 256
    assert report.estimate.mean * 256 == 128


class _NanAfter(RoundSphere):
    """Flow sphere whose exp puts NaN in one row from its k-th call on."""

    def __init__(self, k: int):
        super().__init__(2, 1.0, flow=True, time_window=(0.0, 0.5))
        self.k, self.calls = k, 0

    def exp(self, t, x, v):
        self.calls += 1
        y = super().exp(t, x, v)
        if self.calls >= self.k and y.ndim == 2:
            y[1] = np.nan
        return y


@pytest.mark.parametrize("coupled", [False, True])
def test_non_finite_state_raises(coupled):
    sched = Schedule(0.0, 0.5, 0.1)
    for k, raises in ((3, True), (100, False)):
        model = _NanAfter(k)
        o = model.origin()
        x2 = model.exp(0.0, o, np.array([0.5, 0.0, 0.0]))
        model.calls = 0
        if coupled:
            run = lambda: engine.coupled_chunk(model, sched, o, x2, 1,
                                               range(4), delta_couple=0.2)
        else:
            run = lambda: engine.walk_chunk(model, sched, o, 1, range(4))
        if raises:
            with pytest.raises(SingularConfiguration, match="step 3"):
                run()
        else:
            run()


# ---------------------------------------------------------------------------
# coupling_probability_bound
# ---------------------------------------------------------------------------

def test_bound_values_against_quadrature():
    assert coupling_probability_bound(0.0, 0.0, 1.0) == 0.0
    assert coupling_probability_bound(1.0, 0.0, 0.0) == 1.0
    got = coupling_probability_bound(1.0, 0.0, 1.0)
    assert got == pytest.approx(gaussian_mass(0.5), abs=1e-12)
    assert got == pytest.approx(0.38292, abs=5e-6)
    k = math.log(2.0)
    got_k = coupling_probability_bound(1.0, k, 1.0)
    arg = 1.0 / (2.0 * math.sqrt((math.e ** k - 1.0) / k))
    assert got_k == pytest.approx(gaussian_mass(arg), abs=1e-12)
    assert got_k == pytest.approx(0.32279, abs=5e-6)


def test_bound_rejects_negative(euclid2):
    with pytest.raises(InvalidInput):
        coupling_probability_bound(-1.0, 0.0, 1.0)


# ---------------------------------------------------------------------------
# dominating process
# ---------------------------------------------------------------------------

def test_dominating_flat_recursion_equality(euclid2):
    cfg = _config(euclid2, alpha=0.05, seed=29, delta_couple=0.1)
    path = run_coupled(euclid2, cfg)
    U = dominating_process(path.schedule, path.distance_process,
                           path.lambda_star_record, 0.0)
    assert U[0] == path.distance_process[0]
    stop = len(path.schedule.times) if math.isinf(path.coupling_time) \
        else int(np.searchsorted(path.schedule.times, path.coupling_time))
    # before any fold of |.| at zero, the distance equals U exactly; in
    # general it never exceeds U before the coupling time
    d = path.distance_process
    assert np.all(d[:stop] <= U[:stop] + 1e-12)
    folds = np.abs(d[:stop] - U[:stop]) > 1e-12
    if folds.any():
        first = int(np.argmax(folds))
        assert np.allclose(d[:first], U[:first], atol=1e-12)


def test_dominating_with_decay_weights(euclid2):
    cfg = _config(euclid2, alpha=0.1, seed=31, delta_couple=0.2, k=0.8)
    path = run_coupled(euclid2, cfg)
    U = dominating_process(path.schedule, path.distance_process,
                           path.lambda_star_record, 0.8)
    sched = path.schedule
    rel = sched.times - sched.t1
    manual = np.empty(len(rel))
    acc = 0.0
    manual[0] = path.distance_process[0]
    for n in range(sched.n_steps):
        acc += float(sched.fracs[n]) * math.exp(0.8 * rel[n + 1] / 2.0) \
            * path.lambda_star_record[n]
        manual[n + 1] = math.exp(-0.8 * rel[n + 1] / 2.0) \
            * (path.distance_process[0] + cfg.alpha * acc)
    assert np.allclose(U, manual, atol=1e-12)


def test_survival_matches_mirror_law(euclid2):
    """Flat mirror coupling: quick sanity at moderate scale (the acceptance
    suite runs the tight version)."""
    sched = Schedule(0.0, 1.0, 0.05)
    out = engine.coupled_chunk(euclid2, sched, np.array([-0.5, 0.0]),
                               np.array([0.5, 0.0]), 53, range(4096),
                               delta_couple=0.1)
    est = float(out["survival"].mean())
    target = gaussian_mass(0.5)
    assert abs(est - target) <= 3 * math.sqrt(target * (1 - target) / 4096) \
        + 0.05


def test_delta_couple_validation():
    with pytest.raises(InvalidInput):
        CouplingConfig(alpha=0.1, t1=0.0, t2=1.0, seed=0,
                       start1=np.zeros(2), start2=np.ones(2),
                       delta_couple=0.05)
    cfg = CouplingConfig(alpha=0.1, t1=0.0, t2=1.0, seed=0,
                         start1=np.zeros(2), start2=np.ones(2))
    assert cfg.delta_couple == pytest.approx(0.2)
