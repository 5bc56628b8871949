import math

import numpy as np
import pytest

from conftest import pair_trace, random_point, random_tangent, same_bits
from oracles import (ball_noise, gaussian_mass, reference_coupled_chunk,
                     reference_mirror, reference_walk_chunk, reflection_map,
                     transport_mirror)

from gtwalk import engine
from gtwalk.comparison import RadialComparisonSpec, builtin_b
from gtwalk.coupling import (CouplingKind, coupled_kernel, coupled_step,
                             coupling_probability_bound, dominating_process)
from gtwalk.errors import (DegenerateGeodesic, InvalidInput,
                           SingularConfiguration)
from gtwalk.manifolds import (Euclidean, RoundSphere, ScaledMetric,
                              minimal_geodesic)
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
    got = model.mirror(t, x, y, v)
    for i in range(len(x) - 5):
        want = reflection_map(model, t, minimal_geodesic(model, t, x[i], y[i]),
                              v[i]).components
        assert np.allclose(got[i], want, rtol=0, atol=1e-12)


@pytest.mark.bits
@pytest.mark.parametrize("name", MODEL_NAMES)
def test_mirror_keeps_the_reference_bits(request, name, rng):
    """model.mirror, which calls no depart on the closed-form models, has
    the bits of the mirror computed from depart's direction, coincident
    rows included. The scaled metric now reflects with its base's mirror
    alone, so there the two may differ by rounding; the test prints the
    largest deviation."""
    model = request.getfixturevalue(name)
    t = model.time_window[0] + 0.2
    x, y, v = _mirror_rows(model, t, rng, n=400)
    got, want = model.mirror(t, x, y, v), reference_mirror(model, t, x, y, v)
    if isinstance(model, ScaledMetric):
        dev = float(np.max(np.abs(got - want)))
        print(f"{name}: mirror deviates from the reference by {dev:.3g}")
        assert dev <= 64 * np.finfo(float).eps * float(np.max(np.abs(v)))
    else:
        assert same_bits(got, want)


@pytest.mark.parametrize("name", MODEL_NAMES)
def test_mirror_is_a_tangent_isometry(request, name, rng):
    model = request.getfixturevalue(name)
    t = model.time_window[0] + 0.4
    x, y, v = _mirror_rows(model, t, rng)
    w = np.stack([random_tangent(model, t, p, rng) for p in x])
    mv, mw = model.mirror(t, x, y, v), model.mirror(t, x, y, w)
    assert np.allclose(model.inner(t, y, mv, mw), model.inner(t, x, v, w),
                       rtol=0, atol=1e-12)
    assert np.all(model.tangency_residual(y, mv) <= 1e-12)


@pytest.mark.parametrize("name", MODEL_NAMES)
def test_mirror_is_an_involution(request, name, rng):
    """Mirroring from y back to x restores v."""
    model = request.getfixturevalue(name)
    t = model.time_window[0] + 0.3
    x, y, v = _mirror_rows(model, t, rng)
    there = model.mirror(t, x, y, v)
    back = model.mirror(t, y, x, there)
    assert np.allclose(back, v, rtol=0, atol=1e-12)


@pytest.mark.parametrize("name", MODEL_NAMES)
def test_mirror_sends_u0_to_minus_u1(request, name, rng):
    """mirror(u0) = -u1, and the reflection kernel's lambda* formula
    -2 <v, u0> at x equals 2 <mirror(v), u1> at y."""
    model = request.getfixturevalue(name)
    t = model.time_window[0] + 0.1
    x, y, v = _mirror_rows(model, t, rng)
    dist, u0 = model.depart(t, x, y)
    u1 = model.transport_along(t, x, u0, dist, u0)
    assert np.allclose(model.mirror(t, x, y, u0), -u1, rtol=0, atol=1e-12)
    lam = 2.0 * model.inner(t, y, model.mirror(t, x, y, v), u1)
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
    got = model.mirror(t, x, y, v)
    assert np.allclose(got, v, rtol=0, atol=1e-15)
    assert np.allclose(got, transport_mirror(model, t, x, y, v),
                       rtol=0, atol=1e-12)
    # coincident rows
    got = model.mirror(t, x, x, v)
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
            out = model.mirror(t, x, y, v)
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
# coupled_kernel traces
# ---------------------------------------------------------------------------

def _kernel(model, alpha=0.05, t2=1.0, kind=CouplingKind.REFLECTION,
            start_scale=0.5, seed=77, coincident=False, **kw):
    t1 = model.time_window[0]
    o = model.origin()
    e1 = model.frame(t1, o)[0]
    x1 = model.exp(t1, o, -start_scale * e1)
    x2 = x1 if coincident else model.exp(t1, o, +start_scale * e1)
    return coupled_kernel(model, Schedule(t1, t2, alpha), x1, x2, seed,
                          kind=kind, **kw)


def test_coupled_kernel_rejects_exit_radius_at_most_one():
    for radius in (0.5, 1.0):
        with pytest.raises(InvalidInput, match="exit radius"):
            coupled_kernel(Euclidean(2), Schedule(0.0, 1.0, 0.1),
                           np.zeros(2), np.ones(2), 1, exit_radius=radius)


def test_coupled_trace_identical_starts(euclid2):
    path = pair_trace(coupled_kernel(euclid2, Schedule(0.0, 1.0, 0.1),
                                     np.zeros(2), np.zeros(2), 1))
    assert path["coupling_time"] == 0.0
    assert np.array_equal(path["skeleton1"], path["skeleton2"])
    assert np.all(path["distance"] == 0.0)
    assert np.all(path["coupled_flags"])


@pytest.mark.bits
@pytest.mark.parametrize("name", MODEL_NAMES)
def test_coupled_trace_marginal_replay(request, name):
    """Replaying either coordinate's noise through the single-walk step
    reproduces that coordinate's skeleton."""
    model = request.getfixturevalue(name)
    t2 = model.time_window[1]
    kernel = _kernel(model, alpha=0.1, t2=t2, seed=13)
    path, sched = pair_trace(kernel), kernel.schedule
    noise2 = ball_noise(model, sched, path["skeleton2"], path["lift2"])
    # X1 always follows the single-walk rule; X2 does until the declaration
    # time, where the sticking construction replaces it by X1.
    stop2 = sched.n_steps if math.isinf(path["coupling_time"]) else \
        max(int(np.searchsorted(sched.times, path["coupling_time"])) - 1, 0)
    for n in range(sched.n_steps):
        t = float(sched.times[n])
        frac = float(sched.fracs[n])
        p1, _ = step(model, t, path["skeleton1"][n], path["noise"][n],
                     sched.alpha, frac=frac)
        assert np.array_equal(p1.coords, path["skeleton1"][n + 1])
        if n < stop2:
            p2, _ = step(model, t, path["skeleton2"][n], noise2[n],
                         sched.alpha, frac=frac)
            assert np.allclose(p2.coords, path["skeleton2"][n + 1],
                               atol=1e-12)


def test_coupled_trace_sticks_and_stays(euclid2):
    kernel = _kernel(euclid2, alpha=0.05, seed=3, delta_couple=0.2)
    path = pair_trace(kernel)
    assert not math.isinf(path["coupling_time"])
    start = int(np.searchsorted(kernel.schedule.times, path["coupling_time"]))
    assert np.array_equal(path["skeleton1"][start:], path["skeleton2"][start:])
    assert np.all(path["distance"][start:] == 0.0)
    flags = path["coupled_flags"]
    assert np.all(flags[start:]) and not np.any(flags[:start])
    # monotone: once coupled, forever coupled
    assert np.all(np.diff(flags.astype(int)) >= 0)


@pytest.mark.bits
@pytest.mark.parametrize("kind", list(CouplingKind))
@pytest.mark.parametrize("name", MODEL_NAMES)
def test_coupled_pairs_stick_on_every_model(request, name, kind):
    """From its couple_step on, a pair is one particle: skeleton2 equals
    skeleton1 bit for bit and the distance record is 0.0, for pairs that
    couple after the start and for a coincident start pair."""
    model = request.getfixturevalue(name)
    t1 = model.time_window[0]
    sched = Schedule(t1, t1 + 0.1, 0.05)
    x1, x2 = _pair_near_origin(model)
    d0 = float(model.distance(t1, x1, x2))
    for start2, delta in ((x2, 0.97 * d0), (x1, 0.1)):
        res = engine.coupled_chunk(
            model, sched, x1, start2, 19, range(200), kind=kind,
            delta_couple=delta, records={"couple_step", "skeleton",
                                         "distance"})
        flags = engine.coupled_flags(res["couple_step"], sched.n_steps)
        assert same_bits(res["skeleton2"][flags], res["skeleton1"][flags])
        assert same_bits(res["distance"][flags], np.zeros(flags.sum()))
        assert np.all(res["distance"][~flags] > delta)
        if start2 is x1:
            assert np.all(res["couple_step"] == 0)
        elif kind is CouplingKind.REFLECTION:
            assert np.any(res["couple_step"] > 0)


def test_coupled_trace_parallel_scaled_metric_identity(scaled_euclid2):
    """Conformal flat model: the weighted distance is exactly constant."""
    kernel = _kernel(scaled_euclid2, alpha=0.02, seed=3,
                     kind=CouplingKind.PARALLEL_TRANSPORT, k=1.0,
                     delta_couple=0.0)
    distance = pair_trace(kernel)["distance"]
    times = kernel.schedule.times
    expected = distance[0] * np.exp(-1.0 * (times - times[0]) / 2)
    assert np.max(np.abs(distance - expected)) <= 1e-10


def test_lambda_star_zero_for_parallel(flow_sphere):
    kernel = _kernel(flow_sphere, alpha=0.1, t2=0.5, seed=21,
                     kind=CouplingKind.PARALLEL_TRANSPORT, delta_couple=0.0)
    assert np.all(pair_trace(kernel)["lambda_star"] == 0.0)


@pytest.mark.bits
@pytest.mark.parametrize("kind", list(CouplingKind))
@pytest.mark.parametrize("name", MODEL_NAMES)
def test_coupled_step_is_a_kernel_step(request, name, kind):
    """coupled_step reproduces a one-path coupled_chunk step by step, before
    and after the pair couples, and for a pair that starts coincident."""
    model = request.getfixturevalue(name)
    t2 = model.time_window[1] - 0.03
    separated, coincident = (
        _kernel(model, alpha=0.1, t2=t2, kind=kind, seed=13, start_scale=0.2,
                delta_couple=0.15, coincident=coincident)
        for coincident in (False, True))
    for kernel in (separated, coincident):
        path, sched = pair_trace(kernel), kernel.schedule
        for n in range(sched.n_steps):
            y1, y2, lam = coupled_step(
                model, float(sched.times[n]), path["skeleton1"][n],
                path["skeleton2"][n], path["noise"][n], sched.alpha, kind,
                frac=float(sched.fracs[n]))
            assert np.array_equal(y1.coords, path["skeleton1"][n + 1])
            assert lam == path["lambda_star"][n]
            flags = path["coupled_flags"]
            if flags[n + 1] and not flags[n]:
                # declared coupled at n+1: the skeleton records X2 := X1
                assert np.array_equal(path["skeleton2"][n + 1],
                                      path["skeleton1"][n + 1])
            else:
                assert np.array_equal(y2.coords, path["skeleton2"][n + 1])
    assert pair_trace(coincident)["coupling_time"] == sched.t1
    if kind is CouplingKind.REFLECTION:
        assert math.isfinite(pair_trace(separated)["coupling_time"])


SPLIT = (1, 7, 249, 343)


def _by_blocks(run) -> list:
    """Outputs of ``run(paths)`` on one block of sum(SPLIT) paths and,
    concatenated along the path axis, on the blocks of SPLIT."""
    edges = np.cumsum((0,) + SPLIT)
    parts = [run(range(lo, hi)) for lo, hi in zip(edges[:-1], edges[1:])]
    split = {key: np.concatenate([p[key] for p in parts]) for key in parts[0]}
    return run(range(edges[-1])), split


# Record sets of the kernel tests: the untraced default, every record, and
# the set whose pairs retire when they couple.
RECORDS = {"untraced": None, "all": engine.COUPLED_RECORDS,
           "retiring": {"couple_step"}}
# The output names each record gives.
OUTPUTS = {"end": ("end1", "end2"), "skeleton": ("skeleton1", "skeleton2")}


def _pair_near_origin(model, half: float = 0.1):
    t1 = model.time_window[0]
    o = model.origin()
    e1 = model.frame(t1, o)[0]
    return model.exp(t1, o, -half * e1), model.exp(t1, o, half * e1)


@pytest.mark.bits
@pytest.mark.parametrize("records", list(RECORDS))
@pytest.mark.parametrize("kind", list(CouplingKind))
@pytest.mark.parametrize("name", MODEL_NAMES)
def test_coupled_chunk_ignores_the_block_split(request, name, kind, records):
    """Every coupled_chunk output is the same, bit for bit, whether the
    paths run as one block or as blocks of 1, 7, 249 and 343."""
    model = request.getfixturevalue(name)
    t1 = model.time_window[0]
    sched = Schedule(t1, t1 + 0.1, 0.05)
    x1, x2 = _pair_near_origin(model)
    whole, split = _by_blocks(lambda paths: engine.coupled_chunk(
        model, sched, x1, x2, 19, paths, kind=kind, delta_couple=0.1, k=0.3,
        exit_radius=1.3, records=RECORDS[records]))
    assert whole.keys() == split.keys()
    for key in whole:
        assert np.array_equal(whole[key], split[key]), key
    if kind is CouplingKind.REFLECTION:
        assert 0 < np.mean(whole["couple_step"] < 0) < 1


@pytest.mark.bits
@pytest.mark.parametrize("records", list(RECORDS))
@pytest.mark.parametrize("kind", list(CouplingKind))
@pytest.mark.parametrize("name", MODEL_NAMES)
def test_coupled_chunk_matches_reference_loop(request, name, kind, records):
    """Every coupled_chunk output has the bits of the reference loop's,
    which computes every record and both coupled-row selects at every step
    and concatenates the pair block, for a start pair that couples on some
    paths and for a coincident one."""
    model = request.getfixturevalue(name)
    t1 = model.time_window[0]
    sched = Schedule(t1, t1 + 0.1, 0.05)
    x1, x2 = _pair_near_origin(model)
    asked = RECORDS[records] or {"end", "couple_step", "final_distance",
                                 "exited"}
    for start2 in (x2, x1):
        args = (model, sched, x1, start2, 19, range(5, 305))
        options = dict(kind=kind, delta_couple=0.1, k=0.3, exit_radius=1.3)
        got = engine.coupled_chunk(*args, records=RECORDS[records], **options)
        want = reference_coupled_chunk(*args, **options)
        assert set(got) == {out for rec in asked
                            for out in OUTPUTS.get(rec, (rec,))}
        for key in got:
            assert same_bits(got[key], want[key]), key
        if start2 is x1:
            assert np.all(got["couple_step"] == 0)
        elif kind is CouplingKind.REFLECTION:
            assert 0 < np.mean(got["couple_step"] < 0) < 1


@pytest.mark.bits
@pytest.mark.parametrize("kind", list(CouplingKind))
@pytest.mark.parametrize("name", MODEL_NAMES)
def test_each_record_alone_keeps_its_bits(request, name, kind):
    """A run that asks for one record returns that record alone, with the
    reference loop's bits."""
    model = request.getfixturevalue(name)
    t1 = model.time_window[0]
    sched = Schedule(t1, t1 + 0.1, 0.05)
    x1, x2 = _pair_near_origin(model)
    args = (model, sched, x1, x2, 19, range(5, 105))
    options = dict(kind=kind, delta_couple=0.1, k=0.3, exit_radius=1.3)
    want = reference_coupled_chunk(*args, **options)
    for record in sorted(engine.COUPLED_RECORDS):
        got = engine.coupled_chunk(*args, records={record}, **options)
        assert set(got) == set(OUTPUTS.get(record, (record,))), record
        for key in got:
            assert same_bits(got[key], want[key]), key


@pytest.mark.bits
@pytest.mark.parametrize("kind", list(CouplingKind))
@pytest.mark.parametrize("name", MODEL_NAMES)
def test_retiring_run_keeps_couple_step(request, name, kind):
    """A run that reads only couple_step retires each pair when it
    couples; the record keeps the bits of the full run's, for a start pair
    that couples on some paths, one that couples at step 0 (every pair
    retires before the first step) and a delta_couple that couples most
    pairs early."""
    model = request.getfixturevalue(name)
    t1 = model.time_window[0]
    sched = Schedule(t1, t1 + 0.1, 0.05)
    x1, x2 = _pair_near_origin(model)
    d0 = float(model.distance(t1, x1, x2))
    for start2, delta in ((x2, 0.1), (x1, 0.1), (x2, 0.97 * d0)):
        args = (model, sched, x1, start2, 19, range(3, 403))
        options = dict(kind=kind, delta_couple=delta, k=0.3)
        full = engine.coupled_chunk(*args, records=engine.COUPLED_RECORDS
                                    - {"exited"}, **options)
        got = engine.coupled_chunk(*args, records={"couple_step"}, **options)
        assert set(got) == {"couple_step"}
        assert np.array_equal(got["couple_step"], full["couple_step"])
        if start2 is x1:
            assert np.all(full["couple_step"] == 0)
        elif kind is CouplingKind.REFLECTION and delta > 0.5 * d0:
            assert np.mean(full["couple_step"] == 0) < 0.5
            assert np.mean((full["couple_step"] >= 0)
                           & (full["couple_step"] <= 8)) > 0.5


class _CountingPlane(Euclidean):
    """The plane, counting the rows of every exp call."""

    def __init__(self):
        super().__init__(2)
        self.rows = []

    def exp(self, t, x, v):
        self.rows.append(len(x))
        return super().exp(t, x, v)


@pytest.mark.bits
@pytest.mark.parametrize("n_paths, survivors", [(16, 0), (64, 2)])
def test_retired_pairs_take_no_further_steps(n_paths, survivors):
    """In a retiring run, step n moves only the pairs not coupled by
    time t_n, and the loop stops once every pair has coupled."""
    model = _CountingPlane()
    sched = Schedule(0.0, 2.0, 0.1)
    run = lambda records: engine.coupled_chunk(
        model, sched, np.array([-0.1, 0.0]), np.array([0.1, 0.0]), 5,
        range(n_paths), delta_couple=0.15, records=records)
    step = run(None)["couple_step"]
    model.rows.clear()
    assert np.array_equal(run({"couple_step"})["couple_step"], step)
    assert np.sum(step < 0) == survivors
    live = [2 * int(np.sum((step < 0) | (step > n)))
            for n in range(sched.n_steps)]
    assert model.rows == [rows for rows in live if rows]
    assert len(model.rows) == (sched.n_steps if survivors else np.max(step))


def test_coupled_chunk_rejects_unknown_records(euclid2):
    sched = Schedule(0.0, 0.1, 0.1)
    run = lambda **kw: engine.coupled_chunk(
        euclid2, sched, np.zeros(2), np.ones(2), 1, range(2), **kw)
    with pytest.raises(InvalidInput, match="trace"):
        run(records={"couple_step", "trace"})
    with pytest.raises(InvalidInput, match="exit_radius"):
        run(records={"exited"})
    assert set(run(records={"exited"}, exit_radius=2.0)) == {"exited"}


# Record sets of the walk kernel tests: the untraced default, every record,
# and the one record the radial-domination kind reads.
WALK_RECORDS = {"untraced": None, "all": engine.WALK_RECORDS,
                "radial": {"radial_violation"}}


def _walk_settings(model):
    """The schedule, start and settings of a walk_chunk run on ``model``
    with the exit check and a radial replay that flags some paths."""
    t1 = model.time_window[0]
    o = model.origin()
    spec = RadialComparisonSpec(builtin_b({"name": "zero"}), c0=1.0, r0=0.5)
    return Schedule(t1, t1 + 0.1, 0.05), o, dict(
        origin=o, exit_radius=1.3,
        radial={"spec": spec, "rho0": 1.5, "margin": -1.2})


def _walk_run(model):
    """walk_chunk with ``_walk_settings``, as a function of the paths and
    the records."""
    sched, o, options = _walk_settings(model)
    return lambda paths, records: engine.walk_chunk(
        model, sched, o, 23, paths, records=records, **options)


@pytest.mark.bits
@pytest.mark.parametrize("records", list(WALK_RECORDS))
@pytest.mark.parametrize("name", MODEL_NAMES)
def test_walk_chunk_ignores_the_block_split(request, name, records):
    """The same for walk_chunk with the exit check and the radial replay."""
    run = _walk_run(request.getfixturevalue(name))
    whole, split = _by_blocks(lambda paths: run(paths, WALK_RECORDS[records]))
    assert whole.keys() == split.keys()
    for key in whole:
        assert np.array_equal(whole[key], split[key]), key
    assert 0 < whole["radial_violation"].mean() < 1


@pytest.mark.bits
@pytest.mark.parametrize("name", MODEL_NAMES)
def test_each_walk_record_alone_keeps_its_bits(request, name):
    """A walk_chunk run that asks for one record returns that record
    alone, equal to the output of a run that asks for every record."""
    run = _walk_run(request.getfixturevalue(name))
    paths = range(5, 105)
    full = run(paths, engine.WALK_RECORDS)
    assert set(full) == engine.WALK_RECORDS
    for record in sorted(engine.WALK_RECORDS):
        got = run(paths, {record})
        assert set(got) == {record}
        assert np.array_equal(got[record], full[record]), record


@pytest.mark.bits
@pytest.mark.parametrize("records", list(WALK_RECORDS))
@pytest.mark.parametrize("name", MODEL_NAMES)
def test_walk_chunk_matches_reference_loop(request, name, records):
    """Every walk_chunk output has the bits of the reference loop's, which
    steps C-ordered blocks: the exit check, the radial replay with a
    negative margin that flags some paths before they exit, and every
    trace. The untraced runs also drop each setting in turn, so a replay
    measures by toward alone and an exit check by distance alone. The
    reference replayed with depart's direction moves rho by rounding
    alone, within 1e-12, and flags the same paths."""
    model = request.getfixturevalue(name)
    sched, o, options = _walk_settings(model)
    paths = range(7, 307)
    runs = [(options, WALK_RECORDS[records])]
    if records == "untraced":
        runs += [({**options, alone: None}, None)
                 for alone in ("exit_radius", "radial")]
    for settings, asked in runs:
        got = engine.walk_chunk(model, sched, o, 23, paths, records=asked,
                                **settings)
        want = reference_walk_chunk(model, sched, o, 23, paths, **settings)
        assert set(got) <= set(want)
        for key in got:
            assert same_bits(got[key], want[key]), key
        if settings is options:
            assert 0 < want["radial_violation"].mean() < 1
            assert 0 < np.mean(want["exit_step"] >= 0) < 1
            via_depart = reference_walk_chunk(model, sched, o, 23, paths,
                                              rate="depart", **settings)
            assert np.allclose(via_depart["rho_trace"], want["rho_trace"],
                               rtol=0.0, atol=1e-12)
            assert np.array_equal(via_depart["radial_violation"],
                                  want["radial_violation"])


def test_walk_chunk_rejects_unknown_records(euclid2):
    sched = Schedule(0.0, 0.1, 0.1)
    run = lambda **kw: engine.walk_chunk(euclid2, sched, np.zeros(2), 1,
                                         range(2), **kw)
    with pytest.raises(InvalidInput, match="trace"):
        run(records={"end", "trace"})
    with pytest.raises(InvalidInput, match="exit_radius"):
        run(records={"exit_step"})
    for record in ("radial_violation", "rho_trace"):
        with pytest.raises(InvalidInput, match="radial"):
            run(records={record})
    assert set(run()) == {"end"}
    assert set(run(exit_radius=2.0)) == {"end", "exit_step"}


@pytest.mark.bits
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


@pytest.mark.parametrize("caller", ["step", "coupled_step"])
def test_ball_sample_rule_is_shared(caller, euclid2):
    """A single walk step and a single coupled step read one rule for
    their ball sample: |xi| up to 1 + 1e-12 is taken, beyond it refused."""
    run = {
        "step": lambda xi: step(euclid2, 0.0, np.zeros(2), xi, 0.1),
        "coupled_step": lambda xi: coupled_step(
            euclid2, 0.0, np.zeros(2), np.array([1.0, 0.0]), xi, 0.1),
    }[caller]
    run(np.array([0.0, 1.0 + 1e-13]))
    with pytest.raises(InvalidInput, match=r"\|xi\| <= 1"):
        run(np.array([0.0, 1.0 + 1e-11]))


# ---------------------------------------------------------------------------
# dominating process
# ---------------------------------------------------------------------------

def test_dominating_flat_recursion_equality(euclid2):
    kernel = _kernel(euclid2, alpha=0.05, seed=29, delta_couple=0.1)
    path, sched = pair_trace(kernel), kernel.schedule
    U = dominating_process(sched, path["distance"], path["lambda_star"], 0.0)
    assert U[0] == path["distance"][0]
    stop = len(sched.times) if math.isinf(path["coupling_time"]) \
        else int(np.searchsorted(sched.times, path["coupling_time"]))
    # before any fold of |.| at zero, the distance equals U exactly; in
    # general it never exceeds U before the coupling time
    d = path["distance"]
    assert np.all(d[:stop] <= U[:stop] + 1e-12)
    folds = np.abs(d[:stop] - U[:stop]) > 1e-12
    if folds.any():
        first = int(np.argmax(folds))
        assert np.allclose(d[:first], U[:first], atol=1e-12)


def test_dominating_with_decay_weights(euclid2):
    kernel = _kernel(euclid2, alpha=0.1, seed=31, delta_couple=0.2, k=0.8)
    path, sched = pair_trace(kernel), kernel.schedule
    U = dominating_process(sched, path["distance"], path["lambda_star"], 0.8)
    rel = sched.times - sched.t1
    manual = np.empty(len(rel))
    acc = 0.0
    manual[0] = path["distance"][0]
    for n in range(sched.n_steps):
        acc += float(sched.fracs[n]) * math.exp(0.8 * rel[n + 1] / 2.0) \
            * path["lambda_star"][n]
        manual[n + 1] = math.exp(-0.8 * rel[n + 1] / 2.0) \
            * (path["distance"][0] + sched.alpha * acc)
    assert np.allclose(U, manual, atol=1e-12)


def test_survival_matches_mirror_law(euclid2):
    """Flat mirror coupling: quick sanity at moderate scale (the acceptance
    suite runs the tight version)."""
    sched = Schedule(0.0, 1.0, 0.05)
    out = engine.coupled_chunk(euclid2, sched, np.array([-0.5, 0.0]),
                               np.array([0.5, 0.0]), 53, range(4096),
                               delta_couple=0.1)
    est = float(np.mean(out["couple_step"] < 0))
    target = gaussian_mass(0.5)
    assert abs(est - target) <= 3 * math.sqrt(target * (1 - target) / 4096) \
        + 0.05


def test_delta_couple_validation(euclid2):
    pair = (euclid2, Schedule(0.0, 1.0, 0.1), np.zeros(2), np.ones(2), 0)
    with pytest.raises(InvalidInput):
        coupled_kernel(*pair, delta_couple=0.05)
    kernel = coupled_kernel(*pair)
    assert kernel.params["delta_couple"] == pytest.approx(0.2)
