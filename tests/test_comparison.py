import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import same_bits, strip_runtime
from oracles import gaussian_mass, table_interp

from gtwalk import engine, rng
from gtwalk.comparison import (OUParams, RadialComparisonSpec, beta,
                               builtin_b, chi, feller_explosion_test,
                               ou_chunk, ou_kernel, _ou_transition)
from gtwalk.errors import InvalidInput
from gtwalk.manifolds import Euclidean, RoundSphere
from gtwalk.runner import run_document
from gtwalk.stats import (CHUNK, gaussian_cdf, ks_statistic, mc_report,
                          proportion)
from gtwalk.walk import Schedule


# ---------------------------------------------------------------------------
# chi and beta
# ---------------------------------------------------------------------------

def test_chi_values():
    assert chi(0.0) == 0.0
    assert chi(8.0) > 1.0 - 1e-14
    assert chi(0.5) == pytest.approx(gaussian_mass(0.5), abs=1e-12)
    assert chi(0.5) == pytest.approx(0.3829249, abs=1e-7)


@given(st.floats(0.0, 10.0), st.floats(0.0, 10.0))
@settings(max_examples=100, deadline=None)
def test_chi_monotone_and_bounded(a, b):
    lo, hi = min(a, b), max(a, b)
    assert 0.0 <= chi(lo) <= chi(hi) <= 1.0


def test_chi_rejects_negative():
    with pytest.raises(InvalidInput):
        chi(-0.1)


def test_beta_values():
    assert beta(1.0, 0.0) == 1.0
    assert beta(1.0, math.log(2.0)) == pytest.approx(1.0 / math.log(2.0),
                                                     rel=1e-12)
    assert abs(beta(1.0, 1e-12) - 1.0) < 1e-9


@given(st.floats(-5.0, 5.0), st.floats(0.01, 3.0), st.floats(0.01, 3.0))
@settings(max_examples=100, deadline=None)
def test_beta_increasing_in_t(k, t1, dt):
    assert beta(t1 + dt, k) > beta(t1, k)


def test_beta_continuous_at_zero_k():
    for t in (0.3, 1.0, 2.5):
        assert beta(t, 1e-9) == pytest.approx(beta(t, 0.0), rel=1e-8)
        assert beta(t, -1e-9) == pytest.approx(beta(t, 0.0), rel=1e-8)


# ---------------------------------------------------------------------------
# OU process
# ---------------------------------------------------------------------------

def test_ou_transition_variance_additivity():
    for k in (0.0, 0.7, -0.4):
        d1, s1 = _ou_transition(k, 0.01)
        d2, s2 = _ou_transition(k, 0.02)
        d3, s3 = _ou_transition(k, 0.03)
        assert d1 * d2 == pytest.approx(d3, rel=1e-14)
        assert d1 ** 2 * s2 ** 2 + s1 ** 2 == pytest.approx(s3 ** 2,
                                                            abs=1e-12)


def test_ou_mean_path():
    k, a, T, h = 1.0, 2.0, 1.0, 0.01
    ends = ou_chunk(OUParams(a, k), h, round(T / h), 8, range(4000))["end"]
    target = math.exp(-k * T / 2.0) * a
    se = ends.std(ddof=1) / math.sqrt(len(ends))
    assert abs(ends.mean() - target) <= 3 * se


def test_ou_flat_variance():
    T, h = 1.0, 0.01
    ends = ou_chunk(OUParams(0.0, 0.0), h, round(T / h), 9,
                    range(4000))["end"]
    se = math.sqrt(2.0 / len(ends)) * 4.0 * T
    assert abs(ends.var() - 4.0 * T) <= 3 * se


def test_ou_endpoint_distribution_ks():
    k, a, T, h = 0.5, 1.0, 1.0, 0.02
    n = int(round(T / h))
    decay, sd = _ou_transition(k, h)
    var_total = sum(decay ** (2 * j) * sd ** 2 for j in range(n))
    ends = ou_chunk(OUParams(a, k), h, n, 10, range(10_000))["end"]
    ks = ks_statistic(ends, gaussian_cdf(decay ** n * a, var_total),
                      level=0.01)
    assert ks.passed


def test_ou_kernel_stops_at_the_horizon():
    """With ou_h 0.3 on a horizon of 1 the last step is 0.1 long, so the
    end values follow the exact OU law at the horizon. (Four whole steps
    reach time 1.2, whose law this sample size tells apart.)"""
    k, a = 0.5, 1.0
    ends = ou_kernel(OUParams(a, k), 1.0, 0.3, 12, 20_000).fn(
        range(20_000), records={"end"})["end"]
    law = gaussian_cdf(a * math.exp(-k / 2.0), 4.0 * -math.expm1(-k) / k)
    assert ks_statistic(ends, law, level=0.01).passed


@pytest.mark.bits
@pytest.mark.parametrize("h, n_steps", [(0.25, 4), (0.002, 500),
                                        (1e-4, 10_000)])
def test_ou_kernel_whole_steps_keep_their_bits(h, n_steps):
    """Where h divides the horizon every step is whole: the kernel gives
    the bits of n_steps transitions of length h."""
    params = OUParams(1.0, 0.5)
    got = ou_kernel(params, 1.0, h, 5, 1000).fn(range(40))
    want = ou_chunk(params, h, n_steps, 5, range(40))
    for key in want:
        assert same_bits(got[key], want[key]), key


def _ou_doc(**extra):
    return {"kind": "ou-survival", "t1": 0.0, "t2": 1.0, "k": 0.0, **extra}


def test_ou_chunk_zero_start_is_dead():
    res = ou_chunk(OUParams(0.0, 0.0), 1e-2, 100, 3, range(50))
    assert not np.any(res["alive"])
    assert set(res) == {"alive", "end"}
    assert set(ou_chunk(OUParams(0.0, 0.0), 1e-2, 100, 3, range(50),
                        records={"alive"})) == {"alive"}


def test_ou_chunk_rejects_unknown_records():
    with pytest.raises(InvalidInput, match="ou_chunk"):
        ou_chunk(OUParams(1.0, 0.0), 1e-2, 10, 0, range(4),
                 records={"alive", "skeleton"})


def test_ou_survival_zero_start():
    _, [report] = run_document(_ou_doc(a=0.0, ou_h=1e-2, n_paths=1000))
    params = report.to_dict()["params"]
    assert params["estimate"] == 0.0 and params["analytic"] == 0.0


def test_ou_survival_monotone_in_start():
    values = [mc_report("ou", ou_kernel(OUParams(a, 0.0), 1.0, 1e-3, 31, 2000),
                        {"alive"}, lambda res: (proportion(res["alive"]), {})
                        ).estimate.mean for a in (0.5, 1.0, 2.0)]
    assert values[0] < values[1] < values[2]


def test_ou_survival_needs_paths():
    with pytest.raises(InvalidInput):
        ou_kernel(OUParams(1.0, 0.0), 1.0, 1e-2, 0, 10)


def test_ou_kernel_needs_positive_step():
    for h in (0.0, -0.1):
        with pytest.raises(InvalidInput, match="positive"):
            ou_kernel(OUParams(1.0, 0.0), 1.0, h, 0, 1000)


def test_ou_survival_same_for_any_worker_count():
    """Three chunks in two worker processes give the one-process report."""
    doc = _ou_doc(a=1.0, k=0.5, ou_h=1e-2, n_paths=2 * CHUNK + 500, seed=17)
    one, two = (strip_runtime(run_document(doc, workers=w)[1][0].to_dict())
                for w in (1, 2))
    assert one == two


# ---------------------------------------------------------------------------
# radial comparison spec
# ---------------------------------------------------------------------------

def test_psi_shape():
    spec = RadialComparisonSpec(builtin_b({"name": "zero"}), c0=1.0, r0=0.5)
    rs = np.linspace(1.0 + 1e-6, 2.0, 200)
    assert np.allclose(spec.psi(rs), 2.0 / (rs - 1.0), rtol=1e-12)
    assert spec.psi(2.5) > 0.0
    assert spec.psi(3.0) == 0.0 and spec.psi(3.5) == 0.0
    grid = np.linspace(1.001, 4.0, 2000)
    vals = spec.psi(grid)
    assert np.all(np.diff(vals) <= 1e-12)
    # locally Lipschitz on the bridge: finite difference quotients bounded
    bridge = np.linspace(2.0, 3.0, 1000)
    q = np.abs(np.diff(spec.psi(bridge)) / np.diff(bridge))
    assert q.max() < 10.0


@pytest.mark.bits
def test_psi_keeps_the_two_select_bits_at_its_branch_ends():
    """psi's one select has the bits of the form that also sent s >= 2 to
    0.0, on both sides of s = 1 and s = 2, at +-inf, NaN and the 1e-9
    floor, at r = +-0.0, for arrays and for scalars. With r0 the smallest
    subnormal, r - 2 r0 rounds to r, so s is r itself."""
    def two_select(spec, r):
        s = np.maximum(np.asarray(r, dtype=float) - 2.0 * spec.r0, 1e-9)
        c = np.clip(s - 1.0, 0.0, 1.0)
        return np.where(s <= 1.0, 2.0 / s,
                        np.where(s >= 2.0, 0.0,
                                 2.0 * (c - 1.0) ** 2 * (c + 1.0)))

    ends = [1.0, 2.0, np.inf, -np.inf]
    s = np.array(ends + [np.nextafter(e, d) for e in ends[:2]
                         for d in (-np.inf, np.inf)]
                 + [np.nan, 1e-9, 1.5, 3.0])
    tiny = float(np.nextafter(0.0, 1.0))
    radii = np.random.default_rng(5).uniform(-1.0, 5.0, 1000)
    radii[:2] = -0.0, 0.0
    for r0, r in ((tiny, s), (0.5, s + 1.0), (0.5, radii), (0.25, radii)):
        spec = RadialComparisonSpec(builtin_b({"name": "zero"}), r0=r0)
        assert same_bits(spec.psi(r), two_select(spec, r))
        for ri in r[:12]:
            got = spec.psi(float(ri))
            assert isinstance(got, float)
            assert same_bits(got, two_select(spec, ri))
    assert same_bits(s - 2.0 * tiny, s)


def test_phi_properties():
    spec = RadialComparisonSpec(builtin_b({"name": "constant", "c": 2.0}),
                                c0=1.5, r0=0.5)
    assert spec.phi(0.0) == pytest.approx(1.5)
    rs = np.linspace(0, 5, 50)
    assert np.all(np.diff(spec.phi(rs)) >= 0)
    assert spec.phi(3.0) == pytest.approx(1.5 + 0.5 * 2.0 * 3.0, rel=1e-6)


@pytest.mark.parametrize("b", [
    {"name": "zero"}, {"name": "constant", "c": 2.0},
    {"name": "linear", "slope": 1.0},
    {"name": "table", "r": [0.0, 1.0, 3.0], "values": [0.0, 1.0, 4.0]}])
def test_phi_does_not_depend_on_companion_points(b):
    """phi of a point is bit-equal alone and inside any batch."""
    spec = RadialComparisonSpec(builtin_b(b), c0=1.0, r0=0.5)
    r = np.array([0.0, 0.1, 1.3, 2.71, 4.0])
    with_far = np.append(r, 9.77)
    batch, far = spec.phi(r), spec.phi(with_far)
    for i, ri in enumerate(r):
        assert spec.phi(ri) == batch[i] == far[i]


@pytest.mark.bits
@pytest.mark.parametrize("b", [
    {"name": "zero"}, {"name": "constant", "c": 0.7}, {"name": "linear"},
    {"name": "table", "r": [0.0, 1.0, 3.0], "values": [0.0, 2.0, 0.5]}])
def test_phi_same_after_a_larger_r(b):
    """phi and step give the same bits whether or not the spec has already
    built its table further out."""
    fresh = RadialComparisonSpec(builtin_b(b), c0=1.0, r0=0.5)
    seen = RadialComparisonSpec(builtin_b(b), c0=1.0, r0=0.5)
    seen.phi(np.array([0.2, 11.3]))
    r = np.linspace(1.05, 4.5, 301)
    lam = np.random.default_rng(2).standard_normal(r.shape)
    assert np.array_equal(seen.phi(r), fresh.phi(r))
    assert np.array_equal(seen.step(r, lam, 0.05, 0.5),
                          fresh.step(r, lam, 0.05, 0.5))
    assert seen.phi(2.71) == fresh.phi(2.71)


B_PROFILES = [
    {"name": "zero"}, {"name": "constant", "c": 0.7},
    {"name": "linear", "slope": 1.3},
    {"name": "table", "r": [0.0, 1.0, 3.0], "values": [0.0, 2.0, 0.5]}]


def _assert_lookup_is_interp(spec, r) -> None:
    """b_integral(r) against np.interp on the table the call left behind."""
    got = spec.b_integral(r)
    grid, _, cum, _ = spec._table
    want = table_interp(r, grid, cum)
    assert same_bits(got, want)
    if np.ndim(r) == 0:
        assert isinstance(got, float)


def _near_node(j: int, ulps: int) -> float:
    """The node j / 256 moved ``ulps`` floats up (or down if negative)."""
    r = j / 256.0
    for _ in range(abs(ulps)):
        r = float(np.nextafter(r, math.copysign(np.inf, ulps)))
    return r


_RADII = st.one_of(st.floats(0.0, 12.0),
                   st.builds(_near_node, st.integers(0, 3072),
                             st.integers(-1, 1)))


@pytest.mark.bits
@settings(max_examples=150, deadline=None)
@given(profile=st.sampled_from(B_PROFILES),
       first=st.lists(_RADII, max_size=6),
       then=st.lists(_RADII, min_size=1, max_size=40))
def test_b_integral_is_np_interp_bit_for_bit(profile, first, then):
    """The bracket lookup equals np.interp on the spec's table, on and
    beside nodes, at the last node, once the table grows past where an
    earlier call built it, and for 0-d input."""
    spec = RadialComparisonSpec(builtin_b(profile), c0=1.0, r0=0.5)
    _assert_lookup_is_interp(spec, np.array(first, dtype=float))
    _assert_lookup_is_interp(spec, np.array(then))
    for r in then[:5]:
        _assert_lookup_is_interp(spec, r)
        _assert_lookup_is_interp(spec, np.float64(r))
    grid, _, cum, _ = spec._table
    assert spec.b_integral(grid[-1]) == cum[-1]
    _assert_lookup_is_interp(spec, np.array([grid[-1], grid[-2], 0.0]))


@pytest.mark.parametrize("b", B_PROFILES)
def test_b_integral_at_nodes_and_table_ends(b):
    spec = RadialComparisonSpec(builtin_b(b), c0=1.0, r0=0.5)
    # 2.5 builds nodes j / 256 for j <= 640; the last is 2.5 itself
    _assert_lookup_is_interp(spec, 2.5)
    grid, _, cum, _ = spec._table
    assert grid[-1] == 2.5 and spec.b_integral(2.5) == cum[-1]
    nodes = np.arange(0, 641) / 256.0
    _assert_lookup_is_interp(spec, nodes)
    _assert_lookup_is_interp(spec, np.nextafter(nodes, np.inf))
    _assert_lookup_is_interp(spec, np.nextafter(nodes[1:], 0.0))
    # past the table: it grows, and its new last node reads cum[-1]
    past = np.array([0.3, 7.0, 2.5, np.nextafter(7.0, 0.0)])
    _assert_lookup_is_interp(spec, past)
    grid, _, cum, _ = spec._table
    assert grid[-1] == 7.0 and spec.b_integral(past)[1] == cum[-1]
    # below the grid np.interp holds the first value
    _assert_lookup_is_interp(spec, np.array([-1.0, -1e-300, -0.0, 0.0]))


def test_b_checked_where_the_table_grows():
    """A b that goes negative only past the table's reach raises once r
    reaches there."""
    spec = RadialComparisonSpec(lambda r: np.where(r > 3.0, -1.0, 1.0))
    assert spec.phi(2.5) == pytest.approx(1.0 + 0.5 * 2.5)
    with pytest.raises(InvalidInput, match="nonnegative"):
        spec.phi(np.array([1.0, 3.5]))
    assert spec.phi(2.9) == pytest.approx(1.0 + 0.5 * 2.9)


def test_table_growth_is_amortized():
    """A radius creeping past the table's end one node at a time grows it
    in place: its storage is reallocated at most 10 times on the way from
    the first table to 64, and each value keeps the bits of a table built
    afresh."""
    spec = RadialComparisonSpec(builtin_b({"name": "linear", "slope": 1.3}))
    grid, reallocations = None, 0
    for j in range(1, 64 * 256 + 1):
        spec.b_integral(j / 256.0)
        if grid is not None and not np.shares_memory(grid, spec._table[0]):
            reallocations += 1
        grid = spec._table[0]
    assert grid[-1] == 64.0 and reallocations <= 10
    fresh = RadialComparisonSpec(spec.b)
    fresh.b_integral(64.0)
    assert same_bits(fresh._table, spec._table)


def test_builtin_b_validation():
    with pytest.raises(InvalidInput):
        builtin_b({"name": "mystery"})
    with pytest.raises(InvalidInput):
        builtin_b({"name": "constant", "c": -1.0})
    with pytest.raises(InvalidInput):
        builtin_b({"name": "table", "r": [0, 1], "values": [0.0, -2.0]})
    table = builtin_b({"name": "table", "r": [0.0, 1.0, 2.0],
                       "values": [0.0, 1.0, 4.0]})
    assert table(1.5) == pytest.approx(2.5)


@pytest.mark.parametrize("spec, words", [
    ({"name": "zero", "c": 5.0}, "zero b takes no key 'c'"),
    ({"name": "constant", "c": 1.0, "slope": 2.0},
     "constant b takes no key 'slope'"),
    ({"name": "linear", "values": [1.0]}, "linear b takes no key 'values'"),
    ({"name": "table", "r": [0.0, 1.0], "values": [1.0, 2.0], "c": 1.0},
     "table b takes no key 'c'"),
    ({"name": "table", "r": [2.0, 1.0, 0.0], "values": [0.0, 1.0, 2.0]},
     "strictly increasing"),
    ({"name": "table", "r": [0.0, 1.0, 1.0], "values": [0.0, 1.0, 2.0]},
     "strictly increasing"),
    ({"name": ["zero"]}, "unknown b profile"),
])
def test_builtin_b_refuses_unread_keys_and_unsorted_tables(spec, words):
    """A key the profile does not read would take no effect, and np.interp
    gives no defined value on a table whose r does not increase."""
    with pytest.raises(InvalidInput, match=words):
        builtin_b(spec)


@pytest.mark.bits
@pytest.mark.parametrize("model", [
    RoundSphere(2, 1.0, flow=True, time_window=(0.0, 1.0)), Euclidean(2)],
    ids=["flow_sphere", "euclid2"])
@pytest.mark.parametrize("b", B_PROFILES)
def test_walk_chunk_rho_trace_is_the_connect_interp_replay(model, b):
    """The kernel's traced comparison path and flags equal a replay built
    step by step from toward, np.interp on the spec's table and the
    traced skeleton and noise. The same replay with depart's direction
    moves rho by rounding alone, within 1e-12, and flags the same paths."""
    sched = Schedule(0.0, 0.3, 0.05)
    o = model.origin()
    spec = RadialComparisonSpec(builtin_b(b), c0=1.0, r0=0.5)
    B, margin = 200, -1.0
    out = engine.walk_chunk(model, sched, o, 3, range(B), origin=o,
                            radial={"spec": spec, "rho0": 1.5,
                                    "margin": margin},
                            records={"skeleton", "noise", "rho_trace",
                                     "radial_violation"})
    # the table now reaches every rho the kernel looked up
    grid, _, cum, _ = spec._table

    def replay(rate):
        rho = np.full(B, 1.5)
        trace, violated = [], np.zeros(B, dtype=bool)
        for n in range(sched.n_steps + 1):
            t, X = float(sched.times[n]), out["skeleton"][:, n]
            d_o, toward_o = rate(t, X, o)
            violated |= d_o > rho + margin
            trace.append(rho)
            if n == sched.n_steps:
                break
            xi = out["noise"][:, n]
            lift = model.lift(t, X, xi)
            lam = np.where(d_o >= spec.r0,
                           -model.inner(t, X, lift, toward_o),
                           math.sqrt(model.dim + 2.0) * xi[:, 0])
            drift = (spec.c0 + 0.5 * table_interp(rho, grid, cum)
                     + spec.psi(rho))
            rho = rho + float(sched.fracs[n]) * (sched.alpha * lam
                                                 + sched.alpha ** 2 * drift)
        return np.stack(trace, axis=1), violated

    rho_trace, violated = replay(model.toward)
    assert same_bits(out["rho_trace"], rho_trace)
    assert np.array_equal(out["radial_violation"], violated)
    assert 0.0 < violated.mean() < 1.0
    via_depart, flags = replay(model.depart)
    assert np.allclose(via_depart, rho_trace, rtol=0.0, atol=1e-12)
    assert np.array_equal(flags, violated)


def test_radial_discrete_stays_above_floor():
    """The cutoff drift keeps discrete paths above 2 r0."""
    spec = RadialComparisonSpec(builtin_b({"name": "zero"}), c0=1.0, r0=0.5)
    alpha = 0.05
    n_steps = 400
    lam = np.stack([
        math.sqrt(4.0) * rng.unit_ball_samples(
            rng.stream(12, rng.PURPOSE_RADIAL, i), n_steps, 2)[:, 0]
        for i in range(1000)])
    rho = np.full(len(lam), 1.5)
    for i in range(n_steps):
        rho = spec.step(rho, lam[:, i], alpha, 1.0)
        assert rho.min() > 2 * spec.r0


def test_radial_continuous_drift_mean():
    """Away from the cutoff region the drift is exactly c0."""
    spec = RadialComparisonSpec(builtin_b({"name": "zero"}), c0=1.0, r0=0.5)
    h, T = 1e-3, 0.25
    n = int(math.ceil(T / h - 1e-9))
    z = np.stack([rng.stream(13, rng.PURPOSE_RADIAL, i).standard_normal(n)
                  for i in range(400)])
    rho = np.full(len(z), 8.0)
    for i in range(n):
        rho = spec.step(rho, z[:, i], math.sqrt(h), 1.0)
    drifts = rho - 8.0
    se = drifts.std(ddof=1) / math.sqrt(len(drifts))
    assert abs(drifts.mean() - spec.c0 * T) <= 3 * se


@pytest.mark.bits
def test_radial_batch_rows_are_single_paths():
    """Each row of a stepped block is its path stepped alone, bit for
    bit, so retiring rows from the engine's block moves no radial path."""
    spec = RadialComparisonSpec(builtin_b({"name": "linear"}), c0=1.0, r0=0.5)
    lam = np.random.default_rng(3).normal(size=(6, 80))
    fracs = np.append(np.ones(79), 0.4)
    rho = np.full(6, 1.5)
    single = np.full(6, 1.5)
    for i in range(80):
        rho = spec.step(rho, lam[:, i], 0.1, fracs[i])
        single = np.array([spec.step(single[j:j + 1], lam[j, i:i + 1], 0.1,
                                     fracs[i])[0] for j in range(6)])
        assert same_bits(single, rho)


# ---------------------------------------------------------------------------
# explosion test
# ---------------------------------------------------------------------------

def test_feller_zero_drift_survives():
    res = feller_explosion_test(builtin_b({"name": "zero"}), 1.0, 20.0)
    assert res.survives and not res.explodes


def test_feller_linear_drift_explodes():
    res = feller_explosion_test(builtin_b({"name": "linear"}), 1.0, 20.0)
    assert res.explodes


def test_feller_constant_drift_survives():
    res = feller_explosion_test(builtin_b({"name": "constant", "c": 1.0}),
                                1.0, 20.0)
    assert res.survives


def test_feller_stable_under_doubling():
    for b in ({"name": "zero"}, {"name": "linear"}):
        v1 = feller_explosion_test(builtin_b(b), 1.0, 20.0).verdict
        v2 = feller_explosion_test(builtin_b(b), 1.0, 40.0).verdict
        assert v1 == v2


def test_feller_validation():
    with pytest.raises(InvalidInput):
        feller_explosion_test(builtin_b({"name": "zero"}), 1.0, 5.0)
    with pytest.raises(InvalidInput):
        feller_explosion_test(lambda r: np.full_like(r, np.nan), 1.0, 20.0)
