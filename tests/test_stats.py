import math
import multiprocessing
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gtwalk.coupling import CouplingKind, coupled_kernel
from gtwalk.errors import InvalidInput, SingularConfiguration
from gtwalk.stats import (McEstimate, bound_report,
                          check_contraction, check_gradient_estimate,
                          estimate_coupling_survival,
                          gaussian_cdf, ks_statistic, map_path_chunks,
                          wasserstein1_1d, wrapped_gaussian_cdf)
from gtwalk.walk import Schedule
from oracles import wrapped_gaussian_cdf_fourier


# ---------------------------------------------------------------------------
# McEstimate
# ---------------------------------------------------------------------------

def test_estimate_basic_fields():
    e = McEstimate.from_samples(np.array([1.0, 2.0, 3.0, 4.0]))
    assert e.n == 4 and e.mean == 2.5
    assert e.ci95[0] <= e.mean <= e.ci95[1]
    assert e.stderr >= 0.0


def test_sample_variance_does_not_cancel():
    # population variance 1.25 around a mean of 1e8; s2/n - mean^2 loses
    # it to cancellation and gives stderr 0.707
    e = McEstimate.from_samples(1e8 + np.array([0.0, 1.0, 2.0, 3.0]))
    assert e.mean == 1e8 + 1.5
    assert e.stderr == pytest.approx(math.sqrt(1.25 / 4), rel=1e-12)


def test_wilson_interval_near_edges():
    e = McEstimate.from_bernoulli(1, 1000)
    assert e.ci95[0] >= 0.0 and e.ci95[1] > e.mean
    e2 = McEstimate.from_bernoulli(999, 1000)
    assert e2.ci95[1] <= 1.0 and e2.ci95[0] < e2.mean
    mid = McEstimate.from_bernoulli(500, 1000)
    assert mid.ci95 == pytest.approx((mid.mean - 1.96 * mid.stderr,
                                      mid.mean + 1.96 * mid.stderr))


@pytest.mark.parametrize("mean, target, interval", [
    (0.5, 0.0, (0.5 - 1.96 * 0.1, 0.5 + 1.96 * 0.1)),
    (-0.5, 0.0, (0.5 - 1.96 * 0.1, 0.5 + 1.96 * 0.1)),
    (0.05, 0.0, (0.0, 0.05 + 1.96 * 0.1)),
    (-0.05, 0.0, (0.0, 0.05 + 1.96 * 0.1)),
    (0.3, 0.8, (0.5 - 1.96 * 0.1, 0.5 + 1.96 * 0.1)),
])
def test_abs_deviation_folds_the_interval(mean, target, interval):
    """The interval of |mean - target| is the normal interval of
    mean - target under abs: never below 0, and it holds the estimate."""
    est = McEstimate(100, mean, 0.1, (mean - 0.196, mean + 0.196))
    dev = est.abs_deviation(target)
    assert (dev.n, dev.stderr) == (100, 0.1)
    assert dev.mean == pytest.approx(abs(mean - target), abs=1e-15)
    assert dev.ci95 == pytest.approx(interval, abs=1e-15)
    assert 0.0 <= dev.ci95[0] <= dev.mean <= dev.ci95[1]


def test_report_pass_policy():
    est = McEstimate.from_bernoulli(40, 100)

    def passed(bound, bias=0.0):
        return bound_report("x", est, {"seed": 1}, statistic="s",
                            bound=bound, bias=bias).passed

    assert passed(0.41) is True  # 0.40 <= 0.41 + 3 se
    assert passed(0.40 - 4 * est.stderr) is False
    # The declared bias counts in the flag.
    short = 0.40 - 3 * est.stderr - 0.01
    assert not passed(short)
    assert passed(short, bias=0.02)
    assert not passed(short, bias=0.005)
    d = bound_report("x", est, {"seed": 1}, statistic="s", bound=0.41,
                     bias=0.01).to_dict()
    assert set(d) == {"id", "params", "estimate", "bound", "pass", "check",
                      "bias_terms", "seed", "runtime_ms"}
    assert (d["bound"], d["pass"], d["bias_terms"]) == (0.41, True,
                                                        {"declared": 0.01})
    assert d["check"] == {
        "statistic": "s",
        "rule": "estimate.mean <= bound + 3 stderr + declared bias"}


# ---------------------------------------------------------------------------
# KS and Wasserstein
# ---------------------------------------------------------------------------

def test_ks_calibration():
    fails = 0
    trials = 60
    for i in range(trials):
        x = np.random.default_rng(1000 + i).normal(size=2000)
        if not ks_statistic(x, gaussian_cdf(0.0, 1.0), level=0.01).passed:
            fails += 1
    assert fails / trials <= 0.05


def test_ks_power_against_shift():
    x = np.random.default_rng(7).normal(size=10_000) + 0.5
    assert not ks_statistic(x, gaussian_cdf(0.0, 1.0), level=0.01).passed


def test_ks_disjoint_support_statistic_one():
    x = np.full(500, 1e9)
    res = ks_statistic(x, gaussian_cdf(0.0, 1.0))
    assert res.statistic == pytest.approx(1.0, abs=1e-12)


def test_ks_needs_samples():
    with pytest.raises(InvalidInput):
        ks_statistic(np.zeros(10), gaussian_cdf(0.0, 1.0))


def test_wasserstein_examples():
    a = np.array([0.3, -1.2, 0.8])
    assert wasserstein1_1d(a, a) == 0.0
    assert wasserstein1_1d(a, a + 0.7) == pytest.approx(0.7, abs=1e-12)
    assert wasserstein1_1d(np.array([0.0, 1.0]), np.array([0.0, 0.0])) \
        == pytest.approx(0.5)
    with pytest.raises(InvalidInput):
        wasserstein1_1d(np.array([]), a)


@given(st.lists(st.floats(-5, 5), min_size=2, max_size=40),
       st.floats(-3, 3))
@settings(max_examples=60, deadline=None)
def test_wasserstein_translation_property(xs, c):
    a = np.asarray(xs)
    assert wasserstein1_1d(a, a + c) == pytest.approx(abs(c), abs=1e-9)


def test_wasserstein_resamples_unequal_counts():
    rng = np.random.default_rng(2)
    a = rng.normal(size=4000)
    b = rng.normal(size=5000)
    d = wasserstein1_1d(a, b)
    assert 0.0 <= d <= 0.1


def test_wrapped_gaussian_cdf_matches_fourier_oracle():
    mu, var = 0.3, 0.8
    thetas = np.linspace(-np.pi, np.pi, 41)
    ours = wrapped_gaussian_cdf(mu, var)(thetas)
    oracle = wrapped_gaussian_cdf_fourier(thetas, mu, var)
    assert np.max(np.abs(ours - oracle)) <= 1e-9
    assert ours[0] == pytest.approx(0.0, abs=1e-12)
    assert ours[-1] == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# chunked map determinism
# ---------------------------------------------------------------------------

def test_map_chunks_worker_independent():
    def fn(paths: range) -> dict:
        gen = np.random.default_rng(1234)
        return {"ids": np.asarray(list(paths), dtype=float)}

    a = map_path_chunks(5000, fn, 1, 512)["ids"]
    b = map_path_chunks(5000, fn, 4, 512)["ids"]
    assert np.array_equal(a, b)
    with pytest.raises(InvalidInput):
        map_path_chunks(0, fn, 1)


def _fail_on_second_chunk(paths: range) -> dict:
    if paths.start > 0:
        raise SingularConfiguration(f"non-finite position in chunk {paths}")
    return {"ids": np.asarray(paths)}


def test_map_chunks_pool_reraises_worker_error():
    with pytest.raises(SingularConfiguration,
                       match=r"chunk range\(4, 8\)"):
        map_path_chunks(8, _fail_on_second_chunk, 2, 4)
    assert multiprocessing.active_children() == []


def test_map_chunks_pool_runs_unpicklable_closure():
    offset = np.arange(3.0)
    fn = lambda paths: {"row": np.asarray(paths)[:, None] + offset}
    with pytest.raises((pickle.PicklingError, AttributeError)):
        pickle.dumps(fn)
    got = map_path_chunks(10, fn, 2, 4)["row"]
    assert np.array_equal(got, np.arange(10)[:, None] + offset)
    assert multiprocessing.active_children() == []


def test_map_chunks_more_workers_than_chunks():
    fn = lambda paths: {"ids": np.asarray(paths)}
    got = map_path_chunks(10, fn, 8, 4)["ids"]
    assert np.array_equal(got, np.arange(10))
    assert multiprocessing.active_children() == []


def test_map_chunks_serial_without_fork(monkeypatch):
    monkeypatch.setattr(multiprocessing, "get_all_start_methods",
                        lambda: ["spawn"])
    seen = []

    def fn(paths: range) -> dict:
        seen.append(paths)
        return {"ids": np.asarray(paths)}

    got = map_path_chunks(10, fn, 2, 4)["ids"]
    assert np.array_equal(got, np.arange(10))
    assert seen == [range(0, 4), range(4, 8), range(8, 10)]


def test_survival_report_deterministic_across_workers(euclid2):
    kernel = coupled_kernel(euclid2, Schedule(0.0, 1.0, 0.1),
                            np.array([-0.5, 0.0]), np.array([0.5, 0.0]), 5,
                            3000)
    r1 = estimate_coupling_survival(kernel, workers=1)
    r4 = estimate_coupling_survival(kernel, workers=4)
    assert r1.estimate.mean == r4.estimate.mean
    assert r1.estimate.stderr == r4.estimate.stderr


def test_estimator_kind_validation(euclid2):
    pair = (euclid2, Schedule(0.0, 1.0, 0.1), np.zeros(2), np.ones(2), 5)
    with pytest.raises(InvalidInput):
        estimate_coupling_survival(coupled_kernel(
            *pair, 1000, kind=CouplingKind.PARALLEL_TRANSPORT))
    with pytest.raises(InvalidInput):
        check_contraction(coupled_kernel(*pair, 100))


def test_gradient_report_is_the_same_for_f_and_one_minus_f(flow_sphere):
    """|E f(X1) - E f(X2)| does not change when f becomes 1 - f, and
    neither may its interval: the report gives the interval of |mean|,
    which contains it, not the signed mean's."""
    o = flow_sphere.origin()
    e1 = flow_sphere.frame(0.0, o)[0]

    def f(points):
        return (points[:, 0] <= 0.0).astype(float)

    kernel = coupled_kernel(flow_sphere, Schedule(0.0, 0.5, 0.05),
                            flow_sphere.exp(0.0, o, -0.25 * e1),
                            flow_sphere.exp(0.0, o, 0.25 * e1), 8, 600)
    reports = [check_gradient_estimate(kernel, h, 1.0)
               for h in (f, lambda points: 1.0 - f(points))]
    signed = [r.metadata["params"]["signed_mean"] for r in reports]
    assert signed[0] == -signed[1] != 0.0
    est = [r.estimate.to_dict() for r in reports]
    assert est[0] == est[1]
    assert est[0]["ci95"][0] <= est[0]["mean"] <= est[0]["ci95"][1]


def test_convergence_diagnostic_requires_decreasing():
    from gtwalk.stats import alpha_schedules
    with pytest.raises(InvalidInput):
        alpha_schedules(0.0, 1.0, [0.1, 0.2])


def test_convergence_independent_runs_agree(euclid1):
    """Two independent seeds at the same alpha differ within bootstrap noise."""
    from gtwalk import engine
    from gtwalk.stats import reference_quantiles

    cdf = gaussian_cdf(0.0, 1.0)
    sched = Schedule(0.0, 1.0, 0.1)
    w1 = []
    boot_sd = []
    gen = np.random.default_rng(3)
    for seed in (14, 15):
        out = engine.walk_chunk(euclid1, sched, np.zeros(1), seed,
                                range(6000))
        xs = out["end"][:, 0]
        ref = reference_quantiles(cdf, len(xs), -8.0, 8.0)
        w1.append(wasserstein1_1d(xs, ref))
        boots = [wasserstein1_1d(gen.choice(xs, size=len(xs)), ref)
                 for _ in range(24)]
        boot_sd.append(np.std(boots))
    assert abs(w1[0] - w1[1]) < 3.0 * float(np.hypot(boot_sd[0], boot_sd[1]))
