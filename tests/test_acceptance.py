"""End-to-end acceptance suite.

Each test exercises one verification at its stated tolerance and prints a
single pass/fail line (run pytest -s to see them). Oracles are independent:
Gaussian masses come from quadrature, the wrapped reference from its
Fourier series, and closed-form solutions are checked before use.
"""

import json
import math

import numpy as np
import pytest

from conftest import pair_trace, random_point, random_tangent, strip_runtime
from oracles import gaussian_mass, normal_cdf, wrapped_gaussian_cdf_fourier

from gtwalk import engine
from gtwalk.comparison import (RadialComparisonSpec, beta, builtin_b,
                               feller_explosion_test)
from gtwalk.coupling import CouplingKind, coupled_kernel, dominating_process
from gtwalk.manifolds import (Euclidean, Hyperbolic, RoundSphere,
                              ScaledMetric, curvature_condition_residual,
                              minimal_geodesic)
from gtwalk.runner import run_document
from gtwalk.stats import (check_contraction, check_gradient_estimate,
                          estimate_coupling_survival, gaussian_cdf,
                          ks_statistic, reference_quantiles, wasserstein1_1d,
                          wrapped_gaussian_cdf)
from gtwalk.variation import dagger_field, dt_distance, index_form, solve_green
from gtwalk.walk import Schedule


def _announce(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"criterion {num:2d} [{'PASS' if ok else 'FAIL'}] {name}: {detail}")


def _pair_on(model, t1, d0):
    o = model.origin()
    e1 = model.frame(t1, o)[0]
    return (model.exp(t1, o, -0.5 * d0 * e1), model.exp(t1, o, +0.5 * d0 * e1))


# ---------------------------------------------------------------------------
# 1. Flat mirror-coupling equality
# ---------------------------------------------------------------------------

def test_criterion_1_flat_mirror_equality():
    model = Euclidean(2)
    x1, x2 = np.array([-0.5, 0.0]), np.array([0.5, 0.0])
    sched = Schedule(0.0, 1.0, 0.02)
    kernel = coupled_kernel(model, sched, x1, x2, 101, 20_000,
                            delta_couple=0.04)
    report = estimate_coupling_survival(kernel, workers=2, bias=0.02,
                                        experiment_id="flat-mirror")
    target = gaussian_mass(0.5)
    assert target == pytest.approx(0.38292, abs=5e-6)
    allowance = 3.0 * report.estimate.stderr + 0.02
    deviation = abs(report.estimate.mean - target)
    ok = deviation <= allowance and report.passed
    _announce(1, "flat mirror-coupling equality", ok,
              f"estimate={report.estimate.mean:.5f} target={target:.5f} "
              f"deviation={deviation:.5f} allowance={allowance:.5f}")
    assert ok

    # declared-threshold sensitivity: the estimate moves only within noise
    for delta in (0.02, 0.08):
        rep = estimate_coupling_survival(coupled_kernel(
            model, sched, x1, x2, 101, 4000, delta_couple=delta))
        assert abs(rep.estimate.mean - target) \
            <= 3.0 * rep.estimate.stderr + 0.04


# ---------------------------------------------------------------------------
# 2. Curved bound on the static sphere
# ---------------------------------------------------------------------------

def test_criterion_2_static_sphere_bound():
    model = RoundSphere(2, 1.0, time_window=(0.0, 0.5))
    x1, x2 = _pair_on(model, 0.0, 1.0)
    kernel = coupled_kernel(model, Schedule(0.0, 0.5, 0.02), x1, x2, 202,
                            10_000, delta_couple=0.04)
    report = estimate_coupling_survival(kernel, workers=2,
                                        experiment_id="sphere-bound")
    bound = gaussian_mass(1.0 / math.sqrt(2.0))
    assert bound == pytest.approx(0.5205, abs=5e-5)
    ok = report.estimate.mean <= bound + 3.0 * report.estimate.stderr
    _announce(2, "positive-curvature coupling bound", ok,
              f"estimate={report.estimate.mean:.5f} bound={bound:.5f}")
    assert ok and report.passed


# ---------------------------------------------------------------------------
# 3. Backward-flow sphere: equality case and bound
# ---------------------------------------------------------------------------

def test_criterion_3_flow_sphere():
    model = RoundSphere(2, 1.0, flow=True, time_window=(0.0, 0.5))
    gen = np.random.default_rng(31)
    worst = 0.0
    for _ in range(1000):
        t = float(gen.uniform(0.0, 0.5))
        x = random_point(model, gen)
        v = random_tangent(model, t, x, gen)
        worst = max(worst, abs(curvature_condition_residual(model, t, x, v,
                                                            0.0)))
    residual_ok = worst <= 1e-8

    x1, x2 = _pair_on(model, 0.0, 1.0)
    kernel = coupled_kernel(model, Schedule(0.0, 0.5, 0.02), x1, x2, 303,
                            10_000, delta_couple=0.04)
    report = estimate_coupling_survival(kernel, workers=2,
                                        experiment_id="flow-sphere-bound")
    bound = gaussian_mass(1.0 / math.sqrt(2.0))
    bound_ok = report.estimate.mean <= bound + 3.0 * report.estimate.stderr
    ok = residual_ok and bound_ok
    _announce(3, "backward-flow sphere equality case", ok,
              f"max residual={worst:.2e} estimate={report.estimate.mean:.5f} "
              f"bound={bound:.5f}")
    assert ok


# ---------------------------------------------------------------------------
# 4. Parallel-transport contraction
# ---------------------------------------------------------------------------

def test_criterion_4_parallel_transport_contraction():
    scaled = ScaledMetric(Euclidean(2), 1.0, (0.0, 1.0))
    x1, x2 = np.array([-0.5, 0.0]), np.array([0.5, 0.0])
    kernel = coupled_kernel(scaled, Schedule(0.0, 1.0, 0.02), x1, x2, 404,
                            200, kind=CouplingKind.PARALLEL_TRANSPORT, k=1.0,
                            delta_couple=0.0)
    exact = check_contraction(kernel, experiment_id="scaled")
    exact_max = exact.metadata["params"]["max_rise"]
    exact_ok = exact_max <= 1e-10

    flow = RoundSphere(2, 1.0, flow=True, time_window=(0.0, 0.5))
    y1, y2 = _pair_on(flow, 0.0, 0.5)
    rough = {}
    for alpha in (0.05, 0.02):
        kernel = coupled_kernel(flow, Schedule(0.0, 0.5, alpha), y1, y2, 405,
                                400, kind=CouplingKind.PARALLEL_TRANSPORT,
                                k=0.0, delta_couple=0.0)
        rep = check_contraction(kernel, coefficient=5.0,
                                experiment_id=f"flow-{alpha}")
        rough[alpha] = (rep.metadata["params"]["max_rise"], rep.passed)
    flow_ok = all(passed for _, passed in rough.values())
    ok = exact_ok and flow_ok
    _announce(4, "parallel-transport contraction", ok,
              f"scaled max={exact_max:.2e} "
              + " ".join(f"flow a={a}: {v[0]:.4f}<=5a={5*a}"
                         for a, v in rough.items()))
    assert ok


# ---------------------------------------------------------------------------
# 5. Gradient estimate through the coupling
# ---------------------------------------------------------------------------

def test_criterion_5_gradient_estimate():
    model = Euclidean(1)
    kernel = coupled_kernel(model, Schedule(0.0, 1.0, 0.01), np.array([0.0]),
                            np.array([0.2]), 102, 20_000, delta_couple=0.01)
    offset = -0.5
    f = lambda pts: (pts[:, 0] <= offset).astype(float)
    report = check_gradient_estimate(kernel, f, 1.0, workers=2,
                                     experiment_id="gradient")
    exact = normal_cdf(offset - 0.0) - normal_cdf(offset - 0.2)
    bound = 0.2 / math.sqrt(2.0 * math.pi)
    assert bound == pytest.approx(0.0798, abs=5e-5)
    est = report.estimate.mean
    ok = (est < bound and exact < bound
          and abs(est - exact) <= 3.0 * report.estimate.stderr)
    _announce(5, "semigroup gradient estimate", ok,
              f"estimate={est:.5f} exact={exact:.5f} bound={bound:.5f} "
              f"3se={3 * report.estimate.stderr:.5f}")
    assert ok and report.passed


# ---------------------------------------------------------------------------
# 6. Convergence in law
# ---------------------------------------------------------------------------

def test_criterion_6_convergence_in_law():
    euclid = Euclidean(1)
    sched = Schedule(0.0, 1.0, 0.02)
    ends = []
    for lo in range(0, 10_000, 2048):
        out = engine.walk_chunk(euclid, sched, np.zeros(1), 606,
                                range(lo, min(lo + 2048, 10_000)))
        ends.append(out["end"][:, 0])
    ends = np.concatenate(ends)
    ks = ks_statistic(ends, gaussian_cdf(0.0, 1.0), level=0.01)

    circle = RoundSphere(1, 1.0)
    cdf = wrapped_gaussian_cdf(0.0, 1.0)
    # reference agrees with the independent Fourier oracle
    grid = np.linspace(-np.pi, np.pi, 17)
    assert np.max(np.abs(cdf(grid)
                         - wrapped_gaussian_cdf_fourier(grid, 0.0, 1.0))) \
        <= 1e-9
    w1 = []
    boot_sd = []
    wrapped_ks = None
    gen = np.random.default_rng(77)
    for alpha in (0.2, 0.1, 0.05):
        chunks = []
        for lo in range(0, 20_000, 8192):
            out = engine.walk_chunk(circle, Schedule(0.0, 1.0, alpha),
                                    np.array([1.0, 0.0]), 607,
                                    range(lo, min(lo + 8192, 20_000)))
            chunks.append(out["end"])
        ang = np.arctan2(np.concatenate(chunks)[:, 1],
                         np.concatenate(chunks)[:, 0])
        ref = reference_quantiles(cdf, len(ang), -np.pi, np.pi)
        w1.append(wasserstein1_1d(ang, ref))
        boots = [wasserstein1_1d(gen.choice(ang, size=len(ang)), ref)
                 for _ in range(24)]
        boot_sd.append(float(np.std(boots)))
        if alpha == 0.05:
            wrapped_ks = ks_statistic(ang, cdf, level=0.01)
    # non-increasing within bootstrap noise, step by step and end to end,
    # and the finest-alpha sample passes KS against the wrapped reference
    step_noise = [3.0 * math.hypot(boot_sd[i], boot_sd[i + 1])
                  for i in range(2)]
    trend_ok = all(w1[i + 1] <= w1[i] + step_noise[i] for i in range(2)) \
        and w1[-1] <= w1[0] + 3.0 * math.hypot(boot_sd[0], boot_sd[-1])
    ok = ks.passed and trend_ok and wrapped_ks.passed
    _announce(6, "convergence in law", ok,
              f"KS={ks.statistic:.5f} (thr {ks.threshold:.5f}) "
              f"W1={['%.5f' % v for v in w1]} "
              f"wrappedKS={wrapped_ks.statistic:.5f}")
    assert ok


# ---------------------------------------------------------------------------
# 7. Ornstein-Uhlenbeck meeting identity
# ---------------------------------------------------------------------------

def test_criterion_7_ou_identity():
    h = 1e-4
    details = []
    ok = True
    for k in (0.0, 1.0):
        _, [report] = run_document({
            "kind": "ou-survival", "t1": 0.0, "t2": 1.0, "a": 1.0, "k": k,
            "ou_h": h, "n_paths": 10_000, "seed": 707})
        params = report.metadata["params"]
        target = gaussian_mass(1.0 / (2.0 * math.sqrt(beta(1.0, k))))
        assert params["analytic"] == pytest.approx(target, abs=1e-12)
        allowance = 3.0 * report.estimate.stderr + 2.0 * math.sqrt(h)
        dev = abs(params["estimate"] - target)
        ok &= dev <= allowance
        details.append(f"k={k}: est={params['estimate']:.4f} "
                       f"target={target:.4f} dev={dev:.4f}<= {allowance:.4f}")
    _announce(7, "OU survival identity", ok, "; ".join(details))
    assert ok


# ---------------------------------------------------------------------------
# 8. Variation machinery
# ---------------------------------------------------------------------------

def test_criterion_8_variation_machinery():
    euclid = Euclidean(2)
    sphere = RoundSphere(2, 1.0)
    hyper = Hyperbolic(2)
    checks = []

    for model, v0, exact in (
            (euclid, np.array([2.5, 0.0]), lambda u: u),
            (sphere, np.array([2.5, 0.0, 0.0]),
             np.sin),
            (hyper, np.array([0.0, 2.5, 0.0]), np.sinh)):
        x = model.origin()
        g = minimal_geodesic(model, 0.0, x, model.exp(0.0, x, v0))
        sol = solve_green(model, g, 128)
        checks.append(np.max(np.abs(sol.values - exact(sol.grid))) <= 1e-6)

    # summed dagger index forms against (m-1) G'(d)/G(d)
    g = minimal_geodesic(sphere, 0.0, sphere.origin(),
                         sphere.exp(0.0, sphere.origin(),
                                    np.array([1.0, 0.0, 0.0])))
    sol = solve_green(sphere, g, 256)
    w = np.array([0.0, 1.0, 0.0])
    total = index_form(sphere, 0.0, g, dagger_field(sol, sphere, w))
    identity_dev = abs(total - sol.end_derivative / sol.end_value)
    checks.append(identity_dev <= 1e-3)

    # dt_distance: finite differences and both closed forms
    scaled = ScaledMetric(Euclidean(2), 2.0, (0.0, 1.0))
    gs = minimal_geodesic(scaled, 0.5, np.zeros(2), np.array([1.5, 0.0]))
    fd = (float(scaled.distance(0.5 + 1e-4, np.zeros(2), np.array([1.5, 0.0])))
          - float(scaled.distance(0.5 - 1e-4, np.zeros(2),
                                  np.array([1.5, 0.0])))) / 2e-4
    got = dt_distance(scaled, 0.5, gs)
    checks.append(abs(got - fd) <= 1e-5)
    checks.append(abs(got - (-(2.0 / 2.0) * gs.length)) <= 1e-8)

    flow = RoundSphere(2, 1.0, flow=True, time_window=(0.0, 1.0))
    t = 0.3
    o = flow.origin()
    gf = minimal_geodesic(flow, t, o,
                          flow.exp(t, o, flow.frame(t, o)[0] * 0.9))
    c = flow.scale(t)
    got_f = dt_distance(flow, t, gf)
    checks.append(abs(got_f - gf.length / (2.0 * c)) <= 1e-6)

    ok = all(checks)
    _announce(8, "variation machinery", ok,
              f"green/dagger/dt checks={[bool(c) for c in checks]} "
              f"dagger_dev={identity_dev:.2e}")
    assert ok


# ---------------------------------------------------------------------------
# 9. Explosion test
# ---------------------------------------------------------------------------

def test_criterion_9_feller_test():
    zero = feller_explosion_test(builtin_b({"name": "zero"}), 1.0, 20.0)
    linear = feller_explosion_test(builtin_b({"name": "linear"}), 1.0, 20.0)
    zero2 = feller_explosion_test(builtin_b({"name": "zero"}), 1.0, 40.0)
    linear2 = feller_explosion_test(builtin_b({"name": "linear"}), 1.0, 40.0)
    ok = (zero.survives and linear.explodes
          and zero2.verdict == zero.verdict
          and linear2.verdict == linear.verdict)
    _announce(9, "explosion integral test", ok,
              f"zero={zero.verdict}/{zero2.verdict} "
              f"linear={linear.verdict}/{linear2.verdict}")
    assert ok


# ---------------------------------------------------------------------------
# 10. Domination diagnostics
# ---------------------------------------------------------------------------

def test_criterion_10_domination():
    # (a) the recorded lambda* reproduces the flat recursion exactly
    euclid = Euclidean(2)
    kernel = coupled_kernel(euclid, Schedule(0.0, 1.0, 0.02),
                            np.array([-0.5, 0.0]), np.array([0.5, 0.0]), 11,
                            delta_couple=0.04)
    sched = kernel.schedule
    worst = 0.0
    for idx in range(8):
        path = pair_trace(kernel, idx)
        U = dominating_process(sched, path["distance"], path["lambda_star"],
                               0.0)
        stop = len(sched.times) if math.isinf(path["coupling_time"]) \
            else int(np.searchsorted(sched.times, path["coupling_time"]))
        rec = path["distance"][0]
        for n in range(stop - 1):
            rec = abs(rec + sched.alpha * path["lambda_star"][n])
            worst = max(worst, abs(rec - path["distance"][n + 1]))
        # and the distance never exceeds the dominating path before folding
        worst_dom = np.max(path["distance"][:stop] - U[:stop])
        worst = max(worst, worst_dom)
    recursion_ok = worst <= 1e-10

    # (b) pathwise domination on the flow sphere, margin 0.05: a path
    # violates if, before coupling, its distance ever exceeds U + margin
    flow = RoundSphere(2, 1.0, flow=True, time_window=(0.0, 0.5))
    x1, x2 = _pair_on(flow, 0.0, 1.0)
    sched = Schedule(0.0, 0.5, 0.02)
    viol = []
    for lo in range(0, 4000, 1000):
        out = engine.coupled_chunk(flow, sched, x1, x2, 1010,
                                   range(lo, lo + 1000), delta_couple=0.04,
                                   k=0.0, records={"distance", "lambda_star",
                                                   "couple_step"})
        U = dominating_process(sched, out["distance"], out["lambda_star"],
                               0.0)
        coupled = engine.coupled_flags(out["couple_step"], sched.n_steps)
        over = ~coupled & (out["distance"] > U + 0.05)
        viol.append(over.any(axis=1))
    chain_fraction = float(np.mean(np.concatenate(viol)))
    chain_ok = chain_fraction < 0.05

    # (c) radial domination against the one-dimensional comparison path
    spec = RadialComparisonSpec(builtin_b({"name": "zero"}), c0=1.0, r0=0.5)
    start = flow.exp(0.0, flow.origin(),
                     flow.frame(0.0, flow.origin())[0] * 0.3)
    rho0 = float(flow.distance(0.0, flow.origin(), start)) + 3.0 * spec.r0
    radial = {"spec": spec, "rho0": rho0, "margin": 0.1}
    viol = []
    for lo in range(0, 4000, 2048):
        out = engine.walk_chunk(flow, sched, start, 1011,
                                range(lo, min(lo + 2048, 4000)),
                                origin=flow.origin(), exit_radius=8.0,
                                radial=radial)
        viol.append(out["radial_violation"])
    radial_fraction = float(np.mean(np.concatenate(viol)))
    radial_ok = radial_fraction < 0.05

    ok = recursion_ok and chain_ok and radial_ok
    _announce(10, "domination diagnostics", ok,
              f"recursion worst={worst:.2e} chain viol={chain_fraction:.4f} "
              f"radial viol={radial_fraction:.4f}")
    assert ok


# ---------------------------------------------------------------------------
# 11. Determinism across worker counts
# ---------------------------------------------------------------------------

def test_criterion_11_determinism(tmp_path):
    docs = [
        {"kind": "verify-coupling-bound",
         "manifold": {"kind": "euclidean", "dim": 2}, "alpha": 0.05,
         "t1": 0.0, "t2": 1.0, "seed": 9, "n_paths": 3000, "d0": 1.0,
         "bias": 0.05},
        {"kind": "radial-domination",
         "manifold": {"kind": "sphere", "dim": 2, "flow": True},
         "alpha": 0.05, "t1": 0.0, "t2": 0.5, "seed": 9, "n_paths": 1000,
         "b": {"name": "zero"}, "margin": 0.1},
        {"kind": "ou-survival", "t1": 0.0, "t2": 1.0, "seed": 9, "a": 1.0,
         "k": 0.0, "ou_h": 1e-3, "n_paths": 2000},
    ]
    ok = True
    for i, doc in enumerate(docs):
        texts = []
        for workers in (1, 4):
            out = tmp_path / f"d{i}w{workers}"
            run_document(doc, workers=workers, out_dir=out)
            name = doc["kind"] + ".json"
            data = strip_runtime(json.loads((out / name).read_text()))
            texts.append(json.dumps(data, sort_keys=True))
        ok &= texts[0] == texts[1]
    _announce(11, "worker-count determinism", ok,
              f"{len(docs)} experiment kinds byte-identical modulo runtime")
    assert ok
