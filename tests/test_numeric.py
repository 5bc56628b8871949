import numpy as np
import pytest

from gtwalk.errors import UnsupportedOperation
from gtwalk.manifolds import RoundSphere, minimal_geodesic, parallel_transport
from gtwalk.numeric import MAX_STEP, MIN_STEPS, NumericChart
from gtwalk.walk import Schedule, walk_kernel
from oracles import reference_chart_geodesic, reference_chart_transport


def stereographic_metric(t, u):
    f = 4.0 / (1.0 + float(u @ u)) ** 2
    return f * np.eye(2)


def skew_metric(t, x):
    """Non-diagonal and time-dependent; positive definite everywhere."""
    c = 0.5 * np.sin(x[0] * x[1] + t)
    return np.array([[2.0 + np.sin(x[0] + t), c],
                     [c, 2.0 + 0.5 * np.cos(x[1]) + t]])


def chart_to_sphere(u):
    n2 = u @ u
    return np.array([2 * u[0], 2 * u[1], 1 - n2]) / (1 + n2)


def chart_jacobian(u):
    eps = 1e-7
    return np.stack([(chart_to_sphere(u + eps * e) - chart_to_sphere(u - eps * e))
                     / (2 * eps) for e in np.eye(2)], axis=1)


@pytest.fixture(scope="module")
def flat_chart():
    return NumericChart(2, lambda t, x: np.eye(2))


@pytest.fixture(scope="module")
def sphere_chart():
    return NumericChart(2, stereographic_metric)


def test_flat_chart_exp_is_translation(flat_chart):
    out = flat_chart.exp(0.0, np.array([1.0, 2.0]), np.array([0.5, -1.0]))
    assert np.allclose(out, [1.5, 1.0], atol=1e-12)


def test_sphere_chart_exp_matches_closed_form(sphere_chart):
    sphere = RoundSphere(2, 1.0)
    rng = np.random.default_rng(5)
    for _ in range(10):
        u = rng.normal(size=2) * 0.4
        vc = rng.normal(size=2)
        g = stereographic_metric(0.0, u)
        vc = vc / np.sqrt(vc @ g @ vc) * rng.uniform(0.1, 1.0)
        chart_end = sphere_chart.exp(0.0, u, vc)
        ambient_end = sphere.exp(0.0, chart_to_sphere(u),
                                 chart_jacobian(u) @ vc)
        assert np.linalg.norm(chart_to_sphere(chart_end) - ambient_end) <= 1e-4


def test_numeric_transport_preserves_norm(sphere_chart):
    rng = np.random.default_rng(6)
    for _ in range(10):
        u = rng.normal(size=2) * 0.4
        g0 = stereographic_metric(0.0, u)
        v = rng.normal(size=2)
        v = v / np.sqrt(v @ g0 @ v) * rng.uniform(0.2, 1.0)
        w = rng.normal(size=2)
        L = np.sqrt(v @ g0 @ v)
        out = sphere_chart.transport_along(0.0, u, v / L, L, w)
        end = sphere_chart.exp(0.0, u, v)
        g1 = stereographic_metric(0.0, end)
        n0, n1 = np.sqrt(w @ g0 @ w), np.sqrt(out @ g1 @ out)
        assert abs(n1 - n0) <= 1e-5 * n0


def test_numeric_geodesic_invariants(sphere_chart):
    g = sphere_chart.geodesic_from_exp(0.0, np.array([0.2, 0.1]),
                                       np.array([0.5, -0.4]))
    assert np.allclose(g.sample_coords(0.0), g.start.coords, atol=1e-4)
    assert np.allclose(g.sample_coords(g.length), g.end.coords, atol=1e-4)
    for u in np.linspace(0, g.length, 7):
        vel = g.velocity_coords(float(u))
        p = g.sample_coords(float(u))
        speed = float(np.sqrt(sphere_chart.inner(0.0, p, vel, vel)))
        assert speed == pytest.approx(1.0, abs=1e-4)
    # transported initial velocity equals the final tangent
    out = parallel_transport(sphere_chart, g, g.initial_velocity)
    assert np.allclose(out.components, g.velocity_coords(g.length), atol=1e-5)


def test_numeric_curvature_matches_round_sphere(sphere_chart):
    u = np.array([0.3, -0.2])
    v = np.array([0.5, 0.1])
    ric = float(sphere_chart.ricci(0.0, u, v))
    gvv = float(sphere_chart.inner(0.0, u, v, v))
    assert ric == pytest.approx((2 - 1) * gvv, rel=1e-6)


def test_numeric_unsupported_operations(sphere_chart):
    with pytest.raises(UnsupportedOperation):
        sphere_chart.distance(0.0, np.zeros(2), np.ones(2))
    with pytest.raises(UnsupportedOperation):
        minimal_geodesic(sphere_chart, 0.0, np.zeros(2), np.ones(2))
    with pytest.raises(UnsupportedOperation):
        sphere_chart.log(0.0, np.zeros(2), np.ones(2))


def test_numeric_metric_dt_finite_difference():
    chart = NumericChart(2, lambda t, x: np.exp(-t) * np.eye(2))
    v = np.array([1.0, 2.0])
    got = chart.metric_dt(0.5, np.zeros(2), v, v)
    assert got == pytest.approx(-np.exp(-0.5) * float(v @ v), rel=1e-6)


def test_numeric_walk_stays_consistent(flat_chart):
    """Walks on the trivial chart match the closed-form Euclidean walk."""
    from gtwalk.manifolds import Euclidean

    p_chart, p_exact = (
        walk_kernel(model, Schedule(0.0, 1.0, 0.2), np.zeros(2),
                    12).trace(0, {"skeleton"})["skeleton"]
        for model in (flat_chart, Euclidean(2)))
    assert np.allclose(p_chart, p_exact, atol=1e-4)


@pytest.mark.bits
def test_numeric_chart_broadcasts_like_pointwise_calls():
    """Batched calls equal the stacked pointwise calls bit for bit, with
    one transport length per row."""
    chart = NumericChart(2, stereographic_metric,
                         drift=lambda t, x: np.array([-x[1], x[0]]))
    rng = np.random.default_rng(5)
    x, u, v, w = (rng.normal(size=(3, 2)) * 0.5 for _ in range(4))
    lengths = np.array([0.0, 0.3, 0.7])
    t = 0.2

    def check(method, *args):
        batched = getattr(chart, method)(t, *args)
        rows = [getattr(chart, method)(t, *(a[r] for a in args))
                for r in range(3)]
        assert np.array_equal(batched, np.stack(rows)), method

    check("metric_dt", x, u, v)
    check("curvature", x, u, v, w)
    check("ricci", x, v)
    check("inner", x, u, v)
    check("exp", x, 0.3 * u)
    check("frame", x)
    check("drift", x)
    check("transport_along", x, u, lengths, v)
    batched = chart.transport_along(t, x, u, 0.4, v)
    assert np.array_equal(batched, np.stack(
        [chart.transport_along(t, x[r], u[r], 0.4, v[r]) for r in range(3)]))


def test_numeric_chart_frame_orthonormal(sphere_chart):
    u = np.array([0.4, 0.2])
    fr = sphere_chart.frame(0.0, u)
    g = stereographic_metric(0.0, u)
    gram = fr @ g @ fr.T
    assert np.allclose(gram, np.eye(2), atol=1e-12)


@pytest.mark.bits
@pytest.mark.parametrize("metric, speeds", [
    (stereographic_metric, (0.5, 1.6)),
    (skew_metric, (0.5, 1.6, 4.5)),
], ids=["sphere-chart", "skew-chart"])
def test_numeric_integrator_keeps_the_reference_bits(metric, speeds):
    """exp, transport_along, the geodesic_from_exp trace and
    transport_from_start equal the hand-written RK4 loops bit for bit, at
    chart speeds on both sides of MAX_STEP * MIN_STEPS (and, up to 4.5,
    of the trace's denser threshold), so both branches of the step count
    run."""
    chart = NumericChart(2, metric)
    assert min(speeds) < MAX_STEP * MIN_STEPS < max(speeds)
    rng = np.random.default_rng(13)
    for speed in speeds:
        for _ in range(3):
            t = float(rng.uniform(0.0, 1.0))
            x = rng.normal(size=2) * 0.4
            u = rng.normal(size=2)
            u = u / np.linalg.norm(u)
            v = speed * u
            w = rng.normal(size=2)

            want_xs, want_vs = reference_chart_geodesic(chart, t, x, v,
                                                        MIN_STEPS)
            assert np.array_equal(chart.exp(t, x, v), want_xs[-1])
            assert np.array_equal(chart.transport_along(t, x, u, speed, w),
                                  reference_chart_transport(chart, t, x,
                                                            speed * u, w))

            geo = chart.geodesic_from_exp(t, x, v)
            want_xs, want_vs = reference_chart_geodesic(chart, t, x, v,
                                                        4 * MIN_STEPS)
            assert np.array_equal(geo._xs, want_xs)
            assert np.array_equal(geo._vs, want_vs)
            s = float(rng.uniform(0.3, 1.0)) * geo.length
            assert np.array_equal(
                geo.transport_from_start(w, s),
                reference_chart_transport(chart, t, geo._xs[0],
                                          (s / geo.length) * geo._vs[0], w))
