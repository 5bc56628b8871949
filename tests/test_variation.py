import numpy as np
import pytest

from conftest import random_point, random_tangent
from oracles import finite_difference

from gtwalk.errors import (DegenerateGeodesic, InvalidInput,
                           SingularConfiguration, UnsupportedOperation)
from gtwalk.manifolds import (Euclidean, Geodesic, ScaledMetric,
                              minimal_geodesic)
from gtwalk.numeric import NumericChart
from gtwalk.rng import stream, unit_ball_samples
from gtwalk.variation import (SampledField, coupled_variation_terms,
                              dagger_field, dt_distance, index_form,
                              solve_green)


def _geodesic(model, t, x, v):
    y = model.exp(t, x, v)
    return minimal_geodesic(model, t, x, y)


# ---------------------------------------------------------------------------
# solve_green
# ---------------------------------------------------------------------------

def test_green_euclidean_linear(euclid2):
    g = _geodesic(euclid2, 0.0, np.zeros(2), np.array([2.5, 0.0]))
    sol = solve_green(euclid2, g, 64)
    assert sol.values[0] == 0.0 and sol.derivative[0] == 1.0
    assert np.max(np.abs(sol.values - sol.grid)) <= 1e-10


@pytest.mark.parametrize("length", [0.5, 1.5, 3.0])
def test_green_sphere_sine(sphere2, length):
    g = _geodesic(sphere2, 0.0, np.array([0.0, 0.0, 1.0]),
                  np.array([length, 0.0, 0.0]))
    sol = solve_green(sphere2, g, 96)
    assert np.max(np.abs(sol.values - np.sin(sol.grid))) <= 1e-6


@pytest.mark.parametrize("length", [0.5, 1.5, 3.0])
def test_green_hyperbolic_sinh(hyperbolic2, length):
    o = hyperbolic2.origin()
    g = _geodesic(hyperbolic2, 0.0, o, np.array([0.0, length, 0.0]))
    sol = solve_green(hyperbolic2, g, 96)
    assert np.max(np.abs(sol.values - np.sinh(sol.grid))) <= 1e-6


def test_green_flow_sphere_scaled_sine(flow_sphere):
    t = 0.6
    c = flow_sphere.scale(t)
    x = flow_sphere.origin()
    g = _geodesic(flow_sphere, t, x, flow_sphere.frame(t, x)[0] * 1.2)
    sol = solve_green(flow_sphere, g, 96)
    expected = np.sqrt(c) * np.sin(sol.grid / np.sqrt(c))
    assert np.max(np.abs(sol.values - expected)) <= 1e-6


def test_green_positive_and_errors(sphere2, euclid2):
    g = _geodesic(sphere2, 0.0, np.array([0.0, 0.0, 1.0]),
                  np.array([2.0, 0.0, 0.0]))
    sol = solve_green(sphere2, g, 64)
    assert np.all(sol.values[1:] > 0.0)
    with pytest.raises(UnsupportedOperation):
        solve_green(Euclidean(1), _geodesic(Euclidean(1), 0.0, np.zeros(1),
                                            np.ones(1)), 64)
    with pytest.raises(InvalidInput):
        solve_green(sphere2, g, 8)
    degenerate = Geodesic(euclid2, 0.0, np.zeros(2), np.zeros(2), 0.0,
                          np.array([1.0, 0.0]))
    with pytest.raises(DegenerateGeodesic):
        solve_green(euclid2, degenerate, 64)


# ---------------------------------------------------------------------------
# index_form
# ---------------------------------------------------------------------------

def test_index_form_parallel_field_euclidean(euclid2):
    g = _geodesic(euclid2, 0.0, np.zeros(2), np.array([2.0, 0.0]))
    grid = np.linspace(0, g.length, 64)
    vals = np.tile(np.array([0.0, 1.0]), (64, 1))
    assert index_form(euclid2, 0.0, g, SampledField(g, grid, vals)) \
        == pytest.approx(0.0, abs=1e-10)


def test_index_form_linear_field_euclidean(euclid2):
    d = 2.0
    g = _geodesic(euclid2, 0.0, np.zeros(2), np.array([d, 0.0]))
    grid = np.linspace(0, d, 64)
    vals = np.outer(grid / d, np.array([0.0, 1.0]))
    assert index_form(euclid2, 0.0, g, SampledField(g, grid, vals)) \
        == pytest.approx(1.0 / d, rel=1e-6)


def test_index_form_sphere_dagger_is_cotangent(sphere2):
    d = 1.0
    x = np.array([0.0, 0.0, 1.0])
    g = _geodesic(sphere2, 0.0, x, np.array([d, 0.0, 0.0]))
    sol = solve_green(sphere2, g, 256)
    fld = dagger_field(sol, sphere2, np.array([0.0, 1.0, 0.0]))
    got = index_form(sphere2, 0.0, g, fld)
    assert got == pytest.approx(1.0 / np.tan(d), abs=1e-4)


def test_index_form_on_numeric_chart_matches_euclidean(euclid2):
    """The flat numeric chart gives Euclidean space's index form for the
    same field and endpoints."""
    chart = NumericChart(2, lambda t, x: np.eye(2))
    x, v = np.array([0.2, -0.1]), np.array([1.5, 0.5])
    g_chart = chart.geodesic_from_exp(0.0, x, v)
    g_flat = _geodesic(euclid2, 0.0, x, v)
    grid = np.linspace(0.0, g_flat.length, 64)
    vals = np.stack([np.sin(grid), 0.5 * grid ** 2], axis=1)
    got = index_form(chart, 0.0, g_chart, SampledField(g_chart, grid, vals))
    want = index_form(euclid2, 0.0, g_flat, SampledField(g_flat, grid, vals))
    assert got == pytest.approx(want, rel=1e-9)


def test_index_form_grid_too_coarse(euclid2):
    g = _geodesic(euclid2, 0.0, np.zeros(2), np.array([1.0, 0.0]))
    with pytest.raises(InvalidInput):
        index_form(euclid2, 0.0, g, np.zeros((8, 2)))


def test_summed_dagger_identity_constant_curvature(sphere2, hyperbolic2):
    """Across an orthonormal set orthogonal to the velocity, the dagger
    index forms add up to (m-1) G'(d)/G(d)."""
    for model, v0 in ((sphere2, np.array([1.3, 0.0, 0.0])),
                      (hyperbolic2, np.array([0.0, 1.3, 0.0]))):
        x = model.origin()
        g = _geodesic(model, 0.0, x, v0)
        sol = solve_green(model, g, 256)
        u_end = g.velocity_coords(g.length)
        fr = model.frame(0.0, g.end.coords)
        total = 0.0
        count = 0
        for vec in fr:
            w = vec - float(model.inner(0.0, g.end.coords, vec, u_end)) * u_end
            n = float(model.norm(0.0, g.end.coords, w))
            if n < 1e-8:
                continue
            total += index_form(model, 0.0, g,
                                dagger_field(sol, model, w / n))
            count += 1
        assert count == model.dim - 1
        expected = (model.dim - 1) * sol.end_derivative / sol.end_value
        assert total == pytest.approx(expected, abs=1e-3)


# ---------------------------------------------------------------------------
# dagger_field
# ---------------------------------------------------------------------------

def test_dagger_endpoint_and_zero(sphere2):
    g = _geodesic(sphere2, 0.0, np.array([0.0, 0.0, 1.0]),
                  np.array([1.2, 0.0, 0.0]))
    sol = solve_green(sphere2, g, 64)
    v = np.array([0.0, 1.0, 0.0])
    fld = dagger_field(sol, sphere2, v)
    assert np.allclose(fld.values[-1], v, atol=1e-9)
    assert np.allclose(fld.values[0], 0.0, atol=1e-12)


def test_dagger_linear_growth_euclidean(euclid2):
    g = _geodesic(euclid2, 0.0, np.zeros(2), np.array([2.0, 0.0]))
    sol = solve_green(euclid2, g, 64)
    fld = dagger_field(sol, euclid2, np.array([0.0, 1.0]))
    norms = np.linalg.norm(fld.values, axis=1)
    assert np.allclose(norms, sol.grid / g.length, atol=1e-10)


def test_dagger_singular_configuration(sphere2):
    x = np.array([0.0, 0.0, 1.0])
    u = np.array([1.0, 0.0, 0.0])
    past_conjugate = Geodesic(sphere2, 0.0, x, sphere2.exp(0.0, x, 3.5 * u),
                              3.5, u)
    sol = solve_green(sphere2, past_conjugate, 64)
    assert sol.end_value < 0.0
    with pytest.raises(SingularConfiguration):
        dagger_field(sol, sphere2, np.array([0.0, 1.0, 0.0]))


# ---------------------------------------------------------------------------
# dt_distance
# ---------------------------------------------------------------------------

def test_dt_distance_static_zero(sphere2):
    g = _geodesic(sphere2, 0.0, np.array([0.0, 0.0, 1.0]),
                  np.array([1.0, 0.0, 0.0]))
    assert dt_distance(sphere2, 0.0, g) == pytest.approx(0.0, abs=1e-12)


def test_dt_distance_scaled_closed_form():
    k = 2.0
    model = ScaledMetric(Euclidean(2), k, (0.0, 1.0))
    t = 0.4
    g = _geodesic(model, t, np.zeros(2), np.array([1.5, 0.0]))
    assert dt_distance(model, t, g) \
        == pytest.approx(-(k / 2.0) * g.length, abs=1e-8)


def test_dt_distance_numeric_chart_closed_form():
    """g(t) = e^{-t} I shrinks every unit-speed geodesic at rate 1/2."""
    chart = NumericChart(2, lambda t, x: np.exp(-t) * np.eye(2))
    t = 0.4
    g = chart.geodesic_from_exp(t, np.array([0.3, 0.1]), np.array([1.2, -0.4]))
    assert dt_distance(chart, t, g) == pytest.approx(-0.5 * g.length, abs=1e-8)


def test_dt_distance_flow_sphere_closed_form(flow_sphere):
    t = 0.3
    c = flow_sphere.scale(t)
    x = flow_sphere.origin()
    g = _geodesic(flow_sphere, t, x, flow_sphere.frame(t, x)[0] * 0.9)
    m = flow_sphere.dim
    assert dt_distance(flow_sphere, t, g) \
        == pytest.approx((m - 1) / (2.0 * c) * g.length, abs=1e-6)


@pytest.mark.parametrize("name", ["scaled_euclid2", "flow_sphere"])
def test_dt_distance_matches_finite_difference(request, name, rng):
    model = request.getfixturevalue(name)
    t = 0.5
    x = random_point(model, rng)
    y = model.exp(t, x, random_tangent(model, t, x, rng, scale=0.5))
    g = minimal_geodesic(model, t, x, y)
    fd = finite_difference(lambda s: float(model.distance(s, x, y)), t)
    assert dt_distance(model, t, g) == pytest.approx(fd, abs=1e-5)


# ---------------------------------------------------------------------------
# coupled_variation_terms
# ---------------------------------------------------------------------------

def test_variation_terms_perpendicular_noise_flat(euclid2):
    g = _geodesic(euclid2, 0.0, np.zeros(2), np.array([1.0, 0.0]))
    vt = coupled_variation_terms(euclid2, 0.0, g, np.array([0.0, 1.0]))
    assert vt.lambda_star == pytest.approx(0.0, abs=1e-12)
    assert vt.Lambda_star == pytest.approx(0.0, abs=1e-10)


def test_variation_terms_tangential_noise(euclid2):
    g = _geodesic(euclid2, 0.0, np.zeros(2), np.array([1.0, 0.0]))
    vt = coupled_variation_terms(euclid2, 0.0, g,
                                 g.initial_velocity.components)
    assert vt.lambda_star == pytest.approx(2.0, abs=1e-12)
    assert vt.components["index_term"] == pytest.approx(0.0, abs=1e-12)


def test_variation_terms_breakdown_sums_exactly(flow_sphere, rng):
    t = 0.4
    x = random_point(flow_sphere, rng)
    y = flow_sphere.exp(t, x, random_tangent(flow_sphere, t, x, rng, 0.6))
    g = minimal_geodesic(flow_sphere, t, x, y)
    xi = random_tangent(flow_sphere, t, x, rng)
    vt = coupled_variation_terms(flow_sphere, t, g, xi)
    assert vt.Lambda_star == sum(vt.components.values())


def test_variation_terms_scaled_mean_matches_drift_bound():
    """Uniform-ball noise on the flat scaled metric: every sample's second
    variation equals -(k/2) d, so the Monte Carlo mean does too."""
    k = 1.0
    model = ScaledMetric(Euclidean(2), k, (0.0, 1.0))
    t = 0.3
    g = _geodesic(model, t, np.zeros(2), np.array([1.0, 0.0]))
    gen = stream(99, 7, 0)
    xis = unit_ball_samples(gen, 200, 2)
    fr = model.frame(t, np.zeros(2))
    samples = []
    for xi in xis:
        lift = np.sqrt(4.0) * (xi[0] * fr[0] + xi[1] * fr[1])
        vt = coupled_variation_terms(model, t, g, lift)
        samples.append(vt.Lambda_star)
    samples = np.asarray(samples)
    target = -(k / 2.0) * g.length
    stderr = samples.std(ddof=1) / np.sqrt(len(samples)) + 1e-12
    assert abs(samples.mean() - target) <= 3.0 * stderr + 1e-9
    # flat scaled case: equality holds samplewise, not just on average
    assert np.max(np.abs(samples - target)) <= 1e-8


def test_variation_terms_with_drift_telescopes():
    model = Euclidean(2, drift=lambda t, x: np.array([x[1], -x[0]]))
    g = _geodesic(model, 0.0, np.array([0.0, 1.0]), np.array([2.0, 0.0]))
    vt = coupled_variation_terms(model, 0.0, g, np.array([0.3, 0.4]))
    u0 = g.initial_velocity.components
    uL = g.velocity_coords(g.length)
    expected = float(model.drift(0.0, g.end.coords) @ uL
                     - model.drift(0.0, g.start.coords) @ u0)
    assert vt.components["drift_term"] == pytest.approx(expected, rel=1e-12)


def test_variation_terms_zero_length_raises(euclid2):
    degenerate = Geodesic(euclid2, 0.0, np.zeros(2), np.zeros(2), 0.0,
                          np.array([1.0, 0.0]))
    with pytest.raises(DegenerateGeodesic):
        coupled_variation_terms(euclid2, 0.0, degenerate, np.ones(2))
