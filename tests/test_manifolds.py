import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import random_point, random_tangent, same_bits
from oracles import (hyperboloid_frame_gram_schmidt,
                     sphere_frame_gram_schmidt, sphere_geodesic_rk4,
                     sphere_transport_ode)

from gtwalk.errors import (DegenerateGeodesic, InvalidInput,
                           UnsupportedOperation)
from gtwalk.manifolds import (POINT_TOL, Euclidean, Hyperbolic, Point,
                              RoundSphere, ScaledMetric, TangentVector, _dot,
                              _lead, _trail, curvature_condition_residual,
                              distance, exp, make_model, minimal_geodesic,
                              parallel_transport)
from gtwalk.numeric import NumericChart
from gtwalk.variation import (coupled_variation_terms, dagger_field,
                              solve_green)

ALL_MODEL_NAMES = ["euclid2", "sphere2", "flow_sphere", "hyperbolic2",
                   "scaled_euclid2"]


def all_models(request):
    return [request.getfixturevalue(name) for name in ALL_MODEL_NAMES]


# ---------------------------------------------------------------------------
# exp
# ---------------------------------------------------------------------------

def test_exp_euclidean_is_translation(euclid2):
    p = Point(np.array([1.0, 2.0]), euclid2.model_id)
    v = TangentVector(p, np.array([0.5, -1.0]))
    out = exp(euclid2, 0.3, p, v)
    assert np.allclose(out.coords, [1.5, 1.0], atol=0)


@pytest.mark.parametrize("name", ALL_MODEL_NAMES)
def test_exp_zero_vector_is_identity(request, name, rng):
    model = request.getfixturevalue(name)
    x = random_point(model, rng)
    out = model.exp(model.time_window[0], x, np.zeros(model.ambient_dim))
    assert np.array_equal(out, x)


def test_exp_sphere_quarter_circle(sphere2):
    x = np.array([0.0, 0.0, 1.0])
    v = np.array([np.pi / 2, 0.0, 0.0])
    out = sphere2.exp(0.0, x, v)
    assert np.allclose(out, [1.0, 0.0, 0.0], atol=1e-12)
    # cross-check against integrating the ambient geodesic ODE
    oracle = sphere_geodesic_rk4(x, v, 1.0)
    assert np.allclose(out, oracle, atol=1e-9)


def test_exp_sphere_matches_ode_oracle(sphere2, rng):
    for _ in range(10):
        x = random_point(sphere2, rng)
        v = random_tangent(sphere2, 0.0, x, rng, scale=0.7)
        out = sphere2.exp(0.0, x, v)
        oracle = sphere_geodesic_rk4(x, v, 1.0)
        assert np.allclose(out, oracle, atol=1e-8)


def test_exp_rejects_non_finite(euclid2):
    p = Point(np.zeros(2), euclid2.model_id)
    with pytest.raises(InvalidInput):
        exp(euclid2, 0.0, p, np.array([np.nan, 0.0]))


def test_exp_rejects_mismatched_base(euclid2):
    p = Point(np.zeros(2), euclid2.model_id)
    q = Point(np.ones(2), euclid2.model_id)
    v = TangentVector(q, np.ones(2))
    with pytest.raises(InvalidInput):
        exp(euclid2, 0.0, p, v)


# ---------------------------------------------------------------------------
# minimal_geodesic
# ---------------------------------------------------------------------------

def test_minimal_geodesic_euclidean_345(euclid2):
    g = minimal_geodesic(euclid2, 0.0, np.zeros(2), np.array([3.0, 4.0]))
    assert g.length == pytest.approx(5.0, abs=1e-12)
    assert np.allclose(g.initial_velocity.components, [0.6, 0.8], atol=1e-12)


def test_minimal_geodesic_sphere_quarter(sphere2):
    g = minimal_geodesic(sphere2, 0.0, np.array([0.0, 0.0, 1.0]),
                         np.array([1.0, 0.0, 0.0]))
    assert g.length == pytest.approx(np.pi / 2, abs=1e-12)
    # shooting cross-check: exp of length * initial velocity hits the target
    shot = sphere_geodesic_rk4(np.array([0.0, 0.0, 1.0]),
                               g.length * g.initial_velocity.components, 1.0)
    assert np.allclose(shot, [1.0, 0.0, 0.0], atol=1e-9)


def test_minimal_geodesic_antipodal_tiebreak(sphere2):
    g = minimal_geodesic(sphere2, 0.0, np.array([0.0, 0.0, 1.0]),
                         np.array([0.0, 0.0, -1.0]))
    assert g.length == pytest.approx(np.pi, abs=1e-12)
    assert np.allclose(g.initial_velocity.components, [1.0, 0.0, 0.0],
                       atol=1e-12)


def test_minimal_geodesic_coincident_raises(sphere2):
    x = np.array([0.0, 0.0, 1.0])
    with pytest.raises(DegenerateGeodesic):
        minimal_geodesic(sphere2, 0.0, x, x)


@pytest.mark.parametrize("name", ALL_MODEL_NAMES)
def test_geodesic_symmetry(request, name, rng):
    """The reversed segment traces the same points: g_yx(u) = g_xy(L-u)."""
    model = request.getfixturevalue(name)
    t = model.time_window[0] + 0.2
    for _ in range(5):
        x = random_point(model, rng)
        y = model.exp(t, x, random_tangent(model, t, x, rng, scale=0.5))
        g = minimal_geodesic(model, t, x, y)
        rev = g.reversed()
        for u in np.linspace(0.0, g.length, 7):
            assert np.allclose(rev.sample_coords(u),
                               g.sample_coords(g.length - u), atol=1e-9)


def test_geodesic_endpoints_and_unit_speed(sphere2):
    g = minimal_geodesic(sphere2, 0.0, np.array([0.0, 0.0, 1.0]),
                         np.array([1.0, 0.0, 0.0]))
    assert np.allclose(g.sample(0.0).coords, g.start.coords, atol=1e-6)
    assert np.allclose(g.sample(g.length).coords, g.end.coords, atol=1e-6)
    for u in np.linspace(0, g.length, 9):
        vel = g.velocity_coords(float(u))
        assert sphere2.norm(0.0, g.sample_coords(float(u)), vel) \
            == pytest.approx(1.0, abs=1e-9)


# ---------------------------------------------------------------------------
# parallel transport
# ---------------------------------------------------------------------------

def test_transport_euclidean_identity(euclid2):
    g = minimal_geodesic(euclid2, 0.0, np.zeros(2), np.array([2.0, 1.0]))
    v = TangentVector(g.start, np.array([1.0, 2.0]))
    out = parallel_transport(euclid2, g, v)
    assert np.allclose(out.components, [1.0, 2.0], atol=0)


@pytest.mark.parametrize("name", ALL_MODEL_NAMES)
def test_transport_of_velocity_is_final_tangent(request, name, rng):
    model = request.getfixturevalue(name)
    t = model.time_window[0]
    x = random_point(model, rng)
    y = model.exp(t, x, random_tangent(model, t, x, rng, scale=0.6))
    g = minimal_geodesic(model, t, x, y)
    out = parallel_transport(model, g, g.initial_velocity)
    assert np.allclose(out.components, g.velocity_coords(g.length), atol=1e-9)


def test_transport_sphere_orthogonal_fixed(sphere2):
    g = minimal_geodesic(sphere2, 0.0, np.array([0.0, 0.0, 1.0]),
                         np.array([1.0, 0.0, 0.0]))
    out = parallel_transport(sphere2, g,
                             TangentVector(g.start, np.array([0.0, 1.0, 0.0])))
    assert np.allclose(out.components, [0.0, 1.0, 0.0], atol=1e-12)
    oracle = sphere_transport_ode(np.array([0.0, 0.0, 1.0]),
                                  g.initial_velocity.components, g.length,
                                  np.array([0.0, 1.0, 0.0]), 1.0)
    assert np.allclose(out.components, oracle, atol=1e-9)


@pytest.mark.parametrize("name", ALL_MODEL_NAMES)
def test_transport_preserves_norm(request, name, rng):
    model = request.getfixturevalue(name)
    t = model.time_window[0] + 0.3
    for _ in range(40):
        x = random_point(model, rng)
        y = model.exp(t, x, random_tangent(model, t, x, rng, scale=0.8))
        g = minimal_geodesic(model, t, x, y)
        v = random_tangent(model, t, x, rng)
        out = g.transport_from_start(v, g.length)
        n0 = model.norm(t, x, v)
        n1 = model.norm(t, y, out)
        assert abs(n1 - n0) <= 1e-9 * max(1.0, n0)


def test_transport_base_mismatch_raises(euclid2):
    g = minimal_geodesic(euclid2, 0.0, np.zeros(2), np.ones(2))
    bad = TangentVector(Point(np.array([5.0, 5.0]), euclid2.model_id),
                        np.ones(2))
    with pytest.raises(InvalidInput):
        parallel_transport(euclid2, g, bad)


@pytest.mark.parametrize("caller", ["exp", "parallel_transport",
                                    "dagger_field", "coupled_variation_terms"])
def test_vector_based_past_point_tol_is_refused(caller, euclid2):
    """The single-point maps share one base check: a TangentVector based
    within POINT_TOL of the point a map acts at, or a plain array, is
    taken, and one based 2 POINT_TOL off is refused with the map's own
    message, along a zero coordinate and along one of 1 or 2, where
    np.allclose's default relative term would add 1e-5 |x_i| and take it."""
    x, y = np.array([1.0, 0.0]), np.array([2.0, 0.0])
    g = minimal_geodesic(euclid2, 0.0, x, y)
    at, call = {
        "exp": (x, lambda v: exp(euclid2, 0.0, Point(x, euclid2.model_id),
                                 v)),
        "parallel_transport": (x, lambda v: parallel_transport(euclid2, g,
                                                               v)),
        "dagger_field": (y, lambda v: dagger_field(
            solve_green(euclid2, g, 16), euclid2, v)),
        "coupled_variation_terms": (x, lambda v: coupled_variation_terms(
            euclid2, 0.0, g, v)),
    }[caller]
    w = np.array([0.0, 1.0])

    def based(offset, axis=1):
        return TangentVector(Point(at + offset * np.eye(2)[axis],
                                   euclid2.model_id), w)

    call(w)
    call(based(0.5 * POINT_TOL))
    call(based(0.5 * POINT_TOL, axis=0))
    for axis in (1, 0):
        with pytest.raises(InvalidInput, match=f"^{caller}: "):
            call(based(2.0 * POINT_TOL, axis))


# ---------------------------------------------------------------------------
# distance
# ---------------------------------------------------------------------------

def test_distance_examples(euclid2, sphere2):
    assert distance(euclid2, 0.0, np.zeros(2), np.array([3.0, 4.0])) \
        == pytest.approx(5.0)
    assert distance(sphere2, 0.0, np.array([0.0, 0.0, 1.0]),
                    np.array([1.0, 0.0, 0.0])) == pytest.approx(np.pi / 2)


def test_distance_scaled_metric():
    model = ScaledMetric(Euclidean(2), 2.0, (0.0, 2.0))
    d = distance(model, 1.0, np.zeros(2), np.array([1.0, 0.0]))
    assert d == pytest.approx(np.exp(-1.0), abs=1e-12)


def test_distance_flow_sphere_scale(flow_sphere):
    x = np.array([0.0, 0.0, 1.0])
    y = np.array([1.0, 0.0, 0.0])
    d0 = distance(flow_sphere, 0.0, x, y)
    d1 = distance(flow_sphere, 0.7, x, y)
    c = flow_sphere.scale(0.7)
    assert d1 / d0 == pytest.approx(np.sqrt(c / 1.0), abs=1e-12)


@pytest.mark.parametrize("name", ALL_MODEL_NAMES)
def test_distance_symmetry_and_identity(request, name, rng):
    model = request.getfixturevalue(name)
    t = model.time_window[0] + 0.1
    x = random_point(model, rng)
    y = model.exp(t, x, random_tangent(model, t, x, rng, scale=0.5))
    assert model.distance(t, x, x) == pytest.approx(0.0, abs=1e-12)
    assert model.distance(t, x, y) == pytest.approx(
        float(model.distance(t, y, x)), abs=1e-12)


@pytest.mark.parametrize("name", ALL_MODEL_NAMES)
def test_triangle_inequality(request, name, rng):
    model = request.getfixturevalue(name)
    t = model.time_window[0] + 0.4
    for _ in range(500):
        x = random_point(model, rng)
        y = model.exp(t, x, random_tangent(model, t, x, rng, scale=0.7))
        z = model.exp(t, x, random_tangent(model, t, x, rng, scale=0.7))
        dxy = float(model.distance(t, x, y))
        dyz = float(model.distance(t, y, z))
        dxz = float(model.distance(t, x, z))
        assert dxz <= dxy + dyz + 1e-9


# ---------------------------------------------------------------------------
# frames
# ---------------------------------------------------------------------------

def test_frame_euclidean_is_standard_basis(euclid2):
    fr = euclid2.frame(0.0, np.array([0.3, -0.7]))
    assert np.allclose(fr, np.eye(2), atol=0)


def test_frame_scaled_metric_rescales():
    model = ScaledMetric(Euclidean(2), 2.0, (0.0, 2.0))
    fr = model.frame(1.0, np.zeros(2))
    assert np.allclose(fr, np.eye(2) * np.exp(1.0), atol=1e-12)


@pytest.mark.parametrize("name", ALL_MODEL_NAMES)
def test_frame_gram_identity(request, name, rng):
    model = request.getfixturevalue(name)
    t1, t2 = model.time_window
    for _ in range(1000):
        t = float(rng.uniform(t1, t2))
        x = random_point(model, rng)
        fr = model.frame(t, x)
        gram = np.array([[float(model.inner(t, x, fr[i], fr[j]))
                          for j in range(model.dim)]
                         for i in range(model.dim)])
        assert np.allclose(gram, np.eye(model.dim), atol=1e-9)


def _lorentz_products(a, b):
    """<a_i, b_j>_L of the rows of (..., n, d) blocks, shape (..., n, n)."""
    return (np.einsum("...ik,...jk->...ij", a[..., 1:], b[..., 1:])
            - a[..., :, None, 0] * b[..., None, :, 0])


def _hyperboloid_points(model, r, u):
    """exp from the origin along the spatial directions u (rows, any
    length) for distances r."""
    u = u / np.linalg.norm(u, axis=-1, keepdims=True)
    v = np.concatenate([np.zeros(u.shape[:-1] + (1,)), r[..., None] * u], -1)
    return model.exp(0.0, model.origin(), v)


@pytest.mark.bits
@pytest.mark.parametrize("model", [Hyperbolic(1), Hyperbolic(3),
                                   ScaledMetric(Hyperbolic(2), 0.0)])
def test_hyperboloid_frame_is_the_axes_at_the_origin(model):
    """The boost frame at the origin is e_1..e_m bit for bit, the frame the
    Gram-Schmidt gave there, so start points built from it keep theirs."""
    assert same_bits(model.frame(0.0, model.origin()),
                     np.eye(model.ambient_dim)[1:])


@pytest.mark.parametrize("dim", [1, 2, 3, 8, 100])
def test_hyperboloid_frame_is_a_rotation_of_gram_schmidt(dim, rng):
    """Out to distance 4 the boost frame is the reference Gram-Schmidt
    frame times an orthogonal matrix: Q_ij = <boost_i, gs_j>_L has
    QQ^T = I within 1e-10 and Q gs = boost within 1e-9 (measured: 3e-12
    and 5e-11). A ball sample lifted through either frame is then the
    same uniform ball in T_x, so the law of a step is the frame's
    Gram-Schmidt law."""
    model = Hyperbolic(dim)
    n = 200 if dim < 100 else 30
    r = rng.uniform(0.0, 4.0, n)
    r[:2] = 0.0, 4.0
    x = _hyperboloid_points(model, r, rng.normal(size=(n, dim)))
    boost, gs = model.frame(0.0, x), hyperboloid_frame_gram_schmidt(x)
    q = _lorentz_products(boost, gs)
    assert np.abs(q @ np.swapaxes(q, -1, -2) - np.eye(dim)).max() <= 1e-10
    assert np.abs(q @ gs - boost).max() <= 1e-9


@pytest.mark.parametrize("dim", [2, 100])
@settings(max_examples=60, derandomize=True, deadline=None)
@given(data=st.data())
def test_hyperboloid_frame_is_orthonormal_far_out(dim, data):
    """The boost frame's Lorentz Gram error and tangency error stay within
    16 cosh(r)^2 eps at distance r from the origin, out to r = 10, and at
    r = 14, where the Gram-Schmidt went NaN. Measured: at most 8 at small
    r in dim 100 (the Gram's own sum of 100 products), 3 elsewhere; the
    Gram-Schmidt reached about 1e4 at r = 10."""
    model = Hyperbolic(dim)
    r = data.draw(st.floats(0.0, 10.0) | st.just(14.0), label="r")
    u = np.array(data.draw(st.lists(st.floats(-1.0, 1.0), min_size=dim,
                                    max_size=dim), label="u"))
    assume(np.linalg.norm(u) > 1e-3)
    x = _hyperboloid_points(model, np.asarray(r), u)
    fr = model.frame(0.0, x)
    assert np.all(np.isfinite(fr))
    bound = 16.0 * np.cosh(r) ** 2 * np.finfo(float).eps
    gram = _lorentz_products(fr, fr)
    assert np.abs(gram - np.eye(dim)).max() <= bound
    assert np.abs(fr[:, 1:] @ x[1:] - fr[:, 0] * x[0]).max() <= bound


def _sphere_directions(d):
    """Nonzero vectors of R^d: a signed coordinate axis, a pole (the last
    axis, the origin's), two largest |z_i| tied with the rest below them,
    or any direction."""
    sign = st.sampled_from([-1.0, 1.0])
    coords = st.lists(st.floats(-1.0, 1.0), min_size=d, max_size=d)

    def tied(ij, si, sj, rest):
        z = 0.999 * np.array(rest)
        z[ij] = si, sj
        return z

    return st.one_of(
        st.builds(lambda k, s: s * np.eye(d)[k], st.integers(0, d - 1), sign),
        st.builds(lambda s: s * np.eye(d)[-1], sign),
        st.builds(tied, st.lists(st.integers(0, d - 1), min_size=2,
                                 max_size=2, unique=True), sign, sign, coords),
        coords.map(np.array).filter(lambda z: np.linalg.norm(z) > 1e-3))


@pytest.mark.parametrize("frame_variant", [0, 1])
@pytest.mark.parametrize("flow", [False, True])
@pytest.mark.parametrize("dim, examples", [(2, 60), (100, 4)])
def test_sphere_frame_is_orthonormal_and_tangent(dim, examples, flow,
                                                 frame_variant):
    """The sphere frame's g(t) Gram error and the cosines between its
    vectors and x stay within 16 eps on the axes, at the poles and where
    the two largest |x_i| tie, the edge of _gram_schmidt's running-maxima
    scan. Measured on these examples: at most 3 eps and 0.9 eps (the
    Gram-Schmidt it replaced: 4 eps and 2 eps). The reference Gram-Schmidt
    costs tens of ms a call at dim 100, so that dim frames a few blocks of
    up to 4 rows. frame_variant 1 checks the decreasing-axis section that
    the frame-independence test walks with, on the same rows."""
    @settings(max_examples=examples, derandomize=True, deadline=None)
    @given(data=st.data())
    def check(data):
        c0 = data.draw(st.sampled_from([1.0, 0.3, 4.0]), label="c0")
        t = data.draw(st.floats(0.0, 1.0), label="t")
        z = np.array(data.draw(st.lists(_sphere_directions(dim + 1),
                                        min_size=1, max_size=4), label="z"))
        model = RoundSphere(dim, c0, flow=flow)
        x = model.radius * z / np.linalg.norm(z, axis=-1, keepdims=True)
        fr = model.frame(t, x) if frame_variant == 0 else \
            sphere_frame_gram_schmidt(x, model.radius, model.scale(t) / c0, 1)
        bound = 16.0 * np.finfo(float).eps
        gram = model.inner(t, x, fr[:, :, None, :], fr[:, None, :, :])
        assert np.abs(gram - np.eye(dim)).max() <= bound
        cosines = model.inner(t, x, fr, x[:, None, :]) \
            / model.norm(t, x, x)[:, None]
        assert np.abs(cosines).max() <= bound

    check()


# ---------------------------------------------------------------------------
# metric positivity, roundtrips, flow equality
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", ALL_MODEL_NAMES)
def test_metric_positive_on_random_tangents(request, name, rng):
    model = request.getfixturevalue(name)
    t1, t2 = model.time_window
    for _ in range(1000):
        t = float(rng.uniform(t1, t2))
        x = random_point(model, rng)
        v = random_tangent(model, t, x, rng)
        assert float(model.inner(t, x, v, v)) > 0.0


@pytest.mark.parametrize("name", ALL_MODEL_NAMES)
def test_exp_log_roundtrip(request, name, rng):
    model = request.getfixturevalue(name)
    t = model.time_window[0] + 0.25
    for _ in range(50):
        x = random_point(model, rng)
        v = random_tangent(model, t, x, rng, scale=0.4)
        if model.kind in ("sphere",):
            cap = np.pi * np.sqrt(model.scale(t)) * 0.9
            nv = float(model.norm(t, x, v))
            if nv > cap:
                v = v * (cap / nv)
        y = model.exp(t, x, v)
        g = minimal_geodesic(model, t, x, y)
        vrec = g.length * g.initial_velocity.components
        assert np.allclose(vrec, v, atol=1e-6)


def test_backward_flow_sphere_equality(flow_sphere, rng):
    """Metric growth equals the Ricci quadratic form pointwise."""
    for _ in range(200):
        t = float(rng.uniform(0.0, 1.0))
        x = random_point(flow_sphere, rng)
        v = random_tangent(flow_sphere, t, x, rng)
        dtg = float(flow_sphere.metric_dt(t, x, v, v))
        ric = float(flow_sphere.ricci(t, x, v))
        assert abs(dtg - ric) <= 1e-8 * max(1.0, abs(ric))


def _ambient_mirror(dot):
    """v reflected across the dot-bisector of x and y, in (..., d) rows."""
    def mirror(x, y, v):
        d = x - y
        dn = np.sqrt(np.maximum(dot(d, d), 0.0))
        n = d / np.where(dn > 0.0, dn, np.inf)[..., None]
        return v - 2.0 * dot(v, n)[..., None] * n
    return mirror


def _per_model_formulas(model, t):
    """inner, metric_dt, ricci, curvature and mirror as each closed-form
    class once wrote them out, before the space-form base class stated them
    once from a product, a curvature radius and a time factor."""
    if isinstance(model, ScaledMetric):
        base = _per_model_formulas(model.base, model.base.time_window[0])
        sigma = float(np.exp(-model.k * (t - model.time_window[0])))

        def inner(u, v):
            return sigma * base["inner"](u, v)
        return {**base, "inner": inner,
                "metric_dt": lambda u, v: -model.k * inner(u, v)}
    m = model.dim
    if isinstance(model, Euclidean):
        return {
            "inner": _dot,
            "metric_dt": lambda u, v: np.zeros(
                np.broadcast(u[..., 0], v[..., 0]).shape),
            "ricci": lambda v: np.zeros(v.shape[:-1]),
            "curvature": lambda u, v, w: np.zeros(np.broadcast(u, v, w).shape),
            "mirror": _ambient_mirror(_dot)}
    if isinstance(model, RoundSphere):
        c0 = model.c0
        return {
            "inner": lambda u, v: (model.scale(t) / c0) * _dot(u, v),
            "metric_dt": lambda u, v: (model.scale_dt(t) / c0) * _dot(u, v),
            "ricci": lambda v: ((m - 1) / c0) * _dot(v, v),
            "curvature": lambda u, v, w: (_dot(v, w)[..., None] * u
                                          - _dot(u, w)[..., None] * v) / c0,
            "mirror": _ambient_mirror(_dot)}

    def ldot(a, b):
        return _dot(a[..., 1:], b[..., 1:]) - a[..., 0] * b[..., 0]
    return {
        "inner": ldot,
        "metric_dt": lambda u, v: np.zeros(
            np.broadcast(u[..., 0], v[..., 0]).shape),
        "ricci": lambda v: -(m - 1) * ldot(v, v),
        "curvature": lambda u, v, w: -(ldot(v, w)[..., None] * u
                                       - ldot(u, w)[..., None] * v),
        "mirror": _ambient_mirror(ldot)}


# Closed-form models besides the fixtures: scaled metrics over the other
# static space forms, and 9 ambient coordinates, whose coordinate sums are
# numpy's pairwise sums.
_SPACE_FORMS = {
    "scaled_sphere3": lambda: ScaledMetric(RoundSphere(3, 2.5), 0.7),
    "scaled_hyperbolic2": lambda: ScaledMetric(Hyperbolic(2), -1.5),
    "flow_sphere8": lambda: RoundSphere(8, 2.0, flow=True),
    "hyperbolic8": lambda: Hyperbolic(8),
}


@pytest.mark.bits
@pytest.mark.parametrize("name", ["euclid1", "euclid2", "sphere2",
                                  "flow_sphere", "circle", "hyperbolic2",
                                  "scaled_euclid2", *_SPACE_FORMS])
def test_space_form_metric_keeps_the_per_model_bits(request, name, rng):
    """inner and mirror keep the bits of each model's own formula, and so
    do ricci and curvature where they are not identically zero; the plane's
    zeros may be -0.0, and the scaled metric's metric_dt is (-k sigma) p
    where it was -k (sigma p)."""
    model = (_SPACE_FORMS[name]() if name in _SPACE_FORMS
             else request.getfixturevalue(name))
    t = model.time_window[0] + 0.3
    x = np.stack([random_point(model, rng) for _ in range(40)])
    y = np.stack([random_point(model, rng) for _ in range(40)])
    y[:3] = x[:3]
    if model.kind == "sphere":
        y[3:6] = -x[3:6]
    u, v = (np.stack([random_tangent(model, t, p, rng) for p in x])
            for _ in range(2))
    w = rng.normal(size=x.shape)
    old = _per_model_formulas(model, t)
    got = {"inner": (model.inner(t, x, u, v), old["inner"](u, v)),
           "mirror": (model.mirror(t, x, y, v), old["mirror"](x, y, v)),
           "ricci": (model.ricci(t, x, v), old["ricci"](v)),
           "curvature": (model.curvature(t, x, u, v, w),
                         old["curvature"](u, v, w))}
    flat = model._r2 == np.inf
    for method, (new, want) in got.items():
        if flat and method in ("ricci", "curvature"):
            assert np.array_equal(new, want) and not np.any(want), method
        else:
            assert same_bits(new, want), method
    new, want = model.metric_dt(t, x, u, v), old["metric_dt"](u, v)
    assert new.shape == want.shape
    assert np.allclose(new, want, rtol=4 * np.finfo(float).eps, atol=0)


def _over(dist, v):
    """(dist, v / dist) with coincident rows' zero direction, as the base
    class composed depart from distance and log."""
    return dist, v / np.where(dist < 1e-300, 1.0, dist)[..., None]


def _per_model_maps(model, t):
    """log, depart, transport_along and frame as each closed-form class
    once wrote them out, before the base class applied the time factor
    once over factor-free hooks. The sphere's angle and direction helpers
    are shared: those did not change. Its frame is the closed form's
    row-wise copy, _sphere_frame_closed_form."""
    if isinstance(model, ScaledMetric):
        bt = model.base.time_window[0]
        base = _per_model_maps(model.base, bt)
        root = np.sqrt(float(np.exp(-model.k * (t - model.time_window[0]))))
        return {
            "log": base["log"],
            "depart": lambda x, y: _over(
                root * model.base.distance(bt, x, y), base["log"](x, y)),
            "transport_along": lambda x, u, length, v: base[
                "transport_along"](x, root * u, np.asarray(length) / root, v),
            "frame": lambda x: base["frame"](x) / root}
    if isinstance(model, Euclidean):
        def frame(x):
            eye = np.eye(model.dim)
            return np.broadcast_to(eye, x.shape[:-1] + eye.shape).copy()
        return {
            "log": lambda x, y: y - x,
            "depart": lambda x, y: _over(np.sqrt(_dot(y - x, y - x)), y - x),
            "transport_along": lambda x, u, length, v: np.broadcast_to(
                v, np.broadcast(x, v).shape).copy(),
            "frame": frame}
    if isinstance(model, RoundSphere):
        r, s = model.radius, np.sqrt(model.scale(t) / model.c0)

        def log(x, y):
            theta, e = model._direction(*_lead(x, y))
            return _trail((r * theta) * e)

        def depart(x, y):
            theta, e = model._direction(*_lead(x, y))
            return s * r * theta, _trail(e / s)

        def transport_along(x, u, length, v):
            length = np.asarray(length, float)[..., None]
            e = s * u
            theta = (length / s) / r
            a = _dot(v, e)[..., None]
            e_rot = np.cos(theta) * e - np.sin(theta) * (x / r)
            return a * e_rot + (v - a * e)
        return {"log": log, "depart": depart,
                "transport_along": transport_along,
                "frame": lambda x: _sphere_frame_closed_form(
                    x, r, model.scale(t) / model.c0)}

    def ldot(a, b):
        return _dot(a[..., 1:], b[..., 1:]) - a[..., 0] * b[..., 0]

    def log_pair(x, y):
        c = np.maximum(-ldot(x, y), 1.0)
        chord = np.sqrt(np.maximum(ldot(y - x, y - x), 0.0))
        theta = np.where(c < 1.5, 2.0 * np.arcsinh(0.5 * chord),
                         np.arccosh(c))
        w = y - c[..., None] * x
        wn = np.sqrt(np.maximum(ldot(w, w), 0.0))
        small = (wn < 1e-300)[..., None]
        v = (theta / np.where(wn < 1e-300, 1.0, wn))[..., None] * w
        return theta, np.where(small, 0.0, v)

    def transport_along(x, u, length, v):
        length = np.asarray(length, float)[..., None]
        a = ldot(v, u)[..., None]
        u_rot = np.sinh(length) * x + np.cosh(length) * u
        return a * u_rot + (v - a * u)

    def frame(x):
        bent = np.array(x, dtype=float)
        bent[..., 0] += 1.0
        out = (bent[..., 1:] / bent[..., :1])[..., None] * bent[..., None, :]
        out[..., np.arange(model.dim), np.arange(1, model.ambient_dim)] += 1.0
        return out
    return {"log": lambda x, y: log_pair(x, y)[1],
            "depart": lambda x, y: _over(*log_pair(x, y)),
            "transport_along": transport_along, "frame": frame}


# The models whose maps the factor now reaches through the base class: the
# fixtures, a flow sphere of radius other than 1 (whose s * radius * angle
# rounds apart from s * (radius * angle)), and a scaled metric over each
# static space form.
_MAP_MODELS = {
    "flow_sphere3": lambda: RoundSphere(3, 2.5, flow=True),
    "scaled_sphere3": lambda: ScaledMetric(RoundSphere(3, 2.5), 0.7),
    "scaled_hyperbolic2": lambda: ScaledMetric(Hyperbolic(2), -1.5),
}


@pytest.mark.bits
@pytest.mark.parametrize("name", ["euclid2", "sphere2", "flow_sphere",
                                  "hyperbolic2", "scaled_euclid2",
                                  *_MAP_MODELS])
def test_maps_keep_the_per_model_bits(request, monkeypatch, name, rng):
    """log, depart, transport_along and frame keep the bits of each model's
    own formula at t = 0 and 0.7, on random rows, coincident rows, rows
    1e-12 to 1e-3 apart and (on spheres) antipodal rows, and for one point
    against a batch. The scaled hyperboloid's depart separates each pair
    once, not once for the distance and again for the direction, as the
    hyperboloid's does."""
    model = (_MAP_MODELS[name]() if name in _MAP_MODELS
             else request.getfixturevalue(name))
    separations = []
    separation = Hyperbolic._separation

    def counted(self, x, y):
        separations.append(len(x))
        return separation(self, x, y)
    monkeypatch.setattr(Hyperbolic, "_separation", counted)
    for t in (0.0, 0.7):
        x = np.stack([random_point(model, rng) for _ in range(40)])
        y = np.stack([random_point(model, rng) for _ in range(40)])
        y[:3] = x[:3]
        v = np.stack([random_tangent(model, t, p, rng) for p in x[3:22]])
        v *= (np.logspace(-12, -3, 19) / model.norm(t, x[3:22], v))[:, None]
        y[3:22] = model.exp(t, x[3:22], v)
        if "sphere" in name:
            y[22:25] = -x[22:25]
        old = _per_model_maps(model, t)
        u = old["depart"](x, y)[1]
        u[:3] = model.frame(t, x[:3])[:, 0]
        length = rng.uniform(0.0, 2.0, 40)
        w = np.stack([random_tangent(model, t, p, rng) for p in x])
        for a, b in ((x, y), (x[5], y)):
            assert same_bits(model.log(t, a, b), old["log"](a, b))
            for new, want in zip(model.depart(t, a, b), old["depart"](a, b)):
                assert same_bits(new, want)
        for args in ((x, u, length, w), (x, u, 0.8, w), (x[5], u[5], 0.8, w)):
            assert same_bits(model.transport_along(t, *args),
                             old["transport_along"](*args))
        assert same_bits(model.frame(t, x), old["frame"](x))
        assert same_bits(model.frame(t, x[5]), old["frame"](x[5]))
    separations.clear()
    model.depart(0.3, x, y)
    assert len(separations) == ("hyperbolic" in name)


# ---------------------------------------------------------------------------
# curvature condition residual
# ---------------------------------------------------------------------------

def test_residual_static_euclidean_zero(euclid2):
    val = curvature_condition_residual(euclid2, 0.0, np.zeros(2),
                                       np.array([1.0, 2.0]), 0.0)
    assert val == pytest.approx(0.0, abs=1e-15)


def test_residual_flow_sphere_zero(flow_sphere, rng):
    for _ in range(50):
        t = float(rng.uniform(0.0, 1.0))
        x = random_point(flow_sphere, rng)
        v = random_tangent(flow_sphere, t, x, rng)
        val = curvature_condition_residual(flow_sphere, t, x, v, 0.0)
        assert abs(val) <= 1e-8


def test_residual_scaled_metric():
    k = 2.0
    model = ScaledMetric(Euclidean(2), k, (0.0, 1.0))
    v = np.array([1.0, 1.0])
    t = 0.5
    val = curvature_condition_residual(model, t, np.zeros(2), v, k)
    gvv = float(model.inner(t, np.zeros(2), v, v))
    assert val == pytest.approx(2.0 * k * gvv, rel=1e-12)


def test_residual_with_drift_field():
    """Linear inward drift Z = -x contributes -2 (grad Z)^flat = +2 g."""
    model = Euclidean(2, drift=lambda t, x: -x)
    v = np.array([0.6, -0.8])
    val = curvature_condition_residual(model, 0.0, np.array([0.4, 0.1]), v, 0.0)
    assert val == pytest.approx(2.0 * float(v @ v), rel=1e-6)


def test_residual_rejects_zero_vector(euclid2):
    with pytest.raises(InvalidInput):
        curvature_condition_residual(euclid2, 0.0, np.zeros(2), np.zeros(2),
                                     0.0)


# ---------------------------------------------------------------------------
# typed wrappers and factory
# ---------------------------------------------------------------------------

def test_point_invariants(sphere2):
    ok = Point(np.array([0.0, 0.0, 1.0]), sphere2.model_id)
    assert float(sphere2.constraint_residual(ok.coords)) <= 1e-9
    with pytest.raises(InvalidInput):
        Point(np.array([np.inf, 0.0, 0.0]), sphere2.model_id)


# Models the parser checks points on: a sphere of radius 2, the 30-sphere,
# and the hyperboloid alone and under a scaled metric.
_POINT_MODELS = [{"kind": "sphere", "dim": 2, "radius_c0": 4.0},
                 {"kind": "sphere", "dim": 30},
                 {"kind": "hyperbolic", "dim": 2},
                 {"kind": "scaled", "k": 0.5,
                  "base": {"kind": "hyperbolic", "dim": 3}}]


@pytest.mark.parametrize("desc", _POINT_MODELS)
def test_check_point_takes_the_points_exp_reaches(desc, rng):
    """check_point takes every point exp reaches from the origin, in 200
    random directions per distance out to 12, where the hyperboloid's
    coordinates reach e^12 and their rounding grows with |x|^2."""
    model = make_model(desc, (0.0, 1.0))
    o = model.origin()
    for r in (0.5, 3.0, 6.0, 12.0):
        dirs = rng.normal(size=(200, model.dim))
        dirs *= r / np.linalg.norm(dirs, axis=1, keepdims=True)
        for x in model.exp(0.0, np.tile(o, (200, 1)),
                           dirs @ model.frame(0.0, o)):
            model.check_point(x)


@pytest.mark.parametrize("desc, x", [
    ({"kind": "sphere", "dim": 2}, [0.0, 0.0, 2.0]),
    ({"kind": "sphere", "dim": 2, "radius_c0": 4.0}, [0.0, 0.0, 1.0]),
    ({"kind": "sphere", "dim": 2}, [0.0, 1e-4, 1.0]),
    ({"kind": "sphere", "dim": 2}, [2e9, 0.0, 0.0]),
    ({"kind": "hyperbolic", "dim": 2}, [0.0, 0.0, 0.0]),
    ({"kind": "hyperbolic", "dim": 2}, [5.0, 0.0, 0.0]),
    ({"kind": "hyperbolic", "dim": 2}, [-1.0, 0.0, 0.0]),
    ({"kind": "hyperbolic", "dim": 2}, [-np.cosh(2.0), np.sinh(2.0), 0.0]),
    ({"kind": "scaled", "k": 0.5, "base": {"kind": "hyperbolic", "dim": 2}},
     [-1.0, 0.0, 0.0]),
])
def test_check_point_refuses_points_off_the_model(desc, x):
    """A point off the embedding, or on the hyperboloid's lower sheet,
    where the constraint holds but the model's maps do not, is refused;
    the plane takes every point."""
    model = make_model(desc, (0.0, 1.0))
    with pytest.raises(InvalidInput, match=r"^\[.*\] is "):
        model.check_point(np.array(x))
    make_model({"kind": "euclidean", "dim": 3}, (0.0, 1.0)).check_point(
        np.array(x))


@pytest.mark.parametrize("desc, x, formula", [
    ({"kind": "sphere", "dim": 2, "radius_c0": 4.0}, [0.0, 0.0, 1.0],
     "(1 + radius^2) = 5e-09"),
    ({"kind": "hyperbolic", "dim": 2}, [2.0, 0.0, 0.0],
     "(1 + |x|^2) = 5e-09"),
])
def test_check_point_states_its_scale(desc, x, formula):
    """The refusal states the scale of the tolerance that applied: the
    sphere's radius, which does not grow with a point far off it, and
    elsewhere |x|."""
    with pytest.raises(InvalidInput) as refused:
        make_model(desc, (0.0, 1.0)).check_point(np.array(x))
    assert str(refused.value).endswith(f"exceeds 1e-09 {formula}")


def test_tangency_residual(sphere2):
    x = np.array([0.0, 0.0, 1.0])
    assert float(sphere2.tangency_residual(x, np.array([1.0, 0.0, 0.0]))) \
        <= 1e-9
    assert float(sphere2.tangency_residual(x, np.array([0.0, 0.0, 1.0]))) \
        == pytest.approx(1.0)


def test_make_model_descriptors():
    m1 = make_model({"kind": "euclidean", "dim": 3}, (0.0, 1.0))
    assert m1.dim == 3
    m2 = make_model({"kind": "sphere", "dim": 2, "radius_c0": 4.0,
                     "flow": True}, (0.0, 1.0))
    assert m2.radius == 2.0 and m2.flow
    m3 = make_model({"kind": "scaled", "k": 1.0,
                     "base": {"kind": "euclidean", "dim": 2}}, (0.0, 1.0))
    assert m3.k == 1.0
    m4 = make_model({"kind": "hyperbolic", "dim": 2}, (0.0, 1.0))
    assert m4.ambient_dim == 3
    with pytest.raises(InvalidInput):
        make_model({"kind": "torus", "dim": 2}, (0.0, 1.0))
    with pytest.raises(InvalidInput):
        make_model({"kind": "sphere", "dim": 2, "bogus": 1}, (0.0, 1.0))


def test_scaled_metric_refuses_a_base_that_is_not_a_static_space_form():
    """Its factor replaces the base's, so a flow sphere or a scaled metric
    would lose its time dependence, and a numeric chart has no ambient
    product to scale or to mirror with."""
    chart = NumericChart(2, _chart_metric)
    for base in (RoundSphere(2, flow=True), ScaledMetric(Euclidean(2), 5.0),
                 chart):
        with pytest.raises(InvalidInput) as refused:
            ScaledMetric(base, 1.0)
        assert refused.value.key == "base"
    x = np.zeros((3, 2))
    with pytest.raises(UnsupportedOperation):
        chart.mirror(0.0, x, x + 1.0, x)


def test_hyperbolic_green_identities(hyperbolic2, rng):
    """Curvature -1: Ric(v,v) = -(m-1)|v|^2 and distances via arccosh."""
    x = random_point(hyperbolic2, rng)
    v = random_tangent(hyperbolic2, 0.0, x, rng)
    assert float(hyperbolic2.ricci(0.0, x, v)) == pytest.approx(
        -(hyperbolic2.dim - 1) * float(hyperbolic2.inner(0.0, x, v, v)),
        rel=1e-12)


# ---------------------------------------------------------------------------
# pair geometry (depart and the arrival direction) and the sphere frame
# ---------------------------------------------------------------------------

def _unit_rows(rng, n, d, radius=1.0):
    z = rng.normal(size=(n, d))
    return radius * z / np.linalg.norm(z, axis=-1, keepdims=True)


def _sphere_pairs(model, t, rng):
    """Rows of four sorts: generic, antipodal, coincident and nearly
    coincident."""
    r = model.radius
    x = _unit_rows(rng, 40, model.ambient_dim, r)
    y = _unit_rows(rng, 40, model.ambient_dim, r)
    y[10:20] = -x[10:20]
    y[20:30] = x[20:30]
    for i in range(30, 40):
        v = random_tangent(model, t, x[i], rng)
        v *= 10.0 ** -rng.uniform(3, 7) / float(model.norm(t, x[i], v))
        y[i] = model.exp(t, x[i], v)
    return x, y


CONNECT_MODELS = ALL_MODEL_NAMES + ["circle"]


@pytest.mark.bits
@pytest.mark.parametrize("name", CONNECT_MODELS)
def test_connect_agrees_with_distance_log_and_transport(request, name, rng):
    model = request.getfixturevalue(name)
    t = model.time_window[0] + 0.3
    if model.kind == "sphere":
        x, y = _sphere_pairs(model, t, rng)
    else:
        x = np.stack([random_point(model, rng) for _ in range(40)])
        y = np.stack([random_point(model, rng) for _ in range(40)])
        y[:5] = x[:5]
    dist, u0 = model.depart(t, x, y)
    u1 = model.transport_along(t, x, u0, dist, u0)
    assert np.array_equal(dist, model.distance(t, x, y))
    moving = dist > 0
    v = model.log(t, x, y)
    assert np.allclose(u0[moving], v[moving] / dist[moving, None],
                       rtol=0, atol=1e-12)
    assert np.allclose(model.norm(t, x, u0)[moving], 1.0, atol=1e-12)
    assert np.allclose(model.norm(t, y, u1)[moving], 1.0, atol=1e-12)
    # the composition of distance, log and transport agrees, bit for bit
    # off the sphere, whose depart divides its direction by s once
    g_dist, g_u0 = _over(model.distance(t, x, y), v)
    assert np.array_equal(g_dist, dist)
    assert np.allclose(g_u0, u0, rtol=0, atol=1e-12)
    assert model.kind == "sphere" or same_bits(g_u0, u0)
    assert np.allclose(model.transport_along(t, x, g_u0, g_dist, g_u0), u1,
                       rtol=0, atol=1e-12)


@pytest.mark.bits
@pytest.mark.parametrize("name", CONNECT_MODELS)
def test_depart_is_connect_without_arrival(request, name, rng):
    """depart gives distance's distance bit for bit, and the same bits
    whether a side is one point or that point repeated on every row: on
    coincident rows, rows 1e-12 to 1e-3 apart, antipodal rows (on
    spheres), one point against many and many points against one.
    Coincident rows get distance 0 and direction 0."""
    model = request.getfixturevalue(name)
    t = model.time_window[0] + 0.3
    if model.kind == "sphere":
        x, y = _sphere_pairs(model, t, rng)
        y[0] = -x[0]
    else:
        x = np.stack([random_point(model, rng) for _ in range(40)])
        y = np.stack([random_point(model, rng) for _ in range(40)])
        y[:5] = x[:5]
    near = np.random.default_rng(12)
    seps = np.logspace(-12, -3, 19)
    v = np.stack([random_tangent(model, t, p, near) for p in x[:19]])
    v *= (seps / model.norm(t, x[:19], v))[:, None]
    x = np.concatenate([x, x[:19]])
    y = np.concatenate([y, model.exp(t, x[:19], v)])
    y[1] = x[0]
    for a, b in ((x, y), (x[0], y), (y, x[0])):
        got = model.depart(t, a, b)
        want = model.depart(t, *np.broadcast_arrays(a, b))
        assert len(got) == 2
        assert same_bits(got[0], model.distance(t, a, b))
        assert all(same_bits(g, w) for g, w in zip(got, want))
        same = np.all(a == b, axis=-1)
        assert same.sum() >= 1
        assert np.all(got[0][same] == 0.0) and np.all(got[1][same] == 0.0)


# The closed-form fixtures and a scaled metric over each static space form.
_PROPERTY_MODELS = {
    "euclid2": lambda: Euclidean(2),
    "sphere2": lambda: RoundSphere(2, 1.0),
    "flow_sphere": lambda: RoundSphere(2, 1.0, flow=True),
    "circle": lambda: RoundSphere(1, 1.0),
    "hyperbolic2": lambda: Hyperbolic(2),
    "scaled_euclid2": lambda: ScaledMetric(Euclidean(2), 1.0),
    "scaled_sphere3": lambda: ScaledMetric(RoundSphere(3, 2.5), 0.7),
    "scaled_hyperbolic2": lambda: ScaledMetric(Hyperbolic(2), -1.5),
}


def _draw_point(model, t, data, reach):
    """(x, cap): a drawn point of a ``_PROPERTY_MODELS`` model, anywhere on
    the sphere, coordinates in [-10, 10] on the plane and spatial
    coordinates in [-3, 3] on the hyperboloid, and the largest separation
    to draw from it, 3, or ``reach`` pi times the sphere's g(t) radius."""
    base = getattr(model, "base", model)
    coords = np.array(data.draw(st.lists(
        st.floats(-10.0, 10.0) if base.kind == "euclidean"
        else st.floats(-3.0, 3.0), min_size=base.ambient_dim,
        max_size=base.ambient_dim)))
    if base.kind == "sphere":
        assume(np.linalg.norm(coords) > 0.1)
        return (base.radius * coords / np.linalg.norm(coords),
                reach * np.pi * base.radius * np.sqrt(model._factor(t)))
    if base.kind == "hyperbolic":
        return np.concatenate([[np.sqrt(1.0 + coords[1:] @ coords[1:])],
                               coords[1:]]), 3.0
    return coords, 3.0


def _draw_unit_tangent(model, t, x, data):
    """A g(t)-unit tangent at x, from drawn frame coordinates."""
    xi = np.array(data.draw(st.lists(st.floats(-1.0, 1.0),
                                     min_size=model.dim, max_size=model.dim)))
    assume(np.linalg.norm(xi) > 0.1)
    return xi @ model.frame(t, x) / np.linalg.norm(xi)


@pytest.mark.parametrize("name", _PROPERTY_MODELS)
@settings(max_examples=100, derandomize=True, deadline=None)
@given(data=st.data())
def test_maps_stated_once_are_geodesic(name, data):
    """On drawn pairs x, y = exp(t, x, sep u) with g(t)-unit u and sep 0,
    1e-12 to 1e-3 or 1e-3 to 3 (to 0.9 pi on spheres): depart's distance is
    distance's bit for bit; coincident points give 0 and a zero direction;
    exp(t, x, log(t, x, y)) returns y; and u1 = transport_along(t, x, u0,
    dist, u0) is g(t)-unit and tangent at y. Points are anywhere on the
    sphere, coordinates in [-10, 10] on the plane and spatial coordinates
    in [-3, 3] on the hyperboloid.

    The errors, measured over 3000 draws per model: |exp(log) - y| over
    max(1, |y|) 8.6e-16 off the hyperboloid and 2.7e-14 on it, |norm - 1|
    1.4e-15 and 4.6e-13, and the tangency residual times min(dist, 1)
    1.2e-15 and 9.1e-13; the tolerances are 1e-14 and 4e-12. The residual
    is scaled by the distance because y's rounding tilts the direction of
    a pair dist apart by about eps / dist.
    """
    model = _PROPERTY_MODELS[name]()
    base = getattr(model, "base", model)
    t = data.draw(st.floats(*model.time_window))
    x, cap = _draw_point(model, t, data, 0.9)
    u = _draw_unit_tangent(model, t, x, data)
    sep = data.draw(st.one_of(
        st.just(0.0), st.floats(-12.0, -3.0).map(lambda e: 10.0 ** e),
        st.floats(1e-3, cap)))
    y = model.exp(t, x, sep * u)

    dist, u0 = model.depart(t, x, y)
    assert same_bits(dist, model.distance(t, x, y))
    d0, z0 = model.depart(t, x, x)
    assert d0 == 0.0 and not np.any(z0)
    tol = 4e-12 if base.kind == "hyperbolic" else 1e-14
    back = model.exp(t, x, model.log(t, x, y))
    assert np.max(np.abs(back - y)) <= tol * max(1.0, np.max(np.abs(y)))
    if dist > 0.0:
        u1 = model.transport_along(t, x, u0, dist, u0)
        assert abs(model.norm(t, y, u1) - 1.0) <= tol
        assert model.tangency_residual(y, u1) * min(dist, 1.0) <= tol


@pytest.mark.parametrize("name", _PROPERTY_MODELS)
@settings(max_examples=100, derandomize=True, deadline=None)
@given(data=st.data())
def test_toward_gives_departs_radial_rate(name, data):
    """On drawn pairs x, o: coincident, 1e-3 to 3 apart (to 0.999 pi times
    the g(t) radius on spheres), and on spheres also antipodal or 1e-9 or
    1e-8 to 1e-3 off the antipode. toward's distance is distance's bit for
    bit, coincident rows get q = 0, rows at or 1e-9 off the antipode get
    depart's u0 bit for bit, and at a drawn tangent v the rate <v, q>
    differs from <v, u0> by at most tol |v|: tol = 1e-12, raised to
    64 eps / sin(angle) on spheres.

    Only the sphere's own toward differs from depart; measured over 4000
    draws it stays within 3.6 eps / sin(angle). Closer than 1e-3 both
    fields carry rounding of order eps / dist, depart's the larger; the
    radial replay reads the rate only past its r0.
    """
    model = _PROPERTY_MODELS[name]()
    base = getattr(model, "base", model)
    t = data.draw(st.floats(*model.time_window))
    x, cap = _draw_point(model, t, data, 0.999)
    u = _draw_unit_tangent(model, t, x, data)
    v = _draw_unit_tangent(model, t, x, data)
    sep = data.draw(st.one_of(st.just(0.0), st.floats(1e-3, cap)))
    o = model.exp(t, x, sep * u)
    folded = False
    if base.kind == "sphere" and data.draw(st.booleans()):
        off = data.draw(st.one_of(st.just(0.0), st.just(1e-9),
                                  st.floats(-8.0, -3.0).map(
                                      lambda e: 10.0 ** e)))
        o = model.exp(t, -x, off * _draw_unit_tangent(model, t, -x, data))
        folded = off <= 1e-9

    dist, q = model.toward(t, x, o)
    d_depart, u0 = model.depart(t, x, o)
    assert same_bits(dist, model.distance(t, x, o))
    assert same_bits(dist, d_depart)
    if sep == 0.0 and not folded and np.all(o == x):
        assert not np.any(q)
    if folded:
        assert same_bits(q, u0)
    tol = 1e-12
    if base.kind == "sphere" and dist > 0.0:
        angle = dist / (np.sqrt(model._factor(t)) * base.radius)
        tol = max(tol, 64 * np.finfo(float).eps / np.sin(angle))
    assert (abs(model.inner(t, x, v, q) - model.inner(t, x, v, u0))
            <= tol * model.norm(t, x, v))


@pytest.mark.parametrize("name", _PROPERTY_MODELS)
@settings(max_examples=100, derandomize=True, deadline=None)
@given(data=st.data())
def test_mirror_holds_at_close_and_near_antipodal_pairs(name, data):
    """On drawn pairs x, y = exp(t, x, sep u) with sep 0 or 1e-9 to 3 (to
    0.9 pi times the g(t) radius on spheres), and on spheres also 1e-9 to
    1e-3 short of the antipode: mirror keeps the g(t) norm of a drawn
    tangent v, mirroring back returns v, both within 1e-13 relative, and
    the mirrored vector is tangent at y within 64 eps / sep relative to its
    size. On the hyperboloid each bound is multiplied by s = cosh^2 r of
    the point farther from the origin, the growth of its coordinates.
    Coincident points return v bit for bit.

    The mirror reflects across the bisector of x and y, whose normal
    (x - y) / |x - y| carries rounding of order eps / sep, so tangency is
    lost linearly as pairs close in; the kernels mirror only rows farther
    apart than delta_couple. Measured over 3000 draws per model: norm and
    round-trip errors over s at most 2.9e-15, and the tangency residual
    times sep / (eps s) at most 4.9 at close pairs and 12.3 near the
    antipode; it is 0 on the plane.
    """
    model = _PROPERTY_MODELS[name]()
    base = getattr(model, "base", model)
    t = data.draw(st.floats(*model.time_window))
    x, cap = _draw_point(model, t, data, 1.0)
    v = _draw_unit_tangent(model, t, x, data)
    u = _draw_unit_tangent(model, t, x, data)
    sep = data.draw(st.just(0.0) | st.floats(
        -9.0, np.log10(min(3.0, 0.9 * cap))).map(lambda e: 10.0 ** e))
    if base.kind == "sphere" and data.draw(st.booleans()):
        sep = cap - 10.0 ** data.draw(st.floats(-9.0, -3.0))
    y = model.exp(t, x, sep * u)

    s = max(x[0], y[0]) ** 2 if base.kind == "hyperbolic" else 1.0
    mv = model.mirror(t, x, y, v)
    back = model.mirror(t, y, x, mv)
    assert abs(model.norm(t, y, mv) - model.norm(t, x, v)) \
        <= 1e-13 * s * model.norm(t, x, v)
    assert np.max(np.abs(back - v)) <= 1e-13 * s * np.max(np.abs(v))
    if sep == 0.0:
        assert same_bits(mv, v)
    else:
        assert model.tangency_residual(y, mv) \
            <= 64 * np.finfo(float).eps / sep * s * np.max(np.abs(mv))


@pytest.mark.bits
@pytest.mark.parametrize("name", CONNECT_MODELS)
def test_toward_measures_as_distance_and_folds_to_depart(request, name,
                                                          rng):
    """toward's distance is distance's bit for bit, and both outputs have
    the same bits whether a side is one point or that point repeated on
    every row. Coincident rows get q = 0; on spheres antipodal rows and
    rows 1e-9 off them get depart's u0, tie-break included, bit for bit."""
    model = request.getfixturevalue(name)
    t = model.time_window[0] + 0.3
    if model.kind == "sphere":
        x, y = _sphere_pairs(model, t, rng)
        off = np.stack([random_tangent(model, t, -p, rng) for p in x[:10]])
        off *= (1e-9 / model.norm(t, -x[:10], off))[:, None]
        x = np.concatenate([x, x[:10]])
        y = np.concatenate([y, model.exp(t, -x[:10], off)])
        folded = np.r_[10:20, 40:50]
    else:
        x = np.stack([random_point(model, rng) for _ in range(40)])
        y = np.stack([random_point(model, rng) for _ in range(40)])
        y[:5] = x[:5]
        folded = []
    y[1] = x[0]
    for a, b in ((x, y), (x[0], y), (y, x[0])):
        dist, q = model.toward(t, a, b)
        assert same_bits(dist, model.distance(t, a, b))
        want = model.toward(t, *np.broadcast_arrays(a, b))
        assert same_bits(dist, want[0]) and same_bits(q, want[1])
        same = np.all(a == b, axis=-1)
        assert same.sum() >= 1 and not np.any(q[same])
    dist, q = model.toward(t, x, y)
    assert same_bits(q[folded], model.depart(t, x, y)[1][folded])


@pytest.mark.bits
@pytest.mark.parametrize("name", _PROPERTY_MODELS)
@settings(max_examples=100, derandomize=True, deadline=None)
@given(data=st.data())
def test_distance_is_symmetric_bit_for_bit(name, data):
    """distance(t, x, y) and distance(t, y, x) have the same bits on drawn
    pairs: coincident, 1e-12 to 1e-3 apart, 1e-3 to 3 apart (to 0.999 pi
    times the g(t) radius on spheres), and on spheres also 0 or 1e-12 to
    1e-3 off the antipode."""
    model = _PROPERTY_MODELS[name]()
    base = getattr(model, "base", model)
    t = data.draw(st.floats(*model.time_window))
    x, cap = _draw_point(model, t, data, 0.999)
    u = _draw_unit_tangent(model, t, x, data)
    small = st.floats(-12.0, -3.0).map(lambda e: 10.0 ** e)
    sep = data.draw(st.one_of(st.just(0.0), small, st.floats(1e-3, cap)))
    y = model.exp(t, x, sep * u)
    if base.kind == "sphere" and data.draw(st.booleans()):
        off = data.draw(st.one_of(st.just(0.0), small))
        y = model.exp(t, -x, off * _draw_unit_tangent(model, t, -x, data))
    assert same_bits(model.distance(t, x, y), model.distance(t, y, x))


@pytest.mark.parametrize("name", _PROPERTY_MODELS)
def test_residual_is_the_closed_form_on_space_forms(name, rng):
    """With no drift, curvature_condition_residual on a space form is
    p(v, v) ((m - 1) / r2 + k factor(t) - factor_dt(t)), p the ambient
    product and r2 the squared curvature radius: at random (t, x, v, k),
    within 1e-12 of p(v, v) times the sum of the three terms' sizes."""
    model = _PROPERTY_MODELS[name]()
    assert not model.has_drift
    for _ in range(20):
        t = float(rng.uniform(*model.time_window))
        k = float(rng.uniform(-2.0, 2.0))
        x = random_point(model, rng)
        v = random_tangent(model, t, x, rng)
        p = float(model._product(*_lead(v, v)))
        terms = ((model.dim - 1) / model._r2, k * model._factor(t),
                 -model._factor_dt(t))
        got = curvature_condition_residual(model, t, x, v, k)
        assert abs(got - p * sum(terms)) <= 1e-12 * p * sum(map(abs, terms))


def test_sphere_connect_special_rows(rng):
    for model in (RoundSphere(2, 1.0), RoundSphere(3, 2.5, flow=True)):
        t = 0.4
        x, y = _sphere_pairs(model, t, rng)
        dist, u0 = model.depart(t, x, y)
        u1 = model.transport_along(t, x, u0, dist, u0)
        # antipodal rows take the tie-break that log takes, at the full
        # angle pi
        anti = slice(10, 20)
        assert np.allclose(dist[anti], np.pi * np.sqrt(model.scale(t)),
                           rtol=0, atol=1e-12)
        v = model.log(t, x[anti], y[anti])
        assert np.allclose(u0[anti], v / dist[anti, None], rtol=0, atol=1e-12)
        assert np.allclose(model.exp(t, x[anti], v), y[anti], rtol=0,
                           atol=1e-12)
        assert np.allclose(np.sum(u0[anti] * x[anti], axis=-1), 0.0,
                           atol=1e-12)
        # coincident rows
        assert np.all(dist[20:30] == 0.0)
        assert np.all(u0[20:30] == 0.0) and np.all(u1[20:30] == 0.0)
        # nearly coincident rows
        assert np.all((dist[30:40] > 0) & (dist[30:40] < 1e-2))
        assert np.allclose(model.exp(t, x[30:40],
                                     model.log(t, x[30:40], y[30:40])),
                           y[30:40], atol=1e-12)
        # one base point against the batch, with antipodal and coincident rows
        ys = y.copy()
        ys[10], ys[20] = -x[0], x[0]
        rows = np.broadcast_to(x[0], ys.shape)
        assert np.array_equal(model.log(t, x[0], ys), model.log(t, rows, ys))
        got, want = model.depart(t, x[0], ys), model.depart(t, rows, ys)
        for g, w in zip(got, want):
            assert np.array_equal(g, w)
        assert np.array_equal(
            model.transport_along(t, x[0], got[1], got[0], got[1]),
            model.transport_along(t, rows, want[1], want[0], want[1]))


def _sphere_frame_closed_form(x, radius, scale):
    """The sphere frame, shape (..., m, m+1), written out row by row with
    the float operations of RoundSphere._gram_schmidt in their order: with
    y = x / radius and k the i-th axis other than np.argmax(|y|), vector i
    is g (e_k - (y_k / t_i) a) / sqrt(scale). Here a is y with the axes
    kept before k set to 0, t_i = |a|^2 is summed from the last kept axis
    up, seeded with the dropped axis's square, and g = sqrt(t_i / t_{i+1})."""
    y = x / radius
    m = y.shape[-1] - 1
    drop = np.argmax(np.abs(y), axis=-1)[..., None]
    kept = np.arange(m) + (np.arange(m) >= drop)
    yk = np.take_along_axis(y, kept, -1)
    yd = np.take_along_axis(y, drop, -1)[..., 0]
    t = np.empty(y.shape)
    t[..., m] = yd * yd
    for i in range(m - 1, -1, -1):
        t[..., i] = yk[..., i] * yk[..., i] + t[..., i + 1]
    g = np.sqrt(t[..., :m] / t[..., 1:])
    h = g * yk / t[..., :m]
    out = np.empty(y.shape[:-1] + (m, m + 1))
    for i in range(m):
        used = (np.arange(m + 1) == kept[..., :i, None]).any(axis=-2)
        w = 0.0 - h[..., i, None] * np.where(used, 0.0, y)
        k = kept[..., i, None]
        np.put_along_axis(w, k, np.take_along_axis(w, k, -1)
                          + g[..., i, None], -1)
        out[..., i, :] = w
    return out / np.sqrt(scale)


@pytest.mark.bits
@pytest.mark.parametrize("dim", [1, 2, 3, 4, 100])
def test_sphere_frame_equals_reference(dim, rng):
    """The frame is its closed form's row-wise copy bit for bit. It is the
    same section as the reference Gram-Schmidt, rounded apart: each entry
    within 4 eps / sqrt(factor) of it, 16 at dim 100 (1 / sqrt(factor) is
    the size of the largest entries). Measured: 2.0 eps at dims 1 to 4 and
    6.2 eps at dim 100. Rows: random, the axes, their negatives and a tie
    of every |x_i|."""
    for c0, flow in ((1.0, False), (2.5, True)):
        model = RoundSphere(dim, c0, flow=flow)
        d = dim + 1
        x = _unit_rows(rng, max(200, 2 * d + 1), d, model.radius)
        x[:d] = model.radius * np.eye(d)
        x[d:2 * d] = -model.radius * np.eye(d)
        x[2 * d] = model.radius / np.sqrt(d)
        for t in (0.0, 0.7):
            scale = model.scale(t) / c0
            fr = model.frame(t, x)
            assert same_bits(fr, _sphere_frame_closed_form(x, model.radius,
                                                           scale))
            assert same_bits(model.frame(t, x[5]), fr[5])
            gs = sphere_frame_gram_schmidt(x, model.radius, scale)
            bound = (4.0 if dim < 100 else 16.0) * np.finfo(float).eps
            assert np.abs(fr - gs).max() * np.sqrt(scale) <= bound


@pytest.mark.bits
@pytest.mark.parametrize("model", [RoundSphere(2), RoundSphere(2, flow=True),
                                   ScaledMetric(RoundSphere(2), 0.8)],
                         ids=["static", "flow", "scaled"])
def test_sphere_frame_at_the_origin_keeps_its_bits(model):
    """At the origin (the north pole) the frame is e_1, e_2 over
    sqrt(factor), zeros +0.0 included, as the Gram-Schmidt gave: d0 start
    points and a flag-built gradient check's normal are built from it."""
    for t in (0.0, 0.6):
        want = np.eye(3)[:2] / np.sqrt(model._factor(t))
        assert same_bits(model.frame(t, model.origin()), want)
        assert not np.signbit(want).any()


# ---------------------------------------------------------------------------
# lift
# ---------------------------------------------------------------------------

def _lift_via_frame(model, t, x, xi):
    """The lift written out with the frame, as the kernels once did."""
    return np.sqrt(model.dim + 2.0) * np.einsum("bj,bjd->bd", xi,
                                                model.frame(t, x))


@pytest.mark.bits
@pytest.mark.parametrize("dim", [1, 2, 3, 4])
@pytest.mark.parametrize("flow", [False, True])
def test_sphere_lift_equals_frame_einsum(dim, flow, rng):
    model = RoundSphere(dim, 2.5, flow=flow)
    d = dim + 1
    x = _unit_rows(rng, 200, d, model.radius)
    x[:d] = model.radius * np.eye(d)
    x[d:2 * d] = -model.radius * np.eye(d)
    x[2 * d] = model.radius / np.sqrt(d)
    xi = rng.uniform(-1.0, 1.0, (200, dim))
    xi[0] = 0.0
    for t in (0.0, 0.7):
        want = _lift_via_frame(model, t, x, xi)
        assert np.array_equal(model.lift(t, x, xi), want)
        assert np.array_equal(model.lift(t, x[5], xi[5]), want[5])


@pytest.mark.bits
def test_lift_equals_frame_einsum_other_models(request, rng):
    models = [request.getfixturevalue(name) for name in
              ("euclid1", "euclid2", "hyperbolic2", "scaled_euclid2")]
    models += [Euclidean(9), ScaledMetric(RoundSphere(2, 1.5), 0.8),
               NumericChart(2, lambda t, u: (1.0 + t + u @ u) * np.eye(2))]
    for model in models:
        t = model.time_window[0] + 0.3
        x = np.stack([random_point(model, rng) for _ in range(30)])
        xi = rng.uniform(-1.0, 1.0, (30, model.dim))
        xi[0] = 0.0
        assert np.array_equal(model.lift(t, x, xi),
                              _lift_via_frame(model, t, x, xi)), model.kind


def _coordinate_major(a: np.ndarray) -> np.ndarray:
    """The same (..., d) block, stored coordinate-major as the kernels
    store theirs."""
    return np.moveaxis(np.ascontiguousarray(np.moveaxis(a, -1, 0)), 0, -1)


def _chart_metric(t, x):
    """Non-diagonal, time-dependent and positive definite in any dim."""
    d = len(x)
    off = 0.2 * np.sin(np.add.outer(x, x) + t) / d
    return (2.0 + t + np.tanh(x)) * np.eye(d) + off


@pytest.mark.bits
@pytest.mark.parametrize("d", [1, 2, 3, 7, 8, 9, 16, 33])
def test_coordinate_sums_have_np_sum_bits(d, rng):
    """The models' dot product has the bits of np.sum over the last axis
    of the C-ordered product in either layout: the coordinates added in
    order below 8, numpy's pairwise sum from 8."""
    a, b = rng.normal(size=(2, 50, d))
    want = np.sum(a * b, axis=-1)
    for layout in (np.asarray, _coordinate_major):
        assert same_bits(_dot(layout(a), layout(b)), want)


# Models the layout contract adds to ALL_MODEL_NAMES: numeric charts, and
# models of 8 or more ambient coordinates, whose coordinate sums are
# numpy's pairwise sums.
_LAYOUT_MODELS = {
    "chart2": lambda: NumericChart(2, _chart_metric, time_window=(0.0, 1.0)),
    "chart8": lambda: NumericChart(8, _chart_metric, time_window=(0.0, 1.0)),
    "sphere8": lambda: RoundSphere(8, 2.0, flow=True),
    "hyperbolic8": lambda: Hyperbolic(8),
}


@pytest.mark.bits
@pytest.mark.parametrize("name", ALL_MODEL_NAMES + ["chart2"])
def test_transport_along_broadcasts_over_lengths(request, name, rng):
    """transport_along broadcasts over the batch axes of ``length`` as over
    those of x, u and v: n lengths with one x, u and v give n rows, each
    the call with that one length, bit for bit."""
    model = (_LAYOUT_MODELS[name]() if name in _LAYOUT_MODELS
             else request.getfixturevalue(name))
    t = model.time_window[0] + 0.3
    x = random_point(model, rng, 0.5)
    u, v = model.frame(t, x)[0], random_tangent(model, t, x, rng, 0.8)
    lengths = [0.1, 0.2, 0.3]
    rows = model.transport_along(t, x, u, lengths, v)
    assert rows.shape == (len(lengths), model.ambient_dim)
    for row, length in zip(rows, lengths):
        assert same_bits(row, model.transport_along(t, x, u, length, v))


@pytest.mark.bits
@pytest.mark.parametrize("name", ALL_MODEL_NAMES + sorted(_LAYOUT_MODELS))
def test_model_methods_keep_their_bits_in_either_layout(request, name, rng):
    """Every model method the kernels call gives the same bits on a
    C-ordered block and on the same block stored coordinate-major, with
    coincident rows, antipodal rows on the sphere and zero vectors. The
    numeric chart has no log, so no depart, toward, distance or
    mirror."""
    model = (_LAYOUT_MODELS[name]() if name in _LAYOUT_MODELS
             else request.getfixturevalue(name))
    t = model.time_window[0] + 0.3
    n = 12 if model.kind == "numeric-chart" else 40
    x = np.stack([random_point(model, rng, 0.5) for _ in range(n)])
    y = np.stack([random_point(model, rng, 0.5) for _ in range(n)])
    y[:3] = x[:3]
    if model.kind == "sphere":
        y[3:6] = -x[3:6]
    v = np.stack([random_tangent(model, t, p, rng, 0.8) for p in x])
    v[6:8] = 0.0
    xi = rng.uniform(-1.0, 1.0, (n, model.dim))
    xi[8:10] = 0.0
    w = rng.normal(size=(n, model.ambient_dim))
    unit = model.frame(t, x)[:, 0]
    length = np.linspace(0.0, 1.5, n)
    calls = {
        "lift": lambda x, y, v, w, xi, u: model.lift(t, x, xi),
        "exp": lambda x, y, v, w, xi, u: model.exp(t, x, v),
        "inner": lambda x, y, v, w, xi, u: model.inner(t, x, v, w),
        "frame": lambda x, y, v, w, xi, u: model.frame(t, x),
        "transport_along": lambda x, y, v, w, xi, u: model.transport_along(
            t, x, u, length, v),
    }
    if model.kind != "numeric-chart":
        calls.update({
            "depart": lambda x, y, v, w, xi, u: model.depart(t, x, y),
            "toward": lambda x, y, v, w, xi, u: model.toward(t, x, y),
            "distance": lambda x, y, v, w, xi, u: model.distance(t, x, y),
            "mirror": lambda x, y, v, w, xi, u: model.mirror(t, x, y, v)})
    blocks = (x, y, v, w, xi, unit)
    for method, call in calls.items():
        want = call(*blocks)
        got = call(*map(_coordinate_major, blocks))
        for w, g in zip(*((want, got) if isinstance(want, tuple)
                          else ((want,), (got,)))):
            assert same_bits(g, w), method
