"""Independent numerical oracles used to freeze expected test values.

Everything here deliberately avoids the library's own formulas: Gaussian
masses come from quadrature of the density, sphere geodesics and transports
from integrating the constrained ambient ODEs, and the wrapped Gaussian
from its Fourier series. The exceptions are references the library must
reproduce bit for bit: the sphere frame, a row-wise Gram-Schmidt, because
replayed noise depends on the frame (its decreasing-axis order is a second
section, which the frame-independence test walks with), and the drift integral's lookup,
numpy's own interpolation of the spec's trapezoid table, and the coupled
kernel's reference loop, which rebuilds the stacked pair block and
lambda* at every step in the operation order ``engine.coupled_chunk``
must keep bit for bit, the walk kernel's reference loop, which steps
C-ordered blocks where ``engine.walk_chunk`` steps coordinate-major ones,
the mirror as computed from ``depart``'s direction, and the numeric chart's two hand-written RK4 loops, one for
the geodesic and one for geodesic and transport together, whose results
``NumericChart``'s single integrator must keep bit for bit. The
reflection map, on a geodesic and on arrays of pairs
(``transport_mirror``), follows the textbook definition through a model's
parallel transport; ``model.mirror``'s ambient reflections must agree
with it. The hyperboloid frame's Gram-Schmidt is the frame the walk once
used: the closed-form frame must equal it up to a rotation, which keeps
the law of a step.
"""

import numpy as np
from scipy.integrate import quad

from gtwalk import rng
from gtwalk.engine import CouplingKind
from gtwalk.errors import (DegenerateGeodesic, InvalidInput,
                           SingularConfiguration)
from gtwalk.manifolds import (Euclidean, Geodesic, Hyperbolic, ManifoldModel,
                              RoundSphere, ScaledMetric, TangentVector, _dot)
from gtwalk.numeric import MAX_STEP, MIN_STEPS


def gaussian_mass(a: float) -> float:
    """P(|N(0,1)| <= a) by quadrature of the density."""
    val, _ = quad(lambda u: np.exp(-u * u / 2.0) / np.sqrt(2.0 * np.pi),
                  -a, a, epsabs=1e-13, epsrel=1e-13)
    return val


def normal_cdf(x: float) -> float:
    """Standard normal CDF by quadrature."""
    if x >= 0:
        return 0.5 + 0.5 * gaussian_mass(x)
    return 0.5 - 0.5 * gaussian_mass(-x)


def sphere_geodesic_rk4(x0: np.ndarray, v0: np.ndarray, radius: float,
                        n_steps: int = 4000) -> np.ndarray:
    """Time-1 point of the geodesic ODE x'' = -(|x'|^2 / r^2) x in ambient
    coordinates (independent of trigonometric closed forms)."""
    x = np.array(x0, dtype=float)
    v = np.array(v0, dtype=float)
    h = 1.0 / n_steps

    def acc(xx, vv):
        return -(vv @ vv) / radius ** 2 * xx

    for _ in range(n_steps):
        k1x, k1v = v, acc(x, v)
        k2x, k2v = v + 0.5 * h * k1v, acc(x + 0.5 * h * k1x, v + 0.5 * h * k1v)
        k3x, k3v = v + 0.5 * h * k2v, acc(x + 0.5 * h * k2x, v + 0.5 * h * k2v)
        k4x, k4v = v + h * k3v, acc(x + h * k3x, v + h * k3v)
        x = x + (h / 6.0) * (k1x + 2 * k2x + 2 * k3x + k4x)
        v = v + (h / 6.0) * (k1v + 2 * k2v + 2 * k3v + k4v)
    return x


def sphere_transport_ode(x0: np.ndarray, dir0: np.ndarray, length: float,
                         w0: np.ndarray, radius: float,
                         n_steps: int = 4000) -> np.ndarray:
    """Parallel transport along a great circle by integrating
    w' = -(<w, gamma'> / r^2) gamma jointly with the geodesic."""
    x = np.array(x0, dtype=float)
    v = np.array(dir0, dtype=float) * length
    w = np.array(w0, dtype=float)
    h = 1.0 / n_steps

    def rhs(state):
        xx, vv, ww = state
        return (vv, -(vv @ vv) / radius ** 2 * xx,
                -(ww @ vv) / radius ** 2 * xx)

    for _ in range(n_steps):
        s0 = (x, v, w)
        k1 = rhs(s0)
        k2 = rhs(tuple(a + 0.5 * h * b for a, b in zip(s0, k1)))
        k3 = rhs(tuple(a + 0.5 * h * b for a, b in zip(s0, k2)))
        k4 = rhs(tuple(a + h * b for a, b in zip(s0, k3)))
        x, v, w = (a + (h / 6.0) * (b1 + 2 * b2 + 2 * b3 + b4)
                   for a, b1, b2, b3, b4 in zip(s0, k1, k2, k3, k4))
    return w


def wrapped_gaussian_cdf_fourier(theta: np.ndarray, mu: float, var: float,
                                 n_terms: int = 64) -> np.ndarray:
    """CDF on (-pi, pi] from the Fourier series of the wrapped density:
    p(t) = (1/2pi)(1 + 2 sum_k e^{-k^2 var / 2} cos k (t - mu))."""
    theta = np.asarray(theta, dtype=float)
    ks = np.arange(1, n_terms + 1)
    coef = np.exp(-ks ** 2 * var / 2.0)
    # integral of the series from -pi to theta
    base = (theta + np.pi) / (2.0 * np.pi)
    series = np.zeros_like(theta)
    for k, c in zip(ks, coef):
        series += c / k * (np.sin(k * (theta - mu)) - np.sin(k * (-np.pi - mu)))
    return base + series / np.pi


def finite_difference(fn, t: float, h: float = 1e-4) -> float:
    """Symmetric difference quotient."""
    return (fn(t + h) - fn(t - h)) / (2.0 * h)


def sphere_frame_gram_schmidt(x: np.ndarray, radius: float, scale: float,
                              frame_variant: int = 0) -> np.ndarray:
    """Reference sphere frame, shape (..., m, m+1): Gram-Schmidt, row by
    row, of the axis vectors other than the one x leans on most, in
    increasing axis order (decreasing for frame_variant 1), divided by
    sqrt(scale), the metric's conformal factor."""
    xhat = x / radius
    d = x.shape[-1]
    drop = np.argmax(np.abs(xhat), axis=-1)
    order = np.argsort(np.where(np.arange(d) == drop[..., None], d,
                                np.arange(d)), axis=-1)[..., :-1]
    if frame_variant:
        order = order[..., ::-1]
    basis = np.eye(d)[order]
    out = np.empty_like(basis)
    for i in range(d - 1):
        w = basis[..., i, :]
        w = w - np.sum(w * xhat, axis=-1)[..., None] * xhat
        for j in range(i):
            w = w - np.sum(w * out[..., j, :], axis=-1)[..., None] \
                * out[..., j, :]
        out[..., i, :] = w / np.linalg.norm(w, axis=-1, keepdims=True)
    return out / np.sqrt(scale)


def hyperboloid_frame_gram_schmidt(x: np.ndarray) -> np.ndarray:
    """Reference hyperboloid frame, shape (..., m, m+1): Gram-Schmidt in the
    Lorentz product of the spatial axis vectors, each first projected onto
    T_x. Its normalization takes the square root of a Lorentz norm that
    cancels far from the origin, so it is a reference only near it."""
    def ldot(u, v):
        return np.sum(u[..., 1:] * v[..., 1:], axis=-1) - u[..., 0] * v[..., 0]

    d = x.shape[-1]
    basis = np.broadcast_to(np.eye(d)[1:], x.shape[:-1] + (d - 1, d))
    out = np.empty(basis.shape)
    for i in range(d - 1):
        w = basis[..., i, :] + ldot(basis[..., i, :], x)[..., None] * x
        for j in range(i):
            w = w - ldot(w, out[..., j, :])[..., None] * out[..., j, :]
        out[..., i, :] = w / np.sqrt(ldot(w, w))[..., None]
    return out


def table_interp(r, grid: np.ndarray, cum: np.ndarray):
    """int_0^r b read off a trapezoid table (nodes ``grid``, integrals
    ``cum``) by np.interp's binary search and linear interpolation, which
    RadialComparisonSpec.b_integral's bracket lookup must equal bit for
    bit."""
    return np.interp(r, grid, cum)


def reflection_map(model: ManifoldModel, t: float, geodesic: Geodesic,
                   v) -> TangentVector:
    """Mirror map along a geodesic: parallel-transport v to the end, then
    reflect across the hyperplane orthogonal to the arrival direction.

    A g(t)-isometry from the start tangent space to the end tangent space.
    """
    if geodesic.length <= 0.0:
        raise DegenerateGeodesic("reflection_map: zero-length geodesic")
    vc = v.components if isinstance(v, TangentVector) else np.asarray(v, dtype=float)
    if isinstance(v, TangentVector):
        if not np.allclose(v.base.coords, geodesic.start.coords, atol=1e-9):
            raise InvalidInput("reflection_map: v not based at geodesic start")
    carried = geodesic.transport_from_start(vc, geodesic.length)
    u1 = geodesic.velocity_coords(geodesic.length)
    end = geodesic.end.coords
    out = carried - 2.0 * float(model.inner(t, end, carried, u1)) * u1
    return TangentVector(geodesic.end, out)


def reference_mirror(model: ManifoldModel, t: float, x, y, v):
    """The reflection kernel's mirror as it was when it took ``depart``'s
    (dist, u0): Euclidean space mirrored across u0, the sphere and the
    hyperboloid reflected across the bisector of x and y, ScaledMetric
    handed its base the rescaled (dist, u0), and the other models
    transported v and u0 and mirrored across u1. ``model.mirror`` must keep
    these bits on every model except ScaledMetric, whose mirror is now its
    base's."""
    return _mirror_given_geo(model, t, x, y, model.depart(t, x, y), v)


def _mirror_given_geo(model, t, x, y, geo, v):
    dist, u0 = geo
    if isinstance(model, ScaledMetric):
        root = np.sqrt(model._factor(t))
        return _mirror_given_geo(model.base, t, x, y,
                                 (np.asarray(dist) / root, root * u0), v)
    if isinstance(model, Euclidean):
        return v - 2.0 * _dot(v, u0)[..., None] * u0
    if isinstance(model, (RoundSphere, Hyperbolic)):
        dot = model._ldot if isinstance(model, Hyperbolic) else _dot
        d = x - y
        dn = np.sqrt(np.maximum(dot(d, d), 0.0))
        n = d / np.where(dn > 0.0, dn, np.inf)[..., None]
        return v - 2.0 * dot(v, n)[..., None] * n
    return _transport_then_reflect(model, t, x, y, geo, v)


def transport_mirror(model: ManifoldModel, t: float, x, y, v):
    """The mirror by its definition, which ``ManifoldModel.mirror`` once
    computed for every model: v parallel-transported along ``depart``'s
    geodesic from x to y, then mirrored across the hyperplane
    g(t)-orthogonal to the arrival direction u1."""
    return _transport_then_reflect(model, t, x, y, model.depart(t, x, y), v)


def _transport_then_reflect(model, t, x, y, geo, v):
    dist, u0 = geo
    carried = model.transport_along(t, x, u0, dist, v)
    u1 = model.transport_along(t, x, u0, dist, u0)
    return carried - 2.0 * model.inner(t, y, carried, u1)[..., None] * u1


def reference_coupled_chunk(model: ManifoldModel, sched, x1, x2, seed: int,
                            paths: range, *,
                            kind: CouplingKind = CouplingKind.REFLECTION,
                            delta_couple: float = 0.0, k: float = 0.0,
                            origin=None, exit_radius=None) -> dict:
    """The coupled kernel as a plain loop over every pair and every step:
    every step calls ``depart``, builds lambda*, the contraction weights
    and the trace, selects the coupled rows of X2 and of the second lift
    on every row, and concatenates the pair into one (2B, ambient) block
    for the drift and exp. Returns every record (``exited`` when
    ``exit_radius`` is set); each output of ``engine.coupled_chunk`` must
    have the bits of the one here under the same name."""
    B = len(paths)
    times, fracs = sched.times, sched.fracs
    n_steps = len(fracs)
    alpha = sched.alpha
    t1_win = float(times[0])
    m, d = model.dim, model.ambient_dim

    noise = rng.walk_noise_block(seed, paths, n_steps, m)
    X1 = np.broadcast_to(np.asarray(x1, dtype=float), (B, d)).copy()
    X2 = np.broadcast_to(np.asarray(x2, dtype=float), (B, d)).copy()
    coupled = np.zeros(B, dtype=bool)
    couple_step = np.full(B, -1, dtype=np.int64)
    if exit_radius is not None:
        o = np.asarray(origin if origin is not None else model.origin(),
                       dtype=float)
        exited = np.zeros(B, dtype=bool)
    run_min = np.full(B, np.inf)
    contraction_max = np.full(B, -np.inf)
    trace = {"skeleton1": [], "skeleton2": [], "distance": [],
             "lambda_star": [], "lift2": []}

    for n in range(n_steps + 1):
        t = float(times[n])
        dist, u0 = geo = model.depart(t, X1, X2)
        if not np.isfinite(dist).all():
            raise SingularConfiguration(f"non-finite distance at step {n}")
        newly = ~coupled & (dist <= delta_couple)
        coupled[newly] = True
        couple_step[newly] = n
        dist = np.where(coupled, 0.0, dist)
        weighted = np.exp(k * (t - t1_win) / 2.0) * dist
        np.maximum(contraction_max, weighted - run_min, out=contraction_max)
        np.minimum(run_min, weighted, out=run_min)
        if exit_radius is not None:
            out_o = model.distance(t, o, np.concatenate([X1, X2]))
            exited |= (out_o > exit_radius - 1.0).reshape(2, B).any(axis=0)
        X2 = np.where(coupled[:, None], X1, X2)
        for key, value in (("skeleton1", X1), ("skeleton2", X2),
                           ("distance", dist)):
            trace[key].append(value)
        if n == n_steps:
            break

        xi = noise[n]
        lift1 = model.lift(t, X1, xi)
        if kind is CouplingKind.REFLECTION:
            lift2 = model.mirror(t, X1, X2, lift1)
            lam = np.where(coupled, 2.0 * np.sqrt(m + 2.0) * xi[:, 0],
                           -2.0 * model.inner(t, X1, lift1, u0))
        else:
            lift2 = model.transport_along(t, X1, u0, geo[0], lift1)
            lam = np.zeros(B)
        lift2 = np.where(coupled[:, None], lift1, lift2)
        X = np.concatenate([X1, X2])
        w = alpha * np.concatenate([lift1, lift2])
        if model.has_drift:
            w = w + alpha ** 2 * model.drift(t, X)
        frac = float(fracs[n])
        X = model.exp(t, X, w if frac == 1.0 else frac * w)
        X1, X2 = X[:B], X[B:]
        trace["lambda_star"].append(lam)
        trace["lift2"].append(lift2)

    out = {"end1": X1, "end2": X2, "couple_step": couple_step,
           "final_distance": dist,
           "contraction_max": contraction_max,
           "noise": noise.transpose(1, 0, 2)}
    if exit_radius is not None:
        out["exited"] = exited
    out.update({key: np.stack(rows, axis=1) for key, rows in trace.items()})
    return out


def reference_walk_chunk(model: ManifoldModel, sched, x0, seed: int,
                         paths: range, *, origin=None, exit_radius=None,
                         radial=None, rate: str = "toward") -> dict:
    """The walk kernel as a plain loop over C-ordered (B, ambient) blocks:
    each step measures from the origin (the model method named ``rate``,
    ``toward`` or ``depart``, with a radial replay, ``distance`` without),
    runs the exit check and the violation flags, lifts the step's noise,
    moves rho by ``spec.step`` and takes the exp. Returns every record
    whose setting is given; each output of ``engine.walk_chunk`` must have
    the bits of the one here under the same name, with ``rate`` "toward".
    With "depart" the radial rate differs by rounding alone."""
    B = len(paths)
    times, fracs = sched.times, sched.fracs
    n_steps = len(fracs)
    alpha = sched.alpha
    noise = np.ascontiguousarray(
        rng.walk_noise_block(seed, paths, n_steps, model.dim))
    X = np.broadcast_to(np.asarray(x0, dtype=float),
                        (B, model.ambient_dim)).copy()
    o = np.asarray(origin if origin is not None else model.origin(),
                   dtype=float)
    exit_step = np.full(B, -1, dtype=np.int64)
    if radial is not None:
        spec, margin = radial["spec"], radial["margin"]
        rho = np.full(B, float(radial["rho0"]))
        violated = np.zeros(B, dtype=bool)
    trace = {"skeleton": [], "step_vectors": [], "rho_trace": []}

    for n in range(n_steps + 1):
        t = float(times[n])
        if radial is not None:
            d_o, toward = getattr(model, rate)(t, X, o)
        elif exit_radius is not None:
            d_o = model.distance(t, o, X)
        if exit_radius is not None:
            exit_step[(exit_step < 0) & (d_o > exit_radius - 1.0)] = n
        if radial is not None:
            violated |= (exit_step < 0) & (d_o > rho + margin)
            trace["rho_trace"].append(rho)
        trace["skeleton"].append(X)
        if n == n_steps:
            break

        xi = noise[n]
        frac = float(fracs[n])
        lift = model.lift(t, X, xi)
        w = alpha * lift
        if model.has_drift:
            w = w + alpha ** 2 * model.drift(t, X)
        if radial is not None:
            lam = np.where(d_o >= spec.r0, -model.inner(t, X, lift, toward),
                           np.sqrt(model.dim + 2.0) * xi[:, 0])
            rho = spec.step(rho, lam, alpha, frac)
        X = model.exp(t, X, w if frac == 1.0 else frac * w)
        trace["step_vectors"].append(w)

    out = {"end": X, "noise": noise.transpose(1, 0, 2),
           "skeleton": np.stack(trace["skeleton"], axis=1),
           "step_vectors": np.stack(trace["step_vectors"], axis=1)}
    if exit_radius is not None:
        out["exit_step"] = exit_step
    if radial is not None:
        out["radial_violation"] = violated
        out["rho_trace"] = np.stack(trace["rho_trace"], axis=1)
    return out


def reference_chart_geodesic(chart, t: float, x0, v0, min_steps: int):
    """RK4 trace of the chart's geodesic equation over affine parameter
    [0, 1], max(min_steps, ceil(|v0| / MAX_STEP)) steps: positions and
    velocities, each (n + 1, dim)."""
    n = max(min_steps, int(np.ceil(float(np.linalg.norm(v0)) / MAX_STEP)))
    h = 1.0 / n

    def rhs(x, xdot):
        gam = chart.christoffel(t, x)
        return xdot, -np.einsum("ijk,j,k->i", gam, xdot, xdot)

    xs = np.empty((n + 1, chart.dim))
    vs = np.empty((n + 1, chart.dim))
    xs[0], vs[0] = x0, v0
    x, v = np.array(x0, dtype=float), np.array(v0, dtype=float)
    for i in range(n):
        k1x, k1v = rhs(x, v)
        k2x, k2v = rhs(x + 0.5 * h * k1x, v + 0.5 * h * k1v)
        k3x, k3v = rhs(x + 0.5 * h * k2x, v + 0.5 * h * k2v)
        k4x, k4v = rhs(x + h * k3x, v + h * k3v)
        x = x + (h / 6.0) * (k1x + 2 * k2x + 2 * k3x + k4x)
        v = v + (h / 6.0) * (k1v + 2 * k2v + 2 * k3v + k4v)
        xs[i + 1], vs[i + 1] = x, v
    return xs, vs


def reference_chart_transport(chart, t: float, x0, v0, w0):
    """RK4 on the chart's joint geodesic and parallel-transport system
    over affine parameter [0, 1], MIN_STEPS at least: w at parameter 1."""
    n = max(MIN_STEPS, int(np.ceil(float(np.linalg.norm(v0)) / MAX_STEP)))
    h = 1.0 / n
    x = np.array(x0, dtype=float)
    v = np.array(v0, dtype=float)
    w = np.array(w0, dtype=float)

    def rhs(state):
        xx, vv, ww = state
        gam = chart.christoffel(t, xx)
        return (vv, -np.einsum("ijk,j,k->i", gam, vv, vv),
                -np.einsum("ijk,j,k->i", gam, vv, ww))

    for _ in range(n):
        s0 = (x, v, w)
        k1 = rhs(s0)
        k2 = rhs(tuple(a + 0.5 * h * b for a, b in zip(s0, k1)))
        k3 = rhs(tuple(a + 0.5 * h * b for a, b in zip(s0, k2)))
        k4 = rhs(tuple(a + h * b for a, b in zip(s0, k3)))
        x, v, w = (a + (h / 6.0) * (b1 + 2 * b2 + 2 * b3 + b4)
                   for a, b1, b2, b3, b4 in zip(s0, k1, k2, k3, k4))
    return w
