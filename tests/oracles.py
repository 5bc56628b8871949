"""Independent numerical oracles used to freeze expected test values.

Everything here deliberately avoids the library's own formulas: Gaussian
masses come from quadrature of the density, sphere geodesics and transports
from integrating the constrained ambient ODEs, and the wrapped Gaussian
from its Fourier series. The exceptions are references the library must
reproduce bit for bit: the sphere frame, a row-wise Gram-Schmidt, because
replayed noise depends on the frame, and the drift integral's lookup,
numpy's own interpolation of the spec's trapezoid table.
"""

import numpy as np
from scipy.integrate import quad


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


def table_interp(r, grid: np.ndarray, cum: np.ndarray):
    """int_0^r b read off a trapezoid table (nodes ``grid``, integrals
    ``cum``) by np.interp's binary search and linear interpolation, which
    RadialComparisonSpec.b_integral's bracket lookup must equal bit for
    bit."""
    return np.interp(r, grid, cum)
