"""One-dimensional comparison processes, one transition each.

The Ornstein-Uhlenbeck process dU = -(k/2) U dt + 2 dB advances by its
exact Gaussian transition in ``ou_chunk``; the radial comparison process
with drift phi + psi advances by ``RadialComparisonSpec.step``, which
``engine.walk_chunk`` calls for the radial replay. Both act on a block of
paths at once; ``ou_kernel`` is the OU path kernel. Also here:
the meeting-probability helpers chi and beta, and the integral test that
decides explosion of the one-dimensional comparison diffusion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

import numpy as np

from . import engine, rng
from .errors import InvalidInput, is_number

_SMALL_K = 1e-8

# Steps of OU noise drawn per pass; a stream read in slabs yields the same
# normals as one read of the whole path.
_OU_SLAB = 1024

# The outputs ou_chunk can compute.
OU_RECORDS = frozenset({"alive", "end"})

# math.erf applied to each element, so an array entry equals the scalar call.
_erf = np.vectorize(math.erf, otypes=[float])


def chi(a):
    """Two-sided standard normal mass: P(|N(0,1)| <= a) = erf(a / sqrt 2)."""
    a = np.asarray(a, dtype=float)
    if np.any(a < 0):
        raise InvalidInput("chi is defined for nonnegative arguments")
    out = _erf(a / math.sqrt(2.0))
    return float(out) if out.ndim == 0 else out


def beta(t, k: float):
    """(e^{k t} - 1)/k, continuously extended through k = 0 by t."""
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise InvalidInput("beta is defined for nonnegative times")
    if abs(k) < _SMALL_K:
        kt = k * t
        out = t * (1.0 + kt / 2.0 + kt * kt / 6.0)
    else:
        out = np.expm1(k * t) / k
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class OUParams:
    """Initial value and decay constant of the OU process."""
    a: float
    k: float

    def __post_init__(self):
        if self.a < 0:
            raise InvalidInput("OU initial value must be nonnegative",
                               key="a")


def _ou_transition(k: float, h: float) -> tuple[float, float]:
    """Decay factor and transition standard deviation over one step h."""
    decay = math.exp(-k * h / 2.0)
    if abs(k) < _SMALL_K:
        var = 4.0 * h * (1.0 - k * h / 2.0 + (k * h) ** 2 / 6.0)
    else:
        var = 4.0 * (-math.expm1(-k * h)) / k
    return decay, math.sqrt(var)


def ou_chunk(params: OUParams, h: float, n_steps: int, seed: int,
             paths: range, *, last: float | None = None,
             records=None) -> dict:
    """A block of OU paths from ``params.a`` over n_steps exact transitions
    of length h, the last of length ``last`` when given.

    Path i is driven by the standard normals of
    ``rng.stream(seed, PURPOSE_OU, i)``, read _OU_SLAB steps at a time so
    the block's noise stays at len(paths) x _OU_SLAB floats. ``records``
    names the outputs, from ``OU_RECORDS`` (None gives both): each path's
    value after the last step (``end``) and whether its start and every
    value after it were positive (``alive``), so a path from a = 0 is dead.
    """
    records = engine._checked_records("ou_chunk", records, OU_RECORDS,
                                      OU_RECORDS, {})
    steps = [_ou_transition(params.k, h)] * (n_steps - 1) \
        + [_ou_transition(params.k, h if last is None else last)]
    streams = [rng.stream(seed, rng.PURPOSE_OU, i) for i in paths]
    u = np.full(len(paths), params.a)
    alive = np.full(len(paths), params.a > 0.0)
    for s0 in range(0, n_steps, _OU_SLAB):
        shocks = np.empty((len(paths), min(_OU_SLAB, n_steps - s0)))
        for row, gen in zip(shocks, streams):
            gen.standard_normal(out=row)
        for z, (decay, sd) in zip(shocks.T, steps[s0:]):
            u = decay * u + sd * z
            alive &= u > 0.0
    out = {"alive": alive, "end": u}
    return {name: out[name] for name in records}


def ou_kernel(params: OUParams, horizon: float, h: float, seed: int,
              n_paths: int) -> engine.PathKernel:
    """``ou_chunk`` over ceil(horizon / h) steps of length h (h > 0), the
    last one cut to end at the horizon as ``walk.Schedule`` cuts its last
    step, and the params of ``n_paths`` paths (at least 1000). The
    fraction of ``alive`` paths misses barrier hits between steps, a known
    O(sqrt h) positive bias against chi(a / (2 sqrt(beta(horizon, k))))."""
    if not h > 0.0:
        raise InvalidInput("OU step h must be positive", key="ou_h")
    if n_paths < 1000:
        raise InvalidInput("OU survival needs >= 1000 paths", key="n_paths")
    n_steps = int(math.ceil(horizon / h - 1e-9))
    # a whole step when h divides the horizon up to the rounding above
    last = horizon - (n_steps - 1) * h
    return engine.PathKernel(
        partial(ou_chunk, params, h, n_steps, seed,
                last=None if last > h * (1.0 - 1e-9) else last),
        {"a": params.a, "k": params.k, "h": h, "horizon": horizon,
         "n_paths": n_paths}, seed)


# ---------------------------------------------------------------------------
# Radial comparison process
# ---------------------------------------------------------------------------

def _cutoff_bridge(s: np.ndarray) -> np.ndarray:
    """Monotone cubic joining value 2 / slope -2 at s=0 to 0 / 0 at s=1."""
    return 2.0 * (s - 1.0) ** 2 * (s + 1.0)


@dataclass(frozen=True)
class RadialComparisonSpec:
    """Drift data for the radial comparison process.

    ``b`` is a locally bounded nonnegative function on [0, inf);
    phi(r) = c0 + (1/2) int_0^r b, and psi is the nonincreasing locally
    Lipschitz cutoff equal to 2/(r - 2 r0) on (2 r0, 2 r0 + 1], joined by a
    monotone cubic to 0 on [2 r0 + 2, inf).
    """
    b: Callable[[np.ndarray], np.ndarray]
    c0: float = 1.0
    r0: float = 0.5
    # Rows grid j / 256, b on the grid, int_0^grid b and the integral's
    # slope on each gap then a trailing 0, grown by b_integral: the first
    # columns of a zeroed buffer that at least doubles when full.
    _table: np.ndarray = field(default_factory=lambda: np.zeros((4, 0)),
                               init=False, repr=False, compare=False)
    _buffer: np.ndarray = field(default_factory=lambda: np.zeros((4, 0)),
                                init=False, repr=False, compare=False)

    def __post_init__(self):
        for key in ("c0", "r0"):
            if getattr(self, key) <= 0:
                raise InvalidInput(f"{key} must be positive", key=key)

    def b_integral(self, r) -> np.ndarray:
        """int_0^r b by composite trapezoid on the grid j / 256.

        The grid's nodes do not depend on r, only how far it reaches, so a
        point's value does not depend on the points passed with it. The
        spec keeps the table it has built and grows it only when r reaches
        past it, with the bits of a table built afresh.

        The nodes are j / 256, so r's gap is j = floor(256 r) and no search
        is needed. The value is np.interp's, bit for bit: slope_j
        (r - grid_j) + cum_j, 0 below the grid, and the trailing zero slope
        gives cum[-1] at the last node.
        """
        r = np.asarray(r, dtype=float)
        n = max(64, math.ceil(float(r.max(initial=0.0)) * 256))
        if self._table.shape[1] <= n:
            self._extend_table(n)
        grid, _, cum, slopes = self._table
        r = np.maximum(r, 0.0)
        j = (256.0 * r).astype(np.intp)
        out = slopes[j] * (r - grid[j]) + cum[j]
        return float(out) if out.ndim == 0 else out

    def _extend_table(self, n: int) -> None:
        """Grow the table to the nodes j / 256 for j = 0..n, evaluating b
        only at the new nodes; np.cumsum adds in order, so continuing the
        integral from its last value keeps the bits of a fresh table."""
        old = self._table.shape[1]
        new_grid = np.arange(old, n + 1) / 256.0
        new_vals = np.asarray(self.b(new_grid), dtype=float)
        if np.any(~np.isfinite(new_vals)) or np.any(new_vals < 0):
            raise InvalidInput("b must be finite and nonnegative")
        buffer = self._buffer
        if buffer.shape[1] <= n:
            buffer = np.zeros((4, max(n + 1, 2 * old)))
            buffer[:, :old] = self._table
            object.__setattr__(self, "_buffer", buffer)
        grid, vals, cum, slopes = buffer
        grid[old:n + 1], vals[old:n + 1] = new_grid, new_vals
        s = max(old, 1)  # cum[0] = 0
        gaps = np.diff(grid[s - 1:n + 1])
        cum[s:n + 1] = 0.5 * (vals[s:n + 1] + vals[s - 1:n]) * gaps
        np.cumsum(cum[s - 1:n + 1], out=cum[s - 1:n + 1])
        slopes[s - 1:n] = np.diff(cum[s - 1:n + 1]) / gaps
        object.__setattr__(self, "_table", buffer[:, :n + 1])

    def phi(self, r) -> np.ndarray:
        return self.c0 + 0.5 * self.b_integral(r)

    def psi(self, r) -> np.ndarray:
        r = np.asarray(r, dtype=float)
        s = r - 2.0 * self.r0
        s = np.maximum(s, 1e-9)
        # The bridge is +0.0 at its clipped end, so s >= 2 needs no branch;
        # np.clip's bits, without its dispatch.
        out = np.where(s <= 1.0, 2.0 / s, _cutoff_bridge(
            np.minimum(np.maximum(s - 1.0, 0.0), 1.0)))
        return float(out) if out.ndim == 0 else out

    def step(self, rho, lam, alpha: float, frac: float):
        """One transition of a block of radial comparison paths:
        rho + frac (alpha lam + alpha^2 (phi(rho) + psi(rho)))."""
        return rho + frac * (alpha * lam
                             + alpha ** 2 * (self.phi(rho) + self.psi(rho)))


def builtin_b(spec: dict) -> Callable[[np.ndarray], np.ndarray]:
    """Named drift profiles: zero, constant(c), linear(slope = 1), or a
    table sampled at strictly increasing points r, linearly interpolated;
    each nonnegative. Each number is a finite JSON number (``is_number``),
    and a key the profile does not read is refused."""
    if not isinstance(spec, dict):
        raise InvalidInput(f"b must be an object with a 'name', not {spec!r}")
    name = spec.get("name")
    # the keys each profile reads; all but linear's slope are required
    reads = {"zero": (), "constant": ("c",), "linear": ("slope",),
             "table": ("r", "values")}
    if not isinstance(name, str) or name not in reads:
        raise InvalidInput(f"unknown b profile: {name!r}")
    for key in sorted(set(spec) - {"name", *reads[name]}):
        raise InvalidInput(f"{name} b takes no key {key!r}")
    for key in sorted(set(reads[name]) - set(spec) - {"slope"}):
        raise InvalidInput(f"{name} b needs {key!r}")
    for key in sorted(set(reads[name]) & set(spec)):
        value = spec[key]
        if key in ("r", "values"):
            if not (isinstance(value, list) and value
                    and all(is_number(v) for v in value)):
                raise InvalidInput(f"{key} must be a nonempty list of finite "
                                   f"numbers, not {value!r}", key=key)
        elif not is_number(value):
            raise InvalidInput(f"{key} must be a finite number, not "
                               f"{value!r}", key=key)
    if name == "zero":
        return lambda r: np.zeros_like(np.asarray(r, dtype=float))
    if name == "constant":
        c = float(spec["c"])
        if c < 0:
            raise InvalidInput("constant b must be nonnegative")
        return lambda r: np.full_like(np.asarray(r, dtype=float), c)
    if name == "linear":
        slope = float(spec.get("slope", 1.0))
        if slope < 0:
            raise InvalidInput("linear b must have a nonnegative slope")
        return lambda r: slope * np.asarray(r, dtype=float)
    xs = np.asarray(spec["r"], dtype=float)
    ys = np.asarray(spec["values"], dtype=float)
    if np.any(ys < 0):
        raise InvalidInput("table values must be nonnegative")
    if xs.shape != ys.shape:
        raise InvalidInput("table r and values must be lists of one length")
    if not np.all(np.diff(xs) > 0):
        raise InvalidInput("table r must be strictly increasing")
    return lambda r: np.interp(np.asarray(r, dtype=float), xs, ys)


# ---------------------------------------------------------------------------
# Explosion test for the comparison diffusion
# ---------------------------------------------------------------------------

@dataclass
class FellerResult:
    """Outcome of the explosion integral test."""
    verdict: str                 # "survives" | "explodes" | "inconclusive"
    integral: float              # value at y_max
    decay_exponent: float        # fitted decay rate of the outer integrand

    @property
    def explodes(self) -> bool:
        return self.verdict == "explodes"

    @property
    def survives(self) -> bool:
        return self.verdict == "survives"


def _feller_integral(bb: Callable[[np.ndarray], np.ndarray], y_max: float,
                     n_grid: int) -> tuple[float, np.ndarray, np.ndarray]:
    """J(y_max) = int_1^{y_max} f with f(y) = int_1^y e^{B(z) - B(y)} dz.

    Exponentially fitted one-step recurrence, exact for piecewise-constant
    drift: f_{i+1} = e^{-dB} f_i + (1 - e^{-dB}) / b_mid with
    dB = b_mid h >= 0, so it stays stable and overflow-free however fast
    the drift grows.
    """
    ys = np.linspace(1.0, y_max, n_grid + 1)
    h = ys[1] - ys[0]
    bvals = np.asarray(bb(ys), dtype=float)
    if np.any(~np.isfinite(bvals)) or np.any(bvals <= 0.0):
        raise InvalidInput("comparison drift must be finite and positive")
    b_mid = 0.5 * (bvals[1:] + bvals[:-1])
    dB = b_mid * h
    f = np.empty(n_grid + 1)
    f[0] = 0.0
    for i in range(n_grid):
        e = math.exp(-min(dB[i], 700.0))
        f[i + 1] = e * f[i] + (1.0 - e) / b_mid[i] if dB[i] > 1e-12 \
            else f[i] + h
    J = float(np.trapezoid(f, ys))
    return J, ys, f


def check_feller_range(C: float, y_max: float) -> None:
    """The explosion test needs C > 0 and an outer range y_max >= 10."""
    if not C > 0:
        raise InvalidInput("C must be positive", key="C")
    if not y_max >= 10.0:
        raise InvalidInput("y_max must be at least 10", key="y_max")


def feller_explosion_test(b: Callable[[np.ndarray], np.ndarray], C: float,
                          y_max: float = 20.0) -> FellerResult:
    """Decide whether the comparison diffusion with drift (C + int_0^y b)/2
    reaches infinity in finite time.

    The diffusion survives exactly when the nested integral diverges as
    y_max grows; divergence is classified from the decay exponent p of the
    outer integrand between y_max/2 and y_max (p <= 1.02 survives,
    p >= 1.15 explodes, in between inconclusive), on 4000 quadrature steps
    with a check at half as many.
    """
    check_feller_range(C, y_max)
    spec = RadialComparisonSpec(b=b, c0=1.0, r0=0.5)

    def bb(y):
        return C + spec.b_integral(y)

    def classify(n: int):
        J, ys, f = _feller_integral(bb, y_max, n)
        f_end = float(f[-1])
        i_mid = int(np.searchsorted(ys, 0.5 * (1.0 + y_max)))
        f_mid = float(f[i_mid])
        if not math.isfinite(J):
            return "inconclusive", J, math.nan
        if f_end <= 0.0 or f_mid <= 0.0:
            return "explodes", J, math.inf
        # outer integrand decays like y^-p over the window's second half
        p = math.log(f_mid / f_end) / math.log(ys[-1] / ys[i_mid])
        if p <= 1.02:
            return "survives", J, p
        if p >= 1.15:
            return "explodes", J, p
        return "inconclusive", J, p

    verdict, J, p = classify(4000)
    if classify(2000)[0] != verdict:
        verdict = "inconclusive"
    return FellerResult(verdict, J, p)
