"""Monte Carlo aggregation and statistical verification.

Every Monte Carlo experiment runs a kernel partial over fixed-size path
chunks, in worker processes when more than one is asked for; the per-path
results are concatenated in path order and reduced once, so reports are
identical for any worker count. The path-kernel experiments share one
skeleton, ``mc_report``: an ``engine.PathKernel`` (``coupled_kernel``,
``walk_kernel`` or ``comparison.ou_kernel``, each with the params block of
its kinds), the records the experiment reads, and a reduction to the
estimate and the params it adds; the estimators and the convergence
diagnostic run the kernels their caller built, each on its own schedule,
and read the settings from their params. Every estimate-against-bound
kind passes by one rule, ``bound_report``'s: estimate <= bound + 3 stderr
+ declared bias. An estimate of an absolute difference takes its interval
from ``McEstimate.abs_deviation``.

Only the convergence diagnostics need scipy; they import ``scipy.special``
when called, so importing this module loads numpy alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, Sequence

import numpy as np

from . import engine
from .comparison import beta
from .coupling import coupling_probability_bound
from .engine import CouplingKind
from .errors import InvalidInput
from .walk import Schedule

CHUNK = 2048
QUANTILE_GRID = 20001   # nodes of reference_quantiles' CDF table


# ---------------------------------------------------------------------------
# Estimates and reports
# ---------------------------------------------------------------------------

@dataclass
class McEstimate:
    """Sample mean with standard error and a 95% interval."""
    n: int
    mean: float
    stderr: float
    ci95: tuple[float, float]

    @classmethod
    def from_samples(cls, x: np.ndarray) -> "McEstimate":
        """Normal interval; the variance is two-pass, so it does not cancel
        when the mean is large against the spread."""
        x = np.asarray(x, dtype=float)
        n = len(x)
        if n == 0:
            raise InvalidInput("estimate needs at least one sample")
        mean = float(np.sum(x)) / n
        stderr = math.sqrt(float(np.sum((x - mean) ** 2)) / n / n)
        return cls(n, mean, stderr, (mean - 1.96 * stderr,
                                     mean + 1.96 * stderr))

    @classmethod
    def from_bernoulli(cls, successes: int, n: int) -> "McEstimate":
        """Closed-form variance p - p^2; Wilson interval outside
        [0.1, 0.9]."""
        if n <= 0:
            raise InvalidInput("estimate needs at least one sample")
        p = successes / n
        stderr = math.sqrt((p - p * p) / n)
        if p < 0.1 or p > 0.9:
            ci = _wilson_interval(successes, n)
        else:
            ci = (p - 1.96 * stderr, p + 1.96 * stderr)
        return cls(n, p, stderr, ci)

    def abs_deviation(self, target: float = 0.0) -> "McEstimate":
        """The estimate of |mean - target| with the same stderr; its
        interval is the normal interval of mean - target folded onto
        [0, inf) under abs."""
        dev = self.mean - target
        lo, hi = dev - 1.96 * self.stderr, dev + 1.96 * self.stderr
        if lo < 0.0:
            lo, hi = (-hi, -lo) if hi <= 0.0 else (0.0, max(-lo, hi))
        return McEstimate(self.n, abs(dev), self.stderr, (lo, hi))

    def to_dict(self) -> dict:
        return {"n": self.n, "mean": self.mean, "stderr": self.stderr,
                "ci95": [self.ci95[0], self.ci95[1]]}


def _wilson_interval(successes: float, n: int):
    p, z = successes / n, 1.96
    denom = 1.0 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = z * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n)) / denom
    return (max(center - half, 0.0), min(center + half, 1.0))


@dataclass
class VerificationReport:
    """What one experiment measured and what its kind decided about it.

    ``bound`` and ``passed`` are the kind's decision: a number and a flag
    where an estimate is checked against a bound (``bound_report``) and
    for ``verify-contraction``'s maximum, None and a flag for
    ``convergence`` and ``feller-test``, None and None for ``walk`` and
    ``couple``, which check nothing. ``check`` names the
    statistic and the pass rule with its tolerance (None without a check);
    ``estimate`` is None where a kind computes no sample mean.
    """
    experiment_id: str
    estimate: McEstimate | None
    metadata: dict
    bound: float | None = None
    passed: bool | None = None
    check: dict | None = None
    bias: float = 0.0

    def to_dict(self) -> dict:
        return {
            "id": self.experiment_id,
            "params": self.metadata.get("params", {}),
            "estimate": self.estimate.to_dict() if self.estimate else None,
            "bound": self.bound,
            "pass": self.passed,
            "check": self.check,
            "bias_terms": {"declared": self.bias},
            "seed": self.metadata.get("seed"),
            "runtime_ms": self.metadata.get("runtime_ms"),
        }


def bound_report(experiment_id: str, estimate: McEstimate, metadata: dict,
                 *, statistic: str, bound: float,
                 bias: float = 0.0) -> VerificationReport:
    """The report of an estimate checked against ``bound``: pass when
    estimate <= bound + 3 stderr + declared bias."""
    return VerificationReport(
        experiment_id, estimate, metadata, bound,
        bool(bound + 3.0 * estimate.stderr + bias >= estimate.mean),
        {"statistic": statistic,
         "rule": "estimate.mean <= bound + 3 stderr + declared bias"}, bias)


# ---------------------------------------------------------------------------
# Process-parallel map over fixed path chunks
# ---------------------------------------------------------------------------

# The chunk function of a pool worker, set in each worker by _install_task;
# the calling process never sets it.
_task: Callable[[range], dict] | None = None


def _install_task(fn: Callable[[range], dict]) -> None:
    global _task
    _task = fn


def _run_task(paths: range) -> dict:
    return _task(paths)


def _fork_context():
    """The fork start method's context, or None where the platform has none."""
    import multiprocessing  # only multi-worker maps pay for the import

    if "fork" not in multiprocessing.get_all_start_methods():
        return None
    return multiprocessing.get_context("fork")


def path_ranges(n_paths: int, chunk: int = CHUNK) -> list[range]:
    """The fixed path chunks of a run of ``n_paths`` paths, which must be
    positive."""
    if n_paths <= 0:
        raise InvalidInput(f"n_paths must be positive, not {n_paths}",
                           key="n_paths")
    return [range(i, min(i + chunk, n_paths))
            for i in range(0, n_paths, chunk)]


def map_path_chunks(n_paths: int, fn: Callable[[range], dict],
                    workers: int = 1, chunk: int = CHUNK
                    ) -> dict[str, np.ndarray]:
    """Apply fn to fixed path ranges and concatenate its per-path arrays.

    ``fn`` is a kernel partial returning arrays whose first axis is the
    path; the result maps each key to its arrays concatenated in path
    order. With ``workers > 1`` and more than one chunk, the chunks run in
    ``min(workers, chunks)`` worker processes started by fork and joined
    before this returns. The workers inherit ``fn`` across the fork, so it
    need not pickle; only the ranges go out and the per-chunk dicts come
    back. Without fork the chunks run in this process. Chunk boundaries do
    not depend on the worker count, and each path's randomness is keyed by
    its global index, so the result is identical for any ``workers``.
    """
    ranges = path_ranges(n_paths, chunk)
    processes = min(workers, len(ranges))
    context = _fork_context() if processes > 1 else None
    if context is None:
        parts = [fn(r) for r in ranges]
    else:
        with context.Pool(processes, initializer=_install_task,
                          initargs=(fn,)) as pool:
            parts = pool.map(_run_task, ranges, chunksize=1)
            pool.close()
            pool.join()
    return {key: np.concatenate([p[key] for p in parts]) for key in parts[0]}


# ---------------------------------------------------------------------------
# The estimator skeleton
# ---------------------------------------------------------------------------

def mc_report(experiment_id: str, kernel: engine.PathKernel, records,
              reduce: Callable[[dict], tuple[McEstimate | None, dict]], *,
              bound: float | None = None, statistic: str | None = None,
              bias: float = 0.0, workers: int = 1) -> VerificationReport:
    """Run ``kernel`` for the ``records`` the caller reads, reduce them
    once and report.

    ``reduce`` maps the records of every path, in path order, to the
    estimate and the params the kind adds to the kernel's block. The
    estimate is checked against ``bound`` (``bound_report``) if one is
    given.
    """
    estimate, extra = reduce(map_path_chunks(
        kernel.params["n_paths"], partial(kernel.fn, records=records),
        workers))
    metadata = {"params": {**kernel.params, **extra}, "seed": kernel.seed}
    if bound is None:
        return VerificationReport(experiment_id, estimate, metadata)
    return bound_report(experiment_id, estimate, metadata,
                        statistic=statistic, bound=bound, bias=bias)


def proportion(flags: np.ndarray) -> McEstimate:
    """The fraction of True entries of a per-path flag array."""
    return McEstimate.from_bernoulli(int(np.count_nonzero(flags)), len(flags))


# ---------------------------------------------------------------------------
# Verification estimators
# ---------------------------------------------------------------------------

def estimate_coupling_survival(kernel: engine.PathKernel, *,
                               workers: int = 1, bias: float = 0.0,
                               experiment_id: str = "coupling-survival"
                               ) -> VerificationReport:
    """Fraction of the reflection-coupled pairs of a ``coupled_kernel``
    that never meet by the horizon, against the normal-mass bound at
    d0 / (2 sqrt(beta(T - t1)))."""
    p = kernel.params
    if p["coupling"] != CouplingKind.REFLECTION.value:
        raise InvalidInput("survival estimate requires the reflection kind")
    bound = coupling_probability_bound(p["d0"], p["k"], p["horizon"])
    return mc_report(experiment_id, kernel, {"couple_step"},
                     lambda res: (proportion(res["couple_step"] < 0), {}),
                     bound=bound, bias=bias, workers=workers,
                     statistic="fraction of pairs not coupled by t2")


def check_contraction(kernel: engine.PathKernel, *, coefficient: float = 5.0,
                      workers: int = 1,
                      experiment_id: str = "contraction") -> VerificationReport:
    """Largest increase of e^{k(t-t1)/2} d_{g(t)} over skeleton pairs s <= t,
    across the paths of a parallel ``coupled_kernel``, against
    coefficient * alpha.

    A maximum is no sample mean, so the report has no estimate: it gives
    the maximum as ``params.max_rise`` and the mean of the per-path maxima
    as ``params.per_path_mean``, and passes when max_rise <= bound.
    """
    if kernel.params["coupling"] != CouplingKind.PARALLEL_TRANSPORT.value:
        raise InvalidInput("contraction check requires the parallel kind")

    def reduce(res):
        maxima = res["contraction_max"]
        return None, {"coefficient": coefficient,
                      "max_rise": float(np.max(maxima)),
                      "per_path_mean": float(np.mean(maxima))}

    report = mc_report(experiment_id, kernel, {"contraction_max"}, reduce,
                       workers=workers)
    report.bound = coefficient * kernel.params["alpha"]
    report.passed = report.metadata["params"]["max_rise"] <= report.bound
    report.check = {
        "statistic": "largest rise of e^{k(t-t1)/2} d over paths",
        "rule": "params.max_rise <= bound"}
    return report


def check_gradient_estimate(kernel: engine.PathKernel,
                            f: Callable[[np.ndarray], np.ndarray],
                            osc: float, *, workers: int = 1,
                            experiment_id: str = "gradient"
                            ) -> VerificationReport:
    """|E f(X1(T)) - E f(X2(T))| over the common-noise pairs of a
    ``coupled_kernel``, against d0 osc / sqrt(2 pi beta(T - t1))."""
    d0, horizon, k = (kernel.params[key] for key in ("d0", "horizon", "k"))

    def reduce(res):
        signed = McEstimate.from_samples(
            np.asarray(f(res["end1"]), dtype=float)
            - np.asarray(f(res["end2"]), dtype=float))
        return (signed.abs_deviation(),
                {"osc": osc, "signed_mean": signed.mean})

    bound = d0 * osc / math.sqrt(2.0 * math.pi * beta(horizon, k))
    return mc_report(experiment_id, kernel, {"end"}, reduce, bound=bound,
                     workers=workers,
                     statistic="|E f(X1(t2)) - E f(X2(t2))|")


# ---------------------------------------------------------------------------
# Distribution diagnostics
# ---------------------------------------------------------------------------

@dataclass
class KsResult:
    statistic: float
    threshold: float
    level: float
    n: int

    @property
    def passed(self) -> bool:
        return self.statistic <= self.threshold


def check_ks_size(n: int) -> None:
    """Refuse fewer than 100 samples for the asymptotic KS threshold; a
    run draws one sample per path, so the error names ``n_paths``."""
    if n < 100:
        raise InvalidInput(f"the KS test needs at least 100 samples, not {n}",
                           key="n_paths")


def ks_statistic(samples: np.ndarray, cdf: Callable[[np.ndarray], np.ndarray],
                 level: float = 0.01) -> KsResult:
    """sup |F_emp - F| with the asymptotic Kolmogorov threshold at ``level``.

    ``special.kolmogi(level)`` is ``scipy.stats.kstwobign.isf(level)``.
    """
    from scipy import special

    x = np.sort(np.asarray(samples, dtype=float))
    n = len(x)
    check_ks_size(n)
    F = np.clip(np.asarray(cdf(x), dtype=float), 0.0, 1.0)
    up = np.arange(1, n + 1) / n
    lo = np.arange(0, n) / n
    stat = float(max(np.max(up - F), np.max(F - lo)))
    threshold = float(special.kolmogi(level) / math.sqrt(n))
    return KsResult(stat, threshold, level, n)


def wasserstein1_1d(a: np.ndarray, b: np.ndarray) -> float:
    """Order-1 transport distance of two empirical laws on the line.

    Equal sizes: mean absolute difference of sorted samples; otherwise both
    empirical quantile functions are evaluated on a common midpoint grid.
    """
    a = np.sort(np.asarray(a, dtype=float))
    b = np.sort(np.asarray(b, dtype=float))
    if len(a) == 0 or len(b) == 0:
        raise InvalidInput("wasserstein1_1d: empty input")
    if len(a) == len(b):
        return float(np.mean(np.abs(a - b)))
    n = max(len(a), len(b))
    q = (np.arange(n) + 0.5) / n
    qa = np.quantile(a, q, method="inverted_cdf")
    qb = np.quantile(b, q, method="inverted_cdf")
    return float(np.mean(np.abs(qa - qb)))


def gaussian_cdf(mean: float, var: float) -> Callable[[np.ndarray], np.ndarray]:
    from scipy import special

    sd = math.sqrt(var)
    return lambda x: special.ndtr((np.asarray(x, dtype=float) - mean) / sd)


def wrapped_gaussian_cdf(mu: float, var: float
                         ) -> Callable[[np.ndarray], np.ndarray]:
    """CDF on (-pi, pi] of a Gaussian wrapped around the circle, summed
    over enough wraps to cover 4 standard deviations and 3 more."""
    from scipy import special

    sd = math.sqrt(var)
    n_wraps = int(math.ceil(4.0 * sd / (2 * math.pi))) + 3

    def cdf(theta):
        theta = np.asarray(theta, dtype=float)
        total = np.zeros_like(theta)
        for j in range(-n_wraps, n_wraps + 1):
            shift = 2 * math.pi * j
            total = total + (special.ndtr((theta + shift - mu) / sd)
                             - special.ndtr((-math.pi + shift - mu) / sd))
        return np.clip(total, 0.0, 1.0)

    return cdf


def reference_quantiles(cdf: Callable[[np.ndarray], np.ndarray], n: int,
                        lo: float, hi: float) -> np.ndarray:
    """Quantiles at midpoint levels by inverting a CDF on a dense grid."""
    xs = np.linspace(lo, hi, QUANTILE_GRID)
    Fs = np.asarray(cdf(xs), dtype=float)
    q = (np.arange(n) + 0.5) / n
    return np.interp(q, Fs, xs)


def circle_angles(points: np.ndarray) -> np.ndarray:
    """Angles in (-pi, pi] of points on the embedded unit circle."""
    return np.arctan2(points[..., 1], points[..., 0])


def alpha_schedules(t1: float, t2: float, alphas) -> list[Schedule]:
    """The schedule of each of ``alphas``, which must strictly decrease."""
    schedules = [Schedule(t1, t2, alpha) for alpha in alphas]
    if any(a2 >= a1 for a1, a2 in zip(alphas, alphas[1:])):
        raise InvalidInput("alphas must be strictly decreasing", key="alphas")
    return schedules


def convergence_diagnostic(kernels: Sequence[engine.PathKernel],
                           observable: Callable[[np.ndarray], np.ndarray],
                           reference_cdf: Callable[[np.ndarray], np.ndarray],
                           reference_support: tuple[float, float],
                           workers: int = 1) -> list[dict]:
    """Endpoint-law diagnostics against a reference distribution, one row
    per ``walk_kernel`` (one per alpha, from ``alpha_schedules``).

    Each row gives the kernel's alpha, the transport distance to the
    reference quantiles and the KS statistic at level 0.01.
    """
    rows = []
    for kernel in kernels:
        ends = map_path_chunks(kernel.params["n_paths"],
                               partial(kernel.fn, records={"end"}),
                               workers)["end"]
        samples = np.asarray(observable(ends), dtype=float)
        ref_q = reference_quantiles(reference_cdf, len(samples),
                                    *reference_support)
        ks = ks_statistic(samples, reference_cdf)
        rows.append({"alpha": kernel.params["alpha"], "n": len(samples),
                     "w1": wasserstein1_1d(samples, ref_q),
                     "ks_statistic": ks.statistic,
                     "ks_threshold": ks.threshold, "ks_pass": ks.passed})
    return rows
