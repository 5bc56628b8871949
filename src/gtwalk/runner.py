"""Experiment dispatch: execute a parsed config, write reports and dumps."""

from __future__ import annotations

import csv
import json
import math
import time
from pathlib import Path

import numpy as np

from . import __version__, engine
from .comparison import (OUParams, RadialComparisonSpec, builtin_b,
                         feller_explosion_test)
from .config import (COUPLED_KINDS, DUMP_KINDS, ExperimentConfig,
                     RunManifest, convergence_reference, resolve_start,
                     resolve_start_points)
from .coupling import (CouplingConfig, CouplingKind, coupled_kernel,
                       run_coupled)
from .errors import ConfigError
from .manifolds import ManifoldModel
from .stats import (McEstimate, VerificationReport, check_contraction,
                    check_gradient_estimate, circle_angles,
                    convergence_diagnostic, estimate_coupling_survival,
                    gaussian_cdf, mc_report, ou_survival_probability,
                    proportion, wrapped_gaussian_cdf)
from .walk import Schedule, WalkConfig, run_walk, walk_kernel


def _coupling_config(config: ExperimentConfig,
                     model: ManifoldModel) -> CouplingConfig:
    """The CouplingConfig of a coupled kind: verify-contraction and a
    ``couple`` config with ``coupling: parallel`` use parallel transport,
    the rest reflection."""
    x1, x2 = resolve_start_points(config, model)
    parallel = config.kind == "verify-contraction" \
        or config.get("coupling") == "parallel"
    return CouplingConfig(
        alpha=config["alpha"], t1=config["t1"], t2=config["t2"],
        seed=config["seed"], start1=x1, start2=x2,
        kind=CouplingKind.PARALLEL_TRANSPORT if parallel
        else CouplingKind.REFLECTION,
        delta_couple=config["delta_couple"], k=config["k"],
        stick_after_coupling=bool(config.get("stick", True)),
        origin=config.get("origin"), exit_radius=config.get("exit_radius"))


def _halfspace(f_spec: dict):
    normal = np.asarray(f_spec["normal"], dtype=float)
    offset = float(f_spec["offset"])

    def f(points: np.ndarray) -> np.ndarray:
        return (points @ normal <= offset).astype(float)

    return f


def execute(config: ExperimentConfig, workers: int = 1,
            out_dir: str | Path | None = None) -> VerificationReport:
    """Run one experiment and return its report (artifacts to out_dir)."""
    model = config.build_model()
    start_time = time.perf_counter()
    report = _RUNS[config.kind](config, model, workers)
    report.metadata["runtime_ms"] = int(
        (time.perf_counter() - start_time) * 1000)
    report.metadata.setdefault("params", {})["config_hash"] = \
        config.config_hash()
    if out_dir is not None:
        _write_artifacts(config, model, report, Path(out_dir))
    return report


def _walk_kernel(config, model, start, radial=None) -> engine.PathKernel:
    """The walk kernel of a ``walk`` or ``radial-domination`` config."""
    return walk_kernel(model, Schedule(config["t1"], config["t2"],
                                       config["alpha"]),
                       start, config["seed"], int(config["n_paths"]),
                       origin=config.get("origin"),
                       exit_radius=config["exit_radius"], radial=radial)


def _run_walk(config, model, workers):
    start = resolve_start(config, model)
    exits = config["exit_radius"] is not None
    return mc_report(
        "walk", _walk_kernel(config, model, start),
        {"end"} | ({"exit_step"} if exits else set()),
        lambda res: (McEstimate.from_samples(
            model.distance(config["t2"], start, res["end"])), {
            "exit_fraction": float(np.mean(res["exit_step"] >= 0))
            if exits else None,
            "observable": "displacement-distance"}),
        bound=math.inf, workers=workers)


def _run_couple(config, model, workers):
    cc = _coupling_config(config, model)
    exits = cc.exit_radius is not None
    return mc_report(
        "couple", coupled_kernel(model, cc, int(config["n_paths"])),
        {"survival", "final_distance"} | ({"exited"} if exits else set()),
        lambda res: (proportion(~res["survival"]), {
            "exit_radius": cc.exit_radius,
            "exit_fraction": float(np.mean(res["exited"])) if exits else None,
            "mean_final_distance": float(np.mean(res["final_distance"]))}),
        bound=math.inf, workers=workers)


def _run_verify(config, model, workers):
    """A ``verify-*`` kind: its estimator on the config's coupled pair."""
    cc, n_paths = _coupling_config(config, model), int(config["n_paths"])
    options = {"workers": workers, "experiment_id": config.kind}
    if config.kind == "verify-coupling-bound":
        return estimate_coupling_survival(
            model, cc, n_paths, bias=float(config["bias"]), **options)
    if config.kind == "verify-contraction":
        return check_contraction(
            model, cc, n_paths,
            coefficient=float(config["contraction_coefficient"]), **options)
    return check_gradient_estimate(model, cc, _halfspace(config["f"]),
                                   float(config["osc"]), n_paths, **options)


def _run_convergence(config, model, workers):
    alphas = list(config["alphas"])
    t1, t2 = config["t1"], config["t2"]
    start = resolve_start(config, model)
    horizon = t2 - t1
    reference = convergence_reference(config["reference"], config["manifold"])
    if reference == "gauss":
        cdf = gaussian_cdf(float(start[0]), horizon)
        support = (float(start[0]) - 8 * math.sqrt(horizon),
                   float(start[0]) + 8 * math.sqrt(horizon))
        observable = lambda ends: ends[:, 0]
    else:
        mu = float(np.arctan2(start[1], start[0]))
        cdf = wrapped_gaussian_cdf(mu, horizon)
        support = (-math.pi, math.pi)
        observable = circle_angles

    rows = convergence_diagnostic(
        model, t1, t2, start, alphas, int(config["n_paths"]),
        config["seed"], observable, cdf, support, workers)
    w1 = [row["w1"] for row in rows]
    trend_ok = all(w1[i + 1] <= w1[i] * 1.25 + 1e-12
                   for i in range(len(w1) - 1)) and w1[-1] <= w1[0] + 1e-12
    ks_ok = bool(rows[-1].get("ks_pass", True))
    est = McEstimate(n=int(config["n_paths"]), mean=w1[-1], stderr=0.0,
                     ci95=(w1[-1], w1[-1]))
    bound = w1[0] if (trend_ok and ks_ok) else -math.inf
    report = VerificationReport("convergence", est, bound, 0.0, {
        "params": {"alphas": alphas, "reference": reference, "rows": rows,
                   "n_paths": int(config["n_paths"]),
                   "manifold": model.describe()},
        "seed": config["seed"]})
    return report


def _run_feller(config, model, workers):
    spec = RadialComparisonSpec(builtin_b(config["b"]), c0=1.0, r0=0.5)
    result = feller_explosion_test(spec, float(config["C"]),
                                   float(config["y_max"]))
    expect = config.get("expect")
    ok = (result.verdict == expect) if expect \
        else (result.verdict != "inconclusive")
    est = McEstimate(n=1, mean=result.integral, stderr=0.0,
                     ci95=(result.integral, result.integral))
    bound = math.inf if ok else -math.inf
    return VerificationReport("feller-test", est, bound, 0.0, {
        "params": {"b": config["b"], "C": config["C"],
                   "y_max": config["y_max"], "verdict": result.verdict,
                   "decay_exponent": result.decay_exponent,
                   "expect": expect},
        "seed": config["seed"]})


def _run_ou(config, model, workers):
    horizon = config["t2"] - config["t1"]
    h = float(config["ou_h"])
    params = OUParams(a=float(config["a"]), k=float(config["k"]))
    res = ou_survival_probability(params, horizon, int(config["n_paths"]), h,
                                  seed=int(config["seed"]), workers=workers)
    deviation = abs(res.estimate - res.analytic)
    est = McEstimate(n=res.n_paths, mean=deviation, stderr=res.stderr,
                     ci95=(deviation - 1.96 * res.stderr,
                           deviation + 1.96 * res.stderr))
    report = VerificationReport("ou-survival", est, 0.0,
                                2.0 * math.sqrt(h), {
        "params": {"a": params.a, "k": params.k, "h": h, "horizon": horizon,
                   "estimate": res.estimate, "analytic": res.analytic,
                   "n_paths": res.n_paths},
        "seed": config["seed"]})
    return report


def _run_radial(config, model, workers):
    start = resolve_start(config, model)
    spec = RadialComparisonSpec(builtin_b(config["b"]),
                                c0=float(config["c0"]),
                                r0=float(config["r0"]))
    origin = engine.origin_point(model, config.get("origin"))
    rho0 = float(model.distance(config["t1"], origin, start)) + 3.0 * spec.r0
    radial = {"spec": spec, "rho0": rho0, "margin": float(config["margin"])}
    return mc_report(
        "radial-domination", _walk_kernel(config, model, start, radial),
        {"radial_violation"},
        lambda res: (proportion(res["radial_violation"]), {
            "margin": config["margin"], "c0": spec.c0, "r0": spec.r0,
            "rho0": rho0, "b": config["b"]}),
        bound=0.05, workers=workers)


# The run of each experiment kind; parse_config admits no other kind.
_RUNS = {"walk": _run_walk, "couple": _run_couple,
         "verify-coupling-bound": _run_verify,
         "verify-contraction": _run_verify, "verify-gradient": _run_verify,
         "convergence": _run_convergence, "feller-test": _run_feller,
         "ou-survival": _run_ou, "radial-domination": _run_radial}


# ---------------------------------------------------------------------------
# Artifacts
# ---------------------------------------------------------------------------

def _write_artifacts(config: ExperimentConfig, model: ManifoldModel,
                     report: VerificationReport, out: Path) -> None:
    out.mkdir(parents=True, exist_ok=True)
    stem = report.experiment_id
    (out / f"{stem}.json").write_text(
        json.dumps(report.to_dict(), sort_keys=True, indent=2) + "\n")
    with (out / f"{stem}.csv").open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "n", "mean", "stderr", "ci_lo", "ci_hi",
                         "bound", "pass", "bias", "seed", "runtime_ms"])
        est = report.estimate
        writer.writerow([report.experiment_id, est.n, repr(est.mean),
                         repr(est.stderr), repr(est.ci95[0]),
                         repr(est.ci95[1]), repr(report.bound),
                         report.passed, repr(report.bias),
                         report.metadata.get("seed"),
                         report.metadata.get("runtime_ms")])
    n_dump = int(config.get("n_dump", 0) or 0)
    if n_dump > 0:
        dump_paths(config, model, n_dump, out / "paths")


def dump_paths(config: ExperimentConfig, model: ManifoldModel, count: int,
               out: Path) -> list[Path]:
    """Write per-path CSV dumps for the config's walk or coupling setup."""
    kind = config.kind
    if kind not in DUMP_KINDS:
        raise ConfigError(f"n_dump: kind {kind!r} simulates no walk paths "
                          "to dump")
    out.mkdir(parents=True, exist_ok=True)
    written = []
    for idx in range(count):
        if kind in COUPLED_KINDS:
            cc = CouplingConfig(**{**_coupling_config(config, model).__dict__,
                                   "path_index": idx})
            path = run_coupled(model, cc)
            fname = out / f"coupled_{idx:04d}.csv"
            with fname.open("w", newline="") as fh:
                writer = csv.writer(fh)
                d = model.ambient_dim
                writer.writerow(
                    ["n", "t"] + [f"x1_{j}" for j in range(d)]
                    + [f"x2_{j}" for j in range(d)]
                    + ["dist", "lambda_star", "coupled"])
                times = path.schedule.times
                for n in range(len(times)):
                    lam = path.lambda_star_record[n - 1] if n > 0 else 0.0
                    writer.writerow(
                        [n, repr(float(times[n]))]
                        + [repr(float(v)) for v in path.skeleton1[n]]
                        + [repr(float(v)) for v in path.skeleton2[n]]
                        + [repr(float(path.distance_process[n])),
                           repr(float(lam)), int(path.coupled_flags[n])])
        else:
            wc = WalkConfig(alpha=config["alpha"], t1=config["t1"],
                            t2=config["t2"], seed=config["seed"],
                            start=resolve_start(config, model),
                            path_index=idx)
            path = run_walk(model, wc)
            fname = out / f"path_{idx:04d}.csv"
            with fname.open("w", newline="") as fh:
                writer = csv.writer(fh)
                d = model.ambient_dim
                writer.writerow(["n", "t"]
                                + [f"coord_{j}" for j in range(d)])
                for n, t in enumerate(path.schedule.times):
                    writer.writerow([n, repr(float(t))]
                                    + [repr(float(v)) for v in path.skeleton[n]])
        written.append(fname)
    return written


def run_document(document: str | dict, workers: int = 1,
                 out_dir: str | Path | None = None,
                 seed_override: int | None = None,
                 overrides: dict | None = None) -> tuple[RunManifest, list[VerificationReport]]:
    """Run a single-experiment or suite document; returns manifest+reports."""
    from .config import parse_suite

    t0 = time.perf_counter()
    configs = parse_suite(document)
    reports = []
    names = []
    for i, cfg in enumerate(configs):
        if overrides:
            merged = dict(cfg.data)
            merged.update(overrides)
            cfg = parse_suite(merged)[0]
        if seed_override is not None:
            merged = dict(cfg.data)
            merged["seed"] = int(seed_override)
            cfg = parse_suite(merged)[0]
        target = Path(out_dir) if out_dir is not None \
            else (Path(cfg.get("out")) if cfg.get("out") else None)
        report = execute(cfg, workers=workers, out_dir=target)
        reports.append(report)
        names.append(f"{report.experiment_id}.json" if target else "")
    manifest = RunManifest(__version__,
                           configs[0].config_hash() if len(configs) == 1
                           else "suite",
                           time.perf_counter() - t0,
                           [n for n in names if n])
    if out_dir is not None:
        p = Path(out_dir)
        p.mkdir(parents=True, exist_ok=True)
        (p / "manifest.json").write_text(
            json.dumps(manifest.to_dict(), sort_keys=True, indent=2) + "\n")
    return manifest, reports
