"""Experiment dispatch: execute a parsed config, write reports and dumps."""

from __future__ import annotations

import csv
import json
import math
import time
from pathlib import Path

import numpy as np

from . import __version__, config as _config, engine
from .comparison import (OUParams, RadialComparisonSpec, beta, builtin_b,
                         chi, feller_explosion_test, ou_kernel)
from .config import (COUPLED_KINDS, ExperimentConfig, RunManifest,
                     check_dump, convergence_reference, coupling_config,
                     resolve_start)
from .coupling import coupled_kernel
from .manifolds import ManifoldModel
from .stats import (McEstimate, VerificationReport, check_contraction,
                    check_gradient_estimate, circle_angles,
                    convergence_diagnostic, estimate_coupling_survival,
                    gaussian_cdf, mc_report, proportion,
                    wrapped_gaussian_cdf)
from .walk import Schedule, walk_kernel


def _halfspace(f_spec: dict):
    normal = np.asarray(f_spec["normal"], dtype=float)
    offset = float(f_spec["offset"])
    return lambda points: (points @ normal <= offset).astype(float)


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
            "observable": "displacement-distance"}), workers=workers)


def _run_couple(config, model, workers):
    cc = coupling_config(config, model)
    exits = cc.exit_radius is not None
    return mc_report(
        "couple", coupled_kernel(model, cc, int(config["n_paths"])),
        {"couple_step", "final_distance"} | ({"exited"} if exits else set()),
        lambda res: (proportion(res["couple_step"] >= 0), {
            "exit_radius": cc.exit_radius,
            "exit_fraction": float(np.mean(res["exited"])) if exits else None,
            "mean_final_distance": float(np.mean(res["final_distance"]))}),
        workers=workers)


def _run_verify(config, model, workers):
    """A ``verify-*`` kind: its estimator on the config's coupled pair."""
    cc, n_paths = coupling_config(config, model), int(config["n_paths"])
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
    return VerificationReport("convergence", None, {
        "params": {"alphas": alphas, "reference": reference, "rows": rows,
                   "trend_pass": trend_ok, "n_paths": int(config["n_paths"]),
                   "manifold": model.describe()},
        "seed": config["seed"]}, passed=trend_ok and rows[-1]["ks_pass"],
        check={"statistic": "w1 to the reference at each alpha and the KS "
                            "statistic at the last (params.rows)",
               "rule": "each w1 <= 1.25 x the one before + 1e-12, the last "
                       "w1 <= the first + 1e-12, and the last ks_pass"})


def _run_feller(config, model, workers):
    result = feller_explosion_test(builtin_b(config["b"]), float(config["C"]),
                                   float(config["y_max"]))
    expect = config.get("expect")
    # classify gives no exponent (inf or nan) when the outer integrand
    # vanishes or the integral is not finite; the report says which.
    integral = result.integral if math.isfinite(result.integral) else None
    exponent = result.decay_exponent \
        if math.isfinite(result.decay_exponent) else None
    reason = ("the integral is not finite" if integral is None else
              "the outer integrand reaches 0 before y_max" if exponent is None
              else None)
    return VerificationReport("feller-test", None, {
        "params": {"b": config["b"], "C": config["C"],
                   "y_max": config["y_max"], "verdict": result.verdict,
                   "verdict_reason": reason, "integral": integral,
                   "decay_exponent": exponent, "expect": expect},
        "seed": config["seed"]},
        passed=result.verdict == expect if expect
        else result.verdict != "inconclusive",
        check={"statistic": "verdict of the explosion integral test",
               "rule": f"verdict == {expect!r}" if expect
               else "verdict != 'inconclusive'"})


def _run_ou(config, model, workers):
    params = OUParams(a=float(config["a"]), k=float(config["k"]))
    horizon, h = config["t2"] - config["t1"], float(config["ou_h"])
    analytic = chi(params.a / (2.0 * math.sqrt(beta(horizon, params.k))))

    def reduce(res):
        survival = proportion(res["alive"])
        return survival.abs_deviation(analytic), {
            "estimate": survival.mean, "analytic": analytic}

    return mc_report(
        "ou-survival", ou_kernel(params, horizon, h, int(config["seed"]),
                                 int(config["n_paths"])),
        {"alive"}, reduce, bound=0.0, bias=2.0 * math.sqrt(h),
        workers=workers, statistic="|survival estimate - analytic value|")


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
            "rho0": rho0, "b": config["b"]}), bound=0.05, workers=workers,
        statistic="fraction of paths that pass the comparison radius + margin")


# The run of each experiment kind; parse_config admits no other kind.
_RUNS = {"walk": _run_walk, "couple": _run_couple,
         **{k: _run_verify for k in COUPLED_KINDS if k != "couple"},
         "convergence": _run_convergence, "feller-test": _run_feller,
         "ou-survival": _run_ou, "radial-domination": _run_radial}


# ---------------------------------------------------------------------------
# Artifacts
# ---------------------------------------------------------------------------

def _json_text(document: dict) -> str:
    """Strict JSON: a NaN or an infinity raises instead of being written."""
    return json.dumps(document, sort_keys=True, indent=2,
                      allow_nan=False) + "\n"


def _write_artifacts(config: ExperimentConfig, model: ManifoldModel,
                     report: VerificationReport, out: Path) -> None:
    out.mkdir(parents=True, exist_ok=True)
    stem = report.experiment_id
    (out / f"{stem}.json").write_text(_json_text(report.to_dict()))
    est = report.estimate
    cells = ([est.n, est.mean, est.stderr, *est.ci95] if est else [None] * 5) \
        + [report.bound, report.passed, report.bias,
           report.metadata.get("seed"), report.metadata.get("runtime_ms")]
    with (out / f"{stem}.csv").open("w", newline="") as fh:
        writer = csv.writer(fh)   # writes None as an empty cell
        writer.writerow(["id", "n", "mean", "stderr", "ci_lo", "ci_hi",
                         "bound", "pass", "bias", "seed", "runtime_ms"])
        writer.writerow([stem] + [None if v is None else repr(v)
                                  for v in cells])
    if config.get("n_dump"):   # 0 and null dump nothing
        dump_paths(config, model, config["n_dump"], out / "paths")


def dump_paths(config: ExperimentConfig, model: ManifoldModel, count: int,
               out: Path) -> list[Path]:
    """Write per-path CSV dumps for the config's walk or coupling setup.

    One kernel call over paths 0..count-1 with only the records the CSV
    writes; each path's records equal those of a run of that path alone.
    """
    kind = config.kind
    check_dump(kind, count)
    out.mkdir(parents=True, exist_ok=True)
    d, paths = model.ambient_dim, range(count)
    if kind in COUPLED_KINDS:
        cc = coupling_config(config, model)
        times = cc.schedule().times
        res = coupled_kernel(model, cc).fn(
            paths, records={"skeleton", "distance", "lambda_star",
                            "couple_step"})
        lam = np.pad(res["lambda_star"], ((0, 0), (1, 0)))   # 0 at n = 0
        stem, header = "coupled", [f"x{i}_{j}" for i in "12" for j in range(d)]
        header += ["dist", "lambda_star", "coupled"]
        floats = np.concatenate([res["skeleton1"], res["skeleton2"],
                                 res["distance"][..., None], lam[..., None]],
                                axis=-1)
        flags = engine.coupled_flags(res["couple_step"],
                                     len(times) - 1)[..., None]
    else:
        schedule = Schedule(config["t1"], config["t2"], config["alpha"])
        times = schedule.times
        floats = walk_kernel(model, schedule, resolve_start(config, model),
                             config["seed"], count).fn(
            paths, records={"skeleton"})["skeleton"]
        stem, header = "path", [f"coord_{j}" for j in range(d)]
        flags = floats[..., :0]
    written = []
    for idx in paths:
        fname = out / f"{stem}_{idx:04d}.csv"
        with fname.open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["n", "t"] + header)
            for n, t in enumerate(times):
                writer.writerow([n, repr(float(t))]
                                + [repr(float(v)) for v in floats[idx, n]]
                                + [int(v) for v in flags[idx, n]])
        written.append(fname)
    return written


def run_document(document: str | dict, workers: int = 1,
                 out_dir: str | Path | None = None,
                 overrides: dict | None = None) -> tuple[RunManifest, list[VerificationReport]]:
    """Run a single-experiment or suite document, ``overrides`` merged into
    each experiment as written (``parse_suite``); returns manifest+reports."""
    t0 = time.perf_counter()
    # through the module, so a wrapper installed there sees this parse
    configs = _config.parse_suite(document, overrides)
    reports, names = [], []
    for cfg in configs:
        target = Path(out_dir) if out_dir is not None \
            else (Path(cfg.get("out")) if cfg.get("out") else None)
        reports.append(execute(cfg, workers=workers, out_dir=target))
        if target:
            names.append(f"{reports[-1].experiment_id}.json")
    manifest = RunManifest(__version__,
                           configs[0].config_hash() if len(configs) == 1
                           else "suite",
                           time.perf_counter() - t0, names)
    if out_dir is not None:
        p = Path(out_dir)
        p.mkdir(parents=True, exist_ok=True)
        (p / "manifest.json").write_text(_json_text(manifest.to_dict()))
    return manifest, reports
