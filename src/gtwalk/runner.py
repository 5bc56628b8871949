"""Experiment dispatch: execute a parsed config, whose run the parse built
(``config._KINDS``), and write its reports and path dumps."""

from __future__ import annotations

import csv
import json
import time
from pathlib import Path

import numpy as np

from . import __version__, config as _config, engine
from .config import COUPLED_KINDS, ExperimentConfig, RunManifest, check_dump
from .errors import ConfigError
from .stats import VerificationReport


def execute(config: ExperimentConfig, workers: int = 1,
            out_dir: str | Path | None = None) -> VerificationReport:
    """Run one parsed experiment, whose run the parse built, and return its
    report (artifacts to out_dir)."""
    start_time = time.perf_counter()
    report = config.report(workers=workers)
    report.metadata["runtime_ms"] = int(
        (time.perf_counter() - start_time) * 1000)
    report.metadata.setdefault("params", {})["config_hash"] = \
        config.config_hash()
    if out_dir is not None:
        _write_artifacts(config, report, Path(out_dir))
    return report


# ---------------------------------------------------------------------------
# Artifacts
# ---------------------------------------------------------------------------

def _json_text(document: dict) -> str:
    """Strict JSON: a NaN or an infinity raises instead of being written."""
    return json.dumps(document, sort_keys=True, indent=2,
                      allow_nan=False) + "\n"


def _write_artifacts(config: ExperimentConfig, report: VerificationReport,
                     out: Path) -> None:
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
        dump_paths(config, config["n_dump"], out / "paths")


def dump_name(kind: str, index: int) -> str:
    """The file name of path ``index``'s dump for a config of ``kind``."""
    return f"{'coupled' if kind in COUPLED_KINDS else 'path'}_{index:04d}.csv"


def refuse_shared_files(files: list[set[Path]]) -> None:
    """Refuse a document two of whose experiments would write one file,
    before any runs; ``files`` holds the files each experiment writes."""
    seen: set[Path] = set()
    for written in files:
        if written & seen:
            raise ConfigError(f"experiments: two experiments write "
                              f"{min(written & seen)}")
        seen |= written


def dump_paths(config: ExperimentConfig, count: int, out: Path) -> list[Path]:
    """Write per-path CSV dumps of the config's walk or coupled pair.

    One call of the parsed kernel (``config.kernel``) over paths
    0..count-1 with only the records the CSV writes; each path's records
    equal those of a run of that path alone.
    """
    kind = config.kind
    check_dump(kind, count)
    out.mkdir(parents=True, exist_ok=True)
    d, paths = config.model.ambient_dim, range(count)
    times = config.kernel.schedule.times
    if kind in COUPLED_KINDS:
        res = config.kernel.fn(paths, records={
            "skeleton", "distance", "lambda_star", "couple_step"})
        lam = np.pad(res["lambda_star"], ((0, 0), (1, 0)))   # 0 at n = 0
        header = [f"x{i}_{j}" for i in "12" for j in range(d)]
        header += ["dist", "lambda_star", "coupled"]
        floats = np.concatenate([res["skeleton1"], res["skeleton2"],
                                 res["distance"][..., None], lam[..., None]],
                                axis=-1)
        flags = engine.coupled_flags(res["couple_step"],
                                     len(times) - 1)[..., None]
    else:
        floats = config.kernel.fn(paths, records={"skeleton"})["skeleton"]
        header = [f"coord_{j}" for j in range(d)]
        flags = floats[..., :0]
    written = []
    for idx in paths:
        fname = out / dump_name(kind, idx)
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
    each experiment as written (``parse_suite``); returns manifest+reports.
    A suite two of whose experiments would write one file is refused."""
    t0 = time.perf_counter()
    # through the module, so a wrapper installed there sees this parse
    configs = _config.parse_suite(document, overrides)
    targets = [Path(out_dir) if out_dir is not None
               else (Path(cfg.get("out")) if cfg.get("out") else None)
               for cfg in configs]
    refuse_shared_files([{target / f"{cfg.kind}.json"} | (
        {target / "paths" / dump_name(cfg.kind, 0)} if cfg.get("n_dump")
        else set()) if target else set()
        for cfg, target in zip(configs, targets)])
    reports = [execute(cfg, workers=workers, out_dir=target)
               for cfg, target in zip(configs, targets)]
    names = [f"{report.experiment_id}.json"
             for report, target in zip(reports, targets) if target]
    manifest = RunManifest(__version__,
                           configs[0].config_hash() if len(configs) == 1
                           else "suite",
                           time.perf_counter() - t0, names)
    if out_dir is not None:
        p = Path(out_dir)
        p.mkdir(parents=True, exist_ok=True)
        (p / "manifest.json").write_text(_json_text(manifest.to_dict()))
    return manifest, reports
