"""The gtwalk benchmark: `gtwalk run` workloads timed in fresh processes.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each sample spawns ``child.py``, which sets up, runs ``gtwalk run`` on the
workload's config and reports its estimate. Samples repeat until ``S``
seconds have passed (at least ``MIN_SAMPLES``). The first sample uses the
reference seed and its report must equal ``reference.json`` field for field;
every other sample uses a seed drawn from ``N`` and its report must pass.
With ``--trace 1`` every second sample runs with layer spans recorded
(``spans.py``) and the per-layer metrics are reported instead of the
end-to-end ones.

The last line of standard output is the result JSON. The exit code is 0
only when every sample succeeded. See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from statistics import median

from spans import MODEL_METHODS, layer_metrics, load_spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".perfbench-out"
REFERENCE = BENCH / "reference.json"
REFERENCE_FIELDS = ("n", "mean", "stderr", "ci95", "pass")

MIN_SAMPLES = 3
DEADLINE_S = 170.0


@dataclass(frozen=True)
class Workload:
    config: dict
    threads: int


_SPHERE_FLOW = {"kind": "sphere", "dim": 2, "radius_c0": 1.0, "flow": True}

WORKLOADS = {
    "sphere-reflect": Workload(
        {"kind": "verify-coupling-bound", "manifold": _SPHERE_FLOW,
         "t1": 0.0, "t2": 0.5, "alpha": 0.02, "d0": 1.0,
         "delta_couple": 0.04, "n_paths": 2048, "seed": 7},
        threads=1),
    "flat-reflect-2w": Workload(
        {"kind": "verify-coupling-bound",
         "manifold": {"kind": "euclidean", "dim": 2},
         "t1": 0.0, "t2": 1.0, "alpha": 0.02, "d0": 1.0,
         "delta_couple": 0.04, "bias": 0.02, "n_paths": 4096, "seed": 7},
        threads=2),
    "radial-fine": Workload(
        {"kind": "radial-domination", "manifold": _SPHERE_FLOW,
         "t1": 0.0, "t2": 0.5, "alpha": 0.01, "b": {"name": "zero"},
         "n_paths": 1024, "seed": 7},
        threads=1),
}

END_TO_END = {"wall_s": "s", "path_steps_per_s": "path-steps/s",
              "setup_s": "s", "peak_rss_mb": "MB", "cpu_s": "s"}

PER_LAYER = {"config.parse_s": "s", "rng.noise_s": "s",
             "rng.noise_calls": "count", "rng.noise_block_mb": "MB"}
for _short in MODEL_METHODS:
    PER_LAYER[f"manifolds.{_short}_s"] = "s"
    PER_LAYER[f"manifolds.{_short}_calls"] = "count"
PER_LAYER.update({"engine.kernel_s": "s", "engine.self_s": "s",
                  "engine.path_steps": "count", "engine.chunks": "count",
                  "stats.map_s": "s", "stats.busy_frac": "ratio",
                  "runner.execute_s": "s", "runner.self_s": "s",
                  "trace.overhead_frac": "ratio"})


class BenchError(Exception):
    """The benchmark cannot run here (missing program, bad reference)."""


@dataclass
class Sample:
    seed: int
    traced: bool
    ok: bool
    reason: str = ""
    wall_s: float = 0.0
    cpu_s: float = 0.0
    peak_rss_mb: float = 0.0
    child: dict | None = None
    layers: dict | None = None


def spawn(args: list[str], work: Path, tag: str, start: float) -> tuple:
    """Run child.py; return (exit code, last stdout line, wall s, rusage)."""
    stdout, stderr = work / f"{tag}.out", work / f"{tag}.err"
    with stdout.open("w") as out, stderr.open("w") as err:
        t0 = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(BENCH / "child.py"), *args,
             "--spawn-t", repr(t0)], stdout=out, stderr=err, cwd=ROOT)
        budget = max(1.0, DEADLINE_S - (t0 - start))
        killer = threading.Timer(budget, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.monotonic() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    lines = stdout.read_text().strip().splitlines()
    if proc.returncode != 0:
        sys.stderr.write(stderr.read_text()[-2000:])
    return proc.returncode, (lines[-1] if lines else ""), wall, usage


def run_sample(name: str, seed: int, config_path: Path, work: Path,
               tag: str, start: float, traced: bool,
               reference: dict | None) -> Sample:
    wl = WORKLOADS[name]
    args = [str(config_path), "--seed", str(seed),
            "--threads", str(wl.threads), "--out", str(work / tag)]
    spans_path = work / f"{tag}.spans.json"
    if traced:
        args += ["--trace", str(spans_path)]
    rc, last, wall, usage = spawn(args, work, tag, start)
    sample = Sample(seed, traced, ok=False, wall_s=wall,
                    cpu_s=usage.ru_utime + usage.ru_stime,
                    peak_rss_mb=usage.ru_maxrss * 1024 / 1e6)
    try:
        sample.child = json.loads(last)
    except json.JSONDecodeError:
        sample.reason = f"exit code {rc}, no result line"
        return sample
    report = sample.child["report"]
    if rc != 0:
        sample.reason = f"exit code {rc}"
    elif not report["pass"]:
        sample.reason = "report does not pass"
    elif reference is not None and \
            {k: report[k] for k in REFERENCE_FIELDS} != reference["estimate"]:
        sample.reason = (f"estimate {report} differs from the reference "
                         f"{reference['estimate']} at seed {seed}")
    else:
        sample.ok = True
    if traced and sample.ok:
        sample.layers = layer_metrics(load_spans(spans_path))
        OUT.mkdir(exist_ok=True)
        shutil.copyfile(spans_path, OUT / f"spans-{name}.json")
    return sample


def end_to_end(samples: list[Sample], path_steps: int) -> dict[str, float]:
    done = [s for s in samples if s.child is not None and "cli_s" in s.child]
    return {
        "wall_s": median([s.wall_s for s in done]),
        "path_steps_per_s": median([path_steps / s.child["cli_s"]
                                     for s in done]),
        "setup_s": median([s.child["setup_s"] for s in done]),
        "peak_rss_mb": median([s.peak_rss_mb for s in done]),
        "cpu_s": median([s.cpu_s for s in done]),
    }


def per_layer(plain: list[Sample], traced: list[Sample]) -> dict[str, float]:
    layers = [s.layers for s in traced if s.layers is not None]
    out = {k: median([m[k] for m in layers]) for k in layers[0]}
    out["trace.overhead_frac"] = \
        median([s.wall_s for s in traced]) \
        / median([s.wall_s for s in plain]) - 1.0
    return out


def git_commit() -> str:
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return res.stdout.strip() if res.returncode == 0 else "unknown"


def workload_config(name: str, n_paths: int | None) -> dict:
    config = dict(WORKLOADS[name].config)
    if n_paths is not None:
        config["n_paths"] = n_paths
    return config


def load_reference(path: Path, name: str, n_paths: int) -> dict:
    try:
        entry = json.loads(path.read_text())[name]
    except (OSError, json.JSONDecodeError, KeyError) as e:
        raise BenchError(f"no reference for {name} in {path}: {e!r}")
    if entry["n_paths"] != n_paths:
        raise BenchError(f"reference for {name} was made at n_paths="
                         f"{entry['n_paths']}, not {n_paths}")
    return entry


def write_reference(name: str, n_paths: int | None, path: Path,
                    work: Path) -> None:
    """Store the reference estimate at one worker, after checking that the
    workload's own worker count gives the same report."""
    config = workload_config(name, n_paths)
    config_path = work / "config.json"
    config_path.write_text(json.dumps(config))
    seed = config["seed"]
    reports = []
    for threads in sorted({1, WORKLOADS[name].threads}):
        rc, last, _, _ = spawn([str(config_path), "--seed", str(seed),
                                "--threads", str(threads),
                                "--out", str(work / f"ref-{threads}")],
                               work, f"ref-{threads}", time.monotonic())
        if rc != 0:
            raise BenchError(f"reference run at {threads} workers failed "
                             f"with exit code {rc}")
        report = json.loads(last)["report"]
        reports.append({k: report[k] for k in REFERENCE_FIELDS})
    if any(r != reports[0] for r in reports):
        raise BenchError(f"reports differ across worker counts: {reports}")
    doc = json.loads(path.read_text()) if path.exists() else {}
    doc[name] = {"seed": seed, "n_paths": config["n_paths"],
                 "estimate": reports[0]}
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(f"wrote reference for {name}: {reports[0]}")


def measure(name: str, seed: int, seconds: float, trace: bool,
            n_paths: int | None, reference: dict, work: Path) -> int:
    start = time.monotonic()
    config = workload_config(name, n_paths)
    config_path = work / "config.json"
    config_path.write_text(json.dumps(config))
    seeds = random.Random(seed)

    # Untimed warm-up: fills the page cache and the bytecode cache.
    spawn([str(config_path), "--seed", "0", "--threads", "1",
           "--out", str(work / "warm"), "--setup-only"], work, "warm", start)

    samples: list[Sample] = []
    t_measure = time.monotonic()
    while len(samples) < MIN_SAMPLES \
            or time.monotonic() - t_measure < seconds:
        longest = max((s.wall_s for s in samples), default=0.0)
        if time.monotonic() - start + longest > DEADLINE_S:
            break
        i = len(samples)
        run_seed = reference["seed"] if i == 0 \
            else seeds.randrange(1, 2 ** 31)
        traced = trace and i % 2 == 1
        sample = run_sample(name, run_seed, config_path, work, f"s{i}",
                            start, traced, reference if i == 0 else None)
        if not sample.ok:
            print(f"sample {i} (seed {run_seed}) failed: {sample.reason}",
                  file=sys.stderr)
        samples.append(sample)

    plain = [s for s in samples if not s.traced]
    traced = [s for s in samples if s.traced]
    failed = sum(not s.ok for s in samples)
    child = next((s.child for s in samples if s.child), None)
    if child is None or "cli_s" not in child:
        print("no sample produced a result", file=sys.stderr)
        return 1
    path_steps = child["path_steps"]
    e2e = end_to_end(plain, path_steps)

    print(f"workload {name}, {WORKLOADS[name].threads} worker(s), "
          f"{config['n_paths']} paths, {path_steps} path-steps per sample")
    print(f"samples: {len(plain)} untraced, {len(traced)} traced; "
          f"values are medians over the untraced samples")
    for key, unit in END_TO_END.items():
        print(f"  {key:<26} {e2e[key]:>14.6g} {unit}")
    print(f"  {'error_rate':<26} {failed / len(samples):>14.6g} ratio "
          f"({failed} of {len(samples)} runs failed)")
    metrics = {k: {"value": e2e[k], "unit": u} for k, u in END_TO_END.items()}
    if trace:
        layers = per_layer(plain, traced) if any(
            s.layers for s in traced) else None
        if layers is None:
            print("no traced sample succeeded", file=sys.stderr)
            return 1
        print(f"per layer (medians over {len(traced)} traced samples):")
        for key, unit in PER_LAYER.items():
            print(f"  {key:<26} {layers[key]:>14.6g} {unit}")
        metrics = {k: {"value": layers[k], "unit": u}
                   for k, u in PER_LAYER.items()}

    context = {"workload": name, "seed": seed, "seconds": seconds,
               "trace": trace, "nproc": os.cpu_count(),
               "workers": WORKLOADS[name].threads,
               "n_paths": config["n_paths"], "path_steps": path_steps,
               "git_commit": git_commit(), **child["versions"],
               "samples": [{"seed": s.seed, "traced": s.traced, "ok": s.ok,
                            "wall_s": s.wall_s, "cpu_s": s.cpu_s,
                            "peak_rss_mb": s.peak_rss_mb,
                            "setup_s": s.child and s.child["setup_s"],
                            "cli_s": s.child and s.child.get("cli_s"),
                            "estimate": s.child and s.child["report"]["mean"]}
                           for s in samples]}
    print("context: " + json.dumps(context))
    OUT.mkdir(exist_ok=True)
    result = {"correct": failed == 0, "attempted": len(samples),
              "failed": failed, "metrics": metrics}
    (OUT / f"result-{name}-trace{int(trace)}.json").write_text(
        json.dumps({"context": context, **result}, indent=2) + "\n")
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def main(argv: list[str]) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--paths", type=int, default=None,
                   help="override the workload's path count (smoke test)")
    p.add_argument("--reference", type=Path, default=REFERENCE)
    p.add_argument("--write-reference", action="store_true",
                   help="store the reference estimate instead of measuring")
    args = p.parse_args(argv)

    if not (ROOT / "src" / "gtwalk" / "__init__.py").is_file():
        print(f"error: no gtwalk sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    work = Path(tempfile.mkdtemp(prefix=".perfbench-tmp-", dir=ROOT))
    try:
        if args.write_reference:
            write_reference(args.workload, args.paths, args.reference, work)
            return 0
        n_paths = workload_config(args.workload, args.paths)["n_paths"]
        reference = load_reference(args.reference, args.workload, n_paths)
        return measure(args.workload, args.seed, args.seconds,
                       bool(args.trace), args.paths, reference, work)
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
