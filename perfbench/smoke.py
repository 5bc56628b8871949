"""Smoke test of the benchmark itself, at a tiny path count.

    python3 perfbench/smoke.py

For every workload it writes a reference at 64 paths, runs ``run.py`` with
and without tracing, and checks that every metric named in BENCHMARK.json
is printed with its unit, in the table and in the result line. It then
checks that a tampered reference makes ``run.py`` exit non-zero, and that
``run.py`` exits non-zero without a result in a directory that holds only
BENCHMARK.json and this directory. Exits 0 when all checks hold.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
PATHS = "64"


def run(args: list[str], cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / BENCH.name / "run.py"),
                           *args], cwd=cwd, capture_output=True, text=True,
                          timeout=300)


def result_line(proc: subprocess.CompletedProcess) -> dict | None:
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def check_metrics(proc, expected: list[dict], label: str) -> list[str]:
    errors = []
    result = result_line(proc)
    if proc.returncode != 0 or result is None or not result["correct"]:
        return [f"{label}: exit {proc.returncode}\n{proc.stderr[-2000:]}"]
    if set(result["metrics"]) != {m["name"] for m in expected}:
        errors.append(f"{label}: result metrics {sorted(result['metrics'])}")
    table = proc.stdout.splitlines()[:-1]
    for m in expected:
        got = result["metrics"].get(m["name"], {})
        if got.get("unit") != m["unit"]:
            errors.append(f"{label}: {m['name']} has unit {got.get('unit')}")
        if not any(line.split()[:1] == [m["name"]]
                   and f" {m['unit']}" in line for line in table):
            errors.append(f"{label}: {m['name']} [{m['unit']}] not printed")
    return errors


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    errors = []
    tmp = Path(tempfile.mkdtemp(prefix=".perfbench-tmp-smoke-", dir=ROOT))
    try:
        reference = tmp / "reference.json"
        common = ["--seed", "1", "--seconds", "1", "--paths", PATHS,
                  "--reference", str(reference)]
        for wl in spec["workloads"]:
            name = wl["name"]
            proc = run(["--workload", name, "--paths", PATHS,
                        "--reference", str(reference), "--write-reference"])
            if proc.returncode != 0:
                errors.append(f"{name}: reference failed\n{proc.stderr}")
                continue
            for trace, expected in (("0", spec["end_to_end"]),
                                    ("1", spec["per_layer"])):
                proc = run(["--workload", name, "--trace", trace, *common])
                errors += check_metrics(proc, expected,
                                        f"{name} --trace {trace}")

        name = spec["workloads"][0]["name"]
        doc = json.loads(reference.read_text())
        doc[name]["estimate"]["mean"] += 1e-9
        reference.write_text(json.dumps(doc))
        proc = run(["--workload", name, "--trace", "0", *common])
        result = result_line(proc)
        if proc.returncode == 0 or result is None or result["correct"]:
            errors.append(f"tampered reference: exit {proc.returncode}, "
                          f"result {result}")

        bare = tmp / "bare"
        bare.mkdir()
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH, bare / BENCH.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(["--workload", name, *common[:4], "--trace", "0"],
                   cwd=bare)
        if proc.returncode == 0 or result_line(proc) is not None:
            errors.append(f"bare directory: exit {proc.returncode}")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    for e in errors:
        print(f"FAIL {e}")
    print("smoke: ok" if not errors else f"smoke: {len(errors)} failures")
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
