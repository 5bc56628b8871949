"""Pinned reports: one small config of each Monte Carlo experiment kind.

``golden_reports.json`` holds ``execute(cfg).to_dict()`` without
``runtime_ms`` for every config below. Integers, booleans, strings and the
Bernoulli means of the proportion kinds must match exactly; other floats
match to a relative 1e-12. Reports must not depend on the worker count.

``PYTHONPATH=src python tests/test_golden_reports.py`` merges a fresh run
into the file: it adds new keys, drops removed ones, takes changed values,
and keeps every pinned value that the fresh one still matches within the
tolerance above. A change of report format therefore cannot move a pinned
float, not even by the 1-2 ulp that hosts differ by. To take a value that
is meant to change by less than the tolerance, delete it from the file
first.

Every report and manifest is strict JSON: no NaN or infinity.
"""

import json
import math
from pathlib import Path

import pytest

from conftest import strip_runtime
from gtwalk import comparison, engine, runner, stats
from gtwalk.config import COUPLED_KINDS, parse_config
from gtwalk.runner import execute

GOLDEN = Path(__file__).with_name("golden_reports.json")
FLOW_SPHERE = {"kind": "sphere", "dim": 2, "radius_c0": 1.0, "flow": True}

CONFIGS = {
    "walk": {
        "kind": "walk", "manifold": FLOW_SPHERE, "t1": 0.0, "t2": 0.5,
        "alpha": 0.05, "n_paths": 600, "seed": 3},
    "couple-reflection-flow-sphere": {
        "kind": "couple", "manifold": FLOW_SPHERE, "t1": 0.0, "t2": 0.5,
        "alpha": 0.05, "n_paths": 600, "seed": 4, "d0": 1.0},
    "couple-parallel-flat-no-exit": {
        "kind": "couple", "manifold": {"kind": "euclidean", "dim": 2},
        "t1": 0.0, "t2": 1.0, "alpha": 0.1, "n_paths": 800, "seed": 5,
        "d0": 1.0, "coupling": "parallel", "exit_radius": None},
    "coupling-bound": {
        "kind": "verify-coupling-bound",
        "manifold": {"kind": "hyperbolic", "dim": 2}, "t1": 0.0, "t2": 0.5,
        "alpha": 0.05, "n_paths": 600, "seed": 6, "d0": 1.0, "bias": 0.01},
    "contraction-scaled": {
        "kind": "verify-contraction",
        "manifold": {"kind": "scaled", "k": 0.5,
                     "base": {"kind": "hyperbolic", "dim": 2}},
        "t1": 0.0, "t2": 0.5, "alpha": 0.05, "n_paths": 400, "seed": 7,
        "d0": 1.0, "k": 0.5},
    "gradient": {
        "kind": "verify-gradient", "manifold": FLOW_SPHERE, "t1": 0.0,
        "t2": 0.5, "alpha": 0.05, "n_paths": 600, "seed": 8, "d0": 0.5,
        "f": {"type": "halfspace", "normal": [1.0, 0.0, 0.0], "offset": 0.0}},
    "radial": {
        "kind": "radial-domination", "manifold": FLOW_SPHERE, "t1": 0.0,
        "t2": 0.5, "alpha": 0.05, "n_paths": 600, "seed": 9,
        "b": {"name": "zero"}, "margin": 0.1},
    # A negative margin flags some paths but not all, so the report pins
    # the radial replay itself.
    "radial-flagged": {
        "kind": "radial-domination", "manifold": FLOW_SPHERE, "t1": 0.0,
        "t2": 0.5, "alpha": 0.05, "n_paths": 600, "seed": 12,
        "b": {"name": "table", "r": [0.0, 1.0, 3.0],
              "values": [0.0, 2.0, 0.5]},
        "margin": -1.3},
    "convergence": {
        "kind": "convergence", "manifold": {"kind": "euclidean", "dim": 1},
        "t1": 0.0, "t2": 1.0, "alphas": [0.4, 0.2], "n_paths": 1000,
        "seed": 10},
    # More paths than stats.CHUNK, so the estimate spans three chunks.
    "ou-survival": {
        "kind": "ou-survival", "manifold": {"kind": "euclidean", "dim": 1},
        "t1": 0.0, "t2": 1.0, "a": 1.0, "k": 0.5, "ou_h": 2e-3,
        "n_paths": 5000, "seed": 11},
}

# Kinds whose estimate is a success fraction: its mean is an exact ratio.
PROPORTION_KINDS = ("couple", "verify-coupling-bound", "radial-domination")


def report_dict(name: str, workers: int, **changes) -> dict:
    return strip_runtime(execute(parse_config({**CONFIGS[name], **changes}),
                                 workers=workers).to_dict())


def assert_matches(got, want, path: str) -> None:
    if isinstance(want, dict):
        assert isinstance(got, dict) and set(got) == set(want), path
        for key in want:
            assert_matches(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, (list, tuple)) and len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            assert_matches(g, w, f"{path}[{i}]")
    elif isinstance(want, float) and not isinstance(got, bool):
        assert isinstance(got, (int, float)), path
        if math.isinf(want) or want == 0.0:
            assert got == want, path
        else:
            assert got == pytest.approx(want, rel=1e-12, abs=0.0), path
    else:
        assert type(got) is type(want) and got == want, path


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_golden_report(golden, name, workers):
    got = report_dict(name, workers)
    want = golden[name]
    assert_matches(got, want, name)
    if CONFIGS[name]["kind"] in PROPORTION_KINDS:
        assert got["estimate"]["mean"] == want["estimate"]["mean"]


def test_ou_survival_interval_is_of_the_absolute_deviation():
    """At seed 2 the survival estimate is within one stderr of the analytic
    value, so the interval of |estimate - analytic| starts at 0."""
    est = report_dict("ou-survival", 1, seed=2)["estimate"]
    assert 0.0 <= est["ci95"][0] <= est["mean"] <= est["ci95"][1]


# The kernel each config's kind maps over path chunks.
KERNEL_OF = {name: "coupled_chunk" if cfg["kind"] in COUPLED_KINDS
             else "ou_chunk" if cfg["kind"] == "ou-survival"
             else "walk_chunk" for name, cfg in CONFIGS.items()}


@pytest.mark.parametrize("name", sorted(KERNEL_OF))
def test_mapper_and_kernels_are_looked_up_at_call_time(monkeypatch, name):
    """A tracer that replaces the module attributes after import, as the
    benchmark's span recorder does, sees every chunk map and kernel call:
    no estimator holds the mapper or a kernel captured at import."""
    calls = {}

    def counting(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] = calls.get(key, 0) + 1
            return fn(*args, **kwargs)
        return wrapper

    mapper = counting("map", stats.map_path_chunks)
    monkeypatch.setattr(stats, "map_path_chunks", mapper)
    monkeypatch.setattr(runner, "map_path_chunks", mapper, raising=False)
    for kernel in ("walk_chunk", "coupled_chunk"):
        monkeypatch.setattr(engine, kernel,
                            counting(kernel, getattr(engine, kernel)))
    monkeypatch.setattr(comparison, "ou_chunk",
                        counting("ou_chunk", comparison.ou_chunk))
    execute(parse_config(CONFIGS[name]), workers=1)
    assert calls.get("map", 0) >= 1
    assert calls.get(KERNEL_OF[name], 0) >= 1


def _refuse_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


FELLER = {"kind": "feller-test", "manifold": {"kind": "euclidean", "dim": 1},
          "t1": 0.0, "t2": 1.0, "b": {"name": "linear"}, "expect": "explodes"}


def test_reports_are_strict_json(tmp_path):
    """Every written report and manifest parses without the NaN and
    Infinity extensions, and no CSV cell is a non-finite number."""
    for name, doc in [*CONFIGS.items(), ("feller", FELLER)]:
        runner.run_document(doc, out_dir=tmp_path / name)
    written = sorted(tmp_path.glob("*/*.json"))
    assert len(written) == 2 * (len(CONFIGS) + 1)
    for path in written:
        json.loads(path.read_text(), parse_constant=_refuse_constant)
    for path in tmp_path.glob("*/*.csv"):
        cells = path.read_text().replace("\n", ",").split(",")
        assert not {"inf", "-inf", "nan", "Infinity", "NaN"} & set(cells)


def merged(old, new):
    """``new`` with each value of ``old`` that it matches kept as pinned."""
    if isinstance(new, dict) and isinstance(old, dict):
        return {key: merged(old[key], value) if key in old else value
                for key, value in new.items()}
    if isinstance(new, list) and isinstance(old, list) \
            and len(new) == len(old):
        return [merged(o, n) for o, n in zip(old, new)]
    try:
        assert_matches(new, old, "")
    except AssertionError:
        return new
    return old


if __name__ == "__main__":
    old = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    new = {name: report_dict(name, 1) for name in sorted(CONFIGS)}
    GOLDEN.write_text(json.dumps(merged(old, new), sort_keys=True, indent=2,
                                 allow_nan=False) + "\n")
