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
first. It prints each value it takes, ``path: old -> new``, and for an
estimate whose mean moved the two-sample z = (new - old) /
sqrt(se_old^2 + se_new^2) beside whether the new mean lies in the old
ci95. An independent realization of the same law leaves the old ci95 about
17% of the time (P(|N(0, 2)| > 1.96)), so z is the figure to judge by.

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
        "kind": "ou-survival", "t1": 0.0, "t2": 1.0, "a": 1.0, "k": 0.5,
        "ou_h": 2e-3, "n_paths": 5000, "seed": 11},
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


FELLER = {"kind": "feller-test", "b": {"name": "linear"},
          "expect": "explodes"}


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


_ABSENT = object()


def _show(value) -> str:
    return "(absent)" if value is _ABSENT else json.dumps(value)


def taken(old, new, path=""):
    """A line for each value that ``new`` (as ``merged`` returns it) takes
    over ``old``, and for each estimate, a dict with a mean, a stderr and a
    ci95, whose mean moved, its two-sample z."""
    if isinstance(old, dict) and isinstance(new, dict):
        for key in sorted(set(old) | set(new)):
            yield from taken(old.get(key, _ABSENT), new.get(key, _ABSENT),
                             f"{path}.{key}" if path else key)
        if {"mean", "stderr", "ci95"} <= set(old) & set(new) \
                and old["mean"] != new["mean"]:
            se = math.hypot(old["stderr"], new["stderr"])
            z = (new["mean"] - old["mean"]) / se if se > 0 else math.inf
            lo, hi = old["ci95"]
            where = "in" if lo <= new["mean"] <= hi else "outside"
            yield f"{path}: z = {z:+.2f}, new mean {where} the old ci95"
    elif isinstance(old, list) and isinstance(new, list) \
            and len(old) == len(new):
        for i, (o, n) in enumerate(zip(old, new)):
            yield from taken(o, n, f"{path}[{i}]")
    elif type(old) is not type(new) or old != new:
        yield f"{path}: {_show(old)} -> {_show(new)}"


def test_regeneration_prints_each_value_it_takes(golden):
    """The regenerator's table has one line per value taken, the moved
    estimate's z, and nothing for a run that matches the pinned file."""
    new = json.loads(json.dumps(golden))
    est = new["coupling-bound"]["estimate"]
    est["mean"], est["stderr"] = 0.45, 0.02
    new["walk"]["params"]["added"] = [1]
    lines = list(taken(golden, merged(golden, new)))
    old_est = golden["coupling-bound"]["estimate"]
    z = (0.45 - old_est["mean"]) / math.hypot(old_est["stderr"], 0.02)
    assert lines == [
        f"coupling-bound.estimate.mean: {old_est['mean']} -> 0.45",
        f"coupling-bound.estimate.stderr: {old_est['stderr']} -> 0.02",
        f"coupling-bound.estimate: z = {z:+.2f}, new mean outside the old "
        "ci95",
        "walk.params.added: (absent) -> [1]"]
    assert list(taken(golden, merged(golden, golden))) == []


if __name__ == "__main__":
    old = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    new = merged(old, {name: report_dict(name, 1) for name in sorted(CONFIGS)})
    lines = list(taken(old, new))
    print("\n".join(lines) if lines else "no value changed")
    GOLDEN.write_text(json.dumps(new, sort_keys=True, indent=2,
                                 allow_nan=False) + "\n")
