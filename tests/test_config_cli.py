import argparse
import collections
import contextlib
import csv
import io
import json
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import pair_trace, strip_runtime
from gtwalk import config, rng
from gtwalk.cli import (_PARSER, _document_from_flags, main,
                        parse_manifold_spec)
from gtwalk.comparison import (FellerResult, OUParams, RadialComparisonSpec,
                               builtin_b, feller_explosion_test, ou_kernel)
from gtwalk.config import (_COMMON_KEYS, _KEYS_BY_KIND, DUMP_KINDS,
                           EXPERIMENT_KINDS, convergence_reference,
                           parse_config, parse_suite, resolve_start_points)
from gtwalk.coupling import coupled_kernel
from gtwalk.errors import ConfigError, GtwalkError, InvalidInput
from gtwalk.manifolds import list_model_kinds, make_model
from gtwalk.runner import dump_paths, run_document
from gtwalk.stats import alpha_schedules, ks_statistic, map_path_chunks
from gtwalk.walk import Schedule, walk_kernel


MINIMAL_WALK = {"kind": "walk", "manifold": {"kind": "euclidean", "dim": 2},
                "alpha": 0.05, "t1": 0, "t2": 1, "seed": 7}


def test_minimal_walk_config_defaults():
    cfg = parse_config(MINIMAL_WALK)
    assert cfg["seed"] == 7
    assert cfg["exit_radius"] == 8.0
    assert cfg["n_paths"] == 1000


def test_unknown_manifold_kind_names_key():
    with pytest.raises(ConfigError, match="manifold.kind"):
        parse_config({**MINIMAL_WALK, "manifold": {"kind": "torus", "dim": 2}})


def test_schedule_invalid_alpha_names_key():
    with pytest.raises(ConfigError, match="alpha"):
        parse_config({**MINIMAL_WALK, "alpha": 2.0})


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match="wibble"):
        parse_config({**MINIMAL_WALK, "wibble": 1})


def test_couple_requires_starts():
    base = {"kind": "couple", "manifold": {"kind": "euclidean", "dim": 2},
            "alpha": 0.05, "t1": 0, "t2": 1, "seed": 1}
    with pytest.raises(ConfigError, match="start1"):
        parse_config(base)
    cfg = parse_config({**base, "d0": 1.0})
    assert cfg["delta_couple"] == pytest.approx(0.1)


def test_delta_couple_validation():
    base = {"kind": "couple", "manifold": {"kind": "euclidean", "dim": 2},
            "alpha": 0.05, "t1": 0, "t2": 1, "seed": 1, "d0": 1.0}
    with pytest.raises(ConfigError, match="delta_couple"):
        parse_config({**base, "delta_couple": 0.01})


def test_gradient_needs_halfspace():
    base = {"kind": "verify-gradient",
            "manifold": {"kind": "euclidean", "dim": 1},
            "alpha": 0.05, "t1": 0, "t2": 1, "seed": 1, "d0": 0.2}
    with pytest.raises(ConfigError, match="f"):
        parse_config(base)


def test_n_paths_positive():
    with pytest.raises(ConfigError, match="n_paths"):
        parse_config({**MINIMAL_WALK, "n_paths": 0})


def test_config_hash_is_canonical():
    a = parse_config(MINIMAL_WALK)
    reordered = dict(reversed(list(MINIMAL_WALK.items())))
    b = parse_config(reordered)
    assert a.config_hash() == b.config_hash()
    c = parse_config({**MINIMAL_WALK, "seed": 8})
    assert a.config_hash() != c.config_hash()


def test_resolve_start_points_from_d0():
    cfg = parse_config({"kind": "couple",
                        "manifold": {"kind": "euclidean", "dim": 2},
                        "alpha": 0.05, "t1": 0, "t2": 1, "seed": 1,
                        "d0": 1.0})
    model = cfg.build_model()
    x1, x2 = resolve_start_points(cfg, model)
    assert float(model.distance(0.0, x1, x2)) == pytest.approx(1.0)


def test_parse_suite_list():
    suite = {"experiments": [MINIMAL_WALK, {**MINIMAL_WALK, "seed": 8}]}
    configs = parse_suite(suite)
    assert len(configs) == 2 and configs[1]["seed"] == 8
    with pytest.raises(ConfigError):
        parse_suite({"experiments": [], "extra": 1})
    with pytest.raises(ConfigError, match="^experiments: "):
        parse_suite({"experiments": 3})


def test_manifold_spec_grammar():
    assert parse_manifold_spec("euclidean:2") == {"kind": "euclidean",
                                                  "dim": 2}
    assert parse_manifold_spec("sphere:2:flow") == {"kind": "sphere",
                                                    "dim": 2, "flow": True}
    assert parse_manifold_spec("scaled:2:k=1.5") == {"kind": "scaled",
                                                     "dim": 2, "k": 1.5}
    assert parse_manifold_spec("sphere:2:c0=2.0") == {"kind": "sphere",
                                                      "dim": 2,
                                                      "radius_c0": 2.0}
    with pytest.raises(GtwalkError, match="^unknown manifold option 'r=2'"):
        parse_manifold_spec("sphere:2:r=2")


# ---------------------------------------------------------------------------
# runner and CLI behavior
# ---------------------------------------------------------------------------

def _verify_doc(bias=0.05, n_paths=1500):
    return {"kind": "verify-coupling-bound",
            "manifold": {"kind": "euclidean", "dim": 2},
            "alpha": 0.1, "t1": 0.0, "t2": 1.0, "seed": 5,
            "n_paths": n_paths, "d0": 1.0, "bias": bias}


def test_runner_writes_reports_and_manifest(tmp_path):
    manifest, reports = run_document(_verify_doc(), workers=2,
                                     out_dir=tmp_path)
    assert (tmp_path / "manifest.json").exists()
    report = json.loads((tmp_path / "verify-coupling-bound.json").read_text())
    assert report["pass"] is True
    assert report["estimate"]["n"] == 1500
    csv_text = (tmp_path / "verify-coupling-bound.csv").read_text()
    assert csv_text.splitlines()[0].startswith("id,n,mean,stderr")
    cells = dict(zip(*(line.split(",") for line in csv_text.splitlines())))
    assert (cells["bound"], cells["pass"]) == (repr(report["bound"]), "True")
    m = json.loads((tmp_path / "manifest.json").read_text())
    assert m["config_hash"] == manifest.config_hash

    # A kind that checks nothing leaves the bound and pass cells empty.
    run_document({**MINIMAL_WALK, "n_paths": 50}, out_dir=tmp_path / "walk")
    lines = (tmp_path / "walk" / "walk.csv").read_text().splitlines()
    cells = dict(zip(*(line.split(",") for line in lines)))
    assert (cells["bound"], cells["pass"]) == ("", "")
    assert cells["n"] == "50" and float(cells["mean"]) > 0.0


def test_reports_byte_identical_across_workers(tmp_path):
    run_document(_verify_doc(), workers=1, out_dir=tmp_path / "w1")
    run_document(_verify_doc(), workers=4, out_dir=tmp_path / "w4")
    a, b = (strip_runtime(json.loads(
        (tmp_path / w / "verify-coupling-bound.json").read_text()))
        for w in ("w1", "w4"))
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_cli_exit_codes(tmp_path):
    good = tmp_path / "good.json"
    good.write_text(json.dumps(_verify_doc()))
    assert main(["run", str(good)]) == 0

    # an impossible bound forces a verification failure -> exit 2
    failing = tmp_path / "fail.json"
    failing.write_text(json.dumps({**_verify_doc(bias=-2.0), "n_paths": 1000}))
    assert main(["run", str(failing)]) == 2

    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps({**_verify_doc(), "n_paths": 0}))
    assert main(["run", str(broken)]) == 1

    assert main(["run", str(tmp_path / "missing.json")]) == 1


def test_cli_seed_flag_overrides(tmp_path):
    doc = tmp_path / "cfg.json"
    doc.write_text(json.dumps(_verify_doc(n_paths=800)))
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    assert main(["run", str(doc), "--out", str(out1), "--seed", "42"]) == 0
    assert main(["run", str(doc), "--out", str(out2), "--seed", "43"]) == 0
    a = json.loads((out1 / "verify-coupling-bound.json").read_text())
    b = json.loads((out2 / "verify-coupling-bound.json").read_text())
    assert a["seed"] == 42 and b["seed"] == 43
    assert a["estimate"]["mean"] != b["estimate"]["mean"]


def test_cli_list_models(capsys):
    """list-models prints the kinds a config can name, one a line."""
    assert main(["list-models"]) == 0
    assert capsys.readouterr().out.split() == [
        "euclidean", "sphere", "scaled", "hyperbolic"]


@pytest.mark.parametrize("command", ["run", "dump-paths"])
def test_cli_parses_through_the_config_module(command, tmp_path,
                                              monkeypatch, capsys):
    """The CLI calls config.parse_suite through its module, so a wrapper
    installed there (the layer tracer's) sees the CLI's own parse."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return parse_suite(*args, **kwargs)

    monkeypatch.setattr("gtwalk.config.parse_suite", counting)
    doc = tmp_path / "cfg.json"
    doc.write_text(json.dumps({**MINIMAL_WALK, "n_paths": 8}))
    assert main([command, str(doc), "--out", str(tmp_path / "out")]) == 0
    assert len(calls) == 1


def test_cli_dump_paths_format(tmp_path, capsys):
    doc = tmp_path / "cfg.json"
    doc.write_text(json.dumps({"kind": "couple",
                               "manifold": {"kind": "euclidean", "dim": 2},
                               "alpha": 0.2, "t1": 0.0, "t2": 1.0, "seed": 2,
                               "d0": 1.0, "n_paths": 4}))
    assert main(["dump-paths", str(doc), "--count", "2",
                 "--out", str(tmp_path / "dumps")]) == 0
    lines = (tmp_path / "dumps" / "coupled_0000.csv").read_text().splitlines()
    assert lines[0] == "n,t,x1_0,x1_1,x2_0,x2_1,dist,lambda_star,coupled"
    first = lines[1].split(",")
    assert first[0] == "0" and float(first[6]) == pytest.approx(1.0)

    walk_doc = tmp_path / "walk.json"
    walk_doc.write_text(json.dumps(MINIMAL_WALK))
    assert main(["dump-paths", str(walk_doc), "--count", "1",
                 "--out", str(tmp_path / "wd")]) == 0
    header = (tmp_path / "wd" / "path_0000.csv").read_text().splitlines()[0]
    assert header == "n,t,coord_0,coord_1"


def _csv_bytes(rows) -> bytes:
    text = io.StringIO(newline="")
    csv.writer(text).writerows(rows)
    return text.getvalue().encode()


FLOW_SPHERE = {"kind": "sphere", "dim": 2, "radius_c0": 1.0, "flow": True}


def test_dump_paths_bytes_match_single_path_runs(tmp_path):
    """dump_paths runs its paths in one kernel call with only the records
    it writes; each file holds the rows of that path's trace, which runs
    it alone with every per-step record, byte for byte."""
    pair = parse_config({"kind": "couple", "manifold": FLOW_SPHERE,
                         "alpha": 0.1, "t1": 0.0, "t2": 0.5, "seed": 2,
                         "d0": 0.5})
    files = dump_paths(pair, 3, tmp_path / "pair")
    assert [f.name for f in files] == [f"coupled_{i:04d}.csv" for i in range(3)]
    flags = []
    for idx, fname in enumerate(files):
        path = pair_trace(pair.kernel, idx)
        lam = [0.0, *path["lambda_star"]]
        flags += list(path["coupled_flags"])
        assert fname.read_bytes() == _csv_bytes(
            [["n", "t", "x1_0", "x1_1", "x1_2", "x2_0", "x2_1", "x2_2",
              "dist", "lambda_star", "coupled"]]
            + [[n, repr(float(t))]
               + [repr(float(v)) for v in path["skeleton1"][n]]
               + [repr(float(v)) for v in path["skeleton2"][n]]
               + [repr(float(path["distance"][n])), repr(float(lam[n])),
                  int(path["coupled_flags"][n])]
               for n, t in enumerate(pair.kernel.schedule.times)])
    assert any(flags) and not all(flags)

    walk = parse_config({**MINIMAL_WALK, "manifold": FLOW_SPHERE, "t2": 0.5})
    files = dump_paths(walk, 2, tmp_path / "walk")
    for idx, fname in enumerate(files):
        path = walk.kernel.trace(idx, {"end", "skeleton", "step_vectors",
                                       "noise"})
        assert fname.read_bytes() == _csv_bytes(
            [["n", "t", "coord_0", "coord_1", "coord_2"]]
            + [[n, repr(float(t))]
               + [repr(float(v)) for v in path["skeleton"][n]]
               for n, t in enumerate(walk.kernel.schedule.times)])


FELLER = {"kind": "feller-test", "b": {"name": "linear"}}


@pytest.mark.parametrize("expect, code", [("explodes", 0), ("survives", 2),
                                          (None, 0)])
def test_feller_passes_on_its_verdict_rule(tmp_path, expect, code):
    doc = tmp_path / "feller.json"
    doc.write_text(json.dumps({**FELLER, "expect": expect}))
    assert main(["run", str(doc), "--out", str(tmp_path / "out")]) == code
    report = json.loads((tmp_path / "out" / "feller-test.json").read_text())
    assert report["params"]["verdict"] == "explodes"
    assert report["pass"] is (code == 0)
    assert (report["estimate"], report["bound"]) == (None, None)
    assert report["params"]["decay_exponent"] >= 1.15
    assert report["params"]["verdict_reason"] is None


@pytest.mark.parametrize("integral, exponent, reason", [
    (2.5, math.inf, "the outer integrand reaches 0 before y_max"),
    (math.inf, math.nan, "the integral is not finite")])
def test_feller_non_finite_numbers_become_null(monkeypatch, tmp_path,
                                                integral, exponent, reason):
    """The report gives no number the test could not compute, and says
    why; it stays strict JSON."""
    monkeypatch.setattr(config, "feller_explosion_test", lambda *args:
                        FellerResult("explodes", integral, exponent))
    run_document({**FELLER, "expect": "explodes"}, out_dir=tmp_path)
    params = json.loads((tmp_path / "feller-test.json").read_text())["params"]
    assert params["decay_exponent"] is None
    assert params["integral"] == (integral if math.isfinite(integral)
                                  else None)
    assert params["verdict_reason"] == reason


def test_convergence_passes_on_its_trend_and_ks_flags():
    _, [report] = run_document({
        "kind": "convergence", "manifold": {"kind": "euclidean", "dim": 1},
        "t1": 0.0, "t2": 1.0, "alphas": [0.4, 0.2], "n_paths": 400,
        "seed": 10})
    d = report.to_dict()
    assert (d["estimate"], d["bound"]) == (None, None)
    assert d["pass"] is (d["params"]["trend_pass"]
                         and d["params"]["rows"][-1]["ks_pass"])


def test_convergence_on_the_circle_uses_the_wrapped_gaussian(tmp_path):
    """On sphere:1 a null reference picks the wrapped Gaussian law of the
    angle; its report has one row per alpha and, over two path chunks, is
    the same at 1 and 2 workers."""
    doc = {"kind": "convergence", "manifold": {"kind": "sphere", "dim": 1},
           "t1": 0.0, "t2": 1.0, "alphas": [0.4, 0.2], "n_paths": 2100,
           "seed": 4}
    texts = []
    for workers in (1, 2):
        _, [report] = run_document(doc, workers=workers,
                                   out_dir=tmp_path / f"w{workers}")
        texts.append(json.dumps(strip_runtime(json.loads(
            (tmp_path / f"w{workers}" / "convergence.json").read_text()))))
    assert texts[0] == texts[1]
    params = report.to_dict()["params"]
    assert params["reference"] == "wrapped-gauss"
    assert [row["alpha"] for row in params["rows"]] == [0.4, 0.2]
    assert all(row["n"] == 2100 for row in params["rows"])


@pytest.mark.parametrize("kind", list_model_kinds())
def test_cli_gradient_runs_on_each_listed_kind(kind, capsys):
    """The flag-built gradient check's halfspace normal is the axis d0
    separates the pair along, a unit vector of the ambient coordinates:
    on the sphere the first frame vector at the north pole, zeros +0.0."""
    spec = f"{kind}:2" + (":k=0.5" if kind == "scaled" else "")
    argv = ["verify", "gradient", "--manifold", spec, "--alpha", "0.2",
            "--samples", "200", "--seed", "3"]
    cfg = parse_config(_document_from_flags(_PARSER.parse_args(argv)))
    normal, model = np.array(cfg["f"]["normal"]), cfg.build_model()
    x1, x2 = resolve_start_points(cfg, model)
    assert normal.shape == (model.ambient_dim,)
    assert float(normal @ normal) == pytest.approx(1.0)
    assert float(normal @ (x2 - x1)) > 0.0
    if kind == "euclidean":
        assert normal.tolist() == [1.0, 0.0]
    if kind == "sphere":
        # a -0.0 would be written into the config and move its hash
        assert normal.tolist() == [1.0, 0.0, 0.0]
        assert not np.signbit(normal).any()
    assert main(argv) in (0, 2)
    assert capsys.readouterr().out.startswith("[")


@pytest.mark.parametrize("flag, value", [
    ("--alpha", "0.1"), ("--samples", "5"), ("--manifold", "euclidean:2"),
    ("--threads", "2")])
def test_dump_paths_rejects_flags_it_would_ignore(flag, value, tmp_path,
                                                  capsys):
    """dump-paths takes only --count, --seed and --out; other flags are a
    usage error instead of being silently ignored."""
    doc = tmp_path / "walk.json"
    doc.write_text(json.dumps(MINIMAL_WALK))
    with pytest.raises(SystemExit) as exc:
        main(["dump-paths", str(doc), flag, value,
              "--out", str(tmp_path / "d")])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not (tmp_path / "d").exists()


# A value for each flag of the flag-built subcommands, unlike its default.
# --threads must not change a report (criterion 11), and --out only picks
# the directory the artefacts go to.
_FLAG_VALUES = {"--seed": "5", "--alpha": "0.1", "--samples": "64",
                "--manifold": "euclidean:3", "--t1": "0.25", "--t2": "0.75",
                "--dump": "2", "--d0": "0.5", "--delta-couple": "0.3",
                "--k": "0.5", "--coupling": "parallel"}
_RUNTIME_FLAGS = {"-h", "--help", "--threads", "--out"}
_FLAG_BUILT = {"walk": ["walk"], "couple": ["couple"],
               "verify": ["verify", "coupling-bound"]}


def _subcommand_flags(command: str) -> set[str]:
    sub = next(action for action in _PARSER._actions
               if isinstance(action, argparse._SubParsersAction))
    return {flag for action in sub.choices[command]._actions
            for flag in action.option_strings}


def _flag_built_output(argv: list[str], out) -> tuple | None:
    """What a flag-built run writes: its report without runtime and config
    hash, and the names of the files; None for a usage error."""
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            main([*argv, "--out", str(out)])
        except SystemExit as e:
            assert e.code == 2
            return None
    [report] = [p for p in out.glob("*.json") if p.name != "manifest.json"]
    doc = strip_runtime(json.loads(report.read_text()))
    doc["params"].pop("config_hash")
    return doc, sorted(str(p.relative_to(out)) for p in out.rglob("*"))


@pytest.mark.parametrize("command", sorted(_FLAG_BUILT))
def test_every_flag_takes_effect_or_is_a_usage_error(command, tmp_path):
    """Each flag of walk, couple and verify, set to a value unlike its
    default, either changes what the run writes or is a usage error
    (exit 2): a subcommand has only the flags its experiment reads."""
    flags = _subcommand_flags(command)
    assert flags - _RUNTIME_FLAGS <= set(_FLAG_VALUES)
    base = [*_FLAG_BUILT[command], "--manifold", "euclidean:2",
            "--samples", "200", "--seed", "1"]
    reference = _flag_built_output(base, tmp_path / "base")
    assert reference is not None
    for flag, value in _FLAG_VALUES.items():
        got = _flag_built_output([*base, flag, value], tmp_path / flag)
        assert got != reference, flag
        assert (got is None) == (flag not in flags), flag


def test_cli_flag_built_walk(capsys):
    assert main(["walk", "--manifold", "euclidean:2", "--alpha", "0.1",
                 "--samples", "200", "--seed", "3"]) == 0
    assert "[NO CHECK] walk: estimate=" in capsys.readouterr().out


def test_threads_env_fallback(tmp_path, monkeypatch):
    doc = tmp_path / "cfg.json"
    doc.write_text(json.dumps(_verify_doc(n_paths=600)))
    monkeypatch.setenv("GTWALK_THREADS", "3")
    assert main(["run", str(doc), "--out", str(tmp_path / "env")]) == 0


def test_cli_verify_subcommand(capsys):
    code = main(["verify", "coupling-bound", "--manifold", "euclidean:2",
                 "--alpha", "0.1", "--samples", "800", "--seed", "4",
                 "--d0", "1.0"])
    out = capsys.readouterr().out
    assert code in (0, 2) and "verify-coupling-bound" in out


def test_cli_couple_subcommand(capsys):
    code = main(["couple", "--manifold", "sphere:2", "--alpha", "0.1",
                 "--samples", "300", "--seed", "4", "--d0", "1.0",
                 "--coupling", "parallel"])
    assert code == 0
    assert "[NO CHECK] couple: estimate=" in capsys.readouterr().out


def test_couple_keys_take_effect():
    """exit_radius and origin each change the couple report."""
    doc = {"kind": "couple", "manifold": {"kind": "euclidean", "dim": 2},
           "alpha": 0.1, "t1": 0.0, "t2": 1.0, "seed": 3, "n_paths": 300,
           "d0": 1.0}

    def params(**extra):
        _, [report] = run_document({**doc, **extra})
        out = report.to_dict()["params"]
        out.pop("config_hash")
        return out

    default = params()
    assert default["exit_fraction"] == 0.0
    assert params(exit_radius=1.5)["exit_fraction"] > 0.0
    assert params(origin=[10.0, 0.0])["exit_fraction"] == 1.0
    with pytest.raises(ConfigError, match="^exit_radius: "):
        params(exit_radius=0.5)


@pytest.mark.parametrize("kind", ["walk", "couple"])
def test_exit_fraction_is_null_without_exit_check(kind):
    """With exit_radius null no exit check runs, so the report gives no
    exit fraction rather than a made-up 0."""
    doc = {"kind": kind, "manifold": {"kind": "euclidean", "dim": 2},
           "alpha": 0.1, "t1": 0.0, "t2": 1.0, "seed": 3, "n_paths": 50,
           "exit_radius": None, **({"d0": 1.0} if kind == "couple" else {})}
    _, [report] = run_document(doc)
    params = report.to_dict()["params"]
    assert params["exit_radius"] is None
    assert params["exit_fraction"] is None


def _taken(kind: str, doc: dict) -> dict:
    """``doc`` without the keys ``kind`` does not take."""
    return {key: value for key, value in doc.items()
            if key in _COMMON_KEYS | _KEYS_BY_KIND[kind]}


# One small config per experiment kind, for the n_dump check.
_EUCLID1 = {"manifold": {"kind": "euclidean", "dim": 1}, "t1": 0.0,
            "t2": 1.0, "seed": 1}
_PAIR = {"alpha": 0.2, "n_paths": 20, "d0": 0.5}
_DUMP_DOCS = {
    "walk": {"alpha": 0.2, "n_paths": 20},
    "couple": _PAIR,
    "verify-coupling-bound": _PAIR,
    "verify-contraction": _PAIR,
    "verify-gradient": {**_PAIR, "f": {"type": "halfspace", "normal": [1.0],
                                       "offset": 0.0}},
    "convergence": {"alphas": [0.4, 0.2], "n_paths": 100},
    "feller-test": {"b": {"name": "zero"}},
    "ou-survival": {"a": 1.0, "ou_h": 1e-3, "n_paths": 1000},
    "radial-domination": {"alpha": 0.2, "n_paths": 20, "b": {"name": "zero"}},
}
_PATH_KINDS = {"walk", "couple", "verify-coupling-bound", "verify-contraction",
               "verify-gradient", "radial-domination"}


@pytest.mark.parametrize("kind", EXPERIMENT_KINDS)
def test_n_dump_writes_paths_or_is_rejected(kind, tmp_path):
    """Kinds that simulate paths dump them; the others reject n_dump, both
    as a config key and in dump_paths."""
    doc = {"kind": kind, **_taken(kind, _EUCLID1), **_DUMP_DOCS[kind]}
    cfg = parse_config(doc)
    if kind in _PATH_KINDS:
        run_document({**doc, "n_dump": 2}, out_dir=tmp_path / "run")
        assert len(list((tmp_path / "run" / "paths").glob("*.csv"))) == 2
        assert len(dump_paths(cfg, 1, tmp_path / "d")) == 1
    else:
        with pytest.raises(ConfigError, match="n_dump"):
            run_document({**doc, "n_dump": 2}, out_dir=tmp_path / "run")
        with pytest.raises(ConfigError, match="n_dump"):
            dump_paths(cfg, 1, tmp_path / "d")


_FLOW_SPHERE = {"kind": "sphere", "dim": 2, "radius_c0": 1.0, "flow": True}

# A small config per kind and, for every key any kind takes, a valid value
# unlike the config's own. The radial margin is negative so that the replay
# flags paths and the exit check shows in the estimate.
_KEY_BASES = {
    "walk": {"manifold": {"kind": "euclidean", "dim": 2}, "alpha": 0.1,
             "n_paths": 48},
    "couple": {"manifold": {"kind": "euclidean", "dim": 2}, "alpha": 0.1,
               "n_paths": 48, "d0": 1.0},
    "verify-coupling-bound": {"manifold": {"kind": "euclidean", "dim": 2},
                              "alpha": 0.1, "n_paths": 48, "d0": 1.0},
    "verify-contraction": {"manifold": _FLOW_SPHERE, "t2": 0.5,
                           "alpha": 0.1, "n_paths": 48, "d0": 1.0},
    "verify-gradient": {"manifold": {"kind": "euclidean", "dim": 2},
                        "alpha": 0.1, "n_paths": 48, "d0": 1.0,
                        "f": {"type": "halfspace", "normal": [1.0, 0.0],
                              "offset": 0.0}},
    "convergence": {"manifold": {"kind": "euclidean", "dim": 1},
                    "alphas": [0.4, 0.2], "n_paths": 100},
    "feller-test": {"b": {"name": "zero"}},
    "ou-survival": {"a": 1.0, "ou_h": 1e-3, "n_paths": 1000},
    "radial-domination": {"manifold": _FLOW_SPHERE, "t2": 0.5, "alpha": 0.1,
                          "n_paths": 48, "b": {"name": "zero"},
                          "margin": -1.0},
}


def _key_base(kind: str) -> dict:
    return {**_taken(kind, {"kind": kind, "t1": 0.0, "t2": 1.0, "seed": 2}),
            **_KEY_BASES[kind]}


def test_origin_without_exit_check_is_refused_by_the_library():
    """Only the exit check reads a walk's or a pair's origin, so with
    exit_radius None the kernels' builders refuse an origin; the radial
    replay reads it, so radial-domination keeps it."""
    plane = make_model({"kind": "euclidean", "dim": 2}, (0.0, 1.0))
    o = np.array([5.0, 5.0])
    with pytest.raises(InvalidInput, match="exit_radius") as e:
        walk_kernel(plane, Schedule(0.0, 1.0, 0.1), np.zeros(2), 1, 8,
                    origin=o)
    assert e.value.key == "origin"
    with pytest.raises(InvalidInput, match="exit_radius") as e:
        coupled_kernel(plane, Schedule(0.0, 1.0, 0.1), np.zeros(2),
                       np.ones(2), 1, origin=o)
    assert e.value.key == "origin"
    base = {**_key_base("radial-domination"), "exit_radius": None}
    far = [0.0, 1.0, 0.0]
    _, [near] = run_document(base)
    _, [moved] = run_document({**base, "origin": far})
    assert moved.metadata["params"]["rho0"] != near.metadata["params"]["rho0"]


@pytest.mark.parametrize("count", ["0", "-2"])
def test_dump_paths_count_below_one_is_refused(count, tmp_path, capsys):
    """A dump of no paths would exit 0 and write nothing; dump-paths and
    dump_paths refuse it with n_dump's rule."""
    doc = tmp_path / "cfg.json"
    doc.write_text(json.dumps(MINIMAL_WALK))
    assert main(["dump-paths", str(doc), "--count", count,
                 "--out", str(tmp_path / "d")]) == 1
    assert capsys.readouterr().err == \
        f"error: n_dump: a dump writes at least 1 path, not {count}\n"
    assert not (tmp_path / "d").exists()
    cfg = parse_config(MINIMAL_WALK)
    with pytest.raises(ConfigError, match="^n_dump: "):
        dump_paths(cfg, int(count), tmp_path / "d")


def test_n_dump_zero_or_null_dumps_nothing(tmp_path):
    for n_dump in (0, None):
        run_document({**MINIMAL_WALK, "n_paths": 8, "n_dump": n_dump},
                     out_dir=tmp_path)
        assert not (tmp_path / "paths").exists()


def test_radial_exit_radius_null_skips_exit_check():
    # On the unit sphere no path gets 7 away from the origin, so the
    # default radius and no exit check give the same estimate.
    base = _key_base("radial-domination")
    _, [null] = run_document({**base, "exit_radius": None})
    _, [default] = run_document(base)
    assert null.estimate.mean == default.estimate.mean > 0.0


@pytest.mark.parametrize("kind", ["walk", "couple", "radial-domination"])
def test_exit_radius_at_most_one_rejected(kind):
    for radius in (0.5, 1.0):
        with pytest.raises(ConfigError, match="exit_radius"):
            parse_config({**_key_base(kind), "exit_radius": radius})
    assert parse_config({**_key_base(kind), "exit_radius": 1.5}) \
        ["exit_radius"] == 1.5


_KEY_VALUES = {
    "manifold": {"kind": "scaled", "k": 0.5,
                 "base": {"kind": "euclidean", "dim": 2}},
    "t1": 0.25, "t2": 0.75, "seed": 5,
    "alpha": 0.05, "n_paths": 32, "start": [6.9, 0.0], "origin": [7.5, 0.0],
    "exit_radius": 1.5, "start1": [0.0, 0.0],
    "start2": [1.0, 0.0], "d0": 0.5, "delta_couple": 1.0, "k": 0.5,
    "coupling": "parallel", "bias": 0.01,
    "contraction_coefficient": 2.0,
    "f": {"type": "halfspace", "normal": [0.0, 1.0], "offset": 0.0},
    "osc": 0.5, "alphas": [0.4, 0.1], "reference": "wrapped-gauss",
    "b": {"name": "constant", "c": 1.0}, "C": 2.0, "y_max": 10.0,
    "expect": "explodes", "a": 0.5, "ou_h": 1e-2, "c0": 2.0, "r0": 0.25,
    "margin": 0.2,
}
_KEY_VALUES_BY_KIND = {
    "convergence": {"manifold": {"kind": "sphere", "dim": 1},
                    "start": [0.5], "n_paths": 120},
    "ou-survival": {"n_paths": 1200},
    "radial-domination": {"start": [0.0, 1.0, 0.0], "origin": [0.0, 1.0, 0.0]},
}
# Accepted keys that leave every report unchanged. The convergence
# reference law is centred at the start, so its statistics do not move
# with it.
_NO_VISIBLE_EFFECT = {("convergence", "start")}


def _rounded(value):
    """Floats to 9 significant digits, so rounding noise is no change."""
    if isinstance(value, float):
        return float(f"{value:.9g}")
    if isinstance(value, dict):
        return {k: _rounded(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_rounded(v) for v in value]
    return value


def _report_without_hash(doc: dict) -> dict:
    _, [report] = run_document(doc)
    out = strip_runtime(report.to_dict())
    out["params"].pop("config_hash")
    return _rounded(out)


@pytest.mark.parametrize("kind", EXPERIMENT_KINDS)
def test_every_key_takes_effect_or_is_rejected(kind):
    """Each key any kind takes, the common keys included, set to a valid
    non-default value, either changes the report (or its params) or is
    rejected at parse. ``kind`` names the experiment the other keys belong
    to, ``out`` only picks the directory the artefacts go to and ``n_dump``
    how many path files go beside the report (its own tests check them),
    so none is a value of the run."""
    base = _key_base(kind)
    reference = _report_without_hash(base)
    for key in sorted((_COMMON_KEYS - {"kind", "out"})
                      | set().union(*_KEYS_BY_KIND.values()) - {"n_dump"}):
        value = _KEY_VALUES_BY_KIND.get(kind, {}).get(key, _KEY_VALUES[key])
        assert value != parse_config(base).get(key), key
        doc = {**base, key: value}
        try:
            parse_config(doc)
        except ConfigError as e:
            assert str(e).startswith(f"{key}:"), (key, str(e))
            continue
        changed = _report_without_hash(doc) != reference
        assert changed == ((kind, key) not in _NO_VISIBLE_EFFECT), key


@pytest.mark.parametrize("kind", ["walk", "couple", "verify-coupling-bound",
                                  "verify-contraction", "verify-gradient"])
def test_use_drift_is_an_unknown_key(kind):
    """A walk drifts exactly when its model has a drift field, so no
    config key asks for drift."""
    with pytest.raises(ConfigError, match="^use_drift: unknown key"):
        parse_config({**_key_base(kind), "use_drift": True})


@pytest.mark.parametrize("value", [True, False])
def test_stick_is_an_unknown_key(value):
    """A coupled pair always moves as one particle from its coupling step
    on, so no config key switches that off."""
    with pytest.raises(ConfigError, match="^stick: unknown key"):
        parse_config({**_key_base("couple"), "stick": value})


def test_unknown_coupling_rejected():
    with pytest.raises(ConfigError, match="^coupling: must be"):
        parse_config({**_key_base("couple"), "coupling": "reflect"})


_NOT_BOOLS = ["false", 0, None]


@pytest.mark.parametrize("value", _NOT_BOOLS)
def test_switch_must_be_a_json_boolean(value):
    """bool("false") is True, so a switch that is not true/false would
    turn on; the parser rejects it naming the key, also in a scaled
    model's base."""
    sphere = {"kind": "sphere", "dim": 2, "flow": value}
    for doc, name in (({**MINIMAL_WALK, "manifold": sphere}, "manifold.flow"),
                      ({**MINIMAL_WALK, "manifold": {
                          "kind": "scaled", "k": 0.5, "base": sphere}},
                       "manifold.base.flow")):
        with pytest.raises(ConfigError,
                           match=f"^{name}: must be true or false"):
            parse_config(doc)


_NOT_NUMBERS = [
    ("walk", "seed", "7"),
    ("walk", "seed", 7.0),
    ("walk", "seed", True),
    ("walk", "n_paths", 10.5),
    ("walk", "n_dump", "2"),
    ("walk", "exit_radius", "8"),
    ("walk", "exit_radius", False),
    ("walk", "t2", math.inf),
    ("walk", "t1", math.nan),
    ("walk", "alpha", "0.05"),
    ("walk", "alpha", 10 ** 400),
    ("walk", "manifold.dim", 2.5),
    ("walk", "manifold.dim", "2"),
    ("walk", "manifold.radius_c0", "2"),
    ("couple", "d0", True),
    ("convergence", "alphas", [0.4, "0.2"]),
    ("convergence", "alphas", [0.4, True]),
    ("convergence", "alphas", [0.4, math.inf]),
]


@pytest.mark.parametrize("kind, key, value", _NOT_NUMBERS)
def test_numeric_value_must_be_a_number_of_its_type(kind, key, value):
    """Integer keys take JSON integers and float keys finite JSON numbers;
    strings, bools, and floats for integer keys fail naming the key."""
    doc = _key_base(kind)
    if key.startswith("manifold."):
        doc["manifold"] = {"kind": "sphere", "dim": 2,
                           key.split(".")[1]: value}
    else:
        doc[key] = value
    with pytest.raises(ConfigError, match=f"^{key}: must "):
        parse_config(doc)


def test_numbers_are_stored_as_given():
    cfg = parse_config({**MINIMAL_WALK, "exit_radius": 8, "n_dump": None})
    assert isinstance(cfg.data["exit_radius"], int)
    assert cfg.data["n_dump"] is None


@pytest.mark.parametrize("name, env, patch, argv", [
    ("GTWALK_THREADS", "two", {}, None),
    ("--manifold", None, {}, ["walk", "--manifold", "sphere:two"]),
    ("t1", None, {"t1": "zero"}, None),
    ("n_paths", None, {"n_paths": "many"}, None),
    ("manifold.dim", None, {"manifold": {"kind": "sphere", "dim": "two"}},
     None),
    ("manifold.dim", None, {"manifold": {"kind": "sphere"}}, None),
    ("manifold.dim", None, {}, ["verify", "gradient", "--manifold",
                                "sphere:0"]),
    ("t2", None, {}, ["verify", "gradient", "--manifold", "sphere:2",
                      "--t1", "1.0"]),
])
def test_bad_outside_input_is_an_error_line(name, env, patch, argv, tmp_path,
                                            monkeypatch, capsys):
    """Malformed numbers from the environment, flags or a config file
    exit 1 with one 'error:' line that names where they came from."""
    doc = tmp_path / "cfg.json"
    doc.write_text(json.dumps({**MINIMAL_WALK, "n_paths": 8, **patch}))
    if env is None:
        monkeypatch.delenv("GTWALK_THREADS", raising=False)
    else:
        monkeypatch.setenv("GTWALK_THREADS", env)
    assert main(argv or ["run", str(doc)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and name in err, err


_FLOW_BASE = {"kind": "scaled", "k": 0.5, "base": _FLOW_SPHERE}
_DROP = object()   # a _REFUSED patch value that removes the key


_REFUSED = [
    ("ou-survival", {"ou_h": 0}, "ou_h"),
    ("ou-survival", {"ou_h": -0.1}, "ou_h"),
    ("ou-survival", {"n_paths": 999}, "n_paths"),
    ("couple", {"exit_radius": 1.0}, "exit_radius"),
    ("convergence", {"alphas": [0.2, 0.4]}, "alphas"),
    ("convergence", {"alphas": [0.2, 0.2]}, "alphas"),
    ("ou-survival", {"a": -1.0}, "a"),
    ("walk", {"manifold": {"kind": "sphere", "dim": 2, "radius_c0": -1.0}},
     "manifold.radius_c0"),
    ("walk", {"manifold": {"kind": "euclidean", "dim": 0}}, "manifold.dim"),
    ("walk", {"manifold": {"kind": "scaled", "k": 0.5, "base": {
        "kind": "hyperbolic", "dim": 0}}}, "manifold.base.dim"),
    ("radial-domination", {"manifold": _FLOW_BASE}, "manifold.base"),
    ("walk", {"manifold": {"kind": "scaled", "k": 1.0, "base": {
        "kind": "scaled", "k": 5.0, "dim": 2}}}, "manifold.base"),
    ("walk", {"manifold": {"kind": "scaled", "dim": 2}}, "manifold.k"),
    ("walk", {"manifold": {"kind": "euclidean", "dim": 2, "flow": True}},
     "manifold.flow"),
    ("walk", {"manifold": {"kind": "scaled", "k": 0.5, "dim": 3, "base": {
        "kind": "euclidean", "dim": 2}}}, "manifold.dim"),
    ("feller-test", {"b": {"name": "nope"}}, "b"),
    ("feller-test", {"b": "zero"}, "b"),
    ("radial-domination", {"b": {"name": "constant", "c": -2.0}}, "b"),
    ("feller-test", {"b": {"name": "constant"}}, "b"),
    ("radial-domination", {"b": {"name": "table", "r": [0.0, 1.0]}}, "b"),
    ("radial-domination", {"b": {"name": "table", "r": [0.0, 1.0],
                                 "values": [1.0]}}, "b"),
    ("feller-test", {"b": {"name": "linear", "slope": -1.0}}, "b"),
    ("feller-test", {"b": {"name": "zero", "c": 5.0}}, "b"),
    ("radial-domination", {"b": {"name": "table", "r": [2.0, 1.0, 0.0],
                                 "values": [0.0, 1.0, 2.0]}}, "b"),
    ("feller-test", {"C": -1.0}, "C"),
    ("feller-test", {"y_max": 5.0}, "y_max"),
    ("radial-domination", {"r0": -1.0}, "r0"),
    ("radial-domination", {"c0": 0.0}, "c0"),
    ("verify-gradient", {"f": {"type": "halfspace", "normal": [1.0],
                               "offset": 0.0}}, "f.normal"),
    ("verify-gradient", {"f": {"type": "halfspace", "normal": None,
                               "offset": 0.0}}, "f.normal"),
    ("verify-gradient", {"f": {"type": "halfspace", "normal": [1.0, 0.0],
                               "offset": "0.5"}}, "f.offset"),
    ("verify-gradient", {"f": {"type": "halfspace", "normal": [1.0, 0.0],
                               "offset": 0.0, "scale": 2.0}}, "f"),
    ("walk", {"manifold": {"kind": "euclidean", "dim": 10 ** 400}},
     "manifold.dim"),
    ("walk", {"manifold": {"kind": "sphere", "dim": 10 ** 13}},
     "manifold.dim"),
    ("walk", "[1, 2]", "config"),
    ("walk", {"kind": _DROP}, "kind"),
    ("walk", {"kind": "stroll"}, "kind"),
    ("walk", {"t1": _DROP}, "t1"),
    ("walk", {"t2": 0.0}, "t2"),
    ("convergence", {"alphas": []}, "alphas"),
    ("walk", {"alpha": _DROP}, "alpha"),
    ("couple", {"d0": _DROP, "start1": [0.0, 0.0]}, "start1"),
    ("feller-test", {"b": _DROP}, "b"),
    ("ou-survival", {"a": _DROP}, "a"),
    ("convergence", {"reference": "uniform"}, "reference"),
    ("walk", "{", "config"),
    ("walk", '{"kind": "walk", "t1": 1%s}' % ("0" * 5000), "config"),
    ("walk", {"n_dump": -3}, "n_dump"),
    ("verify-coupling-bound", {"n_dump": -1}, "n_dump"),
    ("walk", {"exit_radius": None, "origin": [5.0, 5.0]}, "origin"),
    ("couple", {"exit_radius": None, "origin": [5.0, 5.0]}, "origin"),
    ("feller-test", {"manifold": {"kind": "euclidean", "dim": 1}},
     "manifold"),
    ("feller-test", {"t1": 0.0}, "t1"),
    ("ou-survival", {"manifold": {"kind": "euclidean", "dim": 1}},
     "manifold"),
    ("couple", {"k": 0.0}, "k"),
]


@pytest.mark.parametrize("kind, patch, key", _REFUSED, ids=[
        "ou_h-zero", "ou_h-negative", "ou-n_paths-999", "couple-exit_radius-1",
        "alphas-rising", "alphas-equal", "ou-a-negative", "radius_c0-negative",
        "dim-zero", "base-dim-zero", "scaled-flow-base", "scaled-scaled-base",
        "scaled-no-k", "euclidean-flow", "scaled-dim-and-base",
        "b-unknown-name", "b-not-an-object", "b-constant-negative",
        "b-constant-no-c",
        "b-table-no-values", "b-table-lengths", "b-linear-negative",
        "b-zero-unread-key", "b-table-unsorted",
        "feller-C-negative", "feller-y_max-5", "radial-r0-negative",
        "radial-c0-zero", "f-normal-length", "f-normal-null",
        "f-offset-string", "f-unread-key", "dim-1e400", "dim-1e13",
        "top-level-list", "no-kind", "kind-unknown", "no-t1", "t2-at-t1",
        "alphas-empty", "no-alpha", "start1-alone", "feller-no-b",
        "ou-no-a", "reference-unknown", "json-invalid", "json-int-digits",
        "walk-n_dump-negative", "verify-n_dump-negative",
        "walk-origin-without-exit", "couple-origin-without-exit",
        "feller-manifold", "feller-t1", "ou-manifold", "couple-k"])
def test_value_the_run_refuses_is_rejected_at_parse(kind, patch, key,
                                                    tmp_path, capsys):
    """A value the run would refuse, crash on or ignore exits 1 with one
    'error:' line that starts with its key. A patch is the config's keys to
    set (_DROP removes one) or the whole file's text."""
    doc = tmp_path / "cfg.json"
    doc.write_text(patch if isinstance(patch, str) else json.dumps(
        {k: v for k, v in {**_key_base(kind), **patch}.items()
         if v is not _DROP}))
    assert main(["run", str(doc)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {key}: "), err


# The descriptors the parser refuses in the tests above, and the key each
# fault names.
_BAD_DESCRIPTORS = [
    *[(patch["manifold"], key) for _, patch, key in _REFUSED
      if isinstance(patch, dict) and key.startswith("manifold.")],
    *[({"kind": "sphere", "dim": 2, key.split(".")[1]: value}, key)
      for _, key, value in _NOT_NUMBERS if key.startswith("manifold.")],
    *[({"kind": "sphere", "dim": 2, "flow": value}, "manifold.flow")
      for value in _NOT_BOOLS],
    *[({"kind": "scaled", "k": 0.5, "base": {
        "kind": "sphere", "dim": 2, "flow": value}}, "manifold.base.flow")
      for value in _NOT_BOOLS],
    (["sphere", 2], "manifold"),
    ({"dim": 2}, "manifold.kind"),
    ({"kind": "sphere"}, "manifold.dim"),
    ({"kind": "scaled", "base": {"kind": "euclidean", "dim": 2}},
     "manifold.k"),
    ({"kind": "euclidean", "dim": True}, "manifold.dim"),
    ({"kind": "scaled", "k": 0.5, "dim": 2, "base": {
        "kind": "sphere", "dim": 2}}, "manifold.dim"),
    ({"kind": "scaled", "k": 0.5, "base": "sphere"}, "manifold.base"),
    ({"kind": "torus", "dim": 2}, "manifold.kind"),
    ({"kind": "sphere", "dim": 2, "bogus": 1}, "manifold.bogus"),
]


@pytest.mark.parametrize("desc, key", _BAD_DESCRIPTORS)
def test_make_model_refuses_what_the_parser_refuses(desc, key):
    """make_model holds the descriptor's rules: alone it refuses what the
    parser refuses, its InvalidInput keyed by the parser's path without
    'manifold.', and the parser's line is that key and its message."""
    with pytest.raises(ConfigError) as parsed:
        parse_config({**MINIMAL_WALK, "manifold": desc})
    with pytest.raises(InvalidInput) as built:
        make_model(desc, (0.0, 1.0))
    assert ".".join(filter(None, ("manifold", built.value.key))) == key
    assert str(parsed.value) == f"{key}: {built.value}"


@pytest.mark.parametrize("kind", list_model_kinds())
def test_each_listed_model_kind_parses(kind):
    desc = {"kind": kind, **({"k": 0.5} if kind == "scaled" else {"dim": 2})}
    model = parse_config({**MINIMAL_WALK, "manifold": desc}).build_model()
    assert model.kind == kind


def _coupling(alpha=0.1, **settings):
    return coupled_kernel(make_model({"kind": "euclidean", "dim": 2},
                                     (0.0, 1.0)), Schedule(0.0, 1.0, alpha),
                          [0.0, 0.0], [1.0, 0.0], 2, **settings)


# Each value rule, written once in the library: the key it refuses, a call
# of the library object that holds it with a refused value, and a config of
# that value. The library calls raise before any work.
_RULES = [
    ("alpha", lambda: Schedule(0.0, 1.0, 2.0), "walk", {"alpha": 2.0}),
    ("alpha", lambda: Schedule(0.0, 1.0, -0.1), "walk", {"alpha": -0.1}),
    ("alpha", lambda: Schedule(0.0, 0.5, 2.0), "radial-domination",
     {"alpha": 2.0}),
    ("alpha", lambda: _coupling(alpha=2.0), "couple", {"alpha": 2.0}),
    ("alpha", lambda: Schedule(0.0, 1.0, 2.0), "convergence",
     {"alphas": [2.0, 0.1]}),
    ("alphas", lambda: alpha_schedules(0.0, 1.0, [0.2, 0.4]),
     "convergence", {"alphas": [0.2, 0.4]}),
    ("delta_couple", lambda: _coupling(delta_couple=0.05), "couple",
     {"delta_couple": 0.05}),
    ("delta_couple", lambda: _coupling(delta_couple=0.05),
     "verify-gradient", {"delta_couple": 0.05}),
    ("exit_radius", lambda: walk_kernel(None, None, None, 2, 48,
                                        exit_radius=1.0), "walk",
     {"exit_radius": 1.0}),
    ("exit_radius", lambda: _coupling(exit_radius=0.5), "couple",
     {"exit_radius": 0.5}),
    ("exit_radius", lambda: walk_kernel(None, None, None, 2, 48,
                                        exit_radius=1.0),
     "radial-domination", {"exit_radius": 1.0}),
    ("ou_h", lambda: ou_kernel(OUParams(1.0, 0.0), 1.0, 0.0, 2, 1000),
     "ou-survival", {"ou_h": 0.0}),
    ("n_paths", lambda: ou_kernel(OUParams(1.0, 0.0), 1.0, 1e-3, 2, 999),
     "ou-survival", {"n_paths": 999}),
    ("C", lambda: feller_explosion_test(builtin_b({"name": "zero"}), -1.0),
     "feller-test", {"C": -1.0}),
    ("y_max", lambda: feller_explosion_test(builtin_b({"name": "zero"}), 1.0,
                                            5.0), "feller-test",
     {"y_max": 5.0}),
    ("n_paths", lambda: map_path_chunks(0, None), "walk", {"n_paths": 0}),
    ("n_paths", lambda: map_path_chunks(0, None), "convergence",
     {"n_paths": 0}),
    ("n_paths", lambda: ks_statistic(np.zeros(50), None), "convergence",
     {"n_paths": 50}),
    ("seed", lambda: rng.check_seed(-1), "walk", {"seed": -1}),
    ("seed", lambda: rng.check_seed(2 ** 64), "couple", {"seed": 2 ** 64}),
]


def test_seed_takes_every_key_word():
    """A seed is one Philox key word: 2^64 - 1 is accepted and runs, and
    the stream key refuses the seeds beyond it instead of wrapping them."""
    top = 2 ** 64 - 1
    assert parse_config({**_key_base("walk"), "seed": top})["seed"] == top
    assert rng.walk_noise(top, 0, 3, 2).shape == (3, 2)
    for seed in (-1, 2 ** 64):
        with pytest.raises(InvalidInput, match="seed") as refused:
            rng.stream(seed, rng.PURPOSE_WALK, 0)
        assert refused.value.key == "seed"


@pytest.mark.parametrize("key, library, kind, patch", _RULES,
                         ids=[f"{rule[2]}-{rule[0]}-{i}"
                              for i, rule in enumerate(_RULES)])
def test_parser_prints_the_library_rule(key, library, kind, patch):
    """The parser states no value rule of its own: it builds the library
    object that holds the rule, and its error is that object's, prefixed
    with the key the object names."""
    with pytest.raises(InvalidInput) as refused:
        library()
    assert refused.value.key == key
    with pytest.raises(ConfigError) as rejected:
        parse_config({**_key_base(kind), **patch})
    assert str(rejected.value) == f"{key}: {refused.value}"


# For each point key, a config of a kind that takes it, with a good point
# and a point of the wrong length.
_POINT_CASES = {
    "start": ("convergence", {}, [0.5], [6.9, 0.0]),
    "start1": ("couple", {"start2": [1.0, 0.0]}, [0.0, 0.0], [0.0, 0.0, 0.0]),
    "start2": ("verify-coupling-bound", {"start1": [0.0, 0.0]}, [1.0, 0.0],
               [1.0]),
    "origin": ("radial-domination", {}, [0.0, 1.0, 0.0], [7.5, 0.0]),
}


@pytest.mark.parametrize("key", sorted(_POINT_CASES))
def test_point_of_wrong_dimension_rejected(key):
    kind, extra, good, bad = _POINT_CASES[key]
    base = {k: v for k, v in _key_base(kind).items() if k != "d0"}
    assert parse_config({**base, **extra, key: good})[key] == good
    for value in (bad, [good], "north", [[0.0], [1.0, 2.0]]):
        with pytest.raises(ConfigError, match=f"^{key}: must list"):
            parse_config({**base, **extra, key: value})


def _with_point(key: str, point) -> dict:
    """A config of a kind that takes the point ``key``, set to ``point``."""
    if key == "f.normal":
        doc = _key_base("verify-gradient")
        return {**doc, "f": {**doc["f"], "normal": point}}
    kind, extra, _, _ = _POINT_CASES[key]
    base = {k: v for k, v in _key_base(kind).items() if k != "d0"}
    return {**base, **extra, key: point}


@pytest.mark.parametrize("bad", ["0.5", math.nan, math.inf, True, None],
                         ids=["string", "NaN", "Infinity", "true", "null"])
@pytest.mark.parametrize("key", sorted(_POINT_CASES) + ["f.normal"])
def test_point_coordinates_are_finite_json_numbers(key, bad):
    """Each coordinate of a point is typed as the numeric keys are: a
    string, NaN, an infinity, a bool or null is refused naming the key,
    instead of being converted by float()."""
    good = _POINT_CASES[key][2] if key in _POINT_CASES else [1.0, 0.0]
    parse_config(_with_point(key, good))
    with pytest.raises(ConfigError, match=rf"^{key}: must list"):
        parse_config(_with_point(key, [bad] + good[1:]))


_HYPERBOLIC = {"kind": "hyperbolic", "dim": 2}
_SCALED_HYPERBOLIC = {"kind": "scaled", "k": 0.5, "base": _HYPERBOLIC}
_APEX = [1.0, 0.0, 0.0]   # the hyperboloid's origin
# Points off their manifold, under a key of a kind that takes it, beside
# the points the kind needs with it: off the sphere, at the origin of
# Minkowski space, on the hyperboloid's lower sheet (also under a scaled
# metric), beyond the hyperboloid, and an origin 1e-6 off the flow sphere.
_OFF_MANIFOLD = [
    ("walk", {"kind": "sphere", "dim": 2}, {"start": [0.0, 0.0, 2.0]}),
    ("verify-coupling-bound", _HYPERBOLIC,
     {"start1": [0.0, 0.0, 0.0], "start2": _APEX}),
    ("verify-coupling-bound", _HYPERBOLIC,
     {"start1": [-1.0, 0.0, 0.0], "start2": _APEX}),
    ("couple", _SCALED_HYPERBOLIC,
     {"start2": [-1.0, 0.0, 0.0], "start1": _APEX}),
    ("walk", _HYPERBOLIC, {"start": [5.0, 0.0, 0.0]}),
    ("radial-domination", _FLOW_SPHERE, {"origin": [0.0, 0.0, 1.0 + 1e-6]}),
]


def _without_d0(kind: str, **changes) -> dict:
    return {**{k: v for k, v in _key_base(kind).items() if k != "d0"},
            **changes}


@pytest.mark.parametrize("kind, manifold, points", _OFF_MANIFOLD)
def test_point_off_the_manifold_is_refused(kind, manifold, points,
                                           tmp_path, capsys):
    """A start, start1, start2 or origin off the manifold exits 1 with
    one 'error: <key>:' line naming it, where the run would start from it
    and report a meaningless result (a bound check of d0 0 that passes)."""
    key = next(iter(points))
    (tmp_path / "cfg.json").write_text(json.dumps(
        _without_d0(kind, manifold=manifold, **points)))
    assert main(["run", str(tmp_path / "cfg.json")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {key}: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("manifold", [_HYPERBOLIC, _SCALED_HYPERBOLIC])
def test_points_exp_reaches_are_accepted(manifold):
    """Points that exp reaches from the origin, out to distance 12, parse
    as a walk's start and as a coupled pair's (the models' own test checks
    many more)."""
    model = make_model(manifold, (0.0, 1.0))
    o = model.origin()
    for r in (0.5, 3.0, 12.0):
        x, y = (model.exp(0.0, o, sign * r * model.frame(0.0, o)[-1]).tolist()
                for sign in (1.0, -1.0))
        parse_config(_without_d0("walk", manifold=manifold, start=x))
        parse_config(_without_d0("couple", manifold=manifold, start1=x,
                                 start2=y))


def test_null_starts_are_not_given():
    """A null start1 and start2 are not given, as a null start is: with d0
    the pair is built from d0, and without it the parse names start1
    instead of failing on the distance between two nulls."""
    doc = {**_key_base("couple"), "start1": None, "start2": None}
    assert _report_without_hash(doc) == _report_without_hash(
        _key_base("couple"))
    with pytest.raises(ConfigError, match="^start1: couple kinds need"):
        parse_config(_without_d0("couple", start1=None, start2=None))


# Each number a drift profile reads, in a profile that reads it.
_PROFILE_NUMBERS = {
    "c": {"name": "constant", "c": 1.0},
    "slope": {"name": "linear", "slope": 1.0},
    "r": {"name": "table", "r": [0.0, 1.0, 2.0], "values": [0.0, 1.0, 2.0]},
    "values": {"name": "table", "r": [0.0, 1.0, 2.0],
               "values": [0.0, 1.0, 2.0]},
}


@pytest.mark.parametrize("bad", ["x", "2", True, None, math.nan, math.inf],
                         ids=["x", "string-2", "true", "null", "NaN",
                              "Infinity"])
@pytest.mark.parametrize("key", sorted(_PROFILE_NUMBERS))
def test_drift_profile_numbers_are_finite_json_numbers(key, bad):
    """builtin_b types its numbers as the parser types numeric keys: a
    string, a bool, null, NaN or an infinity is refused naming b.<key>,
    alone or as a table entry, instead of being converted by float()."""
    profile = _PROFILE_NUMBERS[key]
    listed = isinstance(profile[key], list)
    doc = {**_key_base("feller-test"), "b": profile}
    assert parse_config(doc)["b"] == profile
    for value in ([0.0, bad, 2.0], bad) if listed else (bad,):
        with pytest.raises(ConfigError, match=rf"^b\.{key}: {key} must "):
            parse_config({**doc, "b": {**profile, key: value}})


# The value flags of `run`, the key each sets and the values drawn for it.
# Every flag but --seed has values some kinds refuse: alpha^2 >= t2 - t1
# (1.5, drawn first), too few paths for any run, the KS test or OU
# survival, and manifolds of another dimension or kind than the config's
# points, normal and reference need.
_RUN_FLAGS = {
    "--alpha": ("alpha", st.just(1.5) | st.floats(0.12, 0.7)),
    "--seed": ("seed", st.integers(0, 2 ** 32)),
    "--samples": ("n_paths", st.sampled_from([0, 120, 1000])),
    "--manifold": ("manifold", st.sampled_from(
        ["euclidean:1", "euclidean:2", "sphere:2:flow", "hyperbolic:2"])),
}


def _cli_run(doc: dict, flags: list[str], out) -> tuple:
    """``gtwalk run`` on ``doc`` with ``flags``: the exit code, then the
    error line of a refused run or the report without runtime and the
    manifest's config hash."""
    (out / "cfg.json").write_text(json.dumps(doc))
    err = io.StringIO()
    with contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        rc = main(["run", str(out / "cfg.json"), *flags,
                   "--out", str(out / "run")])
    if rc == 1:
        return rc, err.getvalue()
    report = json.loads((out / "run" / f"{doc['kind']}.json").read_text())
    manifest = json.loads((out / "run" / "manifest.json").read_text())
    return rc, strip_runtime(report), manifest["config_hash"]


@pytest.mark.parametrize("flag", sorted(_RUN_FLAGS))
@pytest.mark.parametrize("kind", EXPERIMENT_KINDS)
@settings(max_examples=3, derandomize=True, deadline=None)
@given(data=st.data())
def test_run_flag_edits_the_document_as_written(kind, flag, data,
                                                tmp_path_factory):
    """`run doc --flag v` is the run of the document with v written into
    it: the same report, config hash included, and manifest hash, or the
    same error line. A derived default, such as delta_couple = 2 alpha in
    the coupled kinds, follows the flag."""
    key, values = _RUN_FLAGS[flag]
    value = data.draw(values, label=flag)
    base = _key_base(kind)
    written = value if key != "manifold" else parse_manifold_spec(value)
    flagged = _cli_run(base, [flag, str(value)],
                       tmp_path_factory.mktemp("flag"))
    edited = _cli_run({**base, key: written}, [],
                      tmp_path_factory.mktemp("edited"))
    assert flagged == edited
    if flagged[0] != 1:
        assert flagged[2] == flagged[1]["params"]["config_hash"]


@pytest.mark.parametrize("kind", EXPERIMENT_KINDS)
def test_each_run_builds_its_objects_once(kind, monkeypatch, tmp_path):
    """One run_document, with a path dump where the kind has one, builds
    the model and each object of its run at most once: the parse builds
    them, and the run and the dump use what it built. The estimators take
    the parsed kernel, the dump reads the kernel's schedule, and
    convergence builds one schedule and one walk kernel per alpha."""
    counts = collections.Counter()

    def counted(name, fn, alpha_of=None):
        def wrapper(*args, **kwargs):
            # a walk kernel and a schedule are counted per alpha
            counts[name if alpha_of is None else (name, alpha_of(args))] += 1
            return fn(*args, **kwargs)
        return wrapper

    modules = [module for name, module in sys.modules.items()
               if name.split(".")[0] == "gtwalk"]
    for fn in (make_model, builtin_b, ou_kernel, convergence_reference,
               coupled_kernel, walk_kernel, alpha_schedules):
        for module in modules:
            if getattr(module, fn.__name__, None) is fn:
                monkeypatch.setattr(module, fn.__name__, counted(
                    fn.__name__, fn, (lambda args: args[1].alpha)
                    if fn is walk_kernel else None))
    monkeypatch.setattr(RadialComparisonSpec, "__post_init__", counted(
        "RadialComparisonSpec", RadialComparisonSpec.__post_init__))
    monkeypatch.setattr(Schedule, "__init__", counted(
        "Schedule", Schedule.__init__, lambda args: args[3]))
    doc = {**_key_base(kind), **({"n_dump": 2} if kind in DUMP_KINDS else {})}
    run_document(doc, out_dir=tmp_path)
    assert counts["make_model"] == ("manifold" in doc)
    assert max(counts.values()) == 1, counts
    if kind in DUMP_KINDS:
        assert len(list((tmp_path / "paths").glob("*.csv"))) == 2


def _walks(**changes) -> dict:
    """A suite of two small walks, with ``changes`` in the second."""
    walk = {**MINIMAL_WALK, "n_paths": 8, "n_dump": 1}
    return {"experiments": [walk, {**walk, "seed": 8, **changes}]}


def test_dump_paths_refuses_a_suite_before_writing(tmp_path, capsys):
    """dump-paths checks the dump of every experiment before it writes the
    first file: a suite of a walk and a feller-test, which has no paths,
    exits 1 naming n_dump and leaves no directory behind."""
    suite = tmp_path / "suite.json"
    suite.write_text(json.dumps({"experiments": [
        {**MINIMAL_WALK, "n_paths": 8}, _key_base("feller-test")]}))
    out = tmp_path / "d"
    assert main(["dump-paths", str(suite), "--count", "2", "--out",
                 str(out)]) == 1
    err = capsys.readouterr().err
    assert err == "error: n_dump: kind 'feller-test' simulates no walk " \
        "paths to dump\n", err
    assert not out.exists()


def test_experiments_that_share_a_file_are_refused(tmp_path, capsys):
    """A suite two of whose experiments would write one file (a report or
    a path dump) exits 1 with one 'experiments:' line before any runs,
    from run --out, from each experiment's out and from dump-paths.
    Experiments that write apart all run."""
    shared = str(tmp_path / "d")
    suite = tmp_path / "suite.json"
    for doc, argv in [
            (_walks(), ["run", str(suite), "--out", shared]),
            ({"experiments": [{**MINIMAL_WALK, "out": shared}] * 2},
             ["run", str(suite)]),
            (_walks(), ["dump-paths", str(suite), "--count", "1", "--out",
                        shared])]:
        suite.write_text(json.dumps(doc))
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: experiments: ") \
            and err.count("\n") == 1, err
        assert not (tmp_path / "d").exists()
    _, reports = run_document(_walks(out=str(tmp_path / "b")))
    assert len(reports) == 2 and (tmp_path / "b" / "walk.json").exists()
    couple = {**_key_base("couple"), "n_dump": 1}
    manifest, _ = run_document(
        {"experiments": [_walks()["experiments"][0], couple]}, out_dir=shared)
    assert manifest.reports == ["walk.json", "couple.json"]
    assert sorted(f.name for f in (tmp_path / "d" / "paths").iterdir()) == [
        "coupled_0000.csv", "path_0000.csv"]


@pytest.mark.parametrize("argv, env, name", [
    (["--threads", "0"], None, "--threads"),
    (["--threads", "-3"], "2", "--threads"),
    ([], "-2", "GTWALK_THREADS"),
    ([], "0", "GTWALK_THREADS")])
def test_worker_count_below_one_is_refused(argv, env, name, tmp_path,
                                           monkeypatch, capsys):
    """--threads, and GTWALK_THREADS without it, must be at least 1: a
    lower count exits 1 with one error line naming where it came from,
    instead of running one worker."""
    if env is None:
        monkeypatch.delenv("GTWALK_THREADS", raising=False)
    else:
        monkeypatch.setenv("GTWALK_THREADS", env)
    assert main(["walk", "--manifold", "euclidean:2", "--samples", "50",
                 "--out", str(tmp_path / "d"), *argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {name}: must be at least 1") \
        and err.count("\n") == 1, err
    assert not (tmp_path / "d").exists()
