"""Command-line interface.

Subcommands: run (config file), walk, couple, verify (flag-built configs),
list-models, dump-paths. Flags mirror config keys and win over file values:
--alpha, --samples, --seed and --manifold edit each experiment of the
document as written before it is parsed (``config.parse_suite``), so a
derived default such as delta_couple = 2 alpha follows the new alpha, and
the run, its report and manifest.json describe the config that ran.
Exit codes: 0 every check passed (walk and couple check nothing), 2 a
verification failed, 1 error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import config
from .errors import GtwalkError
from .manifolds import list_model_kinds, make_model
from .runner import (dump_name, dump_paths, refuse_shared_files,
                     run_document)


def _number(text: str, convert, name: str):
    """``convert(text)``, or a GtwalkError naming where the text came from."""
    try:
        return convert(text)
    except ValueError:
        raise GtwalkError(f"{name}: expected {convert.__name__}, "
                          f"got {text!r}") from None


def _threads(args) -> int:
    name, text = ("--threads", args.threads) if args.threads is not None \
        else ("GTWALK_THREADS", os.environ.get("GTWALK_THREADS") or "1")
    count = _number(text, int, name)
    if count < 1:
        raise GtwalkError(f"{name}: must be at least 1, not {count}")
    return count


def parse_manifold_spec(spec: str) -> dict:
    """'kind:dim[:opt...]' with opts flow, c0=..., k=... (e.g. sphere:2:flow)."""
    parts = spec.split(":")
    kind = parts[0]
    desc: dict = {"kind": kind}
    if len(parts) > 1:
        desc["dim"] = _number(parts[1], int, "--manifold dim")
    for opt in parts[2:]:
        if opt == "flow":
            desc["flow"] = True
        elif opt.startswith("c0="):
            desc["radius_c0"] = _number(opt[3:], float, "--manifold c0")
        elif opt.startswith("k="):
            desc["k"] = _number(opt[2:], float, "--manifold k")
        else:
            raise GtwalkError(f"unknown manifold option {opt!r}")
    return desc


def _common_flags(p: argparse.ArgumentParser):
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--threads", type=int, default=None,
                   help="number of forked worker processes, capped at the "
                        "path-chunk count; serial where fork is unavailable "
                        "(GTWALK_THREADS as fallback)")
    p.add_argument("--out", type=str, default=None)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--samples", type=int, default=None,
                   help="number of Monte Carlo paths")
    p.add_argument("--manifold", type=str, default=None)


def _walk_flags(p: argparse.ArgumentParser):
    _common_flags(p)
    p.add_argument("--t1", type=float, default=0.0)
    p.add_argument("--t2", type=float, default=1.0)
    p.add_argument("--dump", type=int, help="number of path CSVs to write")


def _pair_flags(p: argparse.ArgumentParser):
    _walk_flags(p)
    p.add_argument("--d0", type=float, default=1.0)
    p.add_argument("--delta-couple", type=float)


# The config key each flag sets; a subcommand has only the flags its
# experiment reads.
_FLAG_KEYS = {"alpha": "alpha", "samples": "n_paths", "seed": "seed",
              "manifold": "manifold", "t1": "t1", "t2": "t2",
              "dump": "n_dump", "d0": "d0", "delta_couple": "delta_couple",
              "k": "k", "coupling": "coupling"}


def _config_values(args) -> dict:
    """The config values of the flags the subcommand has and that are set,
    by the user or by the flag's default."""
    values = {key: getattr(args, flag, None)
              for flag, key in _FLAG_KEYS.items()}
    if values["manifold"] is not None:
        values["manifold"] = parse_manifold_spec(values["manifold"])
    return {key: value for key, value in values.items() if value is not None}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gtwalk",
        description="Geodesic random walks and couplings on time-dependent "
                    "metrics: simulation and bound verification.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a JSON experiment config")
    p_run.add_argument("config", type=str)
    _common_flags(p_run)

    p_walk = sub.add_parser("walk", help="single-walk experiment from flags")
    _walk_flags(p_walk)

    p_couple = sub.add_parser("couple", help="coupled-walk experiment from flags")
    _pair_flags(p_couple)
    p_couple.add_argument("--coupling", choices=["reflection", "parallel"])

    p_verify = sub.add_parser("verify", help="bound verification from flags")
    p_verify.add_argument("check", choices=[
        kind.removeprefix("verify-") for kind in config.EXPERIMENT_KINDS
        if kind.startswith("verify-")])
    _pair_flags(p_verify)
    p_verify.add_argument("--k", type=float)

    sub.add_parser("list-models", help="list manifold kinds")

    p_dump = sub.add_parser("dump-paths", help="write per-path CSV dumps")
    p_dump.add_argument("config", type=str)
    p_dump.add_argument("--count", type=int, default=4)
    p_dump.add_argument("--seed", type=int, default=None)
    p_dump.add_argument("--out", type=str, default=None)
    return parser


# Built at import: argparse loads its translation machinery (and with it
# the locale module) on the first parser, which would otherwise fall in
# the first run.
_PARSER = _build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _PARSER.parse_args(argv)

    try:
        if args.command == "list-models":
            for kind in list_model_kinds():
                print(kind)
            return 0

        if args.command == "run":
            _, reports = run_document(
                Path(args.config).read_text(), overrides=_config_values(args),
                workers=_threads(args), out_dir=args.out)
            return _report_outcome(reports)

        if args.command == "dump-paths":
            out = Path(args.out or "paths")
            configs = config.parse_suite(Path(args.config).read_text(),
                                         _config_values(args))
            for cfg in configs:   # before the first file is written
                config.check_dump(cfg.kind, args.count)
            refuse_shared_files([{out / dump_name(cfg.kind, 0)}
                                 for cfg in configs])
            for cfg in configs:
                for f in dump_paths(cfg, args.count, out):
                    print(f)
            return 0

        # flag-built experiments
        _, reports = run_document(_document_from_flags(args),
                                  workers=_threads(args), out_dir=args.out)
        return _report_outcome(reports)
    except (GtwalkError, OSError, json.JSONDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


def _document_from_flags(args) -> dict:
    if not args.manifold:
        raise GtwalkError("--manifold is required for flag-built experiments")
    kind = f"verify-{args.check}" if args.command == "verify" \
        else args.command
    doc = {"kind": kind, "alpha": 0.05, **_config_values(args)}
    if kind == "verify-gradient":
        doc["f"] = {"type": "halfspace", "normal": _first_axis(doc),
                    "offset": -0.5}
    return doc


def _first_axis(doc: dict) -> list | None:
    """The first frame vector at the origin at t1, the axis a d0 pair is
    separated along (``config.resolve_start_points``), in ambient
    coordinates; None if the manifold does not build, which the parser
    then reports under its key."""
    try:
        model = make_model(doc["manifold"], (doc["t1"], doc["t2"]))
    except GtwalkError:
        return None
    return model.frame(doc["t1"], model.origin())[0].tolist()


def _report_outcome(reports) -> int:
    """Print one line per report: its decision, estimate and bound, or the
    rule of a kind without them; 2 if any check failed, else 0."""
    for report in reports:
        status = {True: "PASS", False: "FAIL", None: "NO CHECK"}[report.passed]
        est, parts = report.estimate, []
        if est is not None:
            parts.append(f"estimate={est.mean:.6g} stderr={est.stderr:.3g}")
        if report.bound is not None:
            parts.append(f"bound={report.bound:.6g}")
        if not parts and report.check:
            parts.append(report.check["rule"])
        print(f"[{status}] {report.experiment_id}: {' '.join(parts)}")
    return 2 if any(report.passed is False for report in reports) else 0


if __name__ == "__main__":
    sys.exit(main())
