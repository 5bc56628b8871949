"""One benchmark sample, run in a fresh process by ``run.py``.

    python3 perfbench/child.py CONFIG --seed N --threads K --out DIR
        --spawn-t T [--trace SPANS.json] [--setup-only]

``T`` is the parent's ``time.monotonic()`` just before it spawned this
process. Set-up (``import gtwalk``, ``parse_suite``, ``build_model`` and the
start points) is timed from ``T``; then ``gtwalk.cli.main(["run", ...])`` is
timed on its own. The last line of standard output is a JSON object with
both times, the CLI's exit code, the report's estimate and the library
versions. The process exits with the CLI's exit code.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

COUPLED_KINDS = ("couple", "verify-coupling-bound", "verify-contraction",
                 "verify-gradient")


def main(argv: list[str]) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("config")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--threads", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--spawn-t", type=float, required=True)
    p.add_argument("--trace", default=None)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import numpy
    import scipy
    from gtwalk import cli, config

    tracer = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer()
        tracer.install()

    document = Path(args.config).read_text()
    cfg = config.parse_suite(document)[0]
    model = cfg.build_model()
    if cfg.kind in COUPLED_KINDS:
        config.resolve_start_points(cfg, model)
    else:
        config.resolve_start(cfg, model)
    result = {"setup_s": time.monotonic() - args.spawn_t,
              "versions": {"python": sys.version.split()[0],
                           "numpy": numpy.__version__,
                           "scipy": scipy.__version__}}
    rc = 0
    if not args.setup_only:
        from gtwalk.walk import Schedule
        sched = Schedule(cfg["t1"], cfg["t2"], cfg["alpha"])
        result["path_steps"] = int(cfg["n_paths"]) * len(sched.fracs)
        t0 = time.perf_counter()
        rc = cli.main(["run", args.config, "--seed", str(args.seed),
                       "--threads", str(args.threads), "--out", args.out])
        result["cli_s"] = time.perf_counter() - t0
        report = json.loads((Path(args.out) / f"{cfg.kind}.json").read_text())
        result["report"] = {**report["estimate"], "pass": report["pass"]}
        if tracer is not None:
            tracer.dump(args.trace)
    result["rc"] = rc
    print(json.dumps(result), flush=True)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
