"""Declarative experiment configuration, and the run each config builds.

Experiments are described by JSON documents of known keys; unknown keys are
rejected with the offending key path. A config normalizes to a canonical
dict (defaults applied, key order fixed) whose serialization hashes stably
across platforms. One table, ``_KINDS``, gives each kind its keys and its
builder. The parser checks what every kind shares and reads the kind only
to find its row; the builder checks the values only its kind reads and
builds the report and the dump kernel once, so a value the run would
refuse fails at parse with the error of the object that holds its rule.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable

import numpy as np

from . import engine, rng, stats
from .comparison import (OUParams, RadialComparisonSpec, beta, builtin_b,
                         check_feller_range, chi, feller_explosion_test,
                         ou_kernel)
from .coupling import CouplingKind, coupled_kernel
from .errors import ConfigError, InvalidInput, check_json_type, is_number
from .manifolds import ManifoldModel, make_model
from .stats import McEstimate, VerificationReport, mc_report, proportion
from .walk import Schedule, walk_kernel

# Every run reports its seed; a kind takes only the other keys its run
# reads, so the one-dimensional comparison kinds name no manifold.
_COMMON_KEYS = {"kind", "seed", "out"}
_SPACE = {"manifold", "t1", "t2"}
# A kind that simulates paths at one alpha, which n_dump replays.
_PATHS = _SPACE | {"alpha", "n_paths", "n_dump"}
_WALK = _PATHS | {"start", "origin", "exit_radius"}
_PAIR = _PATHS | {"start1", "start2", "d0", "delta_couple"}
# Numeric keys: integer keys take JSON integers, float keys finite JSON
# numbers (bools and strings are neither). The parser stores them as given,
# so config_hash does not move.
_INT_KEYS = {"seed", "n_paths", "n_dump"}
_FLOAT_KEYS = {"t1", "t2", "alpha", "exit_radius", "d0", "delta_couple", "k",
               "bias", "contraction_coefficient", "osc", "C", "y_max", "c0",
               "r0", "margin", "ou_h", "a"}
_NULLABLE_KEYS = {"exit_radius", "n_dump"}

_DEFAULTS: dict[str, Any] = {
    "seed": 0,
    "n_paths": 1000,
    "n_dump": 0,
    "exit_radius": 8.0,
    "k": 0.0,
    "coupling": "reflection",
    "bias": 0.0,
    "contraction_coefficient": 5.0,
    "osc": 1.0,
    "C": 1.0,
    "y_max": 20.0,
    "c0": 1.0,
    "r0": 0.5,
    "margin": 0.1,
    "ou_h": 1e-4,
    "out": None,
    "reference": None,
    "expect": None,
}


@dataclass
class ExperimentConfig:
    """A validated experiment description with defaults applied, and the
    run the parse built from it: ``model`` (None for a kind on no
    manifold), ``report(workers=)`` and ``kernel``, the path kernel a dump
    replays (None for a kind without one)."""
    kind: str
    data: dict
    model: ManifoldModel | None = None
    report: Callable[..., VerificationReport] | None = None
    kernel: engine.PathKernel | None = None

    def __getitem__(self, key: str):
        return self.data[key]

    def get(self, key: str, default=None):
        return self.data.get(key, default)

    def build_model(self) -> ManifoldModel | None:
        """The model the parse built; None for a kind on no manifold."""
        return self.model

    def canonical_json(self) -> str:
        return json.dumps(self.data, sort_keys=True, separators=(",", ":"))

    def config_hash(self) -> str:
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()


def _walk_kernel(cfg: ExperimentConfig, start, radial=None):
    schedule = Schedule(cfg["t1"], cfg["t2"], cfg["alpha"])
    return walk_kernel(cfg.model, schedule, start, cfg["seed"],
                       int(cfg["n_paths"]), origin=cfg.get("origin"),
                       exit_radius=cfg["exit_radius"], radial=radial)


def _build_walk(cfg):
    model, start = cfg.model, resolve_start(cfg, cfg.model)
    exits = cfg["exit_radius"] is not None
    kernel = _walk_kernel(cfg, start)
    return kernel, partial(
        mc_report, "walk", kernel,
        {"end"} | ({"exit_step"} if exits else set()),
        lambda res: (McEstimate.from_samples(
            model.distance(cfg["t2"], start, res["end"])), {
            "exit_fraction": float(np.mean(res["exit_step"] >= 0))
            if exits else None,
            "observable": "displacement-distance"}))


def _build_pair(cfg):
    """A coupled kind: its estimator on the config's pair, coupled by
    parallel transport on verify-contraction and a ``couple`` config with
    ``coupling: parallel``, by reflection on the rest. An unset
    delta_couple takes the kernel's default, 2 alpha."""
    coupling = cfg.get("coupling", "reflection")
    if coupling not in ("reflection", "parallel"):
        _fail("coupling", f"must be 'reflection' or 'parallel', not "
              f"{coupling!r}")
    x1, x2 = resolve_start_points(cfg, cfg.model)
    kernel = coupled_kernel(
        cfg.model, Schedule(cfg["t1"], cfg["t2"], cfg["alpha"]), x1, x2,
        cfg["seed"], int(cfg["n_paths"]),
        kind=CouplingKind.PARALLEL_TRANSPORT
        if cfg.kind == "verify-contraction" else CouplingKind(coupling),
        delta_couple=cfg.get("delta_couple"), k=cfg.get("k", 0.0),
        origin=cfg.get("origin"), exit_radius=cfg.get("exit_radius"))
    cfg.data.setdefault("delta_couple", kernel.params["delta_couple"])
    if cfg.kind == "couple":   # a kind that checks nothing
        exits = cfg["exit_radius"] is not None
        return kernel, partial(
            mc_report, "couple", kernel, {"couple_step", "final_distance"}
            | ({"exited"} if exits else set()),
            lambda res: (proportion(res["couple_step"] >= 0), {
                "exit_radius": cfg["exit_radius"],
                "exit_fraction":
                    float(np.mean(res["exited"])) if exits else None,
                "mean_final_distance": float(np.mean(res["final_distance"]))}))
    if cfg.kind == "verify-coupling-bound":
        report = partial(stats.estimate_coupling_survival, kernel,
                         bias=float(cfg["bias"]))
    elif cfg.kind == "verify-contraction":
        report = partial(stats.check_contraction, kernel,
                         coefficient=float(cfg["contraction_coefficient"]))
    else:   # f is the indicator of the half-space <normal, x> <= offset
        f = cfg.get("f")
        if not isinstance(f, dict) or f.get("type") != "halfspace" \
                or set(f) != {"type", "normal", "offset"}:
            _fail("f", "needs {'type': 'halfspace', 'normal': [...], 'offset': h}")
        if not is_number(f["offset"]):
            _fail("f.offset", f"must be a finite number, not {f['offset']!r}")
        normal = _coordinates("f.normal", f["normal"], cfg.model)
        offset = float(f["offset"])
        report = partial(stats.check_gradient_estimate, kernel,
                         lambda x: (x @ normal <= offset).astype(float),
                         float(cfg["osc"]))
    return kernel, partial(report, experiment_id=cfg.kind)


def _build_convergence(cfg):
    """A walk kernel per alpha of ``alphas``, each at least 100 paths."""
    model, start = cfg.model, resolve_start(cfg, cfg.model)
    alphas, n_paths = cfg.get("alphas"), int(cfg["n_paths"])
    if not isinstance(alphas, list) or not alphas:
        _fail("alphas", "must be a nonempty list")
    if not all(is_number(a) for a in alphas):
        _fail("alphas", f"must list finite numbers, not {alphas!r}")
    cfg.data["alphas"] = alphas = [float(a) for a in alphas]
    stats.check_ks_size(n_paths)
    kernels = [walk_kernel(model, schedule, start, cfg["seed"], n_paths)
               for schedule in stats.alpha_schedules(cfg["t1"], cfg["t2"],
                                                     alphas)]
    horizon = cfg["t2"] - cfg["t1"]
    reference = convergence_reference(cfg["reference"], cfg["manifold"])
    if reference == "gauss":
        cdf = stats.gaussian_cdf(float(start[0]), horizon)
        support = (float(start[0]) - 8 * math.sqrt(horizon),
                   float(start[0]) + 8 * math.sqrt(horizon))
        observable = lambda ends: ends[:, 0]
    else:
        mu = float(np.arctan2(start[1], start[0]))
        cdf = stats.wrapped_gaussian_cdf(mu, horizon)
        support = (-math.pi, math.pi)
        observable = stats.circle_angles

    def report(workers: int = 1) -> VerificationReport:
        rows = stats.convergence_diagnostic(kernels, observable, cdf, support,
                                            workers)
        w1 = [row["w1"] for row in rows]
        trend_ok = all(b <= a * 1.25 + 1e-12 for a, b in zip(w1, w1[1:])) \
            and w1[-1] <= w1[0] + 1e-12
        return VerificationReport("convergence", None, {
            "params": {"alphas": alphas, "reference": reference,
                       "rows": rows, "trend_pass": trend_ok,
                       "n_paths": n_paths, "manifold": model.describe()},
            "seed": cfg["seed"]}, passed=trend_ok and rows[-1]["ks_pass"],
            check={"statistic": "w1 to the reference at each alpha and the "
                                "KS statistic at the last (params.rows)",
                   "rule": "each w1 <= 1.25 x the one before + 1e-12, the "
                           "last w1 <= the first + 1e-12, and the last "
                           "ks_pass"})
    return None, report


def _build_feller(cfg):
    b, C, y_max = _built("b", builtin_b, cfg["b"]), cfg["C"], cfg["y_max"]
    check_feller_range(float(C), float(y_max))
    expect = cfg.get("expect")

    def report(workers: int = 1) -> VerificationReport:
        result = feller_explosion_test(b, float(C), float(y_max))
        # classify gives no exponent (inf or nan) when the outer integrand
        # vanishes or the integral is not finite; the report says which.
        integral, exponent = (value if math.isfinite(value) else None for
                              value in (result.integral, result.decay_exponent))
        reason = ("the integral is not finite" if integral is None else
                  "the outer integrand reaches 0 before y_max"
                  if exponent is None else None)
        return VerificationReport("feller-test", None, {
            "params": {"b": cfg["b"], "C": C, "y_max": y_max,
                       "verdict": result.verdict, "verdict_reason": reason,
                       "integral": integral, "decay_exponent": exponent,
                       "expect": expect},
            "seed": cfg["seed"]},
            passed=result.verdict == expect if expect
            else result.verdict != "inconclusive",
            check={"statistic": "verdict of the explosion integral test",
                   "rule": f"verdict == {expect!r}" if expect
                   else "verdict != 'inconclusive'"})
    return None, report


def _build_ou(cfg):
    params = OUParams(a=float(cfg["a"]), k=float(cfg["k"]))
    horizon, h = cfg["t2"] - cfg["t1"], float(cfg["ou_h"])
    analytic = chi(params.a / (2.0 * math.sqrt(beta(horizon, params.k))))
    kernel = ou_kernel(params, horizon, h, int(cfg["seed"]),
                       int(cfg["n_paths"]))

    def reduce(res):
        survival = proportion(res["alive"])
        return survival.abs_deviation(analytic), {
            "estimate": survival.mean, "analytic": analytic}

    return kernel, partial(
        mc_report, "ou-survival", kernel, {"alive"}, reduce, bound=0.0,
        bias=2.0 * math.sqrt(h),
        statistic="|survival estimate - analytic value|")


def _build_radial(cfg):
    model, start = cfg.model, resolve_start(cfg, cfg.model)
    spec = RadialComparisonSpec(_built("b", builtin_b, cfg["b"]),
                                c0=float(cfg["c0"]), r0=float(cfg["r0"]))
    origin = engine.origin_point(model, cfg.get("origin"))
    rho0 = float(model.distance(cfg["t1"], origin, start)) + 3.0 * spec.r0
    kernel = _walk_kernel(cfg, start, {"spec": spec, "rho0": rho0,
                                       "margin": float(cfg["margin"])})
    return kernel, partial(
        mc_report, "radial-domination", kernel, {"radial_violation"},
        lambda res: (proportion(res["radial_violation"]), {
            "margin": cfg["margin"], "c0": spec.c0, "r0": spec.r0,
            "rho0": rho0, "b": cfg["b"]}), bound=0.05,
        statistic="fraction of paths that pass the comparison radius + margin")


# Each kind's keys beside _COMMON_KEYS, and its builder, which gives the
# run: (the path kernel a dump replays or None, report(workers=)).
_KINDS = {
    "walk": (_WALK, _build_walk),
    "couple": (_PAIR | {"coupling", "origin", "exit_radius"}, _build_pair),
    "verify-coupling-bound": (_PAIR | {"k", "bias"}, _build_pair),
    "verify-contraction": (_PAIR | {"k", "contraction_coefficient"},
                           _build_pair),
    "verify-gradient": (_PAIR | {"k", "f", "osc"}, _build_pair),
    "convergence": (_SPACE | {"alphas", "n_paths", "start", "reference"},
                    _build_convergence),
    "feller-test": ({"b", "C", "y_max", "expect"}, _build_feller),
    "ou-survival": ({"t1", "t2", "a", "k", "ou_h", "n_paths"}, _build_ou),
    "radial-domination": (_WALK | {"b", "c0", "r0", "margin"},
                          _build_radial),
}
_KEYS_BY_KIND = {kind: keys for kind, (keys, _) in _KINDS.items()}
EXPERIMENT_KINDS = tuple(_KINDS)
# Kinds whose paths a dump replays: those that take n_dump.
DUMP_KINDS = tuple(k for k, keys in _KEYS_BY_KIND.items() if "n_dump" in keys)
# Kinds that run a coupled pair, built by _build_pair.
COUPLED_KINDS = tuple(k for k, keys in _KEYS_BY_KIND.items() if "d0" in keys)


def _fail(path: str, message: str):
    raise ConfigError(f"{path}: {message}")


def _built(key: str, make, *args, **kwargs):
    """``make(*args, **kwargs)``, a constructor that holds the rules of its
    values; an InvalidInput it raises fails naming ``key``, or
    ``key.<parameter>`` when the error names its parameter."""
    try:
        return make(*args, **kwargs)
    except InvalidInput as e:
        _fail(".".join(filter(None, (key, e.key))), str(e))


def parse_config(raw: dict) -> ExperimentConfig:
    """Validate one experiment's decoded document, apply defaults and
    build its run (``_KINDS``).

    Unknown keys, missing required keys and every value the run would
    refuse raise ConfigError naming the key path. The rules every kind
    shares are checked here, the rest by the kind's builder; a value rule
    is checked by building the run that obeys it (``_built``).
    """
    if not isinstance(raw, dict):
        _fail("config", "top level must be an object")

    kind = raw.get("kind")
    if kind is None:
        _fail("kind", "missing")
    if kind not in EXPERIMENT_KINDS:
        _fail("kind", f"unknown experiment kind {kind!r}")

    allowed = _COMMON_KEYS | _KEYS_BY_KIND[kind]
    extra = sorted(set(raw) - allowed)
    if extra:
        _fail(extra[0], f"unknown key for kind {kind!r}")

    for req in ("manifold", "t1", "t2", "alpha", "b", "a"):
        if req in allowed and req not in raw:
            _fail(req, "missing")
    for key, value in raw.items():
        number = int if key in _INT_KEYS else float if key in _FLOAT_KEYS \
            else None
        if number and not (value is None and key in _NULLABLE_KEYS):
            _built("", check_json_type, key, value, number)
    data: dict[str, Any] = {"kind": kind}
    for key in sorted(allowed - {"kind"}):
        if key in raw:
            data[key] = raw[key]
        elif key in _DEFAULTS:
            data[key] = _DEFAULTS[key]
    for key in {"t1", "t2", "alpha", "a"} & set(data):
        data[key] = float(data[key])
    if "t1" in data:
        t1, t2 = data["t1"], data["t2"]
        if not t1 < t2:
            _fail("t2", "must exceed t1")
    model = _built("manifold", make_model, data["manifold"], (t1, t2)) \
        if "manifold" in data else None

    _built("", rng.check_seed, data["seed"])
    if data.get("n_dump"):   # 0 and null dump nothing
        check_dump(kind, data["n_dump"])
    if "n_paths" in data:
        _built("", stats.path_ranges, data["n_paths"])
    for key in ("start", "start1", "start2", "origin"):
        if data.get(key) is not None:   # a point of the model
            _built(key, model.check_point,
                   _coordinates(key, data[key], model))
    cfg = ExperimentConfig(kind, data, model)
    cfg.kernel, cfg.report = _built("", _KINDS[kind][1], cfg)
    return cfg


def check_dump(kind: str, count: int) -> None:
    """The rules of a path dump, of n_dump or dump-paths --count paths."""
    if kind not in DUMP_KINDS:
        _fail("n_dump", f"kind {kind!r} simulates no walk paths to dump")
    if count < 1:
        _fail("n_dump", f"a dump writes at least 1 path, not {count}")


def _coordinates(key: str, value, model: ManifoldModel) -> np.ndarray:
    """``value`` as an array, refused naming ``key`` unless it lists the
    manifold's ambient coordinates, each a finite JSON number
    (``is_number``)."""
    if not (isinstance(value, list) and len(value) == model.ambient_dim
            and all(is_number(c) for c in value)):
        _fail(key, f"must list {model.ambient_dim} finite numbers, the "
              f"ambient coordinates of {model.model_id}, not {value!r}")
    return np.asarray(value, dtype=float)


def convergence_reference(reference: Any, manifold: dict) -> str:
    """The reference law of a convergence config: ``gauss`` (the first
    coordinate on Euclidean space) or ``wrapped-gauss`` (the angle on the
    circle). Null picks the one that fits a 1-dimensional manifold."""
    kind, dim = manifold["kind"], manifold.get("dim")
    fits = {"gauss": kind == "euclidean",
            "wrapped-gauss": kind == "sphere" and dim == 1}
    if reference is None:
        if dim != 1 or not any(fits.values()):
            _fail("reference", "required for this manifold "
                  "(gauss or wrapped-gauss)")
        return "gauss" if fits["gauss"] else "wrapped-gauss"
    if reference not in fits:
        _fail("reference", f"unknown reference {reference!r} "
              "(gauss or wrapped-gauss)")
    if not fits[reference]:
        _fail("reference", f"{reference!r} does not fit a {kind} manifold "
              f"of dim {dim}")
    return reference


def parse_suite(document: str | dict,
                overrides: dict | None = None) -> list[ExperimentConfig]:
    """The configs of a single experiment or a {'experiments': [...]} list
    document, given as JSON text or decoded.

    ``overrides`` are merged into each experiment as written before it is
    parsed, so a derived default (``delta_couple`` = 2 alpha) follows an
    overridden value and the config hash is that of the config that runs.
    """
    if isinstance(document, str):
        try:
            raw = json.loads(document)
        except ValueError as e:   # also an integer beyond int's digit limit
            raise ConfigError(f"config: invalid JSON ({e})") from None
    else:
        raw = document
    items = [raw]
    if isinstance(raw, dict) and "experiments" in raw:
        extra = set(raw) - {"experiments"}
        if extra:
            _fail(sorted(extra)[0], "unknown key beside 'experiments'")
        items = raw["experiments"]
        if not isinstance(items, list):
            _fail("experiments", "must be a list of experiments")
    return [parse_config({**item, **overrides}
                         if overrides and isinstance(item, dict) else item)
            for item in items]


def resolve_start_points(config: ExperimentConfig, model: ManifoldModel):
    """start1/start2 arrays, or a pair built from d0 around the origin; a
    config gives one or the other (a null start is not given)."""
    data = config.data
    starts = [key for key in ("start1", "start2")
              if data.get(key) is not None]
    if "d0" in data and starts:
        _fail(starts[0], "give start1/start2 or d0, not both")
    if len(starts) == 1:
        _fail(starts[0], "start1 and start2 go together")
    if not starts and "d0" not in data:
        _fail("start1", "couple kinds need start1/start2 or d0")
    if starts:
        return (np.asarray(data["start1"], dtype=float),
                np.asarray(data["start2"], dtype=float))
    d0 = float(data["d0"])
    o = model.origin()
    e1 = model.frame(data["t1"], o)[0]
    x1 = model.exp(data["t1"], o, -0.5 * d0 * e1)
    x2 = model.exp(data["t1"], o, +0.5 * d0 * e1)
    return x1, x2


def resolve_start(config: ExperimentConfig, model: ManifoldModel) -> np.ndarray:
    if config.get("start") is not None:
        return np.asarray(config["start"], dtype=float)
    return model.origin()


@dataclass
class RunManifest:
    """What a run produced: version, config hash, timing, report files."""
    tool_version: str
    config_hash: str
    wall_time_s: float
    reports: list[str]

    def to_dict(self) -> dict:
        return {"tool_version": self.tool_version,
                "config_hash": self.config_hash,
                "wall_time_s": self.wall_time_s,
                "reports": self.reports}
