"""Layer spans for a traced benchmark sample, recorded from outside ``src/``.

``Tracer.install`` replaces the public entry points of each gtwalk layer
with wrappers that record one span per call: name, start, end, parent span
and thread. Spans stay in memory and are written as JSON once the run ends.
``layer_metrics`` turns a span file into the per-layer metrics.

Only the outermost ``manifolds`` call is recorded, so a model method that
calls another public model method is not counted twice.
"""

from __future__ import annotations

import functools
import inspect
import json
import threading
import time

FIELDS = ("id", "name", "start", "end", "parent", "thread", "attrs")

# Model methods the kernels call, by the short name used in the metrics.
MODEL_METHODS = {"frame": "frame", "log": "log", "distance": "distance",
                 "transport": "transport_along", "exp": "exp",
                 "inner": "inner"}

KERNELS = ("engine.walk_chunk", "engine.coupled_chunk")


def _noise_attrs(bound) -> dict:
    a = bound.arguments
    return {"bytes": len(a["paths"]) * a["n_steps"] * a["dim"] * 8}


def _kernel_attrs(bound) -> dict:
    a = bound.arguments
    return {"path_steps": len(a["paths"]) * len(a["sched"].fracs)}


def _map_attrs(bound) -> dict:
    a = bound.arguments
    chunks = -(-a["n_paths"] // a["chunk"])
    return {"workers": max(1, min(a["workers"], chunks)), "chunks": chunks}


class Tracer:
    """Records spans around gtwalk layer boundaries in this process."""

    def __init__(self):
        self.spans: list[list] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        # Kernels on pool threads have no open span on their own thread;
        # their parent is the stats.map span that submitted them.
        self._pool_parent = None

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _call(self, name, fn, attrs, args, kwargs):
        stack = self._stack()
        parent = stack[-1] if stack else self._pool_parent
        with self._lock:
            sid = len(self.spans)
            span = [sid, name, 0.0, 0.0, parent, threading.get_ident(),
                    attrs]
            self.spans.append(span)
        stack.append(sid)
        if name == "stats.map":
            outer_pool, self._pool_parent = self._pool_parent, sid
        span[2] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[3] = time.perf_counter()
            stack.pop()
            if name == "stats.map":
                self._pool_parent = outer_pool

    def wrap(self, name: str, fn, attrs_of=None):
        sig = inspect.signature(fn) if attrs_of else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            attrs = None
            if attrs_of is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                attrs = attrs_of(bound)
            return self._call(name, fn, attrs, args, kwargs)

        return wrapper

    def wrap_model_method(self, name: str, fn):
        local = self._local

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if getattr(local, "in_model", False):
                return fn(*args, **kwargs)
            local.in_model = True
            try:
                return self._call(name, fn, None, args, kwargs)
            finally:
                local.in_model = False

        return wrapper

    def install(self) -> None:
        """Wrap the layer entry points of the imported gtwalk package."""
        from gtwalk import config, engine, manifolds, rng, runner, stats

        config.parse_suite = self.wrap("config.parse", config.parse_suite)
        rng.walk_noise_block = self.wrap("rng.noise", rng.walk_noise_block,
                                         _noise_attrs)
        for kernel in KERNELS:
            attr = kernel.split(".")[1]
            setattr(engine, attr,
                    self.wrap(kernel, getattr(engine, attr), _kernel_attrs))
        # runner imported map_path_chunks by name; both names get one wrapper.
        mapper = self.wrap("stats.map", stats.map_path_chunks, _map_attrs)
        stats.map_path_chunks = runner.map_path_chunks = mapper
        runner.execute = self.wrap("runner.execute", runner.execute)

        classes = [c for c in vars(manifolds).values()
                   if isinstance(c, type)
                   and issubclass(c, manifolds.ManifoldModel)]
        for cls in classes:
            for short, method in MODEL_METHODS.items():
                if method in vars(cls):
                    setattr(cls, method, self.wrap_model_method(
                        f"manifolds.{short}", vars(cls)[method]))

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": FIELDS, "spans": self.spans}, fh)


def load_spans(path) -> list[dict]:
    with open(path) as fh:
        doc = json.load(fh)
    return [dict(zip(doc["fields"], row)) for row in doc["spans"]]


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer totals for one traced run.

    Self time of a span is its duration minus the durations of its child
    spans on the same thread.
    """
    child_time = {}
    for s in spans:
        parent = s["parent"]
        if parent is not None and spans[parent]["thread"] == s["thread"]:
            child_time[parent] = child_time.get(parent, 0.0) \
                + s["end"] - s["start"]

    def total(name: str) -> float:
        return sum(s["end"] - s["start"] for s in spans if s["name"] == name)

    def count(name: str) -> int:
        return sum(1 for s in spans if s["name"] == name)

    kernels = [s for s in spans if s["name"] in KERNELS]
    kernel_s = sum(s["end"] - s["start"] for s in kernels)
    maps = [s for s in spans if s["name"] == "stats.map"]
    map_s = total("stats.map")
    busy_denominator = sum((s["end"] - s["start"]) * s["attrs"]["workers"]
                           for s in maps)
    noise = [s for s in spans if s["name"] == "rng.noise"]

    out = {
        "config.parse_s": total("config.parse"),
        "rng.noise_s": total("rng.noise"),
        "rng.noise_calls": len(noise),
        "rng.noise_block_mb": max((s["attrs"]["bytes"] for s in noise),
                                  default=0) / 1e6,
    }
    for short in MODEL_METHODS:
        out[f"manifolds.{short}_s"] = total(f"manifolds.{short}")
        out[f"manifolds.{short}_calls"] = count(f"manifolds.{short}")
    out.update({
        "engine.kernel_s": kernel_s,
        "engine.self_s": sum(s["end"] - s["start"] - child_time.get(s["id"], 0.0)
                             for s in kernels),
        "engine.path_steps": sum(s["attrs"]["path_steps"] for s in kernels),
        "engine.chunks": len(kernels),
        "stats.map_s": map_s,
        "stats.busy_frac": kernel_s / busy_denominator
        if busy_denominator > 0 else 0.0,
        "runner.execute_s": total("runner.execute"),
        "runner.self_s": total("runner.execute") - map_s,
    })
    return out
