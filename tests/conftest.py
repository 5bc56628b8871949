import math
import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(__file__))

from gtwalk import engine
from gtwalk.manifolds import Euclidean, Hyperbolic, RoundSphere, ScaledMetric

# Every per-step record of a coupled pair, and its couple_step.
PAIR_RECORDS = {"couple_step", "skeleton", "distance", "lambda_star", "noise",
                "lift2"}


@pytest.fixture(scope="session")
def euclid1():
    return Euclidean(1)


@pytest.fixture(scope="session")
def euclid2():
    return Euclidean(2)


@pytest.fixture(scope="session")
def sphere2():
    return RoundSphere(2, 1.0)


@pytest.fixture(scope="session")
def flow_sphere():
    return RoundSphere(2, 1.0, flow=True, time_window=(0.0, 1.0))


@pytest.fixture(scope="session")
def circle():
    return RoundSphere(1, 1.0)


@pytest.fixture(scope="session")
def hyperbolic2():
    return Hyperbolic(2)


@pytest.fixture(scope="session")
def scaled_euclid2():
    return ScaledMetric(Euclidean(2), 1.0, (0.0, 1.0))


@pytest.fixture()
def rng():
    return np.random.default_rng(20240817)


def same_bits(a, b) -> bool:
    """Equal shape and equal bits: unlike np.array_equal, 0.0 and -0.0
    differ."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def strip_runtime(report_dict: dict) -> dict:
    """The report dict without ``runtime_ms``, the one field that differs
    between identical runs; removed in place and the dict returned."""
    report_dict.pop("runtime_ms")
    return report_dict


def random_point(model, rng, spread=1.0):
    """A valid random point on the model."""
    kind = model.kind
    if kind == "euclidean" or kind == "numeric-chart":
        return rng.normal(size=model.ambient_dim) * spread
    if kind == "sphere":
        z = rng.normal(size=model.ambient_dim)
        return model.radius * z / np.linalg.norm(z)
    if kind == "hyperbolic":
        spatial = rng.normal(size=model.dim) * spread
        return np.concatenate([[np.sqrt(1.0 + spatial @ spatial)], spatial])
    if kind == "scaled":
        return random_point(model.base, rng, spread)
    raise ValueError(kind)


def random_tangent(model, t, x, rng, scale=1.0):
    fr = model.frame(t, x)
    z = rng.normal(size=model.dim) * scale
    return np.einsum("j,jd->d", z, fr)


def pair_trace(kernel, i: int = 0) -> dict:
    """Pair ``i``'s ``PAIR_RECORDS`` from a ``coupled_kernel``, with its
    per-step ``coupled_flags`` and its ``coupling_time``, the schedule time
    of its couple_step (inf when the pair never couples)."""
    path = kernel.trace(i, PAIR_RECORDS)
    step, times = int(path["couple_step"]), kernel.schedule.times
    path["coupled_flags"] = engine.coupled_flags([step], len(times) - 1)[0]
    path["coupling_time"] = math.inf if step < 0 else float(times[step])
    return path
