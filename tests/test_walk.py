import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import sphere_frame_gram_schmidt

from gtwalk import engine, rng
from gtwalk.errors import InvalidInput
from gtwalk.manifolds import Euclidean, ManifoldModel, RoundSphere
from gtwalk.stats import gaussian_cdf, ks_statistic
from gtwalk.walk import Schedule, step, walk_kernel


# ---------------------------------------------------------------------------
# Schedule
# ---------------------------------------------------------------------------

def test_schedule_integer_split():
    s = Schedule(0.0, 1.0, 0.1)
    assert s.n_steps == 100
    assert np.allclose(np.diff(s.times), 0.01)
    assert s.times[-1] == 1.0


def test_schedule_partial_final_step():
    s = Schedule(0.0, 1.0, math.sqrt(0.3))
    assert s.n_steps == 4
    assert s.times[-1] == 1.0
    assert s.fracs[-1] == pytest.approx(0.1 / 0.3)
    assert np.all(np.diff(s.times) > 0)


@given(st.floats(0.02, 0.9), st.floats(-3.0, 3.0), st.floats(0.05, 4.0))
@settings(max_examples=60, deadline=None)
def test_schedule_invariants(alpha, t1, span):
    if alpha ** 2 >= span:
        with pytest.raises(InvalidInput):
            Schedule(t1, t1 + span, alpha)
        return
    s = Schedule(t1, t1 + span, alpha)
    assert s.n_steps == math.ceil(span / alpha ** 2 - 1e-9)
    assert np.all(np.diff(s.times) > 0)
    assert s.times[-1] == pytest.approx(t1 + span, abs=1e-12)


def test_config_validation():
    with pytest.raises(InvalidInput):
        Schedule(0.0, 1.0, 2.0)


# ---------------------------------------------------------------------------
# unit ball samples
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("dim", [1, 2, 3])
def test_ball_support(dim):
    gen = rng.stream(3, rng.PURPOSE_WALK, 0)
    xs = rng.unit_ball_samples(gen, 5000, dim)
    assert np.max(np.linalg.norm(xs, axis=1)) <= 1.0 + 1e-12


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_ball_moments(dim):
    n = 1_000_000
    gen = rng.stream(4, rng.PURPOSE_WALK, 1)
    xs = rng.unit_ball_samples(gen, n, dim)
    se_mean = np.sqrt(1.0 / (dim + 2) / n)
    assert np.max(np.abs(xs.mean(axis=0))) <= 3 * se_mean
    cov = xs.T @ xs / n
    target = np.eye(dim) / (dim + 2)
    # variance of x_i^2 for the radial law, conservative bound 1/n
    assert np.max(np.abs(cov - target)) <= 3 * np.sqrt(1.0 / n)


def test_unit_ball_single_sample():
    gen = rng.stream(5, rng.PURPOSE_WALK, 2)
    x = rng.unit_ball_samples(gen, 1, 3)[0]
    assert x.shape == (3,) and np.linalg.norm(x) <= 1.0


@pytest.mark.bits
@pytest.mark.parametrize("dim", [1, 2, 3, 4, 8, 9])
def test_noise_block_is_walk_noise_step_major(dim):
    """Each path of the block is its walk_noise, bit for bit, for one path,
    counts that are not a multiple of the draw group and blocks that do
    not start at path 0."""
    for paths in (range(1), range(11), range(5, 30), range(1000, 1003)):
        block = rng.walk_noise_block(11, paths, 37, dim)
        assert block.shape == (37, len(paths), dim)
        want = np.stack([rng.walk_noise(11, p, 37, dim) for p in paths])
        assert np.array_equal(block.transpose(1, 0, 2), want)


@pytest.mark.bits
def test_kernel_traces_keep_path_major_noise(euclid2, flow_sphere):
    """Traced noise is (B, n_steps, m): path i's walk_noise."""
    sched = Schedule(0.0, 0.5, 0.2)
    paths = range(3, 8)
    want = np.stack([rng.walk_noise(5, p, sched.n_steps, 2) for p in paths])
    walk = engine.walk_chunk(flow_sphere, sched, flow_sphere.origin(), 5,
                             paths, records={"noise"})
    pair = engine.coupled_chunk(euclid2, sched, np.zeros(2),
                                np.array([1.0, 0.0]), 5, paths,
                                records={"noise"})
    for res in (walk, pair):
        assert res["noise"].shape == (len(paths), sched.n_steps, 2)
        assert np.array_equal(res["noise"], want)


# ---------------------------------------------------------------------------
# step
# ---------------------------------------------------------------------------

def test_step_zero_noise_stays(euclid2):
    p, _ = step(euclid2, 0.0, np.array([0.4, -0.2]), np.zeros(2), 0.1)
    assert np.array_equal(p.coords, [0.4, -0.2])


def test_step_formula_m1(euclid1):
    p, lift = step(euclid1, 0.0, np.zeros(1), np.array([0.5]), 0.1)
    assert p.coords[0] == pytest.approx(0.1 * math.sqrt(3.0) * 0.5, rel=1e-14)
    assert lift.components[0] == pytest.approx(math.sqrt(3.0) * 0.5)


def test_step_sphere_on_manifold(sphere2):
    p, _ = step(sphere2, 0.0, np.array([0.0, 0.0, 1.0]),
                np.array([0.7, -0.2]), 0.3)
    assert float(sphere2.constraint_residual(p.coords)) <= 1e-9


def test_step_rejects_big_sample(euclid2):
    with pytest.raises(InvalidInput):
        step(euclid2, 0.0, np.zeros(2), np.array([1.2, 0.0]), 0.1)


# ---------------------------------------------------------------------------
# walk_kernel traces
# ---------------------------------------------------------------------------

# Every record of a walk with no exit check and no radial replay.
TRACE = {"end", "skeleton", "step_vectors", "noise"}


def test_walk_shapes_and_determinism(euclid2):
    kernel = walk_kernel(euclid2, Schedule(0.0, 1.0, 0.1), np.zeros(2), 7)
    path = kernel.trace(0, TRACE)
    assert path["skeleton"].shape == (kernel.schedule.n_steps + 1, 2)
    again = kernel.trace(0, TRACE)
    assert np.array_equal(path["skeleton"], again["skeleton"])
    assert np.array_equal(path["noise"], again["noise"])


@pytest.mark.bits
def test_walk_markov_replay(flow_sphere):
    """Each skeleton point is exactly the step applied to its predecessor."""
    sched = Schedule(0.0, 0.5, 0.1)
    path = walk_kernel(flow_sphere, sched, flow_sphere.origin(),
                       11).trace(0, TRACE)
    for n in range(sched.n_steps):
        p, _ = step(flow_sphere, float(sched.times[n]), path["skeleton"][n],
                    path["noise"][n], sched.alpha,
                    frac=float(sched.fracs[n]))
        assert np.array_equal(p.coords, path["skeleton"][n + 1])


@pytest.mark.bits
@pytest.mark.parametrize("drift", [False, True])
def test_step_is_a_kernel_step(drift):
    """walk.step reproduces a one-path walk_chunk, drift and the final
    partial step included."""
    model = Euclidean(2, (0.0, 1.0), drift=lambda t, x: -x) if drift \
        else RoundSphere(3, 2.0, flow=True, time_window=(0.0, 1.0))
    sched = Schedule(0.0, 0.97, 0.1)
    path = walk_kernel(model, sched, model.origin() + (0.3 if drift else 0.0),
                       4).trace(0, TRACE)
    assert sched.fracs[-1] < 1.0
    for n in range(sched.n_steps):
        t = float(sched.times[n])
        p, lift = step(model, t, path["skeleton"][n], path["noise"][n],
                       sched.alpha, frac=float(sched.fracs[n]))
        assert np.array_equal(p.coords, path["skeleton"][n + 1])
        w = sched.alpha * lift.components
        if drift:
            w = w + sched.alpha ** 2 * model.drift(t, path["skeleton"][n])
        assert np.array_equal(w, path["step_vectors"][n])


def test_walk_endpoint_variance(euclid1):
    sched = Schedule(0.0, 1.0, 0.05)
    ends = []
    for lo in range(0, 100_000, 8192):
        out = engine.walk_chunk(euclid1, sched, np.zeros(1), 21,
                                range(lo, min(lo + 8192, 100_000)))
        ends.append(out["end"][:, 0])
    ends = np.concatenate(ends)
    var = ends.var()
    se = math.sqrt(2.0 / len(ends))
    assert abs(var - 1.0) <= 3 * se


def test_walk_endpoint_ks_gaussian(euclid1):
    sched = Schedule(0.0, 1.0, 0.05)
    out = engine.walk_chunk(euclid1, sched, np.zeros(1), 22, range(10_000))
    ks = ks_statistic(out["end"][:, 0], gaussian_cdf(0.0, 1.0), level=0.01)
    assert ks.passed


def test_walk_embedding_constraint(flow_sphere):
    skeleton = walk_kernel(flow_sphere, Schedule(0.0, 0.5, 0.1),
                           flow_sphere.origin(), 2).trace(0, TRACE)["skeleton"]
    assert float(np.max(flow_sphere.constraint_residual(skeleton))) \
        <= 1e-9


class _DecreasingSection(RoundSphere):
    """The sphere with a second smooth frame section: Gram-Schmidt in
    decreasing axis order, lifted through the base class's composition of
    the frame."""

    def frame(self, t, x):
        return sphere_frame_gram_schmidt(x, self.radius, self._factor(t), 1)

    lift = ManifoldModel.lift


def test_frame_section_independence_of_summaries(sphere2):
    """A walk's law does not depend on the frame section its steps are
    lifted through: on the 2-sphere, where the two sections differ, the
    mean endpoint and its mean cosine to the start agree within 4 standard
    errors. The cosine is e^-1 at T = 1; a lift 10% too long moves it
    about 5 standard errors."""
    variant = _DecreasingSection(2, 1.0)
    x = np.random.default_rng(0).normal(size=(1000, 3))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    assert np.abs(variant.frame(0.0, x) - sphere2.frame(0.0, x)).max() > 1.0
    sched = Schedule(0.0, 1.0, 0.1)
    start = np.array([1.0, 2.0, 2.0]) / 3.0
    a = engine.walk_chunk(sphere2, sched, start, 31, range(4000))["end"]
    b = engine.walk_chunk(variant, sched, start, 32, range(4000))["end"]
    twin = engine.walk_chunk(variant, sched, start, 31, range(4000))["end"]
    assert np.linalg.norm(twin - a, axis=1).max() > 1.0
    for fa, fb in ((a, b), (a @ start, b @ start)):
        se = np.sqrt(fa.var(axis=0) / len(fa) + fb.var(axis=0) / len(fb))
        assert np.all(np.abs(fa.mean(axis=0) - fb.mean(axis=0)) <= 4 * se)


# ---------------------------------------------------------------------------
# exit time: the kernel's exit_step
# ---------------------------------------------------------------------------

def kernel_exit_time(model, sched, start, seed: int, origin,
                     radius: float) -> float:
    """The schedule time of walk_chunk's exit_step for path 0 of the walk
    from ``start``; infinity if the walk never exits."""
    n = int(engine.walk_chunk(model, sched, start, seed, range(1),
                              origin=origin, exit_radius=radius)
            ["exit_step"][0])
    return math.inf if n < 0 else float(sched.times[n])


def test_exit_time_confined_is_infinite(euclid2):
    assert kernel_exit_time(euclid2, Schedule(0.0, 1.0, 0.05), np.zeros(2),
                            13, np.zeros(2), 8.0) == math.inf


def test_exit_time_matches_definition(euclid1):
    sched = Schedule(0.0, 1.0, 0.3)
    path = walk_kernel(euclid1, sched, np.zeros(1), 3).trace(0, TRACE)
    R = 1.2
    got = kernel_exit_time(euclid1, sched, np.zeros(1), 3, np.zeros(1), R)
    crossing = [t for n, t in enumerate(sched.times)
                if abs(path["skeleton"][n, 0]) > R - 1.0]
    assert got == (crossing[0] if crossing else math.inf)


def test_exit_probability_decreases_in_radius(euclid2):
    sched = Schedule(0.0, 1.0, 0.1)
    fractions = []
    for R in (3.0, 5.0, 8.0):
        out = engine.walk_chunk(euclid2, sched, np.zeros(2), 41, range(3000),
                                origin=np.zeros(2), exit_radius=R)
        fractions.append(float(np.mean(out["exit_step"] >= 0)))
    assert fractions[0] >= fractions[1] >= fractions[2]
    assert fractions[2] <= 0.01


# ---------------------------------------------------------------------------
# noise lift and drift
# ---------------------------------------------------------------------------

def test_noise_lift_norm_identity(flow_sphere, rng):
    """|xi~|_{g(t)} = sqrt(m+2) |xi| for the frame lift."""
    from conftest import random_point
    for _ in range(200):
        t = float(rng.uniform(0.0, 1.0))
        x = random_point(flow_sphere, rng)
        xi = rng.normal(size=2)
        xi /= max(np.linalg.norm(xi) * 1.001, 1.0)
        lift = flow_sphere.lift(t, x[None, :], xi[None, :])[0]
        got = float(flow_sphere.norm(t, x, lift))
        assert got == pytest.approx(2.0 * np.linalg.norm(xi), abs=1e-9)


def test_walk_with_drift_field():
    """Constant drift contributes T Z to the mean displacement."""
    z = np.array([1.0, 0.0])
    model = Euclidean(2, drift=lambda t, x: np.broadcast_to(z, x.shape))
    sched = Schedule(0.0, 1.0, 0.1)
    out = engine.walk_chunk(model, sched, np.zeros(2), 61, range(4000))
    ends = out["end"]
    se = ends[:, 0].std(ddof=1) / math.sqrt(len(ends))
    assert abs(ends[:, 0].mean() - 1.0) <= 3 * se
    assert abs(ends[:, 1].mean()) <= 3 * se


def test_walk_each_coordinate_gaussian_2d(euclid2):
    sched = Schedule(0.0, 1.0, 0.05)
    ends = []
    for lo in range(0, 10_000, 4096):
        out = engine.walk_chunk(euclid2, sched, np.zeros(2), 71,
                                range(lo, min(lo + 4096, 10_000)))
        ends.append(out["end"])
    ends = np.concatenate(ends)
    for j in range(2):
        assert ks_statistic(ends[:, j], gaussian_cdf(0.0, 1.0),
                            level=0.01).passed
