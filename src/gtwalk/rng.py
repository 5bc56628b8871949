"""Counter-based random streams.

Every random draw in the package flows from a single master seed through
Philox streams keyed by (seed, purpose, stream index). A path's noise is a
pure function of (seed, purpose, path_index) with a fixed draw layout, so
results are independent of worker count and of which paths run in the same
batch, and any single step can be replayed by slicing. Kernels take a
block's noise step-major from ``walk_noise_block``.
"""

from __future__ import annotations

import numpy as np
# numpy imports numpy.random on first attribute access; importing it here
# puts that cost in ``import gtwalk`` rather than in the first kernel call.
import numpy.random  # noqa: F401

from .errors import InvalidInput

# Purpose tags keep logically distinct noise sources on disjoint streams.
# Tag 2 is retired; the others keep their values, so no stream moves.
PURPOSE_WALK = 1
PURPOSE_OU = 3
PURPOSE_RADIAL = 4

_INDEX_MASK = (1 << 56) - 1

# Paths drawn together before one transposed write into a step-major block;
# few enough that the reused buffers barely add to peak memory.
_GROUP = 8


def stream(seed: int, purpose: int, index: int) -> np.random.Generator:
    """Generator for one (purpose, index) stream under a master seed."""
    return np.random.Generator(np.random.Philox(key=_key(seed, purpose,
                                                         index)))


def check_seed(seed: int) -> None:
    """A master seed is a Philox key word, an integer in [0, 2^64)."""
    if not 0 <= seed < 1 << 64:
        raise InvalidInput(f"seed must be in [0, 2^64), not {seed}", "seed")


def _key(seed: int, purpose: int, index: int) -> np.ndarray:
    """The Philox key of one (purpose, index) stream under a master seed."""
    check_seed(seed)
    if index < 0 or index > _INDEX_MASK:
        raise ValueError(f"stream index out of range: {index}")
    return np.array(
        [np.uint64(seed), np.uint64(((purpose & 0xFF) << 56) | index)],
        dtype=np.uint64,
    )


def unit_ball_samples(rng: np.random.Generator, n: int, dim: int) -> np.ndarray:
    """Draw n points uniform on the closed unit ball of R^dim.

    Gaussian direction times U^(1/dim) radius; exactly n*(dim+1) variates are
    consumed (dim normals then one uniform per sample), which fixes the
    stream layout relied on for replay.
    """
    z = rng.standard_normal((n, dim))
    radii = rng.random(n) ** (1.0 / dim)
    norms = np.linalg.norm(z, axis=-1)
    norms = np.where(norms < 1e-300, 1.0, norms)
    return z * (radii / norms)[:, None]


def walk_noise(seed: int, path_index: int, n_steps: int, dim: int) -> np.ndarray:
    """Ball samples (n_steps, dim) driving one walk path."""
    return unit_ball_samples(stream(seed, PURPOSE_WALK, path_index), n_steps, dim)


def walk_noise_block(seed: int, paths: range, n_steps: int, dim: int) -> np.ndarray:
    """Ball samples for a contiguous path block, step-major: shape
    (n_steps, len(paths), dim), so ``block[n]`` is step n of every path.
    It is stored coordinate-major: ``block[n].T`` is contiguous rows.

    Path p's samples are ``walk_noise(seed, p, n_steps, dim)`` bit for bit.
    Paths are drawn a few at a time into reused buffers, scaled there and
    written into the block with one transposed copy per group.
    """
    B = len(paths)
    out = np.empty((n_steps, dim, B))
    z = np.empty((min(_GROUP, B), n_steps, dim))
    u = np.empty((min(_GROUP, B), n_steps))
    # One generator re-keyed per path: the state of a fresh
    # Philox(key=(seed, PURPOSE_WALK << 56 | p)), without the entropy read
    # that constructing one costs.
    bitgen = np.random.Philox(key=_key(seed, PURPOSE_WALK, 0))
    gen = np.random.Generator(bitgen)
    state = bitgen.state
    for g0 in range(0, B, _GROUP):
        zg, ug = z[:B - g0], u[:B - g0]
        for zi, ui, p in zip(zg, ug, paths[g0:g0 + _GROUP]):
            state["state"] = {"counter": np.zeros(4, dtype=np.uint64),
                              "key": _key(seed, PURPOSE_WALK, p)}
            bitgen.state = state
            gen.standard_normal(out=zi)
            gen.random(out=ui)
        _scale_to_ball(zg, ug)
        out[..., g0:g0 + len(zg)] = zg.transpose(1, 2, 0)
    return out.transpose(0, 2, 1)


def _scale_to_ball(z: np.ndarray, u: np.ndarray) -> None:
    """In place, the scaling of unit_ball_samples with the same bits: z
    (..., dim) normals become ball samples, u (...) uniforms become the
    radius-to-norm factors."""
    dim = z.shape[-1]
    if dim < 8:
        # Adding squared columns in order is numpy's reduction below 8.
        sq = z[..., 0] * z[..., 0]
        for c in range(1, dim):
            sq += z[..., c] * z[..., c]
        norms = np.sqrt(sq, out=sq)
    else:
        norms = np.linalg.norm(z, axis=-1)
    norms[norms < 1e-300] = 1.0
    u **= 1.0 / dim
    u /= norms
    for c in range(dim):   # a column at a time: no broadcast over dim
        z[..., c] *= u
