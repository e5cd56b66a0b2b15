"""Seeded input generators for the benchmark.

Plain numpy only: nothing here imports cohdist, so the generated states and
the structure recorded with them (the pure blocks) are known independently
of the code under test.  The same generator and seed give the same inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import NormalDist

import numpy as np


@dataclass(frozen=True)
class Instance:
    """One source state and one pure target, with the known block structure.

    ``blocks`` lists the maximal pure subspaces when the generator knows
    them (block states, pure states, pair plus incoherent levels), and is
    ``None`` for generic mixtures, whose structure the reference must find
    by brute force.
    """

    name: str
    rho: np.ndarray                       # d x d complex density matrix
    target: np.ndarray                    # length-d complex unit vector
    blocks: tuple[tuple[int, ...], ...] | None


def _amplitudes(rng: np.random.Generator, size: int) -> np.ndarray:
    """Random complex unit vector with moduli bounded away from zero."""
    mags = 0.15 + np.abs(rng.normal(size=size))
    phases = np.exp(2j * np.pi * rng.random(size))
    vec = mags * phases
    return vec / np.linalg.norm(vec)


def embed(dim: int, support, values) -> np.ndarray:
    out = np.zeros(dim, dtype=complex)
    out[list(support)] = values
    return out


def pure_from_profile(rng: np.random.Generator, profile) -> np.ndarray:
    """Unit vector with squared moduli ``profile`` and random phases."""
    p = np.asarray(profile, dtype=float)
    return np.sqrt(p) * np.exp(2j * np.pi * rng.random(p.size))


def shaped_pure_source(rng: np.random.Generator, dim: int) -> tuple[np.ndarray, tuple]:
    """Full-support pure state with a fixed sorted profile.

    The moduli are 0.15 plus half-normal quantiles, the median shape of
    ``_amplitudes``; the seed sets the order of the levels and the phases.
    Large inputs use fixed profiles because the cost of protocol synthesis
    depends on the profile, so their cost does not vary with the seed.
    """
    mags = 0.15 + np.array([NormalDist().inv_cdf(0.5 + 0.5 * (i + 0.5) / dim)
                            for i in range(dim)])
    v = pure_from_profile(rng, rng.permutation(mags ** 2 / np.sum(mags ** 2)))
    return np.outer(v, v.conj()), (tuple(range(dim)),)


def shaped_target(rng: np.random.Generator, dim: int, profile) -> np.ndarray:
    """Pure target with a fixed profile on random levels, random phases."""
    support = rng.choice(dim, size=len(profile), replace=False)
    return embed(dim, support, pure_from_profile(rng, profile))


def target(rng: np.random.Generator, dim: int, rank: int) -> np.ndarray:
    """Pure target of coherence rank ``rank`` on random levels of ``dim``."""
    support = np.sort(rng.choice(dim, size=rank, replace=False))
    profile = rng.dirichlet(np.full(rank, 3.0)) * 0.8 + 0.2 / rank
    return embed(dim, support, pure_from_profile(rng, profile))


def flatter_target(rng: np.random.Generator, profile, share: float) -> np.ndarray:
    """Full-rank target strictly flatter than ``profile``, on shuffled levels.

    A mixture of the profile (weight ``share`` < 1) and the uniform profile
    is majorized by the profile, so a source with that profile reaches it
    with probability below 1 (unless the profile is uniform).
    """
    p = np.asarray(profile, dtype=float)
    return pure_from_profile(rng, rng.permutation(share * p + (1.0 - share) / p.size))


def block_sizes(dim: int, singletons: int) -> list[int]:
    """``singletons`` blocks of size 1, then sizes 2, 3, 4, 2, ... up to dim."""
    sizes = [1] * singletons
    left = dim - singletons
    while left > 4:
        size = 2 + len(sizes) % 3
        size = 3 if left - size == 1 else size
        sizes.append(size)
        left -= size
    return sizes + ([left] if left else [])


def block_state(rng: np.random.Generator, sizes,
                layout: np.random.Generator | None = None) -> tuple[np.ndarray, tuple]:
    """Direct sum of pure blocks of the given sizes on shuffled levels.

    ``layout``, when given, shuffles the levels in place of ``rng`` (see
    ``pair_plus_levels``).  Returns the density matrix and its blocks
    (sorted index tuples), which are exactly its maximal pure subspaces.
    """
    dim = int(sum(sizes))
    perm = (rng if layout is None else layout).permutation(dim)
    blocks, pos = [], 0
    for size in sizes:
        blocks.append(tuple(sorted(int(i) for i in perm[pos:pos + size])))
        pos += size
    weights = rng.dirichlet(np.ones(len(blocks))) * 0.9 + 0.1 / len(blocks)
    weights /= weights.sum()
    rho = np.zeros((dim, dim), dtype=complex)
    for w, block in zip(weights, blocks):
        v = embed(dim, block, _amplitudes(rng, len(block)))
        rho += w * np.outer(v, v.conj())
    return rho, tuple(blocks)


def pair_plus_levels(rng: np.random.Generator, levels: int,
                     layout: np.random.Generator | None = None) -> tuple[np.ndarray, tuple]:
    """One coherent pair plus ``levels`` incoherent levels, shuffled.

    ``layout``, when given, shuffles the levels in place of ``rng``.  The
    disjoint selection visits the index sets in sorted order, so its work
    on a large input depends on which levels hold which block: the same
    shuffle for every seed keeps that work fixed while ``rng`` still sets
    the weights, amplitudes and phases.
    """
    dim = levels + 2
    perm = (rng if layout is None else layout).permutation(dim)
    pair = tuple(sorted(int(i) for i in perm[:2]))
    w_pair = float(rng.uniform(0.3, 0.7))
    v = embed(dim, pair, _amplitudes(rng, 2))
    pops = rng.dirichlet(np.ones(levels)) * (1.0 - w_pair)
    rho = w_pair * np.outer(v, v.conj())
    rho[perm[2:], perm[2:]] += pops
    blocks = [pair] + [(int(i),) for i in perm[2:]]
    return rho, tuple(blocks)


def mixture_state(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Mixture of 1-3 pure states on random supports, maybe plus noise."""
    k = int(rng.integers(1, 4))
    weights = rng.dirichlet(np.ones(k))
    rho = np.zeros((dim, dim), dtype=complex)
    for w in weights:
        size = int(rng.integers(1, dim + 1))
        support = np.sort(rng.choice(dim, size=size, replace=False))
        v = embed(dim, support, _amplitudes(rng, size))
        rho += w * np.outer(v, v.conj())
    if rng.random() < 0.5:
        lam = float(rng.uniform(0.05, 0.3))
        rho = (1.0 - lam) * rho + lam * np.diag(rng.dirichlet(np.ones(dim)))
    return rho


def pure_source(rng: np.random.Generator, dim: int) -> tuple[np.ndarray, tuple]:
    """Full-support pure state as a density matrix, with its single block."""
    v = _amplitudes(rng, dim)
    return np.outer(v, v.conj()), (tuple(range(dim)),)
