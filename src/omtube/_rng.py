"""Keyed random number streams for reproducible parallel Monte Carlo.

Every ensemble is split into fixed-width chunks of ``CHUNK`` paths.  Chunk
``j`` of a run draws from an SFC64 generator seeded by the ``SeedSequence``
of ``seed`` with spawn key ``(j,)``, and the order in which a chunk
consumes values is a deterministic function of its own evolution only.
Results are therefore bit-identical for identical ``(seed, config)`` under
any worker count or scheduling: workers always own whole chunks and
reductions are combined in chunk order.

Single-path simulations (the ones that record a full trajectory) use the
disjoint spawn keys ``(2**62 + path_index,)``.
"""

import numpy as np

CHUNK = 32768


def _generator(seed, key):
    return np.random.Generator(np.random.SFC64(np.random.SeedSequence(seed, spawn_key=(key,))))


def chunk_generator(seed, chunk_index):
    """Generator for one ensemble chunk, keyed by (seed, chunk_index)."""
    return _generator(seed, chunk_index)


def path_generator(seed, path_index):
    """Generator for a single recorded path, disjoint from chunk streams."""
    return _generator(seed, (1 << 62) + path_index)


def leg_seed(seed, leg):
    """Derive independent stream seeds for estimator legs (the ratio's X leg is leg 0)."""
    mask = (1 << 64) - 1
    x = (int(seed) + (leg + 1) * 0x9E3779B97F4A7C15) & mask
    # splitmix64 finalizer
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & mask
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & mask
    x ^= x >> 31
    return x


def iter_chunks(n_paths):
    """Yield (chunk_index, lane_count) pairs covering n_paths lanes."""
    n_chunks = (n_paths + CHUNK - 1) // CHUNK
    for j in range(n_chunks):
        yield j, min(CHUNK, n_paths - j * CHUNK)
