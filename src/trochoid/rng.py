"""Deterministic random number generation.

All randomness in the package flows through xoshiro256** streams seeded by a
splitmix64 key-derivation chain.  Substreams are derived from a master seed
plus integer key parts (a tag and indices), so independent objects (rows,
edges, repair loops) each own a stream whose output does not depend on
evaluation order or thread count.

Three interfaces are provided:

* ``Stream``, a scalar generator for inherently sequential work (shuffles,
  retry loops).
* ``VectorStreams``, many streams advanced in lockstep as numpy uint64
  arrays, for bulk generation (matrix entries).
* ``edge_flip_uniforms``, the first uniform of one stream per in-edge of a
  dense matrix, computed straight from the stream keys as one table.
"""

from __future__ import annotations

import numpy as np

_MASK = 0xFFFFFFFFFFFFFFFF
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

# stream tags; arbitrary distinct constants
TAG_IID = 0x01
TAG_FLIP = 0x02
TAG_GRAPH = 0x03


def normalize_seed(seed: int) -> int:
    """Validate and reduce a user seed to 64 bits.

    Seeds are checked here and nowhere else in the generators: every stream
    is keyed through ``derive_key``, which calls this first, so a seed that
    is not an integer raises TypeError before any draw.  The exception is a
    caller that may never key a stream from its seed:
    ``correlations.induce_cyclic_correlations`` reads none at flip
    probability 0 or 1 or when handed a flip table, and checks it itself.
    """
    if not isinstance(seed, (int, np.integer)):
        raise TypeError(f"seed must be an integer, got {type(seed).__name__}")
    return int(seed) & _MASK


def _mix64(x: int) -> int:
    """splitmix64 finalizer on a python int."""
    x &= _MASK
    x = ((x ^ (x >> 30)) * _MIX1) & _MASK
    x = ((x ^ (x >> 27)) * _MIX2) & _MASK
    return x ^ (x >> 31)


def derive_key(seed: int, *parts: int) -> int:
    """Derive a 64-bit stream key from a master seed and integer key parts.

    Order-sensitive: derive_key(s, a, b) != derive_key(s, b, a) in general.
    """
    h = _mix64((normalize_seed(seed) + _GAMMA) & _MASK)
    for p in parts:
        h = _mix64(h ^ _mix64((int(p) + _GAMMA) & _MASK))
    return h


def _mix64_inplace(x: np.ndarray, tmp: np.ndarray) -> None:
    """splitmix64 finalizer applied to ``x`` in place; ``tmp`` is scratch of its size."""
    for shift, mult in ((30, _MIX1), (27, _MIX2)):
        np.right_shift(x, np.uint64(shift), out=tmp)
        x ^= tmp
        x *= np.uint64(mult)
    np.right_shift(x, np.uint64(31), out=tmp)
    x ^= tmp


def _mix64_vec(x: np.ndarray) -> np.ndarray:
    out = np.array(x, dtype=np.uint64)
    _mix64_inplace(out, np.empty_like(out))
    return out


def derive_keys(seed: int, tag: int, index: np.ndarray) -> np.ndarray:
    """Vectorized derive_key(seed, tag, i) over an integer index array."""
    base = derive_key(seed, tag)
    idx = (index.astype(np.uint64) + np.uint64(_GAMMA)) & np.uint64(_MASK)
    return _mix64_vec(np.uint64(base) ^ _mix64_vec(idx))


def _rotl_vec(x: np.ndarray, k: int) -> np.ndarray:
    return (x << np.uint64(k)) | (x >> np.uint64(64 - k))


class VectorStreams:
    """A bank of xoshiro256** generators advanced in lockstep.

    State is four uint64 arrays; each ``next_raw`` call advances every stream
    by one step.  Streams are seeded from per-stream 64-bit keys via four
    rounds of splitmix64, the generator's recommended initialization.
    """

    def __init__(self, keys: np.ndarray):
        keys = keys.astype(np.uint64)
        s = []
        x = keys
        for _ in range(4):
            x = (x + np.uint64(_GAMMA)) & np.uint64(_MASK)
            s.append(_mix64_vec(x))
        self._s0, self._s1, self._s2, self._s3 = s

    @classmethod
    def for_indices(cls, seed: int, tag: int, index: np.ndarray) -> VectorStreams:
        return cls(derive_keys(seed, tag, index))

    def next_raw(self) -> np.ndarray:
        s0, s1, s2, s3 = self._s0, self._s1, self._s2, self._s3
        out = _rotl_vec(s1 * np.uint64(5), 7) * np.uint64(9)
        t = s1 << np.uint64(17)
        s2 = s2 ^ s0
        s3 = s3 ^ s1
        s1 = s1 ^ s2
        s0 = s0 ^ s3
        s2 = s2 ^ t
        s3 = _rotl_vec(s3, 45)
        self._s0, self._s1, self._s2, self._s3 = s0, s1, s2, s3
        return out

    def uniform(self) -> np.ndarray:
        """One double in [0, 1) per stream (53-bit mantissa)."""
        return (self.next_raw() >> np.uint64(11)) * 2.0**-53

    def uniform_open(self) -> np.ndarray:
        """One double in (0, 1] per stream; safe under log()."""
        return ((self.next_raw() >> np.uint64(11)) + np.uint64(1)) * 2.0**-53

    def normal_pair(self) -> tuple[np.ndarray, np.ndarray]:
        """Two standard normals per stream via the Box-Muller transform."""
        u1 = self.uniform_open()
        u2 = self.uniform()
        r = np.sqrt(-2.0 * np.log(u1))
        theta = 2.0 * np.pi * u2
        return r * np.cos(theta), r * np.sin(theta)


class Stream:
    """A single xoshiro256** generator for sequential use (python ints)."""

    def __init__(self, key: int):
        s = []
        x = key & _MASK
        for _ in range(4):
            x = (x + _GAMMA) & _MASK
            s.append(_mix64(x))
        self._s = s

    @classmethod
    def derived(cls, seed: int, *parts: int) -> Stream:
        return cls(derive_key(seed, *parts))

    def next_raw(self) -> int:
        s = self._s
        x = (s[1] * 5) & _MASK
        out = (((x << 7) | (x >> 57)) & _MASK) * 9 & _MASK
        t = (s[1] << 17) & _MASK
        s[2] ^= s[0]
        s[3] ^= s[1]
        s[1] ^= s[2]
        s[0] ^= s[3]
        s[2] ^= t
        s[3] = ((s[3] << 45) | (s[3] >> 19)) & _MASK
        return out

    def below(self, bound: int) -> int:
        """Integer in [0, bound) by the multiply-shift reduction.

        Bias is at most bound / 2**64, negligible for the bounds used here.
        """
        return (self.next_raw() * bound) >> 64

    def shuffle(self, items: np.ndarray | list) -> None:
        """In-place Fisher-Yates shuffle."""
        for i in range(len(items) - 1, 0, -1):
            j = self.below(i + 1)
            items[i], items[j] = items[j], items[i]

    def sample_distinct(self, pool_size: int, count: int) -> list[int]:
        """Draw ``count`` distinct integers from [0, pool_size)."""
        if count > pool_size:
            raise ValueError("cannot draw more distinct values than the pool holds")
        chosen: list[int] = []
        seen: set[int] = set()
        while len(chosen) < count:
            x = self.below(pool_size)
            if x not in seen:
                seen.add(x)
                chosen.append(x)
        return chosen


_TABLE_CHUNK = 1 << 15  # slots per vectorised pass; bounds the uint64 scratch


def edge_flip_uniforms(seed: int, n: int) -> list[np.ndarray]:
    """The flip uniform of every in-edge slot (b -> v), b < v < n, as row views.

    Row v has length v and holds, at position b, the first uniform of the
    stream derived from (seed, TAG_FLIP, (v << 32) | b), so the draw for one
    edge never depends on n or on how many other edges consumed randomness.
    Requires n below 2**32.

    A freshly seeded xoshiro256** returns ``rotl(s1 * 5, 7) * 9`` first, and
    seeding sets ``s1 = splitmix64(key + 2 * gamma)``.  So the first uniform
    of every stream follows from its key alone, and the whole triangle is
    built with a few in-place uint64 passes over bounded chunks instead of
    seeding one bank of four-word states per node.
    """
    base = np.uint64(derive_key(seed, TAG_FLIP))
    rows = np.arange(n + 1, dtype=np.int64)
    starts = rows * (rows - 1) // 2  # row v fills flat[starts[v]:starts[v + 1]]
    flat = np.empty(int(starts[-1]))
    # slot j of row v holds b = j - starts[v], so its key index (v << 32) | b
    # is j + offset[v], with offset[v] = (v << 32) - starts[v] (mod 2**64)
    offset = (rows.astype(np.uint64) << np.uint64(32)) - starts.astype(np.uint64)
    v = 1
    while v < n:
        # whole rows v..stop-1: at least one, at most _TABLE_CHUNK slots otherwise
        stop = int(np.searchsorted(starts, starts[v] + _TABLE_CHUNK, "right")) - 1
        stop = min(max(stop, v + 1), n)
        lo, hi = int(starts[v]), int(starts[stop])
        x = np.arange(lo, hi, dtype=np.uint64)
        x += np.repeat(offset[v:stop], rows[v:stop])
        tmp = np.empty_like(x)
        # derive_keys: mix the index, xor in the (seed, TAG_FLIP) key, mix again
        x += np.uint64(_GAMMA)
        _mix64_inplace(x, tmp)
        x ^= base
        _mix64_inplace(x, tmp)
        # s1 of the freshly seeded state, then its first output rotl(s1 * 5, 7) * 9
        x += np.uint64((2 * _GAMMA) & _MASK)
        _mix64_inplace(x, tmp)
        x *= np.uint64(5)
        np.right_shift(x, np.uint64(57), out=tmp)
        x <<= np.uint64(7)
        x |= tmp
        x *= np.uint64(9)
        x >>= np.uint64(11)  # VectorStreams.uniform: the top 53 bits
        np.multiply(x, 2.0**-53, out=flat[lo:hi])
        v = stop
    return [flat[starts[v] : starts[v + 1]] for v in range(n)]
