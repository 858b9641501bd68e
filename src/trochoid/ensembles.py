"""Core ensemble containers and dense-matrix generation.

Conventions: matrices are real n x n with row-major semantics; for a digraph
adjacency, entry (u, v) is the total weight of edges u -> v.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from math import gcd

import numpy as np

from .errors import InvalidSpecError
from .rng import TAG_IID, VectorStreams, normalize_seed


@dataclass
class DenseMatrix:
    """A square real matrix whose spectrum is under study.

    ``power_trace`` is (k, Tr M^k) when the sign-flip sweep that made the
    matrix accumulated that trace on the way (see ``correlations``), else
    None.  It describes ``entries`` as the sweep left them.
    """

    entries: np.ndarray
    power_trace: tuple[int, float] | None = None

    def __post_init__(self):
        a = np.asarray(self.entries, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise InvalidSpecError(f"matrix must be square, got shape {a.shape}")
        if not np.all(np.isfinite(a)):
            raise InvalidSpecError("matrix entries must be finite")
        self.entries = a

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    def copy(self) -> DenseMatrix:
        return DenseMatrix(self.entries.copy())


@dataclass
class SparseDigraph:
    """A weighted digraph given by its directed cycles.

    ``cycles`` records each cycle as a tuple of distinct node ids in
    traversal order, and ``cycle_weights`` the weight of each of its steps.
    ``edges`` (E x 2 ints: source, target) and ``edge_weights`` (E floats)
    are derived from them: one row per ordered pair that some cycle steps
    along, carrying the sum of those steps' weights added in cycle order,
    sorted by (source, target).  Pairs whose weights cancel to 0 are dropped.
    Sorted so, they are the sparse adjacency that the phase certificate, the
    cyclic blocks and the moments all read, shared by every reader: one that
    changes them must change a copy.
    """

    n: int
    cycles: list[tuple[int, ...]]
    cycle_weights: list[float]
    edges: np.ndarray = field(init=False, compare=False)
    edge_weights: np.ndarray = field(init=False, compare=False)

    def __post_init__(self):
        if len(self.cycle_weights) != len(self.cycles):
            raise InvalidSpecError("cycle_weights must match cycles one-to-one")
        for cyc in self.cycles:
            if len(set(cyc)) != len(cyc):
                raise InvalidSpecError(f"cycle {cyc} repeats a node")
        lengths = np.fromiter(map(len, self.cycles), dtype=np.int64, count=len(self.cycles))
        src = np.fromiter(chain.from_iterable(self.cycles), dtype=np.int64, count=int(lengths.sum()))
        if src.size and not (0 <= src.min() and src.max() < self.n):
            raise InvalidSpecError(f"cycle node out of node range [0, {self.n})")
        # each step's target is the next node, except at a cycle's last
        # position, where it is the cycle's first node
        nonempty = lengths > 0
        ends = np.cumsum(lengths)[nonempty]
        dst = np.roll(src, -1)
        dst[ends - 1] = src[ends - lengths[nonempty]]
        steps = np.repeat(np.asarray(self.cycle_weights, dtype=float), lengths)
        pairs, step_pair = np.unique(src * self.n + dst, return_inverse=True)
        totals = np.bincount(step_pair, weights=steps, minlength=pairs.size)
        kept = totals != 0.0
        self.edges = np.column_stack(np.divmod(pairs[kept], self.n))
        self.edge_weights = totals[kept]

    def row_sums(self) -> np.ndarray:
        return np.bincount(self.edges[:, 0], weights=self.edge_weights, minlength=self.n)

    def cycle_length_gcd(self) -> int:
        """Greatest common divisor of all recorded cycle lengths (0 if none)."""
        return gcd(*map(len, self.cycles))


def generate_base_iid(n: int, seed: int) -> DenseMatrix:
    """Gaussian i.i.d. matrix with mean 0 and variance 1/n.

    Row i is produced by its own derived stream, so the output is identical
    regardless of how generation is scheduled.
    """
    if n < 1:
        raise InvalidSpecError(f"dimension must be >= 1, got {n}")
    seed = normalize_seed(seed)
    streams = VectorStreams.for_indices(seed, TAG_IID, np.arange(n))
    m = np.empty((n, n))
    col = 0
    while col < n:
        z0, z1 = streams.normal_pair()
        m[:, col] = z0
        if col + 1 < n:
            m[:, col + 1] = z1
        col += 2
    m *= 1.0 / np.sqrt(n)
    return DenseMatrix(m)


def adjacency_matrix(g: SparseDigraph) -> DenseMatrix:
    """Dense adjacency of a digraph: M[u, v] = total weight of u -> v."""
    m = np.zeros((g.n, g.n))
    m[g.edges[:, 0], g.edges[:, 1]] = g.edge_weights
    return DenseMatrix(m)

