"""Sparse digraphs assembled from directed cycles.

Three ensembles: every node in exactly d cycles of length k (regular), nodes
assigned to cycles at random with a target mean membership (poisson), and a
two-species mixture of cycle lengths (mixed).  A regular digraph is built as
a mixture with one species: both go through the same species loop, each
species on its own random stream.

Construction is a configuration-model slot shuffle: d copies of every node id
are shuffled and chopped into k-tuples, each tuple becoming one directed
cycle; tuples with repeated nodes are repaired by local swaps.  A generator
returns only the cycles and their weights: ``SparseDigraph`` derives the
edges, so two cycles stepping along the same ordered pair give one edge
carrying the sum of their weights.

When the gcd g of all cycle lengths divides n, slots are stratified by node
phase class (node i belongs to class i mod g) and each cycle steps through
the classes in order.  Every edge then advances the phase by exactly one, so
the adjacency spectrum is invariant under rotation by exp(2*pi*i/g) as an
exact matrix identity, not just statistically.  Phase classes are equally
sized, so per-node membership counts and degree distributions are unchanged.
Otherwise the slots are stratified by gcd(n, g) classes; when that is 1 the
chop is the plain shuffle and the rotation symmetry holds only statistically.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

import numpy as np

from .ensembles import SparseDigraph
from .errors import GenerationError, InvalidSpecError, require_finite
from .rng import TAG_GRAPH, Stream


@dataclass(frozen=True)
class RegularCyclicSpec:
    """Each node in exactly ``d`` cycles of length ``k``, edge weight ``weight``."""

    n: int
    d: int
    k: int
    weight: float = 1.0

    def __post_init__(self):
        require_finite(weight=self.weight)
        if self.d < 1:
            raise InvalidSpecError(f"cycles per node must be >= 1, got {self.d}")
        if self.k < 2:
            raise InvalidSpecError(f"cycle length must be >= 2, got {self.k}")
        if self.k > self.n:
            raise InvalidSpecError(f"cycle length {self.k} exceeds node count {self.n}")
        if (self.d * self.n) % self.k != 0:
            raise InvalidSpecError(
                f"d*n = {self.d * self.n} must be divisible by k = {self.k}"
            )
        if self.weight == 0:
            raise InvalidSpecError("edge weight must be nonzero")

    @property
    def cycle_count(self) -> int:
        return self.d * self.n // self.k


@dataclass(frozen=True)
class PoissonCyclicSpec:
    """Cycles of length ``k`` with nodes assigned at random, mean membership ``mean_degree``.

    ``stratified`` keeps the node phases aligned so the spectrum is exactly
    k-fold rotation symmetric (the default).  Stratification concentrates
    the allowed edge pairs, which inflates short cross-cycle walk counts by
    a finite-size factor ~ k * d^2 / n; set it to False for the plain
    uniform assignment when unbiased small-n trace moments matter more than
    exact symmetry.
    """

    n: int
    mean_degree: float
    k: int
    weight: float = 1.0
    stratified: bool = True

    def __post_init__(self):
        require_finite(mean_degree=self.mean_degree, weight=self.weight)
        if self.mean_degree <= 0:
            raise InvalidSpecError(f"mean degree must be positive, got {self.mean_degree}")
        if self.k < 2:
            raise InvalidSpecError(f"cycle length must be >= 2, got {self.k}")
        if self.k > self.n:
            raise InvalidSpecError(f"cycle length {self.k} exceeds node count {self.n}")
        if self.cycle_count < 1:
            raise InvalidSpecError("parameters round to zero cycles")
        if self.weight == 0:
            raise InvalidSpecError("edge weight must be nonzero")

    @property
    def cycle_count(self) -> int:
        return int(round(self.mean_degree * self.n / self.k))


@dataclass(frozen=True)
class CycleSpecies:
    """One species of a mixed ensemble: ``d`` cycles of length ``k`` per node."""

    d: int
    k: int
    weight: float = 1.0

    def __post_init__(self):
        require_finite(weight=self.weight)
        if self.d < 0:
            raise InvalidSpecError(f"cycles per node must be >= 0, got {self.d}")
        if self.k < 2:
            raise InvalidSpecError(f"cycle length must be >= 2, got {self.k}")
        if self.weight == 0:
            raise InvalidSpecError("edge weight must be nonzero")


@dataclass(frozen=True)
class MixedCyclicSpec:
    """Exactly two cycle species sharing the same node set."""

    n: int
    species: tuple[CycleSpecies, CycleSpecies]

    def __post_init__(self):
        if len(self.species) != 2:
            raise InvalidSpecError("mixed ensemble takes exactly two species")
        s1, s2 = self.species
        if s1.k == s2.k:
            raise InvalidSpecError("species must have distinct cycle lengths")
        for s in self.species:
            if s.d > 0 and (s.d * self.n) % s.k != 0:
                raise InvalidSpecError(
                    f"d*n = {s.d * self.n} must be divisible by k = {s.k}"
                )
            if s.k > self.n:
                raise InvalidSpecError(f"cycle length {s.k} exceeds node count {self.n}")


_MAX_SWAPS_PER_NODE = 100


def _chop_regular(
    n: int, d: int, k: int, g: int, stream: Stream, budget: int
) -> list[list[int]]:
    """Slot-shuffle d*n node slots into d*n/k cycle tuples, phase-stratified by g.

    Class j supplies the positions p with p % g == j: one pool per class,
    holding d slots per class member (d * n/g slots = c * k/g needed).  With
    g = 1 this is the plain shuffle of all d*n slots.
    """
    c = d * n // k
    pools = []
    for j in range(g):
        pool = [int(x) for x in np.repeat(np.arange(j, n, g), d)]
        stream.shuffle(pool)
        pools.append(pool)
    tuples = [[pools[p % g][ci * (k // g) + p // g] for p in range(k)] for ci in range(c)]
    if k > g:
        _repair_stratified(tuples, g, stream, budget)
    return tuples


def _repair_stratified(tuples: list[list[int]], g: int, stream: Stream, budget: int) -> None:
    """Swap entries between tuples until no tuple repeats a node.

    Only positions of the same phase (equal mod g) are exchanged, so a
    stratified chop stays stratified; g = 1 lets any two positions swap.
    """
    bad = [i for i, t in enumerate(tuples) if len(set(t)) != len(t)]
    attempts = 0
    while bad:
        i = bad.pop()
        t = tuples[i]
        while len(set(t)) != len(t):
            if attempts >= budget:
                raise GenerationError(
                    f"could not remove repeated nodes within {budget} swap attempts"
                )
            attempts += 1
            seen: set[int] = set()
            dup_pos = 0
            for pos, node in enumerate(t):
                if node in seen:
                    dup_pos = pos
                    break
                seen.add(node)
            j = stream.below(len(tuples))
            positions = list(range(dup_pos % g, len(tuples[j]), g))
            pos_j = positions[stream.below(len(positions))]
            other = tuples[j]
            if i == j or other[pos_j] in t or t[dup_pos] in other:
                continue
            t[dup_pos], other[pos_j] = other[pos_j], t[dup_pos]
            if len(set(other)) != len(other):
                bad.append(j)


def _species_graph(n: int, species: list, streams: list[Stream]) -> SparseDigraph:
    """The digraph on n nodes of every species' (d, k, weight) cycles.

    Each species is chopped from its own stream, in the order given.  The
    slots are stratified by g = gcd(n, every cycle length), the largest
    phase count that divides n and each length (1 = none).
    """
    g = gcd(n, *(s.k for s in species))
    cycles: list[tuple[int, ...]] = []
    weights: list[float] = []
    for s, stream in zip(species, streams):
        tuples = _chop_regular(n, s.d, s.k, g, stream, _MAX_SWAPS_PER_NODE * n)
        cycles.extend(map(tuple, tuples))
        weights.extend([s.weight] * len(tuples))
    return SparseDigraph(n, cycles, weights)


def generate_regular_cyclic(spec: RegularCyclicSpec, seed: int) -> SparseDigraph:
    """Digraph in which every node belongs to exactly ``d`` k-cycles: one species."""
    return _species_graph(spec.n, [spec], [Stream.derived(seed, TAG_GRAPH, 1)])


def generate_poisson_cyclic(spec: PoissonCyclicSpec, seed: int) -> SparseDigraph:
    """Digraph whose cycle memberships per node are asymptotically Poisson.

    Unlike the regular ensemble, phase stratification here never needs the
    class sizes to match exactly, so it is applied for every k > 1.
    """
    stream = Stream.derived(seed, TAG_GRAPH, 2)
    c = spec.cycle_count
    cycles: list[tuple[int, ...]] = []
    if spec.stratified:
        classes = [list(range(j, spec.n, spec.k)) for j in range(spec.k)]
        for _ in range(c):
            cycles.append(tuple(cls[stream.below(len(cls))] for cls in classes))
    else:
        for _ in range(c):
            cycles.append(tuple(stream.sample_distinct(spec.n, spec.k)))
    return SparseDigraph(spec.n, cycles, [spec.weight] * c)


def generate_mixed_cyclic(spec: MixedCyclicSpec, seed: int) -> SparseDigraph:
    """Digraph carrying two cycle species; a species with d = 0 is omitted."""
    active = [s for s in spec.species if s.d > 0]
    if not active:
        raise InvalidSpecError("at least one species must have d >= 1")
    streams = [Stream.derived(seed, TAG_GRAPH, 3, idx) for idx in range(len(active))]
    return _species_graph(spec.n, active, streams)
