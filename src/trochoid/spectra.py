"""Eigenvalue computation and quantitative checks against boundary laws."""

from __future__ import annotations

import importlib.machinery
import importlib.util
import sys
import threading
from dataclasses import dataclass, field
from functools import reduce
from pathlib import Path

import numpy as np

# adjacency_matrix is called through its module, so a wrapper swapped in
# there at run time also sees the dense fallback build
from . import ensembles
from .boundaries import BoundaryCurve
from .ensembles import DenseMatrix, SparseDigraph
from .errors import EigensolverError, InvalidSpecError
from .geometry import contains, distance_to_polygon, inflate

EIG_MAX_N = 4000
SYMMETRY_MAX_N = 2000  # the assignment residual costs O(n^3)


@dataclass
class Spectrum:
    """Eigenvalues of one generated matrix."""

    eigenvalues: np.ndarray

    @property
    def n(self) -> int:
        return len(self.eigenvalues)


@dataclass
class ContainmentReport:
    """How much of a spectrum a (possibly inflated) boundary curve contains."""

    total: int
    inside: int
    outside: int
    excluded_outliers: list[complex] = field(default_factory=list)
    worst_violation: float = 0.0

    @property
    def inside_fraction(self) -> float:
        counted = self.total - len(self.excluded_outliers)
        return self.inside / counted if counted else 1.0

    def to_dict(self) -> dict:
        return {
            "total": self.total,
            "inside": self.inside,
            "outside": self.outside,
            "excluded_outliers": [[z.real, z.imag] for z in self.excluded_outliers],
            "worst_violation": self.worst_violation,
        }


def compute_eigenvalues(m: DenseMatrix) -> Spectrum:
    """Full nonsymmetric eigendecomposition (LAPACK Hessenberg + shifted QR).

    Validates the trace identity sum(eigenvalues) == trace within 1e-6 * n.
    Refuses matrices larger than ``EIG_MAX_N``.
    """
    if m.n > EIG_MAX_N:
        raise InvalidSpecError(f"matrix dimension {m.n} exceeds eigensolver cap {EIG_MAX_N}")
    return _checked(_eigvals(m.entries), np.trace(m.entries))


def _eigvals(a: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.eigvals(a)
    except np.linalg.LinAlgError as exc:
        raise EigensolverError(f"eigensolver did not converge for n={len(a)}: {exc}") from exc


def _checked(ev: np.ndarray, trace: float) -> Spectrum:
    """The spectrum ``ev``, once its sum matches ``trace`` within 1e-6 * n."""
    trace_gap = abs(ev.sum() - trace)
    if trace_gap > 1e-6 * len(ev):
        raise EigensolverError(
            f"trace identity violated: |sum(eig) - trace| = {trace_gap:.3e} for n={len(ev)}"
        )
    return Spectrum(eigenvalues=ev)


def phase_certificate(g: SparseDigraph) -> np.ndarray | None:
    """Node phases theta with theta(v) == theta(u) + 1 (mod p) on every edge.

    p is the gcd of the recorded cycle lengths.  When such a potential
    exists, D A D^-1 = exp(2*pi*i/p) A holds exactly for D = diag of phase
    rotations, so the adjacency spectrum is exactly p-fold rotation
    symmetric.  Returns the phase array, or None when p < 2 or no
    consistent assignment exists.

    Each weakly connected component gets phase 0 at its lowest node, found
    by min-label propagation with pointer jumping.  One breadth-first search
    then runs from all of those nodes at once: a step along an edge adds 1
    and a step against one adds p - 1 (that is, -1 mod p).  If a potential
    exists, every path sums to the potential difference mod p, so the first
    path found gives the phase any other would; a final check over all edges
    rejects the graphs that have none.
    """
    p = g.cycle_length_gcd()
    if p < 2:
        return None
    # both directions of every edge, grouped by the node they leave
    src, dst = g.edges.T
    by_tail = np.argsort(np.concatenate([src, dst]))
    tails, heads = np.concatenate([src, dst])[by_tail], np.concatenate([dst, src])[by_tail]
    label, previous = np.arange(g.n), None
    while not np.array_equal(label, previous):
        previous, label = label, label.copy()
        np.minimum.at(label, previous[tails], previous[heads])
        label = label[label]
    starts, seen = np.searchsorted(tails, np.arange(g.n + 1)), np.empty(g.n, dtype=np.int64)
    phase = np.where(label == np.arange(g.n), 0, -1)
    frontier = np.flatnonzero(phase == 0)
    while frontier.size:
        each = starts[frontier + 1] - starts[frontier]
        at = np.repeat(starts[frontier] - (np.cumsum(each) - each), each) + np.arange(each.sum())
        at = at[phase[heads[at]] < 0]
        phase[heads[at]] = (phase[tails[at]] + np.where(by_tail[at] < len(src), 1, p - 1)) % p
        seen[heads[at]] = np.arange(at.size)  # one place of each node reached, to list it once
        frontier = heads[at][seen[heads[at]] == np.arange(at.size)]
    return phase if np.array_equal(phase[dst], (phase[src] + 1) % p) else None


def digraph_spectrum(g: SparseDigraph) -> Spectrum:
    """Adjacency eigenvalues, exploiting exact phase structure when present.

    With a phase certificate of order p, the permuted adjacency is block
    cyclic and its spectrum consists of the p-th roots of the spectrum of
    the product of the blocks (plus exact zeros when classes are unequal).
    Computing it that way keeps the multiset exactly rotation symmetric,
    which a direct dense solve cannot guarantee: defective zero clusters
    scatter into m-gons at the u^(1/m) scale and drown the symmetry signal.
    Each block is filled from the edges that leave its class; only graphs
    without a certificate build the dense matrix, for the dense solver.
    """
    phase = phase_certificate(g)
    p = g.cycle_length_gcd()
    sizes = None if phase is None else np.bincount(phase, minlength=p)
    if sizes is None or sizes.min() == 0:
        return compute_eigenvalues(ensembles.adjacency_matrix(g))
    start = int(np.argmin(sizes))
    # a node's place among its class's nodes, in node order: its rank by class less its class's start
    place = np.argsort(np.argsort(phase, kind="stable")) - (np.cumsum(sizes) - sizes)[phase]
    # block a maps class a to the next one, and all p are views of one array
    widths = np.roll(sizes, -1)
    offsets = np.concatenate(([0], np.cumsum(sizes * widths)))
    entries = np.zeros(offsets[-1])
    src, dst = g.edges[:, 0], g.edges[:, 1]
    entries[offsets[phase[src]] + place[src] * widths[phase[src]] + place[dst]] = g.edge_weights
    # multiplied left to right from class start
    blocks = [entries[offsets[a]:offsets[a + 1]].reshape(sizes[a], widths[a]) for a in (start + np.arange(p)) % p]
    product = reduce(np.matmul, blocks)
    roots = _eigvals(product).astype(complex) ** (1.0 / p)
    rotations = np.exp(2j * np.pi * np.arange(p) / p)
    ev = (roots[:, None] * rotations[None, :]).ravel()
    ev = np.concatenate([ev, np.zeros(g.n - ev.size, dtype=complex)])
    return _checked(ev, 0.0)  # phase structure forbids self-loops, so the trace is 0


def detect_deterministic_outliers(
    s: Spectrum, draw: DenseMatrix | SparseDigraph | None
) -> list[complex]:
    """Eigenvalues forced by constant row sums of the digraph ``draw``.

    A digraph whose rows all sum to r has the all-ones right eigenvector with
    eigenvalue r; when every recorded cycle length shares a divisor p, the
    spectrum is p-fold rotation symmetric, replicating that eigenvalue at
    r * exp(2*pi*i*j/p).  Returns the matched eigenvalues (within 1e-6), or
    an empty list when row sums are not constant, are 0 (an eigenvalue 0 is
    not set apart from the bulk), or ``draw`` is not a digraph.
    """
    if not isinstance(draw, SparseDigraph):
        return []
    sums = draw.row_sums()
    tolerance = 1e-9 * max(1.0, np.abs(sums).max(initial=0.0))
    if sums.size == 0 or np.ptp(sums) > tolerance or abs(sums[0]) <= tolerance:
        return []
    r = sums[0]
    p = max(draw.cycle_length_gcd(), 1)
    found: list[complex] = []
    taken: set[int] = set()
    for j in range(p):
        target = r * np.exp(2j * np.pi * j / p)
        dist = np.abs(s.eigenvalues - target)
        for idx in np.argsort(dist):
            if idx not in taken:
                break
        if dist[idx] < 1e-6:
            taken.add(int(idx))
            found.append(complex(s.eigenvalues[idx]))
    return found


def containment(
    s: Spectrum,
    curve: BoundaryCurve,
    inflation: float = 0.0,
    exclusions: list[complex] | None = None,
) -> ContainmentReport:
    """Count eigenvalues inside the curve scaled by (1 + inflation).

    Membership uses the nonzero winding rule, so curves that self-intersect
    past their cusp threshold still define a region.  ``exclusions`` are
    removed from the census before counting; ``worst_violation`` is the
    largest distance from an outside point to the inflated curve, in units
    of the curve's mean radius.
    """
    if s.n == 0:
        raise InvalidSpecError("cannot test an empty spectrum")
    if inflation < 0:
        raise InvalidSpecError(f"inflation must be >= 0, got {inflation}")
    ev = list(s.eigenvalues)
    excluded: list[complex] = []
    for target in exclusions or []:
        dist = [abs(e - target) for e in ev]
        idx = int(np.argmin(dist))
        if dist[idx] < 1e-6:
            excluded.append(complex(ev.pop(idx)))
    points = np.array(ev, dtype=complex)
    poly = inflate(curve.polygon(), inflation)
    if points.size:
        mask = contains(points, poly)
        inside = int(mask.sum())
        outside_pts = points[~mask]
    else:
        inside, outside_pts = 0, points
    worst = 0.0
    if outside_pts.size:
        worst = float(distance_to_polygon(outside_pts, poly).max() / curve.mean_radius())
    return ContainmentReport(
        total=s.n,
        inside=inside,
        outside=len(ev) - inside,
        excluded_outliers=excluded,
        worst_violation=worst,
    )


def rotation_symmetry_residual(s: Spectrum, k: int) -> float:
    """Assignment distance between the spectrum and its rotation by 2*pi/k.

    Minimal-cost bipartite matching between {lambda} and {exp(2*pi*i/k) *
    lambda}, total cost normalized by the eigenvalue count.  Zero (to solver
    noise) exactly when the multiset is rotation invariant.
    """
    if k < 2:
        raise InvalidSpecError(f"rotation order must be >= 2, got {k}")
    if s.n > SYMMETRY_MAX_N:
        raise InvalidSpecError(f"assignment cost grows as n^3; refusing n={s.n} > {SYMMETRY_MAX_N}")
    ev = s.eigenvalues
    rotated = ev * np.exp(2j * np.pi / k)
    cost = np.abs(ev[:, None] - rotated[None, :])
    rows, cols = _assignment_solver()(cost)
    return float(cost[rows, cols].sum() / s.n)


_solver = None  # scipy's linear_sum_assignment, once loaded
_solver_lock = threading.Lock()  # seed workers may ask for it at the same moment


def _assignment_solver():
    """scipy's compiled ``linear_sum_assignment``, loaded once per process.

    ``import scipy.optimize`` takes about 0.5 s and 49 MB (scipy 1.17 on a
    2-core x86-64 box), because the package's ``__init__`` also loads
    scipy.linalg, the linear programs, the global optimizers and scipy.fft.
    The solver itself is one extension module, ``scipy/optimize/_lsap``,
    which needs only numpy: it is loaded from its file, under its own name,
    so a later ``import scipy.optimize`` re-exports this very object.  When
    scipy.optimize is already loaded, or no such file exists (a scipy that
    lays the solver out otherwise), the package import gives the same
    routine.
    """
    global _solver
    with _solver_lock:
        if _solver is None:
            path = None if "scipy.optimize" in sys.modules else _solver_file()
            if path is None:
                from scipy.optimize import linear_sum_assignment
            else:
                spec = importlib.util.spec_from_file_location("scipy.optimize._lsap", path)
                module = importlib.util.module_from_spec(spec)
                spec.loader.exec_module(module)
                linear_sum_assignment = module.linear_sum_assignment
            _solver = linear_sum_assignment
        return _solver


def _solver_file() -> Path | None:
    """The solver's extension file, found without importing any of scipy."""
    scipy = importlib.util.find_spec("scipy")  # a top-level spec: no package code runs
    for root in scipy.submodule_search_locations:
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = Path(root, "optimize", f"_lsap{suffix}")
            if path.is_file():
                return path
    return None
