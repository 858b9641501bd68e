"""Inducing cyclic correlations of a chosen order in a dense random matrix.

The generator sweeps nodes in index order.  At node v it looks at every
in-edge (b -> v) from earlier nodes, forms the aggregate weight of all
length-k cycles that close through that edge using only earlier nodes, and
flips the edge's sign with probability p whenever the aggregate has the
unwanted sign.  Only signs ever change: |output| == |input| entrywise.

The cycle aggregate for edge (b -> v) is

    w(b) = sum_a M[v, a] * P[a, b] * M[b, v]

where P is the k-2 step path-weight matrix of the leading v x v block,
built by the recursion P_1 = S, P_j = S @ P_(j-1) with the diagonal zeroed
after each product (discarding walks that return to their origin).

``induce_cyclic_correlations`` never materializes P.  Because a sweep step
only modifies column v, the leading block S only ever grows at its border,
so the diagonals of its powers can be maintained incrementally; row-times-P
products then unroll into matrix-vector chains.  O(k) matvecs per node.

The sweep also accumulates Tr M^k.  When node v joins the block,

    Tr S'^k - Tr S^k = k * [x^k] -log(1 - F(x)),
    F(x) = M[v, v] x + sum_(l=2..k) (row @ S^(l-2) @ c) x^l,

because det(I - x S') = det(I - x S) (1 - F(x)), with c the (flipped)
column v; the coefficients of F are dot products of the vectors the step
has already formed.  The result travels as ``DenseMatrix.power_trace``, so
the strength Tr M^k / n of a swept draw costs no matrix products.  A draw
at p = 0 is not swept and carries no trace.

The sweep consumes one independent random stream per edge, keyed by the
edge alone, so a flip decision never depends on the sweep order or on n.
The streams are read as one table per draw (``edge_flip_uniforms``), built
before the sweep whenever p < 1 unless the caller passes the one it holds
(``flip_uniforms``; calibration sweeps each base at several p).  The tests
check the sweep against a from-scratch reference that rebuilds P at every
node and draws each node's streams on its own; outputs match bit-for-bit
whenever the aggregate signs do (ties at |w| ~ 1e-16 are the only way they
can diverge).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ensembles import DenseMatrix, generate_base_iid
from .errors import InvalidSpecError
from .rng import edge_flip_uniforms, normalize_seed


@dataclass(frozen=True)
class DenseCyclicSpec:
    """Parameters for the dense cyclic-correlation generator."""

    n: int
    k: int
    flip_prob: float
    sign: int = 1

    def __post_init__(self):
        if self.k < 3:
            raise InvalidSpecError(f"correlation order must be >= 3, got {self.k}")
        if self.k >= self.n:
            raise InvalidSpecError(f"order k={self.k} must be below dimension n={self.n}")
        if not 0.0 <= self.flip_prob <= 1.0:
            raise InvalidSpecError(f"flip probability must be in [0, 1], got {self.flip_prob}")
        if self.sign not in (-1, 1):
            raise InvalidSpecError(f"target sign must be +1 or -1, got {self.sign}")


def _apply_flips(
    m: np.ndarray, v: int, w: np.ndarray, spec: DenseCyclicSpec, uniforms: list | None
) -> None:
    """Flip, each with probability p, the in-edges of v whose cycles have the
    unwanted sign; ``uniforms`` is the flip-uniform table, or None at p = 1."""
    flips = spec.sign * w < 0
    if uniforms is not None:
        flips &= uniforms[v] < spec.flip_prob
    m[:v, v][flips] *= -1.0


def _power_diagonals(s: np.ndarray, max_power: int) -> list[np.ndarray]:
    """diag(S^m) for m = 2..max_power, computed directly (startup block only)."""
    out = []
    p = s
    for _ in range(2, max_power + 1):
        p = p @ s
        out.append(np.diag(p).copy())
    return out


def _trace_growth(f: list[float]) -> float:
    """k * [x^k] -log(1 - F(x)) for F(x) = sum_j f[j-1] x^j, k = len(f).

    The coefficients g_j of -log(1 - F) satisfy j g_j = j f_j +
    sum_(i<j) (j - i) f_i g_(j-i), from differentiating log(1 - F).
    """
    g: list[float] = []
    for j in range(1, len(f) + 1):
        acc = 0.0
        for i in range(1, j):
            acc += (j - i) * f[i - 1] * g[j - i - 1]
        g.append(f[j - 1] + acc / j)
    return len(f) * g[-1]


def _induce_fast(
    m: np.ndarray, spec: DenseCyclicSpec, seed: int, uniforms: list | None
) -> tuple[np.ndarray, float]:
    """Sweep ``m`` in place; returns it with its Tr M^k."""
    k = spec.k
    n = m.shape[0]
    v0 = k - 1
    trace = float(np.trace(np.linalg.matrix_power(m[:v0, :v0], k)))
    if spec.flip_prob == 1.0:
        uniforms = None
    elif uniforms is None:
        uniforms = edge_flip_uniforms(seed, n)
    # q[m-2] holds diag(S^m), m = 2..k-2, padded out to full length n
    top = k - 2
    q = [np.empty(n) for _ in range(max(top - 1, 0))]
    for i, d in enumerate(_power_diagonals(m[:v0, :v0], top)):
        q[i][:v0] = d

    for v in range(v0, n):
        s = m[:v, :v]
        row = m[v, :v]

        # r[a] = row @ S^a
        r = [row]
        for _ in range(k - 2):
            r.append(r[-1] @ s)

        # delta_j = diag stripped at recursion level j, from power diagonals:
        # delta_j = q_j - sum_{i=2}^{j-1} q_(j-i) * delta_i, with q_1 = diag(S)
        diag_s = np.diagonal(s)
        delta: dict[int, np.ndarray] = {}
        for j in range(2, top + 1):
            acc = q[j - 2][:v].copy()
            for i in range(2, j):
                qprev = diag_s if j - i == 1 else q[j - i - 2][:v]
                acc -= qprev * delta[i]
            delta[j] = acc

        # u = row @ P_(k-2)  unrolled through the recursion
        u = r[k - 2].copy()
        for i in range(2, top + 1):
            u -= r[k - 2 - i] * delta[i]

        w = u * m[:v, v]
        _apply_flips(m, v, w, spec, uniforms)
        c = m[:v, v].copy()
        d = m[v, v]
        # F's coefficients: the walks v -> ... -> v of length 1..k
        trace += _trace_growth([float(d), *(np.array(r) @ c).tolist()])

        if v + 1 == n:
            break

        # Grow the maintained diagonals for the bordered block
        #   S' = [[S, c], [row, d]]  with c the (possibly flipped) column.
        sc = [c]  # sc[a] = S^a @ c
        for _ in range(max(top - 2, 0)):
            sc.append(s @ sc[-1])
        bl = [row]  # bl[i-1] = bottom row of S'^i restricted to old columns
        tr = [c]  # tr[i-1] = right column of S'^i restricted to old rows
        br = [d]  # br[i-1] = bottom-right scalar of S'^i
        for mm in range(2, top + 1):
            rd = sum((r[mm - 2 - i] @ c) * bl[i - 1] for i in range(1, mm - 1))
            bl_m = r[mm - 1] + (rd if mm > 2 else 0.0) + d * bl[mm - 2]
            br_m = row @ tr[mm - 2] + d * br[mm - 2]
            if mm < top:  # the last level's right column is never read
                # tr[0] is c, so S @ tr[0] is sc[1], already computed
                s_tr = sc[1] if mm == 2 else s @ tr[mm - 2]
                tr.append(s_tr + br[mm - 2] * c)
            grow = sum(sc[mm - 1 - i] * bl[i - 1] for i in range(1, mm))
            q[mm - 2][:v] += grow
            q[mm - 2][v] = br_m
            bl.append(bl_m)
            br.append(br_m)
    return m, trace


def flip_uniforms(seed: int, n: int) -> list[np.ndarray]:
    """The flip-uniform table that every sweep of an n x n draw of ``seed`` reads."""
    return edge_flip_uniforms(normalize_seed(seed), n)


def induce_cyclic_correlations(
    m: DenseMatrix, spec: DenseCyclicSpec, seed: int, uniforms: list | None = None
) -> DenseMatrix:
    """Return a copy of ``m`` with order-k cyclic correlations induced.

    The copy carries the Tr M^k the sweep accumulated as its ``power_trace``.
    At flip probability 0 no sign can change, so the copy is returned unswept
    and without one.  ``uniforms`` is ``flip_uniforms(seed, m.n)`` when the
    caller already holds it.
    """
    if m.n != spec.n:
        raise InvalidSpecError(f"matrix dimension {m.n} does not match spec n={spec.n}")
    seed = normalize_seed(seed)
    if spec.flip_prob == 0.0:
        return m.copy()
    entries, trace = _induce_fast(m.entries.copy(), spec, seed, uniforms)
    return DenseMatrix(entries, power_trace=(spec.k, trace))


def generate_dense_cyclic(
    spec: DenseCyclicSpec,
    seed: int,
    base: DenseMatrix | None = None,
    uniforms: list | None = None,
) -> DenseMatrix:
    """Gaussian base matrix with order-k cyclic correlations induced.

    ``base`` is ``generate_base_iid(spec.n, seed)`` and ``uniforms`` is
    ``flip_uniforms(seed, spec.n)`` when the caller already holds them
    (calibration sweeps one base at several p); neither is modified.
    """
    seed = normalize_seed(seed)
    if base is None:
        base = generate_base_iid(spec.n, seed)
    return induce_cyclic_correlations(base, spec, seed, uniforms)
