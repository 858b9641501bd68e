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

``induce_cyclic_correlations`` never materializes P: row-times-P products
unroll into matrix-vector chains once the diagonals diag(S^m), m = 2..k-2,
of the leading block are known.  A sweep step only modifies column v, so
the block only ever grows at its border, S' = [[S, c], [row, d]], with c
the (flipped) column v and d = M[v, v].  The walks that leave v and first
come back to it have the generating function

    F(x) = d x + sum_(l=2..k) (row @ S^(l-2) @ c) x^l,

whose coefficients are dot products of the vectors the step has already
formed.  The walks from v back to v are the return series
H(x) = 1 / (1 - F(x)), so diag(S'^m)[v] = h_m = [x^m] H, and every older
node gains the walks that pass through v:

    diag(S'^m)[:v] += sum_(a+b+l=m-2) h_l * (S^a @ c) * (row @ S^b).

O(k) matvecs per node.  The bookkeeping runs from v = 0: no k-cycle closes
through fewer than k nodes, so the first k - 1 nodes only join the block
and flips start at v = k - 1.

The sweep also accumulates Tr M^k from the same return series.  When node
v joins the block, with F(x) = sum_j f_j x^j,

    Tr S'^k - Tr S^k = k * [x^k] -log(1 - F(x)) = [x^(k-1)] F'(x) H(x)
                     = sum_(j=1..k) j * f_j * h_(k-j),

because det(I - x S') = det(I - x S) (1 - F(x)) and the derivative of
-log(1 - F) is F' H.  So h runs to degree k - 1, one term past what the
diagonals need, and the trace costs k multiply-adds per node.  The result
travels as ``DenseMatrix.power_trace``, so the strength Tr M^k / n of a
swept draw costs no matrix products.  A draw at p = 0 is not swept and
carries no trace.

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


def _induce_fast(
    m: np.ndarray, spec: DenseCyclicSpec, seed: int, uniforms: list | None
) -> tuple[np.ndarray, float]:
    """Sweep ``m`` in place; returns it with its Tr M^k."""
    k = spec.k
    n = m.shape[0]
    if spec.flip_prob == 1.0:
        uniforms = None
    elif uniforms is None:
        uniforms = edge_flip_uniforms(seed, n)
    # q[m-2] holds diag(S^m), m = 2..k-2, padded out to full length n
    top = k - 2
    q = [np.zeros(n) for _ in range(top - 1)]
    trace = 0.0

    for v in range(n):
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
        if v >= k - 1:  # no k-cycle closes through fewer than k nodes
            # flip, each with probability p, the in-edges of v whose cycles
            # have the unwanted sign (no uniforms are read at p = 1)
            flips = spec.sign * w < 0
            if uniforms is not None:
                flips &= uniforms[v] < spec.flip_prob
            m[:v, v][flips] *= -1.0
        c = m[:v, v]
        # F's coefficients f[l-1]: the walks v -> ... -> v of length l = 1..k
        # that visit v only at their ends
        f = [float(m[v, v]), *(np.array(r) @ c).tolist()]
        # The return series h[l] = [x^l] 1 / (1 - F(x)), l = 0..k-1, grows
        # the trace by [x^(k-1)] F'(x) H(x) and the diagonals as below
        h = [1.0]
        for l in range(1, k):
            h.append(sum(f[i - 1] * h[l - i] for i in range(1, l + 1)))
        trace += sum(j * f[j - 1] * h[k - j] for j in range(1, k + 1))

        # out[j] = sum_(l+b=j) h[l] * r[b]: the walks of length j + 1 from v
        # to each older node
        out = [sum(h[l] * r[j - l] for l in range(j + 1)) for j in range(top - 1)]
        sc = [c]  # sc[a] = S^a @ c
        for _ in range(top - 2):
            sc.append(s @ sc[-1])
        for mm in range(2, top + 1):
            q[mm - 2][:v] += sum(sc[a] * out[mm - 2 - a] for a in range(mm - 1))
            q[mm - 2][v] = h[mm]
    return m, trace


def flip_uniforms(seed: int, n: int) -> list[np.ndarray]:
    """The flip-uniform table that every sweep of an n x n draw of ``seed`` reads."""
    return edge_flip_uniforms(seed, n)


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
    if base is None:
        base = generate_base_iid(spec.n, seed)
    return induce_cyclic_correlations(base, spec, seed, uniforms)
