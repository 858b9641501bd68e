"""Trace moments: empirical measurement and combinatorial predictions.

``fuss_catalan_prediction`` and ``tree_walk_prediction`` evaluate binomial
formulas in exact rational arithmetic before converting to float, so they
stay trustworthy for orders far past where naive floats would degrade.

The empirical moments multiply a digraph as its sparse adjacency and a dense
draw as its entries; a sign-flip sweep's draw brings its own Tr M^k.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

import numpy as np

from .ensembles import DenseMatrix, SparseDigraph
from .errors import InvalidSpecError
from .spectra import Spectrum


def empirical_pure_moment(spectrum: Spectrum, k: int) -> float:
    """Tr M^k / n from the eigenvalues of a Spectrum.

    For real matrices the imaginary part cancels to rounding noise; it is
    checked and discarded.
    """
    if k < 1:
        raise InvalidSpecError(f"moment order must be >= 1, got {k}")
    ev = spectrum.eigenvalues
    total = np.sum(ev**k) / len(ev)
    if abs(total.imag) > 1e-8 * max(1.0, abs(total.real)):
        raise InvalidSpecError(
            f"pure moment has non-negligible imaginary part {total.imag:.3e}"
        )
    return float(total.real)


def empirical_mixed_moment(m: DenseMatrix | SparseDigraph, l: int) -> float:
    """Tr (M M^T)^l / n by repeated symmetric multiplication.

    A digraph is multiplied as its sparse adjacency A: Tr A A^T adds each
    row's squared weights in edge order, Tr (A A^T)^2 sums the squared
    entries of A A^T (which is symmetric bit for bit), and higher orders
    multiply A A^T.
    """
    if l < 1:
        raise InvalidSpecError(f"moment order must be >= 1, got {l}")
    if isinstance(m, DenseMatrix):
        return _power_trace(m.entries @ m.entries.T, l, m.n)
    if l == 1:
        return float(np.bincount(m.edges[:, 0], weights=m.edge_weights**2, minlength=m.n).sum() / m.n)
    order = np.argsort(m.edges[:, 1], kind="stable")  # A^T's entries by row, then column
    gram = _product((*m.edges.T, m.edge_weights), (*m.edges[order, ::-1].T, m.edge_weights[order]), m.n, l > 2)
    squares = gram[2] ** 2  # by row, then column: at l = 2 the mirror sum's terms, with no lookup
    return float(squares[squares != 0].sum() / m.n) if l == 2 else _sparse_power_trace(gram, l, m.n)


def trace_power_moment(m: DenseMatrix | SparseDigraph, k: int) -> float:
    """Tr M^k / n by direct matrix powers; cheaper than an eigensolve.

    A dense matrix that carries Tr M^k as its ``power_trace`` (a sign-flip
    sweep of order k) returns that instead.  A digraph is multiplied as its
    sparse adjacency.
    """
    if k < 1:
        raise InvalidSpecError(f"moment order must be >= 1, got {k}")
    if isinstance(m, SparseDigraph):
        return _sparse_power_trace((*m.edges.T, m.edge_weights), k, m.n)
    if m.power_trace is not None and m.power_trace[0] == k:
        return float(m.power_trace[1] / m.n)
    return _power_trace(m.entries, k, m.n)


def _power_trace(base: np.ndarray, k: int, n: int) -> float:
    """Tr base^k / n by the full product chain, which keeps the bits of the calibration moment."""
    power = base
    for _ in range(k - 1):
        power = power @ base
    return float(power.diagonal().sum() / n)


# The sparse products below hold an n x n matrix as (rows, cols, data): its
# entries row by row, each with its row and column.  They form every entry
# and every sum as scipy's CSR arrays do, term by term and in the same order,
# so a moment keeps its bits whatever the weights.  Their work grows with
# the entries and terms, not with n: a product takes whole rows in blocks of
# about _BLOCK terms and finds a block's entries in a table over its rows
# when the table has at most _DENSE slots per term, else by sorting keys.
_BLOCK = 1 << 18
_DENSE = 8


def _sparse_power_trace(base, k: int, n: int) -> float:
    """Tr base^k / n, meeting in the middle.

    With H = base^floor(k/2) and B = base^ceil(k/2), Tr base^k is the sum of
    B_ij H_ji.  Powers of a sparse cycle graph fill in as they grow (at
    fig4's n = 996, A^5 has 992k nonzeros where A^3 has 397k), so stopping
    at half the order saves the densest products; for k <= 3 the operations
    are those of the chain that stops one product early.
    """
    if k == 1:
        loops = base[0] == base[1]
        return float(np.bincount(base[0][loops], weights=base[2][loops], minlength=n).sum() / n)
    half = base
    for i in range(k // 2 - 1):  # only a power multiplied again needs scipy's storage order
        half = _product(half, base, n, ordered=k % 2 == 1 or i < k // 2 - 2)
    rest = _product(half, base, n, ordered=False) if k % 2 else half
    # B_ij H_ji over B's entries, which are by row, then column: the nonzero
    # ones in this order are what scipy sums for B.multiply(H.T).  H, put in
    # order of column, then row, finds its mirror entries of B in B's order.
    order = np.sort(half[1] * half[1].size + np.arange(half[1].size)) % half[1].size  # H by column, then row
    keys, mirrored = np.append(rest[0] * n + rest[1], n * n), half[1][order] * n + half[0][order]
    at = np.searchsorted(keys, mirrored)  # n * n stands after B's last entry
    found = keys[at] == mirrored
    terms = rest[2][at[found]] * half[2][order[found]]
    return float(terms[terms != 0].sum() / n)


def _product(x, y, n: int, ordered: bool):
    """x @ y as scipy's ``csr_matmat`` forms it.

    Entry (i, k) adds the terms x_ij y_jk to 0 in the order of x's row i; an
    entry that sums to exactly 0 is dropped.  ``ordered`` lists each row's
    entries in reverse order of their first term, as scipy stores them, for
    a product that is multiplied again; otherwise by column, which is cheaper.
    """
    starts = np.searchsorted(y[0], np.arange(n + 1))  # where each row of y starts
    lengths = np.diff(starts)[x[1]]  # the terms each entry of x starts
    before = np.cumsum(lengths) - lengths  # the terms before each entry of x
    # a block starts at the first entry of each row that holds a term numbered a multiple of _BLOCK
    holders = np.searchsorted(before, np.arange(0, lengths.sum(), _BLOCK), "right") - 1
    cuts = np.unique(np.searchsorted(x[0], x[0][holders]))
    parts = [(x[0][:0], x[1][:0], x[2][:0])]
    for e0, e1 in zip(cuts, [*cuts[1:], x[0].size]):
        each = lengths[e0:e1]
        at_y = np.repeat(starts[x[1][e0:e1]] - (before[e0:e1] - before[e0]), each) + np.arange(each.sum())
        r0 = x[0][e0]
        key = np.repeat(x[0][e0:e1] - r0, each) * n + y[1][at_y]  # row in the block, column
        if (x[0][e1 - 1] - r0 + 1) * n <= _DENSE * key.size:
            present = np.bincount(key) > 0
            keys, entry = np.flatnonzero(present), (np.cumsum(present) - 1)[key]
        else:
            keys, entry = np.unique(key, return_inverse=True)
        sums = np.bincount(entry, weights=np.repeat(x[2][e0:e1], each) * y[2][at_y], minlength=keys.size)
        kept = np.flatnonzero(sums != 0)  # by row, then column
        if ordered:  # each row in reverse order of first term
            first = np.full(keys.size, entry.size)
            np.minimum.at(first, entry, np.arange(entry.size))
            kept = kept[np.argsort(keys[kept] // n * (entry.size + 1) - first[kept])]
        parts.append((keys[kept] // n + r0, keys[kept] % n, sums[kept]))
    return tuple(np.concatenate(part) for part in zip(*parts))


def fuss_catalan_prediction(l: int, rho3: float) -> float:
    """Predicted Tr M^(3l) / n for order-3 correlations of strength rho3.

    Exact rational evaluation of C(3l, l) / (2l + 1) times rho3^l.
    """
    if l < 1:
        raise InvalidSpecError(f"order must be >= 1, got {l}")
    coeff = Fraction(comb(3 * l, l), 2 * l + 1)
    return float(coeff) * rho3**l


def mixed_moment_candidates(l: int) -> dict[str, float]:
    """Candidate limits for Tr (M M^T)^l / n of an uncorrelated ensemble.

    Two normalizations circulate for the leading coefficient; both are
    reported so measurements can adjudicate.  The 'catalan' reading
    C(2l, l)/(l+1) gives 1 at l = 1, consistent with the definitional value
    sum |M_ij|^2 / n at variance 1/n; the 'alternate' reading C(2l, l)/l
    gives 2 there.
    """
    if l < 1:
        raise InvalidSpecError(f"order must be >= 1, got {l}")
    return {
        "catalan": float(Fraction(comb(2 * l, l), l + 1)),
        "alternate": float(Fraction(comb(2 * l, l), l)),
    }


def tree_walk_prediction(m_kind: int, l: int, d: float, d_hat: float) -> float:
    """Closed-walk count formula (d/l) * sum_j C(ml, j) (l-j) (d_hat - 1)^j.

    ``d`` and ``d_hat`` are deliberately independent arguments; the formula
    counts closed walks on the cycle tree exactly when both equal the
    per-node cycle count (the tests check it against a walk enumeration).
    """
    if m_kind not in (2, 3):
        raise InvalidSpecError(f"m_kind must be 2 or 3, got {m_kind}")
    if l < 1:
        raise InvalidSpecError(f"order must be >= 1, got {l}")
    acc = Fraction(0)
    dh = Fraction(d_hat)
    for j in range(l):
        acc += comb(m_kind * l, j) * (l - j) * (dh - 1) ** j
    return float(Fraction(d) / l * acc)
