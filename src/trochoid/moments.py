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

    A digraph is multiplied as its sparse adjacency.
    """
    if l < 1:
        raise InvalidSpecError(f"moment order must be >= 1, got {l}")
    a = _operand(m)
    return _power_trace(a @ a.T, l, m.n)


def trace_power_moment(m: DenseMatrix | SparseDigraph, k: int) -> float:
    """Tr M^k / n by direct matrix powers; cheaper than an eigensolve.

    A dense matrix that carries Tr M^k as its ``power_trace`` (a sign-flip
    sweep of order k) returns that instead.  A digraph is multiplied as its
    sparse adjacency.
    """
    if k < 1:
        raise InvalidSpecError(f"moment order must be >= 1, got {k}")
    if isinstance(m, DenseMatrix) and m.power_trace is not None and m.power_trace[0] == k:
        return float(m.power_trace[1] / m.n)
    return _power_trace(_operand(m), k, m.n)


def _operand(m: DenseMatrix | SparseDigraph):
    return m.sparse_adjacency if isinstance(m, SparseDigraph) else m.entries


def _power_trace(base, k: int, n: int) -> float:
    """Tr base^k / n for a dense or a sparse square array.

    A dense input forms the full product chain, which keeps the bits of the
    calibration moment.  A sparse input meets in the middle: with
    H = base^floor(k/2) and B = base^ceil(k/2), Tr base^k = sum(B * H^T)
    entrywise.  Powers of a sparse cycle graph fill in as they grow, so
    stopping at half the order saves the densest products; for k <= 3 the
    operations are those of the chain that stops one product early.
    """
    if isinstance(base, np.ndarray) or k == 1:
        power = base
        for _ in range(k - 1):
            power = power @ base
        return float(power.diagonal().sum() / n)
    half = base
    for _ in range(k // 2 - 1):
        half = half @ base
    rest = half @ base if k % 2 else half
    return float(rest.multiply(half.T).sum() / n)


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
