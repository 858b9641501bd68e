"""Trace moments: empirical measurement and combinatorial predictions.

``fuss_catalan_prediction`` and ``tree_walk_prediction`` evaluate binomial
formulas in exact rational arithmetic before converting to float, so they
stay trustworthy for orders far past where naive floats would degrade.

``brute_force_tree_walks`` is an independent oracle: it literally counts the
closed walks that the prediction formula is supposed to count, on the
universal cover of a graph built from cycles (a tree of directed m-gons; for
m = 2 that degenerates to the ordinary infinite tree).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb

import numpy as np

from .ensembles import DenseMatrix, SparseDigraph, sparse_adjacency
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
    return sparse_adjacency(m) if isinstance(m, SparseDigraph) else m.entries


def _power_trace(base, k: int, n: int) -> float:
    """Tr base^k / n for a dense or a sparse square array.

    A sparse input skips its last product: Tr(P B) = sum(P * B^T) entrywise.
    A dense input forms it, which keeps the bits of the calibration moment.
    """
    sparse = k > 1 and not isinstance(base, np.ndarray)
    power = base
    for _ in range(k - 2 if sparse else k - 1):
        power = power @ base
    if sparse:
        return float(power.multiply(base.T).sum() / n)
    return float(power.diagonal().sum() / n)


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

    ``d`` and ``d_hat`` are deliberately independent arguments; the brute
    force oracle shows the formula counts walks on the cycle tree exactly
    when both equal the per-node cycle count (see brute_force_tree_walks).
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


_BRUTE_FORCE_MAX_L = 4


def brute_force_tree_walks(m_kind: int, l: int, d: int, branching: int) -> int:
    """Exact count of closed walks of length m_kind * l on a cycle tree.

    The structure is the universal cover of a graph built from directed
    m_kind-cycles: the root belongs to ``d`` cycles and every other node to
    ``branching`` + 1 (one inherited from its parent cycle plus ``branching``
    fresh ones).  A walk state is the stack of positions inside the cycles
    entered and not yet completed; moves either advance one step around the
    innermost cycle (popping it on completion) or enter a fresh cycle.

    Walks are enumerated by depth-first search with memoization on the
    (steps left, position stack) state, which visits every distinct walk
    shape exactly once and weights it by its number of cycle choices.
    """
    if m_kind < 2:
        raise InvalidSpecError(f"cycle length must be >= 2, got {m_kind}")
    if l < 1:
        raise InvalidSpecError(f"order must be >= 1, got {l}")
    if l > _BRUTE_FORCE_MAX_L:
        raise InvalidSpecError(
            f"enumeration is exponential; l must be <= {_BRUTE_FORCE_MAX_L}, got {l}"
        )
    if d < 0 or branching < 0:
        raise InvalidSpecError("degrees must be nonnegative")
    total_steps = m_kind * l

    @lru_cache(maxsize=None)
    def count(steps_left: int, stack: tuple[int, ...]) -> int:
        if steps_left == 0:
            return 1 if not stack else 0
        # completing every open cycle needs sum of remaining steps
        need = sum(m_kind - p for p in stack)
        if need > steps_left:
            return 0
        total = 0
        if stack:
            p = stack[-1]
            if p + 1 == m_kind:
                total += count(steps_left - 1, stack[:-1])
            else:
                total += count(steps_left - 1, stack[:-1] + (p + 1,))
            total += branching * count(steps_left - 1, stack + (1,))
        else:
            total += d * count(steps_left - 1, (1,))
        return total

    return count(total_steps, ())
