from math import comb
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import trochoid.moments

from trochoid.digraphs import (
    CycleSpecies,
    MixedCyclicSpec,
    PoissonCyclicSpec,
    RegularCyclicSpec,
    generate_mixed_cyclic,
    generate_poisson_cyclic,
    generate_regular_cyclic,
)
from trochoid.ensembles import DenseMatrix, SparseDigraph, adjacency_matrix, generate_base_iid
from trochoid.errors import InvalidSpecError
from trochoid.moments import (
    empirical_mixed_moment,
    empirical_pure_moment,
    fuss_catalan_prediction,
    mixed_moment_candidates,
    trace_power_moment,
    tree_walk_prediction,
)
from trochoid.spectra import compute_eigenvalues

from walks import brute_force_tree_walks


def test_pure_moment_identity():
    s = compute_eigenvalues(DenseMatrix(np.eye(5)))
    assert empirical_pure_moment(s, 3) == pytest.approx(1.0)


def test_pure_moment_single_cycle():
    m = np.zeros((3, 3))
    m[0, 1] = m[1, 2] = m[2, 0] = 1.0
    s = compute_eigenvalues(DenseMatrix(m))
    assert empirical_pure_moment(s, 3) == pytest.approx(1.0, abs=1e-10)


def test_pure_moment_matches_trace_powers():
    m = generate_base_iid(200, seed=3)
    s = compute_eigenvalues(m)
    assert empirical_pure_moment(s, 3) == pytest.approx(trace_power_moment(m, 3), abs=1e-9)


def test_pure_moment_order_validation():
    with pytest.raises(InvalidSpecError):
        empirical_pure_moment(compute_eigenvalues(DenseMatrix(np.eye(3))), 0)


def test_mixed_moment_identity():
    assert empirical_mixed_moment(DenseMatrix(np.eye(4)), 2) == pytest.approx(1.0)


def test_mixed_moment_l1_is_frobenius():
    m = generate_base_iid(150, seed=5)
    assert empirical_mixed_moment(m, 1) == pytest.approx(
        (m.entries**2).sum() / 150, rel=1e-12
    )


def test_mixed_moments_of_iid_follow_catalan_sequence():
    values_l1, values_l2 = [], []
    for seed in range(8):
        m = generate_base_iid(1000, seed=seed)
        values_l1.append(empirical_mixed_moment(m, 1))
        values_l2.append(empirical_mixed_moment(m, 2))
    assert np.mean(values_l1) == pytest.approx(1.0, abs=0.05)
    assert np.mean(values_l2) == pytest.approx(2.0, abs=0.1)


def test_fuss_catalan_values():
    assert fuss_catalan_prediction(1, 0.37) == pytest.approx(0.37, rel=0, abs=0)
    assert fuss_catalan_prediction(2, 0.1) == pytest.approx(0.03, rel=1e-12)
    # C(9,3)/7 = 12 at l = 3
    assert fuss_catalan_prediction(3, 1.0) == pytest.approx(12.0)


def test_mixed_moment_candidates_disagree_at_l1():
    candidates = mixed_moment_candidates(1)
    assert candidates["catalan"] == 1.0
    assert candidates["alternate"] == 2.0


def test_tree_walk_prediction_first_order_is_d():
    for d in (1, 2, 5):
        for d_hat in (1.0, 3.0, 10.0):
            assert tree_walk_prediction(2, 1, d, d_hat) == pytest.approx(float(d))
            assert tree_walk_prediction(3, 1, d, d_hat) == pytest.approx(float(d))


def test_tree_walk_prediction_reference_value():
    assert tree_walk_prediction(2, 2, 3, 3) == pytest.approx(15.0)
    assert brute_force_tree_walks(2, 2, 3, 2) == 15


@pytest.mark.parametrize("m_kind", [2, 3])
@pytest.mark.parametrize("l", [1, 2, 3])
@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_formula_matches_enumeration_under_calibrated_mapping(m_kind, l, d):
    # the formula counts walks on the cycle tree when its biased-count
    # argument equals the plain per-node count (branching = d - 1)
    predicted = tree_walk_prediction(m_kind, l, d, d)
    enumerated = brute_force_tree_walks(m_kind, l, d, d - 1)
    assert predicted == pytest.approx(float(enumerated), rel=1e-12)


def test_brute_force_trivial_and_known_counts():
    assert brute_force_tree_walks(2, 1, 5, 3) == 5
    # closed 6-step walks on the integer line from the origin: C(6,3)
    assert brute_force_tree_walks(2, 3, 2, 1) == 20
    # two 3-cycles per node: 4 orderings + 4 nested detours
    assert brute_force_tree_walks(3, 2, 2, 1) == 8


def test_brute_force_complexity_guard():
    with pytest.raises(InvalidSpecError):
        brute_force_tree_walks(2, 5, 2, 1)


def test_tree_walk_asymptotics():
    l = 3
    for m_kind in (2, 3):
        exact = tree_walk_prediction(m_kind, l, 1000, 1000.0)
        # large-d_hat limit: d_hat^l * C(ml, l) / (ml - l + 1)
        limit = 1000.0**l * comb(m_kind * l, l) / (m_kind * l - l + 1)
        assert abs(exact / limit - 1.0) < 0.02


def test_graph_mixed_moment_matches_tree_walks():
    # raw Tr (M M^T)^2 / n on a cycle-regular digraph approaches the
    # tree-walk count with both formula arguments set to d
    values = []
    for seed in range(4):
        g = generate_regular_cyclic(RegularCyclicSpec(n=600, d=2, k=3), seed=seed)
        values.append(empirical_mixed_moment(adjacency_matrix(g), 2))
    assert np.mean(values) == pytest.approx(tree_walk_prediction(2, 2, 2, 2), rel=0.1)


def test_graph_pure_moment_matches_tree_walks():
    values = []
    for seed in range(4):
        g = generate_regular_cyclic(RegularCyclicSpec(n=600, d=2, k=3), seed=seed)
        values.append(trace_power_moment(adjacency_matrix(g), 6))
    assert np.mean(values) == pytest.approx(tree_walk_prediction(3, 2, 2, 2), rel=0.1)


def _generated_digraphs(w1: float, w2: float):
    yield generate_regular_cyclic(RegularCyclicSpec(n=60, d=2, k=3, weight=w1), seed=1)
    # seed 8 draws two 2-cycles on one node pair, which merge into one edge
    yield generate_regular_cyclic(RegularCyclicSpec(n=8, d=2, k=2, weight=w1), seed=8)
    yield generate_poisson_cyclic(PoissonCyclicSpec(n=80, mean_degree=4.0, k=3, weight=w1), seed=2)
    yield generate_mixed_cyclic(
        MixedCyclicSpec(n=48, species=(CycleSpecies(2, 3, w1), CycleSpecies(1, 4, w2))), seed=3
    )


@pytest.mark.parametrize(
    "weights, exact", [((1.0, 2.0), True), ((0.7, -1.3), False), ((0.1, -1.3), False)]
)
def test_digraph_moments_match_dense_adjacency(weights, exact):
    # a digraph is multiplied as a sparse array, meeting in the middle for
    # pure orders above 3: integer weights make every sum exact, other
    # weights may only move the last bits
    for g in _generated_digraphs(*weights):
        dense = adjacency_matrix(g)
        got = [empirical_mixed_moment(g, l) for l in (1, 2, 3)]
        got += [trace_power_moment(g, k) for k in range(2, 8)]
        want = [empirical_mixed_moment(dense, l) for l in (1, 2, 3)]
        want += [trace_power_moment(dense, k) for k in range(2, 8)]
        if exact:
            np.testing.assert_array_equal(got, want)
        else:
            np.testing.assert_allclose(got, want, rtol=1e-12)


@st.composite
def _cycle_digraphs(draw, weights: list[float]):
    """Random cycle digraphs on up to 24 nodes, often with merged or cancelled pairs."""
    n = draw(st.integers(2, 24))
    cycles = []
    for _ in range(draw(st.integers(0, 2 * n))):
        nodes = draw(st.permutations(range(n)))
        cycles.append(tuple(nodes[: draw(st.integers(2, min(n, 6)))]))
    chosen = draw(st.lists(st.sampled_from(weights), min_size=len(cycles), max_size=len(cycles)))
    return SparseDigraph(n, cycles, chosen)


def _scipy_moments(g: SparseDigraph) -> list[float]:
    """Tr A^k / n for k = 1..7, then Tr (A A^T)^l / n for l = 1..3, from
    scipy's CSR products meeting in the middle (test oracle)."""
    from scipy.sparse import csr_array

    def power_trace(base, k: int) -> float:
        if k == 1:
            return float(base.diagonal().sum() / g.n)
        half = base
        for _ in range(k // 2 - 1):
            half = half @ base
        rest = half @ base if k % 2 else half
        return float(rest.multiply(half.T).sum() / g.n)

    a = csr_array((g.edge_weights, (g.edges[:, 0], g.edges[:, 1])), shape=(g.n, g.n))
    return [power_trace(a, k) for k in range(1, 8)] + [power_trace(a @ a.T, l) for l in range(1, 4)]


@settings(max_examples=150, deadline=None)
@given(g=_cycle_digraphs([1.0, 2.0, -1.0, 3.0]) | _cycle_digraphs([0.7, -1.3, 0.1, 1.0]))
@pytest.mark.parametrize(
    "block, dense",
    [(trochoid.moments._BLOCK, trochoid.moments._DENSE), (8, 0), (8, 10**9)],
    ids=["default", "sorted-keys", "dense-table"],
)
def test_digraph_moments_equal_scipys_bit_for_bit(g, block, dense):
    # every sum adds its terms in scipy's order, so even weights like 0.7 and
    # -1.3 give the same bits; at block 8 a product runs a few rows at a time,
    # finding its entries by sorting their keys or in a table over its rows
    with mock.patch.multiple(trochoid.moments, _BLOCK=block, _DENSE=dense):
        got = [trace_power_moment(g, k) for k in range(1, 8)] + [empirical_mixed_moment(g, l) for l in range(1, 4)]
    assert got == _scipy_moments(g)


def test_sparse_trace_of_a_product_that_cancels_to_nothing():
    # A^2 is empty: both paths from node 0 to node 3 cancel
    a = (np.array([0, 0, 1, 2]), np.array([1, 2, 3, 3]), np.array([1.0, 1.0, 1.0, -1.0]))
    assert trochoid.moments._product(a, a, 4, ordered=True)[0].size == 0
    assert [trochoid.moments._sparse_power_trace(a, k, 4) for k in (2, 3, 4)] == [0.0, 0.0, 0.0]


def test_sparse_moments_grow_with_the_entries_not_with_n():
    # one 3-cycle among 10^6 nodes: work that grew with n^2, such as an
    # accumulator n entries wide for each row, would take hours
    g = SparseDigraph(10**6, [(5, 700_000, 999_999)], [0.5])
    assert trace_power_moment(g, 3) == 0.125 * 3 / 10**6
    assert trace_power_moment(g, 6) == 0.125**2 * 3 / 10**6
    assert empirical_mixed_moment(g, 3) == 0.5**6 * 3 / 10**6
