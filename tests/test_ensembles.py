import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from trochoid.correlations import DenseCyclicSpec, generate_dense_cyclic
from trochoid.ensembles import (
    DenseMatrix,
    SparseDigraph,
    adjacency_matrix,
    generate_base_iid,
)
from trochoid.errors import InvalidSpecError
from trochoid.moments import trace_power_moment


def test_iid_determinism_at_n1():
    a = generate_base_iid(1, seed=7)
    b = generate_base_iid(1, seed=7)
    assert a.entries.shape == (1, 1)
    np.testing.assert_array_equal(a.entries, b.entries)


def test_iid_rejects_zero_dimension():
    with pytest.raises(InvalidSpecError):
        generate_base_iid(0, seed=1)


def test_iid_sample_variance():
    m = generate_base_iid(1000, seed=1)
    var = m.entries.var()
    assert 0.9 / 1000 <= var <= 1.1 / 1000


def test_iid_frobenius_concentration():
    m = generate_base_iid(1000, seed=1)
    assert abs((m.entries**2).sum() / 1000 - 1.0) < 0.1


def test_iid_mean_near_zero():
    m = generate_base_iid(800, seed=3)
    assert abs(m.entries.mean()) < 3 / 800  # 3 sigma of the mean estimator


def test_dense_matrix_validation():
    with pytest.raises(InvalidSpecError):
        DenseMatrix(np.zeros((2, 3)))
    with pytest.raises(InvalidSpecError):
        DenseMatrix(np.array([[np.inf, 0.0], [0.0, 1.0]]))


def test_combine_keeps_both_correlation_orders():
    k3, k4 = [], []
    for seed in range(10):
        a = generate_dense_cyclic(DenseCyclicSpec(n=800, k=3, flip_prob=1.0), seed)
        b = generate_dense_cyclic(DenseCyclicSpec(n=800, k=4, flip_prob=1.0), seed + 1000)
        # superposing two unit-scaled ensembles keeps the variance at 1/n
        mixed = DenseMatrix((a.entries + b.entries) / np.sqrt(2))
        k3.append(trace_power_moment(mixed, 3))
        k4.append(trace_power_moment(mixed, 4))
    for values in (k3, k4):
        mean = np.mean(values)
        stderr = np.std(values, ddof=1) / np.sqrt(len(values))
        assert mean > 3 * stderr, f"moment not significantly positive: {mean} +- {stderr}"


def test_adjacency_single_edge_scaling():
    # each entry carries the weight of its cycle step
    g = SparseDigraph(n=2, cycles=[(0, 1)], cycle_weights=[2.0])
    m = adjacency_matrix(g)
    np.testing.assert_array_equal(m.entries, [[0.0, 2.0], [2.0, 0.0]])


def test_digraph_validation():
    with pytest.raises(InvalidSpecError):
        SparseDigraph(n=2, cycles=[(0, 5)], cycle_weights=[1.0])
    with pytest.raises(InvalidSpecError):
        SparseDigraph(n=2, cycles=[(-1, 1)], cycle_weights=[1.0])
    with pytest.raises(InvalidSpecError):
        SparseDigraph(n=3, cycles=[(0, 1, 1)], cycle_weights=[1.0])
    with pytest.raises(InvalidSpecError):
        SparseDigraph(n=3, cycles=[(0, 1), (1, 2)], cycle_weights=[1.0])


def _reference_edges(cycles, weights):
    """Steps summed per ordered pair in a dict, in cycle order; zero sums dropped."""
    acc = {}
    for cyc, w in zip(cycles, weights):
        k = len(cyc)
        for a in range(k):
            key = (cyc[a], cyc[(a + 1) % k])
            acc[key] = acc.get(key, 0.0) + w
    return sorted((u, v, w) for (u, v), w in acc.items() if w != 0.0)


@st.composite
def _weighted_cycles(draw):
    n = draw(st.integers(1, 9))
    cycle = st.lists(st.integers(0, n - 1), max_size=n, unique=True).map(tuple)
    weight = st.sampled_from([1.0, -1.0, 0.7, -1.3, 0.1, 0.2]) | st.floats(-3, 3, allow_nan=False)
    cycles = draw(st.lists(cycle, max_size=12))
    weights = draw(st.lists(weight, min_size=len(cycles), max_size=len(cycles)))
    # a rotated copy of a cycle with the opposite weight steps along the same
    # pairs, so those edges cancel unless a third cycle also uses them
    if cycles:
        mirrors = st.lists(st.tuples(st.integers(0, len(cycles) - 1), st.integers(0, n)), max_size=4)
        for i, shift in draw(mirrors):
            c = cycles[i]
            cut = shift % len(c) if c else 0
            cycles.append(c[cut:] + c[:cut])
            weights.append(-weights[i])
    return n, cycles, weights


@settings(max_examples=300, deadline=None)
@given(graph=_weighted_cycles())
@example(graph=(3, [], []))
@example(graph=(4, [(0, 1, 2), (1, 2, 0), (2, 3)], [0.7, -0.7, 1.3]))
def test_derived_edges_match_dict_accumulation(graph):
    n, cycles, weights = graph
    g = SparseDigraph(n, cycles, weights)
    ref = _reference_edges(cycles, weights)
    assert g.edges.shape == (len(ref), 2)
    assert g.edges.tolist() == [[u, v] for u, v, _ in ref]
    ref_weights = np.array([w for _, _, w in ref], dtype=float)
    np.testing.assert_array_equal(g.edge_weights.view(np.uint64), ref_weights.view(np.uint64))

    sums = np.zeros(n)
    matrix = np.zeros((n, n))
    for u, v, w in ref:
        sums[u] += w
        matrix[u, v] += w
    np.testing.assert_array_equal(g.row_sums().view(np.uint64), sums.view(np.uint64))
    np.testing.assert_array_equal(adjacency_matrix(g).entries, matrix)
