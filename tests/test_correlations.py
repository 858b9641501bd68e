from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_rng import per_node_flip_uniforms
from trochoid.correlations import DenseCyclicSpec, flip_uniforms, generate_dense_cyclic, induce_cyclic_correlations
from trochoid.ensembles import DenseMatrix, generate_base_iid
from trochoid.errors import InvalidSpecError
from trochoid.moments import trace_power_moment
from trochoid.rng import normalize_seed


def _reference(base: DenseMatrix, spec: DenseCyclicSpec, seed: int) -> np.ndarray:
    """The from-scratch sweep: it rebuilds the path weights P at every node,
    which is O(n^4) matmul work for k >= 4, and draws each node's flip
    uniforms from streams seeded for that node alone."""
    m = base.entries.copy()
    seed = normalize_seed(seed)
    k = spec.k
    for v in range(k - 1, m.shape[0]):
        s = m[:v, :v]
        p = s.copy()
        for _ in range(k - 3):
            p = s @ p
            np.fill_diagonal(p, 0.0)
        w = (m[v, :v] @ p) * m[:v, v]
        flips = spec.sign * w < 0
        if spec.flip_prob < 1.0:
            flips &= per_node_flip_uniforms(seed, v, v) < spec.flip_prob
        m[:v, v][flips] *= -1.0
    return m


def test_spec_validation():
    with pytest.raises(InvalidSpecError):
        DenseCyclicSpec(n=10, k=2, flip_prob=0.5)  # order below 3
    with pytest.raises(InvalidSpecError):
        DenseCyclicSpec(n=5, k=5, flip_prob=0.5)  # order not below dimension
    with pytest.raises(InvalidSpecError):
        DenseCyclicSpec(n=10, k=3, flip_prob=1.5)
    with pytest.raises(InvalidSpecError):
        DenseCyclicSpec(n=10, k=3, flip_prob=0.5, sign=2)


def test_zero_flip_probability_is_identity():
    m = generate_base_iid(60, seed=5)
    out = induce_cyclic_correlations(m, DenseCyclicSpec(n=60, k=4, flip_prob=0.0), seed=9)
    np.testing.assert_array_equal(out.entries, m.entries)


def test_only_signs_change():
    m = generate_base_iid(80, seed=2)
    out = induce_cyclic_correlations(m, DenseCyclicSpec(n=80, k=3, flip_prob=0.8), seed=3)
    np.testing.assert_array_equal(np.abs(out.entries), np.abs(m.entries))
    assert not np.array_equal(out.entries, m.entries)


def test_determinism():
    spec = DenseCyclicSpec(n=70, k=4, flip_prob=0.5)
    a = generate_dense_cyclic(spec, seed=11)
    b = generate_dense_cyclic(spec, seed=11)
    np.testing.assert_array_equal(a.entries, b.entries)


def test_induced_third_moment_positive():
    m = generate_dense_cyclic(DenseCyclicSpec(n=500, k=3, flip_prob=1.0, sign=1), seed=3)
    assert trace_power_moment(m, 3) > 0


def test_negative_sign_target():
    m = generate_dense_cyclic(DenseCyclicSpec(n=500, k=3, flip_prob=1.0, sign=-1), seed=3)
    assert trace_power_moment(m, 3) < 0


def test_uncorrelated_third_moment_small():
    m = generate_dense_cyclic(DenseCyclicSpec(n=200, k=3, flip_prob=0.0), seed=8)
    assert abs(trace_power_moment(m, 3)) < 5 / np.sqrt(200)


def test_fourth_order_flips_raise_fourth_moment():
    raised, baseline = [], []
    for seed in range(10):
        spec1 = DenseCyclicSpec(n=500, k=4, flip_prob=1.0)
        spec0 = DenseCyclicSpec(n=500, k=4, flip_prob=0.0)
        raised.append(trace_power_moment(generate_dense_cyclic(spec1, seed), 4))
        baseline.append(trace_power_moment(generate_dense_cyclic(spec0, seed), 4))
    gap = np.mean(raised) - np.mean(baseline)
    stderr = np.sqrt(
        np.var(raised, ddof=1) / len(raised) + np.var(baseline, ddof=1) / len(baseline)
    )
    assert gap > 3 * stderr


def _oracle_sweep(base: np.ndarray, k: int) -> np.ndarray:
    """Literal step-by-step walk-through of the flip procedure (p = 1).

    Pure-python loops throughout: path weights by explicit recursion on the
    leading block, cycle weight of each in-edge by explicit summation.
    """
    m = base.copy()
    n = m.shape[0]
    for v in range(k - 1, n):
        sub = [[m[i, j] for j in range(v)] for i in range(v)]
        paths = [row[:] for row in sub]  # length-1 path weights
        for _ in range(k - 3):
            nxt = [[0.0] * v for _ in range(v)]
            for i in range(v):
                for j in range(v):
                    if i == j:
                        continue  # walks returning to their origin are dropped
                    nxt[i][j] = sum(sub[i][a] * paths[a][j] for a in range(v))
            paths = nxt
        for b in range(v):
            cycle_weight = sum(m[v, a] * paths[a][b] for a in range(v)) * m[b, v]
            if cycle_weight < 0:
                m[b, v] = -m[b, v]
    return m


@pytest.mark.parametrize("k", [3, 4, 5])
def test_matches_stepwise_oracle_at_tiny_n(k):
    n = 6 if k == 3 else 8
    base = generate_base_iid(n, seed=21)
    spec = DenseCyclicSpec(n=n, k=k, flip_prob=1.0, sign=1)
    oracle = _oracle_sweep(base.entries, k)
    np.testing.assert_array_equal(_reference(base, spec, seed=4), oracle)
    np.testing.assert_array_equal(induce_cyclic_correlations(base, spec, seed=4).entries, oracle)


@pytest.mark.parametrize("k", [3, 4, 5, 6, 7, 8])
def test_fast_variant_matches_reference_bit_exactly(k):
    # k = 6 matters: it is the smallest order where the delta recursion
    # multiplies two maintained power diagonals; k = 7 is the smallest whose
    # diagonal growth has a term h[l] * (S^a @ c) * (row @ S^b) with a, b and
    # l all positive
    for seed in range(5):
        base = generate_base_iid(200, seed=100 + seed)
        spec = DenseCyclicSpec(n=200, k=k, flip_prob=0.6, sign=1)
        fast = induce_cyclic_correlations(base, spec, seed=seed)
        np.testing.assert_array_equal(_reference(base, spec, seed), fast.entries)


def test_dimension_mismatch_rejected():
    m = generate_base_iid(10, seed=1)
    with pytest.raises(InvalidSpecError):
        induce_cyclic_correlations(m, DenseCyclicSpec(n=12, k=3, flip_prob=1.0), seed=1)


def test_non_square_rejected_at_construction():
    with pytest.raises(InvalidSpecError):
        DenseMatrix(np.zeros((3, 4)))


@st.composite
def _sweeps(draw):
    k = draw(st.integers(3, 8))
    n = draw(st.integers(k + 1, 40))
    p = draw(st.floats(0.0, 1.0))
    sign = draw(st.sampled_from([-1, 1]))
    return DenseCyclicSpec(n=n, k=k, flip_prob=p, sign=sign), draw(st.integers(0, 2**64 - 1))


@settings(max_examples=200, deadline=None)
@given(case=_sweeps())
def test_sweep_keeps_magnitudes_and_carries_its_trace(case):
    spec, seed = case
    base = generate_base_iid(spec.n, seed)
    out = generate_dense_cyclic(spec, seed, base=base)
    np.testing.assert_array_equal(np.abs(out.entries), np.abs(base.entries))
    # the first k - 1 nodes only join the block: no k-cycle closes through them
    np.testing.assert_array_equal(out.entries[:, : spec.k - 1], base.entries[:, : spec.k - 1])
    chain = np.trace(np.linalg.matrix_power(out.entries, spec.k))
    # rounding scales with the walks' absolute weights, not with their sum,
    # which cancels to ~1e-3 on some draws
    walks = np.trace(np.linalg.matrix_power(np.abs(out.entries), spec.k))
    if spec.flip_prob == 0.0:
        assert out.power_trace is None  # no sweep: the moment runs the products
    else:
        assert out.power_trace[0] == spec.k
        assert abs(out.power_trace[1] - chain) <= 1e-12 * walks
    assert abs(trace_power_moment(out, spec.k) - chain / spec.n) <= 1e-12 * walks / spec.n


def test_given_base_is_used_and_left_unchanged():
    spec = DenseCyclicSpec(n=50, k=5, flip_prob=0.4)
    base = generate_base_iid(50, seed=6)
    kept = base.entries.copy()
    out = generate_dense_cyclic(spec, 6, base=base)
    np.testing.assert_array_equal(base.entries, kept)
    fresh = generate_dense_cyclic(spec, 6)
    np.testing.assert_array_equal(out.entries, fresh.entries)
    assert out.power_trace == fresh.power_trace


@st.composite
def _leading_blocks(draw):
    k = draw(st.integers(3, 8))
    n = draw(st.integers(k + 1, 60))
    m = draw(st.integers(k + 1, n))
    p = draw(st.sampled_from([0.3, 1.0]))
    sign = draw(st.sampled_from([-1, 1]))
    return DenseCyclicSpec(n=n, k=k, flip_prob=p, sign=sign), m, draw(st.integers(0, 2**64 - 1))


@settings(max_examples=150, deadline=None)
@given(case=_leading_blocks())
def test_rescaled_leading_block_sweeps_as_the_full_draws_leading_block(case):
    # calibration probes the leading m nodes this way: a flip decision reads
    # only signs, which no positive scale changes, and edge-keyed uniforms
    spec, m, seed = case
    base = generate_base_iid(spec.n, seed)
    full = generate_dense_cyclic(spec, seed, base=base)
    scale = np.sqrt(spec.n / m)
    block = DenseMatrix(base.entries[:m, :m] * scale)
    part = generate_dense_cyclic(replace(spec, n=m), seed, base=block, uniforms=flip_uniforms(seed, spec.n)[:m])
    np.testing.assert_array_equal(np.sign(part.entries), np.sign(full.entries[:m, :m]))
    # rows have their own streams: the block is the seed's m x m base up to the last bit
    np.testing.assert_array_equal(np.sign(part.entries), np.sign(generate_dense_cyclic(replace(spec, n=m), seed).entries))
    lead = full.entries[:m, :m] * scale
    chain = np.trace(np.linalg.matrix_power(lead, spec.k))
    # relative to the walks' absolute weights, as in the test above
    walks = np.trace(np.linalg.matrix_power(np.abs(lead), spec.k))
    assert part.power_trace[0] == spec.k
    assert abs(part.power_trace[1] - chain) <= 1e-12 * walks
