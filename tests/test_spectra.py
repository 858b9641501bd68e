import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

import trochoid.spectra
from trochoid.boundaries import HypotrochoidParams, dense_hypotrochoid
from trochoid.correlations import DenseCyclicSpec, generate_dense_cyclic
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
from trochoid.spectra import (
    Spectrum,
    compute_eigenvalues,
    containment,
    detect_deterministic_outliers,
    phase_certificate,
    rotation_symmetry_residual,
)

UNIT_CIRCLE = dense_hypotrochoid(HypotrochoidParams(k=3, rho=0.0))


def test_identity_spectrum():
    s = compute_eigenvalues(DenseMatrix(np.eye(3)))
    np.testing.assert_allclose(sorted(s.eigenvalues.real), [1.0, 1.0, 1.0])
    np.testing.assert_allclose(s.eigenvalues.imag, 0.0, atol=1e-12)


def test_single_cycle_spectrum_is_roots_of_unity():
    m = np.zeros((3, 3))
    m[0, 1] = m[1, 2] = m[2, 0] = 1.0
    s = compute_eigenvalues(DenseMatrix(m))
    expected = np.exp(2j * np.pi * np.arange(3) / 3)
    got = sorted(s.eigenvalues, key=lambda z: np.angle(z))
    want = sorted(expected, key=lambda z: np.angle(z))
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_iid_spectral_radius_within_circular_edge():
    m = generate_base_iid(500, seed=9)
    s = compute_eigenvalues(m)
    assert np.abs(s.eigenvalues).max() < 1.15


def test_trace_identity_and_conjugation_closure():
    m = generate_base_iid(300, seed=4)
    s = compute_eigenvalues(m)
    assert abs(s.eigenvalues.sum() - np.trace(m.entries)) < 1e-6 * 300
    # closed under conjugation: match each eigenvalue to a conjugate by
    # assignment, since a sort would misalign real parts tied at rounding level
    cost = np.abs(s.eigenvalues[:, None] - np.conj(s.eigenvalues)[None, :])
    rows, cols = linear_sum_assignment(cost)
    assert cost[rows, cols].max() < 1e-8


def test_dimension_cap(monkeypatch):
    monkeypatch.setattr(trochoid.spectra, "EIG_MAX_N", 5)
    with pytest.raises(InvalidSpecError):
        compute_eigenvalues(DenseMatrix(np.eye(10)))


def test_symmetry_residual_cap(monkeypatch):
    monkeypatch.setattr(trochoid.spectra, "SYMMETRY_MAX_N", 5)
    with pytest.raises(InvalidSpecError, match="refusing n=10"):
        rotation_symmetry_residual(compute_eigenvalues(DenseMatrix(np.eye(10))), 2)


def test_outliers_on_regular_graph():
    g = generate_regular_cyclic(RegularCyclicSpec(n=300, d=2, k=3), seed=1)
    s = compute_eigenvalues(adjacency_matrix(g))
    positions = detect_deterministic_outliers(s, g)
    assert len(positions) == 3
    outliers = s.eigenvalues[positions]
    targets = 2.0 * np.exp(2j * np.pi * np.arange(3) / 3)
    for t in targets:
        assert min(abs(o - t) for o in outliers) < 1e-6


def test_double_perron_eigenvalue_excludes_one_copy():
    # two disjoint copies of one regular draw: r = 2 and its rotations are double
    g = generate_regular_cyclic(RegularCyclicSpec(n=30, d=2, k=3), seed=1)
    twin = SparseDigraph(60, g.cycles + [tuple(v + 30 for v in c) for c in g.cycles], g.cycle_weights * 2)
    s = compute_eigenvalues(adjacency_matrix(twin))
    targets = 2.0 * np.exp(2j * np.pi * np.arange(3) / 3)
    assert all(np.sum(np.abs(s.eigenvalues - t) < 1e-6) == 2 for t in targets)
    positions = detect_deterministic_outliers(s, twin)
    assert len(positions) == 3 and len(set(positions)) == 3
    np.testing.assert_array_less(np.abs(s.eigenvalues[positions] - targets), 1e-6)
    report = containment(s, UNIT_CIRCLE, 0.0, positions)
    assert report.excluded_outliers == [complex(s.eigenvalues[i]) for i in positions]
    assert (report.total, len(report.excluded_outliers)) == (60, 3)
    assert report.inside + report.outside == 57
    # the twin copies stay in the census, outside the unit circle
    assert report.outside >= 3


def test_outliers_empty_for_dense_source():
    m = generate_base_iid(50, seed=2)
    s = compute_eigenvalues(m)
    assert detect_deterministic_outliers(s, None) == []
    assert detect_deterministic_outliers(s, m) == []


def test_outliers_empty_for_nonconstant_row_sums():
    g = generate_poisson_cyclic(PoissonCyclicSpec(n=200, mean_degree=4.0, k=3), seed=3)
    s = compute_eigenvalues(adjacency_matrix(g))
    assert detect_deterministic_outliers(s, g) == []


def test_containment_trivial_points():
    inside = containment(Spectrum(np.array([0.0 + 0.0j])), UNIT_CIRCLE)
    assert (inside.total, inside.inside, inside.outside) == (1, 1, 0)
    assert inside.worst_violation == 0.0
    outside = containment(Spectrum(np.array([3.0 + 0.0j])), UNIT_CIRCLE)
    assert (outside.inside, outside.outside) == (0, 1)
    assert outside.worst_violation == pytest.approx(2.0, abs=1e-3)


def test_containment_census_balances():
    g = generate_regular_cyclic(RegularCyclicSpec(n=120, d=2, k=3), seed=5)
    s = compute_eigenvalues(adjacency_matrix(g))
    outliers = detect_deterministic_outliers(s, g)
    report = containment(s, UNIT_CIRCLE, 0.0, outliers)
    assert report.inside + report.outside + len(report.excluded_outliers) == report.total
    assert len(report.excluded_outliers) == 3


def test_containment_rejects_empty_spectrum_and_negative_inflation():
    with pytest.raises(InvalidSpecError):
        containment(Spectrum(np.array([], dtype=complex)), UNIT_CIRCLE)
    with pytest.raises(InvalidSpecError):
        containment(Spectrum(np.array([0.0 + 0.0j])), UNIT_CIRCLE, inflation=-0.1)


def test_containment_monotone_in_inflation():
    m = generate_base_iid(400, seed=6)
    s = compute_eigenvalues(m)
    counts = [
        containment(s, UNIT_CIRCLE, inflation).inside
        for inflation in (0.0, 0.01, 0.03, 0.1, 0.3)
    ]
    assert counts == sorted(counts)


def test_rotation_residual_exact_cases():
    m = np.zeros((3, 3))
    m[0, 1] = m[1, 2] = m[2, 0] = 1.0
    s = compute_eigenvalues(DenseMatrix(m))
    assert rotation_symmetry_residual(s, 3) < 1e-14
    g = generate_regular_cyclic(RegularCyclicSpec(n=300, d=2, k=3), seed=8)
    sg = compute_eigenvalues(adjacency_matrix(g))
    assert rotation_symmetry_residual(sg, 3) < 1e-8


def test_rotation_residual_statistical_for_dense():
    # dense ensembles are only statistically symmetric; the residual is
    # small and shrinks monotonically with dimension
    means = []
    for n in (200, 500, 1000):
        residuals = []
        for seed in range(10):
            m = generate_dense_cyclic(DenseCyclicSpec(n=n, k=3, flip_prob=1.0), seed)
            residuals.append(rotation_symmetry_residual(compute_eigenvalues(m), 3))
        means.append(np.mean(residuals))
    assert means[0] > 0
    assert means[2] < means[1] < means[0]


def _reference_residual(ev: np.ndarray, k: int) -> float:
    cost = np.abs(ev[:, None] - ev[None, :] * np.exp(2j * np.pi / k))
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].sum() / ev.size)


# 80 points with no rotation symmetry: their residual is far from 0
_POINTS = np.random.default_rng(5).standard_normal(80) + 1j * np.random.default_rng(6).standard_normal(80)


@pytest.mark.parametrize("found", [True, False], ids=["solver-file", "no-solver-file"])
def test_rotation_residual_loads_its_solver_without_scipy_optimize(found):
    # a fresh process loads the solver from its file, and imports
    # scipy.optimize only where no such file is found; both give the
    # reference residual
    code = (
        "import sys, numpy as np, trochoid.spectra as spectra\n"
        f"{'' if found else 'spectra._solver_file = lambda: None'}\n"
        f"ev = np.array({_POINTS.tolist()!r})\n"
        "print(repr(spectra.rotation_symmetry_residual(spectra.Spectrum(ev), 3)))\n"
        "print('scipy.optimize' in sys.modules)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(trochoid.spectra.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    reference = _reference_residual(_POINTS, 3)
    assert reference > 0.1
    assert out.stdout.split() == [repr(reference), str(not found)]


def test_rotation_residual_guards():
    s = Spectrum(np.zeros(3, dtype=complex))
    with pytest.raises(InvalidSpecError):
        rotation_symmetry_residual(s, 1)
    big = Spectrum(np.zeros(5000, dtype=complex))
    with pytest.raises(InvalidSpecError):
        rotation_symmetry_residual(big, 3)


def test_block_solve_matches_dense_solve_on_well_conditioned_bulk():
    # the structure-aware path must compute the same spectrum as the dense
    # solver; they may only disagree on defective zero clusters, where the
    # dense solver's own noise is the u^(1/m) bound
    from trochoid.digraphs import PoissonCyclicSpec, generate_poisson_cyclic
    from trochoid.spectra import digraph_spectrum

    g = generate_poisson_cyclic(PoissonCyclicSpec(n=400, mean_degree=6.0, k=3), seed=2)
    a = digraph_spectrum(g).eigenvalues
    b = compute_eigenvalues(adjacency_matrix(g)).eigenvalues
    cost = np.abs(a[:, None] - b[None, :])
    rows, cols = linear_sum_assignment(cost)
    matched = cost[rows, cols]
    bulk = np.abs(a[rows]) > 1e-3
    assert matched[bulk].max() < 1e-9
    assert matched.max() < 1e-4


def test_block_solve_falls_back_without_phase_certificate():
    from trochoid.digraphs import PoissonCyclicSpec, generate_poisson_cyclic
    from trochoid.spectra import digraph_spectrum, phase_certificate

    spec = PoissonCyclicSpec(n=120, mean_degree=4.0, k=3, stratified=False)
    g = generate_poisson_cyclic(spec, seed=5)
    assert phase_certificate(g) is None
    a = np.sort_complex(digraph_spectrum(g).eigenvalues)
    b = np.sort_complex(compute_eigenvalues(adjacency_matrix(g)).eigenvalues)
    np.testing.assert_array_equal(a, b)


def test_phase_certificate_on_stratified_graph():
    from trochoid.digraphs import RegularCyclicSpec, generate_regular_cyclic
    from trochoid.spectra import phase_certificate

    g = generate_regular_cyclic(RegularCyclicSpec(n=60, d=2, k=3), seed=1)
    phase = phase_certificate(g)
    assert phase is not None
    np.testing.assert_array_equal(phase[g.edges[:, 1]], (phase[g.edges[:, 0]] + 1) % 3)


def test_phase_certificate_leaves_the_shared_adjacency_alone():
    # the certificate reads the graph's edges and weights, the same arrays
    # its moments and cyclic blocks read, and changes neither of them
    from trochoid.moments import empirical_mixed_moment, trace_power_moment

    species = (CycleSpecies(d=2, k=3, weight=0.7), CycleSpecies(d=1, k=6, weight=-1.3))
    g = generate_mixed_cyclic(MixedCyclicSpec(n=24, species=species), seed=1)
    moments = [trace_power_moment(g, 3), trace_power_moment(g, 6), empirical_mixed_moment(g, 1)]
    shared = [g.edges, g.edge_weights]
    before = [a.copy() for a in shared]
    assert phase_certificate(g) is not None
    assert [g.edges, g.edge_weights] == shared  # the very same arrays
    for a, b in zip(shared, before):
        np.testing.assert_array_equal(a, b)
    assert [trace_power_moment(g, 3), trace_power_moment(g, 6), empirical_mixed_moment(g, 1)] == moments


def _reference_phase_certificate(g: SparseDigraph) -> np.ndarray | None:
    """The certificate by a depth-first search over neighbour lists (test oracle)."""
    p = g.cycle_length_gcd()
    if p < 2:
        return None
    neighbors: list[list[tuple[int, int]]] = [[] for _ in range(g.n)]
    for u, v in g.edges.tolist():
        neighbors[u].append((v, 1))
        neighbors[v].append((u, -1))
    phase = np.full(g.n, -1, dtype=int)
    for start in range(g.n):
        if phase[start] >= 0:
            continue
        phase[start] = 0
        queue = [start]
        while queue:
            u = queue.pop()
            for v, step in neighbors[u]:
                want = (phase[u] + step) % p
                if phase[v] < 0:
                    phase[v] = want
                    queue.append(v)
                elif phase[v] != want:
                    return None
    return phase


def _assert_same_certificate(g: SparseDigraph) -> None:
    want = _reference_phase_certificate(g)
    got = phase_certificate(g)
    if want is None:
        assert got is None
    else:
        assert got is not None and got.dtype.kind == "i"
        np.testing.assert_array_equal(got, want)


@st.composite
def _cycle_digraphs(draw):
    """Small cycle digraphs, often with several components and cancelled pairs."""
    n = draw(st.integers(2, 10))
    base = draw(st.sampled_from([2, 3, 4, 6]))
    multiples = list(range(base, n + 1, base)) or [2]
    length = st.sampled_from(multiples) | st.integers(2, n)
    # cycles on one half of the nodes keep the halves apart
    node_sets = [range(n), range(n // 2), range(n // 2, n)]
    cycles = []
    for _ in range(draw(st.integers(0, 6))):
        nodes = draw(st.permutations(draw(st.sampled_from(node_sets))))
        k = min(draw(length), len(nodes))
        if k >= 2:
            cycles.append(tuple(nodes[:k]))
    weights = draw(
        st.lists(st.sampled_from([1.0, -1.0, 0.5]), min_size=len(cycles), max_size=len(cycles))
    )
    return SparseDigraph(n, cycles, weights)


@settings(max_examples=400, deadline=None)
@given(g=_cycle_digraphs())
# a reciprocal pair at p = 2: the step along and the step against both weigh 1
@example(g=SparseDigraph(2, [(0, 1)], [1.0]))
# node 3 is isolated and gets phase 0 as its own component
@example(g=SparseDigraph(4, [(0, 1, 2)], [1.0]))
# 0 -> 2 contradicts 0 -> 1 -> 2
@example(g=SparseDigraph(4, [(0, 1, 2), (0, 2, 1)], [1.0, 1.0]))
# 0 -> 1 cancels and no edge leaves 0: one weak component, four strong ones
@example(g=SparseDigraph(4, [(0, 1, 2), (0, 1, 3)], [1.0, -1.0]))
def test_phase_certificate_matches_reference_search(g):
    _assert_same_certificate(g)


@pytest.mark.parametrize(
    "make",
    [
        # regular graphs stratified by gcd(n, k) = 1, 2 and 3 phase classes
        lambda seed: generate_regular_cyclic(RegularCyclicSpec(n=31, d=3, k=3), seed),
        lambda seed: generate_regular_cyclic(RegularCyclicSpec(n=30, d=2, k=4), seed),
        lambda seed: generate_regular_cyclic(RegularCyclicSpec(n=60, d=2, k=3, weight=-0.5), seed),
        lambda seed: generate_poisson_cyclic(PoissonCyclicSpec(n=90, mean_degree=3.0, k=3), seed),
        lambda seed: generate_poisson_cyclic(
            PoissonCyclicSpec(n=90, mean_degree=3.0, k=3, stratified=False), seed
        ),
        # two species whose cycle lengths have gcd 1 and gcd 2
        lambda seed: generate_mixed_cyclic(
            MixedCyclicSpec(n=48, species=(CycleSpecies(2, 3), CycleSpecies(1, 4))), seed
        ),
        lambda seed: generate_mixed_cyclic(
            MixedCyclicSpec(n=48, species=(CycleSpecies(2, 4, 0.5), CycleSpecies(1, 6, -1.0))), seed
        ),
    ],
    ids=["regular-g1", "regular-g2", "regular-g3", "poisson", "poisson-unstratified",
         "mixed-gcd1", "mixed-gcd2"],
)
def test_phase_certificate_matches_reference_on_generated_graphs(make):
    for seed in range(1, 6):
        _assert_same_certificate(make(seed))


@pytest.mark.parametrize("n", [60, 300])
@pytest.mark.parametrize("k, stratified", [(3, True), (4, True), (4, False)])
def test_phase_certificate_matches_reference_on_many_components(n, k, stratified):
    # at mean degree 0.5 most nodes sit on no cycle: dozens of components,
    # each rooted at its own lowest node
    for seed in range(1, 6):
        g = generate_poisson_cyclic(PoissonCyclicSpec(n=n, mean_degree=0.5, k=k, stratified=stratified), seed)
        _assert_same_certificate(g)


def _cycle_chain(count: int, k: int, shift: int, closing: tuple[int, ...] = ()) -> SparseDigraph:
    """``count`` k-cycles, each sharing one node with the next, then the
    cycle ``closing`` if given; chain position t is node (t + shift) mod n.
    A breadth-first search walks the chain one level per step."""
    n = count * (k - 1) + 1
    cycles = [tuple(range(c * (k - 1), c * (k - 1) + k)) for c in range(count)]
    cycles += [closing] if closing else []
    return SparseDigraph(n, [tuple((t + shift) % n for t in cyc) for cyc in cycles], [1.0] * len(cycles))


@pytest.mark.parametrize("k", [2, 3, 4])
@pytest.mark.parametrize("shift", [0, 7])
def test_phase_certificate_matches_reference_on_long_chains(k, shift):
    g = _cycle_chain(100, k, shift)
    _assert_same_certificate(g)
    assert phase_certificate(g) is not None
    # a k-cycle back from near the far end to the start, through the middle:
    # some of these close the chain at the phase it has, others do not
    found = set()
    for last in range(g.n - k - 1, g.n):
        for mid in range(g.n // 2, g.n // 2 + k):
            closed = _cycle_chain(100, k, shift, (0, last, *range(mid, mid + k - 2)))
            _assert_same_certificate(closed)
            found.add(phase_certificate(closed) is None)
    assert found == {True, False}
