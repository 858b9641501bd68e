from collections import Counter

import numpy as np
import pytest
from scipy import stats

from trochoid.digraphs import (
    CycleSpecies,
    MixedCyclicSpec,
    PoissonCyclicSpec,
    RegularCyclicSpec,
    generate_mixed_cyclic,
    generate_poisson_cyclic,
    generate_regular_cyclic,
)
from trochoid.ensembles import DenseMatrix, adjacency_matrix
from trochoid.errors import InvalidSpecError
from trochoid.spectra import compute_eigenvalues, rotation_symmetry_residual


def _membership_counts(g):
    counts = Counter()
    for cyc in g.cycles:
        counts.update(cyc)
    return counts


def test_smallest_regular_graph_is_the_unique_triangle():
    g = generate_regular_cyclic(RegularCyclicSpec(n=3, d=1, k=3), seed=1)
    assert len(g.cycles) == 1
    assert sorted(g.cycles[0]) == [0, 1, 2]
    assert len(g.edges) == 3


def test_regular_divisibility_rejected():
    with pytest.raises(InvalidSpecError):
        RegularCyclicSpec(n=10, d=1, k=3)


def test_regular_membership_and_slot_partition():
    spec = RegularCyclicSpec(n=60, d=3, k=4)
    g = generate_regular_cyclic(spec, seed=5)
    assert len(g.cycles) == spec.cycle_count
    counts = _membership_counts(g)
    assert set(counts.values()) == {3}
    assert sum(counts.values()) == 3 * 60


def test_regular_row_sums_are_constant():
    g = generate_regular_cyclic(RegularCyclicSpec(n=999, d=2, k=3), seed=2)
    sums = g.row_sums()
    np.testing.assert_allclose(sums, 2.0, rtol=0, atol=0)
    # all-ones vector is an eigenvector with eigenvalue d * w
    m = adjacency_matrix(g)
    np.testing.assert_allclose(m.entries @ np.ones(999), 2.0 * np.ones(999))


def test_regular_spectrum_three_fold_symmetric():
    g = generate_regular_cyclic(RegularCyclicSpec(n=300, d=2, k=3), seed=7)
    s = compute_eigenvalues(adjacency_matrix(g))
    assert rotation_symmetry_residual(s, 3) < 1e-8


def test_regular_in_and_out_degrees_with_multiplicity():
    g = generate_regular_cyclic(RegularCyclicSpec(n=48, d=2, k=4), seed=3)
    # weight multiplicity stands in for duplicate edges
    out_deg = np.bincount(g.edges[:, 0], weights=g.edge_weights, minlength=48)
    in_deg = np.bincount(g.edges[:, 1], weights=g.edge_weights, minlength=48)
    np.testing.assert_allclose(out_deg, 2.0)
    np.testing.assert_allclose(in_deg, 2.0)


def test_regular_determinism():
    spec = RegularCyclicSpec(n=120, d=2, k=3)
    a = generate_regular_cyclic(spec, seed=9)
    b = generate_regular_cyclic(spec, seed=9)
    assert a.cycles == b.cycles
    np.testing.assert_array_equal(a.edges, b.edges)
    np.testing.assert_array_equal(a.edge_weights, b.edge_weights)


def test_poisson_counts_and_rounding():
    g = generate_poisson_cyclic(PoissonCyclicSpec(n=10, mean_degree=0.3, k=3), seed=1)
    assert len(g.cycles) == 1
    assert len(g.edges) == 3


def test_poisson_mean_degree_and_chi_square():
    spec = PoissonCyclicSpec(n=1000, mean_degree=8.0, k=3)
    g = generate_poisson_cyclic(spec, seed=4)
    counts = _membership_counts(g)
    degrees = np.array([counts.get(i, 0) for i in range(1000)])
    assert abs(degrees.mean() - 8.0) / 8.0 < 0.05
    # chi-square against the Poisson(8) pmf, tail bins pooled to keep
    # every expected count above 5
    kmax = 16
    observed = np.bincount(np.minimum(degrees, kmax), minlength=kmax + 1)
    pmf = stats.poisson(8.0).pmf(np.arange(kmax + 1))
    pmf[kmax] = 1.0 - pmf[:kmax].sum()
    lo = np.searchsorted(np.cumsum(pmf), 0.005)
    observed = np.concatenate([[observed[: lo + 1].sum()], observed[lo + 1 :]])
    expected = np.concatenate([[pmf[: lo + 1].sum()], pmf[lo + 1 :]]) * 1000
    chi2 = ((observed - expected) ** 2 / expected).sum()
    pvalue = stats.chi2(len(observed) - 1).sf(chi2)
    assert pvalue > 0.01


def test_poisson_spectrum_symmetry():
    g = generate_poisson_cyclic(PoissonCyclicSpec(n=500, mean_degree=8.0, k=5), seed=6)
    s = compute_eigenvalues(adjacency_matrix(g))
    assert rotation_symmetry_residual(s, 5) < 1e-8


def test_poisson_symmetry_survives_unequal_phase_classes():
    # 3 does not divide 400; classes differ in size but phases stay exact
    g = generate_poisson_cyclic(PoissonCyclicSpec(n=400, mean_degree=6.0, k=3), seed=6)
    s = compute_eigenvalues(adjacency_matrix(g))
    assert rotation_symmetry_residual(s, 3) < 1e-8


def test_poisson_determinism():
    spec = PoissonCyclicSpec(n=200, mean_degree=4.0, k=3)
    a = generate_poisson_cyclic(spec, seed=12)
    b = generate_poisson_cyclic(spec, seed=12)
    assert a.cycles == b.cycles
    np.testing.assert_array_equal(a.edges, b.edges)
    np.testing.assert_array_equal(a.edge_weights, b.edge_weights)


def test_mixed_cycle_census():
    spec = MixedCyclicSpec(n=12, species=(CycleSpecies(1, 3), CycleSpecies(1, 4)))
    g = generate_mixed_cyclic(spec, seed=2)
    lengths = Counter(len(c) for c in g.cycles)
    assert lengths == {3: 4, 4: 3}


def test_mixed_row_sums():
    spec = MixedCyclicSpec(n=996, species=(CycleSpecies(4, 3), CycleSpecies(4, 4)))
    g = generate_mixed_cyclic(spec, seed=1)
    np.testing.assert_allclose(g.row_sums(), 8.0)


def test_mixed_membership_per_species():
    spec = MixedCyclicSpec(n=60, species=(CycleSpecies(2, 3), CycleSpecies(1, 4)))
    g = generate_mixed_cyclic(spec, seed=8)
    per_species = {3: Counter(), 4: Counter()}
    for cyc in g.cycles:
        per_species[len(cyc)].update(cyc)
    assert set(per_species[3].values()) == {2}
    assert set(per_species[4].values()) == {1}


def test_mixed_degenerate_species_reduces_to_regular():
    spec = MixedCyclicSpec(n=30, species=(CycleSpecies(2, 3), CycleSpecies(0, 4)))
    g = generate_mixed_cyclic(spec, seed=3)
    assert all(len(c) == 3 for c in g.cycles)
    assert set(_membership_counts(g).values()) == {2}
    np.testing.assert_allclose(g.row_sums(), 2.0)


def test_mixed_rejects_equal_lengths_and_all_zero():
    with pytest.raises(InvalidSpecError):
        MixedCyclicSpec(n=12, species=(CycleSpecies(1, 3), CycleSpecies(1, 3)))
    spec = MixedCyclicSpec(n=12, species=(CycleSpecies(0, 3), CycleSpecies(0, 4)))
    with pytest.raises(InvalidSpecError):
        generate_mixed_cyclic(spec, seed=1)


@pytest.mark.parametrize(
    "spec",
    [
        lambda: RegularCyclicSpec(n=12, d=2, k=3, weight=0.0),
        lambda: PoissonCyclicSpec(n=30, mean_degree=2.0, k=3, weight=0.0),
        lambda: CycleSpecies(2, 3, weight=0.0),
    ],
    ids=["regular", "poisson", "species"],
)
def test_every_digraph_refuses_a_zero_weight(spec):
    with pytest.raises(InvalidSpecError, match="^edge weight must be nonzero$"):
        spec()


def test_mixed_common_divisor_keeps_rotation_symmetry():
    # lengths 2 and 4 share divisor 2, so the spectrum must be 2-fold symmetric
    spec = MixedCyclicSpec(n=48, species=(CycleSpecies(1, 2), CycleSpecies(1, 4)))
    g = generate_mixed_cyclic(spec, seed=5)
    s = compute_eigenvalues(adjacency_matrix(g))
    assert rotation_symmetry_residual(s, 2) < 1e-8


def test_mixed_determinism():
    spec = MixedCyclicSpec(n=24, species=(CycleSpecies(2, 3), CycleSpecies(1, 4)))
    a = generate_mixed_cyclic(spec, seed=4)
    b = generate_mixed_cyclic(spec, seed=4)
    assert a.cycles == b.cycles and a.cycle_weights == b.cycle_weights
    np.testing.assert_array_equal(a.edges, b.edges)
    np.testing.assert_array_equal(a.edge_weights, b.edge_weights)


def test_duplicate_edges_accumulate_weight():
    # two 2-cycles on the same pair must merge into double-weight edges
    found = False
    for seed in range(200):
        g = generate_regular_cyclic(RegularCyclicSpec(n=8, d=2, k=2, weight=1.0), seed=seed)
        weights = g.edge_weights
        if (weights > 1.0).any():
            found = True
            assert weights.max() == 2.0
            break
    assert found, "no duplicate pair arose in 200 seeds; generator may be miscounting"


def test_adjacency_of_regular_graph_is_traceless():
    # cycles never repeat a node, so there are no self-loops
    g = generate_regular_cyclic(RegularCyclicSpec(n=120, d=2, k=3), seed=11)
    assert np.trace(adjacency_matrix(g).entries) == 0.0


def test_poisson_rescaled_third_moment_tracks_mean_degree():
    # with edges scaled by <d>^(-1/2) the third moment lands at <d>^(-1/2);
    # uses the plain uniform assignment, whose finite-n cross-walk excess is
    # ~d^2/(3n); stratification would triple that (see the spec class docs)
    from trochoid.moments import trace_power_moment

    values = []
    for seed in range(10):
        spec = PoissonCyclicSpec(n=1000, mean_degree=8.0, k=3, stratified=False)
        m = DenseMatrix(adjacency_matrix(generate_poisson_cyclic(spec, seed)).entries * 8.0**-0.5)
        values.append(trace_power_moment(m, 3))
    assert abs(np.mean(values) - 8.0**-0.5) / 8.0**-0.5 < 0.15


def test_poisson_uniform_mode_loses_exact_symmetry():
    # documents the trade-off: the uniform ensemble is only statistically
    # symmetric, which is why stratification is the default
    spec = PoissonCyclicSpec(n=300, mean_degree=6.0, k=3, stratified=False)
    g = generate_poisson_cyclic(spec, seed=1)
    s = compute_eigenvalues(adjacency_matrix(g))
    assert rotation_symmetry_residual(s, 3) > 1e-6


def test_unstratified_regular_repair_succeeds():
    # gcd(3, 10) = 1 forces the plain shuffle; repeated-node tuples must be
    # repaired away without touching membership counts
    g = generate_regular_cyclic(RegularCyclicSpec(n=10, d=3, k=3), seed=4)
    assert all(len(set(c)) == 3 for c in g.cycles)
    assert set(_membership_counts(g).values()) == {3}
    again = generate_regular_cyclic(RegularCyclicSpec(n=10, d=3, k=3), seed=4)
    assert again.cycles == g.cycles


def test_stratified_repair_with_long_cycles():
    # lengths 2 and 4 stratify on two phases, so 4-cycles take two slots per
    # class and can collide before repair
    spec = MixedCyclicSpec(n=24, species=(CycleSpecies(1, 2), CycleSpecies(3, 4)))
    g = generate_mixed_cyclic(spec, seed=7)
    assert all(len(set(c)) == len(c) for c in g.cycles)
    per_species = {2: Counter(), 4: Counter()}
    for cyc in g.cycles:
        per_species[len(cyc)].update(cyc)
    assert set(per_species[2].values()) == {1}
    assert set(per_species[4].values()) == {3}
