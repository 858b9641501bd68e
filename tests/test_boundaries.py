import numpy as np
import pytest

from trochoid.boundaries import (
    BoundaryCurve,
    HypotrochoidParams,
    MixedCycleParams,
    PolytrochoidParams,
    SparseCyclicParams,
    SweepRecord,
    dense_hypotrochoid,
    dense_polytrochoid,
    mixed_cycle_asymptotic,
    mixed_cycle_boundary,
    segment_depth_residual,
    solve_segment_depth,
    sparse_hypotrochoid,
)
from trochoid.errors import ContinuationError, InvalidSpecError

GOLDEN_T_1_3 = 0.7861513777574233  # sqrt((sqrt(5) - 1) / 2)


def test_dense_point_evaluation():
    curve = dense_hypotrochoid(HypotrochoidParams(k=3, rho=0.5))
    assert curve.z[0] == pytest.approx(1.5, abs=1e-15)


def test_dense_k2_is_the_classical_ellipse():
    rho = 0.3
    curve = dense_hypotrochoid(HypotrochoidParams(k=2, rho=rho), 2048)
    x, y = curve.z.real, curve.z.imag
    assert x.max() == pytest.approx(1 + rho, abs=1e-6)
    assert abs(y).max() == pytest.approx(1 - rho, abs=1e-6)
    # an ellipse with those semi-axes has foci at +-2 sqrt(rho)
    c = 2 * np.sqrt(rho)
    assert np.sqrt((1 + rho) ** 2 - (1 - rho) ** 2) == pytest.approx(c, abs=1e-12)
    on_ellipse = (x / (1 + rho)) ** 2 + (y / (1 - rho)) ** 2
    np.testing.assert_allclose(on_ellipse, 1.0, atol=1e-12)


def test_minimum_sample_count_enforced():
    with pytest.raises(InvalidSpecError):
        dense_hypotrochoid(HypotrochoidParams(k=3, rho=0.1), 100)


def test_curve_holds_any_length_but_pairs_each_angle_with_a_point():
    assert len(BoundaryCurve(np.zeros(10), np.zeros(10, dtype=complex)).polygon()) == 11
    with pytest.raises(InvalidSpecError, match="sample counts differ"):
        BoundaryCurve(np.zeros(10), np.zeros(9, dtype=complex))


def test_polytrochoid_single_term_matches_hypotrochoid():
    poly = dense_polytrochoid(PolytrochoidParams({4: 0.2}))
    hypo = dense_hypotrochoid(HypotrochoidParams(k=4, rho=0.2))
    np.testing.assert_array_equal(poly.z, hypo.z)


def test_polytrochoid_zero_strengths_is_unit_circle():
    curve = dense_polytrochoid(PolytrochoidParams({3: 0.0, 4: 0.0}))
    np.testing.assert_allclose(np.abs(curve.z), 1.0, atol=1e-15)


def test_polytrochoid_point_evaluation():
    curve = dense_polytrochoid(PolytrochoidParams({3: 0.2, 4: 0.2}))
    assert curve.z[0] == pytest.approx(1.4, abs=1e-15)


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("rho", [0.075, 0.3, -0.2])
def test_k_fold_rotation_symmetry_at_machine_precision(k, rho):
    params = HypotrochoidParams(k=k, rho=rho)
    phi = np.linspace(0, 2 * np.pi, 97)

    def z(p):
        return np.exp(-1j * p) + rho * np.exp(1j * (k - 1) * p)

    lhs = z(phi + 2 * np.pi / k)
    rhs = np.exp(-2j * np.pi / k) * z(phi)
    np.testing.assert_allclose(lhs, rhs, atol=5e-15)
    curve = dense_hypotrochoid(params)
    assert len(curve.z) >= 512


def test_segment_depth_golden_value():
    t = solve_segment_depth(1.0, 3)
    assert t == pytest.approx(GOLDEN_T_1_3, abs=1e-12)
    assert t * t == pytest.approx((np.sqrt(5) - 1) / 2, abs=1e-12)


def test_segment_depth_k2_closed_form():
    for d_hat in (0.5, 1.0, 4.0, 9.0):
        assert solve_segment_depth(d_hat, 2) == pytest.approx(d_hat**-0.5, abs=1e-14)


def test_segment_depth_large_degree_asymptotics():
    t = solve_segment_depth(1e4, 3)
    assert abs(t - 0.01) / 0.01 < 0.01


@pytest.mark.parametrize("d_hat", [0.5, 1.0, 2.0, 8.0, 100.0])
@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_segment_depth_satisfies_both_equation_forms(d_hat, k):
    t = solve_segment_depth(d_hat, k)
    assert abs(segment_depth_residual(t, d_hat, k)) < 1e-12
    polynomial = d_hat * t ** (2 * k) - (d_hat + 1.0) * t**2 + 1.0
    assert abs(polynomial) < 1e-10


def test_sparse_point_evaluation():
    curve = sparse_hypotrochoid(SparseCyclicParams(d_hat=1.0, k=3))
    assert curve.z[0].real == pytest.approx(1.8900536382639637, abs=1e-10)
    assert curve.z[0].imag == pytest.approx(0.0, abs=1e-15)


def test_sparse_k2_collapses_to_a_real_interval():
    d_hat = 3.0
    curve = sparse_hypotrochoid(SparseCyclicParams(d_hat=d_hat, k=2), 2048)
    np.testing.assert_allclose(curve.z.imag, 0.0, atol=1e-12)
    assert curve.z.real.max() == pytest.approx(2 * np.sqrt(d_hat), abs=1e-6)
    expected = 2 * np.sqrt(d_hat) * np.cos(curve.phis)
    np.testing.assert_allclose(curve.z.real, expected, atol=1e-12)


def test_sparse_weight_scales_curve():
    base = sparse_hypotrochoid(SparseCyclicParams(d_hat=2.0, k=3, weight=1.0))
    scaled = sparse_hypotrochoid(SparseCyclicParams(d_hat=2.0, k=3, weight=2.5))
    np.testing.assert_allclose(scaled.z, 2.5 * base.z, rtol=1e-15)


def test_sparse_large_degree_matches_dense_after_rescale():
    # after scaling edges by d_hat^(-1/2) the sparse law approaches the dense
    # law with strength d_hat^(-1/2) (order 3 case)
    d_hat = 400.0
    sparse = sparse_hypotrochoid(SparseCyclicParams(d_hat=d_hat, k=3), 1024)
    dense = dense_hypotrochoid(HypotrochoidParams(k=3, rho=d_hat**-0.5), 1024)
    deviation = np.abs(sparse.z * d_hat**-0.5 - dense.z).max()
    assert deviation < 0.01


@pytest.mark.parametrize("d_hat", [0.3, 1.0, 8.0])
@pytest.mark.parametrize("k", [2, 3, 5])
@pytest.mark.parametrize("weight", [1.0, -0.5])
def test_sparse_law_is_a_scaled_hypotrochoid(d_hat, k, weight):
    # at any degree: the hypotrochoid with rho = d_hat t^k, scaled by w / t
    sparse = sparse_hypotrochoid(SparseCyclicParams(d_hat=d_hat, k=k, weight=weight), 512)
    t = sparse.law.t
    dense = dense_hypotrochoid(HypotrochoidParams(k=k, rho=d_hat * t**k), 512)
    # k = 2 is a segment through 0, where only an absolute tolerance can hold
    scale = np.abs(sparse.z).max()
    np.testing.assert_allclose(sparse.z, (weight / t) * dense.z, rtol=1e-14, atol=1e-14 * scale)


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"d_hat": 0.0, "k": 3}, "d_hat must be positive, got 0.0"),
        ({"d_hat": -1.0, "k": 3}, "d_hat must be positive, got -1.0"),
        ({"d_hat": 1.0, "k": 1}, "cycle length must be >= 2, got 1"),
        ({"d_hat": 1.0, "k": 3, "weight": 0.0}, "edge weight must be nonzero"),
    ],
    ids=["d_hat-0", "d_hat-negative", "k-1", "weight-0"],
)
def test_sparse_law_refusals(fields, message):
    # a zero weight would collapse the curve to the origin, whose mean radius
    # of 0 turns the containment report's relative violations into NaN
    with pytest.raises(InvalidSpecError) as refused:
        SparseCyclicParams(**fields)
    assert str(refused.value) == message


def curve_turning_number(params: HypotrochoidParams, n_samples: int = 65536) -> int:
    """Net turns of the hypotrochoid's tangent over one sweep; -1 until loops develop."""
    phi = np.linspace(0.0, 2.0 * np.pi, n_samples, endpoint=False)
    vel = -1j * np.exp(-1j * phi) + 1j * params.rho * (params.k - 1) * np.exp(
        1j * (params.k - 1) * phi
    )
    rot = vel / np.roll(vel, 1)
    return int(round(np.angle(rot).sum() / (2.0 * np.pi)))


def has_cusps(params: HypotrochoidParams) -> bool:
    """Whether the hypotrochoid has entered the cusped/looped regime.

    Happens once |rho| * (k - 1) reaches 1: the tangent momentarily vanishes
    at threshold and the curve develops self-intersecting loops beyond it,
    changing the tangent's net turning.
    """
    return curve_turning_number(params) != -1


@pytest.mark.parametrize("k", [3, 4, 5])
def test_cusp_threshold_detection(k):
    threshold = 1.0 / (k - 1)
    assert not has_cusps(HypotrochoidParams(k=k, rho=threshold - 1e-3))
    assert has_cusps(HypotrochoidParams(k=k, rho=threshold + 1e-3))


# --- two-species solver ---------------------------------------------------

FIG4 = MixedCycleParams(d1=4, k1=3, w1=1.0, d2=4, k2=4, w2=1.0)


def test_mixed_symmetric_angle_is_exactly_zero():
    assert mixed_cycle_boundary(FIG4, 512).states[0, 2] == 0.0


def test_mixed_degenerate_species_matches_single_cycle_depth():
    params = MixedCycleParams(d1=3, k1=3, w1=1.0, d2=0, k2=4, w2=1.0)
    t1 = mixed_cycle_boundary(params, 512).states[0, 0]
    assert t1 == pytest.approx(solve_segment_depth(2.0, 3), abs=1e-10)


def test_mixed_large_degree_asymptotics():
    params = MixedCycleParams(d1=50, k1=3, w1=1.0, d2=50, k2=4, w2=1.0)
    target = 1.0 / np.sqrt(100.0)
    curve = mixed_cycle_boundary(params, 512)
    t1, t2, phi2 = curve.states.T
    assert np.abs(t1 - target).max() / target < 0.02
    assert np.abs(t2 - target).max() / target < 0.02
    assert np.abs(phi2 - curve.phis).max() < 0.02


def test_mixed_residual_small_along_continuation():
    from trochoid.boundaries import _mixed_system

    curve = mixed_cycle_boundary(FIG4, 512)
    assert curve.states.shape == (512, 3)
    for phi1, x in zip(curve.phis, curve.states):
        assert np.linalg.norm(_mixed_system(FIG4, phi1, x)[0]) < 1e-10


def test_mixed_boundary_closes_and_is_finite():
    curve = mixed_cycle_boundary(FIG4, 512)
    assert len(curve.z) == 512
    assert np.isfinite(curve.z).all()
    # wrap-around continuity: the last sample must sit next to the first
    gap = abs(curve.z[0] - curve.z[-1])
    step = abs(curve.z[1] - curve.z[0])
    assert gap < 10 * step


def test_mixed_boundary_reduces_to_sparse_hypotrochoid():
    params = MixedCycleParams(d1=3, k1=3, w1=1.0, d2=0, k2=4, w2=1.0)
    mixed = mixed_cycle_boundary(params, 512)
    single = sparse_hypotrochoid(SparseCyclicParams(d_hat=2.0, k=3), 512)
    np.testing.assert_allclose(mixed.z, single.z, atol=1e-8)


def test_mixed_asymptotic_point_value():
    curve = mixed_cycle_asymptotic(FIG4, 512)
    dbar = np.sqrt(8.0)
    expected = dbar + 4.0 / dbar**2 + 4.0 / dbar**3
    assert curve.z[0].real == pytest.approx(expected, abs=1e-12)
    assert expected == pytest.approx(3.5052038, abs=1e-6)


def test_mixed_asymptotic_degenerate_species():
    # with one species the coefficients collapse to sqrt(d1) and d1^((3-k1)/2),
    # matching the large-degree limit of the single-species law
    params = MixedCycleParams(d1=4, k1=3, w1=1.0, d2=0, k2=4, w2=1.0)
    curve = mixed_cycle_asymptotic(params, 512)
    phi = curve.phis
    expected = np.sqrt(4.0) * np.exp(-1j * phi) + 4.0 ** ((3 - 3) / 2) * np.exp(2j * phi)
    np.testing.assert_allclose(curve.z, expected, atol=1e-12)
    # consistency with the single-species law at large degree, edge-rescaled
    big = MixedCycleParams(d1=400, k1=3, w1=1.0, d2=0, k2=4, w2=1.0)
    asym = mixed_cycle_asymptotic(big, 512)
    single = sparse_hypotrochoid(SparseCyclicParams(d_hat=399.0, k=3), 512)
    radius = np.abs(single.z - single.z.mean()).max()
    assert np.abs(asym.z - single.z).max() / radius < 0.01


@pytest.mark.parametrize(
    "species",
    [(4, 3, 1.0, 4, 4, 1.0), (2, 5, 0.7, 3, 3, -1.3), (1, 4, -1.0, 0, 2, 1.0), (3, 2, 1.0, 2, 6, 0.5)],
    ids=["fig4", "k1>k2", "one-species", "k1=2"],
)
def test_mixed_asymptotic_is_a_scaled_polytrochoid(species):
    # d_bar times the polytrochoid with rho_r = d_r (w_r / d_bar)^k_r
    d1, k1, w1, d2, k2, w2 = species
    asym = mixed_cycle_asymptotic(MixedCycleParams(*species), 512)
    dbar = np.sqrt(d1 * w1**2 + d2 * w2**2)
    terms = {k1: d1 * (w1 / dbar) ** k1, k2: d2 * (w2 / dbar) ** k2}
    poly = dense_polytrochoid(PolytrochoidParams(terms), 512)
    np.testing.assert_allclose(asym.z, dbar * poly.z, rtol=1e-14)


def test_mixed_asymptotic_agrees_with_full_solver_at_large_degree():
    params = MixedCycleParams(d1=100, k1=3, w1=1.0, d2=100, k2=4, w2=1.0)
    full = mixed_cycle_boundary(params, 512)
    approx = mixed_cycle_asymptotic(params, 512)
    radius = np.abs(approx.z - approx.z.mean()).max()
    assert np.abs(full.z - approx.z).max() / radius < 0.01


def test_mixed_unsolvable_configuration_raises_continuation_error():
    # a single species with one cycle per node leaves the depth condition
    # unsatisfiable: (d1 - 1) * sum = 1 has no root when d1 == 1
    params = MixedCycleParams(d1=1, k1=3, w1=1.0, d2=0, k2=4, w2=1.0)
    with pytest.raises(ContinuationError, match="seed"):
        mixed_cycle_boundary(params, 512)


@pytest.mark.parametrize(
    "species, winds",
    [
        ((2, 3, 0.7, 1, 4, 1.3), False),
        ((2, 4, 0.5, 1, 6, 1.0), False),
        ((2, 3, 0.7, 1, 4, -1.3), False),
        ((2, 4, 0.5, 1, 6, -1.0), False),
        ((2, 3, 1.0, 1, 4, 1.0), True),
        ((2, 3, 0.7, 2, 4, 1.3), True),
    ],
)
def test_mixed_sweep_must_wind_once_about_the_origin(species, winds):
    # past a fold the continuation can arrive at another real root and close
    # a curve that misses the origin; that sweep is refused, not returned
    params = MixedCycleParams(*species)
    if winds:
        assert mixed_cycle_boundary(params, 512).states.shape == (512, 3)
    else:
        with pytest.raises(ContinuationError, match="winds 0 times"):
            mixed_cycle_boundary(params, 512)


# the fast path (coarse sweep, batched refine) against the per-sample sweep
# it falls back to; the last five would change outcome if the coarse sweep
# were trusted without its doubts, and on the last two the refine alone
# lands with phi2 a turn (or many) away from the per-sample sweep's
PARITY_LAWS = {
    "fig4": ((4, 3, 1.0, 4, 4, 1.0), 1024),
    "fig4-w2-neg": ((4, 3, 1.0, 4, 4, -1.0), 1024),
    "d2-1-k2-4": ((2, 3, 1.0, 1, 4, 1.0), 1024),
    "weighted": ((2, 3, 0.7, 2, 4, 1.3), 1024),
    "d1-1-k2-6": ((1, 3, 1.0, 1, 6, 1.3), 1024),
    # a checked fast curve that winds 0 times: refused at once, with the
    # per-sample sweep's message
    "winds-0": ((1, 3, 1.0, 1, 4, 1.3), 1024),
    "k1-4-w2-neg": ((2, 4, 1.0, 1, 3, -1.3), 1024),
    "d1-1-k1-4": ((1, 4, 1.0, 1, 3, 1.0), 1024),
    "k1-2": ((2, 2, 1.0, 1, 3, 1.3), 1024),
    "k1-4-w2-pos": ((2, 4, 1.0, 1, 3, 1.3), 1024),
    "d2-0": ((2, 3, 1.0, 0, 3, 1.0), 1024),
    "d2-1-k2-4-coarse": ((2, 3, 1.0, 1, 4, 1.0), 512),
}


@pytest.mark.parametrize("species, n_samples", PARITY_LAWS.values(), ids=PARITY_LAWS.keys())
def test_fast_path_has_the_per_sample_sweeps_outcome(species, n_samples):
    from trochoid.boundaries import _mixed_boundary

    params = MixedCycleParams(*species)
    outcomes = []
    for coarse in (True, False):
        try:
            outcomes.append(_mixed_boundary(params, n_samples, coarse))
        except ContinuationError as exc:
            outcomes.append(str(exc))
    fast, per_sample = outcomes
    if isinstance(per_sample, str):
        assert fast == per_sample
    else:
        assert not isinstance(fast, str), fast
        np.testing.assert_allclose(fast.states, per_sample.states, rtol=0, atol=1e-9)


def test_doubt_sends_the_law_to_the_per_sample_sweep():
    # on a coarse grid of 32 steps the refine of this law lands with phi2
    # turns away from the per-sample sweep's, which the predecessor check sees
    sweep = mixed_cycle_boundary(MixedCycleParams(2, 3, 1.0, 1, 4, 1.0), 512).sweep
    assert sweep.coarse_steps == 32
    assert sweep.fallback == "a refined sample is not the step from its predecessor"


def test_a_failed_coarse_step_sends_the_law_to_the_halving_sweep():
    # the coarse sweep solves 34 whole steps; the per-sample sweep then
    # halves its step 8 times, summed over the intervals that needed it
    sweep = mixed_cycle_boundary(MixedCycleParams(1, 4, 1.0, 1, 3, 1.0), 1024).sweep
    assert sweep == SweepRecord(34, 8, "a coarse step needed a halving")


def test_a_stalled_sweep_names_the_angle_and_its_last_good_one():
    with pytest.raises(ContinuationError) as stalled:
        mixed_cycle_boundary(MixedCycleParams(1, 2, 1.0, 1, 3, 0.5), 512)
    assert str(stalled.value) == "continuation stalled at phi1 = 0.424481"
    assert stalled.value.last_good_phi == 0.42443330924810835


def test_a_diverging_coarse_step_warns_nothing():
    # the coarse sweep's whole steps overflow on this law before it falls
    # back; the CLI's stderr must carry the refusal alone
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ContinuationError, match="stalled"):
            mixed_cycle_boundary(MixedCycleParams(1, 3, 1.0, 1, 6, 0.5), 1024)


def test_batched_newton_matches_one_state_at_a_time():
    from trochoid.boundaries import _newton_mixed

    curve = mixed_cycle_boundary(FIG4, 512)
    phi, guess = curve.phis[1::7], curve.states[:-1:7] * 1.01
    batch, ok = _newton_mixed(FIG4, phi, guess)
    assert ok.all()
    for angle, start, x in zip(phi, guess, batch):
        alone, converged = _newton_mixed(FIG4, angle, start)
        assert converged
        np.testing.assert_allclose(x, alone, rtol=0, atol=1e-12)


DEGENERATE_MIXED = {
    "d1-0-k4": ((0, 4, 1.0, 3, 3, 1.0), "list the species with cycles first"),
    "d1-0-k3": ((0, 3, 1.0, 4, 4, 1.0), "list the species with cycles first"),
    "segment-w0.5": ((2, 2, 1.0, 0, 3, 0.5), "segment"),
    "segment-w1": ((2, 2, 1.0, 0, 3, 1.0), "segment"),
}


@pytest.mark.parametrize("species, reason", DEGENERATE_MIXED.values(), ids=DEGENERATE_MIXED.keys())
def test_degenerate_mixed_laws_are_refused_as_specs(species, reason):
    # d1 = 0 stalls the sweep while the swapped order solves, and 2-cycles
    # alone draw a real segment whose winding number is a rounding accident
    params = MixedCycleParams(*species)
    with pytest.raises(InvalidSpecError, match=reason):
        mixed_cycle_boundary(params, 512)
    # the large-degree closed form needs no seed and stays available
    assert np.isfinite(mixed_cycle_asymptotic(params, 512).z).all()


def test_mixed_asymptotic_rejects_empty_mixture():
    with pytest.raises(InvalidSpecError):
        MixedCycleParams(d1=0, k1=3, w1=1.0, d2=0, k2=4, w2=1.0)


def test_mixed_boundary_with_unequal_weights():
    params = MixedCycleParams(d1=3, k1=3, w1=1.0, d2=2, k2=4, w2=2.0)
    curve = mixed_cycle_boundary(params, 512)
    assert np.isfinite(curve.z).all()
    big = MixedCycleParams(d1=80, k1=3, w1=1.0, d2=60, k2=4, w2=2.0)
    full = mixed_cycle_boundary(big, 512)
    approx = mixed_cycle_asymptotic(big, 512)
    radius = np.abs(approx.z - approx.z.mean()).max()
    assert np.abs(full.z - approx.z).max() / radius < 0.01
