import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from trochoid.boundaries import PolytrochoidParams, dense_polytrochoid
from trochoid.errors import InvalidSpecError
from trochoid.interior import (
    _CONTINUATION_STEPS,
    _DIVERGENCE_RADIUS,
    _NEWTON_MAX_ITER,
    _NEWTON_TOL,
    GridSpec,
    _residual,
    _solve_branch,
    _terms,
    interior_density,
)


def _fixed_point(z, params):
    """(h, mu, ok) at one point: the continued branch on a 5-point probe.

    mu comes from central differences over the four neighbours; it is NaN
    when a neighbour has no branch.  ok says whether z itself has one.
    """
    delta = 1e-5 * (1.0 + abs(z))
    probes = np.array([z, z + delta, z - delta, z + 1j * delta, z - 1j * delta])
    h, ok = _solve_branch(probes, params)
    hx = (h[1] - h[2]) / (2 * delta)
    hy = (h[3] - h[4]) / (2 * delta)
    mu = (hx.real - hy.imag) / (2.0 * np.pi) if ok[1:].all() else float("nan")
    return complex(h[0]), float(mu), bool(ok[0])


def _reference_solve_branch(z, params):
    """Full-array Newton continuation: every point is recomputed each iteration."""
    terms = _terms(params)
    flat_z = np.asarray(z, dtype=complex).ravel()
    h = np.conj(flat_z)
    ok = np.ones(h.shape, dtype=bool)
    for step in range(1, _CONTINUATION_STEPS + 1):
        scale = step / _CONTINUATION_STEPS
        for _ in range(_NEWTON_MAX_ITER):
            f = _residual(h, flat_z, terms, scale)
            live = ok & (np.abs(f) >= _NEWTON_TOL)
            if not live.any():
                break
            dfh = np.zeros_like(h)
            for k, rho in terms:
                dfh += scale * rho * (k - 1) * h ** (k - 2)
            denom = np.abs(dfh) ** 2 - 1.0
            singular = np.abs(denom) < 1e-12
            delta = (np.conj(f) - np.conj(dfh) * f) / np.where(singular, 1.0, denom)
            h = np.where(live & ~singular, h + delta, h)
            ok &= ~(live & singular)
            bad = ok & (~np.isfinite(h) | (np.abs(h) > _DIVERGENCE_RADIUS))
            h = np.where(bad, 0.0, h)
            ok &= ~bad
        f = _residual(h, flat_z, terms, scale)
        ok &= np.abs(f) < 100 * _NEWTON_TOL
    return h.reshape(np.shape(z)), ok.reshape(np.shape(z))


_SQUARE = np.linspace(-4, 4, 65)[None, :] + 1j * np.linspace(-4, 4, 65)[:, None]


@pytest.mark.parametrize(
    "terms, z",
    [
        ({2: 0.5}, None),
        ({3: 0.2}, None),
        ({5: 0.075}, None),
        ({3: 0.2, 4: 0.1}, None),
        # past the cusp: the grid reaches the fold, where Newton stalls
        ({3: 0.55}, None),
        # far past it on a wide square: some steps are singular, some diverge
        ({3: 2.0}, _SQUARE),
    ],
)
def test_branch_solve_matches_full_array_reference(terms, z):
    params = PolytrochoidParams(terms)
    if z is None:
        z = interior_density(params, GridSpec(resolution=64)).grid()
    h, ok = _solve_branch(z, params)
    h_ref, ok_ref = _reference_solve_branch(z, params)
    np.testing.assert_array_equal(ok, ok_ref)
    np.testing.assert_array_equal(h.view(np.uint64), h_ref.view(np.uint64))


def test_uncorrelated_fixed_point_is_conjugate():
    params = PolytrochoidParams({3: 0.0})
    for z in (0.3 + 0.1j, -0.5 + 0.4j, 0.9j, 2.0 + 1.0j):
        h, _, ok = _fixed_point(z, params)
        assert ok
        assert h == pytest.approx(np.conj(z), abs=1e-12)


def test_origin_fixed_point_is_zero():
    h, _, ok = _fixed_point(0.0 + 0.0j, PolytrochoidParams({3: 0.3}))
    assert ok
    assert abs(h) < 1e-12


def test_elliptic_fixed_point_closed_form():
    rho = 0.5
    params = PolytrochoidParams({2: rho})
    for z in (0.3 + 0.2j, -0.8 - 0.1j, 0.05 + 0.4j):
        h, mu, ok = _fixed_point(z, params)
        assert ok
        expected = z.real / (1 + rho) - 1j * z.imag / (1 - rho)
        assert h == pytest.approx(expected, abs=1e-10)
        assert mu == pytest.approx(1.0 / (np.pi * (1 - rho**2)), rel=1e-4)


def test_fixed_point_residual_meets_tolerance():
    params = PolytrochoidParams({3: 0.25, 4: 0.1})
    for z in (0.2 + 0.3j, -0.4 + 0.1j):
        h, _, ok = _fixed_point(z, params)
        assert ok
        residual = np.conj(h) + 0.25 * h**2 + 0.1 * h**3 - z
        assert abs(residual) < 1e-10


def test_modulus_approaches_one_at_the_boundary():
    rho = 0.3
    params = PolytrochoidParams({3: rho})
    for phi in (0.0, 0.7, 2.1):
        zb = np.exp(-1j * phi) + rho * np.exp(2j * phi)
        h_on, _, ok = _fixed_point(complex(zb), params)
        assert ok
        assert abs(abs(h_on) - 1.0) < 1e-6
        # step a touch inside along the ray to the centroid (origin here)
        z_in = zb * (1.0 - 1e-4 / abs(zb))
        h_in, _, ok = _fixed_point(complex(z_in), params)
        assert ok
        assert abs(abs(h_in) - 1.0) < 1e-3


def test_circular_density_uniform_and_normalized():
    field = interior_density(PolytrochoidParams({3: 0.0}), GridSpec(resolution=256))
    assert field.integral() == pytest.approx(1.0, abs=0.01)
    inside_mu = field.mu[field.inside]
    np.testing.assert_allclose(inside_mu, 1.0 / np.pi, rtol=1e-6)


def test_elliptic_density_uniform_and_normalized():
    rho = 0.5
    field = interior_density(PolytrochoidParams({2: rho}), GridSpec(resolution=256))
    assert field.integral() == pytest.approx(1.0, abs=0.01)
    inside_mu = field.mu[field.inside]
    np.testing.assert_allclose(inside_mu, 1.0 / (np.pi * (1 - rho**2)), rtol=1e-5)


def test_cubic_density_nonuniform_but_normalized():
    field = interior_density(PolytrochoidParams({3: 0.3}), GridSpec(resolution=256))
    assert field.integral() == pytest.approx(1.0, abs=0.02)
    assert field.mu[field.inside].min() >= -1e-6
    positive = field.mu[field.inside & (field.mu > 1e-9)]
    assert positive.max() / positive.min() > 1.05


def test_density_zero_outside_support():
    params = PolytrochoidParams({3: 0.2})
    field = interior_density(params, GridSpec(resolution=128))
    assert np.all(field.mu[~field.inside] == 0.0)


@pytest.mark.parametrize("terms", [{3: 0.2}, {5: 0.075}, {3: 0.2, 4: 0.1}, {2: 0.5}])
def test_density_matches_finite_difference_oracle(terms):
    # mu = 1/(pi (1 - |g'(h)|^2)) is exact at each point, so it agrees with
    # the oracle's 1e-5-wide central differences to the oracle's own accuracy
    params = PolytrochoidParams(terms)
    field = interior_density(params, GridSpec(resolution=64))
    grid = field.grid()
    for z, mu in zip(grid[field.inside][::97], field.mu[field.inside][::97]):
        _, mu_ref, ok_ref = _fixed_point(complex(z), params)
        assert ok_ref
        assert mu == pytest.approx(mu_ref, rel=1e-8)
    # h is the branch solved inside only; outside the support there is none.
    # Below the cusp it is the one root in the unit disk, which the
    # continuation reaches too, up to rounding
    h, ok = _solve_branch(grid, params)
    assert ok[field.inside].all()
    assert (np.abs(field.h[field.inside]) < 1.0).all()
    np.testing.assert_allclose(field.h[field.inside], h[field.inside], rtol=0, atol=1e-10)
    assert np.isnan(field.h[~field.inside]).all()


@pytest.mark.parametrize("terms", [{3: 0.55}, {4: 0.4}])
def test_density_past_the_fold_has_no_branch(terms):
    # a point whose Newton iterate crossed the fold (|g'(h)| >= 1) without a
    # singular step is not on the continued branch: mu = 0, h = NaN
    params = PolytrochoidParams(terms)
    field = interior_density(params, GridSpec(resolution=128))
    assert (field.mu >= 0).all()
    no_density = field.inside & (field.mu == 0)
    assert no_density.any()
    assert np.isnan(field.h[no_density]).all()
    # sum |rho_k| (k-1) >= 1: no point is certified, every branch is the continued one
    np.testing.assert_array_equal(field.continued, field.inside)
    branch = field.inside & ~no_density
    h, _ = _solve_branch(field.grid(), params)
    np.testing.assert_array_equal(field.h[branch].view(np.uint64), h[branch].view(np.uint64))


def test_uncertified_points_take_the_continued_branch():
    # at these points the one-shot Newton solve converges to a root outside
    # the unit disk (a root the continuation never reaches); the |h| < 1
    # check hands them to the continuation, which finds the one inside
    params = PolytrochoidParams({4: 0.3})
    field = interior_density(params, GridSpec(resolution=64))
    assert field.inside.sum() == 638
    assert field.continued.sum() == 16
    assert np.isfinite(field.h[field.inside]).all()
    h, ok = _solve_branch(field.grid(), params)
    at = field.continued
    assert ok[at].all()
    np.testing.assert_array_equal(field.h[at].view(np.uint64), h[at].view(np.uint64))
    assert (np.abs(field.h[at]) < 1.0).all()


@st.composite
def _certified_laws(draw):
    """1-3 terms of orders 2-7, either sign, with sum |rho_k| (k-1) <= 0.95."""
    orders = draw(st.lists(st.integers(2, 7), min_size=1, max_size=3, unique=True))
    shares = [draw(st.sampled_from([-1.0, 1.0])) * draw(st.floats(0.05, 1.0)) for _ in orders]
    total = sum(abs(w) * (k - 1) for k, w in zip(orders, shares))
    scale = draw(st.floats(0.0, 0.95)) / total
    return PolytrochoidParams({k: w * scale for k, w in zip(orders, shares)})


@settings(max_examples=50, deadline=None)
@given(params=_certified_laws())
# one grid point lies inside the sampled curve but outside the support, where
# the curve bends inward; its branch root has |h| = 1.000005
@example(params=PolytrochoidParams({6: -0.11308730699440837, 2: -0.0468306220669628}))
def test_certified_density_is_the_disk_root(params):
    field = interior_density(params, GridSpec(resolution=32))
    grid = field.grid()[field.inside]
    h = field.h[field.inside]
    assert np.isfinite(h).all()
    assert (np.abs(h) < 1.0).all()
    assert (np.abs(_residual(h, grid, _terms(params), 1.0)) <= 1e-10).all()
    h_ref, ok = _solve_branch(grid, params)
    np.testing.assert_allclose(h[ok], h_ref[ok], rtol=0, atol=1e-9)


def test_grid_spec_rejects_coarse_resolution():
    # a TrochoidError, so a caller catching the package's base error sees it
    with pytest.raises(InvalidSpecError, match="at least 8"):
        GridSpec(resolution=4)


def test_grid_spec_covers_curve_bounding_box():
    params = PolytrochoidParams({4: 0.2})
    curve = dense_polytrochoid(params)
    field = interior_density(params, GridSpec(resolution=128))
    assert field.xs.min() <= curve.z.real.min() and field.xs.max() >= curve.z.real.max()
    assert field.ys.min() <= curve.z.imag.min() and field.ys.max() >= curve.z.imag.max()


def test_outside_support_signal_on_branch_failure():
    # past the cusp threshold the boundary is a fold of the solution sheet;
    # points beyond it lose the continued branch
    params = PolytrochoidParams({3: 0.55})
    for z in (1.55 * np.exp(0.35j), 1.2 * np.exp(1j * np.pi / 3)):
        _, _, ok = _fixed_point(complex(z), params)
        assert not ok
