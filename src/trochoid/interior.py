"""Interior spectral density for dense cyclic ensembles.

Inside the support, the normalized resolvent trace h(z) solves

    z = conj(h) + sum_k rho_k * h^(k-1)

on the branch reached by switching the correlations on gradually from the
uncorrelated solution h = conj(z).  Differentiating that equation with
respect to z* gives d h / d z* = 1 / (1 - |g'(h)|^2), where
g(h) = sum_k rho_k * h^(k-1), so the density per unit area,
(1/pi) * d h / d z*, needs h at the point itself only.  The support edge is
characterized by |h| = 1.

Below the cusp threshold, L = sum_k |rho_k| (k-1) < 1, that branch needs no
continuation where a root is found in the unit disk: there |g'| <= L, so
Phi(h) = conj(h) + g(h) satisfies |Phi(h1) - Phi(h2)| >= (1 - L) |h1 - h2|,
and a point inside the support has exactly one root with |h| < 1, the one
the continuation tracks.  ``interior_density`` therefore runs one Newton
solve at full strength on every inside point and keeps each root that
converges with |h| < 1; only the rest (the solve stalled, or landed on a
root outside the disk) are continued.  Past the threshold every inside
point is continued.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .boundaries import PolytrochoidParams, dense_polytrochoid
from .errors import InvalidSpecError
from .geometry import contains

_CONTINUATION_STEPS = 32
_NEWTON_TOL = 1e-12
_NEWTON_MAX_ITER = 50
_DIVERGENCE_RADIUS = 1e6
_PADDING = 0.02


@dataclass(frozen=True)
class GridSpec:
    """Rectangular evaluation grid over the boundary's bounding box.

    ``resolution`` counts steps across the bounding-box diagonal; the box is
    widened by ``_PADDING`` (2 %) of its larger side on every side.
    """

    resolution: int = 256

    def __post_init__(self):
        if self.resolution < 8:
            raise InvalidSpecError(f"resolution must be at least 8, got {self.resolution}")


@dataclass
class DensityField:
    """Density samples on a rectangular grid.

    Inside the support mu = 1 / (pi * (1 - |g'(h)|^2)).  mu is 0 and h is NaN
    outside the support and at inside points with no branch: Newton failed,
    or it converged past the fold (|g'(h)| >= 1).
    """

    xs: np.ndarray
    ys: np.ndarray
    mu: np.ndarray  # shape (len(ys), len(xs))
    inside: np.ndarray
    h: np.ndarray
    continued: np.ndarray  # inside points the one-shot Newton solve did not certify

    def grid(self) -> np.ndarray:
        return self.xs[None, :] + 1j * self.ys[:, None]

    def integral(self) -> float:
        dx = self.xs[1] - self.xs[0]
        dy = self.ys[1] - self.ys[0]
        return float(self.mu.sum() * dx * dy)


def _terms(params: PolytrochoidParams) -> list[tuple[int, float]]:
    return sorted(params.terms.items())


def _residual(h: np.ndarray, z: np.ndarray, terms, scale: float) -> np.ndarray:
    f = np.conj(h) - z
    for k, rho in terms:
        f = f + scale * rho * h ** (k - 1)
    return f


def _slope(h: np.ndarray, terms, scale: float) -> np.ndarray:
    """g'(h) at correlation scale ``scale``: sum_k scale * rho_k * (k-1) * h^(k-2)."""
    dfh = np.zeros_like(h)
    for k, rho in terms:
        dfh += scale * rho * (k - 1) * h ** (k - 2)
    return dfh


def _newton(
    h: np.ndarray, z: np.ndarray, ok: np.ndarray, terms, scale: float, iterations: int
) -> tuple[np.ndarray, np.ndarray]:
    """Newton at correlation ``scale`` on the points still ``ok``; returns h and the last residual.

    Points whose iteration diverges or hits a fold (singular linearization)
    leave ``ok``, which is updated in place.  Once fewer than 1/8 of the
    points are live, the rest of the iterations run on the live ones alone:
    each point's arithmetic is elementwise, so this gives the same h.
    """
    for iteration in range(iterations):
        f = _residual(h, z, terms, scale)
        live = ok & (np.abs(f) >= _NEWTON_TOL)
        if not live.any():
            return h, f
        # not on the first pass: it screens every ok point for divergence,
        # and the points it leaves behind do not move again
        if iteration and 8 * np.count_nonzero(live) < len(h):
            sel = np.flatnonzero(live)
            sub_ok = ok[sel]
            h[sel], f[sel] = _newton(h[sel], z[sel], sub_ok, terms, scale, iterations - iteration)
            ok[sel] = sub_ok
            return h, f
        dfh = _slope(h, terms, scale)
        # Newton step for the non-holomorphic system: with A = dF/dh and
        # dF/dconj(h) = 1, the increment is (conj(F) - conj(A) F)/(|A|^2 - 1)
        denom = np.abs(dfh) ** 2 - 1.0
        singular = np.abs(denom) < 1e-12
        delta = (np.conj(f) - np.conj(dfh) * f) / np.where(singular, 1.0, denom)
        h = np.where(live & ~singular, h + delta, h)
        ok &= ~(live & singular)
        bad = ok & (~np.isfinite(h) | (np.abs(h) > _DIVERGENCE_RADIUS))
        h = np.where(bad, 0.0, h)
        ok &= ~bad
    # out of iterations: the residual after the last update
    return h, _residual(h, z, terms, scale)


def _solve_branch(
    z: np.ndarray, params: PolytrochoidParams, steps: int = _CONTINUATION_STEPS
) -> tuple[np.ndarray, np.ndarray]:
    """Continue h from the uncorrelated solution conj(z) on an array of points.

    The correlations are switched on in ``steps`` equal steps; one step is a
    plain Newton solve at full strength from conj(z).  Returns (h, ok).
    Points whose Newton iteration diverges, stalls, or hits a fold (singular
    linearization) are marked not-ok.  Each point's arithmetic is
    elementwise, so its result does not depend on the other points in ``z``.
    """
    terms = _terms(params)
    flat_z = np.asarray(z, dtype=complex).ravel()
    h = np.conj(flat_z)
    ok = np.ones(h.shape, dtype=bool)
    for step in range(1, steps + 1):
        h, f = _newton(h, flat_z, ok, terms, step / steps, _NEWTON_MAX_ITER)
        ok &= np.abs(f) < 100 * _NEWTON_TOL
    return h.reshape(np.shape(z)), ok.reshape(np.shape(z))


def interior_density(params: PolytrochoidParams, grid_spec: GridSpec = GridSpec()) -> DensityField:
    """Density field on a grid covering the support predicted by ``params``.

    The support is bounded by ``dense_polytrochoid(params)``.  The branch is
    solved only at grid points inside that curve, and mu there is the exact
    1 / (pi * (1 - |g'(h)|^2)); see ``DensityField``.

    Below the cusp threshold (see the module docstring) a point whose
    one-shot Newton root converges with |h| < 1 keeps it, since that root is
    the only one in the unit disk.  The other points, and every inside point
    of a law past the threshold, take the full continuation;
    ``DensityField.continued`` marks them.  Below the threshold a continued
    root outside the disk puts its point outside the support, though inside
    the sampled curve, so the point is not counted inside.
    """
    poly = dense_polytrochoid(params).polygon()
    xlo, xhi = poly.real.min(), poly.real.max()
    ylo, yhi = poly.imag.min(), poly.imag.max()
    pad = _PADDING * max(xhi - xlo, yhi - ylo)
    xlo, xhi, ylo, yhi = xlo - pad, xhi + pad, ylo - pad, yhi + pad
    diag = np.hypot(xhi - xlo, yhi - ylo)
    step = diag / grid_spec.resolution
    xs = np.arange(xlo, xhi + step, step)
    ys = np.arange(ylo, yhi + step, step)
    zgrid = xs[None, :] + 1j * ys[:, None]
    inside = contains(zgrid.ravel(), poly).reshape(zgrid.shape)

    terms = _terms(params)
    z_in = zgrid[inside]
    below_cusp = sum(abs(rho) * (k - 1) for k, rho in terms) < 1.0
    if below_cusp:
        h_in, ok = _solve_branch(z_in, params, steps=1)
        ok &= np.abs(h_in) < 1.0  # the only root in the unit disk: the branch
    else:
        h_in, ok = np.empty_like(z_in), np.zeros(z_in.shape, dtype=bool)
    uncertified = ~ok
    if uncertified.any():
        h_in[uncertified], ok[uncertified] = _solve_branch(z_in[uncertified], params)
    if below_cusp:
        # where the curve bends inward, the sampled polygon's chords pass
        # outside it: a point there has its branch outside the disk
        keep = ~ok | (np.abs(h_in) < 1.0)
        inside[inside] = keep
        h_in, ok, uncertified = h_in[keep], ok[keep], uncertified[keep]
    slope = np.abs(_slope(h_in, terms, 1.0))
    ok &= slope < 1.0  # past the fold there is no branch
    h = np.full(zgrid.shape, np.nan + 0j)
    h[inside] = np.where(ok, h_in, np.nan)
    mu = np.zeros(zgrid.shape)
    mu[inside] = np.divide(1.0, np.pi * (1.0 - slope**2), out=np.zeros(slope.shape), where=ok)
    continued = np.zeros(zgrid.shape, dtype=bool)
    continued[inside] = uncertified
    return DensityField(xs=xs, ys=ys, mu=mu, inside=inside, h=h, continued=continued)
