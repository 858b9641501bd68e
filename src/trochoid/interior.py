"""Interior spectral density for dense cyclic ensembles.

Inside the support, the normalized resolvent trace h(z) solves

    z = conj(h) + sum_k rho_k * h^(k-1)

on the branch reached by switching the correlations on gradually from the
uncorrelated solution h = conj(z); at each continuation step Newton runs
only on the points that have not yet converged.  The density per unit area
is then (1/pi) * d h / d z*, evaluated by finite differences, and the
support edge is characterized by |h| = 1.
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
    """Density samples on a rectangular grid; mu is 0 outside the support."""

    xs: np.ndarray
    ys: np.ndarray
    mu: np.ndarray  # shape (len(ys), len(xs))
    inside: np.ndarray
    h: np.ndarray

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


def _solve_branch(z: np.ndarray, params: PolytrochoidParams) -> tuple[np.ndarray, np.ndarray]:
    """Continue h from the uncorrelated solution conj(z) on an array of points.

    Returns (h, ok).  Points whose Newton iteration diverges, stalls, or hits
    a fold (singular linearization) are marked not-ok.  Within a continuation
    step Newton runs only on the points that have not yet converged: each
    point gets the same arithmetic as if iterated alone, so its result does
    not depend on the other points in ``z``.
    """
    terms = _terms(params)
    flat_z = np.asarray(z, dtype=complex).ravel()
    h = np.conj(flat_z)
    ok = np.ones(h.shape, dtype=bool)
    for step in range(1, _CONTINUATION_STEPS + 1):
        scale = step / _CONTINUATION_STEPS
        idx = np.flatnonzero(ok)
        for _ in range(_NEWTON_MAX_ITER):
            hl = h[idx]
            f = _residual(hl, flat_z[idx], terms, scale)
            live = np.abs(f) >= _NEWTON_TOL
            idx, hl, f = idx[live], hl[live], f[live]
            if idx.size == 0:
                break
            dfh = np.zeros_like(hl)
            for k, rho in terms:
                dfh += scale * rho * (k - 1) * hl ** (k - 2)
            # Newton step for the non-holomorphic system: with A = dF/dh and
            # dF/dconj(h) = 1, the increment is (conj(F) - conj(A) F)/(|A|^2 - 1)
            denom = np.abs(dfh) ** 2 - 1.0
            singular = np.abs(denom) < 1e-12
            delta = (np.conj(f) - np.conj(dfh) * f) / np.where(singular, 1.0, denom)
            ok[idx[singular]] = False
            idx, hl = idx[~singular], (hl + delta)[~singular]
            bad = ~np.isfinite(hl) | (np.abs(hl) > _DIVERGENCE_RADIUS)
            h[idx] = np.where(bad, 0.0, hl)
            ok[idx[bad]] = False
            idx = idx[~bad]
        f = _residual(h, flat_z, terms, scale)
        ok &= np.abs(f) < 100 * _NEWTON_TOL
    return h.reshape(np.shape(z)), ok.reshape(np.shape(z))


def interior_density(params: PolytrochoidParams, grid_spec: GridSpec = GridSpec()) -> DensityField:
    """Density field on a grid covering the support predicted by ``params``.

    The support is bounded by ``dense_polytrochoid(params)``.  mu is set to 0
    outside that curve; inside, it comes from central finite differences of
    the continued branch h.
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

    h, ok = _solve_branch(zgrid, params)
    inside = contains(zgrid.ravel(), poly).reshape(zgrid.shape)

    h = np.where(ok, h, np.nan + 0j)
    hx = np.full_like(h, np.nan)
    hy = np.full_like(h, np.nan)
    hx[:, 1:-1] = (h[:, 2:] - h[:, :-2]) / (2 * step)
    hy[1:-1, :] = (h[2:, :] - h[:-2, :]) / (2 * step)
    # one-sided fallback where a neighbor failed
    fwd = (np.roll(h, -1, axis=1) - h) / step
    bwd = (h - np.roll(h, 1, axis=1)) / step
    hx = np.where(np.isfinite(hx), hx, np.where(np.isfinite(fwd), fwd, bwd))
    fwd = (np.roll(h, -1, axis=0) - h) / step
    bwd = (h - np.roll(h, 1, axis=0)) / step
    hy = np.where(np.isfinite(hy), hy, np.where(np.isfinite(fwd), fwd, bwd))

    mu = (hx.real - hy.imag) / (2.0 * np.pi)
    mu = np.where(inside & np.isfinite(mu), mu, 0.0)
    return DensityField(xs=xs, ys=ys, mu=mu, inside=inside, h=h)
