"""Predicted spectral support boundaries.

Dense ensembles with a single correlation order k and strength rho trace the
hypotrochoid z(phi) = exp(-i phi) + rho * exp(i (k-1) phi); several orders at
once give the polytrochoid generalization with one term per order.  Sparse
cyclic digraphs obey the same family after solving a scalar depth equation
for the parameter t: their law is the hypotrochoid with rho = d_hat t^k,
scaled by w/t, and the large-degree law of two species is a two-term
polytrochoid scaled by d_bar.  All four closed forms are one call to
``_trochoid``.  Two competing cycle species at finite degree require a
three-unknown continuation in the sweep angle.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ContinuationError, InvalidSpecError, require_finite
from .geometry import winding_numbers

MIN_CURVE_SAMPLES = 512


@dataclass(frozen=True)
class HypotrochoidParams:
    """Single correlation order k with signed strength rho."""

    k: int
    rho: float

    def __post_init__(self):
        require_finite(rho=self.rho)
        if self.k < 2:
            raise InvalidSpecError(f"order must be >= 2, got {self.k}")


@dataclass(frozen=True)
class PolytrochoidParams:
    """Several correlation orders: mapping k -> rho_k."""

    terms: dict[int, float]

    def __post_init__(self):
        if not self.terms:
            raise InvalidSpecError("at least one correlation term is required")
        for k, rho in self.terms.items():
            require_finite(**{f"rho_{k}": rho})
            if k < 2:
                raise InvalidSpecError(f"order must be >= 2, got {k}")


@dataclass(frozen=True)
class SparseCyclicParams:
    """Cyclic digraph law: biased cycle count d_hat, cycle length k, edge weight.

    ``d_hat`` is d - 1 when every node sits in exactly d cycles, and the mean
    membership for the random-assignment ensemble.  The depth parameter t is
    solved on construction and cached.
    """

    d_hat: float
    k: int
    weight: float = 1.0
    t: float = field(init=False)

    def __post_init__(self):
        require_finite(d_hat=self.d_hat, weight=self.weight)
        if self.weight == 0:
            raise InvalidSpecError("edge weight must be nonzero")
        object.__setattr__(self, "t", solve_segment_depth(self.d_hat, self.k))


@dataclass(frozen=True)
class MixedCycleParams:
    """Two competing cycle species (d_r, k_r, w_r)."""

    d1: float
    k1: int
    w1: float
    d2: float
    k2: int
    w2: float

    def __post_init__(self):
        require_finite(d1=self.d1, w1=self.w1, d2=self.d2, w2=self.w2)
        for k in (self.k1, self.k2):
            if k < 2:
                raise InvalidSpecError(f"cycle length must be >= 2, got {k}")
        if self.d1 < 0 or self.d2 < 0:
            raise InvalidSpecError("cycle counts must be nonnegative")
        if self.d1 + self.d2 <= 0:
            raise InvalidSpecError("at least one species must be present")


@dataclass
class BoundaryCurve:
    """Sampled closed curve in the complex plane, closed by wrapping.

    Any number of samples is held, so a boundary CSV of any length can be
    read back and drawn; the laws sample at least ``MIN_CURVE_SAMPLES``
    (``_sweep`` refuses fewer).  ``states`` and ``sweep`` are set by
    ``mixed_cycle_boundary`` only: one (t1, t2, phi2) row per sample, the
    continuation's solution at that sample's angle, and how the
    continuation reached them.
    """

    phis: np.ndarray
    z: np.ndarray
    law: object = None
    states: np.ndarray | None = None
    sweep: SweepRecord | None = None

    def __post_init__(self):
        if len(self.phis) != len(self.z):
            raise InvalidSpecError("phi and z sample counts differ")

    def polygon(self) -> np.ndarray:
        """Vertices with the first point appended to close the loop."""
        return np.append(self.z, self.z[0])

    def centroid(self) -> complex:
        return complex(np.mean(self.z))

    def mean_radius(self) -> float:
        return float(np.mean(np.abs(self.z - self.centroid())))


def _sweep(n_samples: int) -> np.ndarray:
    if n_samples < MIN_CURVE_SAMPLES:
        raise InvalidSpecError(f"need at least {MIN_CURVE_SAMPLES} samples, got {n_samples}")
    return np.linspace(0.0, 2.0 * np.pi, n_samples, endpoint=False)


def _trochoid(law, n_samples: int, terms: list[tuple[int, float]], scale=1.0, t=1.0) -> BoundaryCurve:
    """scale * (exp(-i phi) / t + sum of c exp(i (k-1) phi) over ``terms`` (k, c)).

    The terms are added in the order given, so each law fixes its own
    floating-point sum.
    """
    phi = _sweep(n_samples)
    z = np.exp(-1j * phi) / t
    for k, c in terms:
        z = z + c * np.exp(1j * (k - 1) * phi)
    return BoundaryCurve(phi, scale * z, law)


def dense_hypotrochoid(params: HypotrochoidParams, n_samples: int = 1024) -> BoundaryCurve:
    """Boundary for a dense ensemble with one correlation order."""
    return _trochoid(params, n_samples, [(params.k, params.rho)])


def dense_polytrochoid(params: PolytrochoidParams, n_samples: int = 1024) -> BoundaryCurve:
    """Boundary for a dense ensemble with several correlation orders."""
    return _trochoid(params, n_samples, sorted(params.terms.items()))


def _sigma(t: float, k: int) -> float:
    """sum_{l=1}^{k-1} t^(2l), the depth sum of one cycle species."""
    return sum(t ** (2 * l) for l in range(1, k))


def _dsigma(t: float, k: int) -> float:
    return sum(2 * l * t ** (2 * l - 1) for l in range(1, k))


def segment_depth_residual(t: float, d_hat: float, k: int) -> float:
    """Residual of the reduced depth condition d_hat * sum_{j=1}^{k-1} t^(2j) - 1."""
    return d_hat * _sigma(t, k) - 1.0


def solve_segment_depth(d_hat: float, k: int) -> float:
    """Unique positive root of d_hat * sum_{j=1}^{k-1} t^(2j) = 1.

    The left side increases strictly from 0 to infinity on t in (0, inf) and
    equals d_hat*(k-1) at t = 1, so the root lies in (0, 1) when
    d_hat*(k-1) > 1 and at or above 1 otherwise (d_hat = 0.3, k = 3 gives
    t = 1.18).  Bisection brackets it, doubling the upper end past 1 when
    needed; Newton steps polish it to |residual| < 1e-12.  Equivalent to
    the degree-2k polynomial d_hat*t^(2k) - (d_hat+1)*t^2 + 1 with its
    spurious t = 1 root factored out analytically.
    """
    if d_hat <= 0:
        raise InvalidSpecError(f"d_hat must be positive, got {d_hat}")
    if k < 2:
        raise InvalidSpecError(f"cycle length must be >= 2, got {k}")
    lo, hi = 0.0, 1.0
    while segment_depth_residual(hi, d_hat, k) < 0:
        hi *= 2.0  # d_hat < 1/(k-1) puts the root above 1
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if segment_depth_residual(mid, d_hat, k) < 0:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-9:
            break
    t = 0.5 * (lo + hi)
    for _ in range(60):
        f = segment_depth_residual(t, d_hat, k)
        if abs(f) < 1e-15:
            break
        t -= f / (d_hat * _dsigma(t, k))
    return t


def sparse_hypotrochoid(params: SparseCyclicParams, n_samples: int = 1024) -> BoundaryCurve:
    """Boundary for a digraph built from cycles of a single length.

    The hypotrochoid with rho = d_hat t^k, scaled by weight / t.
    """
    t, k = params.t, params.k
    return _trochoid(params, n_samples, [(k, params.d_hat * t ** (k - 1))], params.weight, t)


# --- mixed two-species solver -------------------------------------------------


def _mixed_system(params: MixedCycleParams, phi1, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(condt, Re extracond, Im extracond) at unknowns x = (t1, t2, phi2), and its Jacobian.

    ``x`` is one state (3,) at the angle ``phi1``, or a stack (m, 3) with
    one angle per row in ``phi1`` (m,); the residuals have the shape of x,
    and d(residual)/d(t1, t2, phi2) is (3, 3) for one state, (m, 3, 3) for
    a stack.
    """
    t1, t2, phi2 = x.T  # numpy scalars for one state: far cheaper than 0-d arrays
    p = params
    s1, s2 = _sigma(t1, p.k1), _sigma(t2, p.k2)
    e1, e2 = np.exp(-1j * phi1), np.exp(-1j * phi2)
    a1, a2 = (p.w1 / t1) * e1, (p.w2 / t2) * e2
    f1 = (1.0 - p.d1 - p.d2) * s1 * s2 - (p.d1 - 1.0) * s1 - (p.d2 - 1.0) * s2 + 1.0
    fc = a1 - a2 - p.w1**p.k1 * a1 ** (1 - p.k1) + p.w2**p.k2 * a2 ** (1 - p.k2)
    ds1, ds2 = _dsigma(t1, p.k1), _dsigma(t2, p.k2)
    j = np.zeros(x.shape + (3,))
    j[..., 0, 0] = ((1.0 - p.d1 - p.d2) * s2 - (p.d1 - 1.0)) * ds1
    j[..., 0, 1] = ((1.0 - p.d1 - p.d2) * s1 - (p.d2 - 1.0)) * ds2
    g1 = 1.0 + (p.k1 - 1.0) * p.w1**p.k1 * a1 ** (-p.k1)
    g2 = 1.0 + (p.k2 - 1.0) * p.w2**p.k2 * a2 ** (-p.k2)
    dfc_dt1 = g1 * (-(p.w1 / t1**2) * e1)
    dfc_dt2 = g2 * (p.w2 / t2**2) * e2
    dfc_dphi2 = g2 * 1j * a2
    j[..., 1, 0], j[..., 2, 0] = dfc_dt1.real, dfc_dt1.imag
    j[..., 1, 1], j[..., 2, 1] = dfc_dt2.real, dfc_dt2.imag
    j[..., 1, 2], j[..., 2, 2] = dfc_dphi2.real, dfc_dphi2.imag
    return np.array([f1, fc.real, fc.imag]).T, j


_MIXED_TOL = 1e-11
_MIXED_MAX_ITER = 100
_MIN_STEP_SCALE = 1e-4


def _newton_steps(jac: np.ndarray, f: np.ndarray) -> np.ndarray:
    """jac^-1 f for each state; NaN for a state whose Jacobian is singular."""
    try:
        return np.linalg.solve(jac, f[..., None])[..., 0]
    except np.linalg.LinAlgError:
        steps = np.full_like(f, np.nan)
        for row in np.ndindex(f.shape[:-1]):
            try:
                steps[row] = np.linalg.solve(jac[row], f[row])
            except np.linalg.LinAlgError:
                pass
        return steps


def _positive(x: np.ndarray) -> np.ndarray:
    """Whether t1 and t2 are both positive (False for NaN)."""
    return np.minimum(x[..., 0], x[..., 1]) > 0


def _shortened(x: np.ndarray, step: np.ndarray, short: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """x - scale * step, each ``short`` state's scale halved until its t1 and t2 are positive.

    Also returns whether each scale stayed above ``_MIN_STEP_SCALE``.
    """
    scale = np.ones(x.shape[:-1])
    while short.any():
        scale = np.where(short, 0.5 * scale, scale)
        trial = x - scale[..., None] * step
        short = short & ~_positive(trial) & (scale > _MIN_STEP_SCALE)
    return trial, scale > _MIN_STEP_SCALE


def _newton_mixed(params: MixedCycleParams, phi1, x0: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Newton from one state (3,) at the angle ``phi1``, or from every row of a stack (m, 3).

    A state stops once its residual norm is below ``_MIXED_TOL`` and keeps
    its value from then on.  Its step is halved until t1 and t2 stay
    positive; a state whose step would shrink below ``_MIN_STEP_SCALE``,
    or whose Jacobian is singular, fails.  Returns the states and whether
    each converged.  Each state follows the iterates it would follow alone.
    """
    x = x0.copy()
    live = np.ones(x.shape[:-1], dtype=bool)
    failed = np.zeros(x.shape[:-1], dtype=bool)
    for iteration in range(_MIXED_MAX_ITER + 1):
        f, jac = _mixed_system(params, phi1, x)
        live &= ~(np.linalg.norm(f, axis=-1) < _MIXED_TOL)
        if iteration == _MIXED_MAX_ITER or not live.any():
            break
        step = _newton_steps(jac, f)
        trial = x - step
        short = live & ~_positive(trial)
        if short.any():
            trial, kept = _shortened(x, step, short)
            failed |= live & ~kept
            live &= kept
        x = np.where(live[..., None], trial, x)
    return x, ~(live | failed)


def _symmetric_seed(params: MixedCycleParams) -> np.ndarray:
    """Real solve at phi1 = 0, seeded from the large-degree limit.

    The real solution has phi2 = 0 when the weights share a sign and
    phi2 = pi when they do not.
    """
    p = params
    dbar = np.sqrt(p.d1 * p.w1**2 + p.d2 * p.w2**2)
    x = np.array([abs(p.w1) / dbar, abs(p.w2) / dbar, np.pi if p.w1 * p.w2 < 0 else 0.0])
    x, ok = _newton_mixed(params, 0.0, x)
    if not ok:
        raise ContinuationError("symmetric seed solve failed", last_good_phi=float("nan"))
    return x


def _mixed_point(params: MixedCycleParams, phi1: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Boundary points at the angles ``phi1`` (m,) from their states x (m, 3)."""
    t1, t2, phi2 = x.T
    p = params
    return (
        p.w1 / (2 * t1) * np.exp(-1j * phi1)
        + p.w2 / (2 * t2) * np.exp(-1j * phi2)
        + (p.d1 - 0.5) * p.w1 * t1 ** (p.k1 - 1) * np.exp(1j * (p.k1 - 1) * phi1)
        + (p.d2 - 0.5) * p.w2 * t2 ** (p.k2 - 1) * np.exp(1j * (p.k2 - 1) * phi2)
    )


# the coarse sweep continues through every 16th sample only; a refined state
# must agree this closely (max norm) with the per-sample sweep's step to it
_COARSE_STRIDE = 16
_AGREEMENT = 1e-9


@dataclass(frozen=True)
class SweepRecord:
    """How ``mixed_cycle_boundary`` reached its curve.

    ``coarse_steps`` counts the coarse continuation steps that solved and
    ``step_halvings`` the halvings of the per-sample sweep; ``fallback``
    names the doubt that sent the law to that sweep, or is None when the
    coarse sweep and its refine were kept.
    """

    coarse_steps: int
    step_halvings: int = 0
    fallback: str | None = None


def _stepped(
    params: MixedCycleParams, angles: np.ndarray, seed: np.ndarray, max_halvings: int = 8
) -> tuple[np.ndarray, int]:
    """States continued from ``seed`` at angles[0] through each later angle, and the halvings made.

    Each interval tries its whole step first; each failed Newton solve
    halves the step for the rest of that interval, up to ``max_halvings``
    times.  Works in either direction.
    """
    states = np.empty((len(angles), 3))
    states[0], halvings = seed, 0
    for i in range(1, len(angles)):
        x, current, stop = states[i - 1], angles[i - 1], angles[i]
        span, made = stop - current, 0
        while abs(stop - current) > 1e-12:
            rest, step = stop - current, span / 2**made
            step = rest if abs(rest) <= abs(step) else step
            trial, ok = _newton_mixed(params, current + step, x)
            if ok:
                x, current = trial, current + step
            else:
                made += 1
                if made > max_halvings:
                    raise ContinuationError(
                        f"continuation stalled at phi1 = {current + step:.6f}", last_good_phi=float(current)
                    )
        states[i], halvings = x, halvings + made
    return states, halvings


def _coarse_refined(
    params: MixedCycleParams, phi: np.ndarray, seed: np.ndarray
) -> tuple[np.ndarray | None, SweepRecord]:
    """States from the coarse sweep and one batched refine, or None and the doubt.

    Continues ``seed`` through every ``_COARSE_STRIDE``-th angle and on to
    phi1 = 2 pi, each step whole, interpolates (t1, t2, phi2) linearly to
    every angle and refines all samples in one batched Newton solve.  The
    refined states are kept only if each is, within ``_AGREEMENT``, the
    per-sample sweep's whole step from its predecessor, which one more
    batched Newton solve checks: then the per-sample sweep would make the
    same states.  A refined state can otherwise sit on the same root as
    that sweep's with phi2 a turn apart, or on another root altogether.
    The caller checks that the curve winds once, on either path.
    """
    knots = np.append(phi[::_COARSE_STRIDE], 2.0 * np.pi)
    try:
        coarse, _ = _stepped(params, knots, seed, max_halvings=0)
    except ContinuationError as exc:
        solved = int(np.searchsorted(knots, exc.last_good_phi))
        return None, SweepRecord(solved, fallback="a coarse step needed a halving")
    record = SweepRecord(len(knots) - 1)
    guess = np.stack([np.interp(phi, knots, column) for column in coarse.T], axis=1)
    states, ok = _newton_mixed(params, phi, guess)
    if not ok.all():
        return None, replace(record, fallback="a refined sample did not converge")
    stepped, ok = _newton_mixed(params, phi[1:], states[:-1])
    if not ok.all() or np.abs(stepped - states[1:]).max() > _AGREEMENT:
        return None, replace(record, fallback="a refined sample is not the step from its predecessor")
    return states, record


def mixed_cycle_boundary(params: MixedCycleParams, n_samples: int = 1024) -> BoundaryCurve:
    """Boundary for two competing cycle species, swept by continuation.

    A coarse sweep continues the solution from phi1 = 0 through every 16th
    sample's angle and on to 2 pi, each step whole; the states are
    interpolated to every sample and refined together in one batched
    Newton solve.  On any doubt (a coarse step that fails, a sample that
    does not converge or is not the per-sample step from its predecessor)
    the law is swept sample by sample instead: each solve continues from
    the previous angle, halving the step up to 8 times on failure, and that
    sweep alone decides the curve or its error.  The curve keeps each
    sample's solution in ``states`` and how it was reached in ``sweep``.
    A curve that does not wind once (clockwise) about the origin has
    followed another solution branch and raises ``ContinuationError``.  A
    checked fast curve has the per-sample sweep's states, so it is refused
    at once, without that sweep.

    Two kinds of law are refused as specs (``InvalidSpecError``): d1 = 0,
    because the sweep is seeded from the first species and stalls without
    it (the same species in the other order solve), and k1 = 2 with d2 = 0,
    because 2-cycles alone have a real spectrum, whose law is a segment
    with no winding number to check.
    """
    return _mixed_boundary(params, n_samples, coarse=True)


def _mixed_boundary(params: MixedCycleParams, n_samples: int, coarse: bool) -> BoundaryCurve:
    """``mixed_cycle_boundary``; with ``coarse`` False, its per-sample sweep alone."""
    if params.d1 == 0:
        raise InvalidSpecError("two-species law with d1 = 0: list the species with cycles first")
    if params.k1 == 2 and params.d2 == 0:
        raise InvalidSpecError(
            "two-species law of 2-cycles alone (k1 = 2, d2 = 0): its spectrum is real "
            "and its boundary a segment, not a closed curve"
        )
    phi = _sweep(n_samples)
    # a Newton iterate that overflows is a solve that fails, and is handled as one
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        seed = _symmetric_seed(params)
        states, record = _coarse_refined(params, phi, seed) if coarse else (None, SweepRecord(0))
        if states is None:
            states, halvings = _stepped(params, phi, seed)
            record = replace(record, step_halvings=halvings)
        z = _mixed_point(params, phi, states)
        winding = int(winding_numbers(np.zeros(1), np.append(z, z[0]))[0])
    if winding != -1:
        raise ContinuationError(
            f"sweep left the boundary branch: its curve winds {winding} times "
            "about the origin, not once (-1)",
            last_good_phi=float(phi[-1]),
        )
    return BoundaryCurve(phi, z, params, states, record)


def mixed_cycle_asymptotic(params: MixedCycleParams, n_samples: int = 1024) -> BoundaryCurve:
    """Large-degree closed form of the two-species boundary.

    d_bar times the polytrochoid with rho_r = d_r (w_r / d_bar)^k_r, where
    d_bar^2 = d1 w1^2 + d2 w2^2; the species are summed in their given order.
    """
    p = params
    dbar = np.sqrt(p.d1 * p.w1**2 + p.d2 * p.w2**2)
    if dbar == 0:
        raise InvalidSpecError("degenerate species: d1*w1^2 + d2*w2^2 must be positive")
    terms = [(p.k1, p.d1 * (p.w1 / dbar) ** p.k1), (p.k2, p.d2 * (p.w2 / dbar) ** p.k2)]
    return _trochoid(params, n_samples, terms, dbar)
