"""Acceptance suite: the release gates, one test per criterion.

Run standalone with per-criterion pass lines:

    pytest tests/test_acceptance.py -v -s

Criteria 1-4 reproduce the reference figures end to end (generation,
eigensolve, containment); 5-8 gate the solvers, moment oracles, the
elliptic-law regression, and the standalone property suites.
"""

import time

import numpy as np
import pytest

from trochoid.boundaries import (
    HypotrochoidParams,
    MixedCycleParams,
    dense_hypotrochoid,
    mixed_cycle_asymptotic,
    mixed_cycle_boundary,
    solve_segment_depth,
)
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
from trochoid.ensembles import generate_base_iid
from trochoid.interior import GridSpec, interior_density
from trochoid.moments import (
    empirical_mixed_moment,
    empirical_pure_moment,
    fuss_catalan_prediction,
    tree_walk_prediction,
)
from trochoid.pipeline import run_verify
from trochoid.presets import get_preset
from trochoid.spectra import compute_eigenvalues, containment
from trochoid.boundaries import PolytrochoidParams

from test_boundaries import has_cusps
from walks import brute_force_tree_walks


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")


def test_criterion_1_dense_order5_figure():
    started = time.monotonic()
    report = run_verify(get_preset("fig1-left"))
    elapsed = time.monotonic() - started
    rho = report["aggregate"]["measured_rho"]
    frac = report["aggregate"]["inside_fraction"]
    per_seed = elapsed / 5.0
    ok = (
        abs(rho - 0.075) <= 0.10 * 0.075
        and frac >= 0.98
        and report["aggregate"]["seeds_failed"] == 0
        and per_seed < 300.0
    )
    _report(
        "criterion-1 dense k=5",
        ok,
        f"measured rho5={rho:.4f} (target 0.075 +-10%), inside={frac:.4f} "
        f"(>=0.98 at 3% inflation), {per_seed:.1f}s/seed",
    )
    assert ok


def test_criterion_2_regular_digraph_figure():
    report = run_verify(get_preset("fig1-right"))
    frac = report["aggregate"]["inside_fraction"]
    residuals = [entry["symmetry_residual"] for entry in report["seeds"]]
    outlier_sets = [entry["containment"]["excluded_outliers"] for entry in report["seeds"]]
    targets = 2.0 * np.exp(2j * np.pi * np.arange(3) / 3)
    outliers_ok = all(
        len(excl) == 3
        and all(min(abs(complex(re, im) - t) for re, im in excl) < 1e-6 for t in targets)
        for excl in outlier_sets
    )
    ok = frac >= 0.98 and max(residuals) < 1e-8 and outliers_ok
    _report(
        "criterion-2 regular d=2 k=3",
        ok,
        f"inside={frac:.4f} (>=0.98 at 3%), max symmetry residual={max(residuals):.2e} "
        f"(<1e-8), deterministic triple excluded={outliers_ok}",
    )
    assert ok


@pytest.mark.parametrize("k", [3, 4])
def test_criterion_3_poisson_digraph_figure(k):
    config = {
        "ensemble": {"kind": "poisson-cyclic", "n": 1000, "mean_degree": 8.0, "k": k},
        "boundary": "auto",
        "seeds": [1, 2, 3, 4, 5],
        "inflation": 0.05,
    }
    report = run_verify(config)
    frac = report["aggregate"]["inside_fraction"]
    ok = frac >= 0.95 and report["aggregate"]["seeds_failed"] == 0
    _report(
        f"criterion-3 poisson mean-degree 8, k={k}",
        ok,
        f"inside={frac:.4f} (>=0.95 at 5% inflation, 5 seeds)",
    )
    assert ok


def test_criterion_4_mixed_species_figure():
    report = run_verify(get_preset("fig4"))
    frac = report["aggregate"]["inside_fraction"]
    full_vs_asym_ok = _mixed_asymptotic_agreement() < 0.01
    ok = frac >= 0.95 and report["aggregate"]["seeds_failed"] == 0 and full_vs_asym_ok
    _report(
        "criterion-4 mixed 3&4 cycles",
        ok,
        f"continuation swept 1024 angles, inside={frac:.4f} (>=0.95 at 5%), "
        f"asymptotic-vs-full deviation={_mixed_asymptotic_agreement():.2e} (<1%)",
    )
    assert ok


def _mixed_asymptotic_agreement() -> float:
    params = MixedCycleParams(d1=100, k1=3, w1=1.0, d2=100, k2=4, w2=1.0)
    full = mixed_cycle_boundary(params, 512)
    approx = mixed_cycle_asymptotic(params, 512)
    radius = np.abs(approx.z - approx.z.mean()).max()
    return float(np.abs(full.z - approx.z).max() / radius)


def test_criterion_5_root_and_reduction_exactness():
    t = solve_segment_depth(1.0, 3)
    golden = np.sqrt((np.sqrt(5.0) - 1.0) / 2.0)
    gap_root = abs(t - golden)

    params = MixedCycleParams(d1=3, k1=3, w1=1.0, d2=0, k2=4, w2=1.0)
    t1 = mixed_cycle_boundary(params, 512).states[0, 0]
    gap_mixed = abs(t1 - solve_segment_depth(2.0, 3))

    worst_poly = 0.0
    for d_hat in (0.5, 1.0, 2.0, 8.0, 100.0):
        for k in (2, 3, 4, 5):
            tt = solve_segment_depth(d_hat, k)
            worst_poly = max(worst_poly, abs(d_hat * tt ** (2 * k) - (d_hat + 1) * tt**2 + 1))

    ok = gap_root < 1e-10 and gap_mixed < 1e-10 and worst_poly < 1e-10
    _report(
        "criterion-5 root exactness",
        ok,
        f"|t - closed form|={gap_root:.1e}, |mixed - single|={gap_mixed:.1e}, "
        f"polynomial residual={worst_poly:.1e} (all <1e-10)",
    )
    assert ok


def test_criterion_6_moment_oracles():
    # (a) mixed first moment over 20 seeds at n=500 adjudicates the
    # normalization: the measured value sits at 1, not 2
    values = [empirical_mixed_moment(generate_base_iid(500, seed), 1) for seed in range(20)]
    mean = float(np.mean(values))
    stderr = float(np.std(values, ddof=1) / np.sqrt(len(values)))
    catalan_ok = abs(mean - 1.0) <= 3 * stderr
    alternate_rejected = abs(mean - 2.0) > 3 * stderr

    # (b) order-3 ensembles against the degree-6 combinatorial prediction
    rho3s, m6s = [], []
    for seed in range(10):
        m = generate_dense_cyclic(DenseCyclicSpec(n=1000, k=3, flip_prob=0.35), seed)
        s = compute_eigenvalues(m)
        rho3s.append(empirical_pure_moment(s, 3))
        m6s.append(empirical_pure_moment(s, 6))
    predicted = fuss_catalan_prediction(2, float(np.mean(rho3s)))
    gap6 = abs(float(np.mean(m6s)) - predicted) / predicted

    # (c) formula vs exact enumeration under the calibrated mapping
    exact_ok = all(
        tree_walk_prediction(2, l, d, d) == float(brute_force_tree_walks(2, l, d, d - 1))
        for l in (1, 2, 3)
        for d in (2, 3, 4)
    )

    ok = catalan_ok and alternate_rejected and gap6 <= 0.15 and exact_ok
    _report(
        "criterion-6 moment oracles",
        ok,
        f"Tr(MM^T)/n={mean:.4f}+-{stderr:.4f} (=1 within 3se, 2 rejected), "
        f"TrM^6 gap={gap6:.3f} (<=0.15), walk counts exact={exact_ok}",
    )
    assert ok


def test_criterion_7_elliptic_law_regression():
    rho = 0.5
    field = interior_density(PolytrochoidParams({2: rho}), GridSpec(resolution=384))
    integral = field.integral()
    grid = field.grid()
    # away from the edge: strictly inside the 0.9-scaled ellipse
    core = (grid.real / (0.9 * (1 + rho))) ** 2 + (grid.imag / (0.9 * (1 - rho))) ** 2 < 1.0
    expected = 1.0 / (np.pi * (1 - rho**2))
    worst = float(np.abs(field.mu[core] / expected - 1.0).max())

    circ = interior_density(PolytrochoidParams({2: 0.0}), GridSpec(resolution=384))
    circ_core = np.abs(circ.grid()) < 0.9
    circ_worst = float(np.abs(circ.mu[circ_core] * np.pi - 1.0).max())
    circ_integral = circ.integral()

    ok = (
        abs(integral - 1.0) <= 0.01
        and worst <= 0.02
        and abs(circ_integral - 1.0) <= 0.01
        and circ_worst <= 0.02
    )
    _report(
        "criterion-7 elliptic regression",
        ok,
        f"ellipse: integral={integral:.4f} (1+-1%), core density off by {worst:.4f} (<=2%); "
        f"disk: integral={circ_integral:.4f}, off by {circ_worst:.4f}",
    )
    assert ok


def test_criterion_8_property_suites(tmp_path):
    # curve rotation symmetry at machine precision
    sym_worst = 0.0
    for k in (2, 3, 4, 5, 6):
        for rho in (0.075, 0.3, -0.2):
            phi = np.linspace(0, 2 * np.pi, 64)
            z = lambda p: np.exp(-1j * p) + rho * np.exp(1j * (k - 1) * p)
            gap = np.abs(z(phi + 2 * np.pi / k) - np.exp(-2j * np.pi / k) * z(phi)).max()
            sym_worst = max(sym_worst, float(gap))
    sym_ok = sym_worst < 1e-13

    # cusp threshold detection
    cusp_ok = all(
        not has_cusps(HypotrochoidParams(k=k, rho=1 / (k - 1) - 1e-3))
        and has_cusps(HypotrochoidParams(k=k, rho=1 / (k - 1) + 1e-3))
        for k in (3, 4, 5)
    )

    # containment monotone in inflation
    s = compute_eigenvalues(generate_base_iid(200, seed=3))
    circle = dense_hypotrochoid(HypotrochoidParams(k=3, rho=0.0))
    counts = [containment(s, circle, infl).inside for infl in (0.0, 0.02, 0.05, 0.15)]
    monotone_ok = counts == sorted(counts)

    # byte-level determinism of every generator
    from trochoid.io import write_dense_mtx, write_digraph_mtx

    def bytes_of(obj, writer, name):
        path = tmp_path / name
        writer(obj, path)
        return path.read_bytes()

    determinism_ok = True
    for tag, make, writer in [
        ("iid", lambda s: generate_base_iid(60, s), write_dense_mtx),
        (
            "cyclic",
            lambda s: generate_dense_cyclic(DenseCyclicSpec(60, 3, 0.5), s),
            write_dense_mtx,
        ),
        (
            "regular",
            lambda s: generate_regular_cyclic(RegularCyclicSpec(60, 2, 3), s),
            write_digraph_mtx,
        ),
        (
            "poisson",
            lambda s: generate_poisson_cyclic(PoissonCyclicSpec(60, 3.0, 3), s),
            write_digraph_mtx,
        ),
        (
            "mixed",
            lambda s: generate_mixed_cyclic(
                MixedCyclicSpec(60, (CycleSpecies(2, 3), CycleSpecies(1, 4))), s
            ),
            write_digraph_mtx,
        ),
    ]:
        a = bytes_of(make(11), writer, f"{tag}-a")
        b = bytes_of(make(11), writer, f"{tag}-b")
        determinism_ok &= a == b

    ok = sym_ok and cusp_ok and monotone_ok and determinism_ok
    _report(
        "criterion-8 property suites",
        ok,
        f"symmetry worst={sym_worst:.1e} (<1e-13), cusp detection={cusp_ok}, "
        f"containment monotone={monotone_ok}, generator determinism={determinism_ok}",
    )
    assert ok
