import json

import numpy as np
import pytest

import trochoid.correlations
import trochoid.ensembles
import trochoid.pipeline
from trochoid.correlations import DenseCyclicSpec, generate_dense_cyclic
from trochoid.ensembles import DenseMatrix, SparseDigraph
from trochoid.errors import CalibrationError, ConfigError, GenerationError, InvalidSpecError, TrochoidError
from trochoid.moments import trace_power_moment
from trochoid.pipeline import _prepare, calibrate_flip_prob, run_generate, run_moments, run_verify

# ensemble, per-seed moment orders, whether the kind predicts them, drawn by
# the flip sweep, symmetry checked, auto law and the part of its params the
# report must carry verbatim
KINDS = {
    "iid": (
        {"kind": "dense-iid", "n": 30},
        [("pure", 2), ("mixed", 1), ("mixed", 2)], True, False, False,
        "HypotrochoidParams", {"k": 2, "rho": 0.0},
    ),
    "dense-pinned": (
        {"kind": "dense-cyclic", "n": 30, "k": 4, "flip_prob": 0.3},
        [("pure", 4), ("mixed", 1)], False, True, True,
        "HypotrochoidParams", {"k": 4},
    ),
    "regular": (
        {"kind": "regular-cyclic", "n": 30, "d": 2, "k": 3},
        [("pure", 3), ("mixed", 1), ("mixed", 2)], True, False, True,
        "SparseCyclicParams", {"d_hat": 1, "k": 3, "weight": 1.0},
    ),
    "poisson": (
        {"kind": "poisson-cyclic", "n": 30, "mean_degree": 3, "k": 3},
        [("pure", 3), ("mixed", 1), ("mixed", 2)], True, False, True,
        "SparseCyclicParams", {"d_hat": 3.0, "k": 3, "weight": 1.0},
    ),
    "mixed-gcd1": (
        {"kind": "mixed-cyclic", "n": 24, "species": [{"d": 2, "k": 3}, {"d": 1, "k": 4}]},
        [("pure", 3), ("pure", 4), ("mixed", 1)], False, False, False,
        "MixedCycleParams", {"d1": 2, "k1": 3, "w1": 1.0, "d2": 1, "k2": 4, "w2": 1.0},
    ),
    "mixed-d0": (
        {"kind": "mixed-cyclic", "n": 24, "species": [{"d": 2, "k": 3}, {"d": 0, "k": 4}]},
        [("pure", 3), ("mixed", 1)], False, False, True,
        "MixedCycleParams", {"d1": 2, "k1": 3, "d2": 0, "k2": 4},
    ),
}


def _order(row):
    return row["order"]["kind"], row["order"].get("k", row["order"].get("l"))


def _assert_aggregates(report, entries):
    """Each aggregate moment row is the mean and ddof-1 standard error of ``entries``."""
    rows = report["aggregate"]["moments"]
    assert [_order(r) for r in rows] == sorted(_order(r) for r in entries[0]["moments"])
    for row in rows:
        values = [r["empirical"] for e in entries for r in e["moments"] if _order(r) == _order(row)]
        assert len(values) == len(entries)
        assert row["empirical"] == pytest.approx(np.mean(values), rel=1e-12, abs=1e-15)
        stderr = np.std(values, ddof=1) / np.sqrt(len(values))
        assert row["stderr"] == pytest.approx(stderr, rel=1e-12, abs=1e-15)
        per_seed = {r["predicted"] for e in entries for r in e["moments"] if _order(r) == _order(row)}
        assert per_seed == {row["predicted"]}


@pytest.mark.parametrize(
    "ensemble, orders, predicts, flip_sweep, symmetric, law, params",
    KINDS.values(),
    ids=KINDS.keys(),
)
def test_report_shape_per_kind(
    tmp_path, ensemble, orders, predicts, flip_sweep, symmetric, law, params
):
    config = {"ensemble": ensemble, "seeds": [1, 2]}
    report = run_verify(config)
    assert report["aggregate"]["seeds_failed"] == 0
    for entry in report["seeds"]:
        assert [_order(r) for r in entry["moments"]] == orders
        assert all(r["stderr"] == 0.0 for r in entry["moments"])
        assert all((r["predicted"] is not None) == predicts for r in entry["moments"])
        assert ("measured_rho" in entry) == flip_sweep
        assert ("symmetry_residual" in entry) == symmetric
    _assert_aggregates(report, report["seeds"])
    assert ("measured_rho" in report["aggregate"]) == flip_sweep
    assert report["boundary"]["law"] == law
    # auto laws keep the spec's native types: an int d_hat is written as 1, not 1.0
    carried = {key: report["boundary"]["params"][key] for key in params}
    assert json.dumps(carried, sort_keys=True) == json.dumps(params, sort_keys=True)

    manifest = run_generate(config, tmp_path)
    if flip_sweep:
        assert report["calibration"] == {"flip_prob": ensemble["flip_prob"]}
        assert manifest["calibration"] == {"flip_prob": ensemble["flip_prob"]}
    else:
        assert "calibration" not in report
        assert "calibration" not in manifest


@pytest.mark.parametrize("weights", [(1.0, -1.0), (-1.0, 1.0)], ids=["w2<0", "w1<0"])
def test_mixed_law_with_opposite_weights_encloses_its_spectrum(weights):
    # fig4 with one species negated: the seed starts at phi2 = pi and finds
    # the positive fig4's depths
    species = [{"d": 4, "k": 3, "weight": weights[0]}, {"d": 4, "k": 4, "weight": weights[1]}]
    config = {"ensemble": {"kind": "mixed-cyclic", "n": 96, "species": species}, "seeds": [1]}
    report = run_verify(config)
    assert report["aggregate"]["seeds_failed"] == 0
    assert report["aggregate"]["inside_fraction"] >= 0.95
    seed = report["boundary"]["continuation"]
    assert (seed["t1_at_zero"], seed["t2_at_zero"]) == pytest.approx((0.350049, 0.35962), abs=1e-6)
    assert seed["phi2_at_zero"] == pytest.approx(np.pi, abs=1e-12)


def test_mixed_asymptotic_boundary_reports_no_continuation():
    # only the continued law has solver states; its closed form has none,
    # even where the full law has no seed (d1 = 1, d2 = 0)
    config = {
        "ensemble": {"kind": "mixed-cyclic", "n": 24, "species": [{"d": 1, "k": 3}, {"d": 0, "k": 4}]},
        "boundary": {"law": "mixed-asymptotic", "d1": 1, "k1": 3, "d2": 0, "k2": 4},
        "seeds": [1],
    }
    boundary = run_verify(config)["boundary"]
    assert boundary["law"] == "MixedCycleParams"
    assert "continuation" not in boundary


def _fail_seed_2(monkeypatch):
    spectrum_for = trochoid.pipeline._spectrum_for

    def failing(ens, seed):
        if seed == 2:
            raise GenerationError("no draw for seed 2")
        return spectrum_for(ens, seed)

    monkeypatch.setattr(trochoid.pipeline, "_spectrum_for", failing)
    return 2


def _fail_first_residual(monkeypatch):
    residual = trochoid.pipeline.rotation_symmetry_residual
    calls = []

    def failing(spectrum, k):
        calls.append(k)
        if len(calls) == 1:
            raise InvalidSpecError("no residual for the first seed")
        return residual(spectrum, k)

    monkeypatch.setattr(trochoid.pipeline, "rotation_symmetry_residual", failing)
    return 1  # one worker takes the seeds in order


@pytest.mark.parametrize("fail", [_fail_seed_2, _fail_first_residual], ids=["spectrum", "residual"])
def test_seed_failure_is_isolated(monkeypatch, fail):
    # every per-seed step runs in the seed task: a failure there costs that
    # seed alone, and the aggregate is built from the others
    config = {"ensemble": {"kind": "regular-cyclic", "n": 30, "d": 2, "k": 3}, "seeds": [1, 2, 3]}
    monkeypatch.setenv("TROCHOID_THREADS", "1")
    failed = fail(monkeypatch)
    report = run_verify(config)

    assert [e["seed"] for e in report["seeds"]] == [1, 2, 3]
    errors = [e for e in report["seeds"] if "error" in e]
    assert [e["seed"] for e in errors] == [failed]
    assert set(errors[0]) == {"seed", "error"}
    aggregate = report["aggregate"]
    assert aggregate["seeds_failed"] == 1
    kept = [e for e in report["seeds"] if "error" not in e]
    assert len(kept) == 2
    _assert_aggregates(report, kept)
    inside = sum(e["containment"]["inside"] for e in kept)
    counted = sum(e["containment"]["total"] - len(e["containment"]["excluded_outliers"]) for e in kept)
    assert aggregate["inside_fraction"] == inside / counted
    assert aggregate["mean_symmetry_residual"] == pytest.approx(
        np.mean([e["symmetry_residual"] for e in kept]), rel=1e-12
    )


@pytest.mark.parametrize(
    "ensemble",
    [{"kind": "regular-cyclic", "n": 30, "d": 2, "k": 3}, {"kind": "dense-cyclic", "n": 20, "k": 3, "flip_prob": 0.5}],
    ids=["digraph", "dense-fitted-law"],
)
def test_verify_refuses_when_every_seed_fails(monkeypatch, ensemble):
    # with no seed measured there is no strength to fit a dense law to: the
    # refusal names the failed seeds, not the law
    def failing(ens, seed):
        raise GenerationError(f"no draw for seed {seed}")

    monkeypatch.setattr(trochoid.pipeline, "_spectrum_for", failing)
    with pytest.raises(TrochoidError, match="every seed failed") as err:
        run_verify({"ensemble": ensemble, "seeds": [1, 2]})
    assert not isinstance(err.value, ConfigError)


def test_verify_refuses_when_every_eigenvalue_is_an_outlier():
    # at n = 3 every eigenvalue of this digraph is a deterministic outlier:
    # both seeds are measured, and nothing is left to test for containment
    config = {"ensemble": {"kind": "regular-cyclic", "n": 3, "d": 2, "k": 3}, "seeds": [1, 2]}
    with pytest.raises(TrochoidError, match="no eigenvalue left to test"):
        run_verify(config)
    assert run_verify({**config, "exclude_outliers": False})["aggregate"]["seeds_failed"] == 0


def test_one_worker_measures_seeds_without_a_pool(monkeypatch):
    # a one-worker pool would only add a thread, and with it a malloc arena
    def no_pool(*args, **kwargs):
        raise AssertionError("started a thread pool for one worker")

    monkeypatch.setenv("TROCHOID_THREADS", "1")
    monkeypatch.setattr(trochoid.pipeline, "ThreadPoolExecutor", no_pool)
    config = {"ensemble": {"kind": "regular-cyclic", "n": 30, "d": 2, "k": 3}, "seeds": [2, 1]}
    assert [e["seed"] for e in run_verify(config)["seeds"]] == [2, 1]


_WEIGHTED_GRAPH = {"kind": "regular-cyclic", "n": 60, "d": 2, "k": 3, "weight": 0.7}


def test_moments_table_counts_each_seed_once_per_order():
    # a repeated order is one row over the seeds, not one value per listing
    config = {"ensemble": _WEIGHTED_GRAPH, "seeds": [1, 2, 3]}
    assert run_moments(config, [3, 3], [2, 2]) == run_moments(config, [3], [2])


def test_moments_and_verify_measure_the_same_mixed_moments():
    # both read the sparse draw, so the rows agree to the last bit
    config = {"ensemble": _WEIGHTED_GRAPH, "seeds": [1, 2, 3]}
    verified = [r for r in run_verify(config)["aggregate"]["moments"] if r["order"]["kind"] == "mixed"]
    assert run_moments(config, [], [1, 2])["moments"] == verified


def test_whole_number_seeds_pass():
    assert _prepare({"ensemble": _WEIGHTED_GRAPH, "seeds": [2, 3.0]})[1] == [2, 3]


def test_calibrated_moments_table_carries_verifys_calibration():
    config = {"ensemble": {"kind": "dense-cyclic", "n": 60, "k": 3, "target_rho": 0.3}, "seeds": [1, 2, 3]}
    calibration = run_verify(config)["calibration"]
    assert set(calibration) == {"flip_prob", "probes"}
    assert run_moments(config, [3], [])["calibration"] == calibration


def test_each_verified_digraph_builds_one_sparse_adjacency(monkeypatch):
    # the phase certificate, the cyclic blocks and both mixed moment orders
    # read the edge arrays the graph builds once, sorted by (source,
    # target); a graph with a phase certificate never builds the dense
    # adjacency
    built, dense = [], []
    post_init = SparseDigraph.__post_init__

    def counted(self):
        built.append(1)
        post_init(self)

    monkeypatch.setattr(SparseDigraph, "__post_init__", counted)
    monkeypatch.setattr(trochoid.ensembles, "adjacency_matrix", lambda g: dense.append(g))
    report = run_verify({"ensemble": _WEIGHTED_GRAPH, "seeds": [1, 2]})
    assert "symmetry_residual" in report["seeds"][0]
    assert len(built) == 2
    assert dense == []


def test_zero_row_sums_exclude_no_outlier():
    # species weights +1 and -1 at equal d give every row the sum 0: the
    # eigenvalue at the origin belongs to the bulk and is not set apart
    ensemble = {
        "kind": "mixed-cyclic",
        "n": 120,
        "species": [{"d": 2, "k": 3, "weight": 1}, {"d": 2, "k": 4, "weight": -1}],
    }
    containment = run_verify({"ensemble": ensemble, "seeds": [1]})["seeds"][0]["containment"]
    assert containment["excluded_outliers"] == []
    assert containment["inside"] + containment["outside"] == containment["total"] == 120


@pytest.mark.parametrize("n, exact", [(32, True), (30, False)])
def test_symmetry_residual_is_exact_only_when_the_gcd_divides_n(n, exact):
    # 4-cycles stratify by gcd(n, 4) phase classes: 4 at n = 32, so the
    # spectrum is exactly 4-fold symmetric, but only 2 at n = 30
    config = {"ensemble": {"kind": "regular-cyclic", "n": n, "d": 2, "k": 4}, "seeds": [1]}
    residual = run_verify(config)["seeds"][0]["symmetry_residual"]
    assert residual < 1e-8 if exact else residual > 1e-6


def test_negative_target_calibrates_a_negative_ensemble():
    # the sign defaults to the target's, so the verify draws what calibration measured
    config = {"ensemble": {"kind": "dense-cyclic", "n": 200, "k": 3, "target_rho": -0.2}, "seeds": [1, 2, 3]}
    rho = run_verify(config)["aggregate"]["measured_rho"]
    assert rho < 0
    assert abs(rho + 0.2) < 0.10 * 0.2


@pytest.mark.parametrize(
    "target, settles",
    # the ends' mean strengths at n = 60, seeds 1-3, are -0.022441 and 0.721831
    [(0.022441, 0.0), (0.721831, 1.0), (0.3, None)],
    ids=["unswept-end", "upper-end", "interior-probe"],
)
def test_calibrated_verify_reuses_the_calibration_draws(monkeypatch, target, settles):
    # seeds 1-3 are calibration's draws at the returned p (the bases at the
    # unswept end), bit for bit the draws generate_dense_cyclic makes there;
    # only seed 4 is generated after calibration
    monkeypatch.setenv("TROCHOID_THREADS", "1")
    generated, draws = [], {}
    generate, spectrum_for = trochoid.pipeline.generate_dense_cyclic, trochoid.pipeline._spectrum_for

    def recorded_generate(spec, seed, base=None, uniforms=None):
        generated.append((seed, base is not None))
        return generate(spec, seed, base=base, uniforms=uniforms)

    def recorded_spectrum_for(ens, seed):
        spectrum, draws[seed] = spectrum_for(ens, seed)
        return spectrum, draws[seed]

    monkeypatch.setattr(trochoid.pipeline, "generate_dense_cyclic", recorded_generate)
    monkeypatch.setattr(trochoid.pipeline, "_spectrum_for", recorded_spectrum_for)
    ensemble = {"kind": "dense-cyclic", "n": 60, "k": 3, "target_rho": target}
    report = run_verify({"ensemble": ensemble, "seeds": [1, 2, 3, 4]})

    p = report["calibration"]["flip_prob"]
    assert p == settles if settles is not None else 0.0 < p < 1.0
    assert [seed for seed, based in generated if not based] == [4]
    assert sorted(draws) == [1, 2, 3, 4]
    for seed, draw in draws.items():
        fresh = generate_dense_cyclic(DenseCyclicSpec(n=60, k=3, flip_prob=p), seed)
        assert draw.entries.tobytes() == fresh.entries.tobytes()
        assert draw.power_trace == fresh.power_trace
    # the report's probes are calibration's: every measured p in order, ends first
    probes = calibrate_flip_prob(60, 3, target, [1, 2, 3]).probes
    assert report["calibration"]["probes"] == [list(probe) for probe in probes]
    assert [q for q, *_ in probes][:2] == [0.0, 1.0]
    # the chosen p was measured on the full draws
    assert (p, 60) in [(q, nodes) for q, _, nodes in probes]


def test_calibration_draws_each_base_once(monkeypatch):
    # calibration draws the bases; no probe regenerates one
    calls = {"pipeline": [], "correlations": []}
    for name, module in (("pipeline", trochoid.pipeline), ("correlations", trochoid.correlations)):
        def counted(n, seed, _calls=calls[name], _base=module.generate_base_iid):
            _calls.append(seed)
            return _base(n, seed)

        monkeypatch.setattr(module, "generate_base_iid", counted)
    calibration = calibrate_flip_prob(60, 3, 0.3, [1, 2, 3])
    assert len(calibration.probes) >= 3
    assert calls == {"pipeline": [1, 2, 3], "correlations": []}
    # each probe's mean is that of fresh draws at its p and size: bit for bit
    # on the full draws, and up to the last bit of the 1/sqrt(n) scale on the
    # leading half, whose probes are the 30-node ensemble's draws
    assert {nodes for _, _, nodes in calibration.probes} == {30, 60}
    for p, mean, nodes in calibration.probes:
        spec = DenseCyclicSpec(n=nodes, k=3, flip_prob=p)
        fresh = np.mean([trace_power_moment(generate_dense_cyclic(spec, s), 3) for s in [1, 2, 3]])
        assert mean == fresh if nodes == 60 else mean == pytest.approx(fresh, rel=1e-12)


def test_calibration_builds_each_flip_table_once(monkeypatch):
    # the table depends only on (seed, n), so every probe of a seed reads the
    # one built beside its base, through the global every sweep calls
    built = []

    def counted(seed, n, _table=trochoid.correlations.edge_flip_uniforms):
        built.append((seed, n))
        return _table(seed, n)

    monkeypatch.setattr(trochoid.correlations, "edge_flip_uniforms", counted)
    calibration = calibrate_flip_prob(60, 3, 0.3, [1, 2, 3])
    assert sum(0.0 < p < 1.0 for p, *_ in calibration.probes) >= 2
    # probes on the leading half read the leading rows of the same tables
    assert any(nodes == 30 for *_, nodes in calibration.probes)
    assert built == [(1, 60), (2, 60), (3, 60)]


def test_calibration_goes_on_at_full_size_after_a_missed_confirmation():
    # at n = 120 the secant settles on the leading 60 nodes at p = 0.236,
    # whose full draws read 18 % above the target: the secant goes on there,
    # its first step along the slope of the last two probes on the leading half
    target = 0.15
    probes = calibrate_flip_prob(120, 3, target, [1, 2, 3]).probes
    assert [nodes for *_, nodes in probes] == [120, 60, 60, 60, 120, 120]
    (p1, r1, _), (p2, r2, _), (p3, r3, _), (p4, r4, _) = probes[2:]
    assert abs(r2 - target) <= 0.07 * target < abs(r3 - target) and p3 == p2
    assert p4 == pytest.approx(p3 + (target - r3) * (p1 - p2) / (r1 - r2), rel=1e-12)
    assert abs(r4 - target) <= 0.07 * target


@pytest.mark.parametrize("target", [2.2, 3.0], ids=["half-end-within-tolerance", "half-end-short"])
def test_calibration_reaches_targets_only_the_full_draws_reach(target):
    # at n = 200, k = 5 the mean strength at p = 1 is 2.233 on the leading
    # 100 nodes and 3.685 on the full draws: 2.2 is within tolerance of the
    # first, so p = 1 is confirmed (and missed) on the full draws, and 3.0 is
    # beyond it, so the full p = 1 draws decide and every probe is full
    calibration = calibrate_flip_prob(200, 5, target, [1, 2, 3])
    assert [(p, nodes) for p, _, nodes in calibration.probes[1:3]] == [(1.0, 100), (1.0, 200)]
    # the answer is the last probe, on the full draws handed over
    p, mean, nodes = calibration.probes[-1]
    assert (p, nodes) == (calibration.flip_prob, 200) and abs(mean - target) <= 0.07 * target
    assert mean == np.mean([trace_power_moment(calibration.draws[s], 5) for s in [1, 2, 3]])


def test_symmetry_residual_is_skipped_above_its_cap(monkeypatch):
    monkeypatch.setattr(trochoid.pipeline, "SYMMETRY_MAX_N", 20)
    config = {"ensemble": {"kind": "regular-cyclic", "n": 30, "d": 2, "k": 3}, "seeds": [1]}
    report = run_verify(config)
    assert "symmetry_residual" not in report["seeds"][0]
    assert report["seeds"][0]["symmetry_skipped"] == "n = 30 exceeds the assignment cap 20"
    assert "mean_symmetry_residual" not in report["aggregate"]


def _stub_response(monkeypatch, response, half=None):
    """Make every calibration draw free: its strength is ``response(p, sign)``.

    The bases and draws are 1 x 1, whatever n says, and each draw carries
    the response as its Tr M^k, on the full draws and on their leading half
    alike, or ``half(p, sign)`` on a draw smaller than ``_N`` when given.
    Returns the lists that each draw appends its flip probability and its
    size (the spec's n) to.
    """
    probes, sizes = [], []

    def draw(spec, seed, base=None, uniforms=None):
        probes.append(spec.flip_prob)
        sizes.append(spec.n)
        read = half if half is not None and spec.n < _N else response
        return DenseMatrix(np.ones((1, 1)), power_trace=(spec.k, read(spec.flip_prob, spec.sign)))

    monkeypatch.setattr(trochoid.pipeline, "generate_base_iid", lambda n, seed: DenseMatrix(np.ones((1, 1))))
    monkeypatch.setattr(trochoid.pipeline, "generate_dense_cyclic", draw)
    return probes, sizes


# n only sets the noise term 3 / sqrt(seeds * nodes): 0.003 on the full
# draws here, 0.0042 on their leading half
_N = 10**6
_HALF = _N // 2


@pytest.mark.parametrize("seeds", [[1], [1, 2]])
def test_calibration_probes_along_the_secant(monkeypatch, seeds):
    probes, sizes = _stub_response(monkeypatch, lambda p, sign: 0.5 * p)
    # the secant through the ends (0, 0) and (1, 0.5) hits 0.125 exactly at p = 0.25
    assert calibrate_flip_prob(_N, 3, 0.125, seeds).flip_prob == 0.25
    # each probe draws every seed: the p = 0 end on the full draws, the
    # secant on their leading half, and its answer again on the full draws
    assert probes == [p for p in [0.0, 1.0, 0.25, 0.25] for _ in seeds]
    assert sizes == [n for n in [_N, _HALF, _HALF, _N] for _ in seeds]


def test_calibration_steps_up_a_convex_response(monkeypatch):
    # p^2 is convex: each secant through the latest two points lands short
    # of the root p = 0.3 until it crosses; tolerance 0.07 * 0.09 = 0.0063
    probes, sizes = _stub_response(monkeypatch, lambda p, sign: p * p)
    p = calibrate_flip_prob(_N, 3, 0.09, [1]).flip_prob
    expected = [0.0, 1.0, 0.09, 0.165137614679, 0.411003236246, 0.274016490595, 0.295789532009]
    # the last probe on the leading half is confirmed on the full draws
    assert probes == pytest.approx([*expected, expected[-1]], rel=1e-9)
    assert sizes == [_N, *[_HALF] * 6, _N]
    assert p == probes[-1]
    assert abs(p * p - 0.09) <= 0.07 * 0.09
    # the first four probes come up from below the target
    assert all(p * p < 0.09 for p in probes[2:4]) and probes[4] ** 2 > 0.09


@pytest.mark.parametrize(
    "response, expected",
    [
        # the secant through (1, 1) and (0.5, 0.9) crosses 0.5 at p = -1.5
        (lambda p: min(1.8 * p, 0.8 + 0.2 * p), [0.0, 1.0, 0.5, 0.25, 5 / 18]),
        # the latest two strengths, at p = 0.5 and 0.25, are both 0.9
        (lambda p: 1.0 if p == 1.0 else 0.9 if p >= 0.2 else 4.0 * p, [0.0, 1.0, 0.5, 0.25, 0.125]),
    ],
    ids=["secant-leaves-bracket", "equal-strengths"],
)
def test_calibration_falls_back_to_the_midpoint(monkeypatch, response, expected):
    probes, sizes = _stub_response(monkeypatch, lambda p, sign: response(p))
    p = calibrate_flip_prob(_N, 3, 0.5, [1]).flip_prob
    assert probes == pytest.approx([*expected, expected[-1]], rel=1e-12)
    assert sizes == [_N, *[_HALF] * (len(expected) - 1), _N]
    assert p == probes[-1]


@pytest.mark.parametrize(
    "offset, slope, target, expected",
    # the tie: both ends sit 0.03125 from the target, inside its tolerance 0.0372
    [(0.05, 0.4, 0.052, 0.0), (0.05, 0.4, 0.44, 1.0), (0.5, 0.0625, 0.53125, 1.0)],
    ids=["lower-end", "upper-end", "tie-goes-up"],
)
def test_calibration_stops_at_an_end_within_tolerance(monkeypatch, offset, slope, target, expected):
    probes, sizes = _stub_response(monkeypatch, lambda p, sign: offset + slope * p)
    assert calibrate_flip_prob(_N, 3, target, [1]).flip_prob == expected
    # the p = 0 end is measured on the full draws; the p = 1 end on their
    # leading half, so it is confirmed there
    assert probes == [0.0, 1.0] + [1.0] * (expected == 1.0)
    assert sizes == [_N, _HALF] + [_N] * (expected == 1.0)


def test_calibration_gives_up_after_its_probe_cap(monkeypatch):
    # a step at p = 0.5 never comes within 0.07 * 0.5 of the target; the
    # probes close in on the step from both sides until the cap
    probes, sizes = _stub_response(monkeypatch, lambda p, sign: float(p >= 0.5))
    with pytest.raises(CalibrationError, match="did not converge") as err:
        calibrate_flip_prob(_N, 3, 0.5, [1, 2])
    assert err.value.achievable == (0.0, 1.0)
    assert len(probes) == 2 * (2 + trochoid.pipeline._CALIBRATION_MAX_PROBES)
    assert sizes[2:] == [_HALF] * (len(sizes) - 2)


def test_calibration_rejects_a_probe_below_its_bracket(monkeypatch):
    # the strength at the first probe, the secant root p = 2/3, dips under
    # the value at p = 0 by more than the noise
    probes, sizes = _stub_response(monkeypatch, lambda p, sign: 0.02 if 0.0 < p < 1.0 else 0.1 + 0.3 * p)
    with pytest.raises(CalibrationError, match="not monotone") as err:
        calibrate_flip_prob(_N, 3, 0.3, [1])
    assert probes == pytest.approx([0.0, 1.0, 2 / 3], rel=1e-12)
    assert sizes == [_N, _HALF, _HALF]
    assert err.value.achievable == (0.1, 0.1 + 0.3)


def test_calibration_reports_the_signed_achievable_range(monkeypatch):
    # the unswept strength is 0.02 whatever the sign; sweeping toward -1 reaches -0.28
    response = lambda p, sign: 0.02 + sign * 0.3 * p
    probes, sizes = _stub_response(monkeypatch, response)
    with pytest.raises(CalibrationError, match="outside achievable range") as err:
        calibrate_flip_prob(_N, 3, -0.5, [1])
    # the leading half falls short at p = 1, and the full draws confirm it
    assert probes == [0.0, 1.0, 1.0]
    assert sizes == [_N, _HALF, _N]
    assert err.value.achievable == (response(0.0, -1), response(1.0, -1))


@pytest.mark.parametrize(
    "full, match",
    [
        # 0.5 is beyond the up-front test's reach: 0.3 * 1.07 + 0.003 < 0.5
        (0.3, "outside achievable range"),
        # in reach (0.4648 * 1.07 + 0.003 > 0.5), but outside the tolerance 0.035
        (0.4648, "did not converge: best gap 0.0352 at p=1.0000"),
    ],
    ids=["out-of-reach", "just-short"],
)
def test_calibration_measures_the_full_p1_end_once(monkeypatch, full, match):
    # the leading half settles on its p = 1 end, 0.5 on the target, and the
    # full p = 1 draws fall short of it: no p is left to probe, so they decide
    probes, sizes = _stub_response(monkeypatch, lambda p, sign: full * p, half=lambda p, sign: 0.5 * p)
    with pytest.raises(CalibrationError, match=match) as err:
        calibrate_flip_prob(_N, 3, 0.5, [1])
    assert probes == [0.0, 1.0, 1.0]
    assert sizes == [_N, _HALF, _N]
    assert err.value.achievable == (0.0, full)


def test_calibration_shares_one_probe_budget_across_both_sizes(monkeypatch):
    # the leading half reaches 0.25 at its first probe, p = 0.5, but the full
    # draws step from 0 to 1 at p = 0.6 and never come within tolerance: the
    # secant on them gets only what the leading half left of the budget
    probes, sizes = _stub_response(
        monkeypatch, lambda p, sign: float(p >= 0.6), half=lambda p, sign: 0.5 * p
    )
    with pytest.raises(CalibrationError, match="did not converge") as err:
        calibrate_flip_prob(_N, 3, 0.25, [1])
    assert err.value.achievable == (0.0, 0.5)
    # 21 draws: the ends, one probe on the leading half, then its confirmation
    # and the 17 probes left of the 18 on the full draws
    assert probes[:4] == [0.0, 1.0, 0.5, 0.5]
    assert sizes == [_N, _HALF, _HALF, *[_N] * 18]


def test_calibration_refuses_a_non_monotone_probe_on_the_full_draws(monkeypatch):
    # the leading half reaches 0.25 at p = 1/6, whose full draws read 0.2 - 1/60:
    # the secant on them steps to p = 7/18, which reads lower still, under its
    # bracket's lower end by more than the noise 0.003
    probes, sizes = _stub_response(
        monkeypatch, lambda p, sign: 0.2 - 0.1 * p, half=lambda p, sign: 0.2 + 0.3 * p
    )
    with pytest.raises(CalibrationError, match="not monotone") as err:
        calibrate_flip_prob(_N, 3, 0.25, [1])
    assert probes == pytest.approx([0.0, 1.0, 1 / 6, 1 / 6, 7 / 18], rel=1e-12)
    assert sizes == [_N, _HALF, _HALF, _N, _N]
    assert err.value.achievable == (0.2, 0.5)
