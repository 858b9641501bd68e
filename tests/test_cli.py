import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import trochoid
from trochoid.cli import main
from trochoid.errors import CalibrationError, ConfigError
from trochoid.pipeline import calibrate_flip_prob, run_verify
from trochoid.presets import get_preset


def _write_config(tmp_path, config):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return str(path)


def test_preset_parameters_are_pinned():
    fig1_left = get_preset("fig1-left")["ensemble"]
    assert (fig1_left["n"], fig1_left["k"], fig1_left["target_rho"]) == (1000, 5, 0.075)
    fig1_right = get_preset("fig1-right")["ensemble"]
    assert (fig1_right["n"], fig1_right["d"], fig1_right["k"]) == (999, 2, 3)
    fig3_top = get_preset("fig3-top")["ensemble"]
    assert (fig3_top["d"], fig3_top["k"]) == (2, 3)
    fig3_bottom = get_preset("fig3-bottom")["ensemble"]
    assert (fig3_bottom["mean_degree"], fig3_bottom["n"]) == (8.0, 1000)
    fig4 = get_preset("fig4")["ensemble"]
    assert fig4["n"] == 996
    assert [(s["d"], s["k"]) for s in fig4["species"]] == [(4, 3), (4, 4)]
    assert all(s["weight"] == 1.0 for s in fig4["species"])
    assert get_preset("fig2")["ensemble"]["kind"] == "dense-cyclic"


def test_get_preset_returns_a_copy():
    a = get_preset("fig4")
    a["ensemble"]["n"] = 5
    assert get_preset("fig4")["ensemble"]["n"] == 996


def test_unknown_preset_rejected():
    with pytest.raises(ConfigError):
        get_preset("fig99")


def test_generate_smallest_graph(tmp_path, capsys):
    config = {"ensemble": {"kind": "regular-cyclic", "n": 3, "d": 1, "k": 3}, "seeds": [1]}
    rc = main(["generate", "--config", _write_config(tmp_path, config), "--out-dir", str(tmp_path)])
    assert rc == 0
    manifest = json.loads(capsys.readouterr().out)
    mtx = [f for f in manifest["files"] if f.endswith(".mtx")][0]
    body = [ln for ln in open(mtx).read().splitlines()[2:] if ln.strip()]
    assert len(body) == 3  # one line per edge


def test_generate_divisibility_error_exits_2(tmp_path, capsys):
    config = {"ensemble": {"kind": "regular-cyclic", "n": 10, "d": 1, "k": 3}, "seeds": [1]}
    rc = main(["generate", "--config", _write_config(tmp_path, config)])
    assert rc == 2
    err = json.loads(capsys.readouterr().err)
    assert "divisible" in err["error"]["message"]


def test_empty_seed_list_is_config_error(tmp_path, capsys):
    config = {"ensemble": {"kind": "dense-iid", "n": 10}, "seeds": []}
    rc = main(["verify", "--config", _write_config(tmp_path, config)])
    assert rc == 2


def test_verify_writes_report_and_artifacts(tmp_path):
    config = {
        "ensemble": {"kind": "regular-cyclic", "n": 120, "d": 2, "k": 3},
        "seeds": [1, 2],
        "inflation": 0.03,
    }
    rc = main(["verify", "--config", _write_config(tmp_path, config), "--out-dir", str(tmp_path / "out")])
    assert rc == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["aggregate"]["inside_fraction"] > 0.9
    assert (tmp_path / "out" / "boundary.csv").exists()
    assert (tmp_path / "out" / "spectrum.csv").exists()
    assert (tmp_path / "out" / "figure.svg").exists()
    for entry in report["seeds"]:
        c = entry["containment"]
        assert set(c) == {"total", "inside", "outside", "excluded_outliers", "worst_violation"}
        assert c["inside"] + c["outside"] + len(c["excluded_outliers"]) == c["total"]


def test_verify_report_is_byte_deterministic(tmp_path):
    config = {
        "ensemble": {"kind": "poisson-cyclic", "n": 100, "mean_degree": 3.0, "k": 3},
        "seeds": [4, 5],
    }
    cfg = _write_config(tmp_path, config)
    main(["verify", "--config", cfg, "--out-dir", str(tmp_path / "a")])
    main(["verify", "--config", cfg, "--out-dir", str(tmp_path / "b")])
    assert (tmp_path / "a" / "report.json").read_bytes() == (tmp_path / "b" / "report.json").read_bytes()
    assert (tmp_path / "a" / "figure.svg").read_bytes() == (tmp_path / "b" / "figure.svg").read_bytes()


def test_generate_is_byte_deterministic(tmp_path):
    config = {"ensemble": {"kind": "dense-cyclic", "n": 40, "k": 3, "flip_prob": 0.5}, "seeds": [7]}
    cfg = _write_config(tmp_path, config)
    main(["generate", "--config", cfg, "--out-dir", str(tmp_path / "a")])
    main(["generate", "--config", cfg, "--out-dir", str(tmp_path / "b")])
    a = (tmp_path / "a" / "dense-cyclic-seed7.mtx").read_bytes()
    b = (tmp_path / "b" / "dense-cyclic-seed7.mtx").read_bytes()
    assert a == b


def test_boundary_subcommand(tmp_path, capsys):
    out = tmp_path / "curve.csv"
    rc = main(["boundary", "--law", "dense", "--k", "5", "--rho", "0.075", "--out", str(out)])
    assert rc == 0
    assert out.read_text().splitlines()[0] == "phi,re,im"
    # int() and float() read "1_0" as 10 and "0_1" as 1; the number flags refuse them
    with pytest.raises(SystemExit) as refused:
        main(["boundary", "--law", "dense", "--k", "1_0", "--rho", "0_1", "--out", str(tmp_path / "c.csv")])
    assert refused.value.code == 2
    assert not (tmp_path / "c.csv").exists()


def test_boundary_poly_terms(tmp_path):
    out = tmp_path / "poly.csv"
    rc = main(["boundary", "--law", "poly", "--term", "3:0.2", "--term", "4:0.1", "--out", str(out)])
    assert rc == 0
    first = out.read_text().splitlines()[1].split(",")
    assert float(first[1]) == pytest.approx(1.3)


def test_render_subcommand(tmp_path):
    from trochoid.boundaries import HypotrochoidParams, dense_hypotrochoid
    from trochoid.io import write_curve_csv, write_spectrum_csv

    write_spectrum_csv(np.array([0.3 + 0.1j]), tmp_path / "s.csv")
    write_curve_csv(dense_hypotrochoid(HypotrochoidParams(k=3, rho=0.1)), tmp_path / "c.csv")
    rc = main(["render", "--spectrum", str(tmp_path / "s.csv"), "--boundary", str(tmp_path / "c.csv"), "--out", str(tmp_path / "f.svg")])
    assert rc == 0


def test_render_missing_file_exits_1(tmp_path, capsys):
    rc = main(["render", "--spectrum", "/nonexistent.csv", "--boundary", "/nope.csv", "--out", str(tmp_path / "f.svg")])
    assert rc == 1


def test_calibrate_zero_target_is_zero():
    assert calibrate_flip_prob(100, 3, 0.0, [1]).flip_prob == 0.0


def test_calibrate_unreachable_target_reports_range():
    with pytest.raises(CalibrationError) as err:
        calibrate_flip_prob(120, 3, 10.0, [1, 2])
    lo, hi = err.value.achievable
    assert hi < 10.0


def _mean_strength(n, k, p, seeds):
    from trochoid.correlations import DenseCyclicSpec, generate_dense_cyclic
    from trochoid.moments import trace_power_moment

    return np.mean([trace_power_moment(generate_dense_cyclic(DenseCyclicSpec(n, k, p), s), k) for s in seeds])


def test_calibrate_reaches_moderate_target():
    # the secant through the two ends lands within tolerance at its first
    # probe on the leading half, and the full draws confirm it
    p = calibrate_flip_prob(300, 3, 0.3, [1, 2, 3]).flip_prob
    assert p == pytest.approx(0.39900986603958144, rel=1e-9)
    assert abs(_mean_strength(300, 3, p, [1, 2, 3]) - 0.3) / 0.3 < 0.10


def test_calibrate_brackets_target_despite_sweep_noise():
    # on the leading 60 nodes the sweep noise (0.224) is most of the target,
    # so the bracket is updated by the measured mean alone: a bracket picked
    # with that margin could have both ends below the target
    p = calibrate_flip_prob(120, 3, 0.3, [1, 2, 3]).flip_prob
    assert p == pytest.approx(0.41378908690728455, rel=1e-9)
    assert abs(_mean_strength(120, 3, p, [1, 2, 3]) - 0.3) / 0.3 < 0.10


def test_calibrate_keeps_sweep_point_within_tolerance():
    # the first probe is the secant root through the ends, the p = 1 end
    # measured on the leading half (the 60-node ensemble); its mean sits 4 %
    # below the target there and 3 % above it on the full draws, inside the
    # 7 % tolerance both times, so it is the answer as is
    seeds = [1, 2, 3]
    r0, r1 = abs(_mean_strength(120, 3, 0.0, seeds)), _mean_strength(60, 3, 1.0, seeds)
    root = (0.35 - r0) / (r1 - r0)
    p = calibrate_flip_prob(120, 3, 0.35, seeds).flip_prob
    assert p == pytest.approx(root, rel=1e-12)
    assert 0.02 < (0.35 - _mean_strength(60, 3, p, seeds)) / 0.35 < 0.07
    assert 0.02 < (_mean_strength(120, 3, p, seeds) - 0.35) / 0.35 < 0.07


def test_moments_subcommand(tmp_path, capsys):
    config = {"ensemble": {"kind": "dense-iid", "n": 200}, "seeds": [1, 2, 3]}
    rc = main(["moments", "--config", _write_config(tmp_path, config), "--mixed", "1,2", "--pure", "3"])
    assert rc == 0
    table = json.loads(capsys.readouterr().out)
    rows = {(r["order"]["kind"], r["order"].get("l", r["order"].get("k"))): r for r in table["moments"]}
    assert rows[("mixed", 1)]["empirical"] == pytest.approx(1.0, abs=0.1)
    assert rows[("mixed", 1)]["predicted"] == 1.0
    assert rows[("mixed", 2)]["predicted"] == 2.0
    assert rows[("pure", 3)]["stderr"] >= 0


def test_cli_requires_some_config(capsys):
    rc = main(["verify"])
    assert rc == 2


def test_fig1_right_generate_matches_quoted_shape(tmp_path, capsys):
    # the reference figure quotes 1000 nodes / 2000 edge slots; exact
    # membership in two 3-cycles per node needs 3 | 2n, hence 999 and 1998
    rc = main(["generate", "--preset", "fig1-right", "--seed", "3", "--out-dir", str(tmp_path)])
    assert rc == 0
    manifest = json.loads(capsys.readouterr().out)
    mtx = [f for f in manifest["files"] if f.endswith(".mtx")][0]
    lines = open(mtx).read().splitlines()
    n, _, nnz = (int(x) for x in lines[1].split())
    assert n == 999
    total_weight = sum(float(ln.split()[2]) for ln in lines[2:] if ln.strip())
    assert total_weight == 1998.0
    sidecar = json.loads(open([f for f in manifest["files"] if f.endswith(".json")][0]).read())
    assert len(sidecar["cycles"]) == 666


def test_thread_cap_env_var(monkeypatch):
    from trochoid.pipeline import max_workers

    monkeypatch.setenv("TROCHOID_THREADS", "2")
    assert max_workers() == 2
    monkeypatch.setenv("TROCHOID_THREADS", "junk")
    with pytest.raises(ConfigError):
        max_workers()
    monkeypatch.delenv("TROCHOID_THREADS")
    assert max_workers() >= 1


def test_fig4_report_carries_continuation_diagnostics(tmp_path):
    config = get_preset("fig4")
    config["seeds"] = [1]
    report = run_verify(config)
    diag = report["boundary"]["continuation"]
    assert diag["swept_angles"] == 1024
    assert diag["phi2_at_zero"] == 0.0
    assert 0 < diag["t1_at_zero"] < 1
    # the coarse sweep and its refine were kept: no halving, no fallback
    assert (diag["coarse_steps"], diag["step_halvings"], diag["fallback"]) == (64, 0, None)


def test_boundary_off_branch_sweep_exits_1(tmp_path, capsys):
    out = tmp_path / "mixed.csv"
    rc = main([
        "boundary", "--law", "mixed", "--d1", "2", "--k1", "3", "--w1", "0.7",
        "--d2", "1", "--k2", "4", "--w2", "1.3", "--out", str(out),
    ])
    assert rc == 1
    error = json.loads(capsys.readouterr().err)["error"]
    assert error["type"] == "ContinuationError"
    assert "winds 0 times about the origin" in error["message"]
    assert not out.exists()


def test_no_exclude_outliers_flag(tmp_path):
    config = {
        "ensemble": {"kind": "regular-cyclic", "n": 120, "d": 2, "k": 3},
        "seeds": [1],
        "inflation": 0.03,
    }
    cfg = _write_config(tmp_path, config)
    rc = main(["verify", "--config", cfg, "--out-dir", str(tmp_path / "kept"), "--no-exclude-outliers"])
    assert rc == 0
    kept = json.loads((tmp_path / "kept" / "report.json").read_text())
    entry = kept["seeds"][0]["containment"]
    # the row-sum eigenvalue family stays in the census and sits outside
    assert entry["excluded_outliers"] == []
    assert entry["outside"] >= 3
    assert kept["seeds"][0]["inside_fraction"] < 1.0


def test_verify_report_carries_moment_tables(tmp_path):
    config = {
        "ensemble": {"kind": "regular-cyclic", "n": 120, "d": 2, "k": 3},
        "seeds": [1, 2],
    }
    report = run_verify(config)
    per_seed = report["seeds"][0]["moments"]
    orders = {(r["order"]["kind"], r["order"].get("k", r["order"].get("l"))) for r in per_seed}
    assert orders == {("pure", 3), ("mixed", 1), ("mixed", 2)}
    agg = {(r["order"]["kind"], r["order"].get("k", r["order"].get("l"))): r for r in report["aggregate"]["moments"]}
    # raw cycle-count moment: d per node, and the walk-count prediction agrees
    assert agg[("pure", 3)]["empirical"] == pytest.approx(2.0, rel=0.2)
    assert agg[("pure", 3)]["predicted"] == 2.0
    assert agg[("mixed", 1)]["predicted"] == 2.0
    assert agg[("mixed", 1)]["stderr"] >= 0


def test_boundary_density_output(tmp_path, capsys):
    out = tmp_path / "c.csv"
    dens = tmp_path / "d.csv"
    rc = main([
        "boundary", "--law", "dense", "--k", "2", "--rho", "0.5",
        "--out", str(out), "--density-out", str(dens), "--density-resolution", "64",
    ])
    assert rc == 0
    assert dens.read_text().splitlines()[0] == "re,im,mu"
    printed = capsys.readouterr().out
    assert "no branch at 0 of " in printed
    assert "continuation at 0 of " in printed  # below the cusp every point is certified
    # past the cusp some inside points have no continued branch, and every
    # inside point takes the continuation
    rc = main([
        "boundary", "--law", "poly", "--term", "3:0.55",
        "--out", str(out), "--density-out", str(dens), "--density-resolution", "64",
    ])
    assert rc == 0
    printed = capsys.readouterr().out
    missing, inside = map(int, re.search(r"no branch at (\d+) of (\d+) inside", printed).groups())
    assert 0 < missing < inside
    assert f"continuation at {inside} of {inside} inside grid points" in printed
    # below the cusp, the points the one-shot solve did not certify
    rc = main([
        "boundary", "--law", "poly", "--term", "4:0.3",
        "--out", str(out), "--density-out", str(dens), "--density-resolution", "64",
    ])
    assert rc == 0
    assert "no branch at 0 of 638 inside grid points, continuation at 16 of 638" in capsys.readouterr().out
    rc = main([
        "boundary", "--law", "sparse", "--d-hat", "1", "--k", "3",
        "--out", str(out), "--density-out", str(dens),
    ])
    assert rc == 2  # density is a dense-law feature


def test_report_is_independent_of_thread_count(tmp_path, monkeypatch):
    config = {
        "ensemble": {"kind": "poisson-cyclic", "n": 150, "mean_degree": 4.0, "k": 3},
        "seeds": [1, 2, 3],
    }
    monkeypatch.setenv("TROCHOID_THREADS", "1")
    serial = json.dumps(run_verify(config), sort_keys=True)
    monkeypatch.setenv("TROCHOID_THREADS", "4")
    threaded = json.dumps(run_verify(config), sort_keys=True)
    assert serial == threaded


_TINY_GRAPH = {"kind": "regular-cyclic", "n": 12, "d": 2, "k": 3}


@pytest.mark.parametrize(
    "argv, config",
    [
        (["boundary", "--law", "dense", "--k", "1", "--rho", "0.1"], None),
        (["boundary", "--law", "dense", "--k", "5", "--rho", "0.075", "--samples", "100"], None),
        (["boundary", "--law", "sparse", "--d-hat", "0", "--k", "3"], None),
        (["boundary", "--law", "poly"], None),
        (["verify"], {"ensemble": _TINY_GRAPH, "seeds": [1], "boundary": {"law": "dense", "k": "x", "rho": 0.1}}),
        (["verify"], {"ensemble": _TINY_GRAPH, "seeds": [1], "samples": 10}),
        (["verify"], {"ensemble": _TINY_GRAPH, "seeds": [1], "inflation": -1}),
        (["verify"], {"ensemble": {"kind": "dense-cyclic", "n": 20, "k": 3, "flip_prob": 0.5, "target_rho": 0.1}, "seeds": [1]}),
        (["verify"], {"ensemble": {"kind": "dense-iid", "n": 0}, "seeds": [1]}),
        (["verify", "--seeds", "1,x"], {"ensemble": _TINY_GRAPH, "seeds": [1]}),
        (["boundary", "--law", "dense", "--k", "2", "--rho", "0.5",
          "--density-out", "d.csv", "--density-resolution", "4"], None),
        (["calibrate", "--n", "20", "--k", "2", "--target-rho", "0.1"], None),
        (["calibrate", "--n", "20", "--k", "3", "--target-rho", "0.1", "--seeds", "1,x"], None),
        (["calibrate", "--n", "20", "--k", "3", "--target-rho", "nan"], None),
        (["verify"], {"ensemble": {"kind": "dense-cyclic", "n": 20, "k": 3, "target_rho": float("nan")}, "seeds": [1]}),
        (["verify"], {"ensemble": {"kind": "dense-cyclic", "n": 20, "k": 3, "target_rho": 0.2, "sign": -1}, "seeds": [1]}),
        (["moments", "--pure", "0"], {"ensemble": _TINY_GRAPH, "seeds": [1]}),
        (["moments", "--pure", "x"], {"ensemble": _TINY_GRAPH, "seeds": [1]}),
        (["verify"], {"ensemble": _TINY_GRAPH, "seeds": [1], "outputs": "out"}),
        (["verify"], {"ensemble": _TINY_GRAPH, "seeds": [1], "outputs": {"dir": 5}}),
        (["generate"], {"ensemble": _TINY_GRAPH, "seeds": [1], "outputs": "out"}),
        (["verify"], {"ensemble": _TINY_GRAPH, "seeds": [1], "boundary": {"law": "dense", "k": 3.5, "rho": 0.1}}),
        (["verify"], {"ensemble": _TINY_GRAPH, "seeds": [1], "boundary": {"law": "sparse", "d_hat": 1, "k": 3.2}}),
        (["verify"], {"ensemble": _TINY_GRAPH, "seeds": [1],
                      "boundary": {"law": "mixed", "d1": 4, "k1": 3.5, "d2": 4, "k2": 4}}),
        (["verify"], {"ensemble": _TINY_GRAPH, "seeds": [1], "boundary": {"law": "dense", "k": 3, "rho": 0.1, "rh0": 5}}),
        (["verify"], {"ensemble": _TINY_GRAPH, "seeds": [1], "boundary": {"law": "poly", "terms": {"3": 0.2, "03": 0.1}}}),
        (["boundary", "--law", "poly", "--term", "3:0.2", "--term", "3:0.1"], None),
        (["verify", "--seeds", "1_0"], {"ensemble": _TINY_GRAPH, "seeds": [1]}),
        (["moments", "--pure", "1_0"], {"ensemble": _TINY_GRAPH, "seeds": [1]}),
        (["boundary", "--law", "poly", "--term", "1_0:0.01"], None),
        (["verify"], {"ensemble": {"kind": "regular-cyclic", "n": 30, "d": 2, "k": 3, "target_rho": 0.3,
                                   "law": "dense"}, "seeds": [1]}),
        (["verify"], {"ensemble": _TINY_GRAPH, "seeds": [1],
                      "boundary": {"law": "dense", "k": 3, "rho": 0.1, "target_rho": 5}}),
        (["verify"], {"ensemble": _TINY_GRAPH, "seeds": [1], "boundary": {"law": "poly", "terms": [3, 0.2]}}),
        # an Arabic-Indic three, which str.isdigit and int accept
        (["verify"], {"ensemble": _TINY_GRAPH, "seeds": [1], "boundary": {"law": "poly", "terms": {"\u0663": 0.2}}}),
    ],
    ids=["dense-k1", "few-samples", "sparse-dhat0", "poly-no-terms",
         "boundary-field-type", "verify-samples", "negative-inflation", "flip-and-target", "iid-n0",
         "verify-seeds", "density-resolution", "calibrate-k2", "calibrate-seeds", "calibrate-target-nan",
         "verify-target-nan", "verify-target-sign", "moments-order0", "moments-order-x",
         "verify-outputs-str", "verify-outputs-dir", "generate-outputs-str",
         "dense-law-k-fraction", "sparse-law-k-fraction", "mixed-law-k1-fraction",
         "dense-law-unknown-field", "poly-law-order-twice", "poly-term-order-twice",
         "verify-seeds-underscore", "moments-order-underscore", "poly-term-underscore",
         "ensemble-unread-structural-keys", "law-unread-target-rho", "poly-terms-list",
         "poly-term-non-ascii-digit"],
)
def test_config_errors_exit_2(tmp_path, capsys, monkeypatch, argv, config):
    _assert_exit_2_before_any_draw(tmp_path, capsys, monkeypatch, argv, config)


def _assert_exit_2_before_any_draw(tmp_path, capsys, monkeypatch, argv, config):
    # a config error must surface before anything is drawn or written
    import trochoid.pipeline

    def no_draw(*args):
        raise AssertionError("drew a matrix for an invalid config")

    for name in ("_spectrum_for", "calibrate_flip_prob", "generate_base_iid", "generate_dense_cyclic",
                 "generate_regular_cyclic", "generate_poisson_cyclic", "generate_mixed_cyclic"):
        monkeypatch.setattr(trochoid.pipeline, name, no_draw)
    monkeypatch.chdir(tmp_path)
    if argv[0] == "boundary":
        argv = argv + ["--out", "curve.csv"]
    elif config is not None:
        argv = argv + ["--config", _write_config(tmp_path, config)]
    assert main(argv) == 2
    error = json.loads(capsys.readouterr().err)["error"]
    assert error["type"] == "config"
    assert [f.name for f in tmp_path.iterdir()] in ([], ["config.json"])
    return error["message"]


@pytest.mark.parametrize("text", ["[1, 2]", "null", '"abc"', "[[1, 2]]"], ids=["list", "null", "string", "pairs"])
def test_config_file_that_is_not_an_object_exits_2(tmp_path, capsys, monkeypatch, text):
    # each once reached config.update: a TypeError or ValueError traceback, or
    # [[1, 2]] read as the mapping {1: 2} on top of the preset
    (tmp_path / "config.json").write_text(text)
    argv = ["verify", "--preset", "fig1-right", "--config", str(tmp_path / "config.json")]
    _assert_exit_2_before_any_draw(tmp_path, capsys, monkeypatch, argv, None)


@pytest.mark.parametrize("argv", [["verify"], ["generate"], ["moments", "--pure", "3"]], ids=lambda a: a[0])
@pytest.mark.parametrize(
    "config",
    [
        {"ensemble": _TINY_GRAPH, "seeds": [1], "inflaton": 0.5},
        {"ensemble": _TINY_GRAPH, "seeds": [1], "outputs": {"svgg": False}},
    ],
    ids=["top-level", "outputs"],
)
def test_unknown_config_field_exits_2_under_every_runner(tmp_path, capsys, monkeypatch, argv, config):
    # once dropped for the default: verify ran at inflation 0.03 and drew an svg
    message = _assert_exit_2_before_any_draw(tmp_path, capsys, monkeypatch, argv, config)
    assert ("'inflaton'" if "inflaton" in config else "'svgg'") in message


@pytest.mark.parametrize(
    "section, config",
    [
        ("ensemble", {"ensemble": {**_TINY_GRAPH, "svgg": False}, "seeds": [1]}),
        ("config", {"ensemble": _TINY_GRAPH, "seeds": [1], "svgg": False}),
        ("outputs", {"ensemble": _TINY_GRAPH, "seeds": [1], "outputs": {"svgg": False}}),
    ],
    ids=["ensemble", "config", "outputs"],
)
def test_unknown_field_names_its_section(tmp_path, capsys, monkeypatch, section, config):
    # the same typo once gave the same message in all three sections
    message = _assert_exit_2_before_any_draw(tmp_path, capsys, monkeypatch, ["verify"], config)
    assert f"unknown {section} field(s) 'svgg'" in message


@pytest.mark.parametrize("argv", [["verify"], ["generate"], ["moments", "--pure", "3"]], ids=lambda a: a[0])
@pytest.mark.parametrize(
    "seeds, named",
    [([1, 2, 1], "seed 1 is listed twice"), ([3, 3.0], "seed 3 is listed twice"),
     ([-1, 2**64 - 1], "seeds -1 and 18446744073709551615 are one draw")],
    ids=["repeat", "whole-float", "same-64-bits"],
)
def test_repeated_seed_exits_2_under_every_runner(tmp_path, capsys, monkeypatch, argv, seeds, named):
    # a repeated seed was once pooled twice, as if two independent draws
    dense = {"kind": "dense-cyclic", "n": 20, "k": 3, "target_rho": 0.2}
    message = _assert_exit_2_before_any_draw(tmp_path, capsys, monkeypatch, argv, {"ensemble": dense, "seeds": seeds})
    assert named in message


def test_calibrate_refuses_a_repeated_seed(capsys):
    # calibration would average the one draw twice
    assert main(["calibrate", "--n", "20", "--k", "3", "--target-rho", "0.2", "--seeds", "1,2,1"]) == 2
    assert "seed 1 is listed twice" in json.loads(capsys.readouterr().err)["error"]["message"]


def test_seeds_given_as_text_are_named_as_given(tmp_path, capsys, monkeypatch):
    # a string once went through the seed reader one character at a time
    config = {"ensemble": _TINY_GRAPH, "seeds": "12"}
    assert "'12'" in _assert_exit_2_before_any_draw(tmp_path, capsys, monkeypatch, ["verify"], config)


@pytest.mark.parametrize(
    "argv, config",
    [
        (["boundary", "--law", "sparse", "--d-hat", "nan", "--k", "3"], None),
        (["boundary", "--law", "dense", "--k", "3", "--rho", "nan"], None),
        (["boundary", "--law", "poly", "--term", "2:inf", "--density-out", "d.csv"], None),
        (["boundary", "--law", "mixed", "--d1", "4", "--k1", "3", "--d2", "4", "--k2", "4", "--w2", "inf"], None),
        (["verify"], {"ensemble": {"kind": "poisson-cyclic", "n": 30, "mean_degree": float("inf"), "k": 3}, "seeds": [1]}),
        (["verify"], {"ensemble": {**_TINY_GRAPH, "weight": float("nan")}, "seeds": [1]}),
        (["verify"], {"ensemble": {"kind": "mixed-cyclic", "n": 24, "species": [
            {"d": 2, "k": 3}, {"d": 1, "k": 4, "weight": float("inf")}]}, "seeds": [1]}),
        (["verify"], {"ensemble": {**_TINY_GRAPH, "d": float("inf")}, "seeds": [1]}),
        (["verify", "--preset", "fig3-bottom", "--inflation", "inf"], None),
    ],
    ids=["sparse-dhat-nan", "dense-rho-nan", "poly-rho-inf", "mixed-w2-inf", "poisson-degree-inf",
         "regular-weight-nan", "mixed-weight-inf", "regular-d-inf", "inflation-inf"],
)
def test_non_finite_numbers_exit_2(tmp_path, capsys, monkeypatch, argv, config):
    _assert_exit_2_before_any_draw(tmp_path, capsys, monkeypatch, argv, config)


@pytest.mark.parametrize(
    "config",
    [
        {"ensemble": _TINY_GRAPH, "seeds": [1.5, 1.7]},
        {"ensemble": _TINY_GRAPH, "seeds": [True, 2]},
        {"ensemble": _TINY_GRAPH, "seeds": ["1"]},
        {"ensemble": _TINY_GRAPH, "seeds": [1], "samples": 1024.5},
        {"ensemble": {**_TINY_GRAPH, "k": 4}, "seeds": [1], "exclude_outliers": "false"},
        {"ensemble": {"kind": "regular-cyclic", "n": 30.7, "d": 2, "k": 3}, "seeds": [1]},
        {"ensemble": {**_TINY_GRAPH, "d": 2.9}, "seeds": [1]},
        {"ensemble": {**_TINY_GRAPH, "k": "3"}, "seeds": [1]},
        {"ensemble": {"kind": "dense-iid", "n": 20.5}, "seeds": [1]},
        {"ensemble": {"kind": "dense-cyclic", "n": 20, "k": 3, "flip_prob": True}, "seeds": [1]},
        {"ensemble": {"kind": "dense-cyclic", "n": 20, "k": 3, "flip_prob": 0.5, "sign": 1.5}, "seeds": [1]},
        {"ensemble": {"kind": "mixed-cyclic", "n": 24, "species": [{"d": 2.5, "k": 3}, {"d": 1, "k": 4}]},
         "seeds": [1]},
        {"ensemble": _TINY_GRAPH, "seeds": [1], "inflation": True},
        {"ensemble": {**_TINY_GRAPH, "wieght": 0.5}, "seeds": [1]},
        {"ensemble": {"kind": "poisson-cyclic", "n": 30, "mean_degree": 2.0, "k": 3, "stratified": False},
         "seeds": [1]},
        {"ensemble": {"kind": "mixed-cyclic", "n": 24, "species": [{"d": 2, "k": 3, "w": 0.5}, {"d": 1, "k": 4}]},
         "seeds": [1]},
        {"ensemble": {"kind": "dense-iid", "n": 20, "k": 3}, "seeds": [1]},
    ],
    ids=["seeds-fraction", "seeds-bool", "seeds-string", "samples-fraction", "exclude-outliers-string",
         "regular-n-fraction", "regular-d-fraction", "regular-k-string", "iid-n-fraction",
         "flip-prob-bool", "sign-fraction", "species-d-fraction", "inflation-bool",
         "regular-unknown-field", "poisson-stratified", "species-unknown-field", "iid-unknown-field"],
)
def test_malformed_seeds_and_flags_exit_2(tmp_path, capsys, monkeypatch, config):
    # each of these once ran as something else: [1, 1], [1, 2], with outliers
    # excluded, with a field truncated to an integer or a bool read as 1, or
    # with a misspelt or out-of-reach field dropped for its default
    _assert_exit_2_before_any_draw(tmp_path, capsys, monkeypatch, ["verify"], config)


def test_malformed_thread_cap_exits_2_before_calibration(tmp_path, capsys, monkeypatch):
    # the cap is read with the run fields, so calibration never starts; int()
    # alone would read "1_6" as 16
    config = {"ensemble": {"kind": "dense-cyclic", "n": 20, "k": 3, "target_rho": 0.2}, "seeds": [1]}
    for cap in ("two", "1_6"):
        monkeypatch.setenv("TROCHOID_THREADS", cap)
        _assert_exit_2_before_any_draw(tmp_path, capsys, monkeypatch, ["verify"], config)


_DEGENERATE_MIXED = {
    "d1-0-k4": (0, 4, 1.0, 3, 3, 1.0),
    "d1-0-k3": (0, 3, 1.0, 4, 4, 1.0),
    "segment-w0.5": (2, 2, 1.0, 0, 3, 0.5),
    "segment-w1": (2, 2, 1.0, 0, 3, 1.0),
}


@pytest.mark.parametrize("route", ["boundary", "verify-auto", "verify-explicit"])
@pytest.mark.parametrize("law", _DEGENERATE_MIXED.values(), ids=_DEGENERATE_MIXED.keys())
def test_degenerate_mixed_law_exits_2(tmp_path, capsys, monkeypatch, law, route):
    names = ("d1", "k1", "w1", "d2", "k2", "w2")
    if route == "boundary":
        argv = ["boundary", "--law", "mixed"]
        for name, value in zip(names, law):
            argv += [f"--{name}", str(value)]
        _assert_exit_2_before_any_draw(tmp_path, capsys, monkeypatch, argv, None)
        return
    d1, k1, w1, d2, k2, w2 = law
    species = [{"d": d1, "k": k1, "weight": w1}, {"d": d2, "k": k2, "weight": w2}]
    config = {"ensemble": {"kind": "mixed-cyclic", "n": 24, "species": species}, "seeds": [1]}
    if route == "verify-explicit":
        config["ensemble"] = _TINY_GRAPH
        config["boundary"] = {"law": "mixed", **dict(zip(names, law))}
    _assert_exit_2_before_any_draw(tmp_path, capsys, monkeypatch, ["verify"], config)


def test_calibrate_seed_list_skips_empty_entries(capsys):
    # --seeds is parsed as in every other subcommand, so a trailing comma is dropped
    assert main(["calibrate", "--n", "20", "--k", "3", "--target-rho", "0", "--seeds", "1,2,"]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "flip_prob": 0.0, "n": 20, "k": 3, "target_rho": 0.0, "probes": []
    }
    # the printed probes are calibration's, as a calibrated verify report lists them
    assert main(["calibrate", "--n", "60", "--k", "3", "--target-rho", "0.3", "--seeds", "1,2,3,"]) == 0
    printed = json.loads(capsys.readouterr().out)
    calibration = calibrate_flip_prob(60, 3, 0.3, [1, 2, 3])
    assert printed["flip_prob"] == calibration.flip_prob
    assert printed["probes"] == [list(probe) for probe in calibration.probes]


def _fresh_python(code: str, **env: str) -> str:
    """The stdout of ``code`` run in a fresh interpreter that finds this trochoid."""
    env = {**os.environ, "PYTHONPATH": str(Path(trochoid.__file__).parents[1]), **env}
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True).stdout


def test_import_leaves_scipy_optimize_unloaded():
    # the package, the CLI and the pipeline start without scipy; the
    # rotation-symmetry residual loads scipy's compiled assignment solver
    # alone, so scipy.optimize, the slowest of all, stays unloaded even
    # after a residual
    code = (
        "import sys, trochoid, trochoid.cli, trochoid.pipeline\n"
        "print([m for m in ('scipy.optimize', 'scipy.sparse', 'scipy.sparse.csgraph') if m in sys.modules])\n"
        "for ensemble in [{'kind': 'dense-cyclic', 'n': 30, 'k': 5, 'flip_prob': 0.3},\n"
        "                 {'kind': 'regular-cyclic', 'n': 30, 'd': 2, 'k': 3}]:\n"
        "    report = trochoid.pipeline.run_verify({'ensemble': ensemble, 'seeds': [1]})\n"
        "    print('symmetry_residual' in report['seeds'][0], 'scipy.optimize' in sys.modules)\n"
        "import scipy.optimize\n"
        "print(trochoid.spectra._solver is scipy.optimize.linear_sum_assignment)\n"
    )
    assert _fresh_python(code).split("\n") == ["[]", "True False", "True False", "True", ""]


def test_runs_load_no_scipy_but_the_assignment_solver():
    # a digraph is certified, sliced into blocks and multiplied by numpy
    # alone: after a regular verify, a two-species verify whose length gcd 1
    # takes the dense fallback, a Poisson moments table and a digraph
    # generate, the only scipy module loaded is the residual's solver
    code = (
        "import sys, tempfile\n"
        "from trochoid.pipeline import run_generate, run_moments, run_verify\n"
        "run_verify({'ensemble': {'kind': 'regular-cyclic', 'n': 60, 'd': 2, 'k': 3}, 'seeds': [1]})\n"
        "species = [{'d': 2, 'k': 3}, {'d': 1, 'k': 4}]\n"
        "run_verify({'ensemble': {'kind': 'mixed-cyclic', 'n': 48, 'species': species}, 'seeds': [1]})\n"
        "poisson = {'kind': 'poisson-cyclic', 'n': 80, 'mean_degree': 3.0, 'k': 3}\n"
        "run_moments({'ensemble': poisson, 'seeds': [1, 2]}, [3, 4], [1, 2])\n"
        "with tempfile.TemporaryDirectory() as out:\n"
        "    run_generate({'ensemble': {'kind': 'regular-cyclic', 'n': 30, 'd': 2, 'k': 3}, 'seeds': [1]}, out)\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    assert _fresh_python(code) == "['scipy.optimize._lsap']\n"


def test_verify_report_is_the_same_when_two_workers_load_the_solver(tmp_path):
    # at two seed workers the first two residuals may load the solver at the
    # same moment, in a fresh process; the report must not notice
    config = _write_config(
        tmp_path, {"ensemble": {"kind": "dense-cyclic", "n": 40, "k": 5, "flip_prob": 0.3}, "seeds": [1, 2, 3, 4]}
    )
    reports = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        code = f"import trochoid.cli; trochoid.cli.main(['verify', '--config', {config!r}, '--out-dir', {str(out)!r}])"
        _fresh_python(code, TROCHOID_THREADS=threads)
        reports.append((out / "report.json").read_bytes())
    assert reports[0] == reports[1]
    assert all("symmetry_residual" in seed for seed in json.loads(reports[0])["seeds"])
