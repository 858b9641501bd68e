import json

import pytest

from trochoid.pipeline import run_generate, run_verify

# ensemble, per-seed moment orders, drawn by the flip sweep, symmetry checked,
# auto law and the part of its params the report must carry verbatim
KINDS = {
    "iid": (
        {"kind": "dense-iid", "n": 30},
        [("pure", 2), ("mixed", 1), ("mixed", 2)], False, False,
        "HypotrochoidParams", {"k": 2, "rho": 0.0},
    ),
    "dense-pinned": (
        {"kind": "dense-cyclic", "n": 30, "k": 4, "flip_prob": 0.3},
        [("pure", 4), ("mixed", 1)], True, True,
        "HypotrochoidParams", {"k": 4},
    ),
    "regular": (
        {"kind": "regular-cyclic", "n": 30, "d": 2, "k": 3},
        [("pure", 3), ("mixed", 1), ("mixed", 2)], False, True,
        "SparseCyclicParams", {"d_hat": 1, "k": 3, "weight": 1.0},
    ),
    "poisson": (
        {"kind": "poisson-cyclic", "n": 30, "mean_degree": 3, "k": 3},
        [("pure", 3), ("mixed", 1), ("mixed", 2)], False, True,
        "SparseCyclicParams", {"d_hat": 3.0, "k": 3, "weight": 1.0},
    ),
    "mixed-gcd1": (
        {"kind": "mixed-cyclic", "n": 24, "species": [{"d": 2, "k": 3}, {"d": 1, "k": 4}]},
        [("pure", 3), ("pure", 4), ("mixed", 1)], False, False,
        "MixedCycleParams", {"d1": 2, "k1": 3, "w1": 1.0, "d2": 1, "k2": 4, "w2": 1.0},
    ),
    "mixed-d0": (
        {"kind": "mixed-cyclic", "n": 24, "species": [{"d": 2, "k": 3}, {"d": 0, "k": 4}]},
        [("pure", 3), ("mixed", 1)], False, True,
        "MixedCycleParams", {"d1": 2, "k1": 3, "d2": 0, "k2": 4},
    ),
}


@pytest.mark.parametrize(
    "ensemble, orders, flip_sweep, symmetric, law, params", KINDS.values(), ids=KINDS.keys()
)
def test_report_shape_per_kind(tmp_path, ensemble, orders, flip_sweep, symmetric, law, params):
    config = {"ensemble": ensemble, "seeds": [1, 2]}
    report = run_verify(config)
    assert report["aggregate"]["seeds_failed"] == 0
    for entry in report["seeds"]:
        got = [(r["order"]["kind"], r["order"].get("k", r["order"].get("l"))) for r in entry["moments"]]
        assert got == orders
        assert ("measured_rho" in entry) == flip_sweep
        assert ("symmetry_residual" in entry) == symmetric
    assert ("measured_rho" in report["aggregate"]) == flip_sweep
    assert report["boundary"]["law"] == law
    # auto laws keep the spec's native types: an int d_hat is written as 1, not 1.0
    carried = {key: report["boundary"]["params"][key] for key in params}
    assert json.dumps(carried, sort_keys=True) == json.dumps(params, sort_keys=True)

    manifest = run_generate(config, tmp_path)
    if flip_sweep:
        assert report["calibration"] == {"flip_prob": ensemble["flip_prob"]}
        assert manifest["flip_prob"] == ensemble["flip_prob"]
    else:
        assert "calibration" not in report
        assert "flip_prob" not in manifest
