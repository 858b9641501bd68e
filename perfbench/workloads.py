"""The three benchmark workloads, their inputs, correctness gates and output digests.

Every workload calls the public API the way a user would and is built from
the benchmark seed alone: seed 0 reproduces the preset seed lists, and any
other seed shifts every seed list by ``SEED_STRIDE * seed``, so a claim can
be re-checked on held-out seeds.  Gate thresholds are the ones in
``tests/test_acceptance.py``.

The sizes are chosen so one operation takes a few seconds on a 2-core box
with one seed worker, which lets a 35-second run take a median over several
operations.  ``dense-calibrated`` is smaller than its preset (n = 500 instead
of 1000, whose calibration alone takes ~40 s); ``digraph-presets`` verifies
two seeds per ensemble, which keeps every matrix at full size but makes an
operation short enough (~3 s) for a median over about a dozen of them.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

import trochoid.interior
import trochoid.io
import trochoid.pipeline
from trochoid.boundaries import PolytrochoidParams
from trochoid.interior import GridSpec
from trochoid.presets import get_preset

SEED_STRIDE = 1000


def _shifted(config: dict, seed: int) -> dict:
    config["seeds"] = [s + SEED_STRIDE * seed for s in config["seeds"]]
    return config


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _report_bytes(report: dict) -> bytes:
    """The exact bytes ``write_json`` puts in report.json."""
    return (json.dumps(report, indent=2, sort_keys=True) + "\n").encode()


def _verify_gates(tag: str, report: dict, min_inside: float) -> list[str]:
    agg = report["aggregate"]
    problems = []
    if agg["seeds_failed"]:
        problems.append(f"{tag}: {agg['seeds_failed']} seeds failed")
    if agg["inside_fraction"] < min_inside:
        problems.append(f"{tag}: inside_fraction {agg['inside_fraction']:.4f} < {min_inside}")
    return problems


def _tiny_verify(ensemble: dict, out_dir: Path | None = None) -> None:
    trochoid.pipeline.run_verify({"ensemble": ensemble, "seeds": [1, 2]}, out_dir)


class DenseCalibrated:
    """Calibrated dense k=5 verify writing every artifact: the only workload that calibrates."""

    name = "dense-calibrated"
    files = ("report.json", "boundary.csv", "spectrum.csv", "figure.svg")

    def __init__(self, seed: int):
        self.config = _shifted(get_preset("fig1-left"), seed)
        self.config["ensemble"]["n"] = 500

    def warm_up(self, work: Path) -> None:
        _tiny_verify({"kind": "dense-cyclic", "n": 40, "k": 5, "flip_prob": 0.1}, work)

    def run(self, work: Path) -> dict:
        return trochoid.pipeline.run_verify(self.config, work)

    def check(self, report: dict, work: Path) -> list[str]:
        problems = _verify_gates(self.name, report, 0.98)
        rho = report["aggregate"]["measured_rho"]
        if abs(rho - 0.075) > 0.10 * 0.075:
            problems.append(f"{self.name}: measured rho5 {rho:.4f} not within 10% of 0.075")
        missing = [f for f in self.files if not (work / f).is_file()]
        if missing:
            problems.append(f"{self.name}: not written: {', '.join(missing)}")
        elif json.loads((work / "report.json").read_text()) != json.loads(_report_bytes(report)):
            problems.append(f"{self.name}: report.json does not re-read as the returned report")
        return problems

    def digest(self, report: dict, work: Path) -> dict[str, str]:
        return {f: _sha((work / f).read_bytes()) for f in self.files}


class DigraphPresets:
    """fig1-right, fig3-bottom and fig4 back to back, two seeds each: generators and block solves."""

    name = "digraph-presets"
    presets = {"fig1-right": 0.98, "fig3-bottom": 0.95, "fig4": 0.95}

    def __init__(self, seed: int):
        self.configs = {p: _shifted(get_preset(p), seed) for p in self.presets}
        for config in self.configs.values():
            config["seeds"] = config["seeds"][:2]

    def warm_up(self, work: Path) -> None:
        _tiny_verify({"kind": "regular-cyclic", "n": 60, "d": 2, "k": 3})
        _tiny_verify({"kind": "mixed-cyclic", "n": 60, "species": [{"d": 2, "k": 3}, {"d": 1, "k": 4}]})

    def run(self, work: Path) -> dict:
        return {p: trochoid.pipeline.run_verify(c) for p, c in self.configs.items()}

    def check(self, reports: dict, work: Path) -> list[str]:
        problems = []
        for preset, min_inside in self.presets.items():
            problems += _verify_gates(preset, reports[preset], min_inside)
        seeds = reports["fig1-right"]["seeds"]
        worst = max(entry["symmetry_residual"] for entry in seeds)
        if worst >= 1e-8:
            problems.append(f"fig1-right: symmetry residual {worst:.2e} >= 1e-8")
        targets = 2.0 * np.exp(2j * np.pi * np.arange(3) / 3)
        for entry in seeds:
            excluded = entry["containment"]["excluded_outliers"]
            if len(excluded) != 3 or any(
                min(abs(complex(re, im) - t) for re, im in excluded) >= 1e-6 for t in targets
            ):
                problems.append(f"fig1-right seed {entry['seed']}: deterministic triple not excluded")
        return problems

    def digest(self, reports: dict, work: Path) -> dict[str, str]:
        return {f"{p}/report.json": _sha(_report_bytes(r)) for p, r in reports.items()}


class LawsInterior:
    """Boundary laws and interior densities, as ``trochoid boundary`` computes them.

    No input is random, so the benchmark seed does not change this workload.
    """

    name = "laws-interior"
    laws = {
        "dense": {"law": "dense", "k": 5, "rho": 0.075},
        "sparse": {"law": "sparse", "d_hat": 1.0, "k": 3},
        "mixed": {"law": "mixed", "d1": 4, "k1": 3, "d2": 4, "k2": 4},
        "mixed-asymptotic": {"law": "mixed-asymptotic", "d1": 4, "k1": 3, "d2": 4, "k2": 4},
    }
    densities = {
        "k2": {2: 0.5},
        "k3": {3: 0.2},
        "k5": {5: 0.075},
        "k3k4": {3: 0.2, 4: 0.1},
    }
    resolution = 256  # the CLI's --density-resolution default

    def __init__(self, seed: int):
        pass

    def warm_up(self, work: Path) -> None:
        trochoid.pipeline.boundary_for(None, self.laws["mixed"], 512)
        field = trochoid.interior.interior_density(PolytrochoidParams({3: 0.2}), GridSpec(resolution=16))
        trochoid.io.write_density_csv(field, work / "warm-up.csv")

    def run(self, work: Path) -> dict:
        work.mkdir(parents=True)
        fields = {}
        for name, section in self.laws.items():
            curve = trochoid.pipeline.boundary_for(None, section, 1024)
            trochoid.io.write_curve_csv(curve, work / f"boundary-{name}.csv")
        for name, terms in self.densities.items():
            field = trochoid.interior.interior_density(
                PolytrochoidParams(terms), GridSpec(resolution=self.resolution)
            )
            trochoid.io.write_density_csv(field, work / f"density-{name}.csv")
            fields[name] = field
        return fields

    def check(self, fields: dict, work: Path) -> list[str]:
        problems = []
        for name, field in fields.items():
            integral = field.integral()
            if abs(integral - 1.0) > 0.01:
                problems.append(f"density {name}: integral {integral:.4f} not within 1% of 1")
        rho = self.densities["k2"][2]
        field = fields["k2"]
        grid = field.grid()
        core = (grid.real / (0.9 * (1 + rho))) ** 2 + (grid.imag / (0.9 * (1 - rho))) ** 2 < 1.0
        expected = 1.0 / (np.pi * (1 - rho**2))
        worst = float(np.abs(field.mu[core] / expected - 1.0).max())
        if worst > 0.02:
            problems.append(f"density k2: ellipse core off by {worst:.4f} > 2%")
        return problems

    def digest(self, fields: dict, work: Path) -> dict[str, str]:
        return {p.name: _sha(p.read_bytes()) for p in sorted(work.glob("*.csv"))}


WORKLOADS = {w.name: w for w in (DenseCalibrated, DigraphPresets, LawsInterior)}
