"""Survey where calibration lands the dense-calibrated workload over 24 bench seeds.

For each bench seed s in 0 .. 23 it runs perfbench's dense-calibrated
workload as perfbench builds it (fig1-left at n = 500 on the preset's seeds
shifted by 1000 s), writing its files to a temporary directory, lets the
workload's own check judge the result, and reads:

  deviation  |rho5 - target| for the report's measured rho5, the quantity
             the workload gates
  error      |mean - target| / target for the mean strength of calibration's
             own full draws (the first three seeds) at the flip_prob it returned
  probes     the probe sets calibration measured on the leading half and on
             the full draws, its two ends included

Usage: python tools/calibration_survey.py

Prints the worst deviation and its bench seed, the median landing error,
the probe counts, the failed bench seeds and a digest.  The digest is a
sha256 over every bench seed's flip_prob and probes (or its error), so two
checkouts that print the same digest calibrate every seed bit for bit
alike.  Exits 1 when a bench seed fails or the workload's check refuses it.
The script pins OPENBLAS_NUM_THREADS and TROCHOID_THREADS to 1 for its own
process before numpy loads, as perfbench does.
"""

from __future__ import annotations

import hashlib
import importlib.util
import os
import statistics
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def survey(count: int) -> dict:
    from trochoid.errors import TrochoidError

    spec = importlib.util.spec_from_file_location("perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    tally = {"deviations": [], "errors": [], "half": 0, "full": 0, "failed": []}
    digest = hashlib.sha256()
    for bench in range(count):
        workload = workloads.DenseCalibrated(bench)
        n, target = workload.config["ensemble"]["n"], workload.config["ensemble"]["target_rho"]
        with tempfile.TemporaryDirectory() as work:
            try:
                report = workload.run(Path(work))
            except TrochoidError as exc:
                digest.update(f"{bench} {type(exc).__name__}: {exc}\n".encode())
                tally["failed"].append(bench)
                continue
            if workload.check(report, Path(work)):
                tally["failed"].append(bench)
        calibration = report["calibration"]
        flip, probes = calibration["flip_prob"], calibration["probes"]
        digest.update(f"{bench} {flip!r} {probes!r}\n".encode())
        tally["half"] += sum(nodes < n for *_, nodes in probes)
        tally["full"] += sum(nodes == n for *_, nodes in probes)
        landed = next(mean for p, mean, nodes in reversed(probes) if p == flip and nodes == n)
        tally["errors"].append(abs(landed - target) / abs(target))
        tally["deviations"].append((abs(report["aggregate"]["measured_rho"] - target), bench))
    tally["median_error"] = statistics.median(tally["errors"]) if tally["errors"] else None
    tally["digest"] = digest.hexdigest()[:16]
    return tally


def main() -> int:
    count = 24
    t = survey(count)
    print(f"bench seeds      {count}, the dense-calibrated workload")
    if t["deviations"]:
        deviation, bench = max(t["deviations"])
        print(f"worst deviation  {deviation:.5f} at bench seed {bench}")
        print(f"median error     {100 * t['median_error']:.2f} %")
    print(f"probes           {t['half'] + t['full']}: {t['half']} half-size, {t['full']} full-size")
    print(f"failed           {' '.join(map(str, t['failed'])) or 'none'}")
    print(f"digest           {t['digest']}")
    return 1 if t["failed"] else 0


if __name__ == "__main__":
    os.environ["OPENBLAS_NUM_THREADS"] = os.environ["TROCHOID_THREADS"] = "1"
    sys.path.insert(0, str(ROOT / "src"))  # this checkout's sources, not an installed copy
    sys.exit(main())
