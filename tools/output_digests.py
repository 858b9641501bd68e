"""Print a sha256 digest of every file in a fixed set of program outputs.

The set covers the paths whose bytes a behaviour-preserving change must keep:

  verify    report.json, boundary.csv, spectrum.csv and figure.svg of the
            fig1-right, fig3-bottom and fig4 presets at seed 1, a regular
            digraph whose length gcd does not divide n (the dense fallback
            solve), a weighted two-species digraph against an explicit
            large-degree law, and a calibrated dense ensemble (n = 200, k = 5)
  laws      curve CSVs of the dense, sparse, mixed-asymptotic and poly laws,
            and of two finite-degree two-species laws: fig4's, which takes
            the batched fast path, and one that falls back to the
            per-sample sweep
  generate  the files and manifests run_generate writes for regular and
            mixed digraphs and for the calibrated dense ensemble
  moments   moment tables from run_moments: a Poisson digraph's, and the
            calibrated dense ensemble's

Usage: python tools/output_digests.py [group ...]   (default: every group)

Prints one "<sha256>  <file>" line per file, files in sorted order relative
to the output directory, then "<sha256>  combined" over those lines.
tests/output_digests.txt records this output, and tests/test_output_digests.py
compares against it.  Bytes hold per numpy and OpenBLAS build only:
fingerprint() names the build, and the tests that pin bytes skip on any
build other than the recorded one (foreign_fingerprint()).  To compare two
checkouts, run it in each: each imports trochoid from its own src/.  The
script pins OPENBLAS_NUM_THREADS and TROCHOID_THREADS to 1 for its own
process before numpy loads, since reports are byte-reproducible only for a
fixed BLAS thread count.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# this tool's output at the last change that moved bytes, after "# " lines
# naming the fingerprint() it was recorded under
RECORDED = ROOT / "tests" / "output_digests.txt"

_WEIGHTED_SPECIES = [{"d": 2, "k": 3, "weight": 0.7}, {"d": 1, "k": 4, "weight": -1.3}]
VERIFY = {
    "fig1-right": "fig1-right",
    "fig3-bottom": "fig3-bottom",
    "fig4": "fig4",
    "regular-n30-k4": {"ensemble": {"kind": "regular-cyclic", "n": 30, "d": 2, "k": 4}, "seeds": [1]},
    "mixed-weighted-asymptotic": {
        "ensemble": {"kind": "mixed-cyclic", "n": 60, "species": _WEIGHTED_SPECIES},
        "boundary": {"law": "mixed-asymptotic", "d1": 2, "k1": 3, "w1": 0.7, "d2": 1, "k2": 4, "w2": -1.3},
        "seeds": [1, 2],
    },
    "dense-calibrated": {
        "ensemble": {"kind": "dense-cyclic", "n": 200, "k": 5, "target_rho": 0.075},
        "seeds": [1, 2, 3],
    },
}
# seed 4 is drawn after calibration, which hands over the draws of seeds 1-3
DENSE_CALIBRATED = {**VERIFY["dense-calibrated"], "seeds": [1, 2, 3, 4]}
LAWS = {
    "dense": {"law": "dense", "k": 5, "rho": 0.075},
    "sparse": {"law": "sparse", "d_hat": 1.0, "k": 3, "weight": -0.5},
    "mixed-asymptotic": {"law": "mixed-asymptotic", "d1": 4, "k1": 4, "w1": 1.0, "d2": 4, "k2": 3, "w2": -1.0},
    "poly": {"law": "poly", "terms": {"3": 0.2, "4": 0.1}},
    "mixed-fig4": {"law": "mixed", "d1": 4, "k1": 3, "w1": 1.0, "d2": 4, "k2": 4, "w2": 1.0},
    "mixed-fallback": {"law": "mixed", "d1": 1, "k1": 4, "w1": 1.0, "d2": 1, "k2": 3, "w2": 1.0},
}
GENERATE = {
    "regular": {"ensemble": {"kind": "regular-cyclic", "n": 30, "d": 2, "k": 3}, "seeds": [1, 2]},
    "mixed": {"ensemble": {"kind": "mixed-cyclic", "n": 24, "species": _WEIGHTED_SPECIES}, "seeds": [1]},
    "dense-calibrated": DENSE_CALIBRATED,
}
# name -> (config, pure orders, mixed orders)
MOMENTS = {
    "poisson": ({"ensemble": {"kind": "poisson-cyclic", "n": 200, "mean_degree": 3.0, "k": 3}, "seeds": [1, 2]},
                [3, 6], [1, 2]),
    "dense-calibrated": (DENSE_CALIBRATED, [5], [1]),
}


def _verify(out: Path) -> None:
    from trochoid.pipeline import run_verify
    from trochoid.presets import get_preset

    for name, config in VERIFY.items():
        if isinstance(config, str):
            config = {**get_preset(config), "seeds": [1]}
        run_verify(config, out / "verify" / name)


def _laws(out: Path) -> None:
    from trochoid.io import write_curve_csv
    from trochoid.pipeline import boundary_for

    (out / "laws").mkdir()
    for name, section in LAWS.items():
        write_curve_csv(boundary_for(None, section), out / "laws" / f"{name}.csv")


def _generate(out: Path) -> None:
    from trochoid.io import write_json
    from trochoid.pipeline import run_generate

    # from inside ``out``, so that the manifest lists the files by relative path
    with contextlib.chdir(out):
        for name, config in GENERATE.items():
            manifest = run_generate(config, Path("generate") / name)
            write_json(manifest, Path("generate") / name / "manifest.json")


def _moments(out: Path) -> None:
    from trochoid.io import write_json
    from trochoid.pipeline import run_moments

    (out / "moments").mkdir()
    for name, (config, pure, mixed) in MOMENTS.items():
        write_json(run_moments(config, pure, mixed), out / "moments" / f"{name}.json")


def fingerprint() -> list[str]:
    """The numpy version and the config string of its bundled OpenBLAS, kernel included."""
    import ctypes

    import numpy as np

    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas64_*.so"))
    blas = "no bundled OpenBLAS"
    if libs:
        get_config = ctypes.CDLL(str(libs[0])).scipy_openblas_get_config64_
        get_config.argtypes, get_config.restype = [], ctypes.c_char_p
        blas = get_config().decode()
    return [f"numpy {np.__version__}", blas]


def foreign_fingerprint() -> str | None:
    """Why recorded bytes cannot be compared here, or None on the fingerprint RECORDED names.

    Outputs are byte-reproducible per machine and BLAS build only.
    """
    recorded = [line[2:] for line in RECORDED.read_text().splitlines() if line.startswith("# ")]
    here = fingerprint()
    return None if here == recorded else f"digests recorded under {recorded}, this machine is {here}"


GROUPS = {"verify": _verify, "laws": _laws, "generate": _generate, "moments": _moments}


def main(argv: list[str]) -> int:
    unknown = [g for g in argv if g not in GROUPS]
    if unknown:
        print(f"unknown group(s) {unknown}; choose from {list(GROUPS)}", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        for group in argv or GROUPS:
            GROUPS[group](out)
        lines = [
            f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.relative_to(out)}"
            for path in sorted(p for p in out.rglob("*") if p.is_file())
        ]
    for line in lines:
        print(line)
    print(f"{hashlib.sha256(chr(10).join(lines).encode()).hexdigest()}  combined")
    return 0


if __name__ == "__main__":
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    os.environ["TROCHOID_THREADS"] = "1"
    sys.path.insert(0, str(ROOT / "src"))  # this checkout's sources, not an installed copy
    sys.exit(main(sys.argv[1:]))
