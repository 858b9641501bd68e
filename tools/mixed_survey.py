"""Check the two-species boundary's fast path against its per-sample sweep.

Every law of a grid is drawn twice: by ``mixed_cycle_boundary`` (the coarse
sweep and batched refine, falling back to the per-sample sweep on doubt)
and by the per-sample sweep alone.  The two must have the same outcome:
both a curve, with every (t1, t2, phi2) state within 1e-9, or both the
same refusal (error type and message).  The default grid has 486 laws:

  d1 in {1, 2, 4}, k1 in {2, 3, 4}, w1 = 1,
  d2 in {0, 1, 2}, k2 in {3, 4, 6}, w2 in {+-0.5, +-1, +-1.3}

Usage: python tools/mixed_survey.py [--samples N] [--law d1,k1,w1,d2,k2,w2 ...]

Prints each mismatch, then the curve and refusal counts, how many curves
took the fast path, the worst state gap, a digest and the time each side
took.  The digest is a sha256 over every law's outcome on both paths (the
states, z and sweep record of a curve, or the refusal's type and message),
so two checkouts that print the same digest draw every law bit for bit
alike.  Exits 1 on any mismatch.  Run with OPENBLAS_NUM_THREADS=1 for
timings comparable with perfbench's.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
AGREEMENT = 1e-9
# (d1, k1, w1, d2, k2, w2)
GRID = list(
    itertools.product(
        (1, 2, 4), (2, 3, 4), (1.0,), (0, 1, 2), (3, 4, 6), (0.5, -0.5, 1.0, -1.0, 1.3, -1.3)
    )
)


def _law(text: str) -> tuple:
    d1, k1, w1, d2, k2, w2 = text.split(",")
    return float(d1), int(k1), float(w1), float(d2), int(k2), float(w2)


def _outcome(draw, params, n_samples: int):
    """(curve or None, refusal or None, seconds)."""
    from trochoid.errors import TrochoidError

    start = time.perf_counter()
    try:
        curve, refusal = draw(params, n_samples), None
    except TrochoidError as exc:
        curve, refusal = None, f"{type(exc).__name__}: {exc}"
    return curve, refusal, time.perf_counter() - start


def survey(laws: list[tuple], n_samples: int) -> dict:
    from trochoid.boundaries import MixedCycleParams, _mixed_boundary, mixed_cycle_boundary

    def per_sample(params, n):
        return _mixed_boundary(params, n, coarse=False)

    tally = {"curves": 0, "refusals": 0, "fast": 0, "mismatches": 0, "worst_gap": 0.0,
             "fast_s": 0.0, "per_sample_s": 0.0}
    digest = hashlib.sha256()
    for law in laws:
        params = MixedCycleParams(*law)
        curve, refusal, fast_s = _outcome(mixed_cycle_boundary, params, n_samples)
        ref_curve, ref_refusal, ref_s = _outcome(per_sample, params, n_samples)
        for c, r in ((curve, refusal), (ref_curve, ref_refusal)):
            if c is None:
                digest.update(r.encode())
            else:
                digest.update(c.states.tobytes() + c.z.tobytes() + repr(c.sweep).encode())
        tally["fast_s"] += fast_s
        tally["per_sample_s"] += ref_s
        if curve is not None and ref_curve is not None:
            gap = float(abs(curve.states - ref_curve.states).max())
            tally["worst_gap"] = max(tally["worst_gap"], gap)
            tally["curves"] += 1
            tally["fast"] += curve.sweep.fallback is None
            same = gap <= AGREEMENT
            detail = f"state gap {gap:.3g}"
        else:
            tally["refusals"] += refusal is not None
            same = refusal is not None and refusal == ref_refusal
            detail = f"{refusal or 'curve'} | per-sample: {ref_refusal or 'curve'}"
        if not same:
            tally["mismatches"] += 1
            print(f"MISMATCH {law}: {detail}")
    tally["digest"] = digest.hexdigest()[:16]
    return tally


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--samples", type=int, default=1024)
    parser.add_argument("--law", type=_law, action="append", help="d1,k1,w1,d2,k2,w2 (repeatable)")
    args = parser.parse_args(argv)
    laws = args.law or GRID
    t = survey(laws, args.samples)
    print(f"laws        {len(laws)} at {args.samples} samples")
    print(f"curves      {t['curves']} ({t['fast']} on the fast path)")
    print(f"refusals    {t['refusals']}")
    print(f"mismatches  {t['mismatches']}")
    print(f"worst gap   {t['worst_gap']:.3g}")
    print(f"digest      {t['digest']}")
    print(f"time        {t['fast_s']:.2f} s mixed_cycle_boundary, "
          f"{t['per_sample_s']:.2f} s per-sample sweep")
    return 1 if t["mismatches"] else 0


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))  # this checkout's sources, not an installed copy
    sys.exit(main(sys.argv[1:]))
