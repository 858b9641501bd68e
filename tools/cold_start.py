"""Time trochoid commands from a cold start, each in fresh interpreters.

Usage: python tools/cold_start.py [--runs N] [command ...]   (default: 7 runs, every command)

Each run starts a new Python that imports trochoid from this checkout's
src/ and either only imports the package or calls ``trochoid.cli.main`` on
one command, with one seed worker and one BLAS thread.  The commands take
turns, N rounds, so a load that comes and goes on the host falls on all of
them.  For each command it prints one JSON line: the median seconds from
spawn to exit, the largest peak RSS of its children (from ``os.wait4``),
and how many scipy modules the last child had loaded when it finished,
with the names of those that have at most one dot.  To compare two
checkouts, run it in each.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

_SPECIES = [{"d": 2, "k": 3}, {"d": 1, "k": 4}]  # length gcd 1: no phase certificate, the dense solve
_VERIFY = {
    "dense-verify": {"kind": "dense-cyclic", "n": 60, "k": 5, "flip_prob": 0.1},
    "regular-verify": {"kind": "regular-cyclic", "n": 60, "d": 2, "k": 3},
    "mixed-fallback-verify": {"kind": "mixed-cyclic", "n": 48, "species": _SPECIES},
}
# name -> the trochoid command line, or None for the bare import
COMMANDS: dict[str, list[str] | None] = {
    "import": None,
    **{name: ["verify", "--config", f"{name}.json", "--seed", "1"] for name in _VERIFY},
    "poisson-moments": ["moments", "--preset", "fig3-bottom", "--seed", "1", "--pure", "3,4", "--mixed", "1,2"],
}

_CHILD = """\
import contextlib, io, json, sys
import trochoid
args = {args!r}
if args is not None:
    from trochoid.cli import main
    with contextlib.redirect_stdout(io.StringIO()):
        main(args)
print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))
"""


def run_once(args: list[str] | None, cwd: Path) -> tuple[float, float, list[str]]:
    """(seconds, peak RSS in MB, scipy modules loaded) of one fresh interpreter."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "TROCHOID_THREADS": "1",
           "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
    start = time.perf_counter()
    child = subprocess.Popen([sys.executable, "-c", _CHILD.format(args=args)], cwd=cwd, env=env,
                             stdout=subprocess.PIPE)
    out = child.stdout.read()
    _, status, usage = os.wait4(child.pid, 0)
    seconds = time.perf_counter() - start
    child.stdout.close()
    child.returncode = os.waitstatus_to_exitcode(status)  # reaped here, so Popen must not wait again
    if child.returncode:
        raise SystemExit(f"{args} exited with status {child.returncode}")
    return seconds, usage.ru_maxrss / 1024, json.loads(out)


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=7)
    parser.add_argument("commands", nargs="*", help=f"any of {', '.join(COMMANDS)}")
    opts = parser.parse_args(argv)
    names = opts.commands or list(COMMANDS)
    unknown = set(names) - set(COMMANDS)
    if unknown or opts.runs < 1:
        parser.error(f"unknown command(s) {sorted(unknown)}" if unknown else "--runs must be >= 1")
    results: dict[str, list] = {name: [] for name in names}
    with tempfile.TemporaryDirectory() as work:
        for name, ensemble in _VERIFY.items():
            Path(work, f"{name}.json").write_text(json.dumps({"ensemble": ensemble}))
        for _ in range(opts.runs):
            for name in names:
                results[name].append(run_once(COMMANDS[name], Path(work)))
    for name, runs in results.items():
        seconds, rss, modules = zip(*runs)
        print(json.dumps({
            "command": name, "runs": len(runs), "median_s": round(statistics.median(seconds), 3),
            "max_rss_mb": round(max(rss), 1), "scipy_modules": len(modules[-1]),
            "scipy_packages": [m for m in modules[-1] if m.count(".") <= 1],
        }))


if __name__ == "__main__":
    main()
