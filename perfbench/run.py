"""Benchmark for the trochoid package.

Run from the repository root:

    python3 perfbench/run.py --workload digraph-presets --seed 0 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all

One invocation runs one workload in a closed loop, a single client issuing
the next operation when the previous one returns, for ``--seconds``, and
checks every operation against its gates and against the output digest of
the first operation.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics: ``wall_s`` (median seconds per
operation), ``setup_s`` (median over fresh interpreters of import plus
warm-up) and ``peak_rss_mb``.  ``--trace 1`` alternates untraced and traced
operations and reports the per-layer metrics of ``perfbench/spans.py``; the
traced outputs must hash like the untraced ones.

Thread settings are fixed before numpy loads: ``TROCHOID_THREADS`` = the
usable cores less one (at least 1), ``OPENBLAS_NUM_THREADS`` =
``OMP_NUM_THREADS`` = 1.  The spare core absorbs the load of other tenants of a
shared host, which otherwise stalls one of the seed workers and with it the
whole operation.  Results, the environment and any trace are written under
``.perfbench-out/``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench-out"
WORKLOAD_NAMES = ("dense-calibrated", "digraph-presets", "laws-interior")
MIN_OPS = 3
SETUP_PROBES = 5
CHILD_TIMEOUT_S = 170


def pin_threads() -> dict[str, str]:
    """Fix the thread budget; must run before numpy is imported."""
    env = {
        "TROCHOID_THREADS": str(max(1, len(os.sched_getaffinity(0)) - 1)),
        "OPENBLAS_NUM_THREADS": "1",
        "OMP_NUM_THREADS": "1",
    }
    os.environ.update(env)
    return env


def import_program() -> None:
    """Import trochoid from this checkout's sources, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "trochoid" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no trochoid sources under {src}")
    sys.path.insert(0, str(src))
    import trochoid

    if Path(trochoid.__file__).resolve().parent != src / "trochoid":
        raise SystemExit(f"perfbench: imported trochoid from {trochoid.__file__}, not {src}")


def environment(threads: dict[str, str]) -> dict:
    import numpy
    import scipy

    libs = sorted((Path(numpy.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas64_*.so"))
    openblas: dict = {"library": None}
    if libs:
        lib = ctypes.CDLL(str(libs[0]))
        lib.scipy_openblas_get_config64_.restype = ctypes.c_char_p
        lib.scipy_openblas_get_config64_.argtypes = []
        lib.scipy_openblas_get_num_threads64_.restype = ctypes.c_int
        lib.scipy_openblas_get_num_threads64_.argtypes = []
        openblas = {
            "library": libs[0].name,
            "config": lib.scipy_openblas_get_config64_().decode(),
            "num_threads": lib.scipy_openblas_get_num_threads64_(),
        }
    caches = {}
    for name in ("LEVEL1_DCACHE_SIZE", "LEVEL2_CACHE_SIZE", "LEVEL3_CACHE_SIZE"):
        try:
            out = subprocess.run(["getconf", name], capture_output=True, text=True, timeout=10)
            caches[name] = int(out.stdout.strip())
        except (OSError, ValueError, subprocess.TimeoutExpired):
            caches[name] = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "caches_bytes": caches,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "thread_env": threads,
        "openblas": openblas,
    }


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def measure_setup(args) -> float:
    """Median wall time of fresh interpreters that import and warm up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        subprocess.run(cmd, check=True, timeout=CHILD_TIMEOUT_S, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def warm_up(workload, tag: str) -> None:
    work = OUT / "work" / f"warm-up-{tag}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        workload.warm_up(work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run_op(workload, op: int, tracer) -> dict:
    """One timed operation, then its gates and digest outside the timed region."""
    work = OUT / "work" / f"{os.getpid()}-op{op}"
    shutil.rmtree(work, ignore_errors=True)
    record: dict = {"op": op, "traced": tracer is not None, "problems": []}
    try:
        with tracer.active(op) if tracer is not None else nullcontext():
            start = time.perf_counter()
            output = workload.run(work)
            record["wall_s"] = time.perf_counter() - start
        record["problems"] = workload.check(output, work)
        record["digest"] = workload.digest(output, work)
    except Exception:  # an operation that raises is a failed operation; keep measuring
        record["problems"].append(traceback.format_exc())
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return record


def measure(workload, seconds: float, tracer) -> list[dict]:
    """Closed loop for ``seconds``; with a tracer, alternate plain and traced.

    After ``MIN_OPS`` rounds, a round starts only if a round of median length
    still ends within ``seconds``, so a run lasts ``seconds`` and not up to one
    operation more.
    """
    records: list[dict] = []
    modes = [None, tracer] if tracer is not None else [None]
    rounds: list[float] = []
    start = time.perf_counter()
    while len(rounds) < MIN_OPS or time.perf_counter() - start + statistics.median(rounds) <= seconds:
        round_start = time.perf_counter()
        for mode in modes:
            records.append(run_op(workload, len(records), mode))
        rounds.append(time.perf_counter() - round_start)
    first = next((r for r in records if "digest" in r), None)
    for r in records:
        if "digest" in r and r["digest"] != first["digest"]:
            changed = sorted(k for k in r["digest"] if r["digest"][k] != first["digest"].get(k))
            r["problems"].append(f"output differs from operation {first['op']}: {', '.join(changed)}")
    return records


def run_workload(args) -> int:
    threads = pin_threads()
    import_program()
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed)
    if args.setup_probe:
        warm_up(workload, f"probe{os.getpid()}")
        return 0

    tracer = None
    if args.trace:
        from spans import LayerMissing, Tracer

        try:
            tracer = Tracer()
        except LayerMissing as exc:
            raise SystemExit(f"perfbench: {exc}") from exc
    env = environment(threads)
    setup_s = None if args.trace else measure_setup(args)
    warm_up(workload, "main")
    records = measure(workload, args.seconds, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failed = [r for r in records if r["problems"]]
    plain = [r["wall_s"] for r in records if not r["traced"] and "wall_s" in r]
    if not plain:
        raise SystemExit(f"perfbench: every operation raised; first: {records[0]['problems'][0]}")
    q1, median, q3 = quartiles(plain)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print(f"env {json.dumps(env, sort_keys=True)}")
    print(f"wall_s       median {median:.4f} s  q1 {q1:.4f}  q3 {q3:.4f}  n={len(plain)}")
    print(f"fail_ratio   {len(failed)}/{len(records)} = {len(failed) / len(records):.4f}")
    for r in failed:
        print(f"  op {r['op']} failed: {' | '.join(r['problems'])}")

    if tracer is None:
        print(f"setup_s      {setup_s:.4f} s  (median of {SETUP_PROBES} fresh interpreters)")
        print(f"peak_rss_mb  {peak_rss_mb:.1f} MB")
        metrics = {
            "wall_s": {"value": median, "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    else:
        from spans import UNITS, layer_metrics

        traced_ops = [r["op"] for r in records if r["traced"]]
        traced_walls = [r["wall_s"] for r in records if r["traced"] and "wall_s" in r]
        layers = layer_metrics(tracer.spans, traced_ops)
        layers["bench.trace_overhead_ratio"] = statistics.median(traced_walls) / median
        metrics = {
            name: {"value": value, "unit": UNITS.get(name, "s")} for name, value in layers.items()
        }
        for name, m in metrics.items():
            print(f"{name:42s} {m['value']:.6g} {m['unit']}")

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    result = {"correct": not failed, "attempted": len(records), "failed": len(failed), "metrics": metrics}
    (OUT / f"{stem}.json").write_text(
        json.dumps({"env": env, "operations": records, **result}, indent=2, sort_keys=True) + "\n"
    )
    if tracer is not None:
        (OUT / f"{stem}.trace.json").write_text(json.dumps(tracer.dump()) + "\n")
    print(json.dumps(result, sort_keys=True))
    return 0


def run_all(args) -> int:
    """Every workload in its own interpreter, one after another."""
    summary = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S + 60)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        summary[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(json.dumps(summary, sort_keys=True))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, default=0,
                        help="0 reproduces the preset seed lists; others shift them")
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
