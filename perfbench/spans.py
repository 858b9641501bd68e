"""In-memory span tracing around the trochoid layers, from outside the package.

Each traced function is replaced, for the duration of one operation, by a
wrapper stored under the name the calling code looks up at call time: the
``from``-imported names in ``trochoid.pipeline`` and the module globals that
other modules call.  Nothing under ``src/`` changes.  A name that no longer
exists raises ``LayerMissing`` before any run, so a refactor shows up as an
unmeasured layer instead of a silent zero.

Spans live in memory and are written out once, when the benchmark ends.
``ThreadPoolExecutor`` does not carry context into its workers, so each
thread keeps its own span stack; spans opened in a seed-pool worker have no
parent but carry the operation id.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import statistics
import threading
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np


class LayerMissing(RuntimeError):
    """A traced name is gone from the program: that layer would go unmeasured."""


def _edges(args, kwargs, result) -> dict:
    return {"edges": len(result.edges)}


def _grid(args, kwargs, result) -> dict:
    return {"grid_points": int(result.h.size), "branch_ok": int(np.isfinite(result.h).sum())}


def _bytes(args, kwargs, result) -> dict:
    path = kwargs["path"] if "path" in kwargs else args[-1]
    return {"bytes": Path(path).stat().st_size}


_PIPELINE_IMPORTS = (
    "generate_dense_cyclic",
    "generate_regular_cyclic",
    "generate_poisson_cyclic",
    "generate_mixed_cyclic",
    "generate_base_iid",
    "adjacency_matrix",
    "write_curve_csv",
    "write_json",
    "write_spectrum_csv",
    "write_cycle_sidecar",
    "write_dense_mtx",
    "write_digraph_mtx",
    "empirical_mixed_moment",
    "empirical_pure_moment",
    "trace_power_moment",
    "mixed_moment_candidates",
    "tree_walk_prediction",
    "compute_eigenvalues",
    "containment",
    "detect_deterministic_outliers",
    "digraph_spectrum",
    "rotation_symmetry_residual",
    "render_svg_data",
    "dense_hypotrochoid",
    "dense_polytrochoid",
    "mixed_cycle_asymptotic",
    "mixed_cycle_boundary",
    "sparse_hypotrochoid",
)

# (module, name looked up there); the span is named after the module that
# defines the function, e.g. "digraphs.generate_regular_cyclic".
TARGETS: tuple[tuple[str, str], ...] = (
    *(("trochoid.pipeline", name) for name in _PIPELINE_IMPORTS),
    # pipeline's own functions: the operation roots, calibration, the
    # per-seed task the seed pool maps, and boundary selection
    ("trochoid.pipeline", "run_verify"),
    ("trochoid.pipeline", "calibrate_flip_prob"),
    ("trochoid.pipeline", "_spectrum_for"),
    ("trochoid.pipeline", "boundary_for"),
    ("trochoid.correlations", "generate_base_iid"),
    ("trochoid.correlations", "edge_flip_uniforms"),
    ("trochoid.correlations", "induce_cyclic_correlations"),
    ("trochoid.spectra", "compute_eigenvalues"),
    ("trochoid.spectra", "phase_certificate"),
    ("trochoid.spectra", "contains"),
    ("trochoid.ensembles", "adjacency_matrix"),
    ("trochoid.interior", "contains"),
    ("trochoid.interior", "interior_density"),
    ("trochoid.io", "write_curve_csv"),
    ("trochoid.io", "write_density_csv"),
)

_COUNTERS = {
    "digraphs.generate_regular_cyclic": _edges,
    "digraphs.generate_poisson_cyclic": _edges,
    "digraphs.generate_mixed_cyclic": _edges,
    "interior.interior_density": _grid,
}


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    op: int | None
    thread: str
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _span_name(fn) -> str:
    return f"{fn.__module__.removeprefix('trochoid.')}.{fn.__name__}"


class Tracer:
    """Swaps traced wrappers in for one operation at a time and keeps the spans."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._op: int | None = None
        self._slots = []
        for module_name, attr in TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if not callable(original):
                raise LayerMissing(
                    f"layer unmeasured: {module_name}.{attr} no longer exists; "
                    "update perfbench/spans.py to the new name"
                )
            name = _span_name(original)
            counter = _COUNTERS.get(name)
            if counter is None and name.startswith("io.write_"):
                counter = _bytes
            self._slots.append((module, attr, original, self._wrap(name, original, counter)))

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else None
            with self._lock:
                span_id = next(self._ids)
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                span = Span(span_id, name, start, end, parent, self._op,
                            threading.current_thread().name)
                with self._lock:
                    self.spans.append(span)
            if counter is not None:
                span.counts = counter(args, kwargs, result)
            return result

        return traced

    @contextmanager
    def active(self, op: int):
        """Install every wrapper for operation ``op``; restore the originals after."""
        self._op = op
        for module, attr, _, wrapper in self._slots:
            setattr(module, attr, wrapper)
        try:
            yield
        finally:
            for module, attr, original, _ in self._slots:
                setattr(module, attr, original)
            self._op = None

    def dump(self) -> list[dict]:
        return [asdict(s) for s in sorted(self.spans, key=lambda s: s.id)]


# --- per-layer metrics -----------------------------------------------------


class _OpSpans:
    """The spans of one operation, indexed for layer queries."""

    def __init__(self, spans: list[Span]):
        self.spans = spans
        self.by_id = {s.id: s for s in spans}
        self.children: dict[int, list[Span]] = {}
        for s in spans:
            if s.parent is not None:
                self.children.setdefault(s.parent, []).append(s)

    def named(self, *prefixes: str) -> list[Span]:
        return [s for s in self.spans if s.name.startswith(prefixes)]

    def _ancestors(self, s: Span):
        while s.parent is not None:
            s = self.by_id[s.parent]
            yield s

    def busy(self, *prefixes: str) -> float:
        """Summed duration of the layer's outermost spans (worker threads add up)."""
        return sum(
            s.duration
            for s in self.named(*prefixes)
            if not any(a.name.startswith(prefixes) for a in self._ancestors(s))
        )

    def self_time(self, name: str) -> float:
        return sum(
            s.duration - sum(c.duration for c in self.children.get(s.id, []))
            for s in self.named(name)
        )

    def count(self, key: str, *prefixes: str) -> int:
        return sum(s.counts.get(key, 0) for s in self.named(*prefixes))

    def under(self, s: Span, name: str) -> bool:
        return any(a.name == name for a in self._ancestors(s))

    def wall(self, name: str) -> float:
        """Length of the union of the layer's span intervals."""
        total, reach = 0.0, float("-inf")
        for s in sorted(self.named(name), key=lambda s: s.start):
            if s.end > reach:
                total += s.end - max(s.start, reach)
                reach = s.end
        return total


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _op_metrics(o: _OpSpans) -> dict[str, float]:
    draws = o.named("correlations.generate_dense_cyclic")
    calibration_draws = sum(o.under(s, "pipeline.calibrate_flip_prob") for s in draws)
    pool_wall = o.wall("pipeline._spectrum_for")
    digraph_solves = o.named("spectra.digraph_spectrum")
    fallbacks = [
        s for s in o.named("spectra.compute_eigenvalues")
        if s.parent is not None and o.by_id[s.parent].name == "spectra.digraph_spectrum"
    ]
    grid_points = o.count("grid_points", "interior.interior_density")
    return {
        "pipeline.calibrate_s": o.busy("pipeline.calibrate_flip_prob"),
        "pipeline.calibrate.draws": calibration_draws,
        "pipeline.useful_draw_ratio": _ratio(len(draws) - calibration_draws, len(draws)),
        "pipeline.seed_pool_s": pool_wall,
        "pipeline.seed_pool.overlap": _ratio(o.busy("pipeline._spectrum_for"), pool_wall),
        "correlations.generate_dense_cyclic_s": o.busy("correlations.generate_dense_cyclic"),
        "correlations.induce_cyclic_correlations_s": o.busy(
            "correlations.induce_cyclic_correlations"
        ),
        "ensembles.generate_base_iid_s": o.busy("ensembles.generate_base_iid"),
        "rng.edge_flip_uniforms_s": o.busy("rng.edge_flip_uniforms"),
        "rng.edge_flip_uniforms.calls": len(o.named("rng.edge_flip_uniforms")),
        "moments.trace_power_moment_s": o.busy("moments.trace_power_moment"),
        "spectra.compute_eigenvalues_s": o.busy("spectra.compute_eigenvalues"),
        "spectra.compute_eigenvalues.calls": len(o.named("spectra.compute_eigenvalues")),
        "spectra.digraph_spectrum.self_s": o.self_time("spectra.digraph_spectrum"),
        "spectra.phase_certificate_s": o.busy("spectra.phase_certificate"),
        "spectra.dense_fallback_ratio": _ratio(len(fallbacks), len(digraph_solves)),
        "digraphs.generate_s": o.busy("digraphs.generate_"),
        "digraphs.edges": o.count("edges", "digraphs.generate_"),
        "ensembles.adjacency_matrix_s": o.busy("ensembles.adjacency_matrix"),
        "moments.empirical_mixed_moment_s": o.busy("moments.empirical_mixed_moment"),
        "spectra.rotation_symmetry_residual_s": o.busy("spectra.rotation_symmetry_residual"),
        "spectra.containment_s": o.busy("spectra.containment"),
        "geometry.contains_s": o.busy("geometry.contains"),
        "boundaries.boundary_for_s": o.busy("pipeline.boundary_for"),
        "boundaries.mixed_cycle_boundary_s": o.busy("boundaries.mixed_cycle_boundary"),
        "interior.interior_density_s": o.busy("interior.interior_density"),
        "interior.grid_points": grid_points,
        "interior.branch_ok_ratio": _ratio(
            o.count("branch_ok", "interior.interior_density"), grid_points
        ),
        "io.write_s": o.busy("io.write_"),
        "io.bytes_written": o.count("bytes", "io.write_"),
        "svg.render_svg_data_s": o.busy("svg.render_svg_data"),
    }


UNITS = {
    "pipeline.calibrate.draws": "count",
    "pipeline.useful_draw_ratio": "ratio",
    "pipeline.seed_pool.overlap": "ratio",
    "rng.edge_flip_uniforms.calls": "count",
    "spectra.compute_eigenvalues.calls": "count",
    "spectra.dense_fallback_ratio": "ratio",
    "digraphs.edges": "count",
    "interior.grid_points": "count",
    "interior.branch_ok_ratio": "ratio",
    "io.bytes_written": "bytes",
    "bench.trace_overhead_ratio": "ratio",
}


def layer_metrics(spans: list[Span], ops: list[int]) -> dict[str, float]:
    """Median over the traced operations of every per-layer metric."""
    per_op = [_op_metrics(_OpSpans([s for s in spans if s.op == op])) for op in ops]
    return {name: statistics.median(m[name] for m in per_op) for name in per_op[0]}
