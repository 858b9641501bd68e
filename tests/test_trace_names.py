"""The benchmark's layer tracer still finds, and records, the names it wraps."""

import importlib.util
import sys
from pathlib import Path

import pytest

import trochoid.interior
import trochoid.pipeline
from trochoid.boundaries import PolytrochoidParams
from trochoid.digraphs import RegularCyclicSpec
from trochoid.interior import GridSpec
from trochoid.pipeline import run_moments, run_verify

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


@pytest.fixture
def spans(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their defining module up in sys.modules
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_traced_layers_are_recorded(spans):
    tracer = spans.Tracer()  # raises LayerMissing when a traced name is gone
    with tracer.active(0):
        run_verify({"ensemble": {"kind": "regular-cyclic", "n": 30, "d": 2, "k": 3}, "seeds": [1]})
        run_verify({"ensemble": {"kind": "dense-cyclic", "n": 30, "k": 3, "flip_prob": 0.5}, "seeds": [1]})
        run_verify({"ensemble": {"kind": "dense-cyclic", "n": 40, "k": 3, "target_rho": 0.3}, "seeds": [1]})
        trochoid.interior.interior_density(PolytrochoidParams({3: 0.2}), GridSpec(resolution=16))
        # seed 8 draws two 2-cycles on the same node pair: 16 steps, 12 distinct pairs
        g = trochoid.pipeline.generate_regular_cyclic(RegularCyclicSpec(n=8, d=2, k=2), seed=8)
    names = {s.id: s.name for s in tracer.spans}
    assert {
        "digraphs.generate_regular_cyclic",
        "correlations.generate_dense_cyclic",
        "spectra.digraph_spectrum",
        "interior.interior_density",
        # the seed task calls these through pipeline's globals
        "pipeline._spectrum_for",
        "moments.empirical_pure_moment",
        "moments.empirical_mixed_moment",
        "spectra.rotation_symmetry_residual",
    } <= set(names.values())
    # calibration probes are draws: perfbench counts them by this ancestor
    by_id = {s.id: s for s in tracer.spans}

    def ancestors(span):
        while span.parent is not None:
            span = by_id[span.parent]
            yield span.name

    assert any(
        "pipeline.calibrate_flip_prob" in ancestors(s)
        for s in tracer.spans
        if s.name == "correlations.generate_dense_cyclic"
    )
    assert "rng.edge_flip_uniforms" in names.values()
    # both callers must still look ``contains`` up as a module global
    contains_callers = {names.get(s.parent) for s in tracer.spans if s.name == "geometry.contains"}
    assert {"interior.interior_density", "spectra.containment"} <= contains_callers

    pairs = {(c[i], c[(i + 1) % len(c)]) for c in g.cycles for i in range(len(c))}
    assert len(pairs) < sum(map(len, g.cycles))
    generated = [s for s in tracer.spans if s.name == "digraphs.generate_regular_cyclic"]
    assert generated[-1].counts == {"edges": len(pairs)}


def _traced_verify(spans, ensemble: dict) -> list:
    tracer = spans.Tracer()
    with tracer.active(0):
        run_verify({"ensemble": ensemble, "seeds": [1, 2]})
    return tracer.spans


def test_certified_digraph_builds_no_dense_adjacency(spans):
    names = [s.name for s in _traced_verify(spans, {"kind": "regular-cyclic", "n": 30, "d": 2, "k": 3})]
    assert "spectra.phase_certificate" in names
    assert "ensembles.adjacency_matrix" not in names


def test_fallback_solve_builds_one_dense_adjacency_per_seed(spans):
    # k = 4 on 30 nodes stratifies into 2 phase classes: no certificate of order 4
    traced = _traced_verify(spans, {"kind": "regular-cyclic", "n": 30, "d": 2, "k": 4})
    by_id = {s.id: s for s in traced}
    dense = [s for s in traced if s.name == "ensembles.adjacency_matrix"]
    assert len(dense) == 2
    assert all(by_id[s.parent].name == "spectra.digraph_spectrum" for s in dense)


@pytest.mark.parametrize("k", [3, 4], ids=["certified", "fallback"])
def test_moments_multiply_the_sparse_draw(spans, k):
    # a digraph's moments multiply its sparse adjacency, with or without a phase certificate
    config = {"ensemble": {"kind": "regular-cyclic", "n": 30, "d": 2, "k": k}, "seeds": [1, 2]}
    tracer = spans.Tracer()
    with tracer.active(0):
        run_moments(config, [k, 6], [1, 2])
    names = [s.name for s in tracer.spans]
    assert "moments.trace_power_moment" in names
    assert "ensembles.adjacency_matrix" not in names
