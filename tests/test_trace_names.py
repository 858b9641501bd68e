"""The benchmark's layer tracer still finds, and records, the names it wraps."""

import importlib.util
import sys
from pathlib import Path

import trochoid.interior
from trochoid.boundaries import PolytrochoidParams
from trochoid.interior import GridSpec
from trochoid.pipeline import run_verify

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_traced_layers_are_recorded(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    # dataclasses look their defining module up in sys.modules
    monkeypatch.setitem(sys.modules, spec.name, spans)
    spec.loader.exec_module(spans)

    tracer = spans.Tracer()  # raises LayerMissing when a traced name is gone
    with tracer.active(0):
        run_verify({"ensemble": {"kind": "regular-cyclic", "n": 30, "d": 2, "k": 3}, "seeds": [1]})
        run_verify({"ensemble": {"kind": "dense-cyclic", "n": 30, "k": 3, "flip_prob": 0.5}, "seeds": [1]})
        trochoid.interior.interior_density(PolytrochoidParams({3: 0.2}), GridSpec(resolution=16))
    names = {s.id: s.name for s in tracer.spans}
    assert {
        "digraphs.generate_regular_cyclic",
        "correlations.generate_dense_cyclic",
        "spectra.digraph_spectrum",
        "interior.interior_density",
    } <= set(names.values())
    # both callers must still look ``contains`` up as a module global
    contains_callers = {names.get(s.parent) for s in tracer.spans if s.name == "geometry.contains"}
    assert {"interior.interior_density", "spectra.containment"} <= contains_callers
