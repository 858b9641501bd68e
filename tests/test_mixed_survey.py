"""tools/mixed_survey.py draws each law both ways and counts the outcomes."""

import importlib.util
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def _tool(name: str):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_survey_counts_a_curve_and_a_refusal(capsys):
    tool = _tool("mixed_survey")
    assert len(tool.GRID) == 486
    # fig4 takes the fast path; the second law's sweep winds 0 times either way
    argv = ["--samples", "512", "--law", "4,3,1,4,4,1", "--law", "2,3,0.7,1,4,1.3"]
    assert tool.main(argv) == 0
    lines = dict(line.split(None, 1) for line in capsys.readouterr().out.splitlines())
    assert lines["laws"] == "2 at 512 samples"
    assert lines["curves"] == "1 (1 on the fast path)"
    assert lines["refusals"] == "1"
    assert lines["mismatches"] == "0"
    assert float(lines["worst"].split()[1]) <= 1e-9
    # the digest folds in both outcomes of every law, and is the same on a second call
    assert len(lines["digest"]) == 16
    assert tool.main(argv) == 0
    again = dict(line.split(None, 1) for line in capsys.readouterr().out.splitlines())
    assert again["digest"] == lines["digest"]


def test_five_laws_keep_their_recorded_digest(capsys):
    # one law down each path of the two-species sweep: the fast path, the
    # fallback after a coarse step that needed a halving, the fallback after
    # the predecessor check, a stall after 8 halvings, and a curve that
    # winds 0 times; the digest holds their states, points and sweep records
    foreign = _tool("output_digests").foreign_fingerprint()
    if foreign:
        pytest.skip(foreign)
    laws = ["4,3,1,4,4,1", "1,4,1,1,3,1", "2,3,1,1,4,1", "1,2,1,1,3,0.5", "2,3,0.7,1,4,1.3"]
    argv = ["--samples", "512"] + [arg for law in laws for arg in ("--law", law)]
    assert _tool("mixed_survey").main(argv) == 0
    lines = dict(line.split(None, 1) for line in capsys.readouterr().out.splitlines())
    assert lines["curves"] == "3 (1 on the fast path)"
    assert lines["refusals"] == "2"
    assert lines["digest"] == "5c42e86ceb6089a7"
