"""tools/mixed_survey.py draws each law both ways and counts the outcomes."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "mixed_survey.py"


def test_survey_counts_a_curve_and_a_refusal(capsys):
    spec = importlib.util.spec_from_file_location("mixed_survey", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
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
