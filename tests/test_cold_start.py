"""tools/cold_start.py times commands in fresh interpreters."""

import importlib.util
import json
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "cold_start.py"


def test_cold_start_times_one_regular_verify(capsys):
    spec = importlib.util.spec_from_file_location("cold_start", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    tool.main(["--runs", "1", "regular-verify"])
    (line,) = capsys.readouterr().out.splitlines()
    row = json.loads(line)
    assert row["command"] == "regular-verify"
    assert row["runs"] == 1
    assert 0 < row["median_s"] < 60
    assert row["max_rss_mb"] > 10
    # the residual's compiled solver is the one scipy module a digraph verify loads
    assert row["scipy_modules"] == 1
    assert row["scipy_packages"] == []
