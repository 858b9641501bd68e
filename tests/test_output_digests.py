"""tools/output_digests.py prints one digest per output file and a combined one."""

import importlib.util
import re
import subprocess
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "output_digests.py"


def _tool():
    spec = importlib.util.spec_from_file_location("output_digests", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_law_csvs_get_one_digest_each(capsys):
    tool = _tool()
    assert tool.main(["laws"]) == 0
    lines = capsys.readouterr().out.splitlines()
    names = [f"laws/{name}.csv" for name in sorted(tool.LAWS)]
    assert [line.split("  ")[1] for line in lines] == [*names, "combined"]
    assert all(re.fullmatch(r"[0-9a-f]{64}  \S+", line) for line in lines)
    assert tool.main(["no-such-group"]) == 2


def test_outputs_keep_their_recorded_bytes():
    tool = _tool()
    # on another numpy/OpenBLAS fingerprint there is nothing to compare against
    foreign = tool.foreign_fingerprint()
    if foreign:
        pytest.skip(foreign)
    recorded = tool.RECORDED.read_text().splitlines()
    # a subprocess: the tool pins the thread variables before numpy loads
    out = subprocess.run([sys.executable, str(TOOL)], capture_output=True, text=True, check=True)
    assert out.stdout.splitlines() == [line for line in recorded if not line.startswith("# ")]
