"""tools/output_digests.py prints one digest per output file and a combined one."""

import importlib.util
import re
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "output_digests.py"


def test_law_csvs_get_one_digest_each(capsys):
    spec = importlib.util.spec_from_file_location("output_digests", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    assert tool.main(["laws"]) == 0
    lines = capsys.readouterr().out.splitlines()
    names = [f"laws/{name}.csv" for name in sorted(tool.LAWS)]
    assert [line.split("  ")[1] for line in lines] == [*names, "combined"]
    assert all(re.fullmatch(r"[0-9a-f]{64}  \S+", line) for line in lines)
    assert tool.main(["no-such-group"]) == 2
