"""tools/output_digests.py prints one digest per output file and a combined one."""

import ctypes
import importlib.util
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "output_digests.py"
# the tool's output at the last change that moved bytes, after "# " lines
# naming the numpy version and OpenBLAS build it was recorded with
RECORDED = Path(__file__).with_name("output_digests.txt")


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


def _fingerprint() -> list[str]:
    """The numpy version and the config string of its bundled OpenBLAS, kernel included."""
    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas64_*.so"))
    blas = "no bundled OpenBLAS"
    if libs:
        get_config = ctypes.CDLL(str(libs[0])).scipy_openblas_get_config64_
        get_config.restype = ctypes.c_char_p
        blas = get_config().decode()
    return [f"numpy {np.__version__}", blas]


def test_outputs_keep_their_recorded_bytes():
    # outputs are byte-reproducible per machine and BLAS build only, so on
    # another fingerprint there is nothing to compare against
    recorded = RECORDED.read_text().splitlines()
    fingerprint = [line[2:] for line in recorded if line.startswith("# ")]
    here = _fingerprint()
    if here != fingerprint:
        pytest.skip(f"digests recorded under {fingerprint}, this machine is {here}")
    # a subprocess: the tool pins the thread variables before numpy loads
    out = subprocess.run([sys.executable, str(TOOL)], capture_output=True, text=True, check=True)
    assert out.stdout.splitlines() == [line for line in recorded if not line.startswith("# ")]
