"""tools/code_lines.py counts what the code-line targets in ROADMAP.md count."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"

# 10 code lines: the import, the two-line bare string after it, the class
# and def lines, the two-line assignment, both returns and the async def
_MODULE = '''"""Module docstring,
over two lines."""

import os  # a comment after code

"""A string that is not a docstring,
so both its lines count."""
# a comment-only line


class Thing:
    """Class docstring."""

    def method(self):
        """Function docstring,

        over three lines."""
        text = """a string
that is not a docstring"""
        return text


async def fetch():
    """Async function docstring."""
    return os.sep
'''


def test_counts_code_lines_only(tmp_path, capsys):
    spec = importlib.util.spec_from_file_location("code_lines", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    module = tmp_path / "module.py"
    module.write_text(_MODULE)
    assert tool.code_lines(module) == 10
    assert tool.main([str(module), str(module)]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == f"{20:6d}  total"
