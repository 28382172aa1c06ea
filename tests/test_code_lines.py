"""scripts/code_lines.py counts code, not comments, docstrings or blank lines."""

import importlib.util
from pathlib import Path

_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", _SCRIPT)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

_SOURCE = '''"""Module docstring
over two lines."""

import math  # a trailing comment keeps its line

# a comment line


class A:
    """Class docstring."""

    x = 1

    def f(self, t):
        """Function
        docstring."""
        s = """a string that is code
spans two lines"""
        return (t +
                math.pi)
'''


def test_code_lines_skips_blank_lines_comments_and_docstrings(tmp_path):
    # import, class, x, def, the two lines of s and the two of the return
    path = tmp_path / "sample.py"
    path.write_text(_SOURCE)
    assert code_lines.code_lines(path) == 8


def test_code_lines_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(_SOURCE)
    (tmp_path / "pkg" / "b.py").write_text("x = 1\n\n\n# done\n")
    assert code_lines.main([str(tmp_path / "pkg")]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == ["8", "1", "9"]
    assert lines[-1].split()[1] == "total"
