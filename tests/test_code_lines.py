"""``tools/code_lines.py``: what counts as a code line."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
SPEC = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(code_lines)

SOURCE = '''"""Module docstring,
over two lines."""

import math  # a comment


# a comment line
class Box:
    """One line."""

    size = (1,
            2)

    def area(self):
        """Two
        lines."""
        text = """not a
        docstring"""
        return math.prod(self.size), text
'''


def test_counts_code_lines_only(tmp_path, capsys):
    # import, class, the two lines of size, def, the two lines of text and
    # the return: 8, without the docstrings, comments and blank lines
    path = tmp_path / "box.py"
    path.write_text(SOURCE)
    assert code_lines.code_lines(path) == 8
    assert code_lines.main([str(tmp_path), str(path)]) == 0
    assert capsys.readouterr().out.split() == ["8", str(path), "8", str(path), "16", "total"]
