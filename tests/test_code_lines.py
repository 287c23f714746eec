"""scripts/code_lines.py counts only the lines that hold code."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "code_lines.py"
spec = importlib.util.spec_from_file_location("code_lines", SCRIPT)
code_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(code_lines)

FIXTURE = '''"""Module docstring,
over two lines."""

# a comment on its own line
import os  # a comment after code


class Box:
    """Class docstring."""

    def size(self):
        """Function docstring."""
        return len(
            os.sep,
        )


TEXT = """a string that is not a docstring
spans two lines"""
'''


def test_counts_code_but_not_docstrings_comments_or_blanks():
    # import, class, def, the three lines of the call, and the two lines
    # of the string assignment
    assert code_lines.code_lines(FIXTURE) == 8


def test_prints_each_module_and_the_total(tmp_path, capsys, monkeypatch):
    (tmp_path / "a.py").write_text(FIXTURE)
    (tmp_path / "b.py").write_text("x = 1\n\n# done\n")
    monkeypatch.setattr(code_lines, "_PACKAGE", tmp_path)
    assert code_lines.main() == 0
    assert capsys.readouterr().out == (
        f"a.py: 8\nb.py: 1\n{tmp_path.name}: 9\n")
