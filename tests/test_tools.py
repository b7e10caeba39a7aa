import ast
import importlib.util
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "code_lines", Path(__file__).resolve().parents[1] / "tools" / "code_lines.py")
code_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(code_lines)

SAMPLE = '''"""Module docstring."""

# a comment
import os  # a trailing comment


class Box:
    """Class docstring
    on two lines."""

    def f(self, x):
        """Function docstring."""
        text = """a string,
not a docstring"""
        return (x +
                1)
'''


def test_code_lines_skip_docstrings_comments_and_blank_lines(tmp_path):
    source = tmp_path / "sample.py"
    source.write_text(SAMPLE)
    # import, class, def, the two lines of ``text`` and the two of ``return``.
    assert code_lines.code_lines(source) == 7


def test_code_lines_report_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SAMPLE)
    (tmp_path / "b.py").write_text("x = 1\n")
    assert code_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.split("\n") == [
        "     7  a.py", "     1  b.py", "     8  total", ""]


def test_the_package_has_no_assert_statement():
    # ``python -O`` drops assert statements, so every safety check of the
    # package raises ``AssertionError`` explicitly.
    package = Path(__file__).resolve().parents[1] / "src" / "rank2cluster"
    found = [f"{path.name}:{node.lineno}" for path in sorted(package.rglob("*.py"))
             for node in ast.walk(ast.parse(path.read_text())) if isinstance(node, ast.Assert)]
    assert found == []
