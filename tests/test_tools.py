"""The line counter that the line budget is measured with (`tools/src_lines.py`)."""

import importlib.util
import os

import pytest

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")


@pytest.fixture(scope="module")
def src_lines():
    path = os.path.join(ROOT, "tools", "src_lines.py")
    spec = importlib.util.spec_from_file_location("src_lines", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SOURCE = '''"""A docstring

with a blank line inside."""

x = 1  # code with a trailing comment
# a comment alone
text = """a string that is not a docstring

is code, its blank line too"""


def f():
    """One line."""
    return x
'''


def test_each_line_counted_by_kind(src_lines):
    # docstring: lines 1-3 and 13; code: 5, 7-9, 12 and 14; comment: 6;
    # blank: 4, 10 and 11
    assert src_lines.classify(SOURCE) == {"code": 6, "docstring": 4, "comment": 1, "blank": 3}


def test_main_sums_the_python_files_of_a_directory(src_lines, tmp_path, capsys, monkeypatch):
    (tmp_path / "a.py").write_text(SOURCE)
    (tmp_path / "b.py").write_text("# only a comment\n\n")
    (tmp_path / "c.txt").write_text("not python\n")
    monkeypatch.setattr("sys.argv", ["src_lines.py", str(tmp_path)])
    src_lines.main()
    assert capsys.readouterr().out == "code 6 docstring 4 comment 2 blank 4 total 16\n"
