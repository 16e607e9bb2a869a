"""The tools: the line counter that the line budget is measured with
(`tools/src_lines.py`) and the one-process set-up timer
(`tools/setup_scaling.py`)."""

import importlib.util
import json
import os

import pytest

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")


def _tool(name):
    path = os.path.join(ROOT, "tools", f"{name}.py")
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def src_lines():
    return _tool("src_lines")


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


def test_setup_scaling_prints_one_record_per_n(capsys):
    assert _tool("setup_scaling").main(["--rows", "4", "--cols", "4", "--n", "1,2,16"]) == 0
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [r["n"] for r in records] == [1, 2, 16]
    for r in records:
        assert set(r) == {
            "rows", "cols", "n", "repeat", "partition_nodes_s", "build_subnetworks_s",
            "build_metagraph_s", "engine_init_s.max", "engine_init_s.sum",
            "decoder_maps_s.max", "decoder_maps_s.sum",
        }
        assert all(r[key] >= 0 for key in r)
        assert r["engine_init_s.max"] <= r["engine_init_s.sum"]
