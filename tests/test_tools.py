"""Tests for the scripts under ``tools/``."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _tool(name: str):
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_code_line_counter_skips_docstrings_comments_and_blank_lines(tmp_path):
    code_lines = _tool("code_lines")
    source = tmp_path / "module.py"
    source.write_text(
        '"""Module\n\ndocstring."""\n'
        "\n"
        "# a comment\n"
        "X = (1,  # a trailing comment\n"
        "     2)\n"
        "TEXT = '''not a\n"
        "docstring'''\n"
        "\n"
        "class C:\n"
        "    '''Class docstring.'''\n"
        "\n"
        "    def f(self):\n"
        '        """Function\n'
        '        docstring."""\n'
        "        return 1\n"
    )
    assert code_lines.code_lines(source) == 7


def test_same_outputs_drops_timings_and_provenance_at_any_depth():
    same_outputs = _tool("same_outputs")
    report = {
        "subcommand": "align",
        "seed_provenance": "align c --out a",
        "timings": {"varimax_seconds": 0.5, "greedy_median_seconds": None},
        "runs": [{"traces_file": "d_traces.csv", "seconds": 2.0, "loss": 1.5}],
    }
    assert same_outputs.normalized(report) == {
        "subcommand": "align",
        "timings": {},
        "runs": [{"seconds": 2.0, "loss": 1.5}],
    }


def test_same_outputs_names_each_differing_file_and_exits_1(tmp_path, capsys):
    same_outputs = _tool("same_outputs")
    first, second = tmp_path / "first", tmp_path / "second"
    for directory, seconds, provenance, payload in (
        (first, 0.1, "fit a", b"\x00\x01"),
        (second, 0.2, "fit b", b"\x00\x01"),
    ):
        (directory / "w").mkdir(parents=True)
        report = {"total_loss": 1.25, "read_seconds": seconds, "seed_provenance": provenance}
        (directory / "w" / "a_report.json").write_text(json.dumps(report, indent=2))
        (directory / "w" / "a.bin").write_bytes(payload)
    # Only timings and provenance differ: the trees agree.
    assert same_outputs.compare(first, second) == 0
    assert capsys.readouterr().out == "2 files compared, 0 differ\n"

    (second / "w" / "a.bin").write_bytes(b"\x00\x02")
    (second / "w" / "a_report.json").write_text(json.dumps({"total_loss": 1.5}))
    (first / "only_here.csv").write_text("r0_c0\n")
    assert same_outputs.compare(first, second) == 1
    assert capsys.readouterr().out == (
        "differs: only_here.csv\n"
        "differs: w/a.bin\n"
        "differs: w/a_report.json\n"
        "3 files compared, 3 differ\n"
    )
