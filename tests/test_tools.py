"""Tests for the scripts under ``tools/``."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_code_line_counter_skips_docstrings_comments_and_blank_lines(tmp_path):
    spec = importlib.util.spec_from_file_location("code_lines", ROOT / "tools" / "code_lines.py")
    code_lines = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(code_lines)
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
