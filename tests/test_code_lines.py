"""The code-line counter .github/scripts/code_lines.py, run on a stub package."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / ".github" / "scripts" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", SCRIPT)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

# Code lines are marked "# code" (or sit inside a statement that is);
# everything else is blank, a comment or a docstring.
STUB = '''"""Module docstring,
over two lines."""

# A comment line.
import math  # code


class Box:  # code
    """Class docstring."""

    size = 2  # code

    def area(self):  # code
        """Function docstring,

        over three lines.
        """
        return (self.size  # code
                * self.size)


def label():  # code
    text = """not a docstring:
it is an assignment"""
    return text  # code
'''


def test_counts_code_and_leaves_out_blanks_comments_and_docstrings():
    # import, class, size, def area, the two-line return, def label, the
    # two-line assignment and return.
    assert code_lines.code_lines(STUB) == 10


def test_a_string_after_the_first_statement_is_code():
    assert code_lines.code_lines('x = 1\n"""a string, not a docstring"""\n') == 2


def test_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "stub.py").write_text(STUB, encoding="utf-8")
    (tmp_path / "empty.py").write_text('"""Only a docstring."""\n', encoding="utf-8")
    code_lines.main([str(tmp_path)])
    assert capsys.readouterr().out == "empty 0\nstub 10\ntotal 10\n"


def test_a_directory_without_modules_is_an_error(tmp_path):
    with pytest.raises(SystemExit):
        code_lines.main([str(tmp_path)])


def test_default_package_is_the_library():
    assert (code_lines.DEFAULT_PACKAGE / "__init__.py").is_file()
