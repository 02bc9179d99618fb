import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"


def _code_lines_module():
    spec = importlib.util.spec_from_file_location("code_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SAMPLE = '''"""Module docstring,
over two lines."""

import os  # a comment after code is code

# a comment line


class C:
    """Class docstring."""

    x = """a string assigned
    is code"""

    def f(self):
        """Function
        docstring."""
        "a string expression after the docstring is code"
        return (1,
                # a comment inside brackets
                2)


async def g():
    """Async docstring."""
    pass
'''


def test_code_lines_leave_out_comments_docstrings_and_blank_lines():
    # the ten code lines of SAMPLE: the import, class C, both lines of x,
    # def f, the string expression, the two lines of the return around its
    # comment, async def g and pass
    tool = _code_lines_module()
    assert tool.code_lines(SAMPLE) == 10
    assert tool.code_lines("") == 0
    assert tool.code_lines('"""Only a docstring."""\n# and a comment\n') == 0


def test_code_lines_prints_each_module_and_the_total(tmp_path, capsys):
    tool = _code_lines_module()
    (tmp_path / "b.py").write_text(SAMPLE)
    (tmp_path / "a.py").write_text("x = 1\n\ny = 2\n")
    (tmp_path / "notes.txt").write_text("not a module\n")
    assert tool.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out == "a.py 2\nb.py 10\ntotal 12\n"
