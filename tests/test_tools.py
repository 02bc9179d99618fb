import importlib.util
from pathlib import Path

from gridforge import seedsynth
from gridforge.leveldata import ALL_LEVELS, v_of
from gridforge.seedsynth import POLE_BOUND

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def _tool(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
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
    tool = _tool("code_lines")
    assert tool.code_lines(SAMPLE) == 10
    assert tool.code_lines("") == 0
    assert tool.code_lines('"""Only a docstring."""\n# and a comment\n') == 0


def test_code_lines_prints_each_module_and_the_total(tmp_path, capsys):
    tool = _tool("code_lines")
    (tmp_path / "b.py").write_text(SAMPLE)
    (tmp_path / "a.py").write_text("x = 1\n\ny = 2\n")
    (tmp_path / "notes.txt").write_text("not a module\n")
    assert tool.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out == "a.py 2\nb.py 10\ntotal 12\n"


def test_seed_sweep_reaches_full_rank_on_every_level(capsys):
    # every (N, k <= 4) with v >= 0: each search stops at a pivot on every
    # exponent -J .. v, having read no more members than the family has
    assert _tool("seed_sweep").main(["4"]) == 0
    rows = [[int(x) for x in line.split()[:6]]
            for line in capsys.readouterr().out.splitlines()]
    assert [(N, k) for N, k, *_ in rows] == [
        (N, k) for N in ALL_LEVELS for k in (2, 4) if v_of(N, k) >= 0]
    for N, k, v, members, read, rank in rows:
        assert v == v_of(N, k) and rank == POLE_BOUND + v + 1, (N, k)
        assert rank <= read <= members, (N, k)


def test_seed_sweep_names_the_first_search_that_fails(capsys, monkeypatch):
    # a family of one member has rank 1 at (1, 4), whose one member is its
    # seed E4, and that is short of a pivot on each of q^-10 .. q^0
    real = seedsynth.build_family
    monkeypatch.setattr(seedsynth, "build_family", lambda *args, **kw:
                        real(*args, **kw)._replace(
                            members=real(*args, **kw).members[:1]))
    assert _tool("seed_sweep").main(["4"]) == 1
    assert capsys.readouterr().out.splitlines()[-1] == (
        "search failed at level 1 weight 4: rank 1, not 11")
