"""The mutation tool in tools/mutants.py, on a two-mutant fixture."""

import importlib.util
import sys
from pathlib import Path

_spec = importlib.util.spec_from_file_location(
    "tools_mutants", Path(__file__).resolve().parent.parent / "tools" / "mutants.py")
mutants = sys.modules["tools_mutants"] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)

MODULE = '''
def shift(x, by):
    return x + by


def at_least(x, floor):
    return x if x >= floor else floor
'''

TESTS = '''
from mod import at_least, shift


def test_shift():
    assert shift(1, 2) == 3


def test_at_least():
    assert at_least(1, 2) == 2 and at_least(3, 2) == 3
'''


def test_sites_and_rewrites():
    found = mutants.find_mutants(MODULE)
    assert [(m.line, m.change) for m in found] == [(3, "+ -> -"), (7, ">= -> >")]
    assert "x - by" in mutants.mutate(MODULE, 0)
    assert "x > floor" in mutants.mutate(MODULE, 1)
    assert mutants.find_mutants("n = 2 if flag and True else 0\n") == [
        mutants.Mutant(0, 1, "and -> or"), mutants.Mutant(1, 1, "2 -> 3"),
        mutants.Mutant(2, 1, "0 -> 1")]


def test_reports_the_survivor_and_leaves_the_tree_alone(tmp_path):
    for name, text in (("src/mod.py", MODULE), ("tests/test_mod.py", TESTS)):
        (tmp_path / name).parent.mkdir()
        (tmp_path / name).write_text(text)
    left = mutants.survivors(tmp_path, "src/mod.py", ("tests/test_mod.py",))
    # x == floor returns floor either way: the >= -> > mutant is equivalent
    assert [(m.line, m.change) for m in left] == [(7, ">= -> >")]
    assert (tmp_path / "src" / "mod.py").read_text() == MODULE
    assert sorted(str(p.relative_to(tmp_path)) for p in tmp_path.rglob("*")) == [
        "src", "src/mod.py", "tests", "tests/test_mod.py"]
