"""Mutation testing for tapgkit's decisions: which single-token changes do the tests miss?

Each mutant changes one operator or constant in one module:

- a comparison swaps with its boundary twin (``<`` / ``<=``, ``>`` / ``>=``,
  ``==`` / ``!=``);
- ``+`` swaps with ``-``;
- ``and`` swaps with ``or``;
- an integer constant (not a bool) gains 1.

Mutants are applied one at a time to a copy of the tree in a temporary
directory, never to the checkout. Each runs the module's own test files
(``TESTS``) first, since they kill most mutants fastest; a mutant that they
miss runs the whole ``tests/`` directory. One that passes that too survives,
and is printed as ``file:line: mutation``.

    python3 tools/mutants.py src/tapgkit/training.py

The mapped modules take tens of minutes together; one module takes a few.
"""

from __future__ import annotations

import argparse
import ast
import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
TIMEOUT_S = 600     # a mutant that makes the tests hang counts as killed

# module -> the test files that own it
TESTS = {
    "src/tapgkit/config.py": ("tests/test_config.py",),
    "src/tapgkit/evaluation.py": ("tests/test_evaluation.py",),
    "src/tapgkit/training.py": ("tests/test_training.py",),
    "src/tapgkit/inference.py": ("tests/test_inference.py",),
    "src/tapgkit/boundary_net.py": ("tests/test_boundary_net.py",),
    "src/tapgkit/attention.py": ("tests/test_attention.py",),
    "src/tapgkit/representation.py": ("tests/test_representation.py",),
    "src/tapgkit/files.py": ("tests/test_files.py",),
    "src/tapgkit/data/annotations.py": ("tests/test_annotations.py",),
    "src/tapgkit/data/features.py": ("tests/test_features.py", "tests/test_files.py"),
    "src/tapgkit/data/synthetic.py": ("tests/test_synthetic.py",),
    "src/tapgkit/model.py": ("tests/test_model.py", "tests/test_representation.py"),
    "src/tapgkit/autodiff/checkpoint.py": ("tests/test_checkpoint.py", "tests/test_files.py"),
    "src/tapgkit/autodiff/optim.py": ("tests/test_optim.py",),
    "src/tapgkit/errors.py": ("tests/test_boundaries.py",),
}

_COMPARE = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
            ast.Eq: ast.NotEq, ast.NotEq: ast.Eq}
_BINOP = {ast.Add: ast.Sub, ast.Sub: ast.Add}
_BOOLOP = {ast.And: ast.Or, ast.Or: ast.And}
_SYMBOL = {ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=", ast.Eq: "==",
           ast.NotEq: "!=", ast.Add: "+", ast.Sub: "-", ast.And: "and", ast.Or: "or"}


@dataclass(frozen=True)
class Mutant:
    index: int      # position in the module's site order
    line: int
    change: str     # e.g. "< -> <="


class _Sites(ast.NodeTransformer):
    """Walks a tree in a fixed order; counts the mutation sites, and rewrites
    the site numbered ``target`` (if any)."""

    def __init__(self, target: int | None = None):
        self.target = target
        self.found: list[Mutant] = []

    def _site(self, node, old, new) -> bool:
        index = len(self.found)
        old_s = _SYMBOL.get(old, repr(old))
        new_s = _SYMBOL.get(new, repr(new))
        self.found.append(Mutant(index, node.lineno, f"{old_s} -> {new_s}"))
        return index == self.target

    def visit_Compare(self, node):
        self.generic_visit(node)
        for k, op in enumerate(node.ops):
            swap = _COMPARE.get(type(op))
            if swap and self._site(node, type(op), swap):
                node.ops[k] = swap()
        return node

    def visit_BinOp(self, node):
        self.generic_visit(node)
        swap = _BINOP.get(type(node.op))
        if swap and self._site(node, type(node.op), swap):
            node.op = swap()
        return node

    def visit_BoolOp(self, node):
        self.generic_visit(node)
        swap = _BOOLOP[type(node.op)]
        if self._site(node, type(node.op), swap):
            node.op = swap()
        return node

    def visit_Constant(self, node):
        value = node.value
        if type(value) is int and self._site(node, value, value + 1):
            node.value = value + 1
        return node


def find_mutants(source: str) -> list[Mutant]:
    sites = _Sites()
    sites.visit(ast.parse(source))
    return sites.found


def mutate(source: str, index: int) -> str:
    """The module's source with mutant ``index`` applied."""
    tree = _Sites(target=index).visit(ast.parse(source))
    return ast.unparse(ast.fix_missing_locations(tree))


def _passes(root: Path, tests: tuple[str, ...]) -> bool:
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1",
           "PYTHONPATH": str(root / "src")}
    try:
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests],
            cwd=root, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return False
    return done.returncode == 0


def survivors(repo: Path, module: str, tests: tuple[str, ...]) -> list[Mutant]:
    """The mutants of ``module`` (a path relative to ``repo``) that neither
    ``tests`` nor the rest of ``repo/tests`` kill."""
    source = (repo / module).read_text()
    found = find_mutants(source)
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        root = Path(tmp) / "tree"
        shutil.copytree(repo, root, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".work"))
        target = root / module
        # the unparsed source must pass before any mutant of it means anything
        target.write_text(ast.unparse(ast.parse(source)))
        if not _passes(root, tests):
            raise SystemExit(f"{module}: {' '.join(tests)} fail before any mutation")
        left = []
        for mutant in found:
            target.write_text(mutate(source, mutant.index))
            if _passes(root, tests) and _passes(root, ("tests",)):
                left.append(mutant)
        target.write_text(source)
    return left


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("modules", nargs="*", help=f"default: {', '.join(TESTS)}")
    args = parser.parse_args(argv)
    total = 0
    for module in args.modules or list(TESTS):
        if module not in TESTS:
            parser.error(f"no test files mapped for {module}; known: {', '.join(TESTS)}")
        left = survivors(REPO, module, TESTS[module])
        for mutant in left:
            print(f"{module}:{mutant.line}: {mutant.change}", flush=True)
        total += len(left)
    print(f"{total} survivor(s)")
    return 1 if total else 0


if __name__ == "__main__":
    sys.exit(main())
