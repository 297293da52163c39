"""Every name a module of ``src/polystl`` imports is used in that module.

The package's ``__init__.py`` exists to re-export names, so it is exempt.
A name counts as used when the module reads it anywhere, including inside
a string annotation such as ``Optional["Evaluator"]``.
"""
import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "polystl"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Name bound by each import statement, with its line."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
    return out


def _annotations(tree: ast.Module):
    """Expressions that may hold a string annotation: argument and return
    annotations, annotated assignments and subscripts (``Union["Var", float]``)."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            yield node.returns
            for a in args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]:
                yield a and a.annotation
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation
        elif isinstance(node, ast.Subscript):
            yield node.slice


def read_names(tree: ast.Module) -> set[str]:
    """Names the module reads, string annotations parsed as expressions."""
    out = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for ann in filter(None, _annotations(tree)):
        for node in ast.walk(ann):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                inner = ast.parse(node.value, mode="eval")
                out |= {n.id for n in ast.walk(inner) if isinstance(n, ast.Name)}
    return out


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_import(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    unused = sorted((line, name) for name, line in imported_names(tree).items()
                    if name not in read_names(tree))
    assert not unused, f"{path.name}: unused imports " + ", ".join(
        f"{name} (line {line})" for line, name in unused)


def test_the_check_sees_an_unused_import():
    assert MODULES   # the glob found the package
    tree = ast.parse("import os.path\nimport sys\nfrom typing import Any, Optional, Sequence\n"
                     "X = Any['Sequence']\n"
                     "def f(x: 'Optional[int]') -> 'os.PathLike':\n    return 'sys'\n")
    assert set(imported_names(tree)) - read_names(tree) == {"sys"}
