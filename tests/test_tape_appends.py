"""Only ``Tape.var`` and ``Tape.node`` append to a tape.

Every derived node goes through ``autodiff.lift`` and so through
``Tape.node``, which checks that all parents live on its tape. A call of
``.append`` (or ``.extend``, ``.insert``) on a ``val``, ``par`` or
``dpar`` list anywhere else in ``src/polystl`` would be a second way onto
the tape that skips that check.
"""
import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "polystl"
MODULES = sorted(PACKAGE.glob("*.py"))
TAPE_LISTS = {"val", "par", "dpar"}
WRITERS = {"Tape.var", "Tape.node"}


def tape_appends(tree: ast.Module) -> list[tuple[str, int]]:
    """(enclosing qualified name, line) of every call that grows a tape list."""
    out = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, scope + (child.name,))
                continue
            if (isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute)
                    and child.func.attr in ("append", "extend", "insert")
                    and isinstance(child.func.value, ast.Attribute)
                    and child.func.value.attr in TAPE_LISTS):
                out.append((".".join(scope), child.lineno))
            visit(child, scope)

    visit(tree, ())
    return out


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_only_the_tape_appends_to_itself(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    strays = [(scope, line) for scope, line in tape_appends(tree) if scope not in WRITERS]
    assert not strays, f"{path.name}: tape appended outside Tape.var/Tape.node: " + ", ".join(
        f"{scope or '<module>'} (line {line})" for scope, line in strays)


def test_the_check_sees_an_inline_append():
    assert any(p.name == "autodiff.py" for p in MODULES)   # the glob found the package
    tree = ast.parse("class Tape:\n"
                     "    def node(self, v):\n        self.val.append(v)\n"
                     "class Var:\n"
                     "    def __add__(self, other):\n"
                     "        t = self.tape\n        t.val.append(t.val[self.i] + other)\n"
                     "        t.par.append((self.i,))\n")
    assert tape_appends(tree) == [("Tape.node", 3), ("Var.__add__", 7), ("Var.__add__", 8)]
