"""Every blocked scan in ``src/fflab`` is cut by ``grid.blocks``.

A ``range`` call whose step is not a constant, such as
``range(0, stop, step)``, is a hand-written block loop; the only one allowed
is the one inside ``grid.blocks``.  A constant step, such as the descending
``range(hi, lo, -1)`` loops over polynomial degrees in ``field.py``, is not a
block loop.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "fflab"

ALLOWED = {"grid.blocks"}


def package_sources() -> dict[str, str]:
    return {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}


def _constant(node: ast.expr) -> bool:
    return isinstance(node, ast.Constant) or (
        isinstance(node, ast.UnaryOp) and isinstance(node.operand, ast.Constant)
    )


class _BlockLoops(ast.NodeVisitor):
    def __init__(self, module: str):
        self.scope = [module]
        self.found: list[str] = []

    def visit_FunctionDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_AsyncFunctionDef = visit_ClassDef = visit_FunctionDef

    def visit_Call(self, node):
        if (
            isinstance(node.func, ast.Name) and node.func.id == "range"
            and len(node.args) == 3 and not _constant(node.args[2])
        ):
            self.found.append(".".join(self.scope))
        self.generic_visit(node)


def block_loops(sources: dict[str, str]) -> list[str]:
    """module.function for every range call with a non-constant step."""
    out = []
    for module, text in sources.items():
        finder = _BlockLoops(module)
        finder.visit(ast.parse(text))
        out += finder.found
    return sorted(out)


def test_every_block_loop_is_grid_blocks():
    assert [loc for loc in block_loops(package_sources()) if loc not in ALLOWED] == []


def test_allowlist_holds_only_block_loops():
    assert ALLOWED <= set(block_loops(package_sources()))


def test_a_planted_block_loop_fails():
    sources = package_sources()
    sources["kakeya"] += (
        "\n\ndef _planted(m, step):\n"
        "    return [slice(lo, lo + step) for lo in range(0, m, step)]\n"
    )
    sources["surfaces"] += "\n\ndef _descending(k):\n    return list(range(2 * k, k, -1))\n"
    assert [loc for loc in block_loops(sources) if loc not in ALLOWED] == ["kakeya._planted"]
