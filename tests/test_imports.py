"""Every top-level import in ``src/fflab`` is used by its module.

A name bound by a top-level ``import`` or ``from ... import`` statement is
used when the module mentions it anywhere else as a bare name (an attribute
chain counts through its root, as ``np`` in ``np.zeros``) or lists it in
``__all__``.  ``from __future__`` imports bind no name.  Imports inside
functions are left alone: they are deferred on purpose.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "fflab"

# Imports kept although their module does not use them, with the reason.
ALLOWED_UNUSED = {
    "surfaces.fourier_inverse": "the benchmark tracer rebinds it in this module by name",
}


def package_sources() -> dict[str, str]:
    return {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}


def _bound_names(stmt: ast.stmt) -> list[str]:
    if isinstance(stmt, ast.Import):
        return [alias.asname or alias.name.split(".")[0] for alias in stmt.names]
    if isinstance(stmt, ast.ImportFrom) and stmt.module != "__future__":
        return [alias.asname or alias.name for alias in stmt.names]
    return []


def _exported(tree: ast.Module) -> set[str]:
    names = set()
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in stmt.targets
        ):
            names |= {c.value for c in ast.walk(stmt.value) if isinstance(c, ast.Constant)}
    return names


def unused_imports(sources: dict[str, str]) -> list[str]:
    """module.name for every top-level import its module never uses."""
    out = []
    for module, text in sources.items():
        tree = ast.parse(text)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        used |= _exported(tree)
        out += [
            f"{module}.{name}"
            for stmt in tree.body
            for name in _bound_names(stmt)
            if name not in used
        ]
    return sorted(out)


def test_every_import_is_used():
    assert [q for q in unused_imports(package_sources()) if q not in ALLOWED_UNUSED] == []


def test_allowlist_holds_only_unused_imports():
    unused = unused_imports(package_sources())
    for qual in ALLOWED_UNUSED:
        assert qual in unused, f"{qual} is used; drop its entry"


def test_an_added_unused_import_fails():
    sources = package_sources()
    sources["kakeya"] = "import json\n" + sources["kakeya"]
    sources["restriction"] = sources["restriction"].replace(
        "from .errors import (\n", "from .errors import (\n    BudgetExceededError,\n", 1
    )
    sources["grid"] += "\nfrom .field import make_field as _unused_alias\n"
    sources["field"] += "\nimport os.path\n"
    assert [q for q in unused_imports(sources) if q not in ALLOWED_UNUSED] == [
        "field.os", "grid._unused_alias", "kakeya.json", "restriction.BudgetExceededError",
    ]
    # a use anywhere in the module, or a listing in __all__, clears it
    sources["kakeya"] += "\n__all__ = ['json']\n"
    sources["field"] += "\nSEP = os.path.sep\n"
    assert [q for q in unused_imports(sources) if q not in ALLOWED_UNUSED] == [
        "grid._unused_alias", "restriction.BudgetExceededError",
    ]
