"""Every top-level import in ``src/fflab`` is used by its module.

A name bound by a top-level ``import`` or ``from ... import`` statement is
used when the module mentions it anywhere else as a bare name (an attribute
chain counts through its root, as ``np`` in ``np.zeros``) or lists it in
``__all__``.  ``from __future__`` imports bind no name.  Imports inside
functions are left alone: they are deferred on purpose.

The benchmark tracer (``perfbench/spans.py``) rebinds fflab functions by name,
so every name in its ``WRAPPED`` table must still resolve on the package.

Every function or method with a defaulted ``budget`` parameter defaults it to
``errors.DEFAULT_BUDGET`` by that name, so the README's one default holds.
"""

import ast
import importlib
from pathlib import Path

from fflab import grid, kakeya, reports, surfaces

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "fflab"
SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"

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
        "from .errors import ", "from .errors import BudgetExceededError, ", 1
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


# -- the benchmark tracer's names ---------------------------------------------------------


def wrapped_names() -> dict[str, tuple[str, str]]:
    """span name -> (module, attribute path) of every entry of the tracer's
    WRAPPED table, read from its source without importing it."""
    for stmt in ast.parse(SPANS.read_text()).body:
        if isinstance(stmt, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "WRAPPED" for t in stmt.targets
        ):
            return {
                key.value: (spec.elts[0].value, spec.elts[1].value)
                for key, spec in zip(stmt.value.keys, stmt.value.values)
            }
    raise AssertionError("perfbench/spans.py defines no WRAPPED table")


def unresolved_wrapped() -> list[str]:
    """Span names whose (module, attribute path) no longer resolves on fflab."""
    missing = []
    for name, (module, attr) in wrapped_names().items():
        obj = importlib.import_module(f"fflab.{module}")
        for part in attr.split("."):
            obj = getattr(obj, part, None)
        if not callable(obj):
            missing.append(name)
    return missing


def test_every_traced_name_resolves():
    names = wrapped_names()
    assert len(names) > 30 and "kakeya.line_sum_grid" in names
    assert unresolved_wrapped() == []
    # the tracer rebinds fourier_inverse wherever it is bound, surfaces included
    assert surfaces.fourier_inverse is grid.fourier_inverse


def test_a_removed_traced_name_fails(monkeypatch):
    monkeypatch.delattr(kakeya, "line_sum_grid")
    monkeypatch.delattr(reports.ExperimentReport, "render")
    assert unresolved_wrapped() == ["kakeya.line_sum_grid", "reports.ExperimentReport.render"]


# -- one budget default -----------------------------------------------------------------


def budget_defaults(sources: dict[str, str]) -> dict[str, str]:
    """module.function -> source of its budget default, for every function or
    method (nested ones too) whose ``budget`` parameter has a default."""
    out = {}
    for module, text in sources.items():
        for node in ast.walk(ast.parse(text)):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            args = node.args
            pairs = list(zip(args.args[::-1], args.defaults[::-1]))
            pairs += [(a, d) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
            out.update(
                {f"{module}.{node.name}": ast.unparse(d) for a, d in pairs if a.arg == "budget"}
            )
    return out


def test_every_budget_defaults_to_default_budget():
    defaults = budget_defaults(package_sources())
    assert len(defaults) > 10 and "kakeya.incidence_chain_counts" in defaults
    assert {k: v for k, v in defaults.items() if v != "DEFAULT_BUDGET"} == {}


def test_a_literal_budget_default_fails():
    sources = package_sources()
    sources["surfaces"] += "\n\ndef orphan(surface, *, budget: int = 10**9):\n    return budget\n"
    defaults = budget_defaults(sources)
    assert {k: v for k, v in defaults.items() if v != "DEFAULT_BUDGET"} == {
        "surfaces.orphan": "10 ** 9"
    }
