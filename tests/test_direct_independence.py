"""The direct-summation rechecks name nothing of the transform path.

``extension_direct`` and ``restriction_direct`` re-evaluate lower-bound
certificates, so they must not reach the transform kernel, the surface plan,
the axis contractions or the plan-based row operators that produced them.
The walk follows every package function they name, in any module, and fails
on any name of the transform path.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "fflab"

ROOTS = ("surfaces.extension_direct", "surfaces.restriction_direct")
FORBIDDEN = {
    "_transform_matrices", "transform_axes", "_transform", "_transform_plan",
    "_extend_rows", "_adjoint_rows", "extension", "extension_adjoint",
}


def package_sources() -> dict[str, str]:
    return {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}


def _forbidden(name: str) -> bool:
    return name in FORBIDDEN or name.startswith("fourier_")


def direct_path(sources: dict[str, str]) -> tuple[list[str], list[str]]:
    """(functions reached from ROOTS, 'function: name' for each forbidden name).

    A name resolves to a top-level function of its own module or to one
    imported from another package module; a later definition replaces an
    earlier one, as at run time.
    """
    defs: dict[str, ast.FunctionDef] = {}
    scope: dict[str, dict[str, str]] = {}
    for module, text in sources.items():
        names = scope.setdefault(module, {})
        for node in ast.parse(text).body:
            if isinstance(node, ast.FunctionDef):
                defs[f"{module}.{node.name}"] = node
                names[node.name] = f"{module}.{node.name}"
            elif isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
                for alias in node.names:
                    names[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    reached, hits, todo = [], [], list(ROOTS)
    while todo:
        qual = todo.pop()
        if qual in reached or qual not in defs:
            continue
        reached.append(qual)
        module = qual.split(".")[0]
        for node in ast.walk(defs[qual]):
            name = node.id if isinstance(node, ast.Name) else (
                node.attr if isinstance(node, ast.Attribute) else None)
            if name is None:
                continue
            if _forbidden(name):
                hits.append(f"{qual}: {name}")
            elif name in scope[module]:
                todo.append(scope[module][name])
    return sorted(reached), sorted(hits)


def test_direct_sums_name_no_transform():
    reached, hits = direct_path(package_sources())
    assert hits == []
    # the walk reaches the shared helpers, so it is not vacuous
    assert {*ROOTS, "surfaces._point_waves", "grid.blocks"} <= set(reached)


def test_a_planted_reference_fails():
    sources = package_sources()
    sources["grid"] += (
        "\n\ndef blocks(count, width, entries=None, floor=0):\n"
        "    _transform_matrices(None)\n"
        "    yield slice(0, count)\n"
    )
    sources["surfaces"] += (
        "\n\ndef _point_waves(surface, rows, character):\n"
        "    return _transform_plan(surface).lift, fourier_forward\n"
    )
    assert direct_path(sources)[1] == [
        "grid.blocks: _transform_matrices",
        "surfaces._point_waves: _transform_plan",
        "surfaces._point_waves: fourier_forward",
    ]
