"""The direct rechecks name nothing of the fast paths they recheck.

``extension_direct`` and ``restriction_direct`` re-evaluate lower-bound
certificates, so they must not reach the transform kernel, the surface plan,
the axis contractions or the plan-based row operators that produced them.
``kakeya_maximal_direct`` re-evaluates the Kakeya lowers, so it must not
reach the line tables of ``translate_flats`` or the sweep of
``kakeya_maximal``.  It may cut its directions with ``grid.blocks``, as the
restriction rechecks cut their rows, so the walk follows ``blocks`` too.
The walk follows every package function a root names, in any module, and
fails on any name of the path that root rechecks.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "fflab"

ROOTS = ("surfaces.extension_direct", "surfaces.restriction_direct")
FORBIDDEN = {
    "_transform_matrices", "transform_axes", "_transform", "_transform_plan",
    "_extend_rows", "_adjoint_rows", "extension", "extension_adjoint",
}
KAKEYA_ROOTS = ("kakeya.kakeya_maximal_direct",)
KAKEYA_FORBIDDEN = {"translate_flats", "kakeya_maximal"}


def package_sources() -> dict[str, str]:
    return {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}


def _forbidden(name: str) -> bool:
    return name in FORBIDDEN or name.startswith("fourier_")


def direct_path(
    sources: dict[str, str], roots=ROOTS, forbidden=_forbidden
) -> tuple[list[str], list[str]]:
    """(functions reached from roots, 'function: name' for each forbidden name).

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
    reached, hits, todo = [], [], list(roots)
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
            if forbidden(name):
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


def test_kakeya_recheck_names_no_line_table():
    reached, hits = direct_path(package_sources(), KAKEYA_ROOTS, KAKEYA_FORBIDDEN.__contains__)
    assert hits == []
    assert {*KAKEYA_ROOTS, "kakeya._common_space", "grid.blocks"} <= set(reached)


def test_a_planted_kakeya_reference_fails():
    sources = package_sources()
    sources["grid"] += (
        "\n\ndef blocks(count, width, entries=None, floor=0):\n"
        "    translate_flats(None, count)\n"
        "    yield slice(0, count)\n"
    )
    sources["kakeya"] += (
        "\n\ndef _common_space(fs):\n"
        "    for rows in blocks(len(fs), 1):\n"
        "        translate_flats(fs[0].field, rows)\n"
        "    return kakeya_maximal(*fs)\n"
    )
    assert direct_path(sources, KAKEYA_ROOTS, KAKEYA_FORBIDDEN.__contains__)[1] == [
        "grid.blocks: translate_flats",
        "kakeya._common_space: kakeya_maximal",
        "kakeya._common_space: translate_flats",
    ]
