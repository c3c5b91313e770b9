"""README lists every ``--budget`` gate by the name its refusal prints.

Each ``require_budget(work, budget, what)`` call in ``src/fflab`` must pass
``what`` as a string literal, and README must name that literal in backticks,
so a new gate cannot ship without its line in README's list of budget gates.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _what(call: ast.Call) -> ast.expr | None:
    if len(call.args) >= 3:
        return call.args[2]
    return next((kw.value for kw in call.keywords if kw.arg == "what"), None)


def gate_faults(sources: dict[str, str], readme: str) -> list[str]:
    """module:line for every require_budget call whose ``what`` is not a
    string literal or is not in README in backticks, line breaks read as spaces."""
    readme = " ".join(readme.split())
    out = []
    for module, text in sources.items():
        for node in ast.walk(ast.parse(text)):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name != "require_budget":
                continue
            what = _what(node)
            if not (isinstance(what, ast.Constant) and isinstance(what.value, str)
                    and f"`{what.value}`" in readme):
                out.append(f"{module}:{node.lineno}")
    return sorted(out)


def test_every_budget_gate_is_named_in_readme(sources):
    assert gate_faults(sources, (ROOT / "README.md").read_text()) == []


def test_a_planted_gate_fails(sources):
    readme = (ROOT / "README.md").read_text()
    # against an empty README every real gate is reported: the scan reaches them all
    calls = sum(text.count("require_budget(") for text in sources.values())
    assert len(gate_faults(sources, "")) == calls - 1  # less the def in errors.py
    sources["kakeya"] += (
        "\n\ndef _planted(m, budget):\n"
        "    require_budget(m, budget, 'planted entries m')\n"
        "    what = '|S|^2'\n"
        "    require_budget(m, budget, what)\n"
        "    require_budget(m, budget, what='|S|^2')\n"
    )
    lines = len(sources["kakeya"].splitlines())
    assert gate_faults(sources, readme) == [f"kakeya:{lines - 3}", f"kakeya:{lines - 1}"]
