"""Output checks: decide whether one op's result is right.

An op fails if its exit code is not 0, an exception escaped ``cli.main``, any
check in its report is false, or a certificate value is off its recorded
reference by more than ``REL_TOL`` (relative to max(1, |reference|), the
recheck convention of the package).  References were recorded with per-op
seed 0 for every certificate (``record_references.py``).  Exact and upper
certificates do not depend on the seed and are compared on every seed; lower
certificates are compared only at seed 0, and on other seeds each must stay
at or below every upper certificate for the same quantity in the op.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

REL_TOL = 1e-9
REFERENCES = Path(__file__).resolve().with_name("references.json")

# Failures present when the benchmark was defined.  Such an op still counts as
# failed; the run stays correct as long as it fails exactly this way, so a fix
# shows as fewer failed ops and any other failure as an incorrect run.
KNOWN_DEFECTS = {
    # the point-count bracket is hard-coded for |F| = 9: |P| = 3125 at F_25
    "kakeya heisenberg --field 5^2": frozenset({"exit code 1", "check point_count_bracket false"}),
}


@dataclass
class Verdict:
    reasons: list[str] = field(default_factory=list)
    known: bool = False

    @property
    def ok(self) -> bool:
        return not self.reasons


def _close(value: float, ref: float) -> bool:
    return abs(value - ref) <= REL_TOL * max(1.0, abs(ref))


def extract(text: str) -> tuple[list[dict], list[tuple[str, bool]]]:
    """(certificates, checks) from one op's JSON output.

    Each certificate is {"key", "kind", "method", "value"}; ``table figure1``
    rows become one lower and, where present, one upper entry per pair.
    """
    doc = json.loads(text)
    if doc.get("table") == "figure1":
        certs = []
        for row in doc["rows"]:
            for e in row.get("entries", []):
                key = f"figure1|{row['surface']}|{row['field']}|{e['p']}->{e['q']}"
                certs.append({"key": key, "kind": "lower", "method": "power_iteration",
                              "value": float(e["lower"])})
                if e["upper"] is not None:
                    certs.append({"key": key, "kind": "upper", "method": "even_counting",
                                  "value": float(e["upper"])})
        return certs, []
    certs = [
        {
            "key": f"{c['quantity']}|{c['char']}^{c['degree']}|n={c['n']}|{c['surface']}"
                   f"|{c['p']}->{c['q']}",
            "kind": c["kind"],
            "method": c["method"],
            "value": float(c["value"]),
        }
        for c in doc.get("certificates", [])
    ]
    checks = [(c["name"], bool(c["pass"])) for c in doc.get("checks", [])]
    return certs, checks


def compare(certs: list[dict], refs: list[dict], seed: int) -> list[str]:
    """Reasons the certificates disagree with their references; empty if none."""
    if [(c["key"], c["kind"], c["method"]) for c in certs] != [
        (r["key"], r["kind"], r["method"]) for r in refs
    ]:
        return ["certificate list differs from the reference"]
    reasons = []
    for c, r in zip(certs, refs):
        if (c["kind"] != "lower" or seed == 0) and not _close(c["value"], float(r["value"])):
            reasons.append(f"{c['kind']} {c['key']} = {c['value']!r}, reference {r['value']}")
    for c in certs:
        if c["kind"] == "lower":
            for u in certs:
                if u["key"] == c["key"] and u["kind"] in ("upper", "exact") and not (
                    c["value"] <= u["value"] + REL_TOL * max(1.0, abs(u["value"]))
                ):
                    reasons.append(f"lower {c['value']!r} above upper {u['value']!r} for {c['key']}")
    return reasons


def judge(shape: str, seed: int, code: int | None, text: str, error: str | None,
          references: dict) -> Verdict:
    """Verdict on one op from its exit code, its stdout and any escaped exception."""
    v = Verdict()
    if error is not None:
        v.reasons.append(f"exception {error}")
    elif code != 0:
        v.reasons.append(f"exit code {code}")
    if error is None:
        try:
            certs, checks = extract(text)
        except (ValueError, KeyError, TypeError) as exc:
            v.reasons.append(f"unreadable output: {exc!r}")
        else:
            v.reasons.extend(f"check {name} false" for name, ok in checks if not ok)
            ref = references.get(shape)
            if ref is None:
                v.reasons.append("no reference recorded for this shape")
            else:
                v.reasons.extend(compare(certs, ref["certificates"], seed))
    expected = KNOWN_DEFECTS.get(shape)
    v.known = bool(v.reasons) and expected is not None and set(v.reasons) <= expected
    return v


def load_references(path: Path = REFERENCES) -> dict:
    return json.loads(path.read_text())["shapes"]
