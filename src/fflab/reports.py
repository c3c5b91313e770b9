"""Experiment reports and the one file a run writes.

A report is one self-contained record per run: the experiment name, the
field and geometry, the exponent pair, every certificate produced, every
named check with its pass flag and deviation, the runtime, the package
version, and the seed.  Floating-point numbers are rendered as decimal
strings in JSON so that readers in other languages reparse them exactly.

A run prints its rendered report and writes it nowhere else, except to the
file ``--out`` names; ``store_report`` is that one write.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field as dc_field
from pathlib import Path

from . import __version__
from .certificates import NormCertificate, exponent_str, parse_exponent


def _stringify_floats(obj):
    """Recursively render floats as repr strings; leave ints and bools alone."""
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, float):
        return repr(obj)
    if isinstance(obj, dict):
        return {k: _stringify_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_stringify_floats(v) for v in obj]
    return obj


@dataclass(frozen=True)
class CheckResult:
    """One named verification: a pass flag and the measured deviation."""

    name: str
    passed: bool
    deviation: float | None = None

    def to_dict(self) -> dict:
        dev = None if self.deviation is None else repr(float(self.deviation))
        return {"name": self.name, "pass": self.passed, "deviation": dev}


@dataclass
class ExperimentReport:
    """The full record of one run."""

    experiment: str
    char: int
    degree: int
    n: int
    surface: str | None
    p: object | None
    q: object | None
    certificates: list[NormCertificate] = dc_field(default_factory=list)
    checks: list[CheckResult] = dc_field(default_factory=list)
    runtime_ms: float = 0.0
    seed: int | None = None
    config: dict = dc_field(default_factory=dict)
    version: str = __version__

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "experiment": self.experiment,
            "field": {"p": self.char, "k": self.degree},
            "n": self.n,
            "surface": self.surface,
            "p": None if self.p is None else exponent_str(parse_exponent(self.p)),
            "q": None if self.q is None else exponent_str(parse_exponent(self.q)),
            "certificates": [c.to_dict() for c in self.certificates],
            "checks": [c.to_dict() for c in self.checks],
            "runtime_ms": repr(float(self.runtime_ms)),
            "version": self.version,
            "seed": self.seed,
            "config": _stringify_floats(self.config),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)

    def to_text(self) -> str:
        ftxt = "-" if self.char == 0 else f"F_{self.char}" + (
            f"^{self.degree}" if self.degree > 1 else ""
        )
        lines = [
            f"experiment: {self.experiment}",
            f"field: {ftxt}",
            f"n: {self.n}" + (f"  surface: {self.surface}" if self.surface else ""),
        ]
        if self.p is not None or self.q is not None:
            ptxt = "-" if self.p is None else exponent_str(parse_exponent(self.p))
            qtxt = "-" if self.q is None else exponent_str(parse_exponent(self.q))
            lines.append(f"exponents: p = {ptxt}, q = {qtxt}")
        if self.seed is not None:
            lines.append(f"seed: {self.seed}")
        for cert in self.certificates:
            lines.append("  " + cert.describe())
        for chk in self.checks:
            status = "pass" if chk.passed else "FAIL"
            dev = "" if chk.deviation is None else f"  deviation {chk.deviation:.3e}"
            lines.append(f"  [{status}] {chk.name}{dev}")
        lines.append(f"runtime: {self.runtime_ms:.1f} ms  (version {self.version})")
        return "\n".join(lines)

    def to_csv(self) -> str:
        """Flat table: one row per certificate and one per check."""
        rows = ["row,experiment,name,kind,method,p,q,value,pass,deviation"]
        ptxt = "" if self.p is None else exponent_str(parse_exponent(self.p))
        qtxt = "" if self.q is None else exponent_str(parse_exponent(self.q))
        for c in self.certificates:
            rows.append(
                f"certificate,{self.experiment},{c.quantity},{c.kind},{c.method},"
                f"{exponent_str(c.p)},{exponent_str(c.q)},{c.value!r},,"
            )
        for chk in self.checks:
            dev = "" if chk.deviation is None else repr(float(chk.deviation))
            rows.append(
                f"check,{self.experiment},{chk.name},,,{ptxt},{qtxt},,"
                f"{str(chk.passed).lower()},{dev}"
            )
        return "\n".join(rows) + "\n"

    def render(self, fmt: str = "text") -> str:
        if fmt == "text":
            return self.to_text()
        if fmt == "json":
            return self.to_json()
        if fmt == "csv":
            return self.to_csv()
        raise ValueError(f"unknown format {fmt!r}")


def store_report(text: str, path: Path) -> Path:
    """Write a command's rendered output to path, newline-terminated as printed;
    the only file fflab writes."""
    path.write_text(text + "\n")
    return path
