"""Experiment reports and the per-run results store.

A report is one self-contained record per run: the experiment name, the
field and geometry, the exponent pair, every certificate produced, every
named check with its pass flag and deviation, the runtime, the package
version, and the seed.  Floating-point numbers are rendered as decimal
strings in JSON so that readers in other languages reparse them exactly.

Each run writes its report under a results directory (environment variable
FFLAB_RESULTS_DIR overrides the default ./.fflab-cache), named by the sha256
of the canonical JSON of its configuration.  The store is a record of runs:
nothing reads a report back to answer a later run.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field as dc_field
from pathlib import Path

from . import __version__
from .certificates import NormCertificate, exponent_str, parse_exponent

RESULTS_ENV = "FFLAB_RESULTS_DIR"
DEFAULT_RESULTS_DIR = ".fflab-cache"


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

    @classmethod
    def from_dict(cls, d: dict) -> "CheckResult":
        dev = d.get("deviation")
        return cls(d["name"], bool(d["pass"]), None if dev is None else float(dev))


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

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentReport":
        return cls(
            experiment=d["experiment"],
            char=int(d["field"]["p"]),
            degree=int(d["field"]["k"]),
            n=int(d["n"]),
            surface=d.get("surface"),
            p=d.get("p"),
            q=d.get("q"),
            certificates=[NormCertificate.from_dict(c) for c in d.get("certificates", [])],
            checks=[CheckResult.from_dict(c) for c in d.get("checks", [])],
            runtime_ms=float(d.get("runtime_ms", 0.0)),
            seed=d.get("seed"),
            config=d.get("config", {}),
            version=d.get("version", "0.0.0"),
        )

    @classmethod
    def from_json(cls, text: str) -> "ExperimentReport":
        return cls.from_dict(json.loads(text))

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


# -- results store --------------------------------------------------------------------


def results_dir() -> Path:
    return Path(os.environ.get(RESULTS_ENV, DEFAULT_RESULTS_DIR))


def config_key(config: dict) -> str:
    """sha256 of the canonical JSON encoding of a configuration."""
    canon = json.dumps(_stringify_floats(config), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def _major(version: str) -> int:
    return int(version.split(".")[0])


def store_report(report: ExperimentReport, encoded: str | None = None) -> Path:
    """Write the report under its configuration key in results_dir(); encoded,
    when given, is its to_json() text already rendered, so it is not encoded
    twice."""
    d = results_dir()
    d.mkdir(parents=True, exist_ok=True)
    path = d / f"{config_key(report.config)}.json"
    path.write_text(report.to_json() if encoded is None else encoded)
    return path


def cache_gc() -> tuple[int, int]:
    """Drop unreadable or major-version-incompatible entries of results_dir();
    (kept, removed)."""
    d = results_dir()
    kept = removed = 0
    if not d.exists():
        return (0, 0)
    for path in sorted(d.glob("*.json")):
        try:
            report = ExperimentReport.from_json(path.read_text())
            keep = _major(report.version) == _major(__version__)
        except Exception:  # unreadable or malformed
            keep = False
        if keep:
            kept += 1
        else:
            path.unlink()
            removed += 1
    return (kept, removed)
