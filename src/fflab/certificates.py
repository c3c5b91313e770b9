"""Exponent arithmetic and certified norm statements.

Lebesgue exponents are exact: each is a Fraction in [1, oo) or math.inf,
parsed from strings like "2", "8/5", "inf".  Decimal input is rejected so a
typo like "2.66" cannot silently stand in for 8/3.

A NormCertificate records one bound on an operator norm together with enough
data to recheck it: a Lower certificate embeds the witness that attains the
value, an Upper or Exact certificate names the finite identity or closed form
that proves it.  Serialization keeps floats as decimal strings so files do
not depend on binary float formatting.
"""

from __future__ import annotations

import base64
import math
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from typing import Union

Exponent = Union[Fraction, float]

CONSISTENCY_TOL = 1e-9
RECHECK_REL_TOL = 1e-9


def parse_exponent(text) -> Exponent:
    """Read an exponent: an integer, a fraction "a/b", or "inf"."""
    if isinstance(text, Fraction):
        value = text
    elif isinstance(text, int):
        value = Fraction(text)
    elif text == math.inf:
        return math.inf
    elif isinstance(text, float):
        raise ValueError("float exponents are ambiguous; pass a string like '8/5'")
    else:
        s = str(text).strip()
        if s.lower() in ("inf", "infinity", "oo"):
            return math.inf
        if "." in s or "e" in s.lower():
            raise ValueError(f"exponent {s!r} must be a rational like '8/5', not a decimal")
        value = Fraction(s)
    if value < 1:
        raise ValueError(f"exponent {value} is below 1")
    return value


def exponent_str(e: Exponent) -> str:
    if e == math.inf:
        return "inf"
    e = Fraction(e)
    return str(e.numerator) if e.denominator == 1 else f"{e.numerator}/{e.denominator}"


def as_float(e: Exponent) -> float:
    return math.inf if e == math.inf else float(Fraction(e))


def holder_dual(e: Exponent) -> Exponent:
    """p' with 1/p + 1/p' = 1; dual of 1 is inf and conversely."""
    if e == math.inf:
        return Fraction(1)
    e = Fraction(e)
    if e == 1:
        return math.inf
    return e / (e - 1)


def _float_out(x: float) -> str:
    return repr(float(x))


def field_label(char: int, degree: int) -> str:
    """F_p, or F_p^k for a proper extension."""
    return f"F_{char}" + (f"^{degree}" if degree > 1 else "")


@dataclass
class NormCertificate:
    """One certified statement about R*(p -> q) or K(p -> q).

    kind "lower" means value <= the true constant (a witness attains it),
    "upper" means the true constant <= value (an identity proves it), and
    "exact" asserts both.
    """

    quantity: str  # "rstar" or "kakeya"
    kind: str  # "exact" | "lower" | "upper"
    method: str  # "closed_form" | "power_iteration" | "even_counting" | "witness" | ...
    char: int
    degree: int
    n: int
    surface: str
    p: Exponent
    q: Exponent
    value: float
    witness: bytes | None = None
    meta: dict = dc_field(default_factory=dict)

    def __post_init__(self):
        if self.quantity not in ("rstar", "kakeya"):
            raise ValueError(f"unknown quantity {self.quantity!r}")
        if self.kind not in ("exact", "lower", "upper"):
            raise ValueError(f"unknown certificate kind {self.kind!r}")
        self.p = parse_exponent(self.p)
        self.q = parse_exponent(self.q)
        self.value = float(self.value)

    @property
    def key(self) -> tuple:
        return (
            self.quantity,
            self.char,
            self.degree,
            self.n,
            self.surface,
            exponent_str(self.p),
            exponent_str(self.q),
        )

    def describe(self) -> str:
        sym = {"exact": "=", "lower": ">=", "upper": "<="}[self.kind]
        name = "R*" if self.quantity == "rstar" else "K"
        return (
            f"{name}({exponent_str(self.p)} -> {exponent_str(self.q)}) {sym} "
            f"{self.value:.12g}  [{self.surface}, {field_label(self.char, self.degree)}, "
            f"n={self.n}, {self.method}]"
        )

    def to_dict(self) -> dict:
        meta = {
            k: (_float_out(v) if isinstance(v, float) else v) for k, v in self.meta.items()
        }
        return {
            "quantity": self.quantity,
            "kind": self.kind,
            "method": self.method,
            "char": self.char,
            "degree": self.degree,
            "n": self.n,
            "surface": self.surface,
            "p": exponent_str(self.p),
            "q": exponent_str(self.q),
            "value": _float_out(self.value),
            "witness": base64.b64encode(self.witness).decode("ascii") if self.witness else None,
            "meta": meta,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "NormCertificate":
        wit = d.get("witness")
        return cls(
            quantity=d["quantity"],
            kind=d["kind"],
            method=d["method"],
            char=int(d["char"]),
            degree=int(d["degree"]),
            n=int(d["n"]),
            surface=d["surface"],
            p=parse_exponent(d["p"]),
            q=parse_exponent(d["q"]),
            value=float(d["value"]),
            witness=base64.b64decode(wit) if wit else None,
            meta=dict(d.get("meta", {})),
        )


def make_certificate(
    quantity, field, n, surface, kind, method, p, q, value, witness=None, meta=None
) -> NormCertificate:
    """The certificate of ``quantity`` over ``field`` (its char and degree) at
    n on the ``surface`` label: the one constructor of the package."""
    return NormCertificate(
        quantity, kind, method, field.p, field.k, n, surface, p, q, value, witness, meta or {}
    )


def recheck_agrees(cert: NormCertificate, value: float) -> bool:
    """True when an independently recomputed value confirms ``cert.value``:
    relative error at most RECHECK_REL_TOL, absolute below magnitude 1."""
    return abs(value - cert.value) <= RECHECK_REL_TOL * max(1.0, abs(cert.value))


def certificate_consistency(certs) -> list[str]:
    """Cross-check a batch: every lower bound must sit below every upper bound
    for the same quantity at the same exponent pair.  Returns violation
    messages; an empty list means consistent.
    """
    lowers: dict[tuple, float] = {}
    uppers: dict[tuple, float] = {}
    for c in certs:
        if c.kind in ("lower", "exact"):
            lowers[c.key] = max(lowers.get(c.key, -math.inf), c.value)
        if c.kind in ("upper", "exact"):
            uppers[c.key] = min(uppers.get(c.key, math.inf), c.value)
    problems = []
    for key, lo in lowers.items():
        hi = uppers.get(key)
        if hi is not None and lo > hi + CONSISTENCY_TOL:
            problems.append(f"{key}: lower {lo!r} exceeds upper {hi!r}")
    return problems
