"""Lines, Besicovitch sets, the Kakeya maximal operator, and the incidence
machinery that feeds the exponent calculus.

Lines are parameterized over directions v in F^{n-1} as l(x0, v) =
{(x0 + vt, t) : t in F}; horizontal lines (constant last coordinate) sit
outside this family and are only reachable through an explicit opt-in.  The
direction space carries the normalized measure dv assigning mass
|F|^{-(n-1)} per direction, while point space keeps counting measure.  The
Kakeya constant K(p -> q) is the best constant in
||f*||_{L^q(dv)} <= C ||f||_{L^p(dx)} for the maximal function
f*(v) = max_{x0} sum_{x in l(x0,v)} |f(x)|.
"""

from __future__ import annotations

import math
import warnings
from collections import Counter, defaultdict
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .certificates import NormCertificate, as_float, holder_dual, parse_exponent, recheck_agrees
from .errors import (
    BudgetExceededError,
    ConstraintViolatedError,
    DegenerateHeightsError,
    ImproperSlopeError,
    NotInjectiveError,
    NotQuadraticExtensionError,
    UnknownWitnessError,
    UnsupportedDimensionError,
)
from .field import Field
from .grid import Grid, Side, affine_line, flat_points, grid_from_bytes, grid_to_bytes, lp_norm

MAXIMAL_BUDGET_ORDER = 31  # largest |F| allowed at n >= 4


# -- lines ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LineSpec:
    """The line {(x0 + vt, t)} with base point and direction in F^{n-1}."""

    x0: tuple[int, ...]
    v: tuple[int, ...]

    def __post_init__(self):
        if len(self.x0) != len(self.v):
            raise ValueError("base point and direction dimensions differ")

    @property
    def dim(self) -> int:
        return len(self.x0) + 1


def line_points(field: Field, line: LineSpec) -> np.ndarray:
    """(|F|, n) coordinate rows of the line's points."""
    return affine_line(field, (*line.x0, 0), (*line.v, 1))


def line_flat_points(field: Field, line: LineSpec) -> np.ndarray:
    return flat_points(field, line_points(field, line))


# -- line tables ---------------------------------------------------------------------

# Index entries in one direction chunk of a line table (512 KiB of int64), so
# the table, its gather and the accumulator stay in cache.
LINE_TABLE_ENTRIES = 1 << 16


def _direction_chunks(m: int):
    """Consecutive slices of the m directions, each small enough for one table."""
    step = max(1, LINE_TABLE_ENTRIES // m)
    for start in range(0, m, step):
        yield slice(start, min(start + step, m))


def _line_table(field: Field, n: int, vfs: slice, t: int) -> np.ndarray:
    """(directions, |F|^{n-1}) flat indices over F^{n-1} of x0 + vt.

    Rows follow the direction flats in vfs, columns every base point x0 in
    flat order.  The table is an outer sum of per-axis shift rows, so it
    needs field addition only on |F| entries per axis and direction.
    """
    q = field.order
    vt = field.mul_arrays(field.grid_coords(n - 1)[vfs], np.int64(t))
    axis = np.arange(q, dtype=np.int64)
    table = np.zeros((len(vt), 1), dtype=np.int64)
    for j in reversed(range(n - 1)):  # coordinate 0 varies fastest
        row = field.add_arrays(vt[:, j, None], axis) * q**j
        table = (table[:, :, None] + row[:, None, :]).reshape(len(vt), -1)
    return table


# -- Besicovitch ---------------------------------------------------------------------


@dataclass
class BesicovitchWitness:
    """A set containing a full line in every direction, with the assignment
    v -> x0(v) recording one such line per direction (flat indices over
    F^{n-1}; -1 marks a missing direction)."""

    field: Field
    n: int
    assignment: np.ndarray
    flat: np.ndarray  # sorted flat indices of the set E

    @property
    def size(self) -> int:
        return len(self.flat)

    def points(self) -> np.ndarray:
        return self.field.grid_coords(self.n)[self.flat]

    def lines(self) -> list[LineSpec]:
        coords = self.field.grid_coords(self.n - 1)
        out = []
        for vf, xf in enumerate(self.assignment):
            if xf >= 0:
                out.append(
                    LineSpec(tuple(int(c) for c in coords[xf]), tuple(int(c) for c in coords[vf]))
                )
        return out


def besicovitch_2d(field: Field) -> BesicovitchWitness:
    """E = {(x, t) : x + t^2 is a square}, of size (|F|^2 + |F|)/2.

    The line l(v^2/4, v) lies in E for every direction v: along it,
    x + t^2 = (t + v/2)^2.
    """
    q = field.order
    xs = np.tile(np.arange(q, dtype=np.int64), q)
    ts = np.repeat(np.arange(q, dtype=np.int64), q)
    shifted = field.add_arrays(xs, field.mul_arrays(ts, ts))
    keep = field.squares[shifted]
    flat = (xs + q * ts)[keep]
    inv4 = field.inv(field.rational(4))
    vs = np.arange(q, dtype=np.int64)
    assignment = field.mul_arrays(field.mul_arrays(vs, vs), np.int64(inv4))
    return BesicovitchWitness(field, 2, assignment.astype(np.int64), np.sort(flat))


def verify_besicovitch(field: Field, n: int, flat: np.ndarray):
    """(ok, missing direction flats, assignment) for a candidate set.

    Scans every direction for a fully contained line, taking the smallest
    flat base point when several work.
    """
    q = field.order
    m = q ** (n - 1)
    member = np.zeros(q**n, dtype=bool)
    member[np.asarray(flat, dtype=np.int64)] = True
    slices = member.reshape(m, q, order="F")  # [base-space flat, height]
    assignment = np.full(m, -1, dtype=np.int64)
    for vfs in _direction_chunks(m):
        ok = np.ones((vfs.stop - vfs.start, m), dtype=bool)
        for t in range(q):
            ok &= slices[:, t].take(_line_table(field, n, vfs, t))
        assignment[vfs] = np.where(ok.any(axis=1), ok.argmax(axis=1), -1)
    missing = np.flatnonzero(assignment < 0).tolist()
    return (not missing, missing, assignment)


# -- maximal function ----------------------------------------------------------------


def kakeya_maximal(f: Grid, include_horizontal: bool = False) -> np.ndarray:
    """f*(v) = max_{x0} sum_{t} |f(x0 + vt, t)| over all directions.

    Returns one value per direction flat.  include_horizontal (2-D only)
    appends the best constant-height row sum as a final extra entry.
    """
    if f.side != Side.SPACE:
        raise ValueError("maximal function acts on space-side grids")
    q = f.field.order
    n = f.n
    if n >= 4 and q > MAXIMAL_BUDGET_ORDER:
        raise BudgetExceededError(f"maximal function at n = {n} needs |F| <= {MAXIMAL_BUDGET_ORDER}")
    if include_horizontal and n != 2:
        raise UnsupportedDimensionError("horizontal rows are a 2-D exploration only")
    m = q ** (n - 1)
    absf = np.abs(f.values).reshape(m, q, order="F")
    out = np.empty(m + (1 if include_horizontal else 0), dtype=np.float64)
    for vfs in _direction_chunks(m):
        acc = np.zeros((vfs.stop - vfs.start, m), dtype=np.float64)
        for t in range(q):
            acc += absf[:, t].take(_line_table(f.field, n, vfs, t))
        out[vfs] = acc.max(axis=1)
    if include_horizontal:
        out[m] = absf.sum(axis=0).max()
    return out


def kakeya_maximal_direct(f: Grid) -> np.ndarray:
    """Same maximal function by a per-direction walk in field arithmetic.

    For each direction v it forms the (heights, base points) array of flat
    indices of (x0 + vt, t) straight from the coordinate table with
    field.mul_arrays and field.add_arrays, then sums each column over t and
    takes the largest.  Deliberately shares no code with kakeya_maximal: no
    line tables, no direction chunks; certificates are re-evaluated through
    this path.
    """
    field = f.field
    q = field.order
    n = f.n
    m = q ** (n - 1)
    absf = np.abs(f.values)
    coords = field.grid_coords(n - 1)
    ts = np.arange(q, dtype=np.int64)[:, None]
    out = np.zeros(m, dtype=np.float64)
    for vf in range(m):
        flat = ts * m  # [height, base point]
        for j in range(n - 1):
            shift = field.mul_arrays(ts, coords[vf, j])
            flat = flat + field.add_arrays(coords[None, :, j], shift) * q**j
        out[vf] = absf[flat].sum(axis=0).max()
    return out


def direction_lp_norm(field: Field, n: int, values: np.ndarray, p) -> float:
    """L^p norm over directions under dv = |F|^{-(n-1)} counting."""
    pf = p if p == math.inf else as_float(parse_exponent(p))
    a = np.abs(np.asarray(values, dtype=np.float64))
    if pf == math.inf:
        return float(a.max())
    return float(np.mean(a**pf) ** (1.0 / pf))


# -- Kakeya certificates ---------------------------------------------------------------


def _kakeya_cert(field, n, kind, method, p, q, value, witness=None, meta=None) -> NormCertificate:
    return NormCertificate(
        quantity="kakeya",
        kind=kind,
        method=method,
        char=field.p,
        degree=field.k,
        n=n,
        surface=f"lines(n={n})",
        p=p,
        q=q,
        value=value,
        witness=witness,
        meta=meta or {},
    )


def _maximal_ratio(f: Grid, p, q) -> float:
    star = kakeya_maximal(f)
    return direction_lp_norm(f.field, f.n, star, q) / lp_norm(f, p)


def kakeya_norm_certificates(
    field: Field,
    n: int,
    p,
    q,
    witnesses: Iterable[str] = ("point", "line", "full_space"),
    seed: int = 0,
    count: int = 8,
) -> list[NormCertificate]:
    """Lower certificates for K(p -> q) from named test functions.

    point, line and full_space carry their closed-form ratios in metadata
    (the measured value can only exceed the line formula, which keeps just
    the leading direction); besicovitch_indicator uses the 2-D construction;
    random_sets tries seeded random indicators and keeps the best.
    """
    p = parse_exponent(p)
    q = parse_exponent(q)
    qf = field.order
    total = qf**n
    out = []
    for name in witnesses:
        meta: dict = {"witness_name": name}
        if name == "point":
            vals = np.zeros(total, dtype=np.complex128)
            vals[0] = 1.0
            f = Grid(field, n, vals, Side.SPACE)
            meta["formula_value"] = 1.0
        elif name == "line":
            vals = np.zeros(total, dtype=np.complex128)
            vals[line_flat_points(field, LineSpec((0,) * (n - 1), (0,) * (n - 1)))] = 1.0
            f = Grid(field, n, vals, Side.SPACE)
            meta["formula_value"] = float(qf) ** (
                -(n - 1) / as_float(q) + 1.0 / as_float(holder_dual(p))
            )
        elif name == "full_space":
            f = Grid.constant(field, n, 1.0, Side.SPACE)
            meta["formula_value"] = float(qf) ** (1.0 - n / as_float(p))
        elif name == "besicovitch_indicator":
            if n != 2:
                raise UnsupportedDimensionError("the explicit construction is 2-D")
            wit = besicovitch_2d(field)
            vals = np.zeros(total, dtype=np.complex128)
            vals[wit.flat] = 1.0
            f = Grid(field, n, vals, Side.SPACE)
            meta["set_size"] = wit.size
        elif name == "random_sets":
            rng = np.random.default_rng(seed)
            best = None
            for i in range(count):
                vals = (rng.random(total) < 0.5).astype(np.complex128)
                if not vals.any():
                    vals[0] = 1.0
                cand = Grid(field, n, vals, Side.SPACE)
                ratio = _maximal_ratio(cand, p, q)
                if best is None or ratio > best[0]:
                    best = (ratio, cand, i)
            assert best is not None
            f = best[1]
            meta.update({"seed": seed, "tried": count, "best_index": best[2]})
        else:
            raise UnknownWitnessError(f"no Kakeya witness named {name!r}")
        value = best[0] if name == "random_sets" else _maximal_ratio(f, p, q)
        out.append(
            _kakeya_cert(
                field, n, "lower", "witness", p, q, value,
                witness=grid_to_bytes(f), meta=meta,
            )
        )
    return out


def kakeya_upper_overlap(field: Field, n: int) -> NormCertificate:
    """K(2 -> 2n-2) <= sqrt(2), certified.

    Distinct directions intersect in at most one point, so the squared
    L^2 mass of an averaged line bundle splits into a diagonal term and a
    rank-one term, each dominated by ||g||_{(2n-2)'}^2.  Both steps are
    exact inequalities with constant 1, so the certificate carries the
    explicit sqrt(2).
    """
    if n < 2:
        raise UnsupportedDimensionError("need n >= 2")
    return _kakeya_cert(
        field, n, "upper", "closed_form", 2, 2 * n - 2, math.sqrt(2.0),
        meta={"derivation": "line-overlap counting: diagonal plus rank-one split"},
    )


def recheck_lower(cert: NormCertificate) -> float:
    """Re-evaluate a Kakeya lower certificate through the per-line path."""
    if cert.quantity != "kakeya" or cert.kind != "lower" or cert.witness is None:
        raise UnknownWitnessError("expected a witness-bearing Kakeya lower certificate")
    f = grid_from_bytes(cert.witness)
    star = kakeya_maximal_direct(f)
    return direction_lp_norm(f.field, f.n, star, cert.q) / lp_norm(f, cert.p)


def verify_lower(cert: NormCertificate) -> bool:
    return recheck_agrees(cert, recheck_lower(cert))


# -- line averages -------------------------------------------------------------------


def line_sum_grid(field: Field, n: int, g: np.ndarray, x0map: np.ndarray) -> Grid:
    """Tg = |F|^{-(n-1)} sum_v g(v) chi_{l(x0(v), v)} as a space-side grid."""
    q = field.order
    m = q ** (n - 1)
    g = np.asarray(g, dtype=np.float64)
    coords = field.grid_coords(n - 1)
    vfs = np.flatnonzero(g != 0)
    x0, v = coords[np.asarray(x0map, dtype=np.int64)[vfs]], coords[vfs]
    ts = np.arange(q, dtype=np.int64)
    flat = np.tile(ts * m, (len(vfs), 1))  # [direction, height], directions in order
    for j in range(n - 1):
        flat += field.add_arrays(x0[:, j, None], field.mul_arrays(v[:, j, None], ts)) * q**j
    vals = np.zeros(q**n, dtype=np.complex128)
    np.add.at(vals, flat, g[vfs, None])
    vals /= float(m)
    return Grid(field, n, vals, Side.SPACE)


def cordoba_check(field: Field, n: int, g: np.ndarray, x0map: np.ndarray) -> float:
    """sqrt(2) ||g||_{(2n-2)'(dv)} - ||Tg||_{L^2(dx)}; nonnegative for g >= 0."""
    g = np.asarray(g, dtype=np.float64)
    if np.any(g < 0):
        raise ValueError("direction weights must be nonnegative")
    dual = holder_dual(Fraction(2 * n - 2))
    lhs = math.sqrt(2.0) * direction_lp_norm(field, n, g, dual)
    rhs = lp_norm(line_sum_grid(field, n, g, x0map), 2)
    return lhs - rhs


# -- incidences ----------------------------------------------------------------------


@dataclass(frozen=True)
class LineIncidenceReport:
    count: int
    point_count: int
    line_count: int
    bound: float
    satisfied: bool


def incidence_count(field: Field, points: np.ndarray, lines: Sequence[LineSpec]) -> LineIncidenceReport:
    """Exact |{(p, l) : p in l}| with the square-root incidence bound."""
    if len(set(lines)) != len(lines):
        raise ValueError("lines must be distinct")
    pts = np.asarray(points, dtype=np.int64)
    pset = set(int(x) for x in flat_points(field, pts))
    count = sum(
        sum(1 for x in line_flat_points(field, ln) if int(x) in pset) for ln in lines
    )
    np_, nl = len(pts), len(lines)
    bound = min(math.sqrt(np_) * nl + np_, np_ * math.sqrt(nl) + nl)
    return LineIncidenceReport(count, np_, nl, bound, count <= bound)


@dataclass(frozen=True)
class ChainCounts:
    """Exact incidence-chain counts for a point/line configuration.

    incidences I; angles V (line pairs through a common point, degenerate
    pairs included) with V' = V - I the non-degenerate ones; pointed angles
    W (a non-degenerate angle plus a second point on its second line);
    linked angle pairs T sharing the first line and the marked point, with
    T' = T - W the genuinely two-point ones; corner paths A (a middle point
    joined to two endpoints along two distinct lines); and quadrilaterals Q
    (two corner paths sharing both endpoints) with Q' = Q - A the ones whose
    corners differ.
    """

    incidences: int
    angles: int
    nondegenerate_angles: int
    pointed_angles: int
    linked_pairs: int
    nondegenerate_triangles: int
    corner_paths: int
    quadrilaterals: int
    nondegenerate_quadrilaterals: int
    cauchy_ok: bool


def incidence_chain_counts(
    field: Field,
    points: np.ndarray,
    lines: Sequence[LineSpec],
    budget: int = 10**8,
) -> ChainCounts:
    """Count the full chain exactly.

    Distinct lines meet in at most one point, which is what lets every
    quantity be assembled from per-point line degrees, per-line point
    counts, and the map from point pairs to the unique line through them.
    """
    pts = np.asarray(points, dtype=np.int64)
    pflat = [int(x) for x in flat_points(field, pts)]
    pset = set(pflat)
    if len(pset) != len(pflat):
        raise ValueError("points must be distinct")
    if len(set(lines)) != len(lines):
        raise ValueError("lines must be distinct")
    if len(pflat) * max(1, len(lines)) > budget:
        raise BudgetExceededError("configuration too large for chain counting")

    on_line: list[list[int]] = []  # per line: point flats on it
    through: dict[int, list[int]] = defaultdict(list)  # point flat -> line ids
    for li, ln in enumerate(lines):
        row = [int(x) for x in line_flat_points(field, ln) if int(x) in pset]
        on_line.append(row)
        for pf in row:
            through[pf].append(li)

    inc = sum(len(row) for row in on_line)
    deg = {pf: len(ls) for pf, ls in through.items()}
    angles = sum(d * d for d in deg.values())
    nondeg_angles = angles - inc

    sizes = [len(row) for row in on_line]
    pointed = sum(
        (deg[pf] - 1) * (sizes[li] - 1) for pf, ls in through.items() for li in ls
    )

    pair_line: dict[tuple[int, int], int] = {}
    for li, row in enumerate(on_line):
        for a in row:
            for b in row:
                if a != b:
                    pair_line[(a, b)] = li

    # linked pairs share (first line, marked point); count per key and square
    linked = 0
    for li, row in enumerate(on_line):
        for p2 in pflat:
            m = 0
            for pf in row:
                if pf == p2:
                    continue
                other = pair_line.get((pf, p2))
                if other is not None and other != li:
                    m += 1
            linked += m * m
    nondeg_triangles = linked - pointed

    # corner paths keyed by endpoints; meet in the middle for quadrilaterals
    cost = sum(
        (sum(sizes[li] - 1 for li in ls)) ** 2 for pf, ls in through.items()
    )
    if cost > budget:
        raise BudgetExceededError("quadrilateral counting exceeds the budget")
    endpoint_counts: Counter[tuple[int, int]] = Counter()
    for pf, ls in through.items():
        for l1 in ls:
            for l2 in ls:
                if l1 == l2:
                    continue
                for p1 in on_line[l1]:
                    if p1 == pf:
                        continue
                    for p2 in on_line[l2]:
                        if p2 == pf:
                            continue
                        endpoint_counts[(p1, p2)] += 1
    paths = sum(endpoint_counts.values())
    quads = sum(c * c for c in endpoint_counts.values())
    nondeg_quads = quads - paths

    cauchy_ok = angles * len(pflat) >= inc * inc
    return ChainCounts(
        incidences=inc,
        angles=angles,
        nondegenerate_angles=nondeg_angles,
        pointed_angles=pointed,
        linked_pairs=linked,
        nondegenerate_triangles=nondeg_triangles,
        corner_paths=paths,
        quadrilaterals=quads,
        nondegenerate_quadrilaterals=nondeg_quads,
        cauchy_ok=cauchy_ok,
    )


# -- planes and the direction-spread axiom ---------------------------------------------


def _plane_key(field: Field, a: tuple[int, int, int], c: int):
    """Projective normalization of the plane {x : a . x = c}."""
    lead = next((x for x in a if x != 0), 0)
    if lead == 0:
        raise ValueError("zero normal vector")
    s = field.inv(lead)
    return tuple(field.mul(s, x) for x in a), field.mul(s, c)


def _line_in_plane(field: Field, line: LineSpec, a: tuple[int, int, int], c: int) -> bool:
    ab = a[:2]
    dv = field.add(field.dot(np.array(ab), np.array(line.v)), a[2])
    if dv != 0:
        return False
    return field.dot(np.array(ab), np.array(line.x0)) == c


@dataclass(frozen=True)
class PlaneSpreadReport:
    max_lines: int
    plane: tuple[tuple[int, int, int], int] | None
    ratio: float
    mode: str


def wolff_axiom_check(field: Field, lines: Sequence[LineSpec], mode: str = "pairs") -> PlaneSpreadReport:
    """Largest number of family lines lying in a single 2-plane of F^3.

    pairs mode inspects only planes spanned by two family lines (a lower
    bound on the true maximum, and exact whenever the maximum is >= 2);
    exhaustive mode scans all (|F|^2 + |F| + 1) |F| planes and is gated to
    |F| <= 7.
    """
    if any(ln.dim != 3 for ln in lines):
        raise UnsupportedDimensionError("plane analysis lives in F^3")
    if not lines:
        return PlaneSpreadReport(0, None, 0.0, mode)
    q = field.order

    def count_in(a, c):
        return sum(1 for ln in lines if _line_in_plane(field, ln, a, c))

    best = (1, None)
    if mode == "pairs":
        seen = set()
        for i, l1 in enumerate(lines):
            for l2 in lines[i + 1 :]:
                if l1.v != l2.v:
                    w = (field.sub(l1.v[0], l2.v[0]), field.sub(l1.v[1], l2.v[1]))
                    ab = (field.neg(w[1]), w[0])
                elif l1.x0 != l2.x0:
                    w = (field.sub(l1.x0[0], l2.x0[0]), field.sub(l1.x0[1], l2.x0[1]))
                    ab = (field.neg(w[1]), w[0])
                else:
                    continue
                a3 = field.neg(field.dot(np.array(ab), np.array(l1.v)))
                c = field.dot(np.array(ab), np.array(l1.x0))
                a = (*ab, a3)
                if not (_line_in_plane(field, l1, a, c) and _line_in_plane(field, l2, a, c)):
                    continue
                key = _plane_key(field, a, c)
                if key in seen:
                    continue
                seen.add(key)
                cnt = count_in(*key)
                if cnt > best[0]:
                    best = (cnt, key)
    elif mode == "exhaustive":
        if q > 7:
            raise BudgetExceededError("exhaustive plane scan is gated to |F| <= 7")
        seen = set()
        coords = field.grid_coords(3)
        for a_row in coords[1:]:
            a = tuple(int(x) for x in a_row)
            for c in range(q):
                key = _plane_key(field, a, c)
                if key in seen:
                    continue
                seen.add(key)
                cnt = count_in(*key)
                if cnt > best[0]:
                    best = (cnt, key)
    else:
        raise ValueError("mode must be 'pairs' or 'exhaustive'")
    return PlaneSpreadReport(best[0], best[1], best[0] / q, mode)


# -- the quadratic-extension configuration ----------------------------------------------


@dataclass(frozen=True)
class QuadExtensionReport:
    point_flats: np.ndarray
    lines: tuple[LineSpec, ...]
    point_count: int
    line_count: int
    containment_ok: bool
    duplicate_direction: tuple[int, int] | None
    point_ratio: float  # |P| / |F|^{5/2}
    line_ratio: float  # |L| / |F|^2


def heisenberg_example(field: Field) -> QuadExtensionReport:
    """The norm-form point set P = {Im(z1 conj(z2)) = Im(z3)} in F^3 with its
    contained line family.

    Containment forces the line constraints Im(x1 conj(x2)) = 0,
    Im(v1 conj(v2)) = 0 and v1 conj(x2) - v2 conj(x1) = 1; expanding
    Im(z1 conj(z2)) along a line leaves a term linear in t whose coefficient
    must be exactly 1 and a norm-quadratic term that must vanish.  The family
    repeats directions, which is the point of the construction.
    """
    if field.k != 2:
        raise NotQuadraticExtensionError("the construction needs a quadratic extension")
    q = field.order
    coords = field.grid_coords(3)
    lhs = field.im_arrays(field.mul_arrays(coords[:, 0], field.frobenius_arrays(coords[:, 1])))
    rhs = field.im_arrays(coords[:, 2])
    pflat = np.flatnonzero(lhs == rhs).astype(np.int64)
    pset = set(int(x) for x in pflat)

    pairs = field.grid_coords(2)
    zero_im = [
        (int(a), int(b))
        for a, b in pairs
        if field.im_part(field.mul(int(a), field.frobenius(int(b)))) == 0
    ]
    one = field.rational(1)
    lines = []
    for x1, x2 in zero_im:
        fx1, fx2 = field.frobenius(x1), field.frobenius(x2)
        for v1, v2 in zero_im:
            if field.sub(field.mul(v1, fx2), field.mul(v2, fx1)) == one:
                lines.append(LineSpec((x1, x2), (v1, v2)))

    contained = all(
        all(int(x) in pset for x in line_flat_points(field, ln)) for ln in lines
    )
    dirs = Counter(ln.v for ln in lines)
    dup = next((v for v, c in dirs.items() if c > 1), None)
    return QuadExtensionReport(
        point_flats=pflat,
        lines=tuple(lines),
        point_count=len(pflat),
        line_count=len(lines),
        containment_ok=contained,
        duplicate_direction=dup,
        point_ratio=len(pflat) / float(q) ** 2.5,
        line_ratio=len(lines) / float(q) ** 2,
    )


# -- slope projections ----------------------------------------------------------------


def _slope_to_field(field: Field, slope) -> int | None:
    """Map a rational slope into F; None encodes infinity."""
    if slope in (math.inf, "inf", "infinity", "oo"):
        return None
    r = Fraction(slope)
    if r == -1:
        raise ImproperSlopeError("the difference projection itself is not allowed")
    den = r.denominator
    if den % field.p == 0 or not (0 < den < field.p):
        raise ImproperSlopeError(f"slope {r} has no representative with denominator below {field.p}")
    return field.rational(r.numerator, den)


@dataclass(frozen=True)
class SlopeReport:
    size: int
    projection_sizes: dict
    alpha_emp: float | None
    two_slope_ok: bool
    dropped_slopes: tuple[str, ...]


def slope_projections(
    field: Field,
    n: int,
    pairs: np.ndarray,
    slopes: Sequence,
    require_injective: bool = True,
) -> SlopeReport:
    """Projection sizes pi_r(a, b) = a + rb for a pair set in F^{n-1} x F^{n-1}.

    pairs holds (a, b) as flat indices over F^{n-1}.  Slopes are exact
    rationals (plus infinity) mapped into F by lifting; distinct rationals
    that collide in F are deduplicated with a warning.  alpha_emp solves
    |G| = (max_r |pi_r(G)|)^alpha.  The two-slope product bound
    |G| <= |pi_r||pi_r'| is checked for every distinct pair.
    """
    pairs = np.asarray(pairs, dtype=np.int64)
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise ValueError("pairs must be an (m, 2) array of flat indices")
    coords = field.grid_coords(n - 1)
    a, b = coords[pairs[:, 0]], coords[pairs[:, 1]]

    diff = np.stack(
        [field.sub_arrays(a[:, j], b[:, j]) for j in range(n - 1)], axis=1
    )
    n_diff = len(np.unique(flat_points(field, diff)))
    if n_diff != len(pairs):
        if require_injective:
            raise NotInjectiveError("the difference projection collides on this set")
        warnings.warn("difference projection is not injective on this set", stacklevel=2)

    mapped: dict[str, int | None] = {}
    dropped = []
    seen_elems: dict[int | None, str] = {}
    for s in slopes:
        label = "inf" if s in (math.inf, "inf", "infinity", "oo") else str(Fraction(s))
        elem = _slope_to_field(field, s)
        if elem in seen_elems:
            warnings.warn(
                f"slope {label} collides with {seen_elems[elem]} in F; dropped", stacklevel=2
            )
            dropped.append(label)
            continue
        if elem is not None and elem == field.minus_one:
            warnings.warn(
                f"slope {label} reduces to the difference projection in F", stacklevel=2
            )
        seen_elems[elem] = label
        mapped[label] = elem

    proj_sizes: dict[str, int] = {}
    for label, elem in mapped.items():
        if elem is None:
            img = flat_points(field, b)
        else:
            cols = [
                field.add_arrays(a[:, j], field.mul_arrays(b[:, j], np.int64(elem)))
                for j in range(n - 1)
            ]
            img = flat_points(field, np.stack(cols, axis=1))
        proj_sizes[label] = int(len(np.unique(img)))

    alpha = None
    if proj_sizes:
        biggest = max(proj_sizes.values())
        if biggest > 1 and len(pairs) > 0:
            alpha = math.log(len(pairs)) / math.log(biggest)

    labels = list(proj_sizes)
    two_ok = all(
        len(pairs) <= proj_sizes[r1] * proj_sizes[r2]
        for i, r1 in enumerate(labels)
        for r2 in labels[i + 1 :]
    )
    return SlopeReport(len(pairs), proj_sizes, alpha, two_ok, tuple(dropped))


# -- slices ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SliceCheck:
    slope: str
    height: int
    projection_size: int
    slice_size: int
    dominated: bool


@dataclass(frozen=True)
class SlicesReport:
    pairs: np.ndarray
    size: int
    injective: bool
    checks: tuple[SliceCheck, ...]


def slices_construction(witness: BesicovitchWitness, t0: int, t_inf: int, slopes: Sequence) -> SlicesReport:
    """G = {(x0(v) + t0 v, x0(v) + t_inf v)} with per-slope slice domination.

    The slope-r projection of G is a dilate of the set of line points at
    height t_r = t0/(r+1) + r t_inf/(r+1), so its size is bounded by that
    slice of the witness set.
    """
    field = witness.field
    n = witness.n
    if t0 == t_inf:
        raise DegenerateHeightsError("the two heights must differ")
    q = field.order
    m = q ** (n - 1)
    coords = field.grid_coords(n - 1)
    if np.any(witness.assignment < 0):
        raise ValueError("witness must assign a base point to every direction")
    x0 = coords[witness.assignment]
    vs = coords
    p0 = np.stack(
        [field.add_arrays(x0[:, j], field.mul_arrays(vs[:, j], np.int64(t0))) for j in range(n - 1)],
        axis=1,
    )
    p1 = np.stack(
        [
            field.add_arrays(x0[:, j], field.mul_arrays(vs[:, j], np.int64(t_inf)))
            for j in range(n - 1)
        ],
        axis=1,
    )
    pairs = np.stack([flat_points(field, p0), flat_points(field, p1)], axis=1)
    diff = np.stack(
        [field.sub_arrays(p0[:, j], p1[:, j]) for j in range(n - 1)], axis=1
    )
    injective = len(np.unique(flat_points(field, diff))) == m

    member = np.zeros(q**n, dtype=bool)
    member[witness.flat] = True
    slices = member.reshape(m, q, order="F")

    checks = []
    for s in slopes:
        label = "inf" if s in (math.inf, "inf", "infinity", "oo") else str(Fraction(s))
        elem = _slope_to_field(field, s)
        if elem is None:
            t_r = t_inf
            img = pairs[:, 1]
        else:
            denom = field.add(elem, field.rational(1))
            if denom == 0:
                raise ImproperSlopeError(f"slope {label} + 1 vanishes in F")
            inv = field.inv(denom)
            t_r = field.add(
                field.mul(t0, inv), field.mul(field.mul(elem, t_inf), inv)
            )
            cols = [
                field.add_arrays(p0[:, j], field.mul_arrays(p1[:, j], np.int64(elem)))
                for j in range(n - 1)
            ]
            img = flat_points(field, np.stack(cols, axis=1))
        proj = int(len(np.unique(img)))
        slice_size = int(slices[:, t_r].sum())
        checks.append(SliceCheck(label, int(t_r), proj, slice_size, proj <= slice_size))
    return SlicesReport(pairs, m, injective, tuple(checks))


# -- exponent calculus ----------------------------------------------------------------


def incidence_to_kakeya_exponents(a, b, c, n: int) -> tuple[Fraction, Fraction]:
    """(p, q) such that an incidence bound |I| <~ |P|^a |L|^b |F|^c yields a
    K(p -> q) estimate: p = ((n-1)b + c)/a, q = min((n-1)p', ((n-1)b + c)/b).
    """
    a, b, c = Fraction(a), Fraction(b), Fraction(c)
    if not (0 <= a <= 1 and 0 <= b <= 1 and 0 <= c <= 1):
        raise ConstraintViolatedError("exponents must lie in [0, 1]")
    if a <= 0 or b <= 0:
        raise ConstraintViolatedError(
            "point and line exponents must be positive; the b = 0 edge only "
            "gives the line q = (n-1)p'"
        )
    weight = (n - 1) * b + c
    if weight < 1:
        raise ConstraintViolatedError("need (n-1)b + c >= 1")
    p = weight / a
    p_dual = holder_dual(p)
    q = min((n - 1) * Fraction(p_dual), weight / b)
    return p, q
