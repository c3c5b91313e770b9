"""Lines, Besicovitch sets, the Kakeya maximal operator, and the incidence
machinery that feeds the exponent calculus.

Lines are parameterized over directions v in F^{n-1} as l(x0, v) =
{(x0 + vt, t) : t in F}; horizontal lines (constant last coordinate) sit
outside this family.  The direction space carries the normalized measure dv
assigning mass |F|^{-(n-1)} per direction, while point space keeps counting
measure.  The Kakeya constant K(p -> q) is the best constant in
||f*||_{L^q(dv)} <= C ||f||_{L^p(dx)} for the maximal function
f*(v) = max_{x0} sum_{x in l(x0,v)} |f(x)|.

A family of L lines is a pair of (L, n-1) int64 arrays: base points x0 and
directions v, one row per line.  line_flats reads all of the family's points
in one batched step with no loop over lines: l(x0, v) is the line x0 + vt of
the base space F^{n-1}, built by grid.affine_flats, lifted by its height t.
Lines of F^n given as (L, n) rows a + tb (incidence_count) go through
affine_flats directly, so one Horner routine builds every line.  The
Besicovitch check and the maximal function keep their own height-by-height
walks: the first follows only the lines still inside the set, the second
reads translate tables.  Its recheck shares neither: it cuts the
directions by the same grid.blocks cap, but builds each chunk's lines in
field arithmetic.

The plane-spread (Wolff axiom) check counts the most family lines in one
plane of F^3, one pencil row of planes at a time; it never names the plane.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .certificates import (
    NormCertificate, as_float, exponent_str, holder_dual, make_certificate, parse_exponent,
    recheck_agrees,
)
from .errors import DEFAULT_BUDGET, FFLabError, NoClosedFormError, require_budget
from .field import Field
from .grid import (
    Grid,
    Side,
    affine_flats,
    blocks,
    flat_points,
    grid_from_bytes,
    grid_to_bytes,
    lp_norm,
    mean_lp_norm,
    translate_flats,
)

RANDOM_SET_TRIES = 8  # seeded indicators drawn by the random_sets witness
WITNESSES = ("point", "line", "full_space", "random_sets")  # the default Kakeya witnesses

# -- lines ---------------------------------------------------------------------------


def line_flats(field: Field, x0, v) -> np.ndarray:
    """(..., |F|) flat indices over F^n of the points (x0 + vt, t), in t order.

    x0 and v are (..., n-1) arrays, n >= 2, whose leading axes broadcast.
    l(x0, v) is the line x0 + vt of F^{n-1} (grid.affine_flats) lifted by its
    height: t is the slowest coordinate, so each flat gains t |F|^{n-1}.
    """
    flat = affine_flats(field, x0, v)
    flat += np.arange(field.order, dtype=np.int64) * field.order ** np.shape(v)[-1]
    return flat


def _require_lines(field: Field | None, n: int, budget: int | None) -> None:
    """Refuse n < 2, as a line needs a height and at least one base
    coordinate; then, unless budget is None, refuse |F|^{2n-1} line-point
    gathers above budget."""
    if n < 2:
        raise FFLabError("need n >= 2")
    if budget is not None:
        require_budget(field.order ** (2 * n - 1), budget, "line-point gathers |F|^{2n-1}")


def _height_slices(field: Field, n: int, flat) -> np.ndarray:
    """Membership of the flat set in F^n as a [base-space flat, height] array."""
    member = np.zeros(field.order**n, dtype=bool)
    member[np.asarray(flat, dtype=np.int64)] = True
    return member.reshape(-1, field.order, order="F")


def _require_distinct(x0, v) -> None:
    rows = np.concatenate([np.asarray(x0), np.asarray(v)], axis=1)
    if len(np.unique(rows, axis=0)) != len(rows):
        raise ValueError("lines must be distinct")


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


def verify_besicovitch(field: Field, n: int, flat: np.ndarray, budget: int = DEFAULT_BUDGET):
    """(ok, missing direction flats, assignment) for a candidate set.

    Finds a fully contained line in every direction, taking the smallest
    flat base point when several work.  A line l(x0, v) starts at (x0, 0),
    so the scan starts from the (direction, base point) pairs with (x0, 0)
    in the set and follows them up the heights t = 1, ..., |F| - 1, keeping
    the pairs whose point (x0 + vt, t) is still in the set.  The work is the
    number of pairs alive at each height, summed over the heights: on a set
    of density about 1/2 the pairs halve with each height.  Pairs stay in
    (v, x0) order, so a direction's first survivor is its smallest base
    point.  budget caps |F|^{2n-1}, the work when nothing is pruned (all of
    F^n), and is checked before the membership array is built.  A line
    needs a height and at least one base coordinate, so n < 2 is refused
    before the gate.
    """
    _require_lines(field, n, budget)
    q = field.order
    m = q ** (n - 1)
    slices = _height_slices(field, n, flat)
    v = field.grid_coords(n - 1)
    axis = np.arange(q, dtype=np.int64)
    add = field.add_arrays(axis[:, None], axis).ravel()  # a + b at a q + b: one gather, no %
    base = np.flatnonzero(slices[:, 0])
    assignment = np.full(m, -1, dtype=np.int64)
    for vfs in blocks(m, max(len(base), 1)):
        vi = np.repeat(np.arange(vfs.stop - vfs.start), len(base))  # pairs in (v, x0) order
        xi = np.tile(base, vfs.stop - vfs.start)
        x0q = v.T.take(xi, axis=1) * q  # [coordinate j, pair]: the row of x0_j in add
        for t in range(1, q):
            # v t as a field product: over F_{p^k} it is not v added t times
            vt = field.mul_arrays(v[vfs], np.int64(t)).T
            flats = add.take(x0q[-1] + vt[-1].take(vi))
            for j in range(n - 3, -1, -1):  # the flat of x0 + vt, slowest coordinate first
                flats *= q
                flats += add.take(x0q[j] + vt[j].take(vi))
            alive = slices[:, t].take(flats)
            if not alive.all():
                vi, xi, x0q = vi[alive], xi[alive], x0q.compress(alive, axis=1)
        dirs, first = np.unique(vi, return_index=True)
        assignment[vfs.start + dirs] = xi[first]
    missing = np.flatnonzero(assignment < 0).tolist()
    return (not missing, missing, assignment)


# -- maximal function ----------------------------------------------------------------


def _common_space(fs: Sequence[Grid], budget: int | None) -> tuple[Field, int]:
    """The field and dimension n >= 2 every grid of a stack shares; budget,
    unless None, caps one grid's line-point gathers."""
    if not fs:
        raise ValueError("the maximal function needs at least one grid")
    field, n = fs[0].field, fs[0].n
    if any(f.n != n or (f.field.p, f.field.k) != (field.p, field.k) for f in fs):
        raise ValueError("stacked grids must share one field and one dimension")
    if any(f.side != Side.SPACE for f in fs):
        raise ValueError("maximal function acts on space-side grids")
    _require_lines(field, n, budget)
    return field, n


def kakeya_maximal(*fs: Grid, budget: int = DEFAULT_BUDGET) -> np.ndarray:
    """f*(v) = max_{x0} sum_{t} |f(x0 + vt, t)| over all directions, for a
    stack of grids on one F^n in one line sweep.

    Returns one row per grid, one value per direction flat.  budget caps the
    |F|^{2n-1} gathers of one grid; each block's c + x index table is built
    once and read for every grid.
    """
    field, n = _common_space(fs, budget)
    q = field.order
    m = q ** (n - 1)
    absf = np.empty((q, m, len(fs)), dtype=np.float64)  # [height, base point, grid]
    for i, f in enumerate(fs):
        absf[:, :, i] = np.abs(f.values).reshape(q, m)
    v = field.grid_coords(n - 1)
    out = np.empty((len(fs), m), dtype=np.float64)
    for vfs in blocks(m, m * len(fs)):
        acc = np.zeros((vfs.stop - vfs.start, m, len(fs)), dtype=np.float64)
        for t in range(q):  # row v, column x0: the flat of x0 + vt over F^{n-1}
            vt = field.mul_arrays(v[vfs], np.int64(t))
            acc += absf[t].take(translate_flats(field, vt), axis=0)
        out[:, vfs] = acc.max(axis=1).T
    return out


def kakeya_maximal_direct(*fs: Grid) -> np.ndarray:
    """Same maximal function by a direction walk in field arithmetic.

    Every shift v t is formed once, one field.mul_arrays into a (direction,
    height, coordinate) array.  Directions go in chunks of
    grid.blocks(|F|^{n-1}, |F|^n len(fs)), so a chunk's gather stays near
    grid.BLOCK_ENTRIES, as a block of the sweep does.  For a chunk the walk
    forms the (direction, height, base point) array of flat indices of
    (x0 + vt, t) from the coordinate table with field.add_arrays, reads the
    point-major stack [point flat, grid] through it, one row of all grids
    per line point, sums over t in order t = 0, 1, ... and takes the largest
    over x0.  Deliberately shares none of kakeya_maximal's indexing: no line
    tables; certificates are re-evaluated through this path.  A direction no
    chunk reaches stays NaN, which no recheck accepts.
    """
    field, n = _common_space(fs, None)
    q = field.order
    m = q ** (n - 1)
    absf = np.stack([np.abs(f.values) for f in fs], axis=1)  # [point flat, grid]
    coords = field.grid_coords(n - 1)
    ts = np.arange(q, dtype=np.int64)[:, None]
    shifts = field.mul_arrays(coords[:, None, :], ts)  # [direction, height, coordinate]
    out = np.full((len(fs), m), np.nan)
    for vs in blocks(m, q * m * len(fs)):
        flat = ts * m  # [direction, height, base point]
        for j in range(n - 1):
            flat = flat + field.add_arrays(coords[:, j], shifts[vs, :, j, None]) * q**j
        out[:, vs] = absf.take(flat, axis=0).sum(axis=1).max(axis=1).T
    return out


# -- Kakeya certificates ---------------------------------------------------------------


def _kakeya_cert(field, n, *args, **kwargs) -> NormCertificate:
    """A certificate of K on the lines of F^n, labelled ``lines(n=...)``."""
    return make_certificate("kakeya", field, n, f"lines(n={n})", *args, **kwargs)


def _line_ratio(star: np.ndarray, f: Grid, p, q) -> float:
    """||f*||_{L^q(dv)} / ||f||_{L^p(dx)}, f* the maximal function of f."""
    return mean_lp_norm(star, q) / lp_norm(f, p)


def kakeya_norm_certificates(
    field: Field,
    n: int,
    p,
    q,
    witnesses: Iterable[str] = WITNESSES,
    seed: int = 0,
    budget: int = DEFAULT_BUDGET,
) -> list[NormCertificate]:
    """Lower certificates for K(p -> q) from named test functions.

    point, line and full_space carry their closed-form ratios in metadata
    (the measured value can only exceed the line formula, which keeps just
    the leading direction); besicovitch_indicator uses the 2-D construction;
    random_sets tries seeded random indicators and keeps the first best.
    Every test function is drawn first and all are evaluated in one
    kakeya_maximal sweep.  n < 2 (a line needs a height and at least one base
    coordinate) and then budget, which caps that sweep's gathers per grid, are
    checked before anything is parsed or built.
    """
    _require_lines(field, n, budget)
    p = parse_exponent(p)
    q = parse_exponent(q)
    qf = field.order
    total = qf**n
    drawn: list[tuple[dict, list[Grid]]] = []  # per name: metadata, candidate grids
    for name in witnesses:
        meta: dict = {"witness_name": name}
        if name == "point":
            vals = np.zeros(total, dtype=np.complex128)
            vals[0] = 1.0
            fs = [Grid(field, n, vals, Side.SPACE)]
            meta["formula_value"] = 1.0
        elif name == "line":
            vals = np.zeros(total, dtype=np.complex128)
            origin = np.zeros((1, n - 1), dtype=np.int64)
            vals[line_flats(field, origin, origin)] = 1.0
            fs = [Grid(field, n, vals, Side.SPACE)]
            meta["formula_value"] = float(qf) ** (
                -(n - 1) / as_float(q) + 1.0 / as_float(holder_dual(p))
            )
        elif name == "full_space":
            fs = [Grid.constant(field, n, 1.0, Side.SPACE)]
            meta["formula_value"] = float(qf) ** (1.0 - n / as_float(p))
        elif name == "besicovitch_indicator":
            if n != 2:
                raise FFLabError("the explicit construction is 2-D")
            wit = besicovitch_2d(field)
            vals = np.zeros(total, dtype=np.complex128)
            vals[wit.flat] = 1.0
            fs = [Grid(field, n, vals, Side.SPACE)]
            meta["set_size"] = wit.size
        elif name == "random_sets":
            rng = np.random.default_rng(seed)
            fs = []
            for _ in range(RANDOM_SET_TRIES):
                vals = (rng.random(total) < 0.5).astype(np.complex128)
                if not vals.any():
                    vals[0] = 1.0
                fs.append(Grid(field, n, vals, Side.SPACE))
        else:
            raise FFLabError(f"no Kakeya witness named {name!r}")
        drawn.append((meta, fs))
    stack = [f for _, fs in drawn for f in fs]
    stars = iter(kakeya_maximal(*stack, budget=budget))
    out = []
    for meta, fs in drawn:
        ratios = [_line_ratio(next(stars), f, p, q) for f in fs]
        best = ratios.index(max(ratios))  # the first of equal ratios
        if meta["witness_name"] == "random_sets":
            meta.update({"seed": seed, "tried": RANDOM_SET_TRIES, "best_index": best})
        out.append(
            _kakeya_cert(
                field, n, "lower", "witness", p, q, ratios[best],
                witness=grid_to_bytes(fs[best]), meta=meta,
            )
        )
    return out


def kakeya_upper_overlap(field: Field, n: int, p, q) -> NormCertificate:
    """K(2 -> 2n-2) <= sqrt(2), certified.

    Distinct directions intersect in at most one point, so the squared
    L^2 mass of an averaged line bundle splits into a diagonal term and a
    rank-one term, each dominated by ||g||_{(2n-2)'}^2.  Both steps are
    exact inequalities with constant 1, so the certificate carries the
    explicit sqrt(2).  Any pair but (2, 2n-2) is refused with
    NoClosedFormError before a certificate is built.
    """
    _require_lines(field, n, None)
    p = parse_exponent(p)
    q = parse_exponent(q)
    if (p, q) != (2, 2 * n - 2):
        pair = f"({exponent_str(p)}, {exponent_str(q)})"
        raise NoClosedFormError(f"line-overlap counting covers only (2, {2 * n - 2}), not {pair}")
    return _kakeya_cert(
        field, n, "upper", "closed_form", p, q, math.sqrt(2.0),
        meta={"derivation": "line-overlap counting: diagonal plus rank-one split"},
    )


def _recheck_values(certs: Sequence[NormCertificate]) -> list[float]:
    """Each Kakeya lower certificate's ratio, re-evaluated in one direct walk."""
    for cert in certs:
        if cert.quantity != "kakeya" or cert.kind != "lower" or cert.witness is None:
            raise FFLabError("expected a witness-bearing Kakeya lower certificate")
    if not certs:
        return []
    fs = [grid_from_bytes(cert.witness) for cert in certs]
    stars = kakeya_maximal_direct(*fs)
    return [_line_ratio(s, f, c.p, c.q) for s, c, f in zip(stars, certs, fs)]


def recheck_lower(cert: NormCertificate) -> float:
    """Re-evaluate a Kakeya lower certificate through the per-line path."""
    (value,) = _recheck_values([cert])
    return value


def verify_lowers(certs: Sequence[NormCertificate]) -> list[bool]:
    """One recheck verdict per certificate, from a single direct walk over
    all their witnesses; the witnesses must share one field and one n."""
    return [recheck_agrees(c, v) for c, v in zip(certs, _recheck_values(certs))]


def verify_lower(cert: NormCertificate) -> bool:
    (ok,) = verify_lowers([cert])
    return ok


# -- line averages -------------------------------------------------------------------


def _line_sums(field: Field, n: int, g: np.ndarray, x0map: np.ndarray) -> np.ndarray:
    """(T, |F|^n) unscaled line sums sum_v g[i, v] chi_{l(x0, v)}, x0 the
    point of flat x0map[i, v] over F^{n-1}, for the T rows of the
    (T, |F|^{n-1}) stacks g and x0map, in one line_flats call and one
    bincount.  Row i's points go to bins offset by i |F|^n, in (row, v, t)
    order, so every bin adds in the same order as for its row alone; zero
    weights add +0.0 and change no sum.
    """
    size = field.order**n
    coords = field.grid_coords(n - 1)
    flat = line_flats(field, coords[x0map], coords)  # [row, v, t]
    flat += (np.arange(len(g), dtype=np.int64) * size)[:, None, None]
    weights = np.repeat(g.ravel(), field.order)
    return np.bincount(flat.ravel(), weights, minlength=len(g) * size).reshape(len(g), size)


def line_sum_grid(field: Field, n: int, g: np.ndarray, x0map: np.ndarray) -> Grid:
    """Tg = |F|^{-(n-1)} sum_v g(v) chi_{l(x0(v), v)} as a space-side grid."""
    g = np.asarray(g, dtype=np.float64)
    x0map = np.asarray(x0map, dtype=np.int64)
    m = field.order ** (n - 1)
    vals = _line_sums(field, n, g[None], x0map[None])[0].astype(np.complex128)
    vals /= float(m)  # complex division scales by 1/m: a float division would round otherwise
    return Grid(field, n, vals, Side.SPACE)


def cordoba_check(field: Field, n: int, g: np.ndarray, x0map: np.ndarray):
    """sqrt(2) ||g||_{(2n-2)'(dv)} - ||Tg||_{L^2(dx)}; nonnegative for g >= 0.

    g and x0map are (trials, |F|^{n-1}) stacks of direction weights and
    base-point flats, and the result holds one deficit per trial; a 1-D g
    and x0map are one trial and give a float.  Trials run in blocks of
    grid.blocks(trials, |F|^n), each one _line_sums call, and every deficit
    is bit-identical to evaluating its trial alone: the roots are taken on
    Python floats, as lp_norm and mean_lp_norm take them.
    """
    _require_lines(field, n, None)
    g = np.asarray(g, dtype=np.float64)
    x0map = np.asarray(x0map, dtype=np.int64)
    if np.any(g < 0):
        raise ValueError("direction weights must be nonnegative")
    dual = as_float(holder_dual(Fraction(2 * n - 2)))
    scale = 1.0 / float(field.order ** (n - 1))
    stack_g, stack_x0 = np.atleast_2d(g), np.atleast_2d(x0map)
    out = np.empty(len(stack_g), dtype=np.float64)
    for rows in blocks(len(stack_g), field.order**n):
        # times 1/m, which is what line_sum_grid's complex division computes
        tg = _line_sums(field, n, stack_g[rows], stack_x0[rows]) * scale
        lhs = np.mean(stack_g[rows] ** dual, axis=1).tolist()
        rhs = np.sum(tg**2.0, axis=1).tolist()
        out[rows] = [math.sqrt(2.0) * a ** (1.0 / dual) - b ** 0.5 for a, b in zip(lhs, rhs)]
    return float(out[0]) if g.ndim == 1 else out


# -- incidences ----------------------------------------------------------------------


@dataclass(frozen=True)
class IncidenceReport:
    count: int
    point_count: int
    line_count: int
    bound: float
    satisfied: bool


def incidence_count(
    field: Field, points: np.ndarray, a, b, budget: int = DEFAULT_BUDGET
) -> IncidenceReport:
    """Exact |{(p, l) : p in l}| over the lines {a + tb : t in F}, one per row of
    the (L, n) arrays a and b, with the square-root incidence bound.  budget caps
    the L |F| line points, gathered in blocks against a membership array over F^n.
    Distinct lines share at most one point, so a line's two smallest flats
    identify it: repeated keys and zero directions are refused.
    """
    pts, a, b = (np.asarray(x, dtype=np.int64) for x in (points, a, b))
    if a.shape != b.shape or a.ndim != 2 or a.shape[1] != pts.shape[-1]:
        raise ValueError("lines need (L, n) base points and directions over the points' F^n")
    if np.any(np.all(b == 0, axis=1)):
        raise ValueError("a line needs a nonzero direction")
    q, np_, nl = field.order, len(pts), len(a)
    require_budget(nl * q, budget, "line points L |F|")
    member = np.zeros(q ** a.shape[1], dtype=bool)
    member[flat_points(field, pts)] = True
    count, keys = 0, np.empty((nl, 2), dtype=np.int64)
    for rows in blocks(nl, q):
        flats = affine_flats(field, a[rows], b[rows])
        count += int(np.count_nonzero(member[flats]))
        keys[rows] = np.partition(flats, 1, axis=1)[:, :2]
    if len(np.unique(keys, axis=0)) != nl:
        raise ValueError("lines must be distinct")
    bound = min(math.sqrt(np_) * nl + np_, np_ * math.sqrt(nl) + nl)
    return IncidenceReport(count, np_, nl, bound, count <= bound)


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


def _join(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every index pair (i, j) with a[i] == b[j], ordered by i."""
    order = np.argsort(b, kind="stable")
    lo = np.searchsorted(b[order], a, side="left")
    hits = np.searchsorted(b[order], a, side="right") - lo  # matches of each a[i]
    i = np.repeat(np.arange(len(a)), hits)
    offset = np.arange(len(i)) - np.repeat(np.cumsum(hits) - hits, hits)
    return i, order[np.repeat(lo, hits) + offset]


def incidence_chain_counts(
    field: Field,
    points: np.ndarray,
    x0,
    v,
    budget: int = DEFAULT_BUDGET,
) -> ChainCounts:
    """Count the full chain exactly.

    Distinct lines meet in at most one point, which is what lets every
    quantity be assembled from the incidence list: per-point line degrees,
    per-line point counts, and the arms (l, a, b) joining two points a != b
    of a line l, which is then the unique line through them.  Linked pairs
    are incidences (l, a) joined to arms (l', a, b) with l' != l, keyed by
    (l, b); corner paths are arm pairs (l1, a, b1), (l2, a, b2) with
    l1 != l2, keyed by their endpoints (b1, b2).
    """
    pts = np.asarray(points, dtype=np.int64)
    pflat = flat_points(field, pts)
    if len(np.unique(pflat)) != len(pflat):
        raise ValueError("points must be distinct")
    _require_distinct(x0, v)
    npts = len(pflat)
    require_budget(npts * max(1, len(x0)), budget, "point-line pairs |P| |L|")

    pid = np.full(field.order ** pts.shape[1], -1, dtype=np.int64)
    pid[pflat] = np.arange(npts)
    ids = pid[line_flats(field, x0, v)]  # [line, t]: point id, or -1 off the set
    li, col = np.nonzero(ids >= 0)
    pi = ids[li, col]  # incidences (li, pi), by line then t

    inc = len(pi)
    deg = np.bincount(pi, minlength=npts)
    sizes = np.bincount(li, minlength=len(x0))
    angles = int(np.sum(deg * deg))
    nondeg_angles = angles - inc
    pointed = int(np.sum((deg[pi] - 1) * (sizes[li] - 1)))

    i, j = _join(li, li)
    keep = pi[i] != pi[j]
    arm_line, arm_from, arm_to = li[i[keep]], pi[i[keep]], pi[j[keep]]

    i, j = _join(pi, arm_from)
    keep = li[i] != arm_line[j]
    _, per_key = np.unique(li[i[keep]] * npts + arm_to[j[keep]], return_counts=True)
    linked = int(np.sum(per_key**2))
    nondeg_triangles = linked - pointed

    cost = int(np.sum(np.bincount(arm_from, minlength=npts) ** 2))
    require_budget(cost, budget, "arm pairs sharing a point")
    i, j = _join(arm_from, arm_from)
    keep = arm_line[i] != arm_line[j]
    _, ends = np.unique(arm_to[i[keep]] * npts + arm_to[j[keep]], return_counts=True)
    paths = int(np.sum(ends))
    quads = int(np.sum(ends**2))
    nondeg_quads = quads - paths

    cauchy_ok = angles * npts >= inc * inc
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


def wolff_axiom_check(field: Field, x0, v, budget: int = DEFAULT_BUDGET) -> int:
    """Largest number of family lines lying in a single 2-plane of F^3.

    The line (x0 + vt, t) lies in {a . x = c} iff a . (v, 1) = 0 and
    c = a[:2] . x0, so it lies in exactly |F| + 1 planes, one for each
    (a1, a2) of the pencil (1, s), s in F, and (0, 1), with a3 = -a[:2] . v.
    Each such a already has first nonzero entry 1, so it is a plane's key.
    Planes from different pencil rows never coincide, so the rows are counted
    one at a time: the L planes of a row, keyed a3 |F| + c and sorted, give
    each plane's line count as a run length, in memory linear in L.  budget
    caps the L(|F| + 1) keys.  An empty family gives 0.
    """
    x0 = np.asarray(x0, dtype=np.int64)
    v = np.asarray(v, dtype=np.int64)
    if x0.ndim != 2 or x0.shape[1] != 2:
        raise FFLabError("plane analysis lives in F^3")
    if not len(x0):
        return 0
    _require_distinct(x0, v)
    q = field.order
    require_budget(len(x0) * (q + 1), budget, "line-plane keys L (|F| + 1)")
    vx = np.stack([v, x0])
    top = 0
    for a12 in [(1, s) for s in range(q)] + [(0, 1)]:
        dots = field.dot_arrays(vx, a12)  # a[:2] . v, a[:2] . x0
        keys = np.sort(field.neg_arrays(dots[0]) * q + dots[1])
        starts = np.flatnonzero(np.diff(keys, prepend=-1))
        top = max(top, int(np.diff(starts, append=len(keys)).max()))
    return top


# -- the quadratic-extension configuration ----------------------------------------------


@dataclass(frozen=True)
class QuadExtensionReport:
    x0: np.ndarray  # (L, 2) base points of the contained lines
    v: np.ndarray  # (L, 2) their directions
    point_count: int
    line_count: int
    containment_ok: bool
    duplicate_direction: tuple[int, int] | None
    point_ratio: float  # |P| / |F|^{5/2}
    line_ratio: float  # |L| / |F|^2


def heisenberg_example(field: Field, budget: int = DEFAULT_BUDGET) -> QuadExtensionReport:
    """The norm-form point set P = {Im(z1 conj(z2)) = Im(z3)} in F^3 with its
    contained line family.

    Containment forces the line constraints Im(x1 conj(x2)) = 0,
    Im(v1 conj(v2)) = 0 and v1 conj(x2) - v2 conj(x1) = 1; expanding
    Im(z1 conj(z2)) along a line leaves a term linear in t whose coefficient
    must be exactly 1 and a norm-quadratic term that must vanish.  The family
    repeats directions, which is the point of the construction.  Lines come
    ordered by x0, then v, each in flat order over F^2.  Membership over F^3
    is read off the Im table over F^2 into one |F|^3 array, which budget caps
    before any table is built; the line search and the containment test run
    in blocks.
    """
    if field.k != 2:
        raise FFLabError("the construction needs a quadratic extension")
    q = field.order
    require_budget(q**3, budget, "membership array |F|^3")
    pairs = field.grid_coords(2)
    im = field.im_arrays(field.mul_arrays(pairs[:, 0], field.frobenius_arrays(pairs[:, 1])))
    # [z3, (z1, z2)] in C order is the flat index over F^3
    member = (field.im_arrays(np.arange(q))[:, None] == im).ravel()
    zero_im = pairs[im == 0]
    conj = field.frobenius_arrays(zero_im)
    hits = []
    for xs in blocks(len(zero_im), len(zero_im)):
        # [x, v] over a block of zero_im x zero_im: v1 conj(x2) - v2 conj(x1) = 1
        hit = field.sub_arrays(
            field.mul_arrays(zero_im[None, :, 0], conj[xs, None, 1]),
            field.mul_arrays(zero_im[None, :, 1], conj[xs, None, 0]),
        ) == field.rational(1)
        xi, vi = np.nonzero(hit)
        hits.append((xi + xs.start, vi))
    xi, vi = (np.concatenate(col) for col in zip(*hits))
    x0, v = zero_im[xi], zero_im[vi]
    contained = all(
        member[line_flats(field, x0[rows], v[rows])].all()
        for rows in blocks(len(x0), q)
    )

    _, first, repeats = np.unique(v, axis=0, return_index=True, return_counts=True)
    dup = first[repeats > 1]
    points = int(np.count_nonzero(member))
    return QuadExtensionReport(
        x0=x0,
        v=v,
        point_count=points,
        line_count=len(x0),
        containment_ok=contained,
        duplicate_direction=tuple(int(c) for c in v[dup.min()]) if len(dup) else None,
        point_ratio=points / float(q) ** 2.5,
        line_ratio=len(x0) / float(q) ** 2,
    )


# -- slope projections ----------------------------------------------------------------


def _read_slope(field: Field, slope) -> tuple[str, int | None]:
    """(label, element of F) of a rational slope; infinity reads as ("inf", None)."""
    if slope in (math.inf, "inf", "infinity", "oo"):
        return "inf", None
    r = Fraction(slope)
    if r == -1:
        raise FFLabError("the difference projection itself is not allowed")
    den = r.denominator
    if den % field.p == 0 or not (0 < den < field.p):
        raise FFLabError(f"slope {r} has no representative with denominator below {field.p}")
    return str(r), field.rational(r.numerator, den)


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

    n_diff = len(np.unique(flat_points(field, field.sub_arrays(a, b))))
    if n_diff != len(pairs):
        if require_injective:
            raise FFLabError("the difference projection collides on this set")
        warnings.warn("difference projection is not injective on this set", stacklevel=2)

    mapped: dict[str, int | None] = {}
    dropped = []
    seen_elems: dict[int | None, str] = {}
    for s in slopes:
        label, elem = _read_slope(field, s)
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
        img = b if elem is None else field.add_arrays(a, field.mul_arrays(b, np.int64(elem)))
        proj_sizes[label] = int(len(np.unique(flat_points(field, img))))

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
    q = field.order
    if not (0 <= t0 < q and 0 <= t_inf < q):
        raise ValueError(f"heights must be field elements 0 .. {q - 1}")
    if t0 == t_inf:
        raise FFLabError("the two heights must differ")
    m = q ** (n - 1)
    coords = field.grid_coords(n - 1)
    if np.any(witness.assignment < 0):
        raise ValueError("witness must assign a base point to every direction")
    x0 = coords[witness.assignment]
    p0 = field.add_arrays(x0, field.mul_arrays(coords, np.int64(t0)))
    p1 = field.add_arrays(x0, field.mul_arrays(coords, np.int64(t_inf)))
    pairs = np.stack([flat_points(field, p0), flat_points(field, p1)], axis=1)
    injective = len(np.unique(flat_points(field, field.sub_arrays(p0, p1)))) == m
    slices = _height_slices(field, n, witness.flat)

    checks = []
    for s in slopes:
        label, elem = _read_slope(field, s)
        if elem is None:
            t_r = t_inf
            img = pairs[:, 1]
        else:
            denom = field.add(elem, field.rational(1))
            if denom == 0:
                raise FFLabError(f"slope {label} + 1 vanishes in F")
            inv = field.inv(denom)
            t_r = field.add(
                field.mul(t0, inv), field.mul(field.mul(elem, t_inf), inv)
            )
            img = flat_points(field, field.add_arrays(p0, field.mul_arrays(p1, np.int64(elem))))
        proj = int(len(np.unique(img)))
        slice_size = int(slices[:, t_r].sum())
        checks.append(SliceCheck(label, int(t_r), proj, slice_size, proj <= slice_size))
    return SlicesReport(pairs, m, injective, tuple(checks))


# -- exponent calculus ----------------------------------------------------------------


def incidence_to_kakeya_exponents(a, b, c, n: int) -> tuple[Fraction, Fraction]:
    """(p, q) such that an incidence bound |I| <~ |P|^a |L|^b |F|^c yields a
    K(p -> q) estimate: p = ((n-1)b + c)/a, q = min((n-1)p', ((n-1)b + c)/b).
    At p = 1, p' = inf and q = ((n-1)b + c)/b.  n < 2 is refused, as for lines.
    """
    _require_lines(None, n, None)
    a, b, c = Fraction(a), Fraction(b), Fraction(c)
    if not (0 <= a <= 1 and 0 <= b <= 1 and 0 <= c <= 1):
        raise FFLabError("exponents must lie in [0, 1]")
    if a <= 0 or b <= 0:
        raise FFLabError(
            "point and line exponents must be positive; the b = 0 edge only "
            "gives the line q = (n-1)p'"
        )
    weight = (n - 1) * b + c
    if weight < 1:
        raise FFLabError("need (n-1)b + c >= 1")
    p = weight / a
    q = min((n - 1) * holder_dual(p), weight / b)
    return p, q
