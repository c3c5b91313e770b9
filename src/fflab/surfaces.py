"""Algebraic surfaces in frequency space and their normalized measures.

A SurfaceMeasure is a list of distinct points of F^n carrying normalized
surface measure: integration against d(sigma) averages over the point list.
The extension operator of a surface function g is

    (g dsigma)_(x) = |S|^{-1} sum_{xi in S} g(xi) e(x.xi),

a space-side grid; restriction reads a frequency-side grid at the surface
points.  Surfaces provided: the paraboloid (xi, xi.xi) over xi in F^{n-1};
the quadric cone {(xi, u, v) : uv = xi^2} minus the origin in F^3; the moment
curve (t, t^2, ..., t^n) for char > n; and the tangent-plane double
paraboloid (eta, eta.eta, theta, eta.theta) in ambient dimension 2n.  Any
other point list is a SurfaceMeasure of kind CUSTOM.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import DEFAULT_BUDGET, FFLabError, require_budget
from .field import Field
# fourier_inverse is not called here; it stays importable from this module
# because perfbench's tracer test expects to rebind it here as well.
from .grid import (  # noqa: F401
    Grid,
    Side,
    _transform_matrices,
    blocks,
    flat_points,
    fourier_forward,
    fourier_inverse,
    mean_lp_norm,
    transform_axes,
    translate_flats,
)


class SurfaceKind(str, enum.Enum):
    PARABOLOID = "paraboloid"
    CONE = "cone"
    MOMENT_CURVE = "moment_curve"
    DOUBLE_PARABOLOID = "double_paraboloid"
    CUSTOM = "custom"


@dataclass(frozen=True)
class SurfaceMeasure:
    field: Field
    n: int
    points: np.ndarray  # (size, n) int64 coordinate rows, distinct
    kind: SurfaceKind
    label: str = ""

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.int64)
        object.__setattr__(self, "points", pts)
        pts.setflags(write=False)
        flat = flat_points(self.field, pts)
        if len(np.unique(flat)) != len(flat):
            raise ValueError("surface points must be distinct")
        object.__setattr__(self, "_flat", flat)

    @property
    def size(self) -> int:
        return self.points.shape[0]

    @property
    def flat(self) -> np.ndarray:
        return self._flat

    def describe(self) -> str:
        return self.label or f"{self.kind.value}(n={self.n})"


@dataclass
class SurfaceFunction:
    surface: SurfaceMeasure
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.complex128).ravel()
        if self.values.shape != (self.surface.size,):
            raise ValueError("value vector does not match the surface size")

    @classmethod
    def constant(cls, surface, value=1.0):
        return cls(surface, np.full(surface.size, value, dtype=np.complex128))

    @classmethod
    def delta(cls, surface, position=0):
        vals = np.zeros(surface.size, dtype=np.complex128)
        vals[position] = 1.0
        return cls(surface, vals)


# -- builders -------------------------------------------------------------------


def paraboloid(field: Field, n: int) -> SurfaceMeasure:
    """{(xi, xi.xi) : xi in F^{n-1}}, |S| = |F|^{n-1}."""
    if n < 2:
        raise FFLabError("paraboloid needs n >= 2")
    base = field.grid_coords(n - 1)
    tau = field.dot_arrays(base, base)
    pts = np.concatenate([base, tau[:, None]], axis=1)
    name = "parabola" if n == 2 else f"paraboloid(n={n})"
    return SurfaceMeasure(field, n, pts, SurfaceKind.PARABOLOID, name)


def cone(field: Field) -> SurfaceMeasure:
    """{(xi, u, v) in F^3 : uv = xi^2} minus the origin; |S| = |F|^2 - 1.

    The points with u != 0 come first, xi-major, then (0, 0, v) for v != 0.
    """
    q = field.order
    inv = np.array([0] + [field.inv(u) for u in range(1, q)], dtype=np.int64)
    xi = np.repeat(np.arange(q, dtype=np.int64), q - 1)
    u = np.tile(np.arange(1, q, dtype=np.int64), q)
    v = field.mul_arrays(field.mul_arrays(xi, xi), inv[u])
    vz = np.arange(1, q, dtype=np.int64)
    zero = np.zeros(q - 1, dtype=np.int64)
    pts = np.concatenate([np.stack([xi, u, v], axis=1), np.stack([zero, zero, vz], axis=1)])
    return SurfaceMeasure(field, 3, pts, SurfaceKind.CONE, "cone")


def moment_curve(field: Field, n: int) -> SurfaceMeasure:
    """{(t, t^2, ..., t^n) : t in F}; needs n >= 1 and char > n."""
    if n < 1:
        raise FFLabError("moment curve needs n >= 1")
    if field.p <= n:
        raise FFLabError(
            f"moment curve in dimension {n} needs characteristic > {n}"
        )
    t = np.arange(field.order, dtype=np.int64)
    cols = [t]
    for _ in range(n - 1):
        cols.append(field.mul_arrays(cols[-1], t))
    pts = np.stack(cols, axis=1)
    return SurfaceMeasure(field, n, pts, SurfaceKind.MOMENT_CURVE, f"moment_curve(n={n})")


def double_paraboloid(field: Field, n: int) -> SurfaceMeasure:
    """Tangent-plane lift {(eta, eta.eta, theta, eta.theta)} in ambient 2n.

    eta, theta range over F^{n-1}; the point list is ordered eta-fastest, so
    the list index of (eta, theta) is eta_flat + |F|^{n-1} * theta_flat.
    """
    if n < 2:
        raise FFLabError("double paraboloid needs base n >= 2")
    m = field.order ** (n - 1)
    base = field.grid_coords(n - 1)
    eta = np.tile(base, (m, 1))
    theta = np.repeat(base, m, axis=0)
    ee = field.dot_arrays(eta, eta)
    et = field.dot_arrays(eta, theta)
    pts = np.concatenate([eta, ee[:, None], theta, et[:, None]], axis=1)
    return SurfaceMeasure(
        field, 2 * n, pts, SurfaceKind.DOUBLE_PARABOLOID, f"double_paraboloid(base n={n})"
    )


def double_paraboloid_index(field: Field, n: int, eta_flat: int, theta_flat: int) -> int:
    """Point-list position of the lift point labeled by (eta, theta)."""
    return eta_flat + field.order ** (n - 1) * theta_flat


def build_surface(kind, field: Field, n: int) -> SurfaceMeasure:
    """The ``kind`` surface over ``field`` at n (base n for the double paraboloid).
    A named surface has no other setting, so its kind, field and n rebuild it."""
    kind = SurfaceKind(kind)
    if kind == SurfaceKind.PARABOLOID:
        return paraboloid(field, n)
    if kind == SurfaceKind.CONE:
        if n != 3:
            raise FFLabError("the cone lives in F^3")
        return cone(field)
    if kind == SurfaceKind.MOMENT_CURVE:
        return moment_curve(field, n)
    if kind == SurfaceKind.DOUBLE_PARABOLOID:
        return double_paraboloid(field, n)
    raise ValueError("a custom surface has no builder by name; give its points to SurfaceMeasure")


# -- extension / restriction ------------------------------------------------------


@dataclass(frozen=True)
class _TransformPlan:
    """A surface's points laid out for the sparse-last-axis transforms.

    A point's head is the flat index of its first n - 1 coordinates and its
    tail tau its last coordinate.  ``order`` sorts the points by head (stably)
    and ``heads`` is each sorted point's head.  Head coordinates go through
    the field kernel's ``perm`` first, so the digit contractions over the
    first n - 1 axes need no gather of their own.  Column s of ``sample`` is
    e(-x_{n-1} tau_s) for the s-th sorted point, x_{n-1} running down the rows.

    The lift splits the sorted points in two.  ``single`` holds, in head
    order, the points alone on their head, ``single_heads`` those heads (None
    when they are every head of F^{n-1}, so the lift needs no dense array)
    and ``single_lift`` their columns e(x_{n-1} tau) / |S|.  ``shared`` holds
    the points that share a head, in sorted order, with ``shared_lift`` their
    columns, ``shared_starts`` the first position in ``shared`` of each shared
    head and ``shared_heads`` those heads (all empty when no two points share
    a head; on the cone only the head (0, 0) is shared).

    Between the head contractions a block of B grids sits in the rotated
    layout (|F|^{n-1} head, B rows, |F| last coordinate), C order: the head
    axes rotated to the slow end, each by one GEMM over the whole block.
    """

    order: np.ndarray
    heads: np.ndarray
    sample: np.ndarray
    single: np.ndarray
    single_heads: np.ndarray | None
    single_lift: np.ndarray
    shared: np.ndarray
    shared_starts: np.ndarray
    shared_heads: np.ndarray
    shared_lift: np.ndarray


def _transform_plan(surface: SurfaceMeasure) -> _TransformPlan:
    """The surface's transform plan, built on first use and cached on it."""
    plan = getattr(surface, "_plan", None)
    if plan is not None:
        return plan
    fld = surface.field
    n = surface.n
    perm = _transform_matrices(fld).perm  # refuses an oversized kernel first
    head_coords = surface.points[:, : n - 1]
    heads = flat_points(fld, head_coords if perm is None else perm[head_coords])
    order = np.argsort(heads, kind="stable")
    heads = heads[order]
    tau = surface.points[order, n - 1]
    first = np.flatnonzero(np.concatenate([[True], heads[1:] != heads[:-1]]))
    count = np.diff(np.append(first, len(heads)))  # points on each distinct head
    alone = np.repeat(count == 1, count)
    single, shared = np.flatnonzero(alone), np.flatnonzero(~alone)
    wave = fld.character[fld.mul_arrays(np.arange(fld.order)[:, None], tau[None, :])]
    lift = wave * (1.0 / surface.size)
    plan = _TransformPlan(
        order=order,
        heads=heads,
        sample=np.conj(wave),
        single=order[single],
        single_heads=heads[single] if len(single) < fld.order ** (n - 1) else None,
        single_lift=lift[:, single],
        shared=order[shared],
        shared_starts=np.searchsorted(shared, first[count > 1]),
        shared_heads=heads[first[count > 1]],
        shared_lift=lift[:, shared],
    )
    object.__setattr__(surface, "_plan", plan)
    return plan


def _extend_rows(surface: SurfaceMeasure, values: np.ndarray) -> np.ndarray:
    """``extension`` of each row of a (B, |S|) array, as a (|F|^{n-1}, B, |F|) array.

    The sparse last axis goes first: each point puts g(s) e(x_{n-1} tau_s) / |S|
    in its head's column (q |S| work instead of q^{n+1}).  A point alone on its
    head is written once, straight into the zeroed dense array; only the points
    that share a head are summed, by one ``reduceat`` in sorted order.  The
    first n - 1 axes then run as forward contractions, each one GEMM over the
    whole block.  They leave the rotated layout (head, row, x_{n-1}), which
    ``_adjoint_rows`` takes as it is.
    """
    q = surface.field.order
    n = surface.n
    plan = _transform_plan(surface)
    kernel = _transform_matrices(surface.field)
    cols = plan.single_lift * values[:, None, plan.single]
    if plan.single_heads is not None:
        dense = np.zeros((len(values), q, q ** (n - 1)), dtype=np.complex128)
        dense[:, :, plan.single_heads] = cols
        if len(plan.shared):
            shared = plan.shared_lift * values[:, None, plan.shared]
            dense[:, :, plan.shared_heads] = np.add.reduceat(shared, plan.shared_starts, axis=2)
        cols = dense
    out = transform_axes(cols, kernel.plus, kernel.size, (n - 1) * kernel.digits)
    return out.reshape(q ** (n - 1), len(values), q)


def _adjoint_rows(surface: SurfaceMeasure, values: np.ndarray) -> np.ndarray:
    """``extension_adjoint`` of each row of a (|F|^{n-1}, B, |F|) array: a (B, |S|) array.

    The input is the rotated layout (head, row, x_{n-1}) of ``_extend_rows``.
    The first n - 1 axes run as reverse contractions, one GEMM each, which
    rotate it back to (row, x_{n-1}, head); each point then sums over x_{n-1}
    against e(-x_{n-1} tau_s) in its head's column.
    """
    q = surface.field.order
    n = surface.n
    rows = values.shape[1]
    plan = _transform_plan(surface)
    kernel = _transform_matrices(surface.field)
    axes = (n - 1) * kernel.digits
    part = transform_axes(values, kernel.minus, kernel.size, axes, reverse=True)
    part = part.reshape(rows, q, q ** (n - 1))
    out = np.empty((rows, surface.size), dtype=np.complex128)
    out[:, plan.order] = np.einsum("ts,bts->bs", plan.sample, part[:, :, plan.heads])
    return out


def extension(sf: SurfaceFunction) -> Grid:
    """(g dsigma)_ as a space-side grid, via the surface's transform plan."""
    out = _extend_rows(sf.surface, sf.values[None, :])
    return Grid(sf.surface.field, sf.surface.n, out[:, 0].T.reshape(-1), Side.SPACE)


def extension_adjoint(f: Grid, surface: SurfaceMeasure) -> SurfaceFunction:
    """f^ on the surface, sum_x f(x) e(-x.s): the adjoint of ``extension``.

    Equals restriction(fourier_forward(f), surface).
    """
    if f.side != Side.SPACE:
        raise FFLabError("the extension adjoint expects a space-side grid")
    if f.n != surface.n or f.field != surface.field:
        raise ValueError("grid and surface do not match")
    q = surface.field.order
    rotated = f.values.reshape(q, -1).T[:, None, :]
    return SurfaceFunction(surface, _adjoint_rows(surface, rotated)[0])


def _point_waves(surface: SurfaceMeasure, rows: slice, character: np.ndarray):
    """The waves x -> character[x.s] of the surface points s in ``rows``, as (head, last).

    head is a (B, |F|^{n-1}) array over the flat index of (x_0, ..., x_{n-2}),
    the outer product of one character row per coordinate; last is a (B, |F|)
    array over x_{n-1}.  Only field arithmetic and the character table: no
    transform kernel or plan.
    """
    fld = surface.field
    axis = np.arange(fld.order, dtype=np.int64)
    pts = surface.points[rows]
    waves = [character[fld.mul_arrays(pts[:, j, None], axis)] for j in range(surface.n)]
    head = np.ones((len(pts), 1), dtype=np.complex128)
    for wave in waves[:-1]:  # coordinate j on the slower axis, as in the flat index
        head = (wave[:, :, None] * head[:, None, :]).reshape(len(pts), -1)
    return head, waves[-1]


def extension_direct(sf: SurfaceFunction) -> Grid:
    """Same operator by direct summation over surface points (no transform).

    Each block of points (from ``grid.blocks``, floored at |F|^n entries since
    every block also writes the whole output) adds its waves as one product
    last^T (g head) onto the (x_{n-1}, head) view of the output: |S| |F|^n
    multiply-adds, as the plain sum.  Kept as an independent code path, so that
    lower-bound certificates are re-evaluated without trusting the fast
    transform: it calls no transform kernel, plan or axis contraction.
    """
    surf = sf.surface
    q, n = surf.field.order, surf.n
    out = np.zeros((q, q ** (n - 1)), dtype=np.complex128)
    for rows in blocks(surf.size, q ** (n - 1), floor=q**n):
        head, last = _point_waves(surf, rows, surf.field.character)
        out += last.T @ (sf.values[rows, None] * head)
    return Grid(surf.field, n, out.reshape(-1) / surf.size, Side.SPACE)


def restriction(f_hat: Grid, surface: SurfaceMeasure) -> SurfaceFunction:
    """Read a frequency-side grid at the surface points."""
    if f_hat.side != Side.FREQUENCY:
        raise FFLabError("restriction expects a frequency-side grid")
    if f_hat.n != surface.n or f_hat.field != surface.field:
        raise ValueError("grid and surface do not match")
    return SurfaceFunction(surface, f_hat.values[surface.flat])


def restriction_direct(f: Grid, surface: SurfaceMeasure) -> SurfaceFunction:
    """f^ sampled on the surface by direct summation from a space-side grid.

    Each block of points sums f against its conjugate waves: the head part as
    one product with the (head, x_{n-1}) view of f, then the last coordinate
    row by row.  Blocks are sized as in ``extension_direct``, since every block
    reads the whole of f.  Like ``extension_direct``, it calls no transform.
    """
    q, n = surface.field.order, surface.n
    table = f.values.reshape(q, q ** (n - 1)).T
    character = np.conj(surface.field.character)
    vals = np.empty(surface.size, dtype=np.complex128)
    for rows in blocks(surface.size, q ** (n - 1), floor=q**n):
        head, last = _point_waves(surface, rows, character)
        vals[rows] = ((head @ table) * last).sum(axis=1)
    return SurfaceFunction(surface, vals)


def surface_lp_norm(sf: SurfaceFunction, p) -> float:
    """L^p(S, dsigma) norm: dsigma gives each point mass |S|^{-1}."""
    return mean_lp_norm(sf.values, p)


def surface_inner(sf1: SurfaceFunction, sf2: SurfaceFunction) -> complex:
    return complex(np.mean(sf1.values * np.conj(sf2.values)))


# -- gauss sums and kernels -------------------------------------------------------


def gauss_sum(field: Field, x):
    """S(x) = sum_t e(x t^2), for an int x or elementwise over an int array x.

    With N(u) = #{t : t^2 = u}, S(x) = sum_u N(u) e(xu) is the forward
    transform of N read at -x, so every S(x) comes from one 1-D transform and
    both call forms index the same table.  S(0) = |F| and |S(x)|^2 = |F| for
    x != 0; ``gauss_sum_closed_form`` gives each value exactly.  A field with
    no transform kernel (a prime above grid.DFT_MAX_ORDER) is refused.
    """
    t = np.arange(field.order, dtype=np.int64)
    counts = np.bincount(field.mul_arrays(t, t), minlength=field.order)
    table = fourier_forward(Grid(field, 1, counts.astype(np.complex128), Side.SPACE)).values
    xs = np.asarray(x, dtype=np.int64)
    out = table[field.neg_arrays(xs)]
    return complex(out) if xs.ndim == 0 else out


def gauss_sum_closed_form(field: Field, x):
    """S(x) from Gauss's evaluation, with no sum over t and no transform.

    S(0) = |F| and S(x) = eta(x) S(1) for x != 0, eta the quadratic character,
    where over F_{p^k} S(1) = (-1)^{k-1} (eps_p sqrt(p))^k, eps_p = 1 for
    p = 1 mod 4 and i for p = 3 mod 4 (Lidl-Niederreiter, Finite Fields,
    Thm. 5.15, for the canonical character e(a) = exp(2 pi i tr(a) / p)).
    """
    eps_k = 1 if field.p % 4 == 1 else (1, 1j, -1, -1j)[field.k % 4]
    s1 = (-1) ** (field.k - 1) * eps_k * math.sqrt(field.order)
    xs = np.asarray(x, dtype=np.int64)
    out = np.where(field.squares[xs], s1, -s1).astype(np.complex128)
    out[xs == 0] = field.order
    return complex(out) if xs.ndim == 0 else out


def bochner_riesz_kernel(surface: SurfaceMeasure) -> Grid:
    """K = (dsigma)_ - delta_0; the mean-one spike at the origin removed."""
    k = extension(SurfaceFunction.constant(surface))
    vals = k.values.copy()
    vals[0] -= 1.0
    return Grid(surface.field, surface.n, vals, Side.SPACE)


def paraboloid_kernel_formula_check(field: Field, n: int) -> float:
    """Max deviation between the transform-computed paraboloid kernel and its
    Gauss-sum closed form, the Gauss sums taken from ``gauss_sum_closed_form``
    so that no transform sits on the closed-form side.

    For x = (y, s) with s != 0 completing the square gives
        (dsigma)_(x) = |F|^{1-n} S(s)^{n-1} e(-y.y / (4s)),
    and the s = 0 slice collapses to delta_0(y).
    """
    surf = paraboloid(field, n)
    computed = extension(SurfaceFunction.constant(surf)).values
    q = field.order
    m = q ** (n - 1)
    base = field.grid_coords(n - 1)
    ydot = field.dot_arrays(base, base)  # y.y per base index
    gs = gauss_sum_closed_form(field, np.arange(q))
    closed = np.empty(q**n, dtype=np.complex128)
    closed[:m] = 0.0
    closed[0] = 1.0  # s = 0 slice: delta at y = 0
    scale = float(q) ** (1 - n)
    for s in range(1, q):
        inv4s = field.inv(field.mul(4 % field.p, s))
        phase_idx = field.neg_arrays(field.mul_arrays(ydot, inv4s))
        closed[s * m : (s + 1) * m] = scale * gs[s] ** (n - 1) * field.character[phase_idx]
    return float(np.abs(computed - closed).max())


# -- solution counting --------------------------------------------------------------


def surface_sum_table(surface: SurfaceMeasure, k: int, budget: int = DEFAULT_BUDGET) -> np.ndarray:
    """Dense table of ordered k-tuple sums: table[flat(eta)] = #{tuples summing to eta}.

    k = 2 bins all |S|^2 pair sums.  k = 3 adds one shifted copy of that table
    per surface point, table_3(eta) = sum_{s in S} table_2(eta - s), read
    through the flats of -s + eta for a block of points s at a time.  Counts
    stay exact int64.  The budget bounds that work, |S|^2 for k = 2 and
    |S|^2 + |S| |F|^n for k = 3, and is checked before any table is built.
    """
    if k not in (2, 3):
        raise ValueError("tuple length must be 2 or 3")
    m = surface.size
    if k == 2:
        require_budget(m * m, budget, "|S|^2")
        return _pair_table(surface)
    require_budget(m * m + m * surface.field.order**surface.n, budget, "|S|^2 + |S| |F|^n")
    pairs, minus = _pair_table(surface), surface.field.neg_arrays(surface.points)
    table = np.zeros_like(pairs)
    for rows in blocks(m, len(table)):
        table += pairs[translate_flats(surface.field, minus[rows])].sum(axis=0)
    return table


def _pair_table(surface: SurfaceMeasure) -> np.ndarray:
    """table_2 from all ordered pair sums, in blocks of first points.

    Every block also bins into a table of |F|^n entries, so a block holds at
    least that many pair sums and its temporaries stay near the table's size.
    """
    fld = surface.field
    q = fld.order
    n = surface.n
    m = surface.size
    pts = surface.points
    pw = q ** np.arange(n, dtype=np.int64)
    table = np.zeros(q**n, dtype=np.int64)
    for rows in blocks(m, m, floor=q**n):
        cols = [fld.add_arrays(pts[rows, None, j], pts[None, :, j]) for j in range(n)]
        flat = sum(cols[j] * pw[j] for j in range(n)).reshape(-1)
        table += np.bincount(flat, minlength=q**n)
    return table


def surface_sum_max(surface, k, exclude_zero: bool = False, budget: int = DEFAULT_BUDGET) -> int:
    """Largest ordered k-tuple sum count over eta (optionally over eta != 0)."""
    table = surface_sum_table(surface, k, budget)
    if exclude_zero:
        table = table.copy()
        table[0] = 0
    return int(table.max())


# -- special sets ---------------------------------------------------------------------


def cone_counterexample_set(field: Field) -> np.ndarray:
    """X = {(x, y, z) : z a nonzero square, y = x^2/(4z)}; |X| = |F|(|F|-1)/2.

    The transform of its indicator has modulus ((|F|-1)/2) sqrt(|F|) at every
    cone point with nonzero middle coordinate, beating the L^2 restriction
    bound for q < 4.
    """
    q = field.order
    sq = field.nonzero_squares()
    xs = np.tile(np.arange(q, dtype=np.int64), len(sq))
    zs = np.repeat(sq, q)
    inv4z = np.array([field.inv(field.mul(4 % field.p, int(z))) for z in sq], dtype=np.int64)
    ys = field.mul_arrays(field.mul_arrays(xs, xs), np.repeat(inv4z, q))
    return np.stack([xs, ys, zs], axis=1)


def indicator_grid(field: Field, n: int, points: np.ndarray, side=Side.SPACE) -> Grid:
    """Characteristic function of a point set as a grid."""
    vals = np.zeros(field.order**n, dtype=np.complex128)
    vals[flat_points(field, np.asarray(points, dtype=np.int64))] = 1.0
    return Grid(field, n, vals, Side(side))
