"""Algebraic surfaces in frequency space and their normalized measures.

A SurfaceMeasure is a list of distinct points of F^n carrying normalized
surface measure: integration against d(sigma) averages over the point list.
The extension operator of a surface function g is

    (g dsigma)_(x) = |S|^{-1} sum_{xi in S} g(xi) e(x.xi),

a space-side grid; restriction reads a frequency-side grid at the surface
points.  Surfaces provided: the paraboloid (xi, xi.xi) over xi in F^{n-1};
the quadric cone {(xi, u, v) : uv = xi^2} minus the origin in F^3; the moment
curve (t, t^2, ..., t^n) for char > n; the tangent-plane double paraboloid
(eta, eta.eta, theta, eta.theta) in ambient dimension 2n; and custom common
zero sets of polynomial callables.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import (
    BudgetExceededError,
    CharacteristicTooSmallError,
    DegenerateKernelError,
    UnsupportedDimensionError,
    WrongSurfaceKindError,
)
from .field import Field
from .grid import Grid, Side, flat_points, fourier_inverse

DEFAULT_TUPLE_BUDGET = 10**9


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


def _self_dot(field: Field, coords: np.ndarray) -> np.ndarray:
    """Row-wise xi.xi for an (m, d) coordinate array."""
    acc = np.zeros(coords.shape[0], dtype=np.int64)
    for j in range(coords.shape[1]):
        acc = field.add_arrays(acc, field.mul_arrays(coords[:, j], coords[:, j]))
    return acc


def _pair_dot(field: Field, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    acc = np.zeros(a.shape[0], dtype=np.int64)
    for j in range(a.shape[1]):
        acc = field.add_arrays(acc, field.mul_arrays(a[:, j], b[:, j]))
    return acc


def paraboloid(field: Field, n: int) -> SurfaceMeasure:
    """{(xi, xi.xi) : xi in F^{n-1}}, |S| = |F|^{n-1}."""
    if n < 2:
        raise UnsupportedDimensionError("paraboloid needs n >= 2")
    base = field.grid_coords(n - 1)
    tau = _self_dot(field, base)
    pts = np.concatenate([base, tau[:, None]], axis=1)
    name = "parabola" if n == 2 else f"paraboloid(n={n})"
    return SurfaceMeasure(field, n, pts, SurfaceKind.PARABOLOID, name)


def cone(field: Field, include_origin: bool = False) -> SurfaceMeasure:
    """{(xi, u, v) in F^3 : uv = xi^2} minus the origin; |S| = |F|^2 - 1.

    include_origin reinstates (0,0,0), giving |F|^2 points.
    """
    q = field.order
    rows = []
    inv = np.array([0] + [field.inv(u) for u in range(1, q)], dtype=np.int64)
    xi = np.repeat(np.arange(q, dtype=np.int64), q - 1)
    u = np.tile(np.arange(1, q, dtype=np.int64), q)
    v = field.mul_arrays(field.mul_arrays(xi, xi), inv[u])
    rows.append(np.stack([xi, u, v], axis=1))
    vz = np.arange(1, q, dtype=np.int64)
    zero = np.zeros(q - 1, dtype=np.int64)
    rows.append(np.stack([zero, zero, vz], axis=1))
    if include_origin:
        rows.append(np.zeros((1, 3), dtype=np.int64))
    pts = np.concatenate(rows, axis=0)
    return SurfaceMeasure(field, 3, pts, SurfaceKind.CONE, "cone")


def moment_curve(field: Field, n: int) -> SurfaceMeasure:
    """{(t, t^2, ..., t^n) : t in F}; needs char > n."""
    if field.p <= n:
        raise CharacteristicTooSmallError(
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
        raise UnsupportedDimensionError("double paraboloid needs base n >= 2")
    m = field.order ** (n - 1)
    base = field.grid_coords(n - 1)
    eta = np.tile(base, (m, 1))
    theta = np.repeat(base, m, axis=0)
    ee = _self_dot(field, eta)
    et = _pair_dot(field, eta, theta)
    pts = np.concatenate([eta, ee[:, None], theta, et[:, None]], axis=1)
    return SurfaceMeasure(
        field, 2 * n, pts, SurfaceKind.DOUBLE_PARABOLOID, f"double_paraboloid(base n={n})"
    )


def double_paraboloid_index(field: Field, n: int, eta_flat: int, theta_flat: int) -> int:
    """Point-list position of the lift point labeled by (eta, theta)."""
    return eta_flat + field.order ** (n - 1) * theta_flat


def custom_variety(
    field: Field,
    n: int,
    polynomials: Sequence[Callable[[Field, np.ndarray], np.ndarray]],
    label: str = "custom",
) -> SurfaceMeasure:
    """Common zero set of polynomial callables p(field, coords) -> values."""
    coords = field.grid_coords(n)
    keep = np.ones(coords.shape[0], dtype=bool)
    for poly in polynomials:
        vals = np.asarray(poly(field, coords), dtype=np.int64)
        keep &= vals == 0
    return SurfaceMeasure(field, n, coords[keep], SurfaceKind.CUSTOM, label)


def build_surface(kind, field: Field, n: int, polynomials=None, include_origin=False):
    kind = SurfaceKind(kind)
    if kind == SurfaceKind.PARABOLOID:
        return paraboloid(field, n)
    if kind == SurfaceKind.CONE:
        if n != 3:
            raise UnsupportedDimensionError("the cone lives in F^3")
        return cone(field, include_origin=include_origin)
    if kind == SurfaceKind.MOMENT_CURVE:
        return moment_curve(field, n)
    if kind == SurfaceKind.DOUBLE_PARABOLOID:
        return double_paraboloid(field, n)
    if polynomials is None:
        raise ValueError("custom surfaces need polynomial callables")
    return custom_variety(field, n, polynomials)


# -- extension / restriction ------------------------------------------------------


def extension(sf: SurfaceFunction) -> Grid:
    """(g dsigma)_ as a space-side grid, via the axis-wise transform."""
    surf = sf.surface
    q = surf.field.order
    total = q**surf.n
    emb = np.zeros(total, dtype=np.complex128)
    emb[surf.flat] = sf.values * (total / surf.size)
    return fourier_inverse(Grid(surf.field, surf.n, emb, Side.FREQUENCY))


def extension_direct(sf: SurfaceFunction) -> Grid:
    """Same operator by direct summation over surface points (no transform).

    Kept as an independent code path so lower-bound certificates can be
    re-evaluated without trusting the fast transform.
    """
    surf = sf.surface
    fld = surf.field
    q = fld.order
    axis = np.arange(q, dtype=np.int64)
    nd: np.ndarray | None = None
    for val, pt in zip(sf.values, surf.points):
        cols = [fld.character[fld.mul_arrays(axis, pt[j])] for j in range(surf.n)]
        term = cols[0] * val
        for c in cols[1:]:
            term = np.multiply.outer(c, term)
        # outer(c, term) puts the new axis first; accumulate with axes reversed
        nd = term if nd is None else nd + term
    assert nd is not None
    # axes currently run last coordinate first; flatten accordingly
    flat = nd.reshape(-1, order="C")
    return Grid(surf.field, surf.n, flat / surf.size, Side.SPACE)


def restriction(f_hat: Grid, surface: SurfaceMeasure) -> SurfaceFunction:
    """Read a frequency-side grid at the surface points."""
    if f_hat.side != Side.FREQUENCY:
        raise WrongSurfaceKindError("restriction expects a frequency-side grid")
    if f_hat.n != surface.n or f_hat.field != surface.field:
        raise ValueError("grid and surface do not match")
    return SurfaceFunction(surface, f_hat.values[surface.flat])


def restriction_direct(f: Grid, surface: SurfaceMeasure) -> SurfaceFunction:
    """f^ sampled on the surface by direct summation from a space-side grid."""
    fld = surface.field
    q = fld.order
    axis = np.arange(q, dtype=np.int64)
    vals = np.empty(surface.size, dtype=np.complex128)
    nd = f.values.reshape((q,) * f.n, order="F")
    for i, pt in enumerate(surface.points):
        acc = nd
        for j in range(surface.n):
            col = np.conj(fld.character[fld.mul_arrays(axis, pt[j])])
            acc = np.tensordot(col, acc, axes=([0], [0]))
        vals[i] = complex(acc)
    return SurfaceFunction(surface, vals)


def surface_lp_norm(sf: SurfaceFunction, p) -> float:
    """L^p(S, dsigma) norm: dsigma gives each point mass |S|^{-1}."""
    pf = p if p == math.inf else float(p)
    absv = np.abs(sf.values)
    if pf == math.inf:
        return float(absv.max())
    if pf < 1:
        raise ValueError("exponents below 1 are not norms here")
    return float((np.mean(absv**pf)) ** (1.0 / pf))


def surface_inner(sf1: SurfaceFunction, sf2: SurfaceFunction) -> complex:
    return complex(np.mean(sf1.values * np.conj(sf2.values)))


# -- gauss sums and kernels -------------------------------------------------------


def gauss_sum(field: Field, x: int) -> complex:
    """S(x) = sum_t e(x t^2).  S(0) = |F| and |S(x)|^2 = |F| for x != 0."""
    t = np.arange(field.order, dtype=np.int64)
    sq = field.mul_arrays(t, t)
    return complex(np.sum(field.character[field.mul_arrays(sq, x)]))


def bochner_riesz_kernel(surface: SurfaceMeasure) -> Grid:
    """K = (dsigma)_ - delta_0; the mean-one spike at the origin removed."""
    k = extension(SurfaceFunction.constant(surface))
    vals = k.values.copy()
    vals[0] -= 1.0
    return Grid(surface.field, surface.n, vals, Side.SPACE)


def fourier_dimension(surface: SurfaceMeasure) -> float:
    """Empirical decay exponent: max_x |K(x)| = |F|^{-d/2} solved for d."""
    kern = bochner_riesz_kernel(surface)
    m = float(np.abs(kern.values).max())
    if m < 1e-15:
        raise DegenerateKernelError("kernel vanishes; no decay exponent")
    return -2.0 * math.log(m) / math.log(surface.field.order)


def paraboloid_kernel_formula_check(field: Field, n: int) -> float:
    """Max deviation between the transform-computed paraboloid kernel and its
    Gauss-sum closed form.

    For x = (y, s) with s != 0 completing the square gives
        (dsigma)_(x) = |F|^{1-n} S(s)^{n-1} e(-y.y / (4s)),
    and the s = 0 slice collapses to delta_0(y).
    """
    surf = paraboloid(field, n)
    computed = extension(SurfaceFunction.constant(surf)).values
    q = field.order
    m = q ** (n - 1)
    base = field.grid_coords(n - 1)
    ydot = _self_dot(field, base)  # y.y per base index
    gs = np.array([gauss_sum(field, s) for s in range(q)])
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


def surface_sum_table(surface: SurfaceMeasure, k: int, budget: int = DEFAULT_TUPLE_BUDGET) -> np.ndarray:
    """Dense table of ordered k-tuple sums: table[flat(eta)] = #{tuples summing to eta}.

    Iterates over tuples (chunked), never over eta, so counts are exact int64.
    """
    if k not in (2, 3):
        raise ValueError("tuple length must be 2 or 3")
    m = surface.size
    if m**k > budget:
        raise BudgetExceededError(f"|S|^{k} = {m**k} exceeds budget {budget}")
    fld = surface.field
    q = fld.order
    n = surface.n
    pts = surface.points
    total = q**n
    pw = q ** np.arange(n, dtype=np.int64)

    # all pair sums, chunked over the first index
    table = np.zeros(total, dtype=np.int64)
    chunk = max(1, min(m, 1 + 10**7 // max(m, 1)))
    pair_flat_chunks = []
    for lo in range(0, m, chunk):
        hi = min(m, lo + chunk)
        cols = [
            fld.add_arrays(pts[lo:hi, None, j], pts[None, :, j]) for j in range(n)
        ]
        flat = sum(cols[j] * pw[j] for j in range(n)).reshape(-1)
        if k == 2:
            table += np.bincount(flat, minlength=total)
        else:
            pair_flat_chunks.append(flat)
    if k == 2:
        return table

    pair_flat = np.concatenate(pair_flat_chunks)
    pair_coords = [(pair_flat // pw[j]) % q for j in range(n)]
    for r in range(m):
        cols = [fld.add_arrays(pair_coords[j], pts[r, j]) for j in range(n)]
        flat = sum(cols[j] * pw[j] for j in range(n))
        table += np.bincount(flat, minlength=total)
    return table


def surface_sum_max(
    surface, k, exclude_zero: bool = False, budget: int = DEFAULT_TUPLE_BUDGET
) -> int:
    """Largest ordered k-tuple sum count over eta (optionally over eta != 0)."""
    table = surface_sum_table(surface, k, budget)
    if exclude_zero:
        table = table.copy()
        table[0] = 0
    return int(table.max())


# -- symmetries and special sets -------------------------------------------------------


def galilean_permutation(surface: SurfaceMeasure, a: Sequence[int]) -> np.ndarray:
    """Index permutation of the paraboloid under (xi, tau) -> (xi+a, tau+2 xi.a+a.a)."""
    if surface.kind != SurfaceKind.PARABOLOID:
        raise WrongSurfaceKindError("Galilean maps act on the paraboloid")
    fld = surface.field
    d = surface.n - 1
    a = np.asarray(a, dtype=np.int64)
    if a.shape != (d,):
        raise ValueError(f"shift must have {d} coordinates")
    xi = surface.points[:, :d]
    tau = surface.points[:, d]
    new_xi = fld.add_arrays(xi, a[None, :])
    cross = _pair_dot(fld, xi, np.broadcast_to(a[None, :], xi.shape))
    a_dot = int(_self_dot(fld, a[None, :])[0])
    two_cross = fld.mul_arrays(np.int64(2 % fld.p), cross)
    new_tau = fld.add_arrays(tau, fld.add_arrays(two_cross, a_dot))
    new_flat = flat_points(fld, np.concatenate([new_xi, new_tau[:, None]], axis=1))
    lookup = {int(f): i for i, f in enumerate(surface.flat)}
    perm = np.array([lookup[int(f)] for f in new_flat], dtype=np.int64)
    return perm


def galilean_transform(obj, a):
    """Apply a Galilean symmetry to a paraboloid point set or surface function."""
    if isinstance(obj, SurfaceMeasure):
        perm = galilean_permutation(obj, a)
        pts = obj.points[np.argsort(perm)]  # same set, transformed order
        return SurfaceMeasure(obj.field, obj.n, pts, obj.kind, obj.label)
    if isinstance(obj, SurfaceFunction):
        perm = galilean_permutation(obj.surface, a)
        vals = np.empty_like(obj.values)
        vals[perm] = obj.values
        return SurfaceFunction(obj.surface, vals)
    raise TypeError("expected a paraboloid SurfaceMeasure or SurfaceFunction")


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
