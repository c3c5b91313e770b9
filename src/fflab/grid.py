"""Dense complex grids on F^n with the two-sided measure convention.

Space side carries counting measure dx; frequency side carries normalized
counting measure, |F|^{-n} per point.  A function on F^n is stored flat in
little-endian mixed radix: coordinate 0 varies fastest, so the flat index of
x = (x_0, ..., x_{n-1}) is sum_i x_i * |F|^i.

Transforms:
    forward   f^(xi) = sum_x f(x) e(-x.xi)        Space -> Frequency
    inverse   g_(x) = |F|^{-n} sum_xi g(xi) e(x.xi)  Frequency -> Space

computed axis by axis, each axis one matrix product with a dense 1-D kernel
that rotates the contracted axis to the slow end of the array (no FFT;
summation order is fixed, so results do not depend on how many Python threads
run them; a multithreaded BLAS can still move the last bits).  After all n
axes a grid is back in its own layout.  Double precision throughout;
rechecks compare values with the tolerance of certificates.recheck_agrees.

Prime fields, and extension fields with at most DENSE_MAX_ORDER elements,
contract each coordinate with one |F| x |F| kernel.  Larger F_{p^k} factor
through the trace form: with d(x) the base-p digit vector of x (coordinates
against 1, alpha, ..., alpha^{k-1}, alpha the root of the field's modulus) and
T_ij = tr(alpha^{i+j}) the symmetric Gram matrix,
tr(x xi) = d(x) . T d(xi) mod p, so

    e(x xi) = prod_i w^{d_i(x) (T d(xi))_i},   w = exp(2 pi i / p).

A transform over F_{p^k} is then k contractions with the p x p kernel w^{ab}
along the digit axes (the flat index sum_i d_i p^i already splits into them),
followed by reading the output of each coordinate at perm[xi] = flat(T d(xi)).
Both directions use the same perm because T is symmetric.
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass
import math
import numpy as np

from .certificates import as_float
from .errors import BudgetExceededError, FFLabError
from .field import Field, make_field

# Largest extension field that keeps the dense |F| x |F| kernel: the factored
# kernel is slower below about 125 elements and faster from F_{13^2} up.
DENSE_MAX_ORDER = 128
# Cap on a kernel's side: the two complex128 kernels take 32 size^2 bytes,
# 512 MiB at this cap.  Only prime fields can reach it.
DFT_MAX_ORDER = 4096
# Entries per block of a blocked scan (512 KiB of int64), so that a block's
# index table, its gather and its accumulator stay in cache.
BLOCK_ENTRIES = 2**16


class Side(enum.IntEnum):
    SPACE = 0
    FREQUENCY = 1


def point_index(field: Field, point) -> int:
    """Flat index of a coordinate tuple."""
    q = field.order
    idx = 0
    for i, c in enumerate(point):
        if not 0 <= c < q:
            raise ValueError(f"coordinate {c} outside [0, {q})")
        idx += c * q**i
    return idx


def index_point(field: Field, n: int, idx: int) -> tuple[int, ...]:
    q = field.order
    return tuple((idx // q**i) % q for i in range(n))


def flat_points(field: Field, points: np.ndarray) -> np.ndarray:
    """Flat indices of a (..., n) array of coordinate rows."""
    q = field.order
    n = points.shape[-1]
    pw = q ** np.arange(n, dtype=np.int64)
    return points @ pw


def affine_flats(field: Field, a, b) -> np.ndarray:
    """(..., |F|) flat indices over F^d of the points a + t b, in the order t = 0, 1, ...

    a and b are (..., d) rows, d >= 1, whose leading axes broadcast, so a stack
    of base points can share one set of directions.  b t is formed once, on
    b's own shape, and each flat is built by Horner's rule from the last
    (slowest) coordinate, one field addition per coordinate; no (..., |F|, d)
    point array is formed.
    """
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    if a.shape[-1:] != b.shape[-1:]:
        raise ValueError("base point and direction dimensions differ")
    q, d = field.order, b.shape[-1]
    if d == 0:
        raise ValueError("a line needs at least one coordinate")
    bt = field.mul_arrays(np.moveaxis(b, -1, 0)[..., None], np.arange(q, dtype=np.int64))
    flat = field.add_arrays(a[..., d - 1, None], bt[d - 1])  # [..., t]
    for j in range(d - 2, -1, -1):
        flat *= q
        flat += field.add_arrays(a[..., j, None], bt[j])
    return flat


def blocks(count: int, width: int, entries: int | None = None, floor: int = 0):
    """Consecutive slices covering range(count) once and in order, each of
    about entries // width rows of width entries, and at least one row.

    entries defaults to BLOCK_ENTRIES, read at call time; floor raises it for a
    scan whose every block also costs that many entries, whatever its rows.
    """
    step = max(1, max(BLOCK_ENTRIES if entries is None else entries, floor) // max(width, 1))
    for start in range(0, count, step):
        yield slice(start, min(start + step, count))


def translate_flats(field: Field, c) -> np.ndarray:
    """(..., |F|^d) flat indices over F^d of c + x for every x in F^d, in flat
    order of x, for a (..., d) array c.

    An outer sum of one shifted axis per coordinate, so field addition runs
    on only |F| entries per coordinate and row of c.
    """
    c = np.asarray(c, dtype=np.int64)
    q, d, lead = field.order, c.shape[-1], c.shape[:-1]
    axis = np.arange(q, dtype=np.int64)
    out = np.zeros((*lead, 1), dtype=np.int64)
    for j in range(d):  # coordinate j on the slower axis, so the long axis stays inner
        row = field.add_arrays(c[..., j, None], axis) * q**j
        out = (row[..., :, None] + out[..., None, :]).reshape(*lead, q ** (j + 1))
    return out


@dataclass(frozen=True)
class Grid:
    field: Field
    n: int
    values: np.ndarray
    side: Side

    def __post_init__(self):
        expect = self.field.order**self.n
        if self.values.shape != (expect,):
            raise ValueError(f"expected flat length {expect}, got {self.values.shape}")
        if self.values.dtype != np.complex128:
            object.__setattr__(self, "values", self.values.astype(np.complex128))
        self.values.setflags(write=False)

    # constructors

    @classmethod
    def constant(cls, field, n, value=1.0, side=Side.SPACE):
        vals = np.full(field.order**n, value, dtype=np.complex128)
        return cls(field, n, vals, Side(side))

    @classmethod
    def random(cls, field, n, rng, side=Side.SPACE):
        m = field.order**n
        vals = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        return cls(field, n, vals, Side(side))

    def with_values(self, values) -> "Grid":
        return Grid(self.field, self.n, np.asarray(values, dtype=np.complex128), self.side)


def _weight(g: Grid) -> float:
    return 1.0 if g.side == Side.SPACE else float(g.field.order) ** (-g.n)


@dataclass(frozen=True)
class TransformKernel:
    """A field's 1-D transform, as ``digits`` contractions per coordinate.

    ``minus[a, b] = e(-ab)`` and ``plus[a, b] = e(ab)`` on an axis of length
    ``size``; each coordinate of F^n is ``digits`` such axes.  ``perm`` maps a
    coordinate value xi to the flat digit index at which the contracted
    output holds it (None: the identity, for the dense kernel).
    """

    minus: np.ndarray
    plus: np.ndarray
    size: int
    digits: int
    perm: np.ndarray | None


def _transform_matrices(field: Field) -> TransformKernel:
    """The field's transform kernel; cached on the field object.

    Dense |F| x |F| for prime fields and for |F| <= DENSE_MAX_ORDER, else the
    p x p kernel with the trace-form permutation (see the module docstring).
    Refuses a kernel side above DFT_MAX_ORDER before any field arithmetic.
    Kernels are filled one block of rows at a time, so no q x q index table
    is held.
    """
    cached = getattr(field, "_dft_mats", None)
    if cached is not None:
        return cached
    q, p = field.order, field.p
    dense = field.k == 1 or q <= DENSE_MAX_ORDER
    size = q if dense else p
    if size > DFT_MAX_ORDER:
        raise BudgetExceededError(
            f"the {size} x {size} DFT kernels exceed the cap |F| <= {DFT_MAX_ORDER}"
        )
    a = np.arange(size, dtype=np.int64)
    if dense:
        character = field.character
        perm = None
    else:
        character = np.exp(2j * np.pi * a / p)  # w^a on the prime field
        pw = p ** np.arange(field.k, dtype=np.int64)  # indices of 1, alpha, ..., alpha^{k-1}
        gram = field.trace_lift[field.mul_arrays(pw[:, None], pw[None, :])]
        digit_rows = np.arange(q, dtype=np.int64)[:, None] // pw % p
        perm = digit_rows @ gram % p @ pw
    conj_character = np.conj(character)
    minus = np.empty((size, size), dtype=np.complex128)
    plus = np.empty((size, size), dtype=np.complex128)  # plus[x, xi] = e(x.xi)
    for rows in blocks(size, size):
        block = a[rows, None]
        prod = field.mul_arrays(block, a[None, :]) if dense else block * a[None, :] % p
        plus[rows] = character[prod]
        minus[rows] = conj_character[prod]
    kernel = TransformKernel(minus, plus, size, 1 if dense else field.k, perm)
    field._dft_mats = kernel
    return kernel


def transform_axes(
    values: np.ndarray, mat: np.ndarray, q: int, count: int, reverse: bool = False
) -> np.ndarray:
    """Contract ``count`` axes of length q with the q x q kernel ``mat``, one GEMM each.

    ``values`` is read as a C-order array of axes of length q.  A forward step
    contracts the fastest axis and leaves it slowest (``mat @ arr.reshape(-1, q).T``),
    so axis i of the flat index sum_i x_i q^i goes first.  A reverse step
    contracts the slowest axis and leaves it fastest.  Whatever else the array
    holds, such as a block of stacked rows, rides along in the other GEMM
    dimension: forward takes (R, x_{c-1}, ..., x_0) to (x_{c-1}, ..., x_0, R)
    with each x contracted, and reverse takes (x_0, ..., x_{c-1}, R) to
    (R, x_0, ..., x_{c-1}).  So all n axes of one grid come back in its own
    layout, and a reverse pass undoes the rotation of a forward pass.
    Returns the flat result.
    """
    arr = values
    for _ in range(count):
        if reverse:
            arr = arr.reshape(q, -1).T @ mat.T
        else:
            arr = mat @ arr.reshape(-1, q).T
    return arr.reshape(-1)


def _transform(kernel: TransformKernel, mat: np.ndarray, values: np.ndarray, n: int) -> np.ndarray:
    """``mat`` along all n * digits axes, then each coordinate gathered through ``perm``.

    The gather reads out[xi] = contracted[flat(perm[xi_0], ..., perm[xi_{n-1}])],
    one coordinate at a time.
    """
    out = transform_axes(values, mat, kernel.size, n * kernel.digits)
    if kernel.perm is None:
        return out
    q = len(kernel.perm)
    for axis in range(n):
        out = np.take(out.reshape(q ** (n - 1 - axis), q, q**axis), kernel.perm, axis=1)
    return out.reshape(-1)


def fourier_forward(f: Grid) -> Grid:
    """f^(xi) = sum_x f(x) e(-x.xi); defined on space-side grids only."""
    if f.side != Side.SPACE:
        raise FFLabError("forward transform expects a space-side grid")
    kernel = _transform_matrices(f.field)
    out = _transform(kernel, kernel.minus, f.values, f.n)
    return Grid(f.field, f.n, out, Side.FREQUENCY)


def fourier_inverse(g: Grid) -> Grid:
    """g_(x) = |F|^{-n} sum_xi g(xi) e(x.xi); frequency-side grids only."""
    if g.side != Side.FREQUENCY:
        raise FFLabError("inverse transform expects a frequency-side grid")
    kernel = _transform_matrices(g.field)
    out = _transform(kernel, kernel.plus, g.values, g.n)
    out *= float(g.field.order) ** (-g.n)
    return Grid(g.field, g.n, out, Side.SPACE)


def lp_norm(f: Grid, p) -> float:
    """L^p norm under the grid's own measure (dx counting, dxi normalized)."""
    pf = as_float(p)
    absv = np.abs(f.values)
    if pf == math.inf:
        return float(absv.max())
    if pf < 1:
        raise ValueError("exponents below 1 are not norms here")
    w = _weight(f)
    return float((w * np.sum(absv**pf)) ** (1.0 / pf))


def mean_lp_norm(values: np.ndarray, p) -> float:
    """L^p norm of a list of values under the uniform probability measure.

    This is the surface measure dsigma (mass |S|^{-1} per point) and the
    direction measure dv (mass |F|^{-(n-1)} per direction).
    """
    pf = as_float(p)
    absv = np.abs(values)
    if pf == math.inf:
        return float(absv.max())
    if pf < 1:
        raise ValueError("exponents below 1 are not norms here")
    return float(np.mean(absv**pf) ** (1.0 / pf))


def inner_product(f: Grid, g: Grid) -> complex:
    """<f, g> = sum f conj(g) under the shared measure."""
    if f.side != g.side or f.n != g.n or f.field is not g.field and f.field != g.field:
        raise FFLabError("inner product needs matching grids")
    return complex(_weight(f) * np.sum(f.values * np.conj(g.values)))


def pointwise_mul(f: Grid, g: Grid) -> Grid:
    if f.side != g.side or f.n != g.n or f.field != g.field:
        raise FFLabError("pointwise product needs matching grids")
    return f.with_values(f.values * g.values)


def convolve(f: Grid, g: Grid) -> Grid:
    """Convolution under the side's measure, via transform-multiply-invert.

    Space side:     (f*g)(x)  = sum_y f(y) g(x-y)
    Frequency side: (f*g)(xi) = |F|^{-n} sum_eta f(eta) g(xi-eta)
    """
    if f.side != g.side or f.n != g.n or f.field != g.field:
        raise FFLabError("convolution needs matching grids")
    if f.side == Side.SPACE:
        prod = pointwise_mul(fourier_forward(f), fourier_forward(g))
        return fourier_inverse(prod)
    prod = pointwise_mul(fourier_inverse(f), fourier_inverse(g))
    return fourier_forward(prod)


def parseval_defect(f1: Grid, f2: Grid) -> float:
    """|<f1, f2>_dx - <f1^, f2^>_dxi|; zero in exact arithmetic."""
    lhs = inner_product(f1, f2)
    rhs = inner_product(fourier_forward(f1), fourier_forward(f2))
    return abs(lhs - rhs)


# -- serialization -------------------------------------------------------------

_HEADER = struct.Struct("<IIII")  # p, k, n, side


def grid_to_bytes(g: Grid) -> bytes:
    head = _HEADER.pack(g.field.p, g.field.k, g.n, int(g.side))
    body = np.ascontiguousarray(g.values).astype("<c16").tobytes()
    return head + body


def grid_from_bytes(blob: bytes) -> Grid:
    p, k, n, side = _HEADER.unpack_from(blob, 0)
    field = make_field(p, k)
    vals = np.frombuffer(blob, dtype="<c16", offset=_HEADER.size).astype(np.complex128)
    return Grid(field, n, vals, Side(side))
