"""Transforms against direct double-sum oracles, plus measure bookkeeping."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fflab import grid as grid_module
from fflab.errors import BudgetExceededError, FFLabError
from fflab.field import Field, make_field
from fflab.grid import (
    Grid,
    Side,
    affine_flats,
    convolve,
    flat_points,
    fourier_forward,
    fourier_inverse,
    grid_from_bytes,
    grid_to_bytes,
    index_point,
    inner_product,
    lp_norm,
    parseval_defect,
    point_index,
    pointwise_mul,
)
from fflab.surfaces import indicator_grid


def dft_oracle(f: Grid) -> np.ndarray:
    """f^(xi) by explicit double summation; deliberately slow and simple."""
    field = f.field
    q = field.order
    n = f.n
    e = field.character
    out = np.zeros(q**n, dtype=np.complex128)
    for xi_flat in range(q**n):
        xi = index_point(field, n, xi_flat)
        acc = 0.0 + 0.0j
        for x_flat in range(q**n):
            x = index_point(field, n, x_flat)
            acc += f.values[x_flat] * np.conj(e[field.dot(x, xi)])
        out[xi_flat] = acc
    return out


def test_point_index_roundtrip(f7):
    for flat in range(7**2):
        assert point_index(f7, index_point(f7, 2, flat)) == flat
    pts = np.array([[1, 2], [0, 6], [3, 3]], dtype=np.int64)
    assert list(flat_points(f7, pts)) == [point_index(f7, p) for p in pts]
    with pytest.raises(ValueError):
        point_index(f7, (7, 0))


def affine_line_stack(field, a, b) -> np.ndarray:
    """a + t b by one add_arrays/mul_arrays pair per coordinate."""
    ts = np.arange(field.order, dtype=np.int64)
    cols = [
        field.add_arrays(np.full_like(ts, a[j]), field.mul_arrays(ts, b[j]))
        for j in range(len(a))
    ]
    return np.stack(cols, axis=1)


@pytest.mark.parametrize("p,k", [(7, 1), (3, 2)])
def test_affine_flats_match_coordinate_stack(p, k):
    field = make_field(p, k)
    rng = np.random.default_rng(5)
    for n in (1, 2, 3):
        for b_last in (0, 1):
            a = rng.integers(0, field.order, n)
            b = np.append(rng.integers(0, field.order, n - 1), b_last)
            got = affine_flats(field, a, b)
            assert got.dtype == np.int64 and got.shape == (field.order,)
            assert np.array_equal(got, flat_points(field, affine_line_stack(field, a, b)))
            assert got[0] == flat_points(field, a)  # t order, t = 0 first
    # plain tuples of ints work too
    assert np.array_equal(affine_flats(field, (2, 0), (1, 1)),
                          flat_points(field, affine_line_stack(field, (2, 0), (1, 1))))
    # (T, L, d) base points broadcast against (L, d) directions
    a = rng.integers(0, field.order, (4, 5, 3))
    b = rng.integers(0, field.order, (5, 3))
    got = affine_flats(field, a, b)
    assert got.shape == (4, 5, field.order)
    for i in range(4):
        for j in range(5):
            want = flat_points(field, affine_line_stack(field, a[i, j], b[j]))
            assert np.array_equal(got[i, j], want)
    with pytest.raises(ValueError):
        affine_flats(field, a, b[:, :2])  # trailing dimensions differ
    with pytest.raises(ValueError):
        affine_flats(field, a[..., :0], b[:, :0])  # no coordinate: no line


@pytest.mark.parametrize(
    "count,width,entries,floor,sizes",
    [
        (0, 5, None, 0, []),  # nothing to cover
        (10, 0, 4, 0, [4, 4, 2]),  # width 0, as for an empty surface
        (3, 2**16 + 1, None, 0, [1, 1, 1]),  # a row wider than the entries: one row per block
        (10, 3, 10, 0, [3, 3, 3, 1]),  # a short last block
        (10, 3, 4, 12, [4, 4, 2]),  # the floor raises the entries
        (10, 3, 14, 12, [4, 4, 2]),  # and leaves larger entries alone
    ],
)
def test_blocks_cover_the_range_once_in_order(count, width, entries, floor, sizes):
    got = list(grid_module.blocks(count, width, entries, floor))
    assert [s.stop - s.start for s in got] == sizes
    assert [i for s in got for i in range(count)[s]] == list(range(count))


def test_blocks_read_the_block_entries_at_call_time(monkeypatch):
    assert [s.stop - s.start for s in grid_module.blocks(10, 2**13)] == [8, 2]
    monkeypatch.setattr(grid_module, "BLOCK_ENTRIES", 12)
    assert [s.stop - s.start for s in grid_module.blocks(10, 3)] == [4, 4, 2]


# d = 1-3 over F_7, the add table of F_9, and F_{3^3}
@pytest.mark.parametrize("p,k,d", [(7, 1, 1), (7, 1, 2), (7, 1, 3), (3, 2, 2), (3, 2, 3), (3, 3, 2)])
def test_translate_flats_against_scalar_add(p, k, d):
    field = make_field(p, k)
    q = field.order
    c = np.random.default_rng(10 * p + d).integers(q, size=(2, 3, d))  # two leading axes
    got = grid_module.translate_flats(field, c)
    assert got.dtype == np.int64 and got.shape == (2, 3, q**d)
    for lead in np.ndindex(2, 3):
        want = [
            point_index(field, [field.add(int(ci), xi) for ci, xi in zip(c[lead], x)])
            for x in (index_point(field, d, flat) for flat in range(q**d))
        ]
        assert got[lead].tolist() == want


# F_{13^2} and F_{3^5} are above DENSE_MAX_ORDER and take the factored kernel
@pytest.mark.parametrize("p,k,n", [(3, 1, 2), (5, 1, 1), (3, 2, 1), (13, 2, 1), (3, 5, 1)])
def test_forward_matches_double_sum(p, k, n):
    field = make_field(p, k)
    rng = np.random.default_rng(p * 10 + n)
    f = Grid.random(field, n, rng)
    fast = fourier_forward(f).values
    slow = dft_oracle(f)
    assert np.abs(fast - slow).max() < 1e-10 * np.abs(slow).max()


def test_dft_kernels_refuse_above_the_cap(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("field arithmetic ran before the cap check")

    field = Field(4099)  # a prime field keeps the 4099 x 4099 kernel
    monkeypatch.setattr(field, "mul_arrays", refuse)
    with pytest.raises(BudgetExceededError):
        grid_module._transform_matrices(field)
    # the exact boundary, with the cap lowered to a field order
    monkeypatch.setattr(grid_module, "DFT_MAX_ORDER", 9)
    with pytest.raises(BudgetExceededError):
        grid_module._transform_matrices(Field(11))
    kernel = grid_module._transform_matrices(Field(3, 2))
    assert kernel.plus.shape == (9, 9) and np.array_equal(kernel.minus, np.conj(kernel.plus))


@pytest.mark.parametrize("p", [7, 101, 257])
def test_prime_field_kernels_are_the_character_table(p):
    field = Field(p)
    kernel = grid_module._transform_matrices(field)
    a = np.arange(p, dtype=np.int64)
    plus = field.character[field.mul_arrays(a[:, None], a[None, :])]
    assert np.array_equal(kernel.plus, plus) and np.array_equal(kernel.minus, np.conj(plus))
    assert (kernel.size, kernel.digits, kernel.perm) == (p, 1, None)


def test_kernel_sides_around_the_dense_cap():
    dense = grid_module._transform_matrices(Field(11, 2))  # 121 <= DENSE_MAX_ORDER
    assert dense.plus.shape == (121, 121) and dense.perm is None
    kernel = grid_module._transform_matrices(Field(53, 2))
    assert kernel.plus.shape == (53, 53) and kernel.digits == 2
    assert np.array_equal(np.sort(kernel.perm), np.arange(53**2))


@pytest.mark.parametrize("p,k", [(3, 2), (5, 2), (3, 3), (7, 2)])
def test_factored_transforms_match_the_dense_kernel(monkeypatch, p, k):
    # kernels are cached on the field object, so each side gets a fresh Field
    dense_field = Field(p, k)
    monkeypatch.setattr(grid_module, "DENSE_MAX_ORDER", 1)
    field = Field(p, k)
    assert grid_module._transform_matrices(field).digits == k
    rng = np.random.default_rng(p * 10 + k)
    for n in (1, 2, 3):
        vals = rng.standard_normal(field.order**n) + 1j * rng.standard_normal(field.order**n)
        for side, transform in ((Side.SPACE, fourier_forward), (Side.FREQUENCY, fourier_inverse)):
            want = transform(Grid(dense_field, n, vals, side)).values
            got = transform(Grid(field, n, vals, side)).values
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def contract_oracle(values, mat, q, count, reverse):
    """``transform_axes`` by one np.einsum per axis, then one transpose.

    Forward reads the input as (R, x_{count-1}, ..., x_0) and returns
    (x_{count-1}, ..., x_0, R); reverse reads (x_0, ..., x_{count-1}, R) and
    returns (R, x_0, ..., x_{count-1}); every x is contracted with ``mat``.
    """
    rest = values.size // q**count
    shape = (rest,) + (q,) * count if not reverse else (q,) * count + (rest,)
    arr = values.reshape(shape)
    axes = range(1, count + 1) if not reverse else range(count)
    for axis in axes:
        arr = np.moveaxis(np.einsum("xa,...a->...x", mat, np.moveaxis(arr, axis, -1)), -1, axis)
    order = (*range(1, count + 1), 0) if not reverse else (count, *range(count))
    return arr.transpose(order).reshape(-1)


# dense kernels (F_7, F_31) and factored ones (F_{13^2}, F_{3^5}), each at a
# dimension n, so counts run 1 .. n * digits
CONTRACTION_FIELDS = [((7, 1), 3), ((31, 1), 2), ((13, 2), 2), ((3, 5), 2)]


@pytest.mark.parametrize("pk,n", CONTRACTION_FIELDS)
@pytest.mark.parametrize("rows", [1, 3, 7])
def test_transform_axes_against_einsum_oracle(pk, n, rows):
    kernel = grid_module._transform_matrices(make_field(*pk))
    size, axes = kernel.size, n * kernel.digits
    rng = np.random.default_rng(size * 100 + rows)
    vals = rng.standard_normal(rows * size**axes) + 1j * rng.standard_normal(rows * size**axes)
    # the kernels are symmetric, so a random matrix also checks which index is summed
    general = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
    cases = ((False, kernel.minus), (True, kernel.plus), (False, general), (True, general))
    for count in range(1, axes + 1):
        for reverse, mat in cases:
            got = grid_module.transform_axes(vals, mat, size, count, reverse=reverse)
            want = contract_oracle(vals, mat, size, count, reverse)
            assert got.shape == vals.shape
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("pk,n", CONTRACTION_FIELDS)
def test_transform_axes_reverse_undoes_forward(pk, n):
    # minus @ plus = size * I, so forward with plus then reverse with minus
    # scales by size^count and restores the original layout
    kernel = grid_module._transform_matrices(make_field(*pk))
    size, axes = kernel.size, n * kernel.digits
    rng = np.random.default_rng(size)
    vals = rng.standard_normal(3 * size**axes) + 1j * rng.standard_normal(3 * size**axes)
    for count in range(1, axes + 1):
        there = grid_module.transform_axes(vals, kernel.plus, size, count)
        back = grid_module.transform_axes(there, kernel.minus, size, count, reverse=True)
        np.testing.assert_allclose(back, vals * float(size) ** count, rtol=0,
                                   atol=1e-11 * float(size) ** count)


def test_roundtrip_identity(f7):
    rng = np.random.default_rng(1)
    f = Grid.random(f7, 3, rng)
    back = fourier_inverse(fourier_forward(f))
    assert np.abs(back.values - f.values).max() < 1e-10


def test_delta_transforms_to_modulated_constant(f5):
    d = indicator_grid(f5, 2, [(2, 3)])
    dhat = fourier_forward(d)
    e = f5.character
    for xi_flat in range(25):
        xi = index_point(f5, 2, xi_flat)
        assert abs(dhat.values[xi_flat] - np.conj(e[f5.dot((2, 3), xi)])) < 1e-12


def test_side_gating(f5):
    f = Grid.constant(f5, 2, 1.0, Side.FREQUENCY)
    with pytest.raises(FFLabError, match="forward transform expects a space-side grid"):
        fourier_forward(f)
    with pytest.raises(FFLabError, match="inverse transform expects a frequency-side grid"):
        fourier_inverse(Grid.constant(f5, 2, 1.0, Side.SPACE))
    with pytest.raises(FFLabError, match="inner product needs matching grids"):
        inner_product(Grid.constant(f5, 2), f)
    with pytest.raises(FFLabError, match="pointwise product needs matching grids"):
        pointwise_mul(Grid.constant(f5, 2), f)


@given(st.integers(0, 2**31 - 1))
def test_parseval_random(seed):
    field = make_field(5)
    rng = np.random.default_rng(seed)
    f = Grid.random(field, 2, rng)
    g = Grid.random(field, 2, rng)
    scale = lp_norm(f, 2) * lp_norm(g, 2)
    assert parseval_defect(f, g) <= 1e-9 * scale


def test_norm_measures(f5):
    one_space = Grid.constant(f5, 2, 1.0, Side.SPACE)
    one_freq = Grid.constant(f5, 2, 1.0, Side.FREQUENCY)
    # counting measure on space, normalized on frequency
    assert lp_norm(one_space, 2) == pytest.approx(5.0)
    assert lp_norm(one_freq, 2) == pytest.approx(1.0)
    assert lp_norm(one_space, math.inf) == 1.0
    with pytest.raises(ValueError):
        lp_norm(one_space, "1/2")


def test_convolution_matches_direct(f5):
    rng = np.random.default_rng(3)
    f = Grid.random(f5, 2, rng)
    g = Grid.random(f5, 2, rng)
    conv = convolve(f, g).values
    direct = np.zeros(25, dtype=np.complex128)
    for x_flat in range(25):
        x = index_point(f5, 2, x_flat)
        acc = 0j
        for y_flat in range(25):
            y = index_point(f5, 2, y_flat)
            diff = tuple(f5.sub(xc, yc) for xc, yc in zip(x, y))
            acc += f.values[y_flat] * g.values[point_index(f5, diff)]
        direct[x_flat] = acc
    assert np.abs(conv - direct).max() < 1e-9


def test_frequency_convolution_normalization(f5):
    # constants: (1 * 1)(xi) = |F|^{-n} sum_eta 1 = 1
    one = Grid.constant(f5, 2, 1.0, Side.FREQUENCY)
    conv = convolve(one, one)
    assert np.abs(conv.values - 1.0).max() < 1e-10


def test_serialization_roundtrip(f9):
    rng = np.random.default_rng(9)
    f = Grid.random(f9, 2, rng, Side.FREQUENCY)
    back = grid_from_bytes(grid_to_bytes(f))
    assert back.field == f.field
    assert back.n == f.n and back.side == f.side
    assert np.array_equal(back.values, f.values)


def test_values_are_write_protected(f5):
    f = Grid.constant(f5, 1)
    with pytest.raises(ValueError):
        f.values[0] = 5.0
