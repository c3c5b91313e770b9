"""Surface measures, extension operators, kernels, and tuple-sum counting."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fflab.errors import (
    CharacteristicTooSmallError,
    DegenerateKernelError,
    UnsupportedDimensionError,
    WrongSurfaceKindError,
)
from fflab.field import make_field
from fflab.grid import Grid, Side, fourier_forward, index_point, lp_norm, point_index
from fflab.surfaces import (
    SurfaceFunction,
    SurfaceKind,
    bochner_riesz_kernel,
    build_surface,
    cone,
    cone_counterexample_set,
    custom_variety,
    double_paraboloid,
    double_paraboloid_index,
    extension,
    extension_direct,
    fourier_dimension,
    galilean_transform,
    gauss_sum,
    indicator_grid,
    moment_curve,
    paraboloid,
    paraboloid_kernel_formula_check,
    restriction,
    restriction_direct,
    surface_inner,
    surface_lp_norm,
    surface_sum_max,
    surface_sum_table,
)


# -- point sets -----------------------------------------------------------------------


def test_paraboloid_points(f7):
    s = paraboloid(f7, 3)
    assert s.size == 49
    for row in s.points:
        xi = tuple(int(c) for c in row[:2])
        assert int(row[2]) == f7.dot(xi, xi)


def test_parabola_label(f5):
    assert paraboloid(f5, 2).label == "parabola"


def test_cone_points(f7):
    s = cone(f7)
    assert s.size == 48
    for xi, u, v in s.points:
        assert f7.mul(int(u), int(v)) == f7.mul(int(xi), int(xi))
    assert not any((row == 0).all() for row in s.points)
    assert cone(f7, include_origin=True).size == 49


def test_moment_curve_points(f7):
    s = moment_curve(f7, 3)
    assert s.size == 7
    for t in range(7):
        expect = (t, f7.mul(t, t), f7.mul(t, f7.mul(t, t)))
        assert tuple(int(c) for c in s.points[t]) == expect
    with pytest.raises(CharacteristicTooSmallError):
        moment_curve(make_field(3), 3)


def test_double_paraboloid_index(f5):
    s = double_paraboloid(f5, 2)
    assert s.size == 25
    for eta in range(5):
        for theta in range(5):
            idx = double_paraboloid_index(f5, 2, eta, theta)
            row = s.points[idx]
            assert int(row[0]) == eta and int(row[2]) == theta


def test_custom_variety(f5):
    s = custom_variety(
        f5, 2, [lambda f, c: f.sub_arrays(c[:, 1], f.mul_arrays(c[:, 0], c[:, 0]))]
    )
    assert s.size == 5
    assert s.kind == SurfaceKind.CUSTOM


def test_build_surface_dispatch(f7):
    assert build_surface("paraboloid", f7, 2).size == 7
    assert build_surface("cone", f7, 3).size == 48
    assert build_surface("moment_curve", f7, 3).size == 7


# -- extension and restriction ---------------------------------------------------------


@pytest.mark.parametrize("make", [
    lambda: paraboloid(make_field(5), 2),
    lambda: paraboloid(make_field(5), 3),
    lambda: cone(make_field(7)),
    lambda: moment_curve(make_field(7), 3),
])
def test_extension_two_paths_agree(make):
    surface = make()
    rng = np.random.default_rng(surface.size)
    g = SurfaceFunction(
        surface, rng.standard_normal(surface.size) + 1j * rng.standard_normal(surface.size)
    )
    fast = extension(g).values
    slow = extension_direct(g).values
    assert np.abs(fast - slow).max() < 1e-10 * max(1.0, np.abs(slow).max())


def test_extension_of_delta_is_character_wave(f5):
    surface = paraboloid(f5, 2)
    g = SurfaceFunction.delta(surface, 2)
    u = extension(g).values
    pt = tuple(int(c) for c in surface.points[2])
    e = f5.character
    for x_flat in range(25):
        x = index_point(f5, 2, x_flat)
        expect = e[f5.dot(x, pt)] / surface.size
        assert abs(u[x_flat] - expect) < 1e-12


def test_adjointness(f7):
    surface = paraboloid(f7, 2)
    rng = np.random.default_rng(4)
    g = SurfaceFunction(surface, rng.standard_normal(7) + 1j * rng.standard_normal(7))
    h = Grid.random(f7, 2, rng)
    lhs = np.sum(extension(g).values * np.conj(h.values))
    rhs = surface_inner(g, restriction(fourier_forward(h), surface))
    assert abs(lhs - rhs) < 1e-9


def test_restriction_two_paths_agree(f5):
    surface = paraboloid(f5, 3)
    rng = np.random.default_rng(8)
    f = Grid.random(f5, 3, rng)
    a = restriction(fourier_forward(f), surface).values
    b = restriction_direct(f, surface).values
    assert np.abs(a - b).max() < 1e-9


def test_restriction_requires_frequency_side(f5):
    surface = paraboloid(f5, 2)
    with pytest.raises(WrongSurfaceKindError):
        restriction(Grid.constant(f5, 2, 1.0, Side.SPACE), surface)


def test_surface_norms(f5):
    surface = paraboloid(f5, 2)
    one = SurfaceFunction.constant(surface)
    assert surface_lp_norm(one, 2) == pytest.approx(1.0)
    assert surface_lp_norm(one, math.inf) == 1.0
    d = SurfaceFunction.delta(surface)
    assert surface_lp_norm(d, 1) == pytest.approx(1 / 5)


# -- kernels --------------------------------------------------------------------------


def test_gauss_sum_values(f7):
    assert gauss_sum(f7, 0) == pytest.approx(7.0)
    for x in range(1, 7):
        assert abs(gauss_sum(f7, x)) ** 2 == pytest.approx(7.0, abs=1e-9)


def test_f3_kernel_hand_value():
    # at x = (0, 1) the kernel is (1/3) sum_t e(t^2) = (1/3)(1 + 2 e(1)) = i/sqrt(3)
    f3 = make_field(3)
    surface = paraboloid(f3, 2)
    kern = extension(SurfaceFunction.constant(surface)).values
    direct = sum(f3.character[f3.dot((0, 1), (t, f3.mul(t, t)))] for t in range(3)) / 3
    assert abs(kern[point_index(f3, (0, 1))] - direct) < 1e-12
    assert abs(direct - 1j * math.sqrt(3) / 3) < 1e-12


@pytest.mark.parametrize("p,n", [(5, 2), (7, 3)])
def test_kernel_closed_form(p, n):
    assert paraboloid_kernel_formula_check(make_field(p), n) < 1e-12


def test_bochner_riesz_vanishes_at_origin(f7):
    k = bochner_riesz_kernel(paraboloid(f7, 2))
    assert abs(k.values[0]) < 1e-12


def test_fourier_dimension_values(f7):
    assert fourier_dimension(paraboloid(f7, 3)) == pytest.approx(2.0, abs=1e-9)
    # cone kernel peaks at 1/6 off the origin, giving 2 log 6 / log 7
    assert fourier_dimension(cone(f7)) == pytest.approx(2 * math.log(6) / math.log(7), abs=1e-9)
    kern = bochner_riesz_kernel(cone(f7))
    assert np.abs(kern.values).max() == pytest.approx(1 / 6, abs=1e-12)
    line = custom_variety(f7, 2, [lambda f, c: c[:, 1]])
    assert fourier_dimension(line) == pytest.approx(0.0, abs=1e-9)
    everything = custom_variety(f7, 1, [])  # kernel vanishes identically
    with pytest.raises(DegenerateKernelError):
        fourier_dimension(everything)


def test_galilean_invariance(f5):
    surface = paraboloid(f5, 3)
    rng = np.random.default_rng(11)
    g = SurfaceFunction(surface, rng.standard_normal(25) + 1j * rng.standard_normal(25))
    moved = galilean_transform(g, (2, 3))
    assert moved.surface is surface
    for q in (2, 4, math.inf):
        assert lp_norm(extension(moved), q) == pytest.approx(lp_norm(extension(g), q))


# -- tuple sums -----------------------------------------------------------------------


def pair_sum_oracle(surface, field) -> int:
    """max_eta #{(a, b) on S x S : a + b = eta} by explicit loops."""
    from collections import Counter

    counts = Counter()
    pts = [tuple(int(c) for c in row) for row in surface.points]
    for a in pts:
        for b in pts:
            counts[tuple(field.add(x, y) for x, y in zip(a, b))] += 1
    return max(counts.values())


def test_pair_sums_against_oracle(f5, f7):
    surface = paraboloid(f5, 2)
    assert surface_sum_max(surface, 2) == pair_sum_oracle(surface, f5) == 2
    surface = paraboloid(f7, 3)
    assert surface_sum_max(surface, 2) == pair_sum_oracle(surface, f7) == 8


def test_tuple_sum_counts_frozen(f5, f7):
    assert surface_sum_max(paraboloid(f5, 2), 2) == 2
    assert surface_sum_max(paraboloid(f7, 3), 2) == 8
    assert surface_sum_max(moment_curve(f7, 3), 3) == 6
    assert surface_sum_max(cone(f7), 2, exclude_zero=True) == 8


def test_tuple_sum_table_mass(f5):
    surface = paraboloid(f5, 2)
    table = surface_sum_table(surface, 2)
    assert table.sum() == surface.size**2
    eta = tuple(int(c) for c in f5.add_arrays(surface.points[1], surface.points[3]))
    assert table[point_index(f5, eta)] >= 1


def test_cone_counterexample_modulus(f7):
    X = cone_counterexample_set(f7)
    assert len(X) == 7 * 6 // 2
    chi = indicator_grid(f7, 3, X, Side.SPACE)
    chihat = fourier_forward(chi).values
    expect = 3.0 * math.sqrt(7.0)
    for xi, u, v in cone(f7).points:
        if u != 0:
            idx = point_index(f7, (int(xi), int(u), int(v)))
            assert abs(abs(chihat[idx]) - expect) < 1e-9
