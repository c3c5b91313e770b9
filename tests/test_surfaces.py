"""Surface measures, extension operators, kernels, and tuple-sum counting."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fflab import grid as grid_module
from fflab import surfaces
from fflab.errors import BudgetExceededError, FFLabError
from fflab.field import Field, make_field
from fflab.grid import Grid, Side, fourier_forward, index_point, lp_norm, point_index
from fflab.surfaces import (
    SurfaceFunction,
    SurfaceKind,
    SurfaceMeasure,
    bochner_riesz_kernel,
    build_surface,
    cone,
    cone_counterexample_set,
    double_paraboloid,
    double_paraboloid_index,
    extension,
    extension_adjoint,
    extension_direct,
    gauss_sum,
    gauss_sum_closed_form,
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


def test_moment_curve_points(f7):
    s = moment_curve(f7, 3)
    assert s.size == 7
    for t in range(7):
        expect = (t, f7.mul(t, t), f7.mul(t, f7.mul(t, t)))
        assert tuple(int(c) for c in s.points[t]) == expect
    with pytest.raises(FFLabError, match="moment curve in dimension 3 needs characteristic > 3"):
        moment_curve(make_field(3), 3)


def test_double_paraboloid_index(f5):
    s = double_paraboloid(f5, 2)
    assert s.size == 25
    for eta in range(5):
        for theta in range(5):
            idx = double_paraboloid_index(f5, 2, eta, theta)
            row = s.points[idx]
            assert int(row[0]) == eta and int(row[2]) == theta


def custom_variety(field, n, polynomials):
    """Common zero set of polynomial callables p(field, coords) -> values."""
    coords = field.grid_coords(n)
    keep = np.ones(coords.shape[0], dtype=bool)
    for poly in polynomials:
        keep &= np.asarray(poly(field, coords), dtype=np.int64) == 0
    return SurfaceMeasure(field, n, coords[keep], SurfaceKind.CUSTOM, "custom")


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
    with pytest.raises(ValueError, match="no builder"):
        build_surface("custom", f7, 2)


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


def _circle_cone(field):
    """x0^2 + x1^2 = x2^2: zero, one or two points over each (x0, x1)."""
    def sq(c):
        return field.mul_arrays(c, c)

    return custom_variety(
        field, 3,
        [lambda f, c: f.sub_arrays(f.add_arrays(sq(c[:, 0]), sq(c[:, 1])), sq(c[:, 2]))],
    )


def cone_with_origin(field):
    """The cone's points and the origin, a custom surface: its vertex head (0, 0)
    holds |F| points, one more than the cone's."""
    pts = np.concatenate([cone(field).points, np.zeros((1, 3), dtype=np.int64)])
    return SurfaceMeasure(field, 3, pts, SurfaceKind.CUSTOM, "cone with origin")


PLAN_SURFACES = {
    "paraboloid": lambda f: paraboloid(f, 3),
    "parabola": lambda f: paraboloid(f, 2),
    "cone": cone,
    "cone_with_origin": cone_with_origin,
    "moment_curve": lambda f: moment_curve(f, 3 if f.p > 3 else 2),
    "double_paraboloid": lambda f: double_paraboloid(f, 2),
    "custom": _circle_cone,
}


# (p, k, factored): factored fields are built with DENSE_MAX_ORDER lowered to 1
PLAN_FIELDS = [(5, 1, False), (7, 1, False), (3, 2, False), (3, 2, True), (5, 2, True), (3, 3, True)]
PLAN_CASES = [
    pytest.param(pk, name, id=f"pk{i}-{name}")
    for i, pk in enumerate(PLAN_FIELDS)
    for name in sorted(PLAN_SURFACES)
]


@pytest.mark.parametrize("pk,name", PLAN_CASES)
def test_plan_matches_direct_paths(monkeypatch, pk, name):
    p, k, factored = pk
    field = _factored_field(p, k, monkeypatch) if factored else make_field(p, k)
    surface = PLAN_SURFACES[name](field)
    rng = np.random.default_rng(surface.size)
    g = SurfaceFunction(
        surface, rng.standard_normal(surface.size) + 1j * rng.standard_normal(surface.size)
    )
    slow = extension_direct(g).values
    assert np.abs(extension(g).values - slow).max() <= 1e-12 * max(1.0, np.abs(slow).max())
    f = Grid.random(field, surface.n, rng)
    slow = restriction_direct(f, surface).values
    fast = extension_adjoint(f, surface).values
    assert np.abs(fast - slow).max() <= 1e-12 * max(1.0, np.abs(slow).max())


def _factored_field(p, k, monkeypatch):
    """F_{p^k} built afresh (kernels are cached on the field object) with the
    factored transform kernel."""
    monkeypatch.setattr(grid_module, "DENSE_MAX_ORDER", 1)
    field = Field(p, k)
    assert grid_module._transform_matrices(field).digits == k
    return field


def character_table(surface):
    """E[x, s] = e(x.s) over every x in F^n (flat order) and surface point s,
    one scalar Field.dot per entry: no array arithmetic and no transform."""
    field = surface.field
    pts = [tuple(int(c) for c in row) for row in surface.points]
    table = np.empty((field.order**surface.n, len(pts)), dtype=np.complex128)
    for x_flat in range(len(table)):
        x = index_point(field, surface.n, x_flat)
        for i, s in enumerate(pts):
            table[x_flat, i] = field.character[field.dot(x, s)]
    return table


ORACLE_SURFACES = {
    "F5-parabola": lambda mp: paraboloid(make_field(5), 2),
    "F5-paraboloid": lambda mp: paraboloid(make_field(5), 3),
    "F7-cone": lambda mp: cone(make_field(7)),
    "F9-paraboloid": lambda mp: paraboloid(make_field(3, 2), 3),
    "F27-factored-moment-curve": lambda mp: moment_curve(_factored_field(3, 3, mp), 2),
}


@pytest.mark.parametrize("name", sorted(ORACLE_SURFACES))
def test_direct_sums_against_scalar_oracle(monkeypatch, name):
    surface = ORACLE_SURFACES[name](monkeypatch)
    table = character_table(surface)
    rng = np.random.default_rng(surface.size)
    g = SurfaceFunction(
        surface, rng.standard_normal(surface.size) + 1j * rng.standard_normal(surface.size)
    )
    f = Grid.random(surface.field, surface.n, rng)
    ext_expect = table @ g.values / surface.size
    res_expect = np.conj(table).T @ f.values
    # default blocks, then one surface point per block so every boundary shows
    for entries in (grid_module.BLOCK_ENTRIES, 2):
        monkeypatch.setattr(grid_module, "BLOCK_ENTRIES", entries)
        ext = extension_direct(g).values
        res = restriction_direct(f, surface).values
        np.testing.assert_allclose(ext, ext_expect, rtol=0, atol=1e-12)
        np.testing.assert_allclose(res, res_expect, rtol=0, atol=1e-11)


@pytest.mark.parametrize("make", [
    lambda: cone(make_field(7)),
    lambda: paraboloid(make_field(3, 2), 3),
    lambda: double_paraboloid(make_field(5), 2),
])
def test_direct_sums_with_a_short_last_block(monkeypatch, make):
    # blocks of 10 points leave a short last block on each of these (48, 81
    # and 25 points); the block split must not change the sums
    surface = make()
    width = surface.field.order ** (surface.n - 1)
    rng = np.random.default_rng(11)
    g = SurfaceFunction(
        surface, rng.standard_normal(surface.size) + 1j * rng.standard_normal(surface.size)
    )
    f = Grid.random(surface.field, surface.n, rng)
    whole_ext = extension_direct(g).values
    whole_res = restriction_direct(f, surface).values
    monkeypatch.setattr(grid_module, "BLOCK_ENTRIES", 10 * width + 1)
    cuts = list(grid_module.blocks(surface.size, width, floor=width * surface.field.order))
    assert len(cuts) > 1 and 0 < cuts[-1].stop - cuts[-1].start < 10
    scale = max(1.0, np.abs(whole_res).max())
    np.testing.assert_allclose(extension_direct(g).values, whole_ext, rtol=0, atol=1e-13)
    np.testing.assert_allclose(restriction_direct(f, surface).values, whole_res,
                               rtol=0, atol=1e-13 * scale)


def test_direct_blocks_hold_the_whole_grid(monkeypatch):
    # every block writes or reads all |F|^n entries, so a block holds at least
    # |F|^n / |F|^{n-1} = |F| points however small BLOCK_ENTRIES is: the 25
    # points of the 4-D double paraboloid over F_5 make 5 blocks of 5
    surface = double_paraboloid(make_field(5), 2)
    rng = np.random.default_rng(12)
    g = SurfaceFunction(
        surface, rng.standard_normal(surface.size) + 1j * rng.standard_normal(surface.size)
    )
    f = Grid.random(surface.field, surface.n, rng)
    monkeypatch.setattr(grid_module, "BLOCK_ENTRIES", 2**30)
    one_ext = extension_direct(g).values
    one_res = restriction_direct(f, surface).values
    sizes = []

    def recorded(*args, **kwargs):
        cuts = list(grid_module.blocks(*args, **kwargs))
        sizes.append([s.stop - s.start for s in cuts])
        return cuts

    monkeypatch.setattr(grid_module, "BLOCK_ENTRIES", 1)
    monkeypatch.setattr(surfaces, "blocks", recorded)
    ext = extension_direct(g).values
    res = restriction_direct(f, surface).values
    assert sizes == [[5] * 5, [5] * 5]
    np.testing.assert_allclose(ext, one_ext, rtol=0, atol=1e-13)
    np.testing.assert_allclose(res, one_res, rtol=0, atol=1e-13 * np.abs(one_res).max())


def lift_oracle(surface, values, merge=True):
    """``_extend_rows`` with every point through one ``reduceat`` over all head
    runs, as one dense write; merge=False drops the reduction, so the last
    point of a shared head overwrites the others."""
    fld, n, q = surface.field, surface.n, surface.field.order
    kernel = grid_module._transform_matrices(fld)
    coords = surface.points[:, : n - 1]
    heads = grid_module.flat_points(fld, coords if kernel.perm is None else kernel.perm[coords])
    order = np.argsort(heads, kind="stable")
    heads = heads[order]
    tau = surface.points[order, n - 1]
    wave = fld.character[fld.mul_arrays(np.arange(q)[:, None], tau[None, :])]
    cols = wave * (1.0 / surface.size) * values[:, None, order]
    dense = np.zeros((len(values), q, q ** (n - 1)), dtype=np.complex128)
    if merge:
        first = np.flatnonzero(np.concatenate([[True], heads[1:] != heads[:-1]]))
        dense[:, :, heads[first]] = np.add.reduceat(cols, first, axis=2)
    else:
        dense[:, :, heads] = cols
    out = grid_module.transform_axes(dense, kernel.plus, kernel.size, (n - 1) * kernel.digits)
    return out.reshape(q ** (n - 1), len(values), q)


def _square_sum(f, c):
    """x_2^2 - (x_0 + x_1): two points on each head whose sum is a nonzero square."""
    return f.sub_arrays(f.mul_arrays(c[:, 2], c[:, 2]), f.add_arrays(c[:, 0], c[:, 1]))


LIFT_SURFACES = {
    "cone F_5": lambda mp: cone(make_field(5)),
    "cone F_5 with origin": lambda mp: cone_with_origin(make_field(5)),
    "cone F_7": lambda mp: cone(make_field(7)),
    "cone F_7 with origin": lambda mp: cone_with_origin(make_field(7)),
    "cone F_13": lambda mp: cone(make_field(13)),
    "cone F_13 with origin": lambda mp: cone_with_origin(make_field(13)),
    "factored cone F_25": lambda mp: cone(_factored_field(5, 2, mp)),
    "x_2^2 = x_0 + x_1 over F_7": lambda mp: custom_variety(make_field(7), 3, [_square_sum]),
    # every head shared: no point is alone on its head
    "x_2^2 = 1 over F_5": lambda mp: custom_variety(
        make_field(5), 3, [lambda f, c: f.sub_arrays(f.mul_arrays(c[:, 2], c[:, 2]), 1)]
    ),
}


@pytest.mark.parametrize("rows", [1, 3, 7])
@pytest.mark.parametrize("name", sorted(LIFT_SURFACES))
def test_lift_matches_the_all_points_reduction(monkeypatch, name, rows):
    surface = LIFT_SURFACES[name](monkeypatch)
    plan = surfaces._transform_plan(surface)
    assert len(plan.shared_heads) >= 1
    rng = np.random.default_rng(rows)
    g = rng.standard_normal((rows, surface.size)) + 1j * rng.standard_normal((rows, surface.size))
    lifted = surfaces._extend_rows(surface, g)
    assert np.array_equal(lifted, lift_oracle(surface, g))
    # the oracle without the shared-head sums is wrong, so the comparison sees them
    assert not np.array_equal(lifted, lift_oracle(surface, g, merge=False))


def test_lift_splits_the_cone_at_its_vertex_head():
    # only the head (0, 0) is shared: |F| - 1 points, |F| with the origin
    for surface, shared in ((cone(make_field(13)), 12), (cone_with_origin(make_field(13)), 13)):
        plan = surfaces._transform_plan(surface)
        assert plan.shared_heads.tolist() == [0] and plan.shared_starts.tolist() == [0]
        assert len(plan.shared) == shared and len(plan.single) == 13 * 12
        assert np.all(surface.points[plan.shared, :2] == 0)


@pytest.mark.parametrize("pk", [(13, 2), (3, 5)])
def test_stacked_rows_are_adjoint_in_the_rotated_layout(pk):
    # factored kernels: F_{13^2} and F_{3^5}, paraboloid n = 2, three stacked rows
    surface = paraboloid(make_field(*pk), 2)
    q, rows = surface.field.order, 3
    rng = np.random.default_rng(q)
    g = rng.standard_normal((rows, surface.size)) + 1j * rng.standard_normal((rows, surface.size))
    h = rng.standard_normal((q, rows, q)) + 1j * rng.standard_normal((q, rows, q))
    u = surfaces._extend_rows(surface, g)
    assert u.shape == (q, rows, q)
    back = surfaces._adjoint_rows(surface, h)
    lhs = np.einsum("hbl,hbl->b", u, np.conj(h))
    rhs = np.mean(g * np.conj(back), axis=1)
    np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=0)
    for b in range(rows):
        grid = extension(SurfaceFunction(surface, g[b])).values.reshape(q, q)  # (last, head)
        np.testing.assert_allclose(u[:, b], grid.T, rtol=0, atol=1e-12)
        space = Grid(surface.field, 2, h[:, b].T.reshape(-1), Side.SPACE)
        np.testing.assert_allclose(back[b], extension_adjoint(space, surface).values,
                                   rtol=0, atol=1e-9)


def test_adjoint_requires_space_side(f5):
    with pytest.raises(FFLabError, match="the extension adjoint expects a space-side grid"):
        extension_adjoint(Grid.constant(f5, 2, 1.0, Side.FREQUENCY), paraboloid(f5, 2))


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
    with pytest.raises(FFLabError, match="restriction expects a frequency-side grid"):
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


@pytest.mark.parametrize("p,k", [(7, 1), (3, 2), (23, 2)])
def test_gauss_sum_array_matches_scalar(p, k):
    field = make_field(p, k)
    xs = np.arange(field.order)
    scalar = np.array([gauss_sum(field, int(x)) for x in xs])
    assert np.array_equal(gauss_sum(field, xs), scalar)
    assert np.array_equal(gauss_sum(field, xs[:6].reshape(2, 3)), scalar[:6].reshape(2, 3))


def gauss_sum_oracle(field):
    """Every S(x) = sum_t e(x t^2) summed directly over t: O(|F|^2), no transform."""
    t = np.arange(field.order, dtype=np.int64)
    squares = field.mul_arrays(t, t)
    return np.array([field.character[field.mul_arrays(squares, x)].sum() for x in t])


@pytest.mark.parametrize("p,k", [(7, 1), (3, 2), (23, 2), (61, 2), (3, 5), (509, 1)])
def test_gauss_sum_against_direct_sums_and_closed_form(p, k):
    # F_{61^2} and F_{3^5} take the factored kernel, F_509 the dense prime one
    field = make_field(p, k)
    xs = np.arange(field.order)
    oracle = gauss_sum_oracle(field)
    assert np.abs(gauss_sum(field, xs) - oracle).max() <= 1e-9
    assert np.abs(gauss_sum_closed_form(field, xs) - oracle).max() <= 1e-9


def test_gauss_sum_closed_form_signs():
    # S(1) = i sqrt(3) over F_3, -i sqrt(27) over F_{3^3}, sqrt(5) over F_5, -9 over
    # F_{3^4} and 7 over F_{7^2}; a non-square flips the sign and S(0) = |F|
    for (p, k), s1 in {
        (3, 1): 1j * math.sqrt(3), (3, 3): -1j * math.sqrt(27), (5, 1): math.sqrt(5),
        (3, 4): -9.0, (7, 2): 7.0,
    }.items():
        field = make_field(p, k)
        nonsquare = int(np.argmin(field.squares))
        assert gauss_sum_closed_form(field, 1) == pytest.approx(s1, abs=1e-12)
        assert gauss_sum_closed_form(field, nonsquare) == pytest.approx(-s1, abs=1e-12)
        assert gauss_sum_closed_form(field, 0) == field.order
        assert gauss_sum_closed_form(field, np.array([[0, 1]])).shape == (1, 2)


def test_paraboloid_kernel_check_uses_no_transformed_gauss_sum(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the closed form side ran a transform")

    monkeypatch.setattr(surfaces, "gauss_sum", refuse)
    monkeypatch.setattr(surfaces, "fourier_forward", refuse)
    for p, n in ((5, 2), (7, 3), (3, 3)):
        assert paraboloid_kernel_formula_check(make_field(p), n) <= 1e-9


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


def test_bochner_riesz_kernel_peak_values(f7):
    # max |K| off the origin, the decay constant A of a Tomas-Stein bound
    for p, k, n in [(5, 1, 2), (7, 1, 3), (3, 1, 4), (3, 2, 3), (5, 2, 2), (13, 1, 3)]:
        field = make_field(p, k)
        peak = np.abs(bochner_riesz_kernel(paraboloid(field, n)).values).max()
        assert peak == pytest.approx(field.order ** (-(n - 1) / 2), rel=1e-12)
    assert np.abs(bochner_riesz_kernel(cone(f7)).values).max() == pytest.approx(1 / 6, abs=1e-12)
    line = custom_variety(f7, 2, [lambda f, c: c[:, 1]])
    assert np.abs(bochner_riesz_kernel(line).values).max() == pytest.approx(1.0, abs=1e-12)
    everything = custom_variety(f7, 1, [])  # kernel vanishes identically
    assert np.abs(bochner_riesz_kernel(everything).values).max() < 1e-12


# -- tuple sums -----------------------------------------------------------------------


def pair_sum_counts(surface, field):
    """#{(a, b) on S x S : a + b = eta} for every eta, by explicit loops."""
    from collections import Counter

    counts = Counter()
    pts = [tuple(int(c) for c in row) for row in surface.points]
    for a in pts:
        for b in pts:
            counts[tuple(field.add(x, y) for x, y in zip(a, b))] += 1
    return counts


def pair_sum_oracle(surface, field) -> int:
    """max_eta #{(a, b) on S x S : a + b = eta} by explicit loops."""
    return max(pair_sum_counts(surface, field).values())


def test_pair_sums_against_oracle(f5, f7):
    surface = paraboloid(f5, 2)
    assert surface_sum_max(surface, 2) == pair_sum_oracle(surface, f5) == 2
    surface = paraboloid(f7, 3)
    assert surface_sum_max(surface, 2) == pair_sum_oracle(surface, f7) == 8


@pytest.mark.parametrize("entries", [1, 2**10, 2**16])
@pytest.mark.parametrize("make", [
    lambda: paraboloid(make_field(5), 3),
    lambda: cone(make_field(5)),
    lambda: paraboloid(make_field(7), 3),
    lambda: cone(make_field(7)),
])
def test_pair_table_against_oracle_across_chunks(monkeypatch, make, entries):
    # chunks of max(entries, |F|^n) // |S| first points: even chunks, a
    # short last chunk (the cones), or every point in one chunk
    surface = make()
    field = surface.field
    expect = np.zeros(field.order**surface.n, dtype=np.int64)
    for eta, count in pair_sum_counts(surface, field).items():
        expect[point_index(field, eta)] = count
    monkeypatch.setattr(grid_module, "BLOCK_ENTRIES", entries)
    table = surfaces._pair_table(surface)
    assert table.dtype == np.int64
    assert np.array_equal(table, expect)


def test_pair_table_peak_stays_chunked():
    # all 923,521 pair sums at once peaked at 35.5 MiB; chunks of 2^16 stay
    # within a few MiB
    surface = paraboloid(make_field(31), 3)
    tracemalloc.start()
    try:
        table = surfaces._pair_table(surface)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table.sum() == surface.size**2
    assert peak < 8 * 2**20


def triple_sum_oracle(surface, field):
    """#{(a, b, c) on S^3 : a + b + c = eta} for every eta, by explicit loops."""
    from collections import Counter

    counts = Counter()
    pts = [tuple(int(c) for c in row) for row in surface.points]
    for a in pts:
        for b in pts:
            ab = tuple(field.add(x, y) for x, y in zip(a, b))
            for c in pts:
                counts[tuple(field.add(x, y) for x, y in zip(ab, c))] += 1
    return counts


@pytest.mark.parametrize("make", [
    lambda: paraboloid(make_field(7), 2),
    lambda: paraboloid(make_field(5), 3),
    lambda: cone(make_field(5)),
    lambda: paraboloid(make_field(3, 2), 2),
])
def test_triple_sums_against_oracle(monkeypatch, make):
    surface = make()
    field = surface.field
    table = surface_sum_table(surface, 3)
    expect = np.zeros_like(table)
    for eta, count in triple_sum_oracle(surface, field).items():
        expect[point_index(field, eta)] = count
    assert table.dtype == np.int64
    assert np.array_equal(table, expect)
    # shifts gathered 4 surface points at a time: the last chunk is short
    monkeypatch.setattr(grid_module, "BLOCK_ENTRIES", 4 * field.order**surface.n)
    assert np.array_equal(surface_sum_table(surface, 3), expect)


def test_triple_budget_refuses_before_pair_table(monkeypatch, f5):
    surface = paraboloid(f5, 3)
    work = 25**2 + 25 * 5**3  # |S|^2 pair sums + |S| |F|^n shifted reads
    assert surface_sum_table(surface, 3, budget=work).sum() == 25**3
    assert surface_sum_table(surface, 2, budget=25**2).sum() == 25**2
    with pytest.raises(BudgetExceededError, match=r"\|S\|\^2 = 625 exceeds the budget 624"):
        surface_sum_table(surface, 2, budget=25**2 - 1)

    def refuse(*args, **kwargs):
        raise AssertionError("the budget must refuse before the pair table is built")

    monkeypatch.setattr(surfaces, "_pair_table", refuse)
    with pytest.raises(BudgetExceededError):
        surface_sum_table(surface, 3, budget=work - 1)
    with pytest.raises(AssertionError):
        surface_sum_table(surface, 3, budget=work)


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
