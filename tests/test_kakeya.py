"""Line families, maximal functions, and direction-set certificates."""

import math
from fractions import Fraction

import numpy as np
import pytest

from fflab import kakeya
from fflab.certificates import certificate_consistency
from fflab.errors import (
    BudgetExceededError,
    ConstraintViolatedError,
    DegenerateHeightsError,
    ImproperSlopeError,
    NonZeroRequiredError,
    NotInjectiveError,
    NotQuadraticExtensionError,
    UnknownWitnessError,
    UnsupportedDimensionError,
)
from fflab.field import make_field
from fflab.grid import Grid, Side, flat_points
from fflab.kakeya import (
    LineSpec,
    besicovitch_2d,
    cordoba_check,
    direction_lp_norm,
    heisenberg_example,
    incidence_chain_counts,
    incidence_count,
    incidence_to_kakeya_exponents,
    kakeya_maximal,
    kakeya_maximal_direct,
    kakeya_norm_certificates,
    kakeya_upper_overlap,
    line_flat_points,
    line_points,
    line_sum_grid,
    lines_from_text,
    lines_to_text,
    points_from_text,
    points_to_text,
    recheck_lower,
    slices_construction,
    slope_projections,
    variety_besicovitch_probe,
    verify_besicovitch,
    verify_lower,
    wolff_axiom_check,
)


# -- lines and text round trips --------------------------------------------------------


def test_line_points(f7):
    ln = LineSpec((3,), (2,))
    pts = line_points(f7, ln)
    assert pts.shape == (7, 2)
    for t in range(7):
        assert tuple(int(c) for c in pts[t]) == (f7.add(3, f7.mul(2, t)), t)
    assert ln.dim == 2
    with pytest.raises(ValueError):
        LineSpec((1, 2), (3,))


def test_text_round_trips(f5):
    pts = f5.grid_coords(2)[[3, 7, 11]]
    text = points_to_text(pts)
    back = points_from_text("# comment\n" + text + "\n\n")
    assert np.array_equal(back, pts)
    lines = [LineSpec((1, 2), (3, 4)), LineSpec((0, 0), (1, 0))]
    assert lines_from_text(lines_to_text(lines)) == lines


# -- direction-complete sets -----------------------------------------------------------


def test_besicovitch_sizes_all_odd_primes():
    for p in (3, 5, 7, 11, 13):
        field = make_field(p)
        wit = besicovitch_2d(field)
        assert wit.size == (p * p + p) // 2
        ok, missing, _ = verify_besicovitch(field, 2, wit.flat)
        assert ok and not missing


def test_besicovitch_lines_inside(f7):
    wit = besicovitch_2d(f7)
    on = set(int(x) for x in wit.flat)
    lines = wit.lines()
    assert len(lines) == 7
    for ln in lines:
        assert all(int(x) in on for x in line_flat_points(f7, ln))
    assert "\n" in wit.assignment_text()


def test_verify_besicovitch_detects_gaps(f7):
    wit = besicovitch_2d(f7)
    damaged = wit.flat[1:]  # drop one point
    ok, missing, assignment = verify_besicovitch(f7, 2, damaged)
    assert not ok and missing
    assert np.any(assignment < 0)


def besicovitch_oracle(field, n, flat):
    """Smallest flat base point of a contained line per direction, or -1."""
    q = field.order
    members = set(int(x) for x in flat)
    coords = [tuple(int(c) for c in row) for row in field.grid_coords(n - 1)]
    out = []
    for v in coords:
        hit = -1
        for xf, x0 in enumerate(coords):
            if all(
                sum(field.add(x0[j], field.mul(v[j], t)) * q**j for j in range(n - 1))
                + t * q ** (n - 1) in members
                for t in range(q)
            ):
                hit = xf
                break
        out.append(hit)
    return out


def test_verify_besicovitch_against_oracle(f5, f7):
    rng = np.random.default_rng(11)
    cases = [
        (f7, 2, besicovitch_2d(f7).flat[1:]),
        (f5, 3, np.flatnonzero(rng.random(5**3) < 0.5)),
    ]
    for field, n, flat in cases:
        expected = besicovitch_oracle(field, n, flat)
        ok, missing, assignment = verify_besicovitch(field, n, flat)
        assert assignment.tolist() == expected
        assert missing == [vf for vf, x in enumerate(expected) if x < 0]
        assert ok == (not missing)
        assert missing and len(missing) < len(expected)  # both outcomes occur


def test_variety_probe(f5):
    # {x = 0} misses every slanted direction
    ok, missing, _ = variety_besicovitch_probe(f5, 2, [lambda f, c: c[:, 0]])
    assert not ok and len(missing) == 4
    # two zero sets whose union is the full plane
    ok2, missing2, _ = variety_besicovitch_probe(
        f5, 2,
        [lambda f, c: c[:, 0], lambda f, c: np.where(c[:, 0] == 0, 1, 0)],
    )
    assert ok2 and not missing2
    with pytest.raises(NonZeroRequiredError):
        variety_besicovitch_probe(f5, 2, [lambda f, c: np.zeros(len(c), dtype=np.int64)])


# -- maximal function ------------------------------------------------------------------


def test_maximal_hand_example():
    f3 = make_field(3)
    vals = np.zeros(9, dtype=np.complex128)
    vals[flat_points(f3, np.array([[0, 0], [1, 1], [2, 2]]))] = 1.0
    star = kakeya_maximal(Grid(f3, 2, vals, Side.SPACE))
    assert star.tolist() == [1.0, 3.0, 1.0]
    assert direction_lp_norm(f3, 2, star, math.inf) == 3.0
    assert direction_lp_norm(f3, 2, star, 2) == pytest.approx(math.sqrt(11 / 3))


def test_maximal_of_point_mass(f5):
    star = kakeya_maximal(Grid.delta(f5, 3))
    assert star.shape == (25,)
    assert np.all(star == 1.0)


@pytest.mark.parametrize("n", [2, 3])
def test_maximal_paths_agree(f5, n):
    rng = np.random.default_rng(n)
    f = Grid.random(f5, n, rng)
    assert np.abs(kakeya_maximal(f) - kakeya_maximal_direct(f)).max() < 1e-12


@pytest.mark.parametrize(
    "p, k, n",
    [(5, 1, 2), (5, 1, 3), (5, 1, 4), (7, 1, 2), (7, 1, 3), (7, 1, 4),
     (3, 2, 2), (3, 2, 3), (5, 2, 2), (5, 2, 3)],
)
def test_maximal_paths_identical(p, k, n):
    field = make_field(p, k)
    f = Grid.random(field, n, np.random.default_rng(100 * p + 10 * k + n))
    assert np.array_equal(kakeya_maximal(f), kakeya_maximal_direct(f))


def test_uneven_direction_chunks(monkeypatch, f5, f7):
    rng = np.random.default_rng(5)
    f = Grid.random(f7, 3, rng)
    flat = np.flatnonzero(rng.random(5**3) < 0.5)
    ok, missing, assignment = verify_besicovitch(f5, 3, flat)
    # 49 directions in chunks of 5, then 25 directions in chunks of 7
    monkeypatch.setattr(kakeya, "LINE_TABLE_ENTRIES", 5 * 49)
    assert np.array_equal(kakeya_maximal(f), kakeya_maximal_direct(f))
    monkeypatch.setattr(kakeya, "LINE_TABLE_ENTRIES", 7 * 25)
    chunked = verify_besicovitch(f5, 3, flat)
    assert chunked[:2] == (ok, missing)
    assert np.array_equal(chunked[2], assignment)


def test_recheck_independent_of_line_tables(monkeypatch, f7):
    certs = kakeya_norm_certificates(
        f7, 3, 2, 4, witnesses=("point", "line", "full_space", "random_sets"), count=2
    )

    def refuse(*args, **kwargs):
        raise AssertionError("the recheck must not build line tables")

    monkeypatch.setattr(kakeya, "_line_table", refuse)
    monkeypatch.setattr(kakeya, "_direction_chunks", refuse)
    with pytest.raises(AssertionError):
        kakeya_maximal(Grid.delta(f7, 3))
    assert all(verify_lower(c) for c in certs)


def test_maximal_horizontal_row(f5):
    f = Grid.constant(f5, 2, 1.0)
    star = kakeya_maximal(f, include_horizontal=True)
    assert star.shape == (6,)
    assert np.all(star == 5.0)
    with pytest.raises(UnsupportedDimensionError):
        kakeya_maximal(Grid.constant(f5, 3, 1.0), include_horizontal=True)


def test_maximal_budget_gate():
    f = Grid.constant(make_field(37), 4, 1.0)
    with pytest.raises(BudgetExceededError):
        kakeya_maximal(f)


# -- certificates ----------------------------------------------------------------------


def test_witness_certificates_frozen(f7):
    certs = kakeya_norm_certificates(
        f7, 2, 2, 2, witnesses=("point", "line", "full_space", "besicovitch_indicator")
    )
    by_name = {c.meta["witness_name"]: c for c in certs}
    assert by_name["point"].value == pytest.approx(1.0, rel=1e-12)
    assert by_name["line"].value == pytest.approx(math.sqrt(55) / 7, rel=1e-12)
    assert by_name["line"].meta["formula_value"] == pytest.approx(1.0)
    assert by_name["full_space"].value == pytest.approx(1.0, rel=1e-12)
    assert by_name["besicovitch_indicator"].value == pytest.approx(math.sqrt(7) / 2, rel=1e-12)
    for c in certs:
        assert c.value >= c.meta.get("formula_value", 0.0) - 1e-12
        assert verify_lower(c)


def test_random_set_certificates(f5):
    (cert,) = kakeya_norm_certificates(f5, 2, 2, 2, witnesses=("random_sets",), seed=3, count=4)
    assert cert.meta["tried"] == 4
    assert verify_lower(cert)
    again = kakeya_norm_certificates(f5, 2, 2, 2, witnesses=("random_sets",), seed=3, count=4)
    assert repr(again[0].value) == repr(cert.value)


def test_certificate_rejections(f7):
    with pytest.raises(UnknownWitnessError):
        kakeya_norm_certificates(f7, 2, 2, 2, witnesses=("nope",))
    with pytest.raises(UnsupportedDimensionError):
        kakeya_norm_certificates(f7, 3, 2, 4, witnesses=("besicovitch_indicator",))
    with pytest.raises(UnknownWitnessError):
        recheck_lower(kakeya_upper_overlap(f7, 2))


def test_overlap_upper_consistency(f7):
    upper = kakeya_upper_overlap(f7, 2)
    assert upper.value == pytest.approx(math.sqrt(2))
    assert (upper.p, upper.q) == (Fraction(2), Fraction(2))
    assert kakeya_upper_overlap(f7, 3).q == Fraction(4)
    lowers = kakeya_norm_certificates(
        f7, 2, 2, 2, witnesses=("point", "line", "full_space", "besicovitch_indicator")
    )
    assert certificate_consistency(lowers + [upper]) == []
    # the explicit construction sits within sqrt(2) of optimal at this pair
    best = max(c.value for c in lowers)
    assert best <= upper.value + 1e-12


# -- line averages ---------------------------------------------------------------------


def test_line_sum_mass(f7):
    wit = besicovitch_2d(f7)
    g = np.arange(1.0, 8.0)
    tg = line_sum_grid(f7, 2, g, wit.assignment)
    assert tg.values.sum().real == pytest.approx(7 * g.sum() / 7)


def test_line_sum_against_per_line_loop(f5, f7):
    rng = np.random.default_rng(2)
    for field, n in ((f7, 2), (f5, 3)):
        m = field.order ** (n - 1)
        coords = field.grid_coords(n - 1)
        g = rng.random(m)
        g[rng.random(m) < 0.3] = 0.0
        g[0] = 0.0
        x0map = rng.integers(0, m, m)
        expected = np.zeros(field.order**n, dtype=np.complex128)
        for vf in range(m):
            if g[vf] != 0:
                line = LineSpec(
                    tuple(int(c) for c in coords[x0map[vf]]), tuple(int(c) for c in coords[vf])
                )
                expected[line_flat_points(field, line)] += g[vf]
        expected /= float(m)
        assert np.array_equal(line_sum_grid(field, n, g, x0map).values, expected)


def test_cordoba_constant_weight_deficit(f7):
    wit = besicovitch_2d(f7)
    deficit = cordoba_check(f7, 2, np.ones(7), wit.assignment)
    assert deficit == pytest.approx(math.sqrt(2) - math.sqrt(13 / 7), abs=1e-12)


def test_cordoba_random_weights(f5, f7):
    rng = np.random.default_rng(0)
    for field in (f5, f7):
        wit = besicovitch_2d(field)
        for _ in range(50):
            g = rng.random(field.order)
            assert cordoba_check(field, 2, g, wit.assignment) >= -1e-9
    with pytest.raises(ValueError):
        cordoba_check(f5, 2, np.array([1.0, -1.0, 0, 0, 0]), besicovitch_2d(f5).assignment)


# -- incidence chains ------------------------------------------------------------------


def test_incidence_count_bound(f7):
    wit = besicovitch_2d(f7)
    rep = incidence_count(f7, wit.points(), wit.lines())
    assert rep.count == 49
    assert rep.point_count == 28 and rep.line_count == 7
    assert rep.satisfied and rep.bound == pytest.approx(math.sqrt(28) * 7 + 28)


def test_chain_counts_two_crossing_lines(f7):
    l1, l2 = LineSpec((0,), (0,)), LineSpec((0,), (1,))
    pts = np.unique(
        np.concatenate([line_points(f7, l1), line_points(f7, l2)]), axis=0
    )
    cc = incidence_chain_counts(f7, pts, [l1, l2])
    assert cc.incidences == 14
    assert cc.angles == 16
    assert cc.nondegenerate_angles == 2
    assert cc.pointed_angles == 12
    assert cc.linked_pairs == 12
    assert cc.nondegenerate_triangles == 0
    assert cc.corner_paths == 72
    assert cc.quadrilaterals == 72
    assert cc.nondegenerate_quadrilaterals == 0
    assert cc.cauchy_ok


def chain_oracle(field, points, lines):
    """The same six counts by quadruple loops, no shared bookkeeping."""
    pset = set(int(x) for x in flat_points(field, points))
    on = [
        [int(x) for x in line_flat_points(field, ln) if int(x) in pset] for ln in lines
    ]

    def joined(a, b):
        return [li for li, row in enumerate(on) if a in row and b in row]

    inc = sum(len(r) for r in on)
    angles = sum(
        1
        for r1 in on
        for r2 in on
        for p in pset
        if p in r1 and p in r2
    )
    pointed = 0
    for l1, r1 in enumerate(on):
        for l2, r2 in enumerate(on):
            if l1 == l2:
                continue
            for p in r1:
                if p in r2:
                    pointed += len(r2) - 1
    linked = 0
    for l1, r1 in enumerate(on):
        for p2 in pset:
            m = sum(
                1
                for pf in r1
                if pf != p2 and any(li != l1 for li in joined(pf, p2))
            )
            linked += m * m
    paths = {}
    for p in pset:
        ls = [li for li, row in enumerate(on) if p in row]
        for l1 in ls:
            for l2 in ls:
                if l1 == l2:
                    continue
                for p1 in on[l1]:
                    if p1 == p:
                        continue
                    for p2 in on[l2]:
                        if p2 == p:
                            continue
                        paths[(p1, p2)] = paths.get((p1, p2), 0) + 1
    corner = sum(paths.values())
    quads = sum(c * c for c in paths.values())
    return inc, angles, pointed, linked, corner, quads


def test_chain_counts_against_oracle(f5):
    rng = np.random.default_rng(9)
    lines = [
        LineSpec((int(a),), (int(b),))
        for a, b in {(rng.integers(5), rng.integers(5)) for _ in range(6)}
    ]
    pts = np.unique(
        np.concatenate(
            [line_points(f5, ln) for ln in lines[:3]]
            + [f5.grid_coords(2)[[2, 11, 17]]]
        ),
        axis=0,
    )
    cc = incidence_chain_counts(f5, pts, lines)
    inc, angles, pointed, linked, corner, quads = chain_oracle(f5, pts, lines)
    assert cc.incidences == inc
    assert cc.angles == angles
    assert cc.pointed_angles == pointed
    assert cc.linked_pairs == linked
    assert cc.corner_paths == corner
    assert cc.quadrilaterals == quads
    assert cc.nondegenerate_angles == angles - inc
    assert cc.nondegenerate_triangles == linked - pointed
    assert cc.nondegenerate_quadrilaterals == quads - corner


def test_chain_rejects_duplicates(f5):
    with pytest.raises(ValueError):
        incidence_chain_counts(f5, np.array([[0, 0], [0, 0]]), [LineSpec((0,), (0,))])
    with pytest.raises(ValueError):
        incidence_chain_counts(
            f5, np.array([[0, 0]]), [LineSpec((0,), (0,)), LineSpec((0,), (0,))]
        )


# -- plane spread ----------------------------------------------------------------------


def coplanar_family():
    return [
        LineSpec((0, 0), (1, 0)),
        LineSpec((1, 0), (2, 0)),
        LineSpec((2, 0), (0, 0)),
        LineSpec((0, 1), (1, 1)),
    ]


def test_wolff_pairs_mode(f5):
    rep = wolff_axiom_check(f5, coplanar_family(), mode="pairs")
    assert rep.max_lines == 3
    assert rep.ratio == pytest.approx(3 / 5)
    assert rep.plane is not None


def test_wolff_exhaustive_agrees(f5):
    fam = coplanar_family()
    assert (
        wolff_axiom_check(f5, fam, "exhaustive").max_lines
        == wolff_axiom_check(f5, fam, "pairs").max_lines
    )
    with pytest.raises(BudgetExceededError):
        wolff_axiom_check(make_field(11), [LineSpec((0, 0), (1, 0))] , "exhaustive")
    with pytest.raises(UnsupportedDimensionError):
        wolff_axiom_check(f5, [LineSpec((0,), (1,))])
    with pytest.raises(ValueError):
        wolff_axiom_check(f5, coplanar_family(), mode="sideways")


# -- quadratic-extension configuration ---------------------------------------------------


def test_heisenberg_frozen(f9):
    rep = heisenberg_example(f9)
    assert rep.point_count == 243
    assert rep.line_count == 96
    assert rep.containment_ok
    assert rep.duplicate_direction is not None
    assert rep.point_ratio == pytest.approx(1.0)
    assert rep.line_ratio == pytest.approx(96 / 81)
    with pytest.raises(NotQuadraticExtensionError):
        heisenberg_example(make_field(7))


def test_heisenberg_point_count_scales():
    rep = heisenberg_example(make_field(5, 2))
    assert rep.point_count == 3125  # |F|^{5/2} = 5^5
    assert rep.containment_ok


# -- slope projections -----------------------------------------------------------------


def test_slope_projections_injective(f7):
    wit = besicovitch_2d(f7)
    rep_pairs = slices_construction(wit, 0, 1, []).pairs
    rep = slope_projections(f7, 2, rep_pairs, [0, 1, "inf"])
    assert rep.size == 7
    assert rep.projection_sizes == {"0": 4, "1": 4, "inf": 4}
    assert rep.alpha_emp == pytest.approx(math.log(7) / math.log(4))
    assert rep.two_slope_ok
    assert rep.dropped_slopes == ()


def test_slope_projections_graph_collides(f7):
    pairs = np.stack(
        [np.arange(7, dtype=np.int64), f7.mul_arrays(np.arange(7), np.arange(7))],
        axis=1,
    )
    with pytest.raises(NotInjectiveError):
        slope_projections(f7, 2, pairs, [0])
    with pytest.warns(UserWarning, match="not injective"):
        rep = slope_projections(f7, 2, pairs, [0, "inf"], require_injective=False)
    assert rep.projection_sizes == {"0": 7, "inf": 4}
    assert rep.two_slope_ok


def test_slope_edge_cases(f7):
    wit = besicovitch_2d(f7)
    pairs = slices_construction(wit, 0, 1, []).pairs
    with pytest.raises(ImproperSlopeError):
        slope_projections(f7, 2, pairs, [-1])
    with pytest.raises(ImproperSlopeError):
        slope_projections(f7, 2, pairs, ["1/7"])
    with pytest.warns(UserWarning, match="collides"):
        rep = slope_projections(f7, 2, pairs, [1, 8])
    assert rep.dropped_slopes == ("8",)
    with pytest.warns(UserWarning, match="difference projection"):
        slope_projections(f7, 2, pairs, [6])


# -- slices ----------------------------------------------------------------------------


def test_slices_frozen(f7):
    wit = besicovitch_2d(f7)
    rep = slices_construction(wit, 0, 1, [0, 1, "inf"])
    assert rep.size == 7 and rep.injective
    heights = {c.slope: c.height for c in rep.checks}
    assert heights == {"0": 0, "1": 4, "inf": 1}
    for c in rep.checks:
        assert c.slice_size == 4
        assert c.projection_size <= c.slice_size
        assert c.dominated


def test_slices_all_height_pairs(f7):
    wit = besicovitch_2d(f7)
    for t0 in range(7):
        for t1 in range(7):
            if t0 == t1:
                continue
            rep = slices_construction(wit, t0, t1, [0, "inf"])
            assert rep.injective
            assert all(c.dominated for c in rep.checks)


def test_slices_rejections(f7):
    wit = besicovitch_2d(f7)
    with pytest.raises(DegenerateHeightsError):
        slices_construction(wit, 2, 2, [0])
    with pytest.raises(ImproperSlopeError):
        slices_construction(wit, 0, 1, [6])  # 6 + 1 = 0 in F_7


# -- exponent calculus -----------------------------------------------------------------


def test_incidence_exponent_map():
    assert incidence_to_kakeya_exponents("1/2", "1/4", "3/4", 3) == (
        Fraction(5, 2),
        Fraction(10, 3),
    )
    assert incidence_to_kakeya_exponents("1/2", "1/4", "3/4", 4) == (
        Fraction(3),
        Fraction(9, 2),
    )
    assert incidence_to_kakeya_exponents(1, 1, 0, 3) == (Fraction(2), Fraction(2))


def test_incidence_exponent_rejections():
    with pytest.raises(ConstraintViolatedError):
        incidence_to_kakeya_exponents(0, 1, 0, 3)
    with pytest.raises(ConstraintViolatedError):
        incidence_to_kakeya_exponents(1, 0, 1, 3)
    with pytest.raises(ConstraintViolatedError):
        incidence_to_kakeya_exponents(1, 1, 2, 3)
    with pytest.raises(ConstraintViolatedError):
        incidence_to_kakeya_exponents("1/4", "1/4", "1/4", 2)
