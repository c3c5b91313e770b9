"""Line families, maximal functions, and direction-set certificates."""

import dataclasses
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from fflab import grid, kakeya
from fflab.certificates import certificate_consistency
from fflab.errors import BudgetExceededError, FFLabError, NoClosedFormError
from fflab.field import Field, make_field
from fflab.grid import Grid, Side, flat_points, lp_norm, mean_lp_norm
from fflab.kakeya import (
    besicovitch_2d,
    cordoba_check,
    heisenberg_example,
    incidence_chain_counts,
    incidence_count,
    incidence_to_kakeya_exponents,
    kakeya_maximal,
    kakeya_maximal_direct,
    kakeya_norm_certificates,
    kakeya_upper_overlap,
    line_flats,
    line_sum_grid,
    recheck_lower,
    slices_construction,
    slope_projections,
    verify_besicovitch,
    verify_lower,
    verify_lowers,
    wolff_axiom_check,
)
from fflab.surfaces import indicator_grid


# -- lines -----------------------------------------------------------------------------


def test_line_points(f7):
    flats = line_flats(f7, [[3]], [[2]])
    assert flats.shape == (1, 7)
    for t in range(7):
        assert flats[0, t] == flat_points(f7, np.array([f7.add(3, f7.mul(2, t)), t]))
    with pytest.raises(ValueError):
        line_flats(f7, [[1, 2]], [[3]])


def line_flats_oracle(field, x0, v):
    """Flat indices of (x0 + vt, t), line by line and t by t, in scalar arithmetic."""
    q = field.order
    out = []
    for a, b in zip(x0, v):
        n = len(a) + 1
        out.append([
            sum(field.add(int(a[j]), field.mul(int(b[j]), t)) * q**j for j in range(n - 1))
            + t * q ** (n - 1)
            for t in range(q)
        ])
    return out


@pytest.mark.parametrize("p, k, n", [(7, 1, 2), (5, 1, 3), (3, 2, 2), (3, 2, 3)])
def test_line_flats_against_scalar_oracle(p, k, n):
    field = make_field(p, k)
    rng = np.random.default_rng(10 * p + n)
    x0 = rng.integers(field.order, size=(12, n - 1))
    v = rng.integers(field.order, size=(12, n - 1))
    assert line_flats(field, x0, v).tolist() == line_flats_oracle(field, x0, v)
    assert line_flats(field, x0[:0], v[:0]).shape == (0, field.order)


@pytest.mark.parametrize("p, k, n", [(7, 1, 2), (5, 1, 3), (3, 2, 3), (3, 1, 4)])
def test_line_flats_broadcasts_base_points_against_shared_directions(p, k, n):
    field = make_field(p, k)
    rng = np.random.default_rng(p + n)
    x0 = rng.integers(field.order, size=(4, 9, n - 1))  # [trial, line, coordinate]
    v = rng.integers(field.order, size=(9, n - 1))
    flats = line_flats(field, x0, v)
    assert flats.shape == (4, 9, field.order)
    for i in range(4):
        assert flats[i].tolist() == line_flats_oracle(field, x0[i], v)
    # one base point against every direction
    assert line_flats(field, x0[0, :1], v).tolist() == line_flats_oracle(field, x0[0, [0] * 9], v)
    with pytest.raises(ValueError):
        line_flats(field, x0, v[:, :0])  # trailing dimensions differ


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
    coords = f7.grid_coords(1)
    x0, v = coords[wit.assignment[wit.assignment >= 0]], coords[wit.assignment >= 0]
    assert len(x0) == 7
    for row in line_flats(f7, x0, v):
        assert all(int(x) in on for x in row)


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


def test_verify_besicovitch_against_oracle(f5, f7, f9):
    rng = np.random.default_rng(11)
    f25 = make_field(5, 2)
    # over F_{p^k} the height t is a field element, so x0 + vt is not v added t times
    cases = [
        (f7, 2, besicovitch_2d(f7).flat[1:]),
        (f5, 3, np.flatnonzero(rng.random(5**3) < 0.5)),
        (f9, 2, besicovitch_2d(f9).flat[1:]),
        (f25, 2, besicovitch_2d(f25).flat[1:]),
        (f9, 3, np.flatnonzero(rng.random(9**3) < 0.5)),
    ]
    for field, n, flat in cases:
        expected = besicovitch_oracle(field, n, flat)
        ok, missing, assignment = verify_besicovitch(field, n, flat)
        assert assignment.tolist() == expected
        assert missing == [vf for vf, x in enumerate(expected) if x < 0]
        assert ok == (not missing)
        assert missing and len(missing) < len(expected)  # both outcomes occur


def height_slices(field, n, heights):
    """Flats of every point of F^n whose height (last coordinate) is in heights."""
    m = field.order ** (n - 1)
    return np.array([x + t * m for t in heights for x in range(m)], dtype=np.int64)


EDGE_HEIGHTS = {
    "empty": lambda q: [],
    "all": lambda q: range(q),
    "height_0_only": lambda q: [0],
    "no_height_0": lambda q: range(1, q),
    "no_middle_height": lambda q: [t for t in range(q) if t != q // 2],
}


@pytest.mark.parametrize("short_last_block", [False, True])
@pytest.mark.parametrize("shape", sorted(EDGE_HEIGHTS))
def test_verify_besicovitch_edge_sets(monkeypatch, f5, f9, shape, short_last_block):
    for field, n in ((f5, 3), (f9, 2)):
        q, m = field.order, field.order ** (n - 1)
        heights = list(EDGE_HEIGHTS[shape](q))
        flat = height_slices(field, n, heights)
        if short_last_block:  # 7 directions per block: 25 = 7 + 7 + 7 + 4 and 9 = 7 + 2
            width = m if 0 in heights else 1  # the block width is the number of base points
            monkeypatch.setattr(grid, "BLOCK_ENTRIES", 7 * width)
            sizes = [b.stop - b.start for b in grid.blocks(m, width)]
            assert sizes[0] == 7 and 0 < sizes[-1] < 7
        expected = besicovitch_oracle(field, n, flat)
        ok, missing, assignment = verify_besicovitch(field, n, flat)
        assert assignment.tolist() == expected
        assert missing == [vf for vf, x in enumerate(expected) if x < 0]
        assert ok == (not missing)
        # every line meets every height, and 0 is the smallest base point
        assert expected == ([0] * m if shape == "all" else [-1] * m)


@pytest.mark.parametrize("n", [0, 1])
def test_verify_besicovitch_refuses_n_below_2(f5, n):
    # refused before the budget gate, which a budget of 0 would fail for every n
    with pytest.raises(FFLabError, match="need n >= 2"):
        verify_besicovitch(f5, n, np.arange(5), budget=0)


def test_verify_besicovitch_n2_values_on_f5(f5):
    # (ok, missing, assignment) as recorded before the n check was added
    flat = besicovitch_2d(f5).flat
    assert flat.tolist() == [0, 1, 4, 5, 8, 9, 10, 11, 12, 15, 16, 17, 20, 23, 24]
    for sub, want in [
        (flat, (True, [], [0, 4, 1, 1, 4])),
        (flat[1:], (False, [0], [-1, 4, 1, 1, 4])),
        (flat[::2], (False, [0, 1, 2, 3], [-1, -1, -1, -1, 4])),
    ]:
        ok, missing, assignment = verify_besicovitch(f5, 2, sub)
        assert (ok, missing, assignment.tolist()) == want


def test_besicovitch_budget_boundary(f5):
    gathers = 5**5  # |F|^{2n-1} at n = 3: one per point of every line
    flat = np.flatnonzero(np.random.default_rng(4).random(5**3) < 0.5)
    assert verify_besicovitch(f5, 3, flat, budget=gathers)[0] is False
    with pytest.raises(BudgetExceededError, match="3125"):
        verify_besicovitch(f5, 3, flat, budget=gathers - 1)
    # 31^6 membership entries would take 887 MB; 31^11 gathers exceed the default budget
    f31 = make_field(31)
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceededError):
            verify_besicovitch(f31, 6, flat)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


# -- maximal function ------------------------------------------------------------------


def test_maximal_hand_example():
    f3 = make_field(3)
    vals = np.zeros(9, dtype=np.complex128)
    vals[flat_points(f3, np.array([[0, 0], [1, 1], [2, 2]]))] = 1.0
    (star,) = kakeya_maximal(Grid(f3, 2, vals, Side.SPACE))
    assert star.tolist() == [1.0, 3.0, 1.0]
    assert mean_lp_norm(star, math.inf) == 3.0
    assert mean_lp_norm(star, 2) == pytest.approx(math.sqrt(11 / 3))


def test_maximal_of_point_mass(f5):
    (star,) = kakeya_maximal(indicator_grid(f5, 3, [(0, 0, 0)]))
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
    # 49 directions in chunks of 5; then, as the flat has 15 base points at height 0,
    # 25 directions in blocks of 7 * 25 // 15 = 11: 11 + 11 + 3
    monkeypatch.setattr(grid, "BLOCK_ENTRIES", 5 * 49)
    assert np.array_equal(kakeya_maximal(f), kakeya_maximal_direct(f))
    monkeypatch.setattr(grid, "BLOCK_ENTRIES", 7 * 25)
    chunked = verify_besicovitch(f5, 3, flat)
    assert chunked[:2] == (ok, missing)
    assert np.array_equal(chunked[2], assignment)


STACK_SPACES = [(5, 1, 2), (5, 1, 3), (5, 1, 4), (7, 1, 2), (7, 1, 3), (7, 1, 4),
                (3, 2, 2), (3, 2, 3), (3, 2, 4), (5, 2, 2), (5, 2, 3)]


@pytest.mark.parametrize("p, k, n", STACK_SPACES)
def test_stacked_maximal_rows_match_one_grid(monkeypatch, p, k, n):
    field = make_field(p, k)
    rng = np.random.default_rng(10 * p + k + 100 * n)
    fs = [Grid.random(field, n, rng), indicator_grid(field, n, [(0,) * n]),
          Grid.constant(field, n, 1.0), Grid.random(field, n, rng)]
    one = [kakeya_maximal(f)[0] for f in fs]
    m = field.order ** (n - 1)
    tables = []

    def counted(field, c):
        tables.append(len(c))
        return grid.translate_flats(field, c)

    monkeypatch.setattr(kakeya, "translate_flats", counted)
    monkeypatch.setattr(grid, "BLOCK_ENTRIES", 4 * m * len(fs) + 3)  # 4 rows: m is odd
    stacked = kakeya_maximal(*fs)
    direct = kakeya_maximal_direct(*fs)
    assert stacked.shape == (len(fs), m)
    # blocks shrink with the stack, so a block's gather stays near BLOCK_ENTRIES
    assert len(tables) == math.ceil(m / 4) * field.order and max(tables) == min(4, m)
    for i, f in enumerate(fs):
        assert np.array_equal(stacked[i], one[i])
        assert np.array_equal(direct[i], kakeya_maximal_direct(f)[0])
        assert np.array_equal(direct[i], one[i])


def _grid_major_walk(*fs):
    """The direction walk on a [grid, point flat] stack, with the shifts v t
    formed per direction: the oracle kakeya_maximal_direct matches bit for bit."""
    field, n = fs[0].field, fs[0].n
    q = field.order
    m = q ** (n - 1)
    absf = np.stack([np.abs(f.values) for f in fs])  # [grid, point flat]
    coords = field.grid_coords(n - 1)
    ts = np.arange(q, dtype=np.int64)[:, None]
    out = np.zeros((len(fs), m), dtype=np.float64)
    for vf in range(m):
        flat = ts * m  # [height, base point]
        for j in range(n - 1):
            shift = field.mul_arrays(ts, coords[vf, j])
            flat = flat + field.add_arrays(coords[None, :, j], shift) * q**j
        out[:, vf] = absf[:, flat].sum(axis=1).max(axis=1)
    return out


@pytest.mark.parametrize(
    "p, k, n",
    [(5, 1, 2), (5, 1, 3), (7, 1, 2), (7, 1, 3), (3, 1, 4), (3, 2, 2), (3, 2, 3), (5, 2, 2)],
)
def test_direct_walk_values_are_pinned(monkeypatch, p, k, n):
    field = make_field(p, k)
    rng = np.random.default_rng(1000 * p + 10 * k + n)
    one = [Grid.random(field, n, rng)]
    five = [Grid.random(field, n, rng), Grid.constant(field, n, 0.0),
            indicator_grid(field, n, [(0,) * n]), Grid.random(field, n, rng),
            Grid.constant(field, n, 1.0)]
    m = field.order ** (n - 1)
    for fs in (one, five):
        got = kakeya_maximal_direct(*fs)
        assert got.shape == (len(fs), m)
        assert np.array_equal(got, _grid_major_walk(*fs))
    assert not kakeya_maximal_direct(five[1]).any()
    for fs in (one, five):  # two directions per chunk: m is odd, so the last chunk has one
        width = field.order * m * len(fs)
        monkeypatch.setattr(grid, "BLOCK_ENTRIES", 2 * width + 1)
        sizes = [b.stop - b.start for b in grid.blocks(m, width)]
        assert len(sizes) > 1 and sizes[-1] == 1
        assert np.array_equal(kakeya_maximal_direct(*fs), _grid_major_walk(*fs))


def test_direct_walk_peak_stays_per_direction():
    # a chunk of directions' gather at a time, of at most BLOCK_ENTRIES entries
    # or one direction's: at F_13 a chunk holds 7 directions of the four
    # grids, at F_31 one direction (31 * 961 * 4 gathers) already fills it
    for p in (13, 31):
        field = make_field(p)
        q, n = field.order, 3
        m = q ** (n - 1)
        rng = np.random.default_rng(p)
        fs = [Grid.random(field, n, rng), indicator_grid(field, n, [(0,) * n]),
              Grid.constant(field, n, 1.0), Grid.random(field, n, rng)]
        width = q * m * len(fs)  # gathers per direction
        chunk = max(1, grid.BLOCK_ENTRIES // width) * width * 8
        stack = q**n * len(fs) * 8  # the point-major [point flat, grid] stack
        shifts = m * q * (n - 1) * 8  # the [direction, height, coordinate] table
        tracemalloc.start()
        try:
            kakeya_maximal_direct(*fs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < stack + shifts + 2 * chunk


def test_stacked_maximal_refuses_mixed_grids(f5, f7):
    with pytest.raises(ValueError):
        kakeya_maximal()
    for other in (Grid.constant(f7, 2, 1.0), Grid.constant(f5, 3, 1.0),
                  Grid.constant(f5, 2, 1.0, Side.FREQUENCY)):
        with pytest.raises(ValueError):
            kakeya_maximal(Grid.constant(f5, 2, 1.0), other)
        with pytest.raises(ValueError):
            kakeya_maximal_direct(Grid.constant(f5, 2, 1.0), other)


@pytest.mark.parametrize("maximal", [kakeya_maximal, kakeya_maximal_direct])
def test_maximal_refuses_lines_in_f1(f5, maximal):
    with pytest.raises(FFLabError, match="need n >= 2"):
        maximal(Grid.constant(f5, 1, 1.0))


def test_norm_certificates_sweep_lines_once(monkeypatch, f7):
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return grid.translate_flats(*args, **kwargs)

    monkeypatch.setattr(kakeya, "translate_flats", counted)
    monkeypatch.setattr(grid, "BLOCK_ENTRIES", 1)  # one direction per block either way
    kakeya_norm_certificates(f7, 3, 2, 4, witnesses=("point",))
    one = len(calls)
    calls.clear()
    certs = kakeya_norm_certificates(
        f7, 3, 2, 4, witnesses=("point", "line", "full_space", "random_sets")
    )
    assert one == len(calls) == 7**2 * 7  # one table per direction and height
    assert len(certs) == 4 and certs[3].meta["tried"] == 8


def test_recheck_independent_of_line_tables(monkeypatch, f7):
    certs = kakeya_norm_certificates(
        f7, 3, 2, 4, witnesses=("point", "line", "full_space", "random_sets")
    )

    def refuse(*args, **kwargs):
        raise AssertionError("the recheck must not build line tables")

    monkeypatch.setattr(kakeya, "translate_flats", refuse)
    monkeypatch.setattr(kakeya, "kakeya_maximal", refuse)
    with pytest.raises(AssertionError):
        kakeya_maximal(indicator_grid(f7, 3, [(0, 0, 0)]))
    assert all(verify_lower(c) for c in certs)
    assert verify_lowers(certs) == [True] * len(certs)


def test_recheck_fails_on_a_dropped_chunk(monkeypatch, f7):
    certs = kakeya_norm_certificates(
        f7, 3, 2, 4, witnesses=("point", "line", "full_space", "random_sets")
    )

    def drop_last(count, width, *args):
        return list(grid.blocks(count, width, *args))[:-1]

    fs = [grid.grid_from_bytes(c.witness) for c in certs]
    monkeypatch.setattr(grid, "BLOCK_ENTRIES", 10 * 7**3 * len(fs))  # 10 of the 49 directions
    monkeypatch.setattr(kakeya, "blocks", drop_last)
    stars = kakeya_maximal_direct(*fs)
    assert np.isnan(stars[:, 40:]).all() and not np.isnan(stars[:, :40]).any()
    assert verify_lowers(certs) == [False] * len(certs)


def test_maximal_budget_gate():
    f = Grid.constant(make_field(37), 4, 1.0)
    with pytest.raises(BudgetExceededError):
        kakeya_maximal(f)


def test_maximal_budget_boundary(f5):
    gathers = 5**5  # |F|^{2n-1} at n = 3: one per point of every line
    f = Grid.constant(f5, 3, 1.0)
    assert np.all(kakeya_maximal(f, budget=gathers) == 5.0)
    with pytest.raises(BudgetExceededError):
        kakeya_maximal(f, budget=gathers - 1)
    assert len(kakeya_norm_certificates(f5, 3, 2, 4, budget=gathers)) == 3
    with pytest.raises(BudgetExceededError):
        kakeya_norm_certificates(f5, 3, 2, 4, budget=gathers - 1)


@pytest.mark.parametrize("n", [0, 1])
def test_norm_certificates_refuse_n_below_2(f5, n):
    # refused before the budget gate, which a budget of 0 would fail for every n
    with pytest.raises(FFLabError, match="need n >= 2"):
        kakeya_norm_certificates(f5, n, 2, 2, budget=0)


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
    (cert,) = kakeya_norm_certificates(f5, 2, 2, 2, witnesses=("random_sets",), seed=3)
    assert cert.meta["tried"] == 8
    assert verify_lower(cert)
    again = kakeya_norm_certificates(f5, 2, 2, 2, witnesses=("random_sets",), seed=3)
    assert repr(again[0].value) == repr(cert.value)


def test_verify_lowers_one_verdict_per_certificate(f7):
    certs = kakeya_norm_certificates(
        f7, 2, 2, 2, witnesses=("point", "line", "full_space", "random_sets")
    )
    assert verify_lowers(certs) == [True] * 4 and verify_lowers([]) == []
    assert [recheck_lower(c) for c in certs] == pytest.approx([c.value for c in certs], rel=1e-12)
    tampered = list(certs)
    tampered[1] = dataclasses.replace(certs[1], value=certs[1].value * 1.01)
    assert verify_lowers(tampered) == [True, False, True, True]
    full = grid.grid_from_bytes(certs[2].witness)
    bumped = full.values.copy()
    bumped[0] = 3.0  # no longer a constant, so its ratio moves
    tampered[2] = dataclasses.replace(certs[2], witness=grid.grid_to_bytes(full.with_values(bumped)))
    assert verify_lowers(tampered) == [True, False, False, True]


def test_verify_lowers_needs_one_field_and_dimension(f5, f7):
    (a,) = kakeya_norm_certificates(f7, 2, 2, 2, witnesses=("line",))
    for other in (
        kakeya_norm_certificates(f5, 2, 2, 2, witnesses=("line",))[0],
        kakeya_norm_certificates(f7, 3, 2, 4, witnesses=("line",))[0],
    ):
        with pytest.raises(ValueError):
            verify_lowers([a, other])
    with pytest.raises(FFLabError, match="expected a witness-bearing Kakeya lower certificate"):
        verify_lowers([a, kakeya_upper_overlap(f7, 2, 2, 2)])


def test_random_sets_keep_the_first_best():
    f3 = make_field(3)
    rng = np.random.default_rng(0)
    draws = [(rng.random(9) < 0.5).astype(np.complex128) for _ in range(8)]
    fs = [Grid(f3, 2, vals if vals.any() else np.eye(1, 9)[0], Side.SPACE) for vals in draws]
    stars = kakeya_maximal_direct(*fs)
    ratios = [mean_lp_norm(s, 2) / grid.lp_norm(f, 2) for s, f in zip(stars, fs)]
    first = ratios.index(max(ratios))
    assert ratios.count(max(ratios)) == 2  # seed 0 draws a tie
    (cert,) = kakeya_norm_certificates(f3, 2, 2, 2, witnesses=("random_sets",), seed=0)
    assert cert.meta["best_index"] == first
    assert cert.witness == grid.grid_to_bytes(fs[first])


def test_certificate_rejections(f7):
    with pytest.raises(FFLabError, match="no Kakeya witness named 'nope'"):
        kakeya_norm_certificates(f7, 2, 2, 2, witnesses=("nope",))
    with pytest.raises(FFLabError, match="the explicit construction is 2-D"):
        kakeya_norm_certificates(f7, 3, 2, 4, witnesses=("besicovitch_indicator",))
    with pytest.raises(FFLabError, match="expected a witness-bearing Kakeya lower certificate"):
        recheck_lower(kakeya_upper_overlap(f7, 2, 2, 2))


@pytest.mark.parametrize("n,p,q", [(3, 2, 3), (2, 3, 2)])
def test_overlap_upper_refuses_other_pairs(f7, monkeypatch, n, p, q):
    def no_cert(*args, **kwargs):
        raise AssertionError("a certificate was built before the refusal")

    monkeypatch.setattr(kakeya, "_kakeya_cert", no_cert)
    with pytest.raises(NoClosedFormError, match=rf"only \(2, {2 * n - 2}\), not \({p}, {q}\)"):
        kakeya_upper_overlap(f7, n, p, q)


def test_overlap_upper_consistency(f7):
    upper = kakeya_upper_overlap(f7, 2, 2, 2)
    assert upper.value == pytest.approx(math.sqrt(2))
    assert (upper.p, upper.q) == (Fraction(2), Fraction(2))
    assert kakeya_upper_overlap(f7, 3, "2", "4").q == Fraction(4)
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
                (row,) = line_flats_oracle(field, [coords[x0map[vf]]], [coords[vf]])
                expected[row] += g[vf]
        expected /= float(m)
        assert np.array_equal(line_sum_grid(field, n, g, x0map).values, expected)


@pytest.mark.parametrize("n", [2, 3])
def test_line_sum_repeated_flats_against_add_at(f5, n):
    m = 5 ** (n - 1)
    coords = f5.grid_coords(n - 1)
    g = np.random.default_rng(n).random(m)
    x0map = np.zeros(m, dtype=np.int64)  # every line passes through the origin at t = 0
    flat = line_flats(f5, coords[x0map], coords)
    assert np.count_nonzero(flat == 0) == m
    expected = np.zeros(5**n, dtype=np.complex128)
    np.add.at(expected, flat, g[:, None])
    expected /= float(m)
    assert np.array_equal(line_sum_grid(f5, n, g, x0map).values, expected)


def test_cordoba_constant_weight_deficit(f7):
    wit = besicovitch_2d(f7)
    deficit = cordoba_check(f7, 2, np.ones(7), wit.assignment)
    assert deficit == pytest.approx(math.sqrt(2) - math.sqrt(13 / 7), abs=1e-12)


@pytest.mark.parametrize("p, k, n", [(7, 1, 2), (5, 1, 3), (3, 2, 3), (3, 1, 4)])
def test_stacked_cordoba_matches_one_trial_at_a_time(monkeypatch, p, k, n):
    # 40 trials: a root taken on a numpy array instead of a Python float
    # differs in the last bit on a few percent of them
    field = make_field(p, k)
    m, trials = field.order ** (n - 1), 40
    rng = np.random.default_rng(100 * p + n)
    g = rng.random((trials, m))
    g[rng.random((trials, m)) < 0.3] = 0.0
    g[2] = 0.0  # a trial with no weight at all
    x0map = rng.integers(0, m, (trials, m))
    dual = Fraction(2 * n - 2) / (2 * n - 3)
    expected = [  # the one-trial formula through the grid norms
        math.sqrt(2.0) * mean_lp_norm(g[i], dual)
        - lp_norm(line_sum_grid(field, n, g[i], x0map[i]), 2)
        for i in range(trials)
    ]
    cuts = []

    def recording_blocks(count, width, *args):
        out = list(grid.blocks(count, width, *args))
        cuts.append([(s.start, s.stop) for s in out])
        return out

    monkeypatch.setattr(grid, "BLOCK_ENTRIES", 3 * field.order**n + 1)  # three trials per block
    monkeypatch.setattr(kakeya, "blocks", recording_blocks)
    stacked = cordoba_check(field, n, g, x0map)
    assert cuts == [[(s, min(s + 3, trials)) for s in range(0, trials, 3)]]
    assert stacked.tolist() == expected  # bit for bit
    assert [cordoba_check(field, n, g[i], x0map[i]) for i in range(trials)] == expected
    assert isinstance(cordoba_check(field, n, g[0], x0map[0]), float)


def test_cordoba_refuses_lines_in_one_dimension(f5):
    with pytest.raises(FFLabError, match="need n >= 2"):
        cordoba_check(f5, 1, np.ones(1), np.zeros(1, dtype=np.int64))


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
    # the lines (x0 + vt, t) of the Besicovitch set as point-direction rows
    wit = besicovitch_2d(f7)
    coords = f7.grid_coords(1)
    a = np.column_stack([coords[wit.assignment], np.zeros(7, dtype=np.int64)])
    b = np.column_stack([coords, np.ones(7, dtype=np.int64)])
    rep = incidence_count(f7, f7.grid_coords(2)[wit.flat], a, b)
    assert rep.count == 49
    assert rep.point_count == 28 and rep.line_count == 7
    assert rep.satisfied and rep.bound == pytest.approx(math.sqrt(28) * 7 + 28)


@pytest.mark.parametrize("entries", [1 << 16, 7])  # one block, or one line per block
def test_incidence_count_rejections(monkeypatch, f7, entries):
    monkeypatch.setattr(grid, "BLOCK_ENTRIES", entries)
    pts = f7.grid_coords(2)
    a, b = np.array([[1, 2], [0, 0]]), np.array([[3, 1], [1, 1]])
    assert incidence_count(f7, pts, a, b).count == 14
    # the first line again, with b scaled by 2 and then with a moved along b
    for a2, b2 in (([1, 2], [6, 2]), ([4, 3], [3, 1])):
        with pytest.raises(ValueError, match="distinct"):
            incidence_count(f7, pts, np.vstack([a, [a2]]), np.vstack([b, [b2]]))
    with pytest.raises(ValueError, match="direction"):
        incidence_count(f7, pts, a, np.array([[3, 1], [0, 0]]))
    with pytest.raises(BudgetExceededError):
        incidence_count(f7, pts, a, b, budget=13)
    assert incidence_count(f7, pts, a, b, budget=14).count == 14


def test_chain_counts_budget_boundary(f5):
    # the five lines (vt, t) through the origin cover F^2: 125 point-line
    # pairs, and the origin's 20 arms plus 4 arms at each other point give
    # 20^2 + 20 * 4^2 = 720 arm pairs
    pts, x0, v = f5.grid_coords(2), np.zeros((5, 1), dtype=np.int64), np.arange(5)[:, None]
    with pytest.raises(BudgetExceededError, match=r"\|P\| \|L\| = 125 exceeds the budget 124"):
        incidence_chain_counts(f5, pts, x0, v, budget=124)
    with pytest.raises(BudgetExceededError, match="arm pairs sharing a point = 720 exceeds the budget 125"):
        incidence_chain_counts(f5, pts, x0, v, budget=125)
    with pytest.raises(BudgetExceededError, match="= 720 exceeds the budget 719"):
        incidence_chain_counts(f5, pts, x0, v, budget=719)
    counts = incidence_chain_counts(f5, pts, x0, v, budget=720)
    assert counts == incidence_chain_counts(f5, pts, x0, v)
    assert (counts.incidences, counts.corner_paths) == (25, 320)


def test_chain_counts_two_crossing_lines(f7):
    x0, v = np.array([[0], [0]]), np.array([[0], [1]])
    pts = f7.grid_coords(2)[np.unique(line_flats(f7, x0, v))]
    cc = incidence_chain_counts(f7, pts, x0, v)
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


def chain_oracle(field, points, x0, v):
    """The same six counts by quadruple loops, no shared bookkeeping."""
    pset = set(int(x) for x in flat_points(field, points))
    on = [[x for x in row if x in pset] for row in line_flats_oracle(field, x0, v)]

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
    lines = np.array(list({(rng.integers(5), rng.integers(5)) for _ in range(6)}))
    x0, v = lines[:, :1], lines[:, 1:]
    pts = np.unique(
        np.concatenate(
            [f5.grid_coords(2)[line_flats(f5, x0[:3], v[:3]).ravel()]]
            + [f5.grid_coords(2)[[2, 11, 17]]]
        ),
        axis=0,
    )
    cc = incidence_chain_counts(f5, pts, x0, v)
    inc, angles, pointed, linked, corner, quads = chain_oracle(f5, pts, x0, v)
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
        incidence_chain_counts(f5, np.array([[0, 0], [0, 0]]), [[0]], [[0]])
    with pytest.raises(ValueError):
        incidence_chain_counts(f5, np.array([[0, 0]]), [[0], [0]], [[0], [0]])


# -- plane spread ----------------------------------------------------------------------


def coplanar_family():
    x0 = np.array([[0, 0], [1, 0], [2, 0], [0, 1]])
    v = np.array([[1, 0], [2, 0], [0, 0], [1, 1]])
    return x0, v


def distinct_directions_family(field):
    q = field.order
    v = field.grid_coords(2)
    return np.stack([v[:, 0] * v[:, 1] % q, (v[:, 0] + v[:, 1]) % q], axis=1), v


def random_family(field, seed, count):
    rows = np.unique(np.random.default_rng(seed).integers(field.order, size=(count, 4)), axis=0)
    return rows[:, :2], rows[:, 2:]


def plane_spread_oracle(field, x0, v, planes):
    """The most family lines in one plane, by per-plane loops in scalar arithmetic.

    planes="pairs" visits the plane through each pair of lines that lie in a
    common one; planes="exhaustive" visits every equation a . x = c, a != 0.
    """
    lines = [(tuple(int(c) for c in a), tuple(int(c) for c in b)) for a, b in zip(x0, v)]

    def key(a, c):
        s = field.inv(next(x for x in a if x != 0))
        return tuple(field.mul(s, x) for x in a), field.mul(s, c)

    def inside(line, a, c):
        x, d = line
        return field.add(field.dot(a[:2], d), a[2]) == 0 and field.dot(a[:2], x) == c

    def diff(u, w):
        return tuple(field.sub(s, t) for s, t in zip(u, w))

    found = set()
    if planes == "pairs":
        for i, l1 in enumerate(lines):
            for l2 in lines[i + 1 :]:
                w = diff(l1[1], l2[1]) if l1[1] != l2[1] else diff(l1[0], l2[0])
                ab = (field.neg(w[1]), w[0])
                a = (*ab, field.neg(field.dot(ab, l1[1])))
                c = field.dot(ab, l1[0])
                if inside(l1, a, c) and inside(l2, a, c):
                    found.add(key(a, c))
    else:
        for a in field.grid_coords(3)[1:]:
            found.update(key(tuple(int(x) for x in a), c) for c in range(field.order))
    counts = [sum(inside(line, *plane) for line in lines) for plane in found]
    return max(counts, default=min(len(lines), 1))


def plane_spread_cases():
    f5, f7, f11 = make_field(5), make_field(7), make_field(11)
    return [
        (f5, coplanar_family()),
        (f5, distinct_directions_family(f5)),
        (f7, distinct_directions_family(f7)),
        (f5, random_family(f5, 3, 20)),  # 7 planes share the maximum, 3 lines
        (f7, random_family(f7, 2, 120)),  # 3 planes share the maximum, 8 lines
        (f11, random_family(f11, 1, 60)),
    ]


@pytest.mark.parametrize("planes", ["pairs", "exhaustive"])
def test_plane_spread_against_oracle(planes):
    for field, (x0, v) in plane_spread_cases():
        assert wolff_axiom_check(field, x0, v) == plane_spread_oracle(field, x0, v, planes)


def test_plane_spread_heisenberg_against_oracle(f9):
    rep = heisenberg_example(f9)
    for planes in ("pairs", "exhaustive"):
        expected = plane_spread_oracle(f9, rep.x0, rep.v, planes)
        assert wolff_axiom_check(f9, rep.x0, rep.v) == expected


def test_wolff_pairs_mode(f5):
    fam = coplanar_family()
    assert wolff_axiom_check(f5, *fam) == plane_spread_oracle(f5, *fam, "pairs") == 3


def test_wolff_exhaustive_agrees(f5):
    fam = coplanar_family()
    assert wolff_axiom_check(f5, *fam) == plane_spread_oracle(f5, *fam, "exhaustive")
    assert wolff_axiom_check(f5, np.empty((0, 2)), np.empty((0, 2))) == 0
    with pytest.raises(BudgetExceededError):
        wolff_axiom_check(f5, *fam, budget=len(fam[0]) * 6 - 1)
    with pytest.raises(FFLabError, match=r"plane analysis lives in F\^3"):
        wolff_axiom_check(f5, [[0]], [[1]])


def test_wolff_pairs_budget_refuses_before_arithmetic(f7, monkeypatch):
    x0, v = random_family(f7, 2, 120)
    keys = len(x0) * (7 + 1)  # every line lies in |F| + 1 planes
    assert wolff_axiom_check(f7, x0, v, budget=keys) == wolff_axiom_check(f7, x0, v)
    f49 = make_field(7, 2)
    rep = heisenberg_example(f49)
    assert wolff_axiom_check(f49, rep.x0, rep.v, budget=134_400) == 8  # 2688 lines

    def refuse(*args, **kwargs):
        raise AssertionError("field arithmetic ran before the budget check")

    monkeypatch.setattr(f7, "mul_arrays", refuse)
    with pytest.raises(BudgetExceededError):
        wolff_axiom_check(f7, x0, v, budget=keys - 1)
    with pytest.raises(AssertionError):
        wolff_axiom_check(f7, x0, v, budget=keys)


def test_wolff_rejects_repeated_lines(f5):
    x0, v = coplanar_family()
    with pytest.raises(ValueError, match="distinct"):
        wolff_axiom_check(f5, np.vstack([x0, x0[:1]]), np.vstack([v, v[:1]]))


# -- quadratic-extension configuration ---------------------------------------------------


def test_heisenberg_frozen(f9):
    rep = heisenberg_example(f9)
    assert rep.point_count == 243
    assert rep.line_count == 96
    assert rep.containment_ok
    assert rep.duplicate_direction is not None
    assert rep.point_ratio == pytest.approx(1.0)
    assert rep.line_ratio == pytest.approx(96 / 81)
    with pytest.raises(FFLabError, match="the construction needs a quadratic extension"):
        heisenberg_example(make_field(7))


def test_heisenberg_point_count_scales():
    rep = heisenberg_example(make_field(5, 2))
    assert rep.point_count == 3125  # |F|^{5/2} = 5^5
    assert rep.containment_ok


def test_heisenberg_peak_stays_blocked():
    # no |F|^3 coordinate grid and no |zero-Im pairs|^2 hit matrix: about
    # 160 MiB at F_{11^2} when both were held whole
    field = Field(11, 2)
    tracemalloc.start()
    try:
        rep = heisenberg_example(field)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (rep.point_count, rep.line_count, rep.containment_ok) == (11**5, 15840, True)
    assert peak < 16 * 2**20


def test_heisenberg_budget_refuses_before_arithmetic(monkeypatch):
    field = Field(3, 2)  # not the cached field, so the patches below stay local
    assert heisenberg_example(field, budget=9**3).point_count == 3**5

    def refuse(*args, **kwargs):
        raise AssertionError("field arithmetic ran before the refusal")

    for name in ("add_arrays", "sub_arrays", "mul_arrays", "frobenius_arrays", "im_arrays"):
        monkeypatch.setattr(field, name, refuse)
    with pytest.raises(BudgetExceededError, match=r"\|F\|\^3 = 729 exceeds the budget 728"):
        heisenberg_example(field, budget=9**3 - 1)
    # the default budget admits F_{31^2} (887,503,681 entries), not F_{37^2}
    big = Field(37, 2)
    for name in ("mul_arrays", "frobenius_arrays", "im_arrays"):
        monkeypatch.setattr(big, name, refuse)
    with pytest.raises(BudgetExceededError, match="2565726409 exceeds the budget 1000000000"):
        heisenberg_example(big)


def test_heisenberg_blocks_match_one_block(monkeypatch):
    field = make_field(5, 2)
    whole = heisenberg_example(field)
    monkeypatch.setattr(grid, "BLOCK_ENTRIES", 7 * 25 + 3)  # uneven blocks
    blocked = heisenberg_example(field)
    assert np.array_equal(blocked.x0, whole.x0) and np.array_equal(blocked.v, whole.v)
    for name in ("point_count", "line_count", "containment_ok", "duplicate_direction"):
        assert getattr(blocked, name) == getattr(whole, name)


@pytest.mark.parametrize("entries", [grid.BLOCK_ENTRIES, 7 * 25 + 3])
def test_heisenberg_containment_reads_every_line(entries, monkeypatch):
    field = make_field(5, 2)
    last = heisenberg_example(field)
    x_last, v_last = last.x0[-1], last.v[-1]
    z3 = int(np.flatnonzero(field.im_arrays(np.arange(25)))[0])  # (0, 0, z3) is not in P
    real = kakeya.line_flats

    def last_line_leaves_the_set(field, x0, v):
        flats = real(field, x0, v)
        last_row = np.all(x0 == x_last, axis=1) & np.all(v == v_last, axis=1)
        return np.where(last_row[:, None], 25**2 * z3, flats)

    monkeypatch.setattr(grid, "BLOCK_ENTRIES", entries)
    monkeypatch.setattr(kakeya, "line_flats", last_line_leaves_the_set)
    assert not heisenberg_example(field).containment_ok


def heisenberg_lines_oracle(field):
    """(x0, v) pairs by the scalar double loop over Im(z1 conj(z2)) = 0 pairs."""
    zero_im = [
        (int(a), int(b))
        for a, b in field.grid_coords(2)
        if field.im_part(field.mul(int(a), field.frobenius(int(b)))) == 0
    ]
    lines = []
    for x1, x2 in zero_im:
        fx1, fx2 = field.frobenius(x1), field.frobenius(x2)
        for v1, v2 in zero_im:
            if field.sub(field.mul(v1, fx2), field.mul(v2, fx1)) == 1:
                lines.append(((x1, x2), (v1, v2)))
    return lines


@pytest.mark.parametrize("p", [3, 5])
def test_heisenberg_lines_against_oracle(p):
    field = make_field(p, 2)
    rep = heisenberg_example(field)
    lines = heisenberg_lines_oracle(field)
    assert [(tuple(a), tuple(b)) for a, b in zip(rep.x0.tolist(), rep.v.tolist())] == lines
    directions = [b for _, b in lines]
    assert rep.duplicate_direction == next(d for d in directions if directions.count(d) > 1)


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
    with pytest.raises(FFLabError, match="the difference projection collides on this set"):
        slope_projections(f7, 2, pairs, [0])
    with pytest.warns(UserWarning, match="not injective"):
        rep = slope_projections(f7, 2, pairs, [0, "inf"], require_injective=False)
    assert rep.projection_sizes == {"0": 7, "inf": 4}
    assert rep.two_slope_ok


def test_slope_edge_cases(f7):
    wit = besicovitch_2d(f7)
    pairs = slices_construction(wit, 0, 1, []).pairs
    with pytest.raises(FFLabError, match="the difference projection itself is not allowed"):
        slope_projections(f7, 2, pairs, [-1])
    with pytest.raises(
        FFLabError, match="slope 1/7 has no representative with denominator below 7"
    ):
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
    with pytest.raises(FFLabError, match="the two heights must differ"):
        slices_construction(wit, 2, 2, [0])
    with pytest.raises(FFLabError, match=r"slope 6 \+ 1 vanishes in F"):
        slices_construction(wit, 0, 1, [6])  # 6 + 1 = 0 in F_7
    with pytest.raises(ValueError, match="field elements"):
        slices_construction(wit, 0, 7, [0])  # 7 is not an element index of F_7
    wit9 = besicovitch_2d(make_field(3, 2))
    for t0 in (20, -1):  # -1 would read the log table from its end
        with pytest.raises(ValueError, match="field elements"):
            slices_construction(wit9, t0, 1, [0])


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
    # weight (n-1)b + c = 1 = a gives p = 1 and p' = inf, so q is weight / b
    for a, b, c, n in ((1, "1/2", 0, 3), (1, "1/2", "1/2", 2)):
        p, q = incidence_to_kakeya_exponents(a, b, c, n)
        assert (p, q) == (1, 2) and type(q) is Fraction


def test_incidence_exponent_rejections():
    with pytest.raises(FFLabError, match="point and line exponents must be positive"):
        incidence_to_kakeya_exponents(0, 1, 0, 3)
    with pytest.raises(FFLabError, match="point and line exponents must be positive"):
        incidence_to_kakeya_exponents(1, 0, 1, 3)
    with pytest.raises(FFLabError, match=r"exponents must lie in \[0, 1\]"):
        incidence_to_kakeya_exponents(1, 1, 2, 3)
    with pytest.raises(FFLabError, match=r"need \(n-1\)b \+ c >= 1"):
        incidence_to_kakeya_exponents("1/4", "1/4", "1/4", 2)
    with pytest.raises(FFLabError, match="need n >= 2"):
        incidence_to_kakeya_exponents(1, 1, 1, 1)  # (n-1)p' would be 0 * inf
