"""Acceptance gate: one test per criterion, pinned tolerances and runtimes.

Each test stands alone and prints exactly one pass/fail line under -v.  The
tolerances and time budgets are fixed contracts; loosening either to force a
pass is not an option.  Criterion 5 derives the expected tuple maximum for
the n = 3 paraboloid from q alone: pairs with a given sum lie on a circle in
F_q^2, so the maximum is q + 1 when -1 is a non-square and 2q - 1 when it is
a square.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from fflab import cli
from fflab.field import is_prime, make_field
from fflab.grid import (
    Grid,
    Side,
    fourier_forward,
    fourier_inverse,
    lp_norm,
    parseval_defect,
    point_index,
)
from fflab.kakeya import (
    besicovitch_2d,
    cordoba_check,
    incidence_to_kakeya_exponents,
    heisenberg_example,
    kakeya_maximal,
    slices_construction,
    verify_besicovitch,
)
from fflab.restriction import (
    rstar_exact_closed,
    rstar_lower_power,
    rstar_lower_witness,
    rstar_upper_even,
    selfdot_incidence_count,
    bridge_identity_checks,
    pseudoconformal_identity_check,
)
from fflab.surfaces import (
    cone,
    cone_counterexample_set,
    gauss_sum,
    indicator_grid,
    moment_curve,
    paraboloid,
    paraboloid_kernel_formula_check,
    surface_sum_max,
)

ODD_PRIMES_199 = [p for p in range(3, 200) if is_prime(p)]


def test_criterion_01_parseval_and_roundtrip():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1)
    for p in (3, 5, 7, 11):
        field = make_field(p)
        for n in (1, 2, 3):
            f1 = Grid.random(field, n, rng)
            f2 = Grid.random(field, n, rng)
            scale = lp_norm(f1, 2) * lp_norm(f2, 2)
            assert parseval_defect(f1, f2) <= 1e-9 * scale
            back = fourier_inverse(fourier_forward(f1))
            assert np.abs(back.values - f1.values).max() <= 1e-10
    assert time.perf_counter() - t0 < 10.0


def test_criterion_02_gauss_sum_moduli():
    t0 = time.perf_counter()
    for p in ODD_PRIMES_199:
        field = make_field(p)
        assert gauss_sum(field, 0) == pytest.approx(p, abs=1e-9)
        for x in range(1, p):
            assert abs(gauss_sum(field, x)) ** 2 == pytest.approx(p, abs=1e-6)
    assert time.perf_counter() - t0 < 5.0


def test_criterion_03_paraboloid_kernel_closed_form():
    t0 = time.perf_counter()
    for p, n in ((5, 2), (7, 2), (7, 3), (11, 3)):
        assert paraboloid_kernel_formula_check(make_field(p), n) <= 1e-9
    assert time.perf_counter() - t0 < 30.0


def test_criterion_04_closed_form_constants_recovered():
    t0 = time.perf_counter()
    cases = [
        (paraboloid(make_field(5), 2), math.sqrt(5)),
        (paraboloid(make_field(7), 3), math.sqrt(7)),
        (cone(make_field(7)), math.sqrt(343 / 48)),
    ]
    for surface, expected in cases:
        assert rstar_exact_closed(surface, 2, 2).value == pytest.approx(expected, abs=1e-12)
        got = rstar_lower_power(surface, 2, 2, seed=0)
        assert abs(got.value - expected) <= 1e-6
        sup = rstar_lower_witness(surface, 2, math.inf, "constant")
        assert sup.value >= 1.0 - 1e-9
    assert time.perf_counter() - t0 < 60.0


def test_criterion_05_even_counting_certificates():
    t0 = time.perf_counter()
    parab = paraboloid(make_field(5), 2)
    moment = moment_curve(make_field(7), 3)
    q = 7
    big = paraboloid(make_field(q), 3)

    assert surface_sum_max(parab, 2) == 2
    assert surface_sum_max(moment, 3) == 6
    up_parab = rstar_upper_even(parab, 2, 4)
    up_moment = rstar_upper_even(moment, 2, 6)
    assert abs(up_parab.value - 2 ** 0.25) <= 1e-12
    assert abs(up_moment.value - 6 ** (1 / 6)) <= 1e-12

    lo_parab = rstar_lower_power(parab, 2, 4, seed=0)
    lo_moment = rstar_lower_power(moment, 2, 6, seed=0)
    lo_big = rstar_lower_power(big, 2, 4, seed=0)
    up_big = rstar_upper_even(big, 2, 4)
    assert lo_parab.value <= up_parab.value + 1e-9
    assert lo_moment.value <= up_moment.value + 1e-9
    assert lo_big.value <= up_big.value + 1e-9

    # Pairs xi1 = a/2 + u, xi2 = a/2 - u summing to (a, c) solve u.u = r with
    # r = (c - a.a/2)/2: a circle in F_q^2 with q - chi(-1) points for r != 0,
    # and 1 point (chi(-1) = -1) or 2q - 1 points (chi(-1) = 1) for r = 0.
    expected = q + 1 if q % 4 == 3 else 2 * q - 1
    a_big = surface_sum_max(big, 2)
    assert a_big == expected, (
        f"ordered-pair maximum for the n = 3 paraboloid over F_{q}: expected "
        f"{expected}, the circle u.u = r in F_{q}^2 having q + 1 points when -1 "
        f"is a non-square (q = 3 mod 4) and 2q - 1 when it is a square; measured {a_big}"
    )
    assert abs(up_big.value - (expected * q**3) ** 0.25 / math.sqrt(q**2)) <= 1e-12
    assert time.perf_counter() - t0 < 60.0


def test_criterion_06_cone_counterexample_transform():
    t0 = time.perf_counter()
    for p in (7, 11, 19):
        field = make_field(p)
        x_set = cone_counterexample_set(field)
        assert len(x_set) == p * (p - 1) // 2
        chihat = fourier_forward(indicator_grid(field, 3, x_set, Side.SPACE)).values
        expected = (p - 1) / 2 * math.sqrt(p)
        for xi, u, v in cone(field).points:
            if u != 0:
                idx = point_index(field, (int(xi), int(u), int(v)))
                assert abs(abs(chihat[idx]) - expected) <= 1e-6
    assert time.perf_counter() - t0 < 20.0


def test_criterion_07_besicovitch_family():
    t0 = time.perf_counter()
    for p in [q for q in range(3, 102) if is_prime(q)]:
        field = make_field(p)
        wit = besicovitch_2d(field)
        assert wit.size == (p * p + p) // 2
        ok, missing, _ = verify_besicovitch(field, 2, wit.flat)
        assert ok and not missing
    for p in (7, 11):
        field = make_field(p)
        wit = besicovitch_2d(field)
        vals = np.zeros(p * p, dtype=np.complex128)
        vals[wit.flat] = 1.0
        (star,) = kakeya_maximal(Grid(field, 2, vals, Side.SPACE))
        assert np.all(star == float(p))
    assert time.perf_counter() - t0 < 30.0


def test_criterion_08_cordoba_deficit_nonnegative():
    t0 = time.perf_counter()
    rng = np.random.default_rng(8)
    for p, n in ((5, 2), (7, 2), (5, 3)):
        field = make_field(p)
        m = field.order ** (n - 1)
        for _ in range(1000):
            g = rng.random(m)
            x0map = rng.integers(0, m, size=m)
            assert cordoba_check(field, n, g, x0map) >= -1e-9
    assert time.perf_counter() - t0 < 60.0


def test_criterion_09_selfdot_incidences_bounded():
    t0 = time.perf_counter()
    rng = np.random.default_rng(9)
    for p in (7, 11):
        field = make_field(p)
        coords = field.grid_coords(2)
        for _ in range(500):
            m = int(rng.integers(3, 31))
            sel = rng.choice(np.arange(1, p * p), size=m, replace=False)
            pts = coords[sel]
            rep = selfdot_incidence_count(field, pts)
            assert rep.satisfied and rep.count <= rep.bound
            oracle = 0
            rows = [tuple(int(c) for c in row) for row in pts]
            for a in rows:
                sd = field.dot(a, a)
                for b in rows:
                    if field.dot(a, b) == sd:
                        oracle += 1
            assert rep.count == oracle
    assert time.perf_counter() - t0 < 30.0


def test_criterion_10_bridge_identities():
    t0 = time.perf_counter()
    dev = bridge_identity_checks(make_field(5), 2, seed=0, trials=100)
    assert dev["embed"] <= 1e-8
    assert dev["line_sum"] <= 1e-8
    assert dev["cap"] <= 1e-8
    assert time.perf_counter() - t0 < 60.0


def test_criterion_11_pseudoconformal_identity():
    t0 = time.perf_counter()
    field = make_field(7)
    rng = np.random.default_rng(11)
    for _ in range(100):
        vals = np.zeros(343, dtype=np.complex128)
        vals[:49] = rng.standard_normal(49) + 1j * rng.standard_normal(49)
        g = Grid(field, 3, vals, Side.SPACE)
        assert pseudoconformal_identity_check(g) <= 1e-8
    assert time.perf_counter() - t0 < 60.0


def test_criterion_12_heisenberg_configuration():
    t0 = time.perf_counter()
    rep = heisenberg_example(make_field(3, 2))
    assert rep.containment_ok
    assert 61 <= rep.point_count <= 972
    assert rep.duplicate_direction is not None
    assert time.perf_counter() - t0 < 10.0


def test_criterion_13_exponent_calculus():
    t0 = time.perf_counter()
    p, q = incidence_to_kakeya_exponents(Fraction(1, 2), Fraction(1, 4), Fraction(3, 4), 3)
    assert (p, q) == (Fraction(5, 2), Fraction(10, 3))
    assert time.perf_counter() - t0 < 1.0


def test_criterion_14_slices_construction():
    t0 = time.perf_counter()
    wit = besicovitch_2d(make_field(7))
    for a in range(7):
        for b in range(7):
            if a == b:
                continue
            rep = slices_construction(wit, a, b, [0, 1, "inf"])
            assert rep.size == 7
            assert rep.injective
            assert all(c.dominated for c in rep.checks)
    assert time.perf_counter() - t0 < 5.0


def test_criterion_15_full_suite_exits_clean():
    t0 = time.perf_counter()
    assert cli.main(["verify", "identities", "--suite", "all"]) == 0
    assert cli.main(["table", "figure1", "--fields", "5,7,11,13"]) == 0
    assert time.perf_counter() - t0 < 300.0
