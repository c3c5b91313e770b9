"""Restriction-constant certificates: closed forms, counting uppers, witnesses."""

import math
import re
import sys
import threading
from fractions import Fraction

import numpy as np
import pytest

from fflab import cli, grid
from fflab.certificates import (
    NormCertificate,
    as_float,
    certificate_consistency,
    exponent_str,
    holder_dual,
    parse_exponent,
)
from fflab.errors import BudgetExceededError, FFLabError, NoClosedFormError
from fflab.field import make_field
from fflab.grid import Grid, Side, flat_points, fourier_forward, fourier_inverse
from fflab.restriction import (
    ExponentRegion,
    bridge_identity_checks,
    find_affine_line,
    pseudoconformal_identity_check,
    rebuild_surface,
    recheck_lower,
    rstar_exact_closed,
    rstar_lower_power,
    rstar_lower_witness,
    rstar_upper_even,
    selfdot_incidence_count,
    verify_lower,
)
from fflab import restriction as rl
from fflab import surfaces
from fflab.surfaces import SurfaceFunction, cone, extension, moment_curve, paraboloid


# -- exponents ------------------------------------------------------------------------


def test_parse_exponent():
    assert parse_exponent("8/5") == Fraction(8, 5)
    assert parse_exponent(2) == Fraction(2)
    assert parse_exponent("inf") == math.inf
    assert parse_exponent("oo") == math.inf
    with pytest.raises(ValueError, match="rational like '8/5', not a decimal"):
        parse_exponent("2.5")
    with pytest.raises(ValueError):
        parse_exponent(2.5)
    with pytest.raises(ValueError):
        parse_exponent("1/2")


def test_holder_dual():
    assert holder_dual(Fraction(4)) == Fraction(4, 3)
    assert holder_dual(Fraction(1)) == math.inf
    assert holder_dual(math.inf) == Fraction(1)
    assert exponent_str(holder_dual(Fraction(8, 5))) == "8/3"


# -- closed forms ---------------------------------------------------------------------


def test_closed_form_values(f5, f7):
    assert rstar_exact_closed(paraboloid(f5, 2), 2, 2).value == pytest.approx(math.sqrt(5))
    assert rstar_exact_closed(paraboloid(f7, 2), 2, 2).value == pytest.approx(math.sqrt(7))
    assert rstar_exact_closed(paraboloid(f7, 3), 2, 2).value == pytest.approx(math.sqrt(7))
    assert rstar_exact_closed(cone(f7), 2, 2).value == pytest.approx(math.sqrt(343 / 48))
    assert rstar_exact_closed(paraboloid(f5, 2), 2, math.inf).value == 1.0
    with pytest.raises(NoClosedFormError):
        rstar_exact_closed(paraboloid(f5, 2), 2, 4)


# -- counting upper bounds -------------------------------------------------------------


def test_even_counting_uppers(f5, f7):
    assert rstar_upper_even(paraboloid(f5, 2), 2, 4).value == pytest.approx(2 ** 0.25)
    assert rstar_upper_even(paraboloid(f7, 3), 2, 4).value == pytest.approx((8 / 7) ** 0.25)
    assert rstar_upper_even(moment_curve(f7, 3), 2, 6).value == pytest.approx(6 ** (1 / 6))
    c = rstar_upper_even(cone(f7), 2, 4)
    assert c.value == pytest.approx((9 * 343) ** 0.25 / math.sqrt(48))
    assert c.meta["diagonal_split"] is True
    assert c.meta["tuple_count_max"] == 8


@pytest.mark.parametrize("p,q", [
    (2, 8), (3, 4), (Fraction(8, 5), 4), (2, Fraction(18, 5)), (2, 3), (2, math.inf),
])
def test_even_counting_refuses_uncovered_pairs_before_counting(monkeypatch, f5, p, q):
    def counted(*args, **kwargs):
        raise AssertionError("counted tuples at an uncovered pair")

    monkeypatch.setattr(surfaces, "surface_sum_table", counted)
    with pytest.raises(NoClosedFormError, match="covers only"):
        rstar_upper_even(paraboloid(f5, 2), p, q, budget=1)
    with pytest.raises(AssertionError):  # a covered pair reaches the count
        rstar_upper_even(paraboloid(f5, 2), 2, 4)


def test_lower_stays_below_upper(f5):
    surface = paraboloid(f5, 2)
    upper = rstar_upper_even(surface, 2, 4)
    lower = rstar_lower_power(surface, 2, 4, restarts=4, max_iters=100, seed=0)
    assert lower.value <= upper.value + 1e-9
    assert lower.value > 1.0
    assert certificate_consistency([lower, upper]) == []


# -- the one certificate path ------------------------------------------------------------


def test_certify_runs_the_producers_in_order(f5):
    surface = paraboloid(f5, 2)

    def methods(p, q, **kw):
        return [c.method for c in rl.certify(surface, p, q, restarts=2, max_iters=40, **kw)]

    assert methods(2, 2) == ["closed_form"]  # exact, so no ascent
    assert methods(2, 4) == ["even_counting", "power_iteration"]
    assert methods(2, 3) == ["power_iteration"]
    assert methods(2, 2, method="power") == ["power_iteration"]
    with pytest.raises(NoClosedFormError, match="covers only"):
        methods(2, 3, method="even")
    with pytest.raises(FFLabError, match="no certificate method named 'nosuch'"):
        methods(2, 4, method="nosuch")


def test_certify_yields_a_budget_refusal_and_goes_on(f5):
    # |S|^2 = 25 pair sums are over the budget, 2 restarts * |S| = 10 start entries are not
    run = rl.certify(paraboloid(f5, 2), 2, 4, restarts=2, max_iters=40, budget=24)
    refusal = next(run)
    assert isinstance(refusal, BudgetExceededError) and "|S|^2 = 25" in str(refusal)
    assert next(run).method == "power_iteration"
    assert next(run, None) is None


def test_estimate_runs_no_producer_after_a_refusal(monkeypatch, capsys):
    monkeypatch.setattr(rl, "rstar_lower_power", lambda *a, **kw: pytest.fail("ascent ran"))
    argv = "restriction estimate --field 5 --dim 2 --surface parabola --p 2 --q 4 --budget 24"
    assert cli.main(argv.split()) == 2
    assert capsys.readouterr().err == "error: |S|^2 = 25 exceeds the budget 24\n"


# -- power iteration -------------------------------------------------------------------


def test_power_recovers_l2_closed_form(f5):
    surface = paraboloid(f5, 2)
    exact = rstar_exact_closed(surface, 2, 2).value
    got = rstar_lower_power(surface, 2, 2, restarts=4, max_iters=200, seed=1)
    assert abs(got.value - exact) < 1e-6
    assert verify_lower(got)


def test_power_is_deterministic(f5):
    surface = paraboloid(f5, 2)
    a = rstar_lower_power(surface, 2, 4, restarts=3, max_iters=60, seed=7)
    b = rstar_lower_power(surface, 2, 4, restarts=3, max_iters=60, seed=7)
    assert repr(a.value) == repr(b.value)
    assert a.witness == b.witness
    assert a.meta["best_restart"] == b.meta["best_restart"]


def test_power_records_every_restart(f5):
    surface = paraboloid(f5, 3)
    cert = rstar_lower_power(surface, 2, 3, restarts=6, max_iters=5, seed=0)
    iters = cert.meta["restart_iterations"]
    assert len(iters) == 6 and all(1 <= i <= 5 for i in iters)
    assert max(iters) == 5  # at least one restart hit the cap
    assert sum(i < 5 for i in iters) <= cert.meta["restarts_converged"] < 6
    assert cert.meta["iterations"] == iters[cert.meta["best_restart"]]


@pytest.mark.parametrize("p,q", [(3, 3), (4, 1)])
def test_power_maps_zeros_to_zero(f7, p, q):
    # for p > 2 the surface-side dual |w|^{1/(p-1)} phase(w) is a negative
    # power of |w|^2, and a point mass start has zeros everywhere but one point
    surface = paraboloid(f7, 3)
    point = np.zeros((1, surface.size), dtype=np.complex128)  # a block of one start
    point[0, 0] = 1.0
    (g,), (val,), _, _ = rl._power_ascent(
        surface, parse_exponent(p), parse_exponent(q), point, 20, 1e-10
    )
    assert np.all(np.isfinite(g)) and math.isfinite(val) and val > 0


ASCENT_SURFACES = {
    "paraboloid F_5": lambda: paraboloid(make_field(5), 3),
    "paraboloid F_7": lambda: paraboloid(make_field(7), 3),
    "cone F_7": lambda: cone(make_field(7)),
    "moment F_7": lambda: moment_curve(make_field(7), 3),
}


def force_block_rows(monkeypatch, rows, surface):
    """Make every power-ascent block ``rows`` rows wide, whatever the thread count."""
    entries = rows * surface.field.order**surface.n
    monkeypatch.setattr(rl, "POWER_BLOCK_ENTRIES", entries)
    monkeypatch.setattr(rl, "POWER_BLOCK_CAP", entries)


@pytest.mark.parametrize("name,p,q", [
    ("paraboloid F_5", 2, 4),
    ("paraboloid F_5", 1, 3),
    ("paraboloid F_7", 3, 3),
    ("paraboloid F_7", math.inf, 4),
    ("cone F_7", math.inf, 1),
    ("cone F_7", 3, math.inf),
    ("moment F_7", 2, math.inf),
    ("moment F_7", 1, 1),
])
def test_power_blocks_match_one_at_a_time(monkeypatch, name, p, q):
    # p and q run through every branch of both duals and the ratio:
    # p in {2, 3, 1, oo}, q in {3, 4, 1, oo}
    surface = ASCENT_SURFACES[name]()
    p, q = parse_exponent(p), parse_exponent(q)
    restarts, iters, tol = 8, 60, 1e-10
    g0 = rl._starts(surface.size, restarts, 5)
    alone = [rl._power_ascent(surface, p, q, g0[i : i + 1], iters, tol) for i in range(restarts)]
    g1, v1, it1, c1 = (np.concatenate(col) for col in zip(*alone))
    for width in (1, 3, 32):
        parts = [
            rl._power_ascent(surface, p, q, g0[lo : lo + width], iters, tol)
            for lo in range(0, restarts, width)
        ]
        g, v, it, c = (np.concatenate(col) for col in zip(*parts))
        assert np.array_equal(it, it1) and np.array_equal(c, c1)
        np.testing.assert_allclose(v, v1, rtol=1e-12, atol=0)
        np.testing.assert_allclose(g, g1, rtol=1e-12, atol=1e-12)

    best = 0
    for i in range(1, restarts):
        if v1[i] > v1[best] + 1e-15:
            best = i
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    for width in (1, 3, 32):
        for cpus in (1, 2):
            force_block_rows(monkeypatch, width, surface)
            monkeypatch.setattr(rl, "_cpu_count", lambda: cpus)
            cert = rstar_lower_power(surface, p, q, restarts=restarts, max_iters=iters, seed=5)
            assert cert.meta["restart_iterations"] == it1.tolist()
            assert cert.meta["restarts_converged"] == int(c1.sum())
            assert cert.meta["best_restart"] == best
            assert cert.meta["converged"] == bool(c1[best])
            assert cert.meta["transform_value"] == pytest.approx(v1[best], rel=1e-12, abs=0)
            witness = SurfaceFunction(surface, g1[best])
            expect = rl.lp_norm(extension(witness), q) / rl.surface_lp_norm(witness, p)
            assert cert.value == pytest.approx(expect, rel=1e-12, abs=0)


def test_power_many_workers_match_one_worker(monkeypatch, f7):
    # more workers than cores, one restart per block and a short switch
    # interval, so the threads interleave as much as they can
    surface = paraboloid(f7, 3)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    force_block_rows(monkeypatch, 1, surface)
    monkeypatch.setattr(rl, "_cpu_count", lambda: 1)
    serial = rstar_lower_power(surface, 2, 3, restarts=24, max_iters=40, seed=9)
    monkeypatch.setattr(rl, "_cpu_count", lambda: 8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threaded = rstar_lower_power(surface, 2, 3, restarts=24, max_iters=40, seed=9)
    finally:
        sys.setswitchinterval(interval)
    assert threaded.witness == serial.witness
    assert threaded.meta == serial.meta
    assert threaded.value == serial.value


def test_power_workers_call_no_traced_function(monkeypatch, capsys):
    # the benchmark's tracer keeps one span stack, so every function it wraps
    # must run on the main thread; F_13, n = 3 on two threads makes 3 blocks
    # of the 32 restarts (14, 14 and 4 rows: 2^15 // 13^3 = 14)
    def main_thread_only(fn):
        def guarded(*args, **kwargs):
            assert threading.current_thread() is threading.main_thread(), fn.__name__
            return fn(*args, **kwargs)
        return guarded

    modules = [m for key, m in sys.modules.items() if key == "fflab" or key.startswith("fflab.")]
    for owner, name in [
        (surfaces, "extension"), (surfaces, "extension_adjoint"),
        (grid, "lp_norm"), (grid, "fourier_forward"),
    ]:
        orig = getattr(owner, name)
        guarded = main_thread_only(orig)
        for m in modules:
            for key, val in list(vars(m).items()):
                if val is orig:
                    monkeypatch.setattr(m, key, guarded)
    on_main = []
    ascent = rl._power_ascent

    def recorded(*args, **kwargs):
        on_main.append(threading.current_thread() is threading.main_thread())
        return ascent(*args, **kwargs)

    monkeypatch.setattr(rl, "_power_ascent", recorded)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.setattr(rl, "_cpu_count", lambda: 2)
    argv = ["restriction", "estimate", "--field", "13", "--dim", "3", "--surface", "cone",
            "--p", "2", "--q", "4"]
    assert cli.main(argv) == 0
    assert "[pass] lower_recheck" in capsys.readouterr().out
    assert len(on_main) == 3 and not any(on_main)


@pytest.mark.parametrize("env,workers", [
    ({"OPENBLAS_NUM_THREADS": "1"}, 3),
    ({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "4"}, 3),
    ({"OMP_NUM_THREADS": "1"}, 3),
    ({"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, 1),
    ({"OPENBLAS_NUM_THREADS": "", "OMP_NUM_THREADS": "1"}, 1),
    ({"OMP_NUM_THREADS": "8"}, 1),
    ({}, 1),
])
def test_ascent_threads_only_with_blas_pinned(monkeypatch, f7, env, workers):
    # OPENBLAS_NUM_THREADS decides when set, OMP_NUM_THREADS when it is not;
    # a multithreaded or unknown BLAS gets one ascent thread
    for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        monkeypatch.delenv(key, raising=False)
    for key, val in env.items():
        monkeypatch.setenv(key, val)
    monkeypatch.setattr(rl, "_cpu_count", lambda: 3)
    assert rl._ascent_workers(5) == workers
    assert rl._ascent_workers(2) == min(workers, 2)
    # 7 one-row blocks: the certificate does not depend on the thread count
    surface = paraboloid(f7, 2)
    force_block_rows(monkeypatch, 1, surface)
    started = []
    ascent = rl._power_ascent

    def recorded(*args, **kwargs):
        started.append(threading.current_thread() is threading.main_thread())
        return ascent(*args, **kwargs)

    monkeypatch.setattr(rl, "_power_ascent", recorded)
    cert = rstar_lower_power(surface, 2, 4, restarts=7, max_iters=30, seed=3)
    assert len(started) == 7 and all(started) == (workers == 1)
    monkeypatch.setattr(rl, "_power_ascent", ascent)
    monkeypatch.setattr(rl, "_cpu_count", lambda: 1)
    serial = rstar_lower_power(surface, 2, 4, restarts=7, max_iters=30, seed=3)
    assert (cert.witness, cert.meta, cert.value) == (serial.witness, serial.meta, serial.value)


@pytest.mark.parametrize("width", [5**3, 7**3, 11**3, 13**3, 17**3, 19**3, 31**3])
@pytest.mark.parametrize("cpus", [1, 2, 3])
@pytest.mark.parametrize("restarts", [1, 6, 32])
def test_power_blocks_follow_the_thread_count(monkeypatch, width, cpus, restarts):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.setattr(rl, "_cpu_count", lambda: cpus)
    workers = rl._ascent_workers(restarts)
    layout = rl._power_blocks(restarts, width, workers)
    sizes = [b.stop - b.start for b in layout]
    # the blocks cover the restarts once and in order
    assert [i for b in layout for i in range(b.start, b.stop)] == list(range(restarts))
    assert min(sizes) >= 1
    # no block past the cap unless a single row is
    assert all(rows * width <= rl.POWER_BLOCK_CAP or rows == 1 for rows in sizes)
    share = -(-restarts // workers) * width
    if share >= rl.POWER_BLOCK_ENTRIES:
        # one block per thread, more only where the cap cuts a share
        assert len(layout) >= workers
    if share <= rl.POWER_BLOCK_CAP:
        assert len(layout) <= workers
    if restarts * width <= rl.POWER_BLOCK_ENTRIES:
        assert len(layout) == 1


def test_power_blocks_on_two_threads():
    # the 32 default restarts on two threads, by grid size |F|^3
    rows = {
        q: [b.stop - b.start for b in rl._power_blocks(32, q**3, 2)]
        for q in (5, 7, 11, 13, 19, 31)
    }
    assert rows == {
        5: [32], 7: [32], 11: [16, 16], 13: [14, 14, 4], 19: [4] * 8, 31: [1] * 32,
    }


def test_small_ascent_runs_on_the_calling_thread(monkeypatch):
    # F_7, n = 3: all 32 restarts fit in 2^14 entries, so two CPUs get one block
    surface = paraboloid(make_field(7), 3)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.setattr(rl, "_cpu_count", lambda: 2)
    started = []
    ascent = rl._power_ascent

    def recorded(*args, **kwargs):
        started.append(threading.current_thread() is threading.main_thread())
        return ascent(*args, **kwargs)

    monkeypatch.setattr(rl, "_power_ascent", recorded)
    rstar_lower_power(surface, 2, 4, max_iters=5)
    assert started == [True]


def refuse(*args, **kwargs):
    raise AssertionError("ran before the refusal")


@pytest.mark.parametrize("kwargs,message", [
    ({"max_iters": 0}, "need at least one iteration, got 0"),
    ({"max_iters": -1}, "need at least one iteration, got -1"),
    ({"tol": -1.0}, "need a tolerance >= 0, got -1.0"),
    ({"tol": math.nan}, "need a tolerance >= 0, got nan"),
])
def test_power_refuses_bad_iterations_and_tolerance_first(monkeypatch, f5, kwargs, message):
    monkeypatch.setattr(rl, "_transform_plan", refuse)
    monkeypatch.setattr(rl, "_starts", refuse)
    with pytest.raises(FFLabError, match=f"^{re.escape(message)}$"):
        rstar_lower_power(paraboloid(f5, 3), 2, 4, **kwargs)


def test_power_budget_charges_the_starts(monkeypatch, f5):
    surface = paraboloid(f5, 3)
    work = 3 * surface.size  # restarts * |S| start entries
    cert = rstar_lower_power(surface, 2, 4, restarts=3, max_iters=20, budget=work)
    assert cert.meta["restarts"] == 3
    monkeypatch.setattr(rl, "_starts", refuse)
    message = f"ascent start entries restarts |S| = {work} exceeds the budget {work - 1}"
    with pytest.raises(BudgetExceededError, match=f"^{re.escape(message)}$"):
        rstar_lower_power(surface, 2, 4, restarts=3, max_iters=20, budget=work - 1)


TRANSFORM_PATH = (
    "_transform_matrices", "transform_axes", "_transform_plan", "_extend_rows",
    "_adjoint_rows", "fourier_forward", "fourier_inverse",
)


def test_recheck_independent_of_transform_plan(monkeypatch, f5, f7):
    certs = [
        rstar_lower_power(paraboloid(f5, 3), 2, 4, restarts=3, max_iters=60),
        rstar_lower_power(paraboloid(f7, 3), 3, 3, restarts=3, max_iters=60),
        rstar_lower_power(cone(f7), Fraction(8, 5), 4, restarts=3, max_iters=60),
        rstar_lower_power(moment_curve(f7, 3), 2, math.inf, restarts=3, max_iters=60),
        rstar_lower_witness(paraboloid(f5, 3), 2, 4, "constant"),
        rstar_lower_witness(paraboloid(f7, 2), 2, 4, "dirac"),
        rstar_lower_witness(cone(f7), 2, 4, "dual_cone_X"),
    ]
    assert all(math.isfinite(c.value) and c.value > 0 for c in certs)

    def refuse(*args, **kwargs):
        raise AssertionError("the recheck must not use the transform path")

    # built first, then every transform-path name refused wherever it is bound
    patched = 0
    for module in (grid, surfaces, rl):
        for name in TRANSFORM_PATH:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
                patched += 1
    assert patched >= 12
    with pytest.raises(AssertionError):
        extension(SurfaceFunction.constant(paraboloid(f5, 2)))
    with pytest.raises(AssertionError):
        surfaces.extension_adjoint(Grid.constant(f5, 2), paraboloid(f5, 2))
    assert all(verify_lower(c) for c in certs)


# -- explicit witnesses ----------------------------------------------------------------


def test_dirac_witness_matches_closed_form(f5):
    surface = paraboloid(f5, 2)
    cert = rstar_lower_witness(surface, 2, 4, "dirac")
    expect = surface.size ** (1 / 2 - 1) * 5 ** (2 / 4)
    assert cert.value == pytest.approx(expect, rel=1e-12)
    assert cert.meta["closed_form"] == pytest.approx(expect, rel=1e-12)
    assert verify_lower(cert)


def test_constant_witness_attains_l2(f7):
    surface = cone(f7)
    cert = rstar_lower_witness(surface, 2, 2, "constant")
    assert cert.value == pytest.approx(rstar_exact_closed(surface, 2, 2).value, rel=1e-12)
    assert verify_lower(cert)


def test_constant_witness_attains_sup(f5):
    cert = rstar_lower_witness(paraboloid(f5, 2), 2, math.inf, "constant")
    assert cert.value == pytest.approx(1.0, rel=1e-12)


def test_subspace_witness(f5, f7):
    surface = paraboloid(f5, 3)
    a, b = find_affine_line(surface)
    # the line really lies on the surface
    ts = np.arange(5, dtype=np.int64)
    f5_ = surface.field
    pts = np.stack(
        [f5_.add_arrays(np.full_like(ts, a[j]), f5_.mul_arrays(ts, b[j])) for j in range(3)],
        axis=1,
    )
    on = set(int(x) for x in surface.flat)
    assert all(int(x) in on for x in flat_points(f5_, pts))
    # the line's extension is (1/5) of a hyperplane indicator: ratio 1 at q = 4,
    # 5^{1/10} at q = 10/3, so boundedness forces q >= 4
    cert = rstar_lower_witness(surface, 2, 4, "subspace")
    assert cert.value == pytest.approx(1.0, rel=1e-12)
    assert verify_lower(cert)
    tight = rstar_lower_witness(surface, 2, "10/3", "subspace")
    assert tight.value == pytest.approx(5 ** 0.1, rel=1e-12)
    with pytest.raises(FFLabError, match="no affine line inside the surface"):
        find_affine_line(paraboloid(f7, 3))


def affine_line_scan(surface):
    """The first contained line {a + tb} of the scan in scalar arithmetic: base
    points in surface order, then directions with first nonzero coordinate 1
    in flat order; None when there is none."""
    fld, n, q = surface.field, surface.n, surface.field.order
    on = {tuple(pt) for pt in surface.points.tolist()}
    dirs = [[flat // q**j % q for j in range(n)] for flat in range(1, q**n)]
    reps = [b for b in dirs if next(c for c in b if c) == 1]
    for a in surface.points.tolist():
        for b in reps:
            line = (tuple(fld.add(x, fld.mul(t, y)) for x, y in zip(a, b)) for t in range(q))
            if all(pt in on for pt in line):
                return a, b
    return None


LINE_CASES = list(dict.fromkeys([  # the first eight, then every kind on small fields
    (5, 1, 3, "paraboloid"), (13, 1, 3, "paraboloid"), (17, 1, 3, "paraboloid"),
    (3, 2, 3, "paraboloid"), (5, 1, 4, "paraboloid"),
    (7, 1, 3, "paraboloid"), (13, 1, 3, "cone"),  # no line
    (7, 1, 3, "paraboloid+line"),  # a custom point list: refused whatever it holds
] + [
    (p, k, n, kind)
    for p, k in [(3, 1), (5, 1), (7, 1), (11, 1), (3, 2)]
    for n, kind in [
        (2, "paraboloid"), (3, "paraboloid"), (4, "paraboloid"), (3, "cone"),
        (1, "moment_curve"), (2, "moment_curve"), (3, "moment_curve"), (2, "double_paraboloid"),
    ]
    if kind != "moment_curve" or p > n
] + [  # F_{5^2} and F_{3^3}: -1 a square and not one, on cases the scan ends fast
    (5, 2, 2, "paraboloid"), (5, 2, 3, "moment_curve"),
    (3, 3, 2, "paraboloid"), (3, 3, 4, "paraboloid"), (3, 3, 2, "moment_curve"),
]))


@pytest.mark.parametrize("p,k,n,kind", LINE_CASES)
def test_find_affine_line_against_scan(p, k, n, kind):
    field = make_field(p, k)
    if kind == "paraboloid+line":  # the F_7 paraboloid with the line (1, 1, t) added
        pts = surfaces.paraboloid(field, n).points
        extra = [[1, 1, t] for t in range(p) if t != 2]  # (1, 1, 2) is on the paraboloid
        surface = surfaces.SurfaceMeasure(
            field, n, np.vstack([pts, extra]), surfaces.SurfaceKind.CUSTOM
        )
        assert affine_line_scan(surface) == ([1, 1, 2], [0, 0, 1])
        with pytest.raises(FFLabError, match="no affine line inside the surface: a custom"):
            find_affine_line(surface)
        return
    surface = surfaces.build_surface(kind, field, n)
    if affine_line_scan(surface) is None:
        with pytest.raises(FFLabError, match="no affine line inside the surface: "):
            find_affine_line(surface)
        return
    a, b = find_affine_line(surface)
    assert a.dtype == b.dtype == np.int64 and a.tolist() == [0] * surface.n and b.any()
    fld = surface.field
    on_line = {tuple(fld.add(x, fld.mul(t, y)) for x, y in zip(a.tolist(), b.tolist()))
               for t in range(fld.order)}
    assert on_line <= {tuple(pt) for pt in surface.points.tolist()}
    # the subspace witness is the indicator of that line on the surface
    cert = rstar_lower_witness(surface, 2, 4, "subspace")
    vals = np.frombuffer(cert.witness, dtype="<c16")
    assert vals.tolist() == [complex(tuple(pt) in on_line) for pt in surface.points.tolist()]


@pytest.mark.parametrize("p,k,n,kind", [
    (5, 1, 3, "paraboloid"), (5, 1, 4, "paraboloid"), (5, 1, 5, "paraboloid"),  # -1 a square
    (3, 1, 4, "paraboloid"), (7, 1, 4, "paraboloid"), (3, 1, 5, "paraboloid"),  # -1 not one
    (3, 2, 3, "paraboloid"), (5, 1, 2, "double_paraboloid"), (3, 1, 3, "double_paraboloid"),
    (7, 1, 1, "moment_curve"),
])
def test_subspace_witness_equals_its_closed_form(p, k, n, kind):
    # E1_L = e(x.a) (|F|/|S|) 1[x.b = 0] for a line L on S, so the ratio is
    # (|F|/|S|)^{1 - 1/p} |F|^{(N - 1)/q} in the ambient dimension N
    surface = surfaces.build_surface(kind, make_field(p, k), n)
    ratio = surface.field.order / surface.size
    for ep in ["1", "8/5", "2", "inf"]:
        for eq in ["10/3", "4", "inf"]:
            cert = rstar_lower_witness(surface, ep, eq, "subspace")
            want = ratio ** (1 - 1 / as_float(parse_exponent(ep))) * float(
                surface.field.order
            ) ** ((surface.n - 1) / as_float(parse_exponent(eq)))
            assert cert.meta["closed_form"] == pytest.approx(want, rel=1e-12)
            assert cert.value == pytest.approx(cert.meta["closed_form"], rel=1e-12)


def test_subspace_witness_runs_at_the_default_budget():
    # -1 is a square in F_97, so the line is (t, i t, 0) through the origin
    surface = paraboloid(make_field(97), 3)
    cert = rstar_lower_witness(surface, 2, 4, "subspace")
    assert cert.meta["line_base"] == [0, 0, 0] and cert.value == pytest.approx(1.0, rel=1e-12)


def test_dual_cone_witness_frozen(f7):
    cert = rstar_lower_witness(cone(f7), 2, 4, "dual_cone_X")
    assert cert.value == pytest.approx(0.8367291862806082, abs=1e-12)
    assert verify_lower(cert)
    with pytest.raises(FFLabError, match="the dual set witness lives on the cone"):
        rstar_lower_witness(paraboloid(f7, 2), 2, 4, "dual_cone_X")
    with pytest.raises(FFLabError, match="no witness named 'no_such_thing'"):
        rstar_lower_witness(cone(f7), 2, 4, "no_such_thing")


def test_recheck_uses_independent_path(f5):
    surface = paraboloid(f5, 2)
    cert = rstar_lower_witness(surface, 2, 4, "constant")
    assert recheck_lower(cert) == pytest.approx(cert.value, rel=1e-12)
    upper = rstar_upper_even(surface, 2, 4)
    with pytest.raises(
        FFLabError, match="only witness-bearing lower certificates can be rechecked"
    ):
        recheck_lower(upper)


@pytest.mark.parametrize("name,n", [
    ("paraboloid", 2), ("paraboloid", 3), ("cone", 3), ("moment", 3),
    ("double_paraboloid", 2), ("double_paraboloid", 3),
])
def test_rebuild_surface_returns_the_producers_points(name, n):
    # every surface the command line builds, rebuilt from one of its certificates
    surface = cli.build_surface_arg(name, make_field(5), n)
    cert = rstar_exact_closed(surface, 2, math.inf)
    # the surface is named by its kind alone: no other meta key describes it
    assert cert.meta["surface_kind"] == surface.kind.value
    assert set(cert.meta) == {"surface_kind", "derivation"}
    again = rebuild_surface(cert)
    assert again.kind == surface.kind and again.n == surface.n
    assert np.array_equal(again.points, surface.points)


def test_rebuild_surface_roundtrip(f7):
    cert = rstar_exact_closed(cone(f7), 2, 2)
    again = rebuild_surface(cert)
    assert again.size == 48
    assert sorted(int(x) for x in again.flat) == sorted(int(x) for x in cone(f7).flat)


def test_consistency_flags_fabricated_pair(f5):
    surface = paraboloid(f5, 2)
    upper = rstar_upper_even(surface, 2, 4)
    fake = NormCertificate(
        quantity="rstar", kind="lower", method="witness",
        char=5, degree=1, n=2, surface=upper.surface,
        p=parse_exponent(2), q=parse_exponent(4), value=upper.value + 1.0,
    )
    problems = certificate_consistency([fake, upper])
    assert len(problems) == 1 and "exceeds upper" in problems[0]


def test_certificate_dict_roundtrip(f5):
    cert = rstar_lower_witness(paraboloid(f5, 2), 2, 4, "dirac")
    again = NormCertificate.from_dict(cert.to_dict())
    assert again.key == cert.key
    assert again.value == cert.value
    assert again.witness == cert.witness
    assert "R*" in again.describe()


# -- necessary region ------------------------------------------------------------------


def inside(region, p, q) -> bool:
    """Membership as ``restriction region`` decides it: every constraint holds."""
    p, q = parse_exponent(p), parse_exponent(q)
    return all(check(p, q) for _, check in region.constraints())


def test_region_membership():
    region = ExponentRegion(3, Fraction(2))
    assert inside(region, 2, 4)
    assert inside(region, 2, 3)  # boundary counts as inside
    assert not inside(region, 2, "8/3")
    assert inside(region, 1, math.inf)
    sharpened = ExponentRegion(3, Fraction(2), k_subspace=1)
    assert not inside(sharpened, 2, "7/2")
    assert inside(ExponentRegion(3, Fraction(2)), 2, "7/2")


def region_oracle(region, p, q) -> list[bool]:
    """Each constraint's verdict with infinity handled by hand: q = inf meets
    every bound, a finite q misses an infinite one, else compare exactly."""

    def scale(c, e):
        return math.inf if e == math.inf else c * Fraction(e)

    def ge(a, b):
        if a == math.inf:
            return True
        if b == math.inf:
            return False
        return Fraction(a) >= Fraction(b)

    n, d, k = region.n, Fraction(region.d), region.k_subspace
    bounds = [Fraction(2 * n) / d, scale(Fraction(n) / d, holder_dual(p))]
    if k is not None:
        bounds.append(scale(Fraction(n - k) / (d - k), holder_dual(p)))
    return [ge(q, b) for b in bounds]


REGION_EXPONENTS = [parse_exponent(e) for e in (
    1, "8/7", "4/3", "3/2", "8/5", 2, "8/3", 3, "7/2", 4, 6, "inf",
)]


@pytest.mark.parametrize("n,d,k", [
    (2, 1, None), (3, 2, None), (3, 2, 1), (3, 1, 0), (4, 3, 2), (4, Fraction(5, 2), None),
])
def test_region_constraints_match_the_oracle(n, d, k):
    region = ExponentRegion(n, Fraction(d), k)
    for p in REGION_EXPONENTS:
        for q in REGION_EXPONENTS:
            verdicts = [check(p, q) for _, check in region.constraints()]
            assert verdicts == region_oracle(region, p, q), (p, q)


def test_region_constraint_labels():
    labels = [name for name, _ in ExponentRegion(3, Fraction(2), 1).constraints()]
    assert len(labels) == 3
    assert any("subspace" in s for s in labels)


# -- incidences ------------------------------------------------------------------------


def incidence_oracle(field, pts) -> int:
    count = 0
    for a in pts:
        sd = field.dot(a, a)
        for b in pts:
            if field.dot(a, b) == sd:
                count += 1
    return count


def test_selfdot_incidences_frozen(f7):
    pts = f7.grid_coords(2)[1:]
    rep = selfdot_incidence_count(f7, pts)
    assert rep.count == 336
    assert rep.satisfied and rep.count <= rep.bound
    assert rep.bound == pytest.approx(48 * math.sqrt(48) + 48)
    small = [tuple(int(c) for c in row) for row in pts[:12]]
    rep2 = selfdot_incidence_count(f7, np.array(small))
    assert rep2.count == incidence_oracle(f7, small)


def test_selfdot_rejections(f7):
    with pytest.raises(FFLabError, match="-1 is a square; the self-dot lines degenerate"):
        selfdot_incidence_count(make_field(13), make_field(13).grid_coords(2)[1:])
    with pytest.raises(ValueError):
        selfdot_incidence_count(f7, f7.grid_coords(2))  # contains the origin


@pytest.mark.parametrize("p", [3, 7, 11, 19, 23])
def test_selfdot_closed_form(p):
    # xi.eta = xi.xi is a line through xi for each xi != 0; it meets the
    # nonzero points in all |F| of its points, as it misses the origin
    field = make_field(p)
    rep = selfdot_incidence_count(field, field.grid_coords(2)[1:])
    assert rep.count == p * (p * p - 1)


def test_selfdot_budget_refuses_before_arithmetic(monkeypatch):
    # the budget caps the |P| |F| points of the self-dot lines, before the
    # perpendiculars -xi_2 are taken, over a prime and an extension field
    def refuse(*args, **kwargs):
        raise AssertionError("field arithmetic ran before the budget check")

    for field in (make_field(23), make_field(3, 3)):
        pts = field.grid_coords(2)[1:]
        for name in ("mul_arrays", "add_arrays", "neg_arrays"):
            monkeypatch.setattr(field, name, refuse)
        with pytest.raises(BudgetExceededError, match="line points L"):
            selfdot_incidence_count(field, pts, budget=len(pts) * field.order - 1)
        with pytest.raises(AssertionError):
            selfdot_incidence_count(field, pts, budget=len(pts) * field.order)


def test_selfdot_uneven_blocks(monkeypatch):
    field = make_field(11)
    pts = field.grid_coords(2)[1:]
    monkeypatch.setattr(grid, "BLOCK_ENTRIES", 7 * 11)  # 120 lines in blocks of 7
    assert selfdot_incidence_count(field, pts).count == 11 * 120
    rows = [tuple(int(c) for c in row) for row in pts[::3]]
    assert selfdot_incidence_count(field, pts[::3]).count == incidence_oracle(field, rows)


def test_selfdot_extension_field_against_oracle():
    # -1 is a non-square in F_27, which is not a prime field
    field = make_field(3, 3)
    pts = field.grid_coords(2)[1:]
    rep = selfdot_incidence_count(field, pts)
    assert rep.count == 27 * (27 * 27 - 1)
    sel = pts[np.random.default_rng(11).choice(len(pts), size=40, replace=False)]
    rows = [tuple(int(c) for c in row) for row in sel]
    assert selfdot_incidence_count(field, sel).count == incidence_oracle(field, rows)


# -- exact identities ------------------------------------------------------------------


def test_pseudoconformal_identity(f7):
    rng = np.random.default_rng(3)
    vals = np.zeros(343, dtype=np.complex128)
    vals[:49] = rng.standard_normal(49) + 1j * rng.standard_normal(49)
    g = Grid(f7, 3, vals, Side.SPACE)
    assert pseudoconformal_identity_check(g) < 1e-12


def test_pseudoconformal_rejects_bad_support(f7, f5):
    vals = np.zeros(343, dtype=np.complex128)
    vals[100] = 1.0
    with pytest.raises(FFLabError, match="grid must vanish off the bottom slice"):
        pseudoconformal_identity_check(Grid(f7, 3, vals, Side.SPACE))
    with pytest.raises(FFLabError, match=r"expected a space-side grid on F\^3"):
        pseudoconformal_identity_check(Grid.constant(f5, 2, 1.0, Side.SPACE))


def test_bridge_identities(f5):
    dev = bridge_identity_checks(f5, 2, seed=0, trials=3)
    assert set(dev) == {"embed", "line_sum", "cap"}
    assert max(dev.values()) < 1e-12
