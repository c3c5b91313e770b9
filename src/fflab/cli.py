"""Command-line harness.

One experiment per invocation: the subcommand picks the module operation,
global flags fix the seed, budget, output path, and format.  Exit code 0
means the run completed with every check passing, 1 means a check or
certificate invariant failed, 2 means the configuration was invalid.  A run
prints its output and writes one file only when ``--out`` names it.

Exponents on the command line are exact rationals ("2", "8/5", "inf");
decimals are rejected so that region boundaries stay exact.  Fields parse
as "7", "3^2", comma lists, and prime ranges "3..97".
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import __version__
from . import kakeya as kk
from . import restriction as rl
from . import surfaces as sf
from .certificates import (
    NormCertificate,
    certificate_consistency,
    exponent_str,
    parse_exponent,
)
from .errors import (
    DEFAULT_BUDGET, BudgetExceededError, FFLabError, NoClosedFormError, require_budget,
)
from .field import Field, is_prime, make_field
from .grid import Grid, Side, fourier_forward, fourier_inverse, lp_norm, parseval_defect
from .reports import CheckResult, ExperimentReport, store_report

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_CONFIG = 2

SURFACE_ALIASES = {
    "parabola": "paraboloid",
    "moment": "moment_curve",
}

DEFAULT_FIELDS = "3,5,7,11,13"
KERNEL_CASES = ((5, 2), (7, 2), (7, 3), (11, 3))


# -- argument helpers -----------------------------------------------------------------


def parse_field_token(tok: str) -> tuple[int, int]:
    tok = tok.strip()
    if "^" in tok:
        base, _, exp = tok.partition("^")
        return (int(base), int(exp))
    return (int(tok), 1)


def parse_fields(arg: str) -> list[tuple[int, int]]:
    out = []
    for tok in arg.split(","):
        tok = tok.strip()
        if ".." in tok:
            lo, _, hi = tok.partition("..")
            out.extend((p, 1) for p in range(int(lo), int(hi) + 1) if is_prime(p))
        elif tok:
            out.append(parse_field_token(tok))
    if not out:
        raise ValueError(f"no fields in {arg!r}")
    return out


def field_label(field: Field) -> str:
    return f"F_{field.p}" + (f"^{field.k}" if field.k > 1 else "")


def build_surface_arg(name: str, field: Field, n: int) -> sf.SurfaceMeasure:
    kind = SURFACE_ALIASES.get(name, name)
    return sf.build_surface(kind, field, n)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=0, help="RNG seed (always recorded)")
    parser.add_argument(
        "--budget", type=int, default=DEFAULT_BUDGET, help="work cap for counting loops"
    )
    parser.add_argument("--out", type=Path, default=None, help="also write the output here")
    parser.add_argument(
        "--format", choices=("text", "json", "csv"), default="text", dest="fmt",
        help="stdout format",
    )


# Parsed arguments that cannot change a run's result, so they do not identify it.
NOT_CONFIG = ("command", "subcommand", "func", "out", "fmt", "budget")


def _report(
    args, t0, checks, config=None, *, field=None, n=0, surface=None, p=None, q=None,
    certificates=(), experiment=None, note=None, unread=(),
) -> tuple[int, str]:
    """Build and render one run's report; exit 1 if any check failed.

    The run's config is every parsed argument that can change its result,
    with exponent arguments recorded as the resolved ``p``/``q``, plus the
    command's derived values in ``config``; ``unread`` names parsed
    arguments this run ignores, which stay out of it.  ``note`` is appended
    to text output only.
    """
    run_config = {
        k: v for k, v in vars(args).items() if k not in NOT_CONFIG and k not in unread
    }
    run_config["command"] = f"{args.command} {args.subcommand}"
    for name, value in (("p", p), ("q", q)):
        if name in run_config:
            run_config[name] = exponent_str(value)
    run_config.update(config or {})
    report = ExperimentReport(
        experiment=experiment or f"{args.command}-{args.subcommand}",
        char=field.p if field else 0, degree=field.k if field else 0,
        n=n, surface=surface, p=p, q=q,
        certificates=list(certificates), checks=checks,
        runtime_ms=(time.perf_counter() - t0) * 1000.0,
        seed=args.seed, config=run_config,
    )
    rendered = report.render(args.fmt)
    if note and args.fmt == "text":
        rendered += "\n" + note
    return (EXIT_OK if report.all_passed else EXIT_VIOLATION), rendered


# -- restriction ----------------------------------------------------------------------


def cmd_restriction_estimate(args) -> tuple[int, str]:
    t0 = time.perf_counter()
    field = make_field(*parse_field_token(args.field))
    surface = build_surface_arg(args.surface, field, args.dim)
    p = parse_exponent(args.p)
    q = parse_exponent(args.q)

    certs, checks = [], []
    for cert in rl.certify(
        surface, p, q, method=args.method, restarts=args.restarts, max_iters=args.iters,
        tol=args.tol, seed=args.seed, budget=args.budget,
    ):
        if isinstance(cert, BudgetExceededError):
            raise cert
        certs.append(cert)
        if cert.kind == "lower":
            checks.append(CheckResult("lower_recheck", rl.verify_lower(cert), None))

    violations = certificate_consistency(certs)
    checks.append(CheckResult("certificate_consistency", not violations, None))
    return _report(
        args, t0, checks,
        field=field, n=args.dim, surface=args.surface, p=p, q=q, certificates=certs,
    )


def cmd_restriction_region(args) -> tuple[int, str]:
    t0 = time.perf_counter()
    p = parse_exponent(args.p)
    q = parse_exponent(args.q)
    region = rl.ExponentRegion(args.dim, Fraction(args.surface_dim), args.subspace_dim)
    checks = [
        CheckResult(label, bool(test(p, q)), None) for label, test in region.constraints()
    ]
    inside = all(c.passed for c in checks)
    _, rendered = _report(
        args, t0, checks,
        n=args.dim, p=p, q=q, note=f"inside necessary region: {'yes' if inside else 'no'}",
    )
    # a point outside the region is an answer, not a failure
    return EXIT_OK, rendered


def cmd_restriction_witness(args) -> tuple[int, str]:
    t0 = time.perf_counter()
    field = make_field(*parse_field_token(args.field))
    surface = build_surface_arg(args.surface, field, args.dim)
    p = parse_exponent(args.p)
    q = parse_exponent(args.q)
    cert = rl.rstar_lower_witness(surface, p, q, args.witness)
    checks = [CheckResult("witness_recheck", rl.verify_lower(cert), None)]
    return _report(
        args, t0, checks,
        field=field, n=args.dim, surface=args.surface, p=p, q=q, certificates=[cert],
    )


# -- verify ---------------------------------------------------------------------------


def _suite_gauss(fields, checks, rng) -> None:
    """Each field's transform-computed Gauss sums against |S|^2 = |F|, against
    Gauss's closed form, and against direct sums over t at x = 1 and at the
    smallest non-square (no transform on that path)."""
    for pk in fields:
        field = make_field(*pk)
        label = field_label(field)
        t = np.arange(field.order, dtype=np.int64)
        sums = sf.gauss_sum(field, t)
        worst = float(np.abs(np.abs(sums[1:]) ** 2 - field.order).max())
        checks.append(CheckResult(f"gauss:{label}", worst <= 1e-6, worst))
        closed = sf.gauss_sum_closed_form(field, t)
        worst = float((np.abs(sums - closed) / np.maximum(1.0, np.abs(closed))).max())
        checks.append(CheckResult(f"gauss_closed_form:{label}", worst <= 1e-9, worst))
        squares = field.mul_arrays(t, t)
        xs = [1, int(np.argmin(field.squares))]  # 0 is a square: argmin is the first non-square
        direct = np.array([field.character[field.mul_arrays(squares, x)].sum() for x in xs])
        worst = float((np.abs(direct - sums[xs]) / np.maximum(1.0, np.abs(direct))).max())
        checks.append(CheckResult(f"gauss_direct:{label}", worst <= 1e-9, worst))


def _suite_parseval(fields, checks, rng) -> None:
    for pk in fields:
        field = make_field(*pk)
        for n in (1, 2, 3):
            if field.order**n > 20000:
                continue
            f = Grid.random(field, n, rng)
            g = Grid.random(field, n, rng)
            scale = lp_norm(f, 2) * lp_norm(g, 2)
            dev = parseval_defect(f, g) / scale
            back = fourier_inverse(fourier_forward(f))
            rt = float(np.abs(back.values - f.values).max())
            name = f"parseval:{field_label(field)}:n={n}"
            checks.append(CheckResult(name, dev <= 1e-9 and rt <= 1e-10, max(dev, rt)))


def _suite_kernel(fields, checks, rng) -> None:
    for p, n in KERNEL_CASES:
        dev = sf.paraboloid_kernel_formula_check(make_field(p), n)
        checks.append(CheckResult(f"paraboloid-kernel:F_{p}:n={n}", dev <= 1e-9, dev))


def _suite_bridge(fields, checks, rng) -> None:
    devs = rl.bridge_identity_checks(make_field(5), 2, seed=int(rng.integers(2**31)), trials=20)
    for name, dev in devs.items():
        checks.append(CheckResult(f"bridge:{name}", dev <= 1e-8, dev))


def _suite_pseudoconformal(fields, checks, rng) -> None:
    field = make_field(7)
    worst = 0.0
    for _ in range(20):
        vals = np.zeros(7**3, dtype=np.complex128)
        vals[: 7**2] = rng.standard_normal(49) + 1j * rng.standard_normal(49)
        g = Grid(field, 3, vals, Side.SPACE)
        worst = max(worst, rl.pseudoconformal_identity_check(g))
    checks.append(CheckResult("pseudoconformal:F_7", worst <= 1e-8, worst))


SUITES = {
    "gauss": _suite_gauss,
    "parseval": _suite_parseval,
    "paraboloid-kernel": _suite_kernel,
    "bridge": _suite_bridge,
    "pseudoconformal": _suite_pseudoconformal,
}


def cmd_verify_identities(args) -> tuple[int, str]:
    t0 = time.perf_counter()
    fields = parse_fields(args.fields)
    rng = np.random.default_rng(args.seed)
    names = list(SUITES) if args.suite == "all" else [args.suite]
    checks: list[CheckResult] = []
    for name in names:
        SUITES[name](fields, checks, rng)
    return _report(args, t0, checks, experiment=f"verify-identities:{args.suite}")


# -- kakeya ---------------------------------------------------------------------------


def cmd_kakeya_maximal(args) -> tuple[int, str]:
    t0 = time.perf_counter()
    field = make_field(*parse_field_token(args.field))
    n = args.dim
    p = parse_exponent(args.p) if args.p else Fraction(2)
    q = parse_exponent(args.q) if args.q else Fraction(2 * n - 2)
    names = tuple(w.strip() for w in args.witnesses.split(","))
    certs = kk.kakeya_norm_certificates(
        field, n, p, q, witnesses=names, seed=args.seed, budget=args.budget,
    )
    checks = [
        CheckResult(f"recheck:{c.meta['witness_name']}", ok, None)
        for c, ok in zip(certs, kk.verify_lowers(certs))
    ]
    try:
        certs.append(kk.kakeya_upper_overlap(field, n, p, q))
    except NoClosedFormError:
        pass
    violations = certificate_consistency(certs)
    checks.append(CheckResult("certificate_consistency", not violations, None))
    return _report(
        args, t0, checks,
        field=field, n=n, surface=f"lines(n={n})", p=p, q=q, certificates=certs,
    )


def cmd_kakeya_besicovitch(args) -> tuple[int, str]:
    t0 = time.perf_counter()
    field = make_field(*parse_field_token(args.field))
    wit = kk.besicovitch_2d(field)
    ok, missing, _ = kk.verify_besicovitch(field, 2, wit.flat, budget=args.budget)
    expected = (field.order**2 + field.order) // 2
    checks = [
        CheckResult("contains_line_every_direction", ok, float(len(missing))),
        CheckResult("size_formula", wit.size == expected, float(abs(wit.size - expected))),
    ]
    return _report(
        args, t0, checks, {"size": wit.size},
        field=field, n=2, note=f"size: {wit.size}  verified: {ok}",
    )


def cmd_kakeya_cordoba(args) -> tuple[int, str]:
    t0 = time.perf_counter()
    field = make_field(*parse_field_token(args.field))
    n = args.dim
    if n < 2:
        raise FFLabError("need n >= 2")
    if args.trials < 1:
        raise ValueError("need at least one trial")
    require_budget(args.trials * field.order**n, args.budget, "line points trials |F|^n")
    m = field.order ** (n - 1)
    rng = np.random.default_rng(args.seed)
    g = np.empty((args.trials, m), dtype=np.float64)
    x0map = np.empty((args.trials, m), dtype=np.int64)
    for i in range(args.trials):  # one trial at a time, to keep the seed's stream
        g[i] = rng.random(m)
        x0map[i] = rng.integers(0, m, m)
    worst = float(kk.cordoba_check(field, n, g, x0map).min())
    checks = [CheckResult("deficit_nonnegative", worst >= -1e-9, worst)]
    return _report(
        args, t0, checks,
        field=field, n=n, surface=f"lines(n={n})", p=Fraction(2), q=Fraction(2 * n - 2),
        certificates=[kk.kakeya_upper_overlap(field, n, 2, 2 * n - 2)],
    )


def _wolff_family(args, field: Field) -> tuple[np.ndarray, np.ndarray]:
    """(x0, v) arrays of the chosen line family in F^3."""
    q = field.order
    if args.family == "heisenberg":
        rep = kk.heisenberg_example(field, budget=args.budget)
        return rep.x0, rep.v
    if args.family == "distinct-directions":
        v = field.grid_coords(2)
        x0 = [field.mul_arrays(v[:, 0], v[:, 1]), field.add_arrays(v[:, 0], v[:, 1])]
        return np.stack(x0, axis=1), v
    if args.family == "random":
        if args.count < 1:
            raise ValueError("need at least one random line")
        rng = np.random.default_rng(args.seed)
        rows = np.unique(rng.integers(q, size=(args.count, 4)), axis=0)  # by (x0, v)
        return rows[:, :2], rows[:, 2:]
    raise FFLabError(f"unknown line family {args.family!r}")


def cmd_kakeya_wolff(args) -> tuple[int, str]:
    t0 = time.perf_counter()
    field = make_field(*parse_field_token(args.field))
    x0, v = _wolff_family(args, field)
    top = kk.wolff_axiom_check(field, x0, v, budget=args.budget)
    ratio = top / field.order
    checks = [CheckResult("plane_spread_measured", True, ratio)]
    return _report(
        args, t0, checks,
        {"lines": len(x0), "max_lines_in_plane": top, "ratio": ratio},
        field=field, n=3,
        note=f"lines: {len(x0)}  max in one plane: {top}  ratio to |F|: {ratio:.4f}",
        # every mode gives the same count, and only the random family reads --count
        unread=("mode",) if args.family == "random" else ("mode", "count"),
    )


def cmd_kakeya_heisenberg(args) -> tuple[int, str]:
    t0 = time.perf_counter()
    field = make_field(*parse_field_token(args.field))
    rep = kk.heisenberg_example(field, budget=args.budget)
    # Im is F_p-linear from F_{p^2} onto p values, so p z3 fit each (z1, z2): |P| = p^5
    exact = field.p**5
    checks = [
        CheckResult("all_lines_contained", rep.containment_ok, None),
        CheckResult("point_count", rep.point_count == exact, float(abs(rep.point_count - exact))),
        CheckResult("duplicate_direction_exists", rep.duplicate_direction is not None, None),
    ]
    derived = {
        "points": rep.point_count, "lines": rep.line_count,
        "point_ratio": rep.point_ratio, "line_ratio": rep.line_ratio,
    }
    return _report(
        args, t0, checks, derived, field=field, n=3,
        note=(
            f"|P| = {rep.point_count} (|F|^5/2 ratio {rep.point_ratio:.4f})"
            f"  |L| = {rep.line_count} (|F|^2 ratio {rep.line_ratio:.4f})"
        ),
    )


def cmd_kakeya_sd(args) -> tuple[int, str]:
    t0 = time.perf_counter()
    field = make_field(*parse_field_token(args.field))
    coords = field.grid_coords(2)[1:]  # all nonzero points of F^2
    rep = rl.selfdot_incidence_count(field, coords, budget=args.budget)
    exact = field.order * (field.order**2 - 1)  # no line meets 0, as xi.0 = 0 != xi.xi
    checks = [
        CheckResult("incidence_bound", rep.satisfied, float(rep.count)),
        CheckResult("closed_form", rep.count == exact, float(abs(rep.count - exact))),
    ]
    return _report(
        args, t0, checks,
        {"points": int(rep.point_count), "count": int(rep.count), "bound": rep.bound},
        field=field, n=2, note=f"incidences: {rep.count}  bound: {rep.bound:.2f}",
    )


def cmd_kakeya_slices(args) -> tuple[int, str]:
    t0 = time.perf_counter()
    field = make_field(*parse_field_token(args.field))
    wit = kk.besicovitch_2d(field)
    slopes = [s.strip() for s in args.slopes.split(",")]
    rep = kk.slices_construction(wit, args.t0, args.t_inf, slopes)
    checks = [
        CheckResult("pair_count", rep.size == field.order, float(rep.size)),
        CheckResult("difference_injective", rep.injective, None),
    ]
    for chk in rep.checks:
        checks.append(
            CheckResult(
                f"slice_dominates:r={chk.slope}", chk.dominated,
                float(chk.projection_size - chk.slice_size),
            )
        )
    return _report(args, t0, checks, field=field, n=2)


# -- figure 1 table -------------------------------------------------------------------


# surface, n, the primes it may be built over, and its (label, p, q) pairs: the
# sharp or best-known exponent pairs and the conjectured ones
FIGURE1 = (
    ("moment_curve", 3, lambda p: p > 3, [("theorem (sharp)", 2, 6)]),
    ("parabola", 2, lambda p: True, [("theorem (sharp)", 2, 4)]),
    ("paraboloid (-1 non-square)", 3, lambda p: p % 4 == 3, [
        ("theorem", Fraction(8, 5), 4),
        ("theorem (endpoint open)", 2, Fraction(18, 5)),
        ("conjecture", 2, 3),
    ]),
    ("paraboloid (-1 square)", 3, lambda p: p % 4 == 1, [("theorem", 2, 4), ("conjecture", 3, 3)]),
    ("cone", 3, lambda p: True, [("theorem (sharp)", 2, 4)]),
)


def _figure1_rows(fields, seed, restarts, iters, budget):
    """One row per FIGURE1 surface, over the smallest listed prime it takes: at
    each pair the greatest lower and least upper that ``certify`` gives, and
    every certificate behind them, which only JSON renders (by ``to_dict``).
    Also returns whether every lower passed its recheck and sits below every
    upper (certificate_consistency over all of them).  A producer over budget
    leaves its certificate out, so a cell with none is None."""
    rows, certs, rechecked = [], [], True
    for name, n, pick, pairs in FIGURE1:
        pk = min((pk for pk in fields if pk[1] == 1 and pick(pk[0])), default=None)
        if pk is None:
            rows.append({"surface": name, "skipped": "no suitable field listed"})
            continue
        surface = build_surface_arg(name.split(" ")[0], make_field(*pk), n)
        entries = []
        for label, p, q in pairs:
            run = rl.certify(surface, p, q, restarts=restarts, max_iters=iters, seed=seed,
                             budget=budget)
            found = [c for c in run if not isinstance(c, BudgetExceededError)]  # `-` cells
            rechecked &= all([rl.verify_lower(c) for c in found if c.kind == "lower"])
            certs += found
            lows = [c.value for c in found if c.kind != "upper"]
            ups = [c.value for c in found if c.kind != "lower"]
            entries.append({
                "label": label, "p": exponent_str(p), "q": exponent_str(q),
                "lower": repr(max(lows)) if lows else None,
                "upper": repr(min(ups)) if ups else None,
                "certificates": found,
            })
        rows.append({"surface": name, "n": n, "field": str(pk[0]), "entries": entries})
    return rows, rechecked and not certificate_consistency(certs)


def _render_figure1(rows, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(
            {"table": "figure1", "rows": rows}, indent=2, sort_keys=True,
            default=NormCertificate.to_dict,  # each entry's certificates
        )
    if fmt == "csv":
        out = ["surface,n,field,label,p,q,lower,upper"]
        for row in rows:
            if "skipped" in row:
                out.append(f"{row['surface']},,,skipped:{row['skipped']},,,,")
                continue
            for e in row["entries"]:
                out.append(
                    f"{row['surface']},{row['n']},{row['field']},{e['label']},"
                    f"{e['p']},{e['q']},{e['lower'] or ''},{e['upper'] or ''}"
                )
        return "\n".join(out) + "\n"
    width = max(len(r["surface"]) for r in rows) + 2
    pairw = 38
    lines = [
        f"{'surface':<{width}}{'n':>2}  {'field':>6}  {'pair':<{pairw}}{'lower':>12}  {'upper':>12}"
    ]
    for row in rows:
        if "skipped" in row:
            lines.append(f"{row['surface']:<{width}}   skipped: {row['skipped']}")
            continue
        first = True
        for e in row["entries"]:
            name = row["surface"] if first else ""
            nval = str(row["n"]) if first else ""
            fval = row["field"] if first else ""
            pair = f"{e['label']}: ({e['p']} -> {e['q']})"
            lo, up = ("-" if v is None else f"{float(v):.6f}" for v in (e["lower"], e["upper"]))
            lines.append(
                f"{name:<{width}}{nval:>2}  {fval:>6}  {pair:<{pairw}}{lo:>12}  {up:>12}"
            )
            first = False
    return "\n".join(lines)


def cmd_table_figure1(args) -> tuple[int, str]:
    fields = parse_fields(args.fields)
    rows, rechecked = _figure1_rows(fields, args.seed, args.restarts, args.iters, args.budget)
    return (EXIT_OK if rechecked else EXIT_VIOLATION), _render_figure1(rows, args.fmt)


# -- parser ---------------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The fflab argument parser, built once per process; no default is mutable."""
    parser = argparse.ArgumentParser(
        prog="fflab",
        description="finite-field restriction and Kakeya laboratory",
    )
    parser.add_argument("--version", action="version", version=f"fflab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    pr = sub.add_parser("restriction", help="restriction-constant certificates")
    prsub = pr.add_subparsers(dest="subcommand", required=True)

    est = prsub.add_parser("estimate", help="certify R*(p -> q)")
    est.add_argument("--field", required=True)
    est.add_argument("--dim", type=int, required=True)
    est.add_argument("--surface", required=True)
    est.add_argument("--p", required=True)
    est.add_argument("--q", required=True)
    est.add_argument("--method", choices=(*rl.PRODUCERS, "auto"), default="auto")
    est.add_argument("--restarts", type=int, default=rl.DEFAULT_RESTARTS)
    est.add_argument("--iters", type=int, default=rl.DEFAULT_MAX_ITERS)
    est.add_argument("--tol", type=float, default=rl.DEFAULT_TOL)
    _add_common(est)
    est.set_defaults(func=cmd_restriction_estimate)

    reg = prsub.add_parser("region", help="necessary exponent region membership")
    reg.add_argument("--dim", type=int, required=True)
    reg.add_argument("--surface-dim", required=True)
    reg.add_argument("--subspace-dim", type=int, default=None)
    reg.add_argument("--p", required=True)
    reg.add_argument("--q", required=True)
    _add_common(reg)
    reg.set_defaults(func=cmd_restriction_region)

    wit = prsub.add_parser("witness", help="named lower-bound witnesses")
    wit.add_argument("--field", required=True)
    wit.add_argument("--dim", type=int, required=True)
    wit.add_argument("--surface", required=True)
    wit.add_argument("--p", required=True)
    wit.add_argument("--q", required=True)
    wit.add_argument(
        "--witness", required=True,
        choices=("dirac", "constant", "subspace", "dual_cone_X"),
    )
    _add_common(wit)
    wit.set_defaults(func=cmd_restriction_witness)

    ver = sub.add_parser("verify", help="exact identity suites")
    versub = ver.add_subparsers(dest="subcommand", required=True)
    idn = versub.add_parser("identities", help="run an identity suite")
    idn.add_argument(
        "--suite", required=True,
        choices=(*SUITES, "all"),
    )
    idn.add_argument(
        "--fields", default=DEFAULT_FIELDS, help="read by the gauss and parseval suites only"
    )
    _add_common(idn)
    idn.set_defaults(func=cmd_verify_identities)

    ka = sub.add_parser("kakeya", help="maximal-function and line-geometry experiments")
    kasub = ka.add_subparsers(dest="subcommand", required=True)

    kmax = kasub.add_parser("maximal", help="Kakeya maximal-constant certificates")
    kmax.add_argument("--field", required=True)
    kmax.add_argument("--dim", type=int, default=2)
    kmax.add_argument("--p", default=None)
    kmax.add_argument("--q", default=None)
    kmax.add_argument("--witnesses", default="point,line,full_space,random_sets")
    _add_common(kmax)
    kmax.set_defaults(func=cmd_kakeya_maximal)

    kbes = kasub.add_parser("besicovitch", help="small sets containing every direction")
    kbes.add_argument("--field", required=True)
    _add_common(kbes)
    kbes.set_defaults(func=cmd_kakeya_besicovitch)

    kcor = kasub.add_parser("cordoba", help="overlap-bound deficit on random weights")
    kcor.add_argument("--field", required=True)
    kcor.add_argument("--dim", type=int, default=2)
    kcor.add_argument("--trials", type=int, default=100)
    _add_common(kcor)
    kcor.set_defaults(func=cmd_kakeya_cordoba)

    kwol = kasub.add_parser("wolff-check", help="plane spread of a line family")
    kwol.add_argument("--field", required=True)
    kwol.add_argument(
        "--family", default="distinct-directions",
        choices=("distinct-directions", "heisenberg", "random"),
    )
    kwol.add_argument(
        "--mode", choices=("pairs", "exhaustive"), default="pairs",
        help="kept for old command lines: ignored, every mode reports the same count",
    )
    kwol.add_argument("--count", type=int, default=50, help="random family size, at least 1")
    _add_common(kwol)
    kwol.set_defaults(func=cmd_kakeya_wolff)

    khei = kasub.add_parser("heisenberg", help="the quadratic-extension line family")
    khei.add_argument("--field", default="3^2")
    _add_common(khei)
    khei.set_defaults(func=cmd_kakeya_heisenberg)

    ksd = kasub.add_parser("sd", help="self-dot incidence count")
    ksd.add_argument("--field", required=True)
    _add_common(ksd)
    ksd.set_defaults(func=cmd_kakeya_sd)

    ksl = kasub.add_parser("slices", help="two-height pair set and slope projections")
    ksl.add_argument("--field", required=True)
    ksl.add_argument("--t0", type=int, default=0)
    ksl.add_argument("--t-inf", type=int, default=1, dest="t_inf")
    ksl.add_argument("--slopes", default="0,1,inf")
    _add_common(ksl)
    ksl.set_defaults(func=cmd_kakeya_slices)

    tab = sub.add_parser("table", help="summary tables")
    tabsub = tab.add_subparsers(dest="subcommand", required=True)
    fig = tabsub.add_parser("figure1", help="headline surfaces with measured certificates")
    fig.add_argument("--fields", default=DEFAULT_FIELDS)
    fig.add_argument("--restarts", type=int, default=6)
    fig.add_argument("--iters", type=int, default=200)
    _add_common(fig)
    fig.set_defaults(func=cmd_table_figure1)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code, rendered = args.func(args)
    except (FFLabError, ValueError, ZeroDivisionError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    print(rendered)
    if args.out is not None:
        store_report(rendered, args.out)
    return code


if __name__ == "__main__":
    sys.exit(main())
