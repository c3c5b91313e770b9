"""Command-line harness.

One experiment per invocation: the subcommand picks the module operation,
global flags fix the seed, budget, output path, and format.  Exit code 0
means the run completed with every check passing, 1 means a check or
certificate invariant failed, 2 means the configuration was invalid.

Exponents on the command line are exact rationals ("2", "8/5", "inf");
decimals are rejected so that region boundaries stay exact.  Fields parse
as "7", "3^2", comma lists, and prime ranges "3..97".
"""

from __future__ import annotations

import argparse
import json
import math
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
    certificate_consistency,
    exponent_str,
    parse_exponent,
)
from .errors import FFLabError
from .field import Field, is_prime, make_field
from .grid import Grid, Side, fourier_forward, fourier_inverse, lp_norm, parseval_defect
from .reports import CheckResult, ExperimentReport, cache_gc, results_dir, store_report

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
    parser.add_argument("--budget", type=int, default=10**9, help="work cap for counting loops")
    parser.add_argument("--out", type=Path, default=None, help="also write the output here")
    parser.add_argument(
        "--format", choices=("text", "json", "csv"), default="text", dest="fmt",
        help="stdout format",
    )


# Parsed arguments that cannot change a run's result, so they do not identify it.
NOT_CONFIG = ("command", "subcommand", "func", "out", "fmt", "budget")


def _report(
    args, t0, checks, config=None, *, field=None, n=0, surface=None, p=None, q=None,
    certificates=(), experiment=None, note=None,
) -> tuple[int, str]:
    """Build, render and store one run's report; exit 1 if any check failed.

    The run's config is every parsed argument that can change its result,
    with exponent arguments recorded as the resolved ``p``/``q``, plus the
    command's derived values in ``config``; ``note`` is appended to text
    output only.
    """
    run_config = {k: v for k, v in vars(args).items() if k not in NOT_CONFIG}
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
    store_report(report)
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

    certs = []
    checks = []
    method = args.method
    if method in ("closed", "auto"):
        try:
            certs.append(rl.rstar_exact_closed(surface, p, q))
        except FFLabError:
            if method == "closed":
                raise
    if method == "even" or (method == "auto" and not certs):
        if q != math.inf and Fraction(q) % 2 == 0 and Fraction(q) >= 4:
            k = int(Fraction(q) // 2)
            if p == Fraction(2) and k in (2, 3):
                certs.append(rl.rstar_upper_even(surface, k, budget=args.budget))
            elif method == "even":
                raise FFLabError(f"even counting needs p = 2 and q in {{4, 6}}, got ({p}, {q})")
        elif method == "even":
            raise FFLabError(f"even counting needs an even integer q >= 4, got {q}")
    if method == "power" or (method == "auto" and not any(c.kind == "exact" for c in certs)):
        cert = rl.rstar_lower_power(
            surface, p, q,
            restarts=args.restarts, max_iters=args.iters, tol=args.tol, seed=args.seed,
        )
        certs.append(cert)
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
    region = rl.necessary_region(args.dim, Fraction(args.surface_dim), args.subspace_dim)
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
    for pk in fields:
        field = make_field(*pk)
        devs = [
            abs(abs(sf.gauss_sum(field, x)) ** 2 - field.order)
            for x in range(1, field.order)
        ]
        worst = max(devs)
        checks.append(CheckResult(f"gauss:{field_label(field)}", worst <= 1e-6, worst))


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
        field, n, p, q, witnesses=names, seed=args.seed,
    )
    checks = [
        CheckResult(f"recheck:{c.meta['witness_name']}", kk.verify_lower(c), None)
        for c in certs
    ]
    if (p, q) == (Fraction(2), Fraction(2 * n - 2)):
        certs.append(kk.kakeya_upper_overlap(field, n))
    violations = certificate_consistency(certs)
    checks.append(CheckResult("certificate_consistency", not violations, None))
    return _report(
        args, t0, checks,
        field=field, n=n, surface=f"lines(n={n})", p=p, q=q, certificates=certs,
    )


def cmd_kakeya_besicovitch(args) -> tuple[int, str]:
    t0 = time.perf_counter()
    field = make_field(*parse_field_token(args.field))
    if args.construct != "2d":
        raise FFLabError(f"unknown construction {args.construct!r}")
    wit = kk.besicovitch_2d(field)
    ok, missing, _ = kk.verify_besicovitch(field, 2, wit.flat)
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
    m = field.order ** (n - 1)
    rng = np.random.default_rng(args.seed)
    worst = math.inf
    for _ in range(args.trials):
        g = rng.random(m)
        x0map = rng.integers(0, m, m)
        worst = min(worst, kk.cordoba_check(field, n, g, x0map))
    checks = [CheckResult("deficit_nonnegative", worst >= -1e-9, worst)]
    return _report(
        args, t0, checks,
        field=field, n=n, surface=f"lines(n={n})", p=Fraction(2), q=Fraction(2 * n - 2),
        certificates=[kk.kakeya_upper_overlap(field, n)],
    )


def _wolff_family(args, field: Field) -> list[kk.LineSpec]:
    if args.family == "heisenberg":
        return list(kk.heisenberg_example(field).lines)
    if args.family == "distinct-directions":
        coords = field.grid_coords(2)
        return [
            kk.LineSpec((int(a * b % field.order), int((a + b) % field.order)), (int(a), int(b)))
            for a, b in coords
        ]
    if args.family == "random":
        rng = np.random.default_rng(args.seed)
        picks = {
            kk.LineSpec(
                (int(rng.integers(field.order)), int(rng.integers(field.order))),
                (int(rng.integers(field.order)), int(rng.integers(field.order))),
            )
            for _ in range(args.count)
        }
        return sorted(picks, key=lambda l: (l.x0, l.v))
    raise FFLabError(f"unknown line family {args.family!r}")


def cmd_kakeya_wolff(args) -> tuple[int, str]:
    t0 = time.perf_counter()
    field = make_field(*parse_field_token(args.field))
    lines = _wolff_family(args, field)
    rep = kk.wolff_axiom_check(field, lines, mode=args.mode)
    checks = [CheckResult("plane_spread_measured", True, rep.ratio)]
    return _report(
        args, t0, checks,
        {"lines": len(lines), "max_lines_in_plane": rep.max_lines, "ratio": rep.ratio},
        field=field, n=3,
        note=(
            f"lines: {len(lines)}  max in one plane: {rep.max_lines}"
            f"  ratio to |F|: {rep.ratio:.4f}"
        ),
    )


def cmd_kakeya_heisenberg(args) -> tuple[int, str]:
    t0 = time.perf_counter()
    field = make_field(*parse_field_token(args.field))
    rep = kk.heisenberg_example(field)
    expected = field.p**5  # |F|^{5/2} for |F| = p^2
    lo, hi = expected // 4, 4 * expected
    checks = [
        CheckResult("all_lines_contained", rep.containment_ok, None),
        CheckResult("point_count_bracket", lo <= rep.point_count <= hi, float(rep.point_count)),
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
    rep = rl.selfdot_incidence_count(field, coords)
    checks = [CheckResult("incidence_bound", rep.satisfied, float(rep.count))]
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


def _pick_field(fields, want) -> tuple[int, int] | None:
    """Smallest listed prime field matching a residue/size predicate."""
    primes = sorted(pk for pk in fields if pk[1] == 1)
    for pk in primes:
        if want(pk[0]):
            return pk
    return None


def _figure1_rows(fields, seed, restarts, iters):
    """One row per headline surface: the sharp or best-known exponent pairs
    with measured certificates, and the conjectured pair's witness ratio."""
    rows = []
    specs = [
        {
            "surface": "moment_curve", "n": 3,
            "pick": lambda p: p > 3,
            "pairs": [("theorem (sharp)", Fraction(2), Fraction(6))],
        },
        {
            "surface": "parabola", "n": 2,
            "pick": lambda p: True,
            "pairs": [("theorem (sharp)", Fraction(2), Fraction(4))],
        },
        {
            "surface": "paraboloid (-1 non-square)", "n": 3,
            "pick": lambda p: p % 4 == 3,
            "pairs": [
                ("theorem", Fraction(8, 5), Fraction(4)),
                ("theorem (endpoint open)", Fraction(2), Fraction(18, 5)),
                ("conjecture", Fraction(2), Fraction(3)),
            ],
        },
        {
            "surface": "paraboloid (-1 square)", "n": 3,
            "pick": lambda p: p % 4 == 1,
            "pairs": [
                ("theorem", Fraction(2), Fraction(4)),
                ("conjecture", Fraction(3), Fraction(3)),
            ],
        },
        {
            "surface": "cone", "n": 3,
            "pick": lambda p: True,
            "pairs": [("theorem (sharp)", Fraction(2), Fraction(4))],
        },
    ]
    for spec in specs:
        pk = _pick_field(fields, spec["pick"])
        if pk is None:
            rows.append({"surface": spec["surface"], "skipped": "no suitable field listed"})
            continue
        field = make_field(*pk)
        base_kind = spec["surface"].split(" ")[0]
        surface = build_surface_arg(base_kind, field, spec["n"])
        entries = []
        for label, p, q in spec["pairs"]:
            upper = None
            if p == 2 and q in (Fraction(4), Fraction(6)):
                k = int(q // 2)
                try:
                    upper = rl.rstar_upper_even(surface, k)
                except FFLabError:
                    upper = None
            lower = rl.rstar_lower_power(
                surface, p, q, restarts=restarts, max_iters=iters, seed=seed,
            )
            entries.append(
                {
                    "label": label,
                    "p": exponent_str(p),
                    "q": exponent_str(q),
                    "lower": repr(lower.value),
                    "upper": None if upper is None else repr(upper.value),
                }
            )
        rows.append(
            {
                "surface": spec["surface"],
                "n": spec["n"],
                "field": f"{pk[0]}" + (f"^{pk[1]}" if pk[1] > 1 else ""),
                "entries": entries,
            }
        )
    return rows


def _render_figure1(rows, fmt: str) -> str:
    if fmt == "json":
        return json.dumps({"table": "figure1", "rows": rows}, indent=2, sort_keys=True)
    if fmt == "csv":
        out = ["surface,n,field,label,p,q,lower,upper"]
        for row in rows:
            if "skipped" in row:
                out.append(f"{row['surface']},,,skipped:{row['skipped']},,,,")
                continue
            for e in row["entries"]:
                up = e["upper"] or ""
                out.append(
                    f"{row['surface']},{row['n']},{row['field']},{e['label']},"
                    f"{e['p']},{e['q']},{e['lower']},{up}"
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
            lo = f"{float(e['lower']):.6f}"
            up = "-" if e["upper"] is None else f"{float(e['upper']):.6f}"
            lines.append(
                f"{name:<{width}}{nval:>2}  {fval:>6}  {pair:<{pairw}}{lo:>12}  {up:>12}"
            )
            first = False
    return "\n".join(lines)


def cmd_table_figure1(args) -> tuple[int, str]:
    fields = parse_fields(args.fields)
    rows = _figure1_rows(fields, args.seed, args.restarts, args.iters)
    return EXIT_OK, _render_figure1(rows, args.fmt)


def cmd_cache_gc(args) -> tuple[int, str]:
    kept, removed = cache_gc()
    return EXIT_OK, f"cache at {results_dir()}: kept {kept}, removed {removed}"


# -- parser ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
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
    est.add_argument("--method", choices=("closed", "power", "even", "auto"), default="auto")
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
        choices=("gauss", "parseval", "paraboloid-kernel", "bridge", "pseudoconformal", "all"),
    )
    idn.add_argument("--fields", default=DEFAULT_FIELDS)
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
    kbes.add_argument("--construct", default="2d")
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
    kwol.add_argument("--mode", choices=("pairs", "exhaustive"), default="pairs")
    kwol.add_argument("--count", type=int, default=50, help="random family size")
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

    cache = sub.add_parser("cache", help="results-cache maintenance")
    cachesub = cache.add_subparsers(dest="subcommand", required=True)
    gc = cachesub.add_parser("gc", help="drop unreadable or incompatible entries")
    _add_common(gc)
    gc.set_defaults(func=cmd_cache_gc)

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
        args.out.write_text(rendered + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
