"""Report serialization, the one file a run writes, and the command-line surface."""

import ast
import dataclasses
import inspect
import json
import math
import shlex
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from fflab import cli, grid, kakeya
from fflab import restriction as rl
from fflab import surfaces
from fflab.certificates import NormCertificate, exponent_str
from fflab.errors import NoClosedFormError
from fflab.field import make_field
from fflab.reports import CheckResult, ExperimentReport, store_report
from fflab.restriction import rstar_lower_witness
from fflab.surfaces import paraboloid


def sample_report() -> ExperimentReport:
    cert = rstar_lower_witness(paraboloid(make_field(5), 2), 2, 4, "dirac")
    return ExperimentReport(
        experiment="restriction-estimate",
        char=5, degree=1, n=2, surface="parabola", p=2, q=4,
        certificates=[cert],
        checks=[CheckResult("lower_recheck", True, 3e-16), CheckResult("plain", True)],
        runtime_ms=1.25,
        seed=0,
        config={"command": "restriction estimate", "seed": 0, "tol": 1e-10},
    )


# -- serialization ---------------------------------------------------------------------


def test_report_json_roundtrip():
    rep = sample_report()
    d = json.loads(rep.to_json())
    (again,) = [NormCertificate.from_dict(c) for c in d["certificates"]]
    (cert,) = rep.certificates
    assert (again.key, again.value, again.witness) == (cert.key, cert.value, cert.witness)
    assert float(d["checks"][0]["deviation"]) == 3e-16


def test_floats_serialize_as_repr_strings():
    d = json.loads(sample_report().to_json())
    assert d["runtime_ms"] == "1.25"
    assert d["checks"][0]["deviation"] == repr(3e-16)
    assert d["config"]["tol"] == "1e-10"
    assert isinstance(d["seed"], int)
    assert d["field"] == {"p": 5, "k": 1}
    assert d["certificates"][0]["value"] == repr(sample_report().certificates[0].value)


def test_report_text_and_csv():
    rep = sample_report()
    text = rep.to_text()
    assert "experiment: restriction-estimate" in text
    assert "F_5" in text and "[pass]" in text
    csv = rep.to_csv()
    lines = csv.strip().splitlines()
    assert lines[0].startswith("row,experiment,name")
    assert len(lines) == 1 + 1 + 2
    with pytest.raises(ValueError):
        rep.render("yaml")


def test_all_passed_flag():
    rep = sample_report()
    assert rep.all_passed
    rep.checks.append(CheckResult("broken", False, 1.0))
    assert not rep.all_passed


# -- the one write ---------------------------------------------------------------------


def test_store_report_writes_the_printed_text_and_returns_its_path(tmp_path):
    text = sample_report().to_json()
    path = store_report(text, tmp_path / "report.json")
    assert path == tmp_path / "report.json"
    assert path.read_text() == text + "\n"


# -- command line ----------------------------------------------------------------------


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_cli_closed_form(capsys):
    code, out, err = run_cli(
        capsys,
        "restriction", "estimate", "--field", "5", "--dim", "2",
        "--surface", "parabola", "--p", "2", "--q", "2", "--method", "closed",
    )
    assert code == 0 and err == ""
    assert "2.2360679" in out and "closed_form" in out


def test_cli_auto_combines_upper_and_lower(capsys):
    code, out, _ = run_cli(
        capsys,
        "restriction", "estimate", "--field", "5", "--dim", "2",
        "--surface", "parabola", "--p", "2", "--q", "4",
        "--restarts", "3", "--iters", "60",
    )
    assert code == 0
    assert "<=" in out and ">=" in out
    assert "[pass] lower_recheck" in out
    assert "[pass] certificate_consistency" in out


@pytest.mark.parametrize("p,q", [("3", "4"), ("2", "8")])
def test_cli_even_counting_refuses_uncovered_pairs(capsys, p, q):
    argv = (
        "restriction", "estimate", "--field", "5", "--dim", "2", "--surface", "parabola",
        "--p", p, "--q", q, "--restarts", "2", "--iters", "40", "--format", "json",
    )
    code, out, err = run_cli(capsys, *argv, "--method", "even")
    assert (code, out) == (2, "") and "even counting covers only" in err
    code, out, _ = run_cli(capsys, *argv)  # auto: only the power lower
    assert code == 0
    assert [c["method"] for c in json.loads(out)["certificates"]] == ["power_iteration"]


def test_cli_custom_surface_is_refused(capsys):
    # a custom surface is a point list, which no command line gives
    code, out, err = run_cli(
        capsys, "restriction", "estimate", "--field", "5", "--dim", "2", "--surface", "custom",
        "--p", "2", "--q", "4",
    )
    assert (code, out) == (2, "") and "no builder" in err


def test_cli_determinism(capsys):
    argv = (
        "restriction", "estimate", "--field", "5", "--dim", "2",
        "--surface", "parabola", "--p", "2", "--q", "4", "--method", "power",
        "--restarts", "3", "--iters", "60", "--seed", "11", "--format", "json",
    )
    _, out1, _ = run_cli(capsys, *argv)
    _, out2, _ = run_cli(capsys, *argv)
    a, b = json.loads(out1), json.loads(out2)
    a.pop("runtime_ms"), b.pop("runtime_ms")
    assert a == b


def test_cli_parser_is_built_once_and_parses_afresh():
    parser = cli.build_parser()
    assert cli.build_parser() is parser
    first = parser.parse_args(["kakeya", "sd", "--field", "7", "--seed", "3", "--format", "json"])
    second = parser.parse_args(["kakeya", "sd", "--field", "11"])
    assert (first.seed, first.fmt, first.field) == (3, "json", "7")
    assert (second.seed, second.fmt, second.field, second.out) == (0, "text", "11", None)


def test_cli_region_always_exits_zero(capsys):
    code, out, _ = run_cli(
        capsys,
        "restriction", "region", "--dim", "3", "--surface-dim", "2",
        "--p", "2", "--q", "8/3",
    )
    assert code == 0
    assert "inside necessary region: no" in out
    code2, out2, _ = run_cli(
        capsys,
        "restriction", "region", "--dim", "3", "--surface-dim", "2",
        "--p", "2", "--q", "4",
    )
    assert code2 == 0
    assert "inside necessary region: yes" in out2


def test_cli_rejects_decimal_exponent(capsys):
    code, out, err = run_cli(
        capsys,
        "restriction", "estimate", "--field", "5", "--dim", "2",
        "--surface", "parabola", "--p", "2", "--q", "2.5",
    )
    assert code == 2
    assert out == ""
    assert "error:" in err and "rational" in err


def test_cli_rejects_bad_field(capsys):
    code, _, err = run_cli(
        capsys,
        "restriction", "estimate", "--field", "9", "--dim", "2",
        "--surface", "parabola", "--p", "2", "--q", "2",
    )
    assert code == 2 and "error:" in err


# One command line per refusal the CLI can reach, with its exact stderr line.
# The unit tests pin the refusals no command line reaches (wrong grid sides,
# the pseudoconformal support, the injective-difference requirement of
# slope_projections and the exponent calculus).
REFUSALS = [
    ("kakeya maximal --field 7 --dim 1", "need n >= 2"),
    ("kakeya maximal --field 3^2 --dim 1", "need n >= 2"),
    ("kakeya cordoba --field 7 --dim 1", "need n >= 2"),
    (
        "restriction estimate --field 4 --dim 2 --surface parabola --p 2 --q 4",
        "4 is not prime",
    ),
    (
        "restriction estimate --field 2 --dim 2 --surface parabola --p 2 --q 4",
        "characteristic 2 is out of scope",
    ),
    ("kakeya besicovitch --field 3^13", "3^13 exceeds the order cap 1048576"),
    ("kakeya heisenberg --field 7", "the construction needs a quadratic extension"),
    (
        "restriction estimate --field 3 --dim 3 --surface moment --p 2 --q 6",
        "moment curve in dimension 3 needs characteristic > 3",
    ),
    (
        "restriction estimate --field 5 --dim 0 --surface moment --p 2 --q 4",
        "moment curve needs n >= 1",
    ),
    (
        "restriction estimate --field 5 --dim -1 --surface moment --p 2 --q 4",
        "moment curve needs n >= 1",
    ),
    (
        "restriction estimate --field 5 --dim 1 --surface paraboloid --p 2 --q 4",
        "paraboloid needs n >= 2",
    ),
    (
        "restriction estimate --field 5 --dim 1 --surface double_paraboloid --p 2 --q 4",
        "double paraboloid needs base n >= 2",
    ),
    (
        "restriction estimate --field 5 --dim 2 --surface cone --p 2 --q 4",
        "the cone lives in F^3",
    ),
    (
        "kakeya maximal --field 7 --dim 3 --witnesses besicovitch_indicator",
        "the explicit construction is 2-D",
    ),
    ("kakeya maximal --field 7 --witnesses point,nosuch", "no Kakeya witness named 'nosuch'"),
    (
        "kakeya slices --field 7 --slopes 1/7",
        "slope 1/7 has no representative with denominator below 7",
    ),
    ("kakeya slices --field 7 --slopes=-1", "the difference projection itself is not allowed"),
    ("kakeya slices --field 7 --slopes 6", "slope 6 + 1 vanishes in F"),
    ("kakeya slices --field 7 --t0 1 --t-inf 1", "the two heights must differ"),
    (
        "restriction witness --field 7 --dim 3 --surface paraboloid --p 2 --q 4"
        " --witness subspace",
        "no affine line inside the surface: no nonzero w in F^2 has w.w = 0",
    ),
    (
        "restriction witness --field 7 --dim 2 --surface parabola --p 2 --q 4 --witness subspace",
        "no affine line inside the surface: no nonzero w in F^1 has w.w = 0",
    ),
    (
        "restriction witness --field 7 --dim 3 --surface cone --p 2 --q 4 --witness subspace",
        "no affine line inside the surface: the cone's lines all pass through its excluded vertex",
    ),
    (
        "restriction witness --field 7 --dim 3 --surface moment --p 2 --q 4 --witness subspace",
        "no affine line inside the surface:"
        " a moment curve at n >= 2 meets a line in at most 2 points",
    ),
    (
        "restriction witness --field 7 --dim 3 --surface paraboloid --p 2 --q 4"
        " --witness dual_cone_X",
        "the dual set witness lives on the cone",
    ),
    ("kakeya sd --field 5", "-1 is a square; the self-dot lines degenerate"),
    (
        "restriction estimate --field 5 --dim 2 --surface parabola --p 2 --q 4 --method closed",
        "no closed form at (2, 4)",
    ),
    (
        "restriction estimate --field 5 --dim 2 --surface parabola --p 2 --q 8 --method even",
        "even counting covers only (2, 4) and (2, 6), not (2, 8)",
    ),
    (
        "kakeya besicovitch --field 7 --budget 10",
        "line-point gathers |F|^{2n-1} = 343 exceeds the budget 10",
    ),
    (
        "kakeya maximal --field 7 --dim 3 --witnesses besicovitch_indicator --budget 10",
        "line-point gathers |F|^{2n-1} = 16807 exceeds the budget 10",
    ),
    (
        "restriction estimate --field 5 --dim 3 --surface paraboloid --p 2 --q 4 --iters -1",
        "need at least one iteration, got -1",
    ),
    ("table figure1 --fields 5,7 --iters 0", "need at least one iteration, got 0"),
    (
        "restriction estimate --field 5 --dim 3 --surface paraboloid --p 2 --q 4 --tol nan",
        "need a tolerance >= 0, got nan",
    ),
    (
        "restriction estimate --field 5 --dim 3 --surface paraboloid --p 2 --q 4 --tol -1",
        "need a tolerance >= 0, got -1.0",
    ),
    (
        "restriction estimate --field 5 --dim 3 --surface paraboloid --p 2 --q 3 --budget 799",
        "ascent start entries restarts |S| = 800 exceeds the budget 799",
    ),
]


@pytest.mark.parametrize("argv,message", REFUSALS)
def test_cli_refusal_lines_are_pinned(capsys, argv, message):
    code, out, err = run_cli(capsys, *shlex.split(argv))
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_cli_witness_and_out_file(capsys, tmp_path):
    target = tmp_path / "cert.json"
    code, out, _ = run_cli(
        capsys,
        "restriction", "witness", "--field", "7", "--dim", "3", "--surface", "cone",
        "--p", "2", "--q", "4", "--witness", "dual_cone_X",
        "--format", "json", "--out", str(target),
    )
    assert code == 0
    stored = json.loads(target.read_text())
    assert stored["certificates"][0]["value"] == repr(0.8367291862806082)


def test_cli_verify_suites(capsys):
    code, out, _ = run_cli(capsys, "verify", "identities", "--suite", "gauss", "--fields", "5,7")
    assert code == 0 and "[pass]" in out
    code2, out2, _ = run_cli(
        capsys, "verify", "identities", "--suite", "parseval", "--fields", "3,5"
    )
    assert code2 == 0


def test_cli_gauss_suite_checks_modulus_closed_form_and_direct_sums(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "identities", "--suite", "gauss", "--fields", "61^2,7",
        "--format", "json",
    )
    checks = json.loads(out)["checks"]
    assert code == 0 and all(c["pass"] for c in checks)
    assert [c["name"] for c in checks] == [
        f"{kind}:{label}" for label in ("F_61^2", "F_7")
        for kind in ("gauss", "gauss_closed_form", "gauss_direct")
    ]


@pytest.mark.parametrize(
    "fault,fields", [("conjugate", "7"), ("conjugate", "3^3"), ("negate", "7"), ("negate", "5,3^2")]
)
def test_cli_gauss_closed_form_catches_a_wrong_phase(capsys, monkeypatch, fault, fields):
    # S(1) is imaginary over F_7 and F_{3^3}, so conjugation moves it (over F_5
    # and F_{3^2} S is real and it would not); negation moves every S(x), x != 0;
    # neither changes |S|^2
    produce = surfaces.gauss_sum
    wrong = {"conjugate": np.conj, "negate": np.negative}[fault]
    monkeypatch.setattr(surfaces, "gauss_sum", lambda field, x: wrong(produce(field, x)))
    code, out, _ = run_cli(capsys, "verify", "identities", "--suite", "gauss", "--fields", fields)
    assert code == 1
    assert "[pass] gauss:" in out and "[FAIL] gauss:" not in out
    assert "[pass] gauss_closed_form" not in out and "[pass] gauss_direct" not in out


def test_cli_gauss_direct_independent_of_transforms(capsys, monkeypatch):
    fields = [make_field(61, 2), make_field(7), make_field(3, 5)]
    tables = {f: surfaces.gauss_sum(f, np.arange(f.order)) for f in fields}

    def refuse(*args, **kwargs):
        raise AssertionError("the recheck must not run a transform")

    for module in (grid, surfaces):
        monkeypatch.setattr(module, "fourier_forward", refuse)
        monkeypatch.setattr(module, "_transform_matrices", refuse)
    with pytest.raises(AssertionError):
        surfaces.gauss_sum(fields[0], 1)
    monkeypatch.setattr(surfaces, "gauss_sum", lambda field, x: tables[field][x])
    code, out, _ = run_cli(
        capsys, "verify", "identities", "--suite", "gauss", "--fields", "61^2,7,3^5"
    )
    assert code == 0 and out.count("[pass] gauss_direct:") == 3


def test_cli_gauss_refuses_a_field_without_a_kernel(capsys):
    # a 4099 x 4099 kernel pair would take 512 MiB
    make_field(4099)
    tracemalloc.start()
    try:
        code, out, err = run_cli(
            capsys, "verify", "identities", "--suite", "gauss", "--fields", "4099"
        )
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 2 and out == "" and "DFT" in err and peak < 4 * 2**20
    assert not hasattr(make_field(4099), "_dft_mats")


def test_cli_parseval_skips_fields_past_its_grid_cap(capsys):
    # every n has |F|^n > 20000 at 509^2, so the suite builds the field and checks nothing
    code, out, _ = run_cli(
        capsys, "verify", "identities", "--suite", "parseval", "--fields", "509^2",
        "--format", "json",
    )
    assert code == 0 and json.loads(out)["checks"] == []


def test_cli_refusals_exit_before_arithmetic(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("field arithmetic ran before the refusal")

    monkeypatch.setattr(make_field(4099), "mul_arrays", refuse)
    code, _, err = run_cli(capsys, "verify", "identities", "--suite", "parseval", "--fields", "4099")
    assert code == 2 and "DFT" in err
    code, _, err = run_cli(
        capsys, "kakeya", "wolff-check", "--field", "7", "--family", "random", "--count", "20",
        "--budget", "1",
    )
    assert code == 2 and "budget" in err


@pytest.mark.parametrize("argv,gate", [
    ("kakeya heisenberg --field 3^2 --budget 728", "|F|^3 = 729"),
    ("kakeya besicovitch --field 7 --budget 342", "|F|^{2n-1} = 343"),
    ("kakeya wolff-check --field 3^2 --family heisenberg --budget 728", "|F|^3 = 729"),
])
def test_cli_membership_and_line_search_gates_exit_2(capsys, argv, gate):
    code, out, err = run_cli(capsys, *argv.split())
    assert code == 2 and out == "" and gate in err and "budget" in err


def test_cli_subspace_witness_builds_its_line_under_any_budget(capsys):
    # the line is built, not searched, so --budget has nothing to cap
    code, out, _ = run_cli(
        capsys, *"restriction witness --field 5 --dim 3 --surface paraboloid --p 2 --q 4"
        " --witness subspace --budget 1 --format json".split(),
    )
    assert code == 0
    report = json.loads(out)
    assert [c["pass"] for c in report["checks"]] == [True]
    (cert,) = report["certificates"]
    assert cert["value"] == "1.0" and cert["meta"]["closed_form"] == "1.0"


@pytest.mark.parametrize("argv,message", [
    ("--trials 0", "at least one trial"),
    ("--trials -3", "at least one trial"),
    ("--dim 1", "n >= 2"),
])
def test_cli_cordoba_refuses_empty_runs_and_lines_in_one_dimension(capsys, argv, message):
    code, out, err = run_cli(capsys, "kakeya", "cordoba", "--field", "5", *argv.split())
    assert code == 2 and out == "" and message in err


def test_cli_cordoba_budget_boundary(capsys, monkeypatch):
    argv = ["kakeya", "cordoba", "--field", "5", "--dim", "3", "--trials", "4"]
    with monkeypatch.context() as patch:
        def refuse(*args, **kwargs):
            raise AssertionError("arithmetic or a draw ran before the refusal")

        for name in ("mul_arrays", "add_arrays"):
            patch.setattr(make_field(5), name, refuse)
        patch.setattr(cli.np.random, "default_rng", refuse)
        code, out, err = run_cli(capsys, *argv, "--budget", "499")
    assert code == 2 and out == ""
    assert "line points trials |F|^n = 500 exceeds the budget 499" in err
    code, _, err = run_cli(capsys, *argv, "--budget", "500")
    assert code == 0 and err == ""


def test_cli_wolff_distinct_directions_base_points_are_field_arithmetic():
    # x0 = (v_0 v_1, v_0 + v_1) in F_{3^2}, not integer products and sums mod 9
    field = make_field(3, 2)
    args = cli.build_parser().parse_args(["kakeya", "wolff-check", "--field", "3^2"])
    x0, v = cli._wolff_family(args, field)
    assert v.tolist() == field.grid_coords(2).tolist()
    pairs = [(int(a), int(b)) for a, b in v]
    assert x0.tolist() == [[field.mul(a, b), field.add(a, b)] for a, b in pairs]


@pytest.mark.parametrize("count", ["0", "-3"])
def test_cli_wolff_refuses_an_empty_random_family(capsys, monkeypatch, count):
    argv = ["kakeya", "wolff-check", "--field", "5", "--family", "random"]
    with monkeypatch.context() as patch:
        def refuse(*args, **kwargs):
            raise AssertionError("a draw ran before the refusal")

        patch.setattr(cli.np.random, "default_rng", refuse)
        code, out, err = run_cli(capsys, *argv, "--count", count)
    assert code == 2 and out == "" and "at least one random line" in err
    code, out, err = run_cli(capsys, *argv, "--count", "1", "--format", "json")
    assert code == 0 and err == ""
    config = json.loads(out)["config"]
    assert (config["lines"], config["max_lines_in_plane"], config["ratio"]) == (1, 1, repr(1 / 5))


def test_cli_wolff_modes_report_the_same_count(capsys):
    # the default family reads neither --mode nor --count: the two runs are one run
    reports = []
    for extra in ((), ("--count", "7", "--mode", "exhaustive")):
        code, out, err = run_cli(
            capsys, "kakeya", "wolff-check", "--field", "5", *extra, "--format", "json",
        )
        assert code == 0 and err == ""
        report = json.loads(out)
        assert not {"mode", "count"} & set(report["config"])
        del report["runtime_ms"]
        reports.append(report)
    assert reports[0] == reports[1]
    config = reports[0]["config"]
    assert config["max_lines_in_plane"] == 5  # the 25 lines of distinct directions
    assert config["ratio"] == reports[0]["checks"][0]["deviation"] == repr(5 / 5)


@pytest.mark.parametrize("fmt", ["json", "text", "csv"])
def test_cli_encodes_each_report_once(capsys, monkeypatch, tmp_path, fmt):
    # JSON is encoded once under --format json, and never for text or CSV
    calls = []
    to_json = ExperimentReport.to_json

    def counting(self):
        calls.append(fmt)
        return to_json(self)

    monkeypatch.setattr(ExperimentReport, "to_json", counting)
    target = tmp_path / "out"
    code, out, _ = run_cli(
        capsys, "kakeya", "cordoba", "--field", "5", "--format", fmt, "--out", str(target)
    )
    assert code == 0 and calls == ([fmt] if fmt == "json" else [])
    assert target.read_text() == out


def test_cli_parseval_runs_on_factored_fields(capsys):
    # |F| = 4489 is above the old dense-kernel cap; its kernel is 67 x 67
    code, out, _ = run_cli(
        capsys, "verify", "identities", "--suite", "parseval", "--fields", "67^2",
        "--format", "json",
    )
    checks = json.loads(out)["checks"]
    assert code == 0 and checks and all(c["pass"] for c in checks)


def test_cli_parseval_memory_stays_small(capsys):
    # a cold F_{53^2}: dense 2809 x 2809 kernels alone would take 241 MiB
    make_field.cache_clear()
    tracemalloc.start()
    try:
        code, _, _ = run_cli(
            capsys, "verify", "identities", "--suite", "parseval", "--fields", "53^2"
        )
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0 and peak < 16 * 2**20


def test_cli_maximal_refuses_before_allocating(capsys):
    # 31^6 complex witness entries would take 14.2 GB; 31^11 gathers exceed the budget
    make_field(31)
    tracemalloc.start()
    try:
        code, _, err = run_cli(capsys, "kakeya", "maximal", "--field", "31", "--dim", "6")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 2 and "budget" in err and peak < 16 * 2**20


def test_cli_kakeya_maximal_defaults(capsys):
    code, out, _ = run_cli(capsys, "kakeya", "maximal", "--field", "5")
    assert code == 0
    assert "K(2 -> 2)" in out and "sqrt" not in out
    assert "[pass]" in out


def test_cli_kakeya_maximal_default_witnesses_are_the_library_default():
    args = cli.build_parser().parse_args(["kakeya", "maximal", "--field", "5"])
    library = inspect.signature(kakeya.kakeya_norm_certificates).parameters["witnesses"].default
    assert tuple(args.witnesses.split(",")) == library == kakeya.WITNESSES
    assert kakeya.WITNESSES == ("point", "line", "full_space", "random_sets")


@pytest.mark.parametrize("argv", [
    "maximal --field 5 --dim 3", "maximal --field 5 --witnesses line,point",
    "cordoba --field 5 --dim 3 --trials 2",
])
def test_cli_kakeya_reports_read_surface_and_pair_from_their_certificates(
    capsys, monkeypatch, argv
):
    original = kakeya._kakeya_cert

    def relabelled(*args, **kwargs):
        cert = original(*args, **kwargs)
        return dataclasses.replace(cert, surface="planted", p=Fraction(3), q=Fraction(5))

    monkeypatch.setattr(kakeya, "_kakeya_cert", relabelled)
    _, out, err = run_cli(capsys, "kakeya", *argv.split(), "--format", "json")
    report = json.loads(out)
    assert err == "" and (report["surface"], report["p"], report["q"]) == ("planted", "3", "5")
    assert {(c["surface"], c["p"], c["q"]) for c in report["certificates"]} == {
        ("planted", "3", "5")
    }


@pytest.mark.parametrize("argv", ["--p 2 --q 2", "--p 2 --q 2 --witnesses line"])
def test_cli_kakeya_maximal_refuses_lines_in_one_dimension(capsys, argv):
    argv = ("kakeya", "maximal", "--field", "5", "--dim", "1", *argv.split())
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == "" and "need n >= 2" in err


def test_cli_kakeya_besicovitch(capsys):
    code, out, _ = run_cli(capsys, "kakeya", "besicovitch", "--field", "11")
    assert code == 0
    assert "[pass] contains_line_every_direction" in out
    assert "[pass] size_formula" in out


def test_cli_kakeya_slices_and_sd(capsys):
    code, _, _ = run_cli(capsys, "kakeya", "slices", "--field", "7")
    assert code == 0
    code2, _, _ = run_cli(capsys, "kakeya", "sd", "--field", "7")
    assert code2 == 0


@pytest.mark.parametrize(
    "argv", [("3^2", "--t0", "20"), ("7", "--t0", "0", "--t-inf", "7"), ("3^2", "--t0", "-1")]
)
def test_cli_slices_heights_out_of_range(capsys, argv):
    code, _, err = run_cli(capsys, "kakeya", "slices", "--field", *argv)
    assert code == 2 and "heights" in err


def test_cli_heisenberg(capsys):
    code, out, _ = run_cli(capsys, "kakeya", "heisenberg")
    assert code == 0 and "F_3^2" in out


@pytest.mark.parametrize("p", [3, 5, 7])
def test_cli_heisenberg_point_count_exact(capsys, p):
    code, out, _ = run_cli(capsys, "kakeya", "heisenberg", "--field", f"{p}^2")
    assert code == 0 and f"|P| = {p**5} " in out
    assert "[pass] point_count " in out
    code, out, _ = run_cli(capsys, "kakeya", "heisenberg", "--field", f"{p}^2", "--format", "json")
    (check,) = [c for c in json.loads(out)["checks"] if c["name"] == "point_count"]
    assert code == 0 and check["pass"] and check["deviation"] == "0.0"


@pytest.mark.parametrize("fld", ["11", "3^3"])
def test_cli_sd_closed_form_catches_an_off_by_one(capsys, monkeypatch, fld):
    code, out, _ = run_cli(capsys, "kakeya", "sd", "--field", fld)
    assert code == 0 and "[pass] closed_form " in out
    count = rl.selfdot_incidence_count

    def one_short(*args, **kwargs):
        rep = count(*args, **kwargs)
        return dataclasses.replace(rep, count=rep.count - 1)

    monkeypatch.setattr(rl, "selfdot_incidence_count", one_short)
    code, out, _ = run_cli(capsys, "kakeya", "sd", "--field", fld)
    assert code == 1 and "[FAIL] closed_form " in out and "[pass] incidence_bound" in out


def test_cli_figure1_table(capsys):
    code, out, _ = run_cli(
        capsys, "table", "figure1", "--fields", "5,7", "--restarts", "2", "--iters", "40"
    )
    assert code == 0
    assert "moment" in out and "cone" in out
    code2, out2, _ = run_cli(
        capsys, "table", "figure1", "--fields", "5", "--restarts", "2",
        "--iters", "40", "--format", "json",
    )
    assert code2 == 0
    data = json.loads(out2)
    assert data["table"] == "figure1" and data["rows"]


def test_cli_figure1_budget(capsys):
    argv = ("table", "figure1", "--fields", "5,7", "--restarts", "2", "--iters", "40",
            "--format", "json")

    def uppers(*extra):
        code, out, _ = run_cli(capsys, *argv, *extra)
        assert code == 0
        return {
            (row["surface"], e["p"], e["q"]): e["upper"]
            for row in json.loads(out)["rows"] for e in row["entries"]
        }, out

    default, default_out = uppers()
    assert sum(v is not None for v in default.values()) == 4
    assert uppers("--budget", str(10**9))[1] == default_out
    # work: moment curve k = 3 at F_5 25 + 5 * 125 = 650, parabola k = 2 25,
    # paraboloid k = 2 625, cone k = 2 576; the ascent starts take at most
    # 2 restarts * 49 points (the F_7 paraboloid) = 98
    kept = {key[0] for key, v in uppers("--budget", "600")[0].items() if v is not None}
    assert kept == {"parabola", "cone"}
    assert {key[0] for key, v in uppers("--budget", "98")[0].items() if v is not None} == {
        "parabola"
    }
    code, out, _ = run_cli(capsys, *argv[:-2], "--budget", "98")
    rows = out.splitlines()[1:]
    assert code == 0 and sum(not line.rstrip().endswith("-") for line in rows) == 1
    # below the starts of the F_7 paraboloid, its three lowers print `-` like an
    # upper over budget (null in JSON, empty in csv), and every other lower runs
    code, out, err = run_cli(capsys, *argv, "--budget", "97")
    lowers = {
        (row["surface"], e["p"], e["q"]): e["lower"]
        for row in json.loads(out)["rows"] for e in row["entries"]
    }
    assert (code, err) == (0, "")
    assert sorted(key for key, v in lowers.items() if v is None) == [
        ("paraboloid (-1 non-square)", "2", "18/5"),
        ("paraboloid (-1 non-square)", "2", "3"),
        ("paraboloid (-1 non-square)", "8/5", "4"),
    ]
    code, out, _ = run_cli(capsys, *argv[:-2], "--budget", "97")
    rows = [line.split() for line in out.splitlines()[1:]]
    assert code == 0 and sum(row[-2:] == ["-", "-"] for row in rows) == 3
    code, out, _ = run_cli(capsys, *argv[:-2], "--budget", "97", "--format", "csv")
    assert code == 0 and sum(line.endswith(",,") for line in out.splitlines()) == 3


def test_cli_figure1_budget_1_prints_every_cell_as_dash(capsys):
    # at budget 1 no certificate runs: every cell prints `-`, and the table exits 0
    code, out, err = run_cli(capsys, "table", "figure1", "--fields", "5,7", "--budget", "1")
    rows = [line.split() for line in out.splitlines()[1:]]
    assert (code, err) == (0, "") and len(rows) == 8
    assert all(row[-2:] == ["-", "-"] for row in rows)


def test_cli_figure1_exits_1_when_a_lower_exceeds_its_upper(capsys, monkeypatch):
    original = rl.rstar_upper_even

    def halved(*args, **kwargs):
        cert = original(*args, **kwargs)
        return dataclasses.replace(cert, value=cert.value / 2)

    figure1 = ("table", "figure1", "--fields", "5,7", "--restarts", "2", "--iters", "40")
    code, honest, _ = run_cli(capsys, *figure1)
    assert code == 0
    monkeypatch.setattr(rl, "rstar_upper_even", halved)
    code, out, _ = run_cli(capsys, *figure1)
    assert code == 1
    # the layout is unchanged: only the upper column moves
    assert out != honest
    for line, ref in zip(out.splitlines(), honest.splitlines(), strict=True):
        assert len(line) == len(ref)
        assert line.split()[:-1] == ref.split()[:-1]


@pytest.mark.parametrize("p", ["3", "5"])
def test_cli_estimate_rechecks_the_double_paraboloid(capsys, p):
    code, out, err = run_cli(
        capsys, "restriction", "estimate", "--field", p, "--dim", "2",
        "--surface", "double_paraboloid", "--p", "2", "--q", "4", "--format", "json",
    )
    assert code == 0 and err == ""
    checks = {c["name"]: c["pass"] for c in json.loads(out)["checks"]}
    assert checks == {"lower_recheck": True, "certificate_consistency": True}


@pytest.mark.parametrize("command,surface,n", [
    ("estimate", "double_paraboloid", 4), ("witness", "double_paraboloid", 4),
    ("estimate", "paraboloid", 2), ("witness", "paraboloid", 2),
])
def test_cli_report_n_is_its_certificates_n(capsys, command, surface, n):
    # --dim 2 names the double paraboloid's base F^2: it lies in F^2 x F^2
    code, out, err = run_cli(
        capsys, "restriction", command, "--field", "3", "--dim", "2", "--surface", surface,
        "--p", "2", "--q", "4", *(("--witness", "dirac") if command == "witness" else ()),
        "--format", "json",
    )
    assert code == 0 and err == ""
    report = json.loads(out)
    assert report["n"] == n and {c["n"] for c in report["certificates"]} == {n}


def test_cli_estimate_runs_one_direct_sum(capsys, monkeypatch):
    calls = []
    original = surfaces.extension_direct

    def counted(sf):
        calls.append(sf.surface.describe())
        return original(sf)

    monkeypatch.setattr(surfaces, "extension_direct", counted)
    monkeypatch.setattr(rl, "extension_direct", counted)
    code, out, _ = run_cli(
        capsys, "restriction", "estimate", "--field", "7", "--dim", "3",
        "--surface", "paraboloid", "--p", "2", "--q", "4", "--format", "json",
    )
    assert code == 0
    report = json.loads(out)
    assert [c["method"] for c in report["certificates"]] == ["even_counting", "power_iteration"]
    assert {c["name"]: c["pass"] for c in report["checks"]}["lower_recheck"] is True
    assert calls == ["paraboloid(n=3)"]  # the recheck is the only direct sum


def test_cli_recheck_catches_a_faulty_power_lower(capsys, monkeypatch):
    original = rl.rstar_lower_power

    def inflated(*args, **kwargs):
        cert = original(*args, **kwargs)
        return dataclasses.replace(cert, value=cert.value * (1 + 1e-6))

    figure1 = ("table", "figure1", "--fields", "5,7", "--restarts", "2", "--iters", "40")
    code, honest, _ = run_cli(capsys, *figure1)
    assert code == 0
    monkeypatch.setattr(rl, "rstar_lower_power", inflated)
    code, out, _ = run_cli(
        capsys, "restriction", "estimate", "--field", "5", "--dim", "2",
        "--surface", "parabola", "--p", "2", "--q", "4", "--restarts", "2",
        "--iters", "40", "--format", "json",
    )
    assert code == 1
    assert {c["name"]: c["pass"] for c in json.loads(out)["checks"]}["lower_recheck"] is False
    code, out, _ = run_cli(capsys, *figure1)
    assert code == 1
    # the layout is unchanged: only the lower column may move
    for line, ref in zip(out.splitlines(), honest.splitlines(), strict=True):
        assert len(line) == len(ref)
        assert line.split()[:-2] + line.split()[-1:] == ref.split()[:-2] + ref.split()[-1:]


def test_cli_has_no_cache_command(capsys):
    with pytest.raises(SystemExit) as exit_:
        cli.main(["cache", "gc"])
    assert exit_.value.code == 2 and "invalid choice: 'cache'" in capsys.readouterr().err


# -- one certificate path: restriction.certify picks every producer ----------------------

PRODUCER_NAMES = {"rstar_exact_closed", "rstar_upper_even", "rstar_lower_power"}
FIGURE1_JSON = ("table", "figure1", "--fields", "5,7", "--restarts", "2", "--iters", "40",
                "--format", "json")


def producer_mentions(source: str) -> list[str]:
    """'line: name' for every restriction producer that ``source`` names, as a
    bare name, an attribute or an import."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            found += [f"{node.lineno}: {a.name}" for a in node.names if a.name in PRODUCER_NAMES]
            continue
        else:
            continue
        if name in PRODUCER_NAMES:
            found.append(f"{node.lineno}: {name}")
    return found


CLI_SOURCE = Path(cli.__file__).read_text()


def test_no_command_names_a_producer():
    assert producer_mentions(CLI_SOURCE) == []


def test_a_planted_producer_call_fails():
    planted = (
        "def _planted(surface, p, q):\n"
        "    return rl.rstar_upper_even(surface, p, q)\n\n\n"
    )
    source = CLI_SOURCE.replace("def _render_figure1(", planted + "def _render_figure1(", 1)
    assert [m.split(": ")[1] for m in producer_mentions(source)] == ["rstar_upper_even"]
    source = CLI_SOURCE.replace("import numpy as np\n", "from .restriction import rstar_lower_power\n", 1)
    assert [m.split(": ")[1] for m in producer_mentions(source)] == ["rstar_lower_power"]


@pytest.mark.parametrize("how", ["rebound producer", "new entry"])
def test_a_planted_upper_reaches_both_commands(capsys, monkeypatch, how):
    """An upper at (2 -> 18/5) shows in both commands with no command edit,
    whether it comes from ``rstar_upper_even`` rebound on ``restriction``
    (certify looks producers up when it runs, as the benchmark tracer needs)
    or from a new PRODUCERS entry."""
    original = rl.rstar_upper_even

    def planted(surface, p, q, budget):
        if (p, q) == (2, Fraction(18, 5)):
            return rl._base_cert(surface, "upper", "planted", p, q, 99.0)
        if how == "new entry":
            raise NoClosedFormError("the planted upper covers (2, 18/5) only")
        return original(surface, p, q, budget)

    estimate = ("restriction", "estimate", "--field", "7", "--dim", "3", "--surface", "paraboloid",
                "--p", "2", "--q", "18/5", "--restarts", "2", "--iters", "40", "--format", "json")
    cell = ("paraboloid (-1 non-square)", "2", "18/5")

    def run_both():
        code, out, _ = run_cli(capsys, *estimate)
        assert code == 0
        methods = sorted((c["method"], c["value"]) for c in json.loads(out)["certificates"])
        code, out, _ = run_cli(capsys, *FIGURE1_JSON)
        assert code == 0
        cells = {(r["surface"], e["p"], e["q"]): e for r in json.loads(out)["rows"]
                 for e in r["entries"]}
        code, text, _ = run_cli(capsys, *FIGURE1_JSON[:-2])
        assert code == 0
        (line,) = [ln for ln in text.splitlines() if "(2 -> 18/5)" in ln]
        return [m for m, _ in methods], dict(methods).get("planted"), cells[cell]["upper"], line

    methods, _, upper, line = run_both()
    assert methods == ["power_iteration"] and upper is None and line.endswith(" -")
    if how == "new entry":
        monkeypatch.setitem(rl.PRODUCERS, "planted", lambda s, p, q, run: planted(s, p, q, 0))
    else:
        monkeypatch.setattr(rl, "rstar_upper_even", planted)
    methods, value, upper, line = run_both()
    assert methods == ["planted", "power_iteration"] and value == "99.0"
    assert upper == "99.0" and line.endswith(" 99.000000")


@pytest.mark.parametrize("budget", ["1000000000", "97"])
def test_figure1_certificates_round_trip(capsys, budget):
    code, out, _ = run_cli(capsys, *FIGURE1_JSON, "--budget", budget)
    assert code == 0
    lowers = 0
    for row in json.loads(out)["rows"]:
        for e in row["entries"]:
            certs = [NormCertificate.from_dict(d) for d in e["certificates"]]
            for side, best in (("lower", max), ("upper", min)):
                values = [c.value for c in certs if c.kind in (side, "exact")]
                assert e[side] == (repr(best(values)) if values else None)
            for cert in certs:
                assert repr(cert.value) in (e["lower"], e["upper"])
                assert (exponent_str(cert.p), exponent_str(cert.q)) == (e["p"], e["q"])
                if cert.kind == "lower":
                    assert rl.verify_lower(cert)
                    lowers += 1
    assert lowers == (8 if budget == "1000000000" else 5)


# -- one report path: every report subcommand over F_5, F_7 and F_9 ----------------------

# -1 is a square in F_5 and F_9 and a non-square in F_7.
MATRIX_FIELDS = ("5", "7", "3^2")
MATRIX_COMMANDS = {
    "restriction estimate": "--dim 2 --surface parabola --p 2 --q 4 --restarts 2 --iters 30",
    "restriction witness": "--dim 2 --surface parabola --p 2 --q 4 --witness dirac",
    "verify identities": "--suite gauss",
    "kakeya maximal": "--dim 2",
    "kakeya besicovitch": "",
    "kakeya cordoba": "--trials 5",
    "kakeya wolff-check": "--mode pairs",
    "kakeya wolff-check heisenberg": "--family heisenberg",
    "kakeya wolff-check random": "--family random --count 20",
    "kakeya heisenberg": "",
    "kakeya sd": "",
    "kakeya slices": "--slopes 0,1,inf",
    "restriction region": "--dim 3 --surface-dim 2 --p 2 --q 8/3",
}
# the Heisenberg family needs F_{p^2}; the self-dot lines need -1 to be a non-square
MATRIX_CONFIG_ERRORS = {
    ("kakeya wolff-check heisenberg", "5"), ("kakeya wolff-check heisenberg", "7"),
    ("kakeya heisenberg", "5"), ("kakeya heisenberg", "7"),
    ("kakeya sd", "5"), ("kakeya sd", "3^2"),
}
# parsed options a command ignores, so they do not identify its run
MATRIX_UNREAD = {"kakeya wolff-check": {"mode"}}
# values a command derives from its run and records beside its arguments
MATRIX_DERIVED = {
    "kakeya besicovitch": {"size"},
    "kakeya wolff-check": {"lines", "max_lines_in_plane", "ratio"},
    "kakeya heisenberg": {"points", "lines", "point_ratio", "line_ratio"},
    "kakeya sd": {"points", "count", "bound"},
}
MATRIX_CELLS = [
    (name, fld)
    for name in MATRIX_COMMANDS
    for fld in ((None,) if name == "restriction region" else MATRIX_FIELDS)
]
# every command: the matrix, and the table, which prints no report
COMMAND_LINES = {**MATRIX_COMMANDS, "table figure1": "--fields 5,7 --restarts 2 --iters 40"}


def command_argv(name: str, fld: str | None, out: str) -> list[str]:
    command, subcommand = name.split()[:2]
    argv = [command, subcommand]
    if fld is not None:
        argv += ["--fields" if command == "verify" else "--field", fld]
    return argv + COMMAND_LINES[name].split() + [
        "--seed", "3", "--budget", "123456789", "--out", out,
    ]


@pytest.mark.parametrize("name,fld", MATRIX_CELLS)
def test_cli_matrix_single_report_path(capsys, tmp_path, name, fld):
    command, subcommand = name.split()[:2]
    argv = command_argv(name, fld, str(tmp_path / "out.txt")) + ["--format", "json"]
    code, out, err = run_cli(capsys, *argv)
    if (name, fld) in MATRIX_CONFIG_ERRORS:
        assert code == 2 and out == "" and "error:" in err
        return
    assert code == 0 and err == ""
    report = json.loads(out)
    config = report["config"]
    assert (tmp_path / "out.txt").read_text() == out
    assert config["command"] == f"{command} {subcommand}"
    assert config["seed"] == 3 and report["seed"] == 3
    suffix = ":gauss" if command == "verify" else ""
    assert report["experiment"] == f"{command}-{subcommand}{suffix}"
    assert MATRIX_DERIVED.get(f"{command} {subcommand}", set()) <= set(config)
    assert not {"budget", "out", "fmt", "format", "func", "subcommand"} & set(config)
    # every option given on the command line that the run reads identifies it
    flags = {a[2:].replace("-", "_") for a in argv if a.startswith("--")}
    unread = MATRIX_UNREAD.get(f"{command} {subcommand}", set())
    assert flags - {"budget", "out", "format"} - unread <= set(config)
    assert not unread & set(config)


@pytest.mark.parametrize("name,fld", [*MATRIX_CELLS, ("table figure1", None)])
def test_cli_writes_no_file_but_out(capsys, tmp_path, monkeypatch, name, fld):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("FFLAB_RESULTS_DIR", raising=False)
    code, out, _ = run_cli(capsys, *command_argv(name, fld, "out.txt"))
    if (name, fld) in MATRIX_CONFIG_ERRORS:
        assert code == 2 and list(tmp_path.rglob("*")) == []
        return
    assert code == 0
    assert list(tmp_path.rglob("*")) == [tmp_path / "out.txt"]
    assert (tmp_path / "out.txt").read_text() == out


def test_cli_wolff_count_identifies_the_run(capsys):
    configs = []
    for count in ("20", "21"):
        code, out, _ = run_cli(
            capsys, "kakeya", "wolff-check", "--field", "7", "--family", "random",
            "--count", count, "--format", "json",
        )
        assert code == 0
        config = json.loads(out)["config"]
        assert config["count"] == int(count) and "mode" not in config
        configs.append(config)
    assert configs[0] != configs[1]


def test_cli_config_records_resolved_exponents(capsys):
    code, out, _ = run_cli(
        capsys, "restriction", "estimate", "--field", "5", "--dim", "2",
        "--surface", "parabola", "--p", "4/2", "--q", "6/3", "--method", "closed",
        "--format", "json",
    )
    assert code == 0
    config = json.loads(out)["config"]
    assert (config["p"], config["q"]) == ("2", "2")
    # kakeya maximal records its defaulted exponents, resolved from --dim
    code, out, _ = run_cli(capsys, "kakeya", "maximal", "--field", "5", "--dim", "3",
                           "--format", "json")
    assert code == 0
    config = json.loads(out)["config"]
    assert (config["p"], config["q"]) == ("2", "4")


# -- the README's command lines ---------------------------------------------------------


def readme_command_lines() -> list[list[str]]:
    """Arguments of every ``fflab ...`` line in the README's "Command line" block."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = text.split("\n## Command line\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("fflab ")]


def test_readme_command_lines_parse():
    lines = readme_command_lines()
    assert len(lines) >= 10
    for argv in lines:
        args = cli.build_parser().parse_args(argv)
        assert args.func.__name__.startswith("cmd_"), argv
