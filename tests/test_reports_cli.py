"""Report serialization, the results store, and the command-line surface."""

import json
import math

import pytest

from fflab import cli
from fflab.certificates import NormCertificate
from fflab.field import make_field
from fflab.reports import (
    CheckResult,
    ExperimentReport,
    cache_gc,
    config_key,
    results_dir,
    store_report,
)
from fflab.restriction import rstar_lower_witness
from fflab.surfaces import paraboloid


def sample_report(seed=0) -> ExperimentReport:
    cert = rstar_lower_witness(paraboloid(make_field(5), 2), 2, 4, "dirac")
    return ExperimentReport(
        experiment="restriction-estimate",
        char=5, degree=1, n=2, surface="parabola", p=2, q=4,
        certificates=[cert],
        checks=[CheckResult("lower_recheck", True, 3e-16), CheckResult("plain", True)],
        runtime_ms=1.25,
        seed=seed,
        config={"command": "restriction estimate", "seed": seed, "tol": 1e-10},
    )


# -- serialization ---------------------------------------------------------------------


def test_report_json_roundtrip():
    rep = sample_report()
    again = ExperimentReport.from_json(rep.to_json())
    assert again.to_json() == rep.to_json()
    assert again.certificates[0].witness == rep.certificates[0].witness
    assert again.checks[0].deviation == 3e-16


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


# -- results store ---------------------------------------------------------------------


def test_store_load_roundtrip():
    rep = sample_report()
    path = store_report(rep)
    assert path.parent == results_dir()
    assert path.name == f"{config_key(rep.config)}.json"
    loaded = ExperimentReport.from_json(path.read_text())
    assert loaded.to_json() == rep.to_json()
    assert path.read_text() == rep.to_json()


def test_config_key_depends_on_seed():
    assert config_key({"seed": 0}) != config_key({"seed": 1})
    assert config_key({"a": 1, "b": 2}) == config_key({"b": 2, "a": 1})


def test_cache_gc_drops_bad_entries():
    keep = sample_report(seed=1)
    kept_path = store_report(keep)
    stale = sample_report(seed=2)
    stale.version = "2.0.0"
    stale_path = store_report(stale)
    (results_dir() / "corrupt.json").write_text("{ not json")
    kept, removed = cache_gc()
    assert (kept, removed) == (1, 2)
    assert not stale_path.exists()
    assert ExperimentReport.from_json(kept_path.read_text()).seed == 1


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


def test_cli_kakeya_maximal_defaults(capsys):
    code, out, _ = run_cli(capsys, "kakeya", "maximal", "--field", "5")
    assert code == 0
    assert "K(2 -> 2)" in out and "sqrt" not in out
    assert "[pass]" in out


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


def test_cli_heisenberg(capsys):
    code, out, _ = run_cli(capsys, "kakeya", "heisenberg")
    assert code == 0 and "F_3^2" in out


def test_cli_heisenberg_bracket_scales(capsys):
    # the point-count bracket follows |F|^{5/2}: |P| = 3125 over F_25
    code, out, _ = run_cli(capsys, "kakeya", "heisenberg", "--field", "5^2")
    assert code == 0 and "|P| = 3125" in out


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


def test_cli_cache_gc(capsys):
    store_report(sample_report())
    (results_dir() / "junk.json").write_text("broken")
    code, out, _ = run_cli(capsys, "cache", "gc")
    assert code == 0
    assert "kept 1" in out and "removed 1" in out


# -- one report path: every report subcommand over F_5, F_7 and F_9 ----------------------

# -1 is a square in F_5 and F_9 and a non-square in F_7.
MATRIX_FIELDS = ("5", "7", "3^2")
MATRIX_COMMANDS = {
    "restriction estimate": "--dim 2 --surface parabola --p 2 --q 4 --restarts 2 --iters 30",
    "restriction witness": "--dim 2 --surface parabola --p 2 --q 4 --witness dirac",
    "verify identities": "--suite gauss",
    "kakeya maximal": "--dim 2",
    "kakeya besicovitch": "--construct 2d",
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


@pytest.mark.parametrize("name,fld", MATRIX_CELLS)
def test_cli_matrix_single_report_path(capsys, tmp_path, name, fld):
    command, subcommand = name.split()[:2]
    argv = [command, subcommand]
    if fld is not None:
        argv += ["--fields" if command == "verify" else "--field", fld]
    argv += MATRIX_COMMANDS[name].split()
    argv += ["--seed", "3", "--budget", "123456789", "--out", str(tmp_path / "out.txt")]
    argv += ["--format", "json"]
    code, out, err = run_cli(capsys, *argv)
    stored = sorted(results_dir().glob("*.json"))
    if (name, fld) in MATRIX_CONFIG_ERRORS:
        assert code == 2 and out == "" and "error:" in err
        assert stored == []
        return
    assert code == 0 and err == ""
    assert len(stored) == 1
    report = json.loads(out)
    config = report["config"]
    assert stored[0].name == f"{config_key(config)}.json"
    assert stored[0].read_text() + "\n" == out
    assert (tmp_path / "out.txt").read_text() == out
    assert config["command"] == f"{command} {subcommand}"
    assert config["seed"] == 3 and report["seed"] == 3
    suffix = ":gauss" if command == "verify" else ""
    assert report["experiment"] == f"{command}-{subcommand}{suffix}"
    assert MATRIX_DERIVED.get(f"{command} {subcommand}", set()) <= set(config)
    assert not {"budget", "out", "fmt", "format", "func", "subcommand"} & set(config)
    # every option given on the command line identifies the run
    flags = {a[2:].replace("-", "_") for a in argv if a.startswith("--")}
    assert flags - {"budget", "out", "format"} <= set(config)


def test_cli_wolff_count_identifies_the_run(capsys):
    keys = []
    for count in ("20", "21"):
        code, out, _ = run_cli(
            capsys, "kakeya", "wolff-check", "--field", "7", "--family", "random",
            "--count", count, "--format", "json",
        )
        assert code == 0
        config = json.loads(out)["config"]
        assert config["count"] == int(count)
        keys.append(config_key(config))
    assert keys[0] != keys[1]
    assert len(list(results_dir().glob("*.json"))) == 2


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
