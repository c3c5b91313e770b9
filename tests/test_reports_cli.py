"""Report serialization, the result cache, and the command-line surface."""

import json
import math

import pytest

from fflab import cli
from fflab.certificates import NormCertificate
from fflab.errors import CacheMissError, VersionMismatchError
from fflab.field import make_field
from fflab.reports import (
    CheckResult,
    ExperimentReport,
    cache_gc,
    config_key,
    load_report,
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


# -- cache -----------------------------------------------------------------------------


def test_store_load_roundtrip():
    rep = sample_report()
    path = store_report(rep)
    assert path.parent == results_dir()
    loaded = load_report(rep.config)
    assert loaded.to_json() == rep.to_json()
    assert path.read_text() == rep.to_json()


def test_cache_miss():
    with pytest.raises(CacheMissError):
        load_report({"command": "never ran"})


def test_config_key_depends_on_seed():
    assert config_key({"seed": 0}) != config_key({"seed": 1})
    assert config_key({"a": 1, "b": 2}) == config_key({"b": 2, "a": 1})


def test_version_mismatch_on_newer_major():
    rep = sample_report()
    rep.version = "2.0.0"
    store_report(rep)
    with pytest.raises(VersionMismatchError):
        load_report(rep.config)


def test_cache_gc_drops_bad_entries():
    keep = sample_report(seed=1)
    store_report(keep)
    stale = sample_report(seed=2)
    stale.version = "2.0.0"
    store_report(stale)
    (results_dir() / "corrupt.json").write_text("{ not json")
    kept, removed = cache_gc()
    assert (kept, removed) == (1, 2)
    assert load_report(keep.config).seed == 1


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
