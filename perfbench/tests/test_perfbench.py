"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


# -- self time ---------------------------------------------------------------------------


def test_self_time_of_nested_spans():
    # op [0, 10] > a [1, 4] > a1 [2, 3];  op > b [6, 10], ending with its parent
    start = [0.0, 1.0, 2.0, 6.0]
    end = [10.0, 4.0, 3.0, 10.0]
    parent = [-1, 0, 1, 0]
    got = spans.self_times(start, end, parent)
    assert got.tolist() == [3.0, 2.0, 1.0, 4.0]
    assert got.sum() == 10.0


def test_self_time_clips_a_child_to_its_parent():
    got = spans.self_times([0.0, 2.0], [5.0, 7.0], [-1, 0])
    assert got.tolist() == [2.0, 5.0]


def test_recorded_self_times_add_up_to_op_time():
    tracer = spans.Tracer()
    op = tracer.begin_op(0)
    inner = tracer.open("grid.fourier_forward")
    tracer.close(tracer.open("grid.lp_norm"))
    tracer.close(inner)
    tracer.close(op)
    metrics, largest = spans.layer_metrics(tracer, constructions=0)
    assert metrics["trace.self_sum_ratio"] == pytest.approx(1.0, rel=1e-9)
    assert metrics["grid.transform.calls"] == 1.0
    assert largest in ("cli.op", "grid.transform", "grid.norm")


# -- tail percentile ----------------------------------------------------------------------


@pytest.mark.parametrize("n", range(1, 11))
def test_tail_with_ten_or_fewer_ops_is_the_maximum(n):
    assert run.tail_percentile(range(n)) == (100, n - 1, 0)


def test_tail_small_counts():
    assert run.tail_percentile(range(11)) == (9, 0, 10)
    assert run.tail_percentile(range(20)) == (50, 9, 10)
    assert run.tail_percentile(range(200)) == (95, 189, 10)


@pytest.mark.parametrize("n", [11, 12, 13, 17, 26, 34, 36, 52, 99, 101, 333])
def test_tail_is_the_highest_percentile_with_ten_beyond(n):
    pct, value, beyond = run.tail_percentile(range(n))
    assert beyond >= 10 and value == n - 1 - beyond
    # one percentile higher leaves fewer than ten ops beyond it
    assert n - -(-(pct + 1) * n // 100) < 10


# -- output checks ------------------------------------------------------------------------

SHAPE = "restriction estimate --field 31 --dim 3 --surface paraboloid --p 2 --q 4"


def _report(certs, checks_=(("certificate_consistency", True),)):
    return json.dumps({
        "certificates": [
            {"quantity": "rstar", "char": 31, "degree": 1, "n": 3, "surface": "paraboloid(n=3)",
             "p": "2", "q": "4", "kind": c["kind"], "method": c["method"], "value": repr(c["value"])}
            for c in certs
        ],
        "checks": [{"name": n, "pass": ok, "deviation": None} for n, ok in checks_],
    })


@pytest.fixture(scope="module")
def references():
    return checks.load_references()


def _ref_certs(references, shape=SHAPE):
    return [dict(c, value=float(c["value"])) for c in references[shape]["certificates"]]


def test_reference_values_pass(references):
    v = checks.judge(SHAPE, 0, 0, _report(_ref_certs(references)), None, references)
    assert v.ok and not v.known


def test_a_changed_certificate_value_fails(references):
    certs = _ref_certs(references)
    upper = next(c for c in certs if c["kind"] == "upper")
    upper["value"] *= 1 + 1e-6
    v = checks.judge(SHAPE, 123, 0, _report(certs), None, references)
    assert not v.ok and any("reference" in r for r in v.reasons)


def test_lower_values_are_compared_only_at_the_default_seed(references):
    certs = _ref_certs(references)
    lower = next(c for c in certs if c["kind"] == "lower")
    lower["value"] *= 1 - 1e-3
    assert not checks.judge(SHAPE, 0, 0, _report(certs), None, references).ok
    assert checks.judge(SHAPE, 7, 0, _report(certs), None, references).ok
    upper = next(c for c in certs if c["kind"] == "upper")
    lower["value"] = upper["value"] * 1.01
    v = checks.judge(SHAPE, 7, 0, _report(certs), None, references)
    assert any("above upper" in r for r in v.reasons)


def test_failed_checks_exit_codes_and_exceptions_fail(references):
    text = _report(_ref_certs(references), (("lower_recheck", False),))
    assert checks.judge(SHAPE, 0, 0, text, None, references).reasons == ["check lower_recheck false"]
    assert not checks.judge(SHAPE, 0, 2, "", None, references).ok
    assert not checks.judge(SHAPE, 0, None, "", "RuntimeError: boom", references).ok


def test_known_defect_counts_as_failed_but_known(references):
    shape = "kakeya heisenberg --field 5^2"
    text = json.dumps({"certificates": [], "checks": [
        {"name": "point_count_bracket", "pass": False, "deviation": "3125.0"}]})
    v = checks.judge(shape, 0, 1, text, None, references)
    assert not v.ok and v.known
    v = checks.judge(shape, 0, None, "", "MemoryError: ", references)
    assert not v.ok and not v.known


def test_every_shape_has_a_reference(references):
    for workload in workloads.WORKLOADS.values():
        for shape in workload.shapes:
            assert shape in references


def test_op_list_depends_only_on_the_seed():
    w = workloads.WORKLOADS["restriction"]
    a = workloads.draw_rounds(w, 5, 3)
    assert a == workloads.draw_rounds(w, 5, 3)
    assert a != workloads.draw_rounds(w, 6, 3)
    assert all(sorted(op.shape for op in r) == sorted(w.shapes) for r in a)


# -- tracer installation ------------------------------------------------------------------


def test_install_rebinds_every_import_and_uninstall_restores():
    import fflab
    from fflab import cli, grid, restriction, surfaces

    original = grid.fourier_forward
    tracer = spans.Tracer()
    tracer.install()
    try:
        for module in (fflab, grid, restriction, cli):
            assert module.fourier_forward is not original
        assert surfaces.fourier_inverse is not original
    finally:
        tracer.uninstall()
    for module in (fflab, grid, restriction, cli):
        assert module.fourier_forward is original


# -- end to end ---------------------------------------------------------------------------


def _run(args, cwd):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run_prints_every_metric_with_its_unit(workload, trace):
    out = _run(["--workload", workload, "--seed", "3", "--seconds", "1", "--trace", trace,
                "--smoke"], ROOT)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0
    declared = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert any(m["name"] in line and line.rstrip().split()[2] == m["unit"]
                   for line in lines[:-1] if line.startswith("  "))


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    out = _run(["--workload", "kakeya", "--seed", "1", "--seconds", "1", "--trace", "0"], tmp_path)
    assert out.returncode != 0
    assert out.stdout.strip() == ""
