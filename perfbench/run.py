"""fflab benchmark: whole CLI commands in a closed loop, end to end or traced per layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload restriction --seed 1 --seconds 20 --trace 0

Each run starts fresh child processes (``child.py``) with the checkout's
``src`` on ``PYTHONPATH``, BLAS pinned to one thread and ``FFLAB_RESULTS_DIR``
pointing at a new temporary directory inside the checkout.  Several children
only do set-up, so that ``setup_s`` is a median; the last one runs the ops.
Times are reported in reference seconds, corrected for the machine's speed
by a calibration kernel (``speed.py``); the measured figures are printed too.

With ``--trace 0`` the last line of stdout is the JSON result with the
end-to-end metrics; with ``--trace 1`` it carries the per-layer metrics.
The lines before it list every metric with its unit, the tail percentile, the
failure ratio and the provenance (commit, Python, numpy, BLAS, threads,
nproc).  The full record, and the spans of a traced run, are written under
``.perfbench-out/`` in the checkout.

Exit code 0 means a result was printed; anything else means none was.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import select
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import speed
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 7
DEADLINE_S = 170.0
TAIL_BEYOND = 10
BLAS_THREADS = "1"

E2E_UNITS = {
    "setup_s": "s",
    "ops_per_s": "ops/s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "peak_rss_mb": "MB",
}


class BenchError(Exception):
    """The run could not produce a result."""


def tail_percentile(latencies) -> tuple[int, float, int]:
    """(percentile, value, ops beyond it) for the highest whole percentile that
    leaves at least TAIL_BEYOND ops above it, by the nearest-rank rule.

    With TAIL_BEYOND or fewer ops no percentile qualifies; the maximum is
    returned as percentile 100 with 0 ops beyond.
    """
    xs = sorted(latencies)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return 100, xs[-1], 0
    pct = (100 * (n - TAIL_BEYOND)) // n
    rank = max(1, math.ceil(pct * n / 100))
    return pct, xs[rank - 1], n - rank


def _mean_ref(records) -> float:
    """Mean op time of the records in reference seconds."""
    return statistics.fmean(r["latency_s"] for r in records) * speed.to_reference(
        r["cal_s"] for r in records)


def end_to_end(latencies, setups, maxrss_kb) -> tuple[dict, dict]:
    pct, tail, beyond = tail_percentile(latencies)
    metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_s": len(latencies) / sum(latencies),
        "op_p50_s": statistics.median(latencies),
        "op_tail_s": tail,
        "peak_rss_mb": maxrss_kb / 1024.0,
    }
    return metrics, {"tail_percentile": pct, "tail_beyond": beyond, "ops": len(latencies)}


def layer_units(name: str) -> str:
    if name.endswith("cmacs_per_s"):
        return "cmac/s"
    if name.endswith("lines_per_s"):
        return "lines/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith(".bytes"):
        return "B"
    if name.endswith("iters_per_restart"):
        return "iter/restart"
    if name.endswith(("_ratio", "_share")):
        return "ratio"
    return "count"


def provenance() -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {"commit": commit, "src_sha256": digest.hexdigest()}


def _spawn(args, env, extra, deadline):
    """Start a child, return (setup seconds, process) once it reports READY."""
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)] + (["--smoke"] if args.smoke else []) + extra
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    ready, _, _ = select.select([proc.stdout], [], [], max(0.0, deadline - time.monotonic()))
    line = proc.stdout.readline() if ready else ""
    setup = time.perf_counter() - t0
    if line.strip() != "READY":
        proc.kill()
        proc.wait()
        raise BenchError(f"child did not finish set-up (exit {proc.returncode})")
    return setup, proc


def _finish(proc, deadline) -> str:
    """Wait for a child; return the rest of its stdout."""
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError("child ran past the deadline")
    if proc.returncode != 0:
        raise BenchError(f"child exited with {proc.returncode}")
    return out


def run(args) -> tuple[dict, list[str]]:
    """Run the workload; return (final result, lines to print before it)."""
    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "fflab" / "cli.py").is_file():
        raise BenchError(f"no fflab sources under {ROOT / 'src'}")
    tmp_root = ROOT / ".perfbench-tmp"
    tmp_root.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=tmp_root))
    out_dir = ROOT / ".perfbench-out"
    out_dir.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        env = dict(os.environ)
        env.update({
            "PYTHONPATH": str(ROOT / "src"),
            "OPENBLAS_NUM_THREADS": BLAS_THREADS,
            "OMP_NUM_THREADS": BLAS_THREADS,
            "MKL_NUM_THREADS": BLAS_THREADS,
            "FFLAB_RESULTS_DIR": str(tmp / "results"),
        })
        setups = []  # (measured seconds, calibration seconds)
        for _ in range(SETUP_PROBES):
            setup, proc = _spawn(args, env, ["--setup-only"], deadline)
            setups.append((setup, float(_finish(proc, deadline).split("CAL", 1)[1])))
        result_path = tmp / "child.json"
        extra = ["--out", str(result_path)]
        if args.trace:
            extra += ["--spans", str(out_dir / f"spans-{tag}.npz")]
        _, proc = _spawn(args, env, extra, deadline)
        _finish(proc, deadline)
        child = json.loads(result_path.read_text())
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    records = child["records"]
    if not records:
        raise BenchError("no op ran")
    untraced = [r for r in records if not r["traced"]]
    failed = sum(not r["ok"] for r in records)
    unexpected = [r for r in records if not r["ok"] and not r["known"]]
    scale = speed.to_reference(r["cal_s"] for r in untraced)
    e2e, tail_info = end_to_end([r["latency_s"] * scale for r in untraced],
                                [s * speed.CAL_REF / c for s, c in setups], child["maxrss_kb"])
    raw, _ = end_to_end([r["latency_s"] for r in untraced], [s for s, _ in setups],
                        child["maxrss_kb"])
    lines = [f"workload {args.workload}  seed {args.seed}  trace {args.trace}"
             f"  (times in reference seconds: measured x {scale:.4f})"]
    if args.trace:
        metrics = dict(child["layer_metrics"])
        traced = [r for r in records if r["traced"]]
        metrics["trace.overhead_ratio"] = _mean_ref(untraced) / _mean_ref(traced)
        units = {name: layer_units(name) for name in metrics}
        lines.append(f"largest self-time layer: {child['largest_self_layer']}")
    else:
        metrics = e2e
        units = E2E_UNITS
    for name, value in metrics.items():
        note = ""
        if name in raw:
            note = f"  (measured {raw[name]:.6g})"
        if name == "op_tail_s":
            note += (f"  (p{tail_info['tail_percentile']} of {tail_info['ops']} ops,"
                     f" {tail_info['tail_beyond']} beyond)")
        lines.append(f"  {name:<40} {value:>16.6g} {units[name]}{note}")
    lines.append(f"  {'fail_ratio':<40} {failed / len(records):>16.6g} failed/attempted"
                 f"  ({failed} of {len(records)}, {len(unexpected)} not known defects)")
    for r in unexpected[:5]:
        lines.append(f"  FAILED {r['shape']} --seed {r['seed']}: {'; '.join(r['reasons'])}")
    prov = provenance()
    prov.update({k: child[k] for k in ("python", "numpy", "blas", "threads", "nproc")})
    lines.append("provenance " + json.dumps(prov, sort_keys=True))

    result = {
        "correct": not unexpected,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, provenance=prov, tail=tail_info, setups=setups,
                  measured=raw,
                  largest_self_layer=child.get("largest_self_layer"), ops=records)
    (out_dir / f"result-{tag}.json").write_text(json.dumps(record, indent=1))
    return result, lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--smoke", action="store_true", help="one cheap op per run, for self-tests")
    args = ap.parse_args(argv)
    try:
        result, lines = run(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
