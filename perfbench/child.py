"""One benchmark run in its own process: a single caller in a closed loop.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's ``src``.
Set-up (importing ``fflab.cli``, drawing the op list, building the parser and
parsing every shape) ends with a ``READY`` line on stdout; the parent times
set-up up to that line.  Then the op list runs in whole rounds until the ops have taken
``--seconds`` reference seconds (see ``speed.py``): the next op starts only
when the previous one has returned, after one pass of the calibration kernel.  Each
op calls ``fflab.cli.main(argv)`` with stdout captured and is judged by
``checks.judge``.  The result is written as JSON to ``--out``.

In a traced run every round runs twice, untraced and then traced with the same
argv, so the two throughputs compare the same ops.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

import checks
import spans
import workloads
from speed import calibrate, probe, to_reference

ROOT = Path(__file__).resolve().parent.parent
MAX_ROUNDS = 100  # a cap far above the rounds a run needs; drawing them is set-up


def _import_cli():
    from fflab import cli

    src = (ROOT / "src").resolve()
    if src not in Path(cli.__file__).resolve().parents:
        raise SystemExit(f"fflab was imported from {cli.__file__}, not from {src}")
    return cli


class Runner:
    def __init__(self, cli, workload: workloads.Workload, references: dict):
        from fflab.field import make_field

        self.cli = cli
        self.workload = workload
        self.references = references
        self.make_field = make_field  # the cached original, also while traced
        self.records: list[dict] = []
        self.tracer: spans.Tracer | None = None
        self.constructions = 0
        self.cli_errors = 0

    def run_op(self, op: workloads.Op, traced: bool) -> None:
        if self.workload.cold_fields:
            self.make_field.cache_clear()
        misses = self.make_field.cache_info().misses
        out = io.StringIO()
        code, error = None, None
        tracer = self.tracer if traced else None
        gc.collect()  # each op starts from a collected heap, as in a fresh CLI process
        cal = calibrate()
        t0 = time.perf_counter()
        span = tracer.begin_op(len(self.records)) if tracer else None
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = self.cli.main(op.argv)
        except (Exception, SystemExit) as exc:  # the run carries on past a failed op
            error = f"{type(exc).__name__}: {exc}"
        finally:
            if tracer:
                tracer.close(span)
        latency = time.perf_counter() - t0
        if traced:
            self.constructions += self.make_field.cache_info().misses - misses
            self.cli_errors += error is not None
        verdict = checks.judge(op.shape, op.seed, code, out.getvalue(), error, self.references)
        self.records.append({
            "shape": op.shape, "seed": op.seed, "traced": traced, "latency_s": latency,
            "cal_s": cal,
            "ok": verdict.ok, "known": verdict.known, "reasons": verdict.reasons,
        })

    def reference_seconds(self) -> float:
        if not self.records:
            return 0.0
        return sum(r["latency_s"] for r in self.records) * to_reference(
            r["cal_s"] for r in self.records)

    def run(self, rounds, seconds: float, trace: bool) -> None:
        """Whole rounds until the ops have taken ``seconds`` reference seconds."""
        if trace:
            self.tracer = spans.Tracer()
        calibrate()  # warm-up
        for ops in rounds:
            if self.reference_seconds() >= seconds:
                break
            for op in ops:
                self.run_op(op, traced=False)
            if trace:
                self.tracer.install()
                try:
                    for op in ops:
                        self.run_op(op, traced=True)
                finally:
                    self.tracer.uninstall()


def blas_config() -> dict:
    import numpy as np

    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        return {k: deps[k].get("openblas configuration", deps[k].get("name")) for k in ("blas", "lapack")}
    except (KeyError, TypeError, ValueError):
        return {}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--out", type=Path)
    ap.add_argument("--spans", type=Path)
    args = ap.parse_args(argv)

    cli = _import_cli()
    workload = workloads.WORKLOADS[args.workload]
    rounds = workloads.draw_rounds(workload, args.seed, 1 if args.smoke else MAX_ROUNDS, args.smoke)
    parser = cli.build_parser()
    for op in rounds[0]:
        parser.parse_args(op.argv)
    references = checks.load_references()
    print("READY", flush=True)
    if args.setup_only:
        print(f"CAL {probe()!r}", flush=True)
        return 0

    runner = Runner(cli, workload, references)
    runner.run(rounds, args.seconds, bool(args.trace))

    import numpy as np

    result = {
        "records": runner.records,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_config(),
        "threads": {k: os.environ.get(k) for k in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
    }
    if runner.tracer is not None:
        scale = to_reference(r["cal_s"] for r in runner.records if r["traced"])
        metrics, largest = spans.layer_metrics(runner.tracer, runner.constructions, scale)
        metrics["cli.errors"] = float(runner.cli_errors)
        result["layer_metrics"] = metrics
        result["largest_self_layer"] = largest
        if args.spans is not None:
            runner.tracer.save(args.spans)
    args.out.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
