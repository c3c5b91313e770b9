"""Record the certificate references that ``checks.judge`` compares against.

Runs every shape of every workload once with per-op seed 0, in this process,
and writes ``references.json`` next to this file:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 perfbench/record_references.py

Run it only when the benchmark gains a shape; a change to the program must
reproduce the recorded values, not re-record them.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile

import checks
import workloads


def main() -> int:
    from fflab import cli

    shapes = {}
    with tempfile.TemporaryDirectory() as tmp:
        os.environ["FFLAB_RESULTS_DIR"] = tmp
        for workload in workloads.WORKLOADS.values():
            for shape in workload.shapes:
                op = workloads.Op(shape, 0)
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    code = cli.main(op.argv)
                certs, _ = checks.extract(out.getvalue())
                for c in certs:
                    c["value"] = repr(c["value"])
                shapes[shape] = {"exit": code, "certificates": certs}
                print(f"{code}  {len(certs)} certificates  {shape}", file=sys.stderr)
    doc = {"seed": 0, "rel_tol": checks.REL_TOL, "shapes": shapes}
    checks.REFERENCES.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
