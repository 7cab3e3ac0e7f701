#!/usr/bin/env python3
"""Record reference.json: the first pass of every workload at the default seed.

Run from the root of the checkout whose outputs are to be the reference:

    python3 perfbench/record_reference.py

run.py compares the first pass of any run at the default seed with this file.
"""

import itertools
import json
import os
import shutil
import sys

import run  # pins BLAS threads before NumPy loads


def main() -> int:
    run._import_program()
    sys.path.insert(0, run.HERE)
    from tracer import Interposer
    from workloads import WORKLOADS

    workdir = os.path.join(run.RUNS_DIR, f"reference-{os.getpid()}")
    out = {"seed": run.DEFAULT_SEED, "environment": run.environment(), "workloads": {}}
    try:
        for name, workload in WORKLOADS.items():
            passdir = os.path.join(workdir, name)
            os.makedirs(passdir)
            inputs = workload.make_inputs(run.DEFAULT_SEED, 0, passdir)
            with Interposer(workload.capture, record=False) as tap:
                res = run.run_pass(workload, inputs, tap, itertools.count())
            if res.errors or res.failed:
                print(f"{name}: ops failed; no reference written", file=sys.stderr)
                return 1
            out["workloads"][name] = workload.summary(inputs, res.outputs, tap.infos)
            print(f"{name}: recorded in {res.wall:.1f} s")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    out["environment"].pop("measured_spread", None)
    with open(os.path.join(run.HERE, "reference.json"), "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
