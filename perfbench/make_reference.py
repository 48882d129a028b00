#!/usr/bin/env python3
"""Write the reference CSVs that ``run.py`` compares against: every call of
every workload at the default seed, run by the checkout's ``teachsim``.

    python3 perfbench/make_reference.py

Only rerun this when a change is meant to move simulated numbers, and say
in that change which numbers moved and why.
"""

from __future__ import annotations

import os
import shutil
import sys

import run


def main() -> int:
    _, cli = run.load_package()
    for workload, calls in run.WORKLOADS.items():
        outdir = os.path.join(run.OUT, "reference", workload)
        _, _, errors = run.run_pass(cli, calls, run.DEFAULT_SEED, outdir)
        if errors:
            print(f"{workload}: calls failed: {sorted(errors)}", file=sys.stderr)
            return 1
        target = os.path.join(run.REFERENCE, workload)
        os.makedirs(target, exist_ok=True)
        for i, call in enumerate(calls):
            name = f"{i}-{call.experiment}.csv"
            shutil.copyfile(os.path.join(outdir, name), os.path.join(target, name))
            print(f"wrote {os.path.relpath(os.path.join(target, name), run.ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
