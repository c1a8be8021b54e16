#!/usr/bin/env python3
"""sha256 of the stdout report of every benchmark command.

Runs every command of the three benchmark workloads (solve-3d, sweep-2d,
certify-3d) at seeds 0 and 7, then `reproduce-example --smoke`, `verify`
and `reproduce-example --modes 4 --grid 18`, in this process through
perfbench/workloads.run_cli with BLAS pinned to one thread, and prints one
line per command: the sha256 of its stdout report, its exit code and its
name.  Two trees that print the same
lines produce byte-identical reports; run it in each and diff the output:

    python scripts/report_hashes.py
"""

from __future__ import annotations

import hashlib
import os
import pathlib
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parents[1]
SEEDS = (0, 7)
EXTRA = (["reproduce-example", "--smoke"], ["verify"],
         ["reproduce-example", "--modes", "4", "--grid", "18"])
ONE_THREAD = {key: "1" for key in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                   "MKL_NUM_THREADS")}


def reports(root: pathlib.Path = ROOT):
    """(name, exit code, stdout report) of every command, run in this
    process on the perifrac in root/src and the workloads in root/perfbench."""
    # BLAS reads its thread count when numpy is first imported
    os.environ.update(ONE_THREAD)
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import workloads as wl
    from perifrac.cli import main

    reference = wl.load_reference()
    with tempfile.TemporaryDirectory() as tmp:
        for workload in wl.WORKLOADS:
            for seed in SEEDS:
                for cmd in wl.commands(workload, seed, reference):
                    path = pathlib.Path(tmp, f"{workload}-{seed}-{cmd.name}.cfg")
                    path.write_text(wl.config_text(cmd.config))
                    code, out = wl.run_cli(main, cmd.argv(str(path)))
                    yield f"{workload} seed {seed} {cmd.name}", code, out
    for argv in EXTRA:
        code, out = wl.run_cli(main, argv)
        yield " ".join(argv), code, out


def run() -> None:
    for name, code, out in reports():
        print(f"{hashlib.sha256(out.encode()).hexdigest()}  {code}  {name}")


if __name__ == "__main__":
    run()
