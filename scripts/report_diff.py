#!/usr/bin/env python3
"""Field-by-field difference of the reports of two checkouts.

Runs every command of the three benchmark workloads (solve-3d, sweep-2d,
certify-3d) at seeds 0 and 7, then `solve` on the configs of CONFIGURED
(one-solution-only, non-convergence, a configured seed, a seed that is
a config error, a saddle that the climbing image reaches and the saddle
rule rejects, an r0 on which F is not finite, and six parse errors: an
unknown key, a fractional integer, "auto" for a number, a number for the
nonlinearity's name, "auto" for an integer and an infinite float; each
at M = 2 on a 5-point grid), then
`reproduce-example --smoke`, `verify` and
`reproduce-example --modes 4 --grid 18`, once in each checkout (a
fresh process each, BLAS pinned to one thread, perifrac imported from
that checkout's src/, the workloads from its perfbench/) and prints, per
report, what changed from OLD to NEW: exit code, status, every integer
field (the operation counters under `timings` and the ascent's iteration
counts among them), any other non-float field, and the largest relative
change of the float fields.
A key or list tail that one side holds alone is printed once, at its
top-most path, with the number of leaves under it.  The last two lines
count the byte-identical reports, and the reports whose exit code,
status or an integer field changed; the script exits 1 when that count
is not 0.
Fields that measure a roundoff-sized gap are left out of that maximum and
printed on their own, since their relative change says nothing: each
solution's `residual_dual_norm`, which must stay below grad_tol, the
golden check's `rel_gap` and the `gap` of each `verify` check.

    python scripts/report_diff.py OLD_ROOT NEW_ROOT
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import subprocess
import sys
import tempfile

SEEDS = (0, 7)
SMALL = "discretization.M = 2\ndiscretization.grid_points = 5\n"
CONFIGURED = ("solver.max_doublings = 0", "solver.grad_tol = 1e-300",
              "solver.seed = 3", "solver.seed = -2",
              "solver.distinct_tol = 20", "nonlinearity.r0 = 1e103",
              "problem.zeta = 1", "problem.N = 2.5", "problem.s = auto",
              "nonlinearity.key = 5", "solver.max_iter = auto",
              "nonlinearity.q = 1e400")
EXTRA = (["reproduce-example", "--smoke"], ["verify"],
         ["reproduce-example", "--modes", "4", "--grid", "18"])
ONE_THREAD = {key: "1" for key in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                   "MKL_NUM_THREADS")}
ROUNDOFF_FIELDS = {"residual_dual_norm", "rel_gap", "gap"}


def reports(root: pathlib.Path):
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
        for i, line in enumerate(CONFIGURED):
            path = pathlib.Path(tmp, f"solve-{i}.cfg")
            path.write_text(SMALL + line + "\n")
            code, out = wl.run_cli(main, ["solve", "--config", str(path)])
            yield f"solve {line}", code, out
    for argv in EXTRA:
        code, out = wl.run_cli(main, argv)
        yield " ".join(argv), code, out


def dump(root: str) -> None:
    """Child process: one JSON line {name, code, raw report} per command."""
    for name, code, out in reports(pathlib.Path(root).resolve()):
        print(json.dumps({"name": name, "code": code, "raw": out}))


def collect(root: str) -> list[dict]:
    proc = subprocess.run([sys.executable, __file__, "--dump", root],
                          capture_output=True, text=True, check=True)
    return [json.loads(line) for line in proc.stdout.splitlines()]


def leaves(node, path: str = ""):
    """(path, value) of every scalar in a JSON tree."""
    if isinstance(node, dict):
        for key in sorted(node):
            yield from leaves(node[key], f"{path}.{key}" if path else key)
    elif isinstance(node, list):
        for i, item in enumerate(node):
            yield from leaves(item, f"{path}[{i}]")
    else:
        yield path, node


def one_sided(a, b, path: str = ""):
    """(side, path, leaf count) of each subtree that only one of the JSON
    trees a (OLD) and b (NEW) holds, at its top-most path: a dict key on
    one side only, the tail of the longer list, or a node that is a
    container on one side and something else on the other."""
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(a.keys() | b.keys()):
            sub = f"{path}.{key}" if path else key
            if key not in b:
                yield "OLD", sub, len(list(leaves(a[key])))
            elif key not in a:
                yield "NEW", sub, len(list(leaves(b[key])))
            else:
                yield from one_sided(a[key], b[key], sub)
    elif isinstance(a, list) and isinstance(b, list):
        for i, (x, y) in enumerate(zip(a, b)):
            yield from one_sided(x, y, f"{path}[{i}]")
        n = min(len(a), len(b))
        side, longer = ("OLD", a) if len(a) > n else ("NEW", b)
        if len(longer) > n:
            yield (side, f"{path}[{n}:{len(longer)}]",
                   len(list(leaves(longer[n:]))))
    elif isinstance(a, (dict, list)) or isinstance(b, (dict, list)):
        yield "OLD", path, len(list(leaves(a)))
        yield "NEW", path, len(list(leaves(b)))


def is_number(value) -> bool:
    return isinstance(value, float) or (isinstance(value, int)
                                        and not isinstance(value, bool))


def rel_change(a: float, b: float) -> float:
    scale = max(abs(a), abs(b))
    return abs(a - b) / scale if scale else 0.0


def compare(old: dict, new: dict) -> tuple[list[str], float, bool]:
    """Lines describing how report `new` differs from `old`, the largest
    relative change of its float fields outside ROUNDOFF_FIELDS, and
    whether its exit code, status or an integer field changed."""
    if old["raw"] == new["raw"] and old["code"] == new["code"]:
        return ["byte-identical"], 0.0, False
    a, b = json.loads(old["raw"]), json.loads(new["raw"])
    lines = []
    moved = old["code"] != new["code"] or a.get("status") != b.get("status")
    if old["code"] != new["code"]:
        lines.append(f"exit code {old['code']} -> {new['code']}")
    if a.get("status") != b.get("status"):
        lines.append(f"status {a.get('status')} -> {b.get('status')}")
    for side, path, count in one_sided(a, b):
        lines.append(f"only in {side}: {path} "
                     f"({count} {'leaf' if count == 1 else 'leaves'})")
    la, lb = dict(leaves(a)), dict(leaves(b))
    worst, where, gaps = 0.0, "", []
    for path in sorted(la.keys() & lb.keys()):
        x, y = la[path], lb[path]
        if x == y and type(x) is type(y):
            continue
        if path.rsplit(".", 1)[-1] in ROUNDOFF_FIELDS:
            gaps.append(f"{path} {x!r} -> {y!r}")
        elif isinstance(x, float) or isinstance(y, float):
            if not (is_number(x) and is_number(y)):
                lines.append(f"{path} {x!r} -> {y!r}")
            elif rel_change(x, y) > worst:
                worst, where = rel_change(x, y), path
        elif path != "status":
            moved = moved or (is_number(x) and is_number(y))
            lines.append(f"{path} {x!r} -> {y!r}")
    if where:
        lines.append(f"largest relative float change {worst:.2e} at {where}")
    lines += gaps
    return lines, worst, moved


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("old", nargs="?", metavar="OLD_ROOT")
    ap.add_argument("new", nargs="?", metavar="NEW_ROOT")
    ap.add_argument("--dump", metavar="ROOT", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.dump:
        dump(args.dump)
        return 0
    if not (args.old and args.new):
        ap.error("OLD_ROOT and NEW_ROOT are required")
    old, new = collect(args.old), collect(args.new)
    if [r["name"] for r in old] != [r["name"] for r in new]:
        print("the two checkouts run different command lists")
        return 1
    identical, moved, worst, where = 0, 0, 0.0, ""
    for a, b in zip(old, new):
        lines, change, report_moved = compare(a, b)
        identical += lines == ["byte-identical"]
        moved += report_moved
        if change > worst:
            worst, where = change, a["name"]
        print(f"{a['name']}: {lines[0]}")
        for line in lines[1:]:
            print(f"    {line}")
    print(f"{identical} of {len(old)} reports byte-identical; largest relative "
          f"float change {worst:.2e}" + (f" ({where})" if where else ""))
    print(f"{moved} of {len(old)} reports changed exit code, status or an "
          f"integer field")
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
