#!/usr/bin/env python3
"""Size-ladder benchmark: per-command, per-stage, per-layer and import walls.

Runs `constants` and `solve` (auto lambda and rho, seed 0) at each rung of
the ladder N=1 (s=0.4, M 8..128), N=2 (s=0.75, M 8..32) and N=3 (s=0.9,
M 4..8), each command in a fresh process with BLAS pinned to one thread,
so no process-global cache carries over between commands.  `constants`
checks its sigma against a golden file made for the ladder's tuples by
scripts/make_golden.py (24 starts, seed 0) in a temporary directory, so
it times the certification path rather than a missing-entry failure.
Stage and layer spans come from perfbench/tracer.py, which wraps the stage
functions (the solver stages, the straight-path node energies of the
saddle stage, the sigma ascent with its stacked climb of
all seeded starts (climb_coarse, one call per ascent) and its L-BFGS
finish at M (climb_fine), and the maximization of
lambda_max over rho), the Newton polish's operator build at each step
(_jacobian_operators, its f' sample included) and MINRES solve, the transform
layer (the public pair and the pruned DFT kernels under it) and the
variational layer (energy, gradient and the dealiased nonlinear_image) from
the outside; src/ holds no timing code.  Each child also times its own
`import perifrac.cli` (import_s) and reports its peak resident set size
once all its runs are done (maxrss_mb, see peak_rss_mb).  After that
fresh-process run it runs the command WARM_REPEATS more times in the same
process, with the sigma cache cleared before each, so every repeat pays for
its ascent, and reports under `warm` the minimum over those repeats of
the wall and of each span: first-call costs and host noise move a fresh
process's millisecond stages by up to a third, the warm minimum far less.
Writes BENCH_<label>.json:

    python scripts/bench.py --label LABEL [--repeats 3] [--before PATH]

--before keeps a BENCH file made by this script on another tree (say the
parent commit, in a checkout of its own) under the key "before", so one
file holds both sides of a change.

For each command the file holds the median over the repeats of its wall
time, of its import time, of its peak RSS and of each stage's and layer's
inclusive time and call count, the same medians of the warm minima, the
exit code, the report status and the report's operation counters.  The
header names the BLAS build numpy reports (for OpenBLAS with DYNAMIC_ARCH,
the core it picked for the CPU it runs on, whose kernels set the last bits
of every report).  Wall clock stays out of the stdout reports, as
everywhere in perifrac.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parents[1]

# (module, attribute) of each timed stage; named by the attribute
STAGES = [
    ("perifrac.solvers", "ball_minimize"),
    ("perifrac.solvers", "find_descent_endpoint"),
    ("perifrac.solvers", "mountain_pass"),
    ("perifrac.solvers", "_path_energies"),
    ("perifrac.solvers", "_newton_polish"),
    ("perifrac.solvers", "_jacobian_operators"),
    ("perifrac.solvers", "_minres"),
    ("perifrac.constants", "rayleigh_ascent"),
    ("perifrac.constants", "best_lambda"),
]

# (module, attribute, span name) of the sigma ascent's two climbs
CLIMBS = [
    ("perifrac.constants", "_climb", "climb_coarse"),
    ("perifrac.constants", "_finish", "climb_fine"),
]

# (module, attribute) of each timed layer; named by the attribute
LAYERS = [
    ("perifrac.spectral", "forward_transform"),
    ("perifrac.spectral", "inverse_transform"),
    ("perifrac.spectral", "_hermitian_half"),
    ("perifrac.spectral", "_half_to_samples"),
    ("perifrac.variational", "energy"),
    ("perifrac.variational", "gradient"),
    ("perifrac.variational", "nonlinear_image"),
]

LADDER = ([(1, 0.4, M) for M in (8, 16, 32, 64, 128)]
          + [(2, 0.75, M) for M in (8, 16, 32)]
          + [(3, 0.9, M) for M in (4, 6, 8)])

COMMANDS = ("constants", "solve")

WARM_REPEATS = 5

ONE_THREAD = {key: "1" for key in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                   "MKL_NUM_THREADS")}


def rung_name(N: int, s: float, M: int) -> str:
    return f"N{N}-s{s:g}-M{M}"


def config_text(N: int, s: float, M: int) -> str:
    return f"problem.N = {N}\nproblem.s = {s!r}\ndiscretization.M = {M}\n"


def ladder_golden(path: pathlib.Path) -> None:
    """Write a golden file for the sigma_q of every ladder rung."""
    sys.path.insert(0, str(ROOT / "src"))
    from make_golden import estimates
    from perifrac.config import parse_config

    entries = []
    for N, s, M in LADDER:
        cfg = parse_config(config_text(N, s, M))
        entries.append((cfg.nonlinearity().q, cfg.problem(lam=1.0), M))
    path.write_text("".join(f"{key} = {est.value!r}\n"
                            for key, est in estimates(entries, 24, 0)))


def run_one(command: str, config_path: str, golden_path: str) -> dict:
    """Child process: one command under stage spans; prints one JSON line."""
    import contextlib
    import importlib
    import io

    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT / "perfbench"))
    t0 = time.perf_counter()
    import perifrac.cli
    import_s = time.perf_counter() - t0
    from tracer import Tracer, install

    tracer = Tracer()
    for module, attr, name in CLIMBS:
        install(tracer, importlib.import_module(module), attr, name)
    for module, attr in STAGES + LAYERS:
        install(tracer, importlib.import_module(module), attr, attr)
    argv = [command, "--config", config_path, "--seed", "0"]
    if command == "constants":
        argv += ["--golden", golden_path]
    layers = {attr for _, attr in LAYERS}

    def timed() -> tuple[int, str, dict]:
        """One call of main: (exit code, stdout, wall and spans of the call)."""
        tracer.spans.clear()
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = perifrac.cli.main(argv)
        wall = time.perf_counter() - t0
        spans = tracer.summary()
        return code, out.getvalue(), {
            "wall_s": wall,
            "stages": {k: v for k, v in spans.items() if k not in layers},
            "layers": {k: v for k, v in spans.items() if k in layers}}

    code, out, fresh = timed()
    warm = []
    for _ in range(WARM_REPEATS):
        perifrac.constants._SIGMA_CACHE.clear()
        warm.append(timed()[2])
    report = json.loads(out)
    return {"exit_code": code, "status": report.get("status"),
            "import_s": import_s, "maxrss_mb": peak_rss_mb(), **fresh,
            "warm": {"wall_s": min(w["wall_s"] for w in warm),
                     "stages": min_spans(warm, "stages"),
                     "layers": min_spans(warm, "layers")},
            "timings": report.get("timings", {})}


def peak_rss_mb() -> float:
    """This process's peak resident set size in MB: Linux's VmHWM, which
    starts anew at exec, or else getrusage's ru_maxrss.  On Linux ru_maxrss
    also keeps the peak of the parent whose memory a vfork shared until
    the exec, and this script's parent holds numpy, scipy and the ladder's
    golden ascents, more than a small command's child."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def min_spans(runs: list[dict], key: str) -> dict:
    """Per span name: the calls of the first run, the least inclusive time."""
    return {name: {"calls": row["calls"],
                   "s": min(r[key][name]["s"] for r in runs)}
            for name, row in runs[0][key].items()}


def median_spans(runs: list[dict], key: str) -> dict:
    out = {}
    for name in sorted({n for r in runs for n in r[key]}):
        rows = [r[key].get(name, {"calls": 0, "s": 0.0}) for r in runs]
        out[name] = {"calls": rows[0]["calls"],
                     "s": statistics.median(row["s"] for row in rows)}
    return out


def median_run(runs: list[dict]) -> dict:
    first = runs[0]
    return {"exit_code": first["exit_code"], "status": first["status"],
            "wall_s": statistics.median(r["wall_s"] for r in runs),
            "import_s": statistics.median(r["import_s"] for r in runs),
            "maxrss_mb": statistics.median(r["maxrss_mb"] for r in runs),
            "stages": median_spans(runs, "stages"),
            "layers": median_spans(runs, "layers"),
            "warm": {"wall_s": statistics.median(r["warm"]["wall_s"]
                                                 for r in runs),
                     "stages": median_spans([r["warm"] for r in runs], "stages"),
                     "layers": median_spans([r["warm"] for r in runs], "layers")},
            "timings": first["timings"]}


def blas_build() -> str | None:
    """The BLAS configuration string numpy reports, or None without one."""
    import numpy

    blas = (numpy.show_config(mode="dicts").get("Build Dependencies", {})
            .get("blas", {}))
    return blas.get("openblas configuration") or blas.get("name")


def src_lines() -> int:
    return sum(len(p.read_text().splitlines())
               for p in sorted((ROOT / "src" / "perifrac").glob("*.py")))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", required=True, help="names BENCH_<label>.json")
    ap.add_argument("--repeats", type=int, default=3)
    ap.add_argument("--before", type=pathlib.Path,
                    help="a BENCH file to keep under 'before'")
    ap.add_argument("--one", nargs=3, metavar=("COMMAND", "CONFIG", "GOLDEN"),
                    help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.one:
        print(json.dumps(run_one(*args.one)))
        return 0
    if args.repeats < 1:
        ap.error("--repeats must be at least 1")

    import numpy
    import scipy

    env = dict(os.environ, **ONE_THREAD)
    rungs = {}
    with tempfile.TemporaryDirectory() as tmp:
        golden = pathlib.Path(tmp) / "golden_sigmas.txt"
        ladder_golden(golden)
        for N, s, M in LADDER:
            name = rung_name(N, s, M)
            cfg = pathlib.Path(tmp) / f"{name}.cfg"
            cfg.write_text(config_text(N, s, M))
            rung = {}
            for command in COMMANDS:
                runs = []
                for _ in range(args.repeats):
                    proc = subprocess.run(
                        [sys.executable, __file__, "--label", args.label,
                         "--one", command, str(cfg), str(golden)],
                        env=env, capture_output=True, text=True, check=True)
                    runs.append(json.loads(proc.stdout.splitlines()[-1]))
                rung[command] = median_run(runs)
                print(f"{name:14s} {command:9s} {rung[command]['status']:24s} "
                      f"{rung[command]['wall_s']:8.3f} s  warm "
                      f"{rung[command]['warm']['wall_s']:8.3f} s  import "
                      f"{rung[command]['import_s']:6.3f} s  rss "
                      f"{rung[command]['maxrss_mb']:6.2f} MB", file=sys.stderr)
            rungs[name] = rung
    result = {
        "label": args.label,
        "repeats": args.repeats,
        "warm_repeats": WARM_REPEATS,
        "blas_threads": 1,
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_build(),
        "src_lines": src_lines(),
        "stages": [attr for _, attr in STAGES] + ["climb_coarse",
                                                   "climb_fine"],
        "layers": [attr for _, attr in LAYERS],
        "rungs": rungs,
    }
    if args.before:
        result["before"] = json.loads(args.before.read_text())
    path = ROOT / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    print(path.name, file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
