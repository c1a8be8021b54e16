#!/usr/bin/env python3
"""One benchmark pass in a fresh process.

Sets up (imports perifrac with numpy and scipy, then writes and parses the
workload's configs), runs the workload's commands one after another
through ``perifrac.cli.main`` in this process, checks each report, and
prints one JSON line with the pass's figures.  run.py starts one worker per
pass with BLAS pinned to one thread: perifrac's caches (the sigma-ascent
memo, the lru_caches on the multiplier and the Newton operator) are
process-global, and a reused process would skip work a CLI user pays for.

    python3 perfbench/worker.py WORKLOAD SEED WORKDIR PASS [--trace | --setup-only]

With --trace the layer functions are wrapped in spans (see tracer.py);
the spans are written to WORKDIR/spans-pass<PASS>.jsonl after the pass.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import pathlib
import resource
import statistics
import sys
import time
import traceback

import workloads as wl

# (module, attribute) of each traced function; the span is named
# <module without 'perifrac.'>.<attribute>
LAYERS = [
    ("perifrac.cli", "main"),
    ("perifrac.report", "to_json"),
    ("perifrac.solvers", "solve_multiplicity"),
    ("perifrac.solvers", "ball_minimize"),
    ("perifrac.solvers", "find_descent_endpoint"),
    ("perifrac.solvers", "mountain_pass"),
    ("numpy.linalg", "lstsq"),
    ("perifrac.variational", "energy"),
    ("perifrac.variational", "gradient"),
    ("perifrac.variational", "integral_of_potential"),
    ("perifrac.variational", "nonlinear_image"),
    ("perifrac.variational", "residual_dual_norm"),
    ("perifrac.spectral", "inverse_transform"),
    ("perifrac.spectral", "forward_transform"),
    ("perifrac.constants", "sigma_estimate"),
    ("perifrac.constants", "rayleigh_ascent"),
]

SOLVER_COUNTERS = ("newton_steps", "iterations_ball", "iterations_path",
                   "line_search_trials", "energy_evals")


def span_name(module: str, attr: str) -> str:
    return f"{module.removeprefix('perifrac.')}.{attr}"


def set_up(workload: str, seed: int, workdir: pathlib.Path):
    """Import perifrac and write and parse every config of the pass; this
    is what a CLI user pays before the first command starts."""
    t0 = time.perf_counter()
    sys.path.insert(0, str(wl.HERE.parent / "src"))
    import perifrac.cli
    from perifrac.config import load_config

    reference = wl.load_reference()
    cmds = wl.commands(workload, seed, reference)
    argvs = []
    for cmd in cmds:
        path = workdir / f"{cmd.name}.cfg"
        path.write_text(wl.config_text(cmd.config))
        load_config(str(path))
        argvs.append(cmd.argv(str(path)))
    return time.perf_counter() - t0, perifrac.cli, reference, cmds, argvs


def _observe_grid(observed, result):
    observed[result.shape] += 1


def _observe_sigma(observed, result):
    if result.status == "truncated-lower-bound":
        observed["sigma_ascent_needed"] += 1


def install_tracer():
    from tracer import Tracer, install

    observers = {"spectral.inverse_transform": _observe_grid,
                 "constants.sigma_estimate": _observe_sigma}
    tracer = Tracer()
    for module, attr in LAYERS:
        name = span_name(module, attr)
        install(tracer, importlib.import_module(module), attr, name,
                observers.get(name))
    return tracer


def irfftn_floor_us(shape, min_s: float = 0.2) -> float:
    """Median time of one raw numpy irfftn producing a real array of
    `shape`: the floor for perifrac's inverse transform at that grid."""
    import numpy as np

    axes = tuple(range(len(shape)))
    spec = np.fft.rfftn(np.random.default_rng(0).standard_normal(shape))
    times = []
    t_end = time.perf_counter() + min_s
    while len(times) < 20 or time.perf_counter() < t_end:
        t = time.perf_counter()
        np.fft.irfftn(spec, s=shape, axes=axes)
        times.append(time.perf_counter() - t)
    return statistics.median(times) * 1e6


def run_pass(workload: str, seed: int, workdir: pathlib.Path, index: int,
             traced: bool) -> dict:
    setup_s, cli, reference, cmds, argvs = set_up(workload, seed, workdir)
    tracer = install_tracer() if traced else None
    results, counters, wall = [], dict.fromkeys(SOLVER_COUNTERS, 0), 0.0
    for cmd, argv in zip(cmds, argvs):
        t0 = time.perf_counter()
        try:
            code, out = wl.run_cli(cli.main, argv)
        except Exception:
            dt = time.perf_counter() - t0
            results.append({"name": cmd.name, "wall_s": dt, "sha256": None,
                            "problems": [traceback.format_exc()]})
            wall += dt
            continue
        dt = time.perf_counter() - t0
        wall += dt
        try:
            report = json.loads(out)
            problems = wl.check(workload, cmd, code, report, reference)
        except (ValueError, KeyError, TypeError) as exc:
            report, problems = {}, [f"unreadable report: {exc!r}"]
        for key in SOLVER_COUNTERS:
            counters[key] += int(report.get("timings", {}).get(key, 0))
        results.append({"name": cmd.name, "wall_s": dt,
                        "sha256": hashlib.sha256(out.encode()).hexdigest(),
                        "problems": problems})
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out = {"traced": traced, "setup_s": setup_s, "wall_s": wall,
           "peak_rss_mb": peak_rss_mb, "commands": results,
           "counters": counters}
    if tracer is not None:
        tracer.write(workdir / f"spans-pass{index}.jsonl")
        grids = {k: n for k, n in tracer.observed.items()
                 if isinstance(k, tuple)}
        out["layers"] = tracer.summary()
        out["sigma_ascent_needed"] = tracer.observed["sigma_ascent_needed"]
        if grids:
            shape = max(grids, key=grids.get)
            out["irfftn_grid"] = list(shape)
            out["irfftn_floor_us"] = irfftn_floor_us(shape)
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("workload", choices=wl.WORKLOADS)
    ap.add_argument("seed", type=int)
    ap.add_argument("workdir", type=pathlib.Path)
    ap.add_argument("index", type=int)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true",
                    help="time the set-up and run no command")
    args = ap.parse_args()
    if args.setup_only:
        result = {"setup_s": set_up(args.workload, args.seed, args.workdir)[0]}
    else:
        result = run_pass(args.workload, args.seed, args.workdir, args.index,
                          args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
