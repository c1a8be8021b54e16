#!/usr/bin/env python3
"""perifrac benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Load model: a closed loop with one
client.  The run is a sequence of passes; each pass is one fresh worker
process (worker.py) with BLAS pinned to one thread, which sets up and then
runs the workload's commands through perifrac's CLI entry point, the next
command starting when the previous one returns.  Passes repeat until S
seconds have gone (at least two passes).  Peak RSS is the median over
passes, and wall time sums each command's median over passes.  Set-up
time is the median over at least SETUP_SAMPLES set-ups: when the passes
give fewer, workers that only set up make up the rest.

--trace 0 prints the end-to-end metrics: set-up time, summed command wall
time, the worker's peak RSS, and the share of commands that pass every
check.  --trace 1 alternates untraced and traced passes and prints the
per-layer metrics from the traced ones, with the tracing overhead.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  The line before it holds the per-pass samples.  Wall clock never
enters perifrac's own reports, which are checked byte-for-byte (sha256)
across the passes of a run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import workloads as wl

ROOT = wl.HERE.parent
WORKDIR = ROOT / ".perfbench_work"
RUN_LIMIT_S = 150.0            # a run must end within 180 s
SETUP_SAMPLES = 9              # set-up is timed at least this often per run
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

SPANS = [
    "cli.main", "report.to_json",
    "solvers.solve_multiplicity", "solvers.ball_minimize",
    "solvers.find_descent_endpoint", "solvers.mountain_pass",
    "numpy.linalg.lstsq",
    "variational.energy", "variational.gradient",
    "variational.integral_of_potential", "variational.nonlinear_image",
    "variational.residual_dual_norm",
    "spectral.inverse_transform", "spectral.forward_transform",
    "constants.sigma_estimate", "constants.rayleigh_ascent",
]


class BenchError(Exception):
    """The benchmark could not run; nothing is printed on stdout."""


def run_worker(workload: str, seed: int, index: int, flags: list[str],
               deadline: float) -> dict:
    env = dict(os.environ, **{k: str(BLAS_THREADS) for k in BLAS_ENV})
    argv = [sys.executable, str(wl.HERE / "worker.py"), workload, str(seed),
            str(WORKDIR), str(index)] + flags
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, env=env, text=True)
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"pass {index} did not finish in time") from None
    if proc.returncode != 0 or not out.strip():
        raise BenchError(f"worker exited with code {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def count_failures(passes: list[dict]) -> tuple[int, int, list[str]]:
    """(attempted, failed, messages).  A command fails on any check problem,
    or when its report's sha256 differs from the first pass's report for
    the same command (same code and seed must give identical bytes)."""
    first = {c["name"]: c["sha256"] for c in passes[0]["commands"]}
    attempted, failed, messages = 0, 0, []
    for i, p in enumerate(passes):
        for c in p["commands"]:
            attempted += 1
            problems = list(c["problems"])
            if c["sha256"] is None or c["sha256"] != first[c["name"]]:
                problems.append("report differs from the first pass's report")
            if problems:
                failed += 1
                messages.append(f"pass {i} {c['name']}: " + "; ".join(problems))
    return attempted, failed, messages


def command_wall(passes: list[dict]) -> float:
    """Sum over the workload's commands of each command's median wall time
    across passes: steadier than the median pass when a burst of machine
    noise hits a few commands of an otherwise quiet pass."""
    return sum(statistics.median(c["wall_s"] for c in runs)
               for runs in zip(*(p["commands"] for p in passes)))


def end_to_end(passes, setups, attempted, failed) -> dict:
    return {
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "wall_s": {"value": command_wall(passes), "unit": "s"},
        "peak_rss_mb": {"value": statistics.median(p["peak_rss_mb"]
                                                   for p in passes),
                        "unit": "MB"},
        "pass_rate": {"value": (attempted - failed) / attempted,
                      "unit": "ratio"},
    }


def per_layer(untraced: list[dict], traced: list[dict]) -> dict:
    def med(fn):
        return statistics.median(fn(p) for p in traced)

    def layer(p, name, key):
        return p["layers"].get(name, {}).get(key, 0)

    metrics = {}
    for name in SPANS:
        metrics[f"{name}.calls"] = (med(lambda p: layer(p, name, "calls")), "count")
        metrics[f"{name}.s"] = (med(lambda p: layer(p, name, "s")), "s")
        metrics[f"{name}.self_s"] = (med(lambda p: layer(p, name, "self_s")), "s")
    for name in ("spectral.inverse_transform", "spectral.forward_transform"):
        calls = metrics[f"{name}.calls"][0]
        us = 1e6 * metrics[f"{name}.s"][0] / calls if calls else 0.0
        metrics[f"{name}.us_per_call"] = (us, "us")
    metrics["numpy.fft.irfftn.floor_us"] = (
        med(lambda p: p.get("irfftn_floor_us", 0.0)), "us")
    ascents = metrics["constants.rayleigh_ascent.calls"][0]
    needed = med(lambda p: p["sigma_ascent_needed"])
    metrics["constants.sigma_cache_hit_ratio"] = (
        (needed - ascents) / needed if needed else 0.0, "ratio")
    for key in ("newton_steps", "iterations_ball", "iterations_path",
                "line_search_trials", "energy_evals"):
        metrics[f"solvers.{key}"] = (med(lambda p: p["counters"][key]), "count")
    iterations = (metrics["solvers.iterations_ball"][0]
                  + metrics["solvers.iterations_path"][0])
    metrics["solvers.trials_per_iteration"] = (
        metrics["solvers.line_search_trials"][0] / iterations
        if iterations else 0.0, "ratio")
    traced_wall, untraced_wall = command_wall(traced), command_wall(untraced)
    metrics["traced.wall_s"] = (traced_wall, "s")
    metrics["untraced.wall_s"] = (untraced_wall, "s")
    metrics["trace_overhead"] = (traced_wall / untraced_wall, "ratio")
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def run(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    if not (ROOT / "src" / "perifrac" / "cli.py").is_file():
        raise BenchError(f"no perifrac source tree under {ROOT / 'src'}")
    WORKDIR.mkdir(exist_ok=True)
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    passes: list[dict] = []
    while True:
        flags = ["--trace"] if trace and len(passes) % 2 == 1 else []
        passes.append(run_worker(workload, seed, len(passes), flags, deadline))
        elapsed = time.monotonic() - start
        per_pass = elapsed / len(passes)
        if len(passes) >= 2 and (elapsed >= seconds
                                 or elapsed + per_pass > RUN_LIMIT_S):
            break
    setups = [p["setup_s"] for p in passes]
    while (not trace and len(setups) < SETUP_SAMPLES
           and time.monotonic() + 5.0 < deadline):
        setups.append(run_worker(workload, seed, len(passes) + len(setups),
                                 ["--setup-only"], deadline)["setup_s"])
    attempted, failed, messages = count_failures(passes)
    untraced = [p for p in passes if not p["traced"]]
    traced_passes = [p for p in passes if p["traced"]]
    metrics = (per_layer(untraced, traced_passes) if trace
               else end_to_end(passes, setups, attempted, failed))
    info = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": trace, "blas_threads": BLAS_THREADS,
        "passes": len(passes), "traced_passes": len(traced_passes),
        "samples": {"setup_s": setups,
                    "wall_s": [p["wall_s"] for p in passes],
                    "peak_rss_mb": [p["peak_rss_mb"] for p in passes]},
        "command_wall_s": {runs[0]["name"]: [c["wall_s"] for c in runs]
                           for runs in zip(*(p["commands"] for p in passes))},
        "failures": messages,
    }
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    return info, result


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    try:
        info, result = run(args.workload, args.seed, args.seconds,
                           bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
