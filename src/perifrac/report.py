"""Run reports: one canonical JSON document per invocation.

Schema stability: every report carries the same top-level keys regardless
of command or outcome -- command, config, seed, status, constants,
solutions, verification, timings, diagnostics -- so downstream tooling
never branches on key presence.  Serialization is canonical (sorted keys,
two-space indent, no NaN/inf) and timings hold deterministic operation
counts, never wall-clock, so identical runs emit identical bytes.
"""

from __future__ import annotations

import csv
import json
import os

__all__ = [
    "EXIT_CODES",
    "exit_code_for",
    "empty_report",
    "solution_dict",
    "estimate_dict",
    "to_json",
    "dump_fields",
]

EXIT_CODES = {
    "certified": 0,
    "two-solutions": 0,
    "all-checks-pass": 0,
    "refused-inadmissible-lambda": 2,
    "non-convergence": 3,
    "one-solution-only": 3,
    "config-error": 4,
    "verification-failure": 5,
    "certification-failed": 5,
}


def exit_code_for(status: str) -> int:
    return EXIT_CODES[status]


def empty_report(command: str, config_mapping: dict, seed: int) -> dict:
    return {
        "command": command,
        "config": dict(config_mapping),
        "seed": int(seed),
        "status": "",
        "constants": {
            "kappa": None,
            "sigmas": [],
            "lambda_table": [],
            "best_rho": None,
            "lambda_max_best": None,
            "ball_radius_best": None,
            "resolved_lambda": None,
            "resolved_rho": None,
            "example_interval": None,
        },
        "solutions": [],
        "verification": {"checks": [], "all_passed": None},
        "timings": {},
        "diagnostics": {},
    }


def solution_dict(sol) -> dict:
    return {
        "method": sol.method,
        "energy": float(sol.energy),
        "residual_dual_norm": float(sol.residual_dual_norm),
        "hs_norm": float(sol.hs_norm),
        "e_norm": float(sol.e_norm),
        "in_ball": bool(sol.in_ball),
        "mean_value": float(sol.mean_value),
        "iterations": int(sol.iterations),
    }


def estimate_dict(est) -> dict:
    return {
        "r": float(est.r),
        "value": float(est.value),
        "status": est.status,
        "modes": int(est.modes),
        "starts": int(est.starts),
        "iterations": int(est.iterations),
    }


def to_json(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2, allow_nan=False) + "\n"


def dump_fields(directory: str, solutions) -> list:
    """Write one CSV per solution: columns are the x coordinates then the
    sampled value of u at that grid point.  Returns the paths written."""
    from . import spectral as sp

    os.makedirs(directory, exist_ok=True)
    paths = []
    for i, sol in enumerate(solutions):
        field = sol.field
        problem = field.problem
        n = field.params.grid_points
        values = sp.inverse_transform(field, grid_points=n)
        coords = sp.grid_coordinates(problem, n)
        path = os.path.join(directory, f"solution_{i:02d}_{sol.method}.csv")
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow([f"x{d}" for d in range(problem.N)] + ["u"])
            flat_coords = [c.reshape(-1) for c in coords]
            flat_values = values.reshape(-1)
            for j in range(flat_values.size):
                writer.writerow([repr(float(c[j])) for c in flat_coords]
                                + [repr(float(flat_values[j]))])
        paths.append(path)
    return paths
