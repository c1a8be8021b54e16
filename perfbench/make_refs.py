#!/usr/bin/env python3
"""Regenerate the benchmark's reference data from the current source tree.

Writes two files next to this script:

- golden_sigmas.txt: the certify-3d golden value, from the 48-start
  ascent procedure of scripts/make_golden.py at seed 0;
- reference.json: for each solve workload, lambda_max_best and best_rho
  from the seed-0 certificate, and the two solution energies at each
  benchmarked lambda.

These files pin what the benchmark checks against, so they are recorded
once, at the commit that defines the benchmark, and not regenerated to
make a later change pass.  Run from the repository root with one BLAS
thread:

    OPENBLAS_NUM_THREADS=1 python3 perfbench/make_refs.py
"""

import json
import pathlib
import sys
import tempfile

import workloads as wl

sys.path.insert(0, str(wl.HERE.parent / "src"))

import numpy as np  # noqa: E402

from perifrac.cli import main  # noqa: E402
from perifrac.constants import golden_key, sigma_estimate  # noqa: E402
from perifrac.spectral import ProblemSpec, SpectrumParams  # noqa: E402

GOLDEN_STARTS = 48


def solve_report(config: dict, tmp: pathlib.Path) -> dict:
    path = tmp / "config.txt"
    path.write_text(wl.config_text(config))
    code, out = wl.run_cli(main, ["solve", "--config", str(path), "--seed", "0"])
    report = json.loads(out)
    if code != 0:
        raise SystemExit(f"solve failed with exit {code}: {report['status']}")
    return report


def write_golden() -> None:
    cfg = wl.PROBLEMS["certify-3d"]
    problem = ProblemSpec(s=cfg["problem.s"], m=1.0, gamma=0.5, lam=1.0,
                          T=2.0 * np.pi, N=cfg["problem.N"])
    modes = cfg["discretization.M"]
    est = sigma_estimate(4.0, problem, SpectrumParams(modes, 2 * modes + 2),
                         seed=0, starts=GOLDEN_STARTS)
    wl.GOLDEN.write_text(
        "# certify-3d golden value for the embedding constant sigma_4\n"
        f"# ascent procedure of scripts/make_golden.py, --starts "
        f"{GOLDEN_STARTS} --seed 0\n"
        f"{golden_key(4.0, problem, modes)} = {est.value!r}\n")
    print(f"{golden_key(4.0, problem, modes)} = {est.value!r}")


def main_refs() -> int:
    write_golden()
    reference = {}
    with tempfile.TemporaryDirectory(dir=wl.HERE.parent) as tmp:
        tmp = pathlib.Path(tmp)
        for workload, factors in wl.SOLVE_FACTORS.items():
            problem = wl.PROBLEMS[workload]
            auto = solve_report(problem, tmp)["constants"]
            lam_max, rho = auto["lambda_max_best"], auto["best_rho"]
            energies = {}
            for factor in factors:
                rep = solve_report(dict(problem, **{
                    "problem.lambda": factor * lam_max, "solver.rho": rho}), tmp)
                energies[wl.factor_key(factor)] = [s["energy"]
                                                   for s in rep["solutions"]]
            reference[workload] = {"lambda_max": lam_max, "rho": rho,
                                   "energies": energies}
            print(workload, lam_max, rho, energies)
    wl.REFERENCE.write_text(json.dumps(reference, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main_refs())
