#!/usr/bin/env python3
"""Certified-lambda robustness sweep on manufactured forcings.

Each configuration takes the forcing of tests/manufactured.py whose exact
solution is u* = eps (0.4 + 0.3 cos(omega x_0) + 0.2 sin(omega x_{N-1})),
with m = 1 and gamma = 0.5, at N = 1, 2, 3 (s = 0.4, 0.75, 0.9), M = 1, 2,
4 and every (eps, lambda) of the grid below.  It certifies lambda at
best_lambda's rho* from the M-level sigmas and runs solve_multiplicity
there.  lambda enters the forcing's a1, so the sweep takes literal lambdas
and reports the certified factor lambda / lambda_max(rho*) of each.

Prints a Markdown table of every certified configuration whose status is
not two-solutions (a solver error of the ball stage included), then one
line counting the configurations run, certified and failed.  numpy only.
Run from the repository root:

    python scripts/manufactured_sweep.py
"""

import math
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from manufactured import manufactured_problem  # noqa: E402
from perifrac.constants import (InadmissibleLambdaError, best_lambda,  # noqa: E402
                                certify, sigma_estimate)
from perifrac.solvers import SolverConfig, SolverError, solve_multiplicity  # noqa: E402
from perifrac.spectral import ProblemSpec, SpectrumParams, e_norm  # noqa: E402

DIMENSIONS = ((1, 0.4), (2, 0.75), (3, 0.9))   # (N, s)
MODES = (1, 2, 4)
EPS = (0.02, 0.05, 0.1, 0.2)
LAMBDAS = (0.02, 0.05, 0.1, 0.2)


def run(N, s, M, eps, lam):
    """(certified factor, status, detail); factor None when certify
    refuses lambda or u* lies outside the ball."""
    problem = ProblemSpec(s=s, m=1.0, gamma=0.5, lam=lam, T=2.0 * math.pi, N=N)
    params = SpectrumParams(M, 4 * M + 2)
    nl, ustar = manufactured_problem(problem, params, eps)
    sigmas = tuple(sigma_estimate(r, problem, params).value for r in (1.0, nl.q))
    rho, lam_max = best_lambda(problem, nl, sigmas)
    try:
        certify(rho, problem, nl, sigmas)
    except InadmissibleLambdaError:
        return None, "refused", ""
    if not e_norm(ustar) ** 2 < rho:
        return None, "u* outside the ball", ""
    try:
        rep = solve_multiplicity(SolverConfig(rho=rho), nl, problem, params)
    except SolverError as exc:
        return lam / lam_max, "ball stage failed", f"{type(exc).__name__}: {exc}"
    return lam / lam_max, rep.status, rep.detail


def main():
    print("| N | s | M | eps | lambda | factor | status | detail |")
    print("|---|---|---|-----|--------|--------|--------|--------|")
    total = certified = failed = 0
    for N, s in DIMENSIONS:
        for M in MODES:
            for eps in EPS:
                for lam in LAMBDAS:
                    total += 1
                    factor, status, detail = run(N, s, M, eps, lam)
                    if factor is None:
                        continue
                    certified += 1
                    if status != "two-solutions":
                        failed += 1
                        print(f"| {N} | {s} | {M} | {eps} | {lam} | "
                              f"{factor:.3f} | {status} | {detail} |")
    print(f"\n{total} configurations, {certified} certified, {failed} of "
          f"them not two-solutions")


if __name__ == "__main__":
    main()
