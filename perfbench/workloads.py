"""Workload definitions and output checks for the perifrac benchmark.

A workload is a fixed list of CLI commands, each an argv for
``perifrac.cli.main`` plus the flat config it reads.  Solve workloads pass
literal ``problem.lambda`` and ``solver.rho`` values recorded once from the
seed-0 certificate in ``reference.json``, so the solver's work does not move
when a later change moves the certificate.  The workload seed reaches the
program only as ``--seed``.

This module imports nothing from perifrac, so a worker can time the import
of perifrac as part of set-up.
"""

from __future__ import annotations

import contextlib
import io
import json
import pathlib
from dataclasses import dataclass

HERE = pathlib.Path(__file__).resolve().parent
GOLDEN = HERE / "golden_sigmas.txt"
REFERENCE = HERE / "reference.json"

WORKLOADS = ("solve-3d", "sweep-2d", "certify-3d")

# Both solution energies must match the seed commit's values to this
# relative tolerance.  The energy is stationary at a critical point, so a
# solver change that still meets grad_tol moves it far less than this; a
# different critical point moves it by orders of magnitude more.
ENERGY_REL_TOL = 1e-6

# Problem blocks; keys absent here take the CLI defaults (the paper's
# example: N=2, s=3/4, m=1, gamma=1/2, T=2*pi, quartic forcing 1 + t^3).
PROBLEMS = {
    # dense Newton polish dominates: D = 11^3 sample unknowns
    "solve-3d": {"problem.N": 3, "problem.s": 0.9,
                 "discretization.M": 5, "discretization.grid_points": 11},
    # the paper's example problem at its default resolution
    "sweep-2d": {},
    # Rayleigh ascent on a 32^3 grid, no solver
    "certify-3d": {"problem.N": 3, "problem.s": 0.9,
                   "discretization.M": 6, "discretization.grid_points": 13},
}

# lambda as a share of the seed-0 lambda_max_best
SOLVE_FACTORS = {
    "solve-3d": (0.5,),
    "sweep-2d": (0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95),
}
REFUSED_FACTOR = 1.05          # sweep-2d's one inadmissible lambda
CERTIFY_SEEDS = 3              # certify-3d runs seeds seed .. seed+2


@dataclass(frozen=True)
class Command:
    name: str                  # unique within a workload; names the config file
    command: str               # CLI subcommand
    config: dict               # flat keys written to the config file
    seed: int
    status: str                # expected report status
    exit_code: int             # expected exit code
    factor: float | None = None    # lambda / lambda_max for solve commands

    def argv(self, config_path: str) -> list[str]:
        argv = [self.command, "--config", config_path, "--seed", str(self.seed)]
        if self.command == "constants":
            argv += ["--golden", str(GOLDEN)]
        return argv


def run_cli(main, argv: list[str]) -> tuple[int, str]:
    """Call the CLI entry point in-process; returns (exit code, stdout).
    The CLI's stderr line carries wall clock and is discarded."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue()


def config_text(config: dict) -> str:
    return "".join(f"{k} = {v!r}\n" for k, v in sorted(config.items()))


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())


def factor_key(factor: float) -> str:
    return repr(float(factor))


def commands(workload: str, seed: int, reference: dict) -> list[Command]:
    """The commands of one pass over `workload`, in order."""
    problem = PROBLEMS[workload]
    if workload == "certify-3d":
        return [Command(f"constants-{i}", "constants", dict(problem),
                        seed + i, "certified", 0)
                for i in range(CERTIFY_SEEDS)]
    ref = reference[workload]
    out = []
    for i, factor in enumerate(SOLVE_FACTORS[workload]):
        cfg = dict(problem, **{"problem.lambda": factor * ref["lambda_max"],
                               "solver.rho": ref["rho"]})
        out.append(Command(f"solve-{i}", "solve", cfg, seed,
                           "two-solutions", 0, factor))
    if workload == "sweep-2d":
        cfg = dict(problem, **{"problem.lambda": REFUSED_FACTOR * ref["lambda_max"],
                               "solver.rho": ref["rho"]})
        out.append(Command("refused", "solve", cfg, seed,
                           "refused-inadmissible-lambda", 2))
    return out


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


def check(workload: str, cmd: Command, code: int, report: dict,
          reference: dict) -> list[str]:
    """Problems with one command's result; an empty list means it passed."""
    problems = []
    if code != cmd.exit_code or report.get("status") != cmd.status:
        problems.append(f"exit {code} status {report.get('status')!r}, expected "
                        f"exit {cmd.exit_code} status {cmd.status!r}")
        return problems
    diag = report["diagnostics"]
    if cmd.status == "certified":
        gc = diag.get("golden_check")
        if gc is None or not gc["rel_gap"] <= gc["rel_tol"]:
            problems.append(f"golden check missing or failed: {gc!r}")
    elif cmd.status == "refused-inadmissible-lambda":
        cert = diag["certificate"]
        if not cert["lambda"] >= cert["lambda_max_at_rho"]:
            problems.append(f"refused an admissible lambda: {cert!r}")
    elif cmd.status == "two-solutions":
        cfg = report["config"]
        low, high = report["solutions"]
        for sol in (low, high):
            if not sol["residual_dual_norm"] <= cfg["solver.grad_tol"]:
                problems.append(f"{sol['method']} residual "
                                f"{sol['residual_dual_norm']:.3e} > grad_tol")
        if not low["in_ball"]:
            problems.append("low solution is not in the ball")
        if not diag["hs_distance"] > cfg["solver.distinct_tol"]:
            problems.append(f"solutions not distinct: {diag['hs_distance']!r}")
        if not (diag["energy_ordering_ok"] and low["energy"] < high["energy"]):
            problems.append("energy ordering violated")
        ref_low, ref_high = reference[workload]["energies"][factor_key(cmd.factor)]
        for sol, ref in ((low, ref_low), (high, ref_high)):
            if _rel(sol["energy"], ref) > ENERGY_REL_TOL:
                problems.append(f"{sol['method']} energy {sol['energy']!r} vs "
                                f"reference {ref!r}")
    return problems
