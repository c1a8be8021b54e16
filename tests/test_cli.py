"""End-to-end command-line contract: one canonical JSON report on stdout,
exit codes 0/2/3/4/5, deterministic bytes for fixed seeds."""

import json
import math
import os
import pathlib
import subprocess
import sys
import warnings

import pytest

import perifrac
from perifrac import cli, constants, solvers
from perifrac.cli import main
from perifrac.config import default_example_text, parse_config
from perifrac.constants import certify, golden_key
from perifrac.solvers import BoundaryActiveError
from perifrac.spectral import ProblemSpec


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    return code, report, captured


def newton_root(a, c):
    for _ in range(80):
        c -= (c ** 3 - a * c + 1.0) / (3.0 * c * c - a)
    return c


# -- constants -------------------------------------------------------------------


def test_constants_certifies_default_config(capsys):
    code, rep, cap = run_cli(capsys, "constants")
    assert code == 0
    assert rep["status"] == "certified"
    assert rep["command"] == "constants"
    consts = rep["constants"]
    assert abs(consts["kappa"] - 2.0920992401062033) < 1e-12
    rs = {e["r"]: e for e in consts["sigmas"]}
    assert rs[1.0]["status"] == "exact-closed-form"
    assert rs[2.0]["status"] == "exact-closed-form"
    assert rs[4.0]["status"] == "truncated-lower-bound"
    assert len(consts["lambda_table"]) == 16
    assert consts["lambda_max_best"] > 0.14
    # the quartic's certified interval is read off the best-rho maximization
    assert consts["example_interval"] == {
        "lower": 0.0, "upper": consts["lambda_max_best"],
        "best_rho": consts["best_rho"]}
    assert rep["diagnostics"]["golden_check"]["rel_gap"] < 5e-4
    assert "sigma_ascent_iterations" in rep["timings"]
    assert "wall" in cap.err


def test_ascent_work_is_reported_per_level(capsys, tmp_path):
    # the default M = 8 climbs its starts at M = 4 and finishes at 8; at
    # M = 3, below the nesting threshold, every iteration is at M itself
    for modes, coarse in ((8, 4), (3, 3)):
        cfg = tmp_path / "m.cfg"
        cfg.write_text(f"discretization.M = {modes}\n")
        _, rep, _ = run_cli(capsys, "constants", "--config", str(cfg))
        t = rep["timings"]
        assert t["sigma_ascent_coarse_modes"] == coarse
        assert (t["sigma_ascent_coarse_iterations"]
                + t["sigma_ascent_fine_iterations"]
                == t["sigma_ascent_iterations"])
        assert (t["sigma_ascent_fine_iterations"] > 0) == (coarse < modes)


def test_constants_fails_certification_on_wrong_golden(capsys, tmp_path):
    problem = ProblemSpec(s=0.75, m=1.0, gamma=0.5, lam=0.1,
                          T=2.0 * math.pi, N=2)
    bad = tmp_path / "golden.txt"
    bad.write_text(f"{golden_key(4.0, problem, 8)} = 0.9\n")
    code, rep, _ = run_cli(capsys, "constants", "--golden", str(bad))
    assert code == 5
    assert rep["status"] == "certification-failed"
    assert rep["diagnostics"]["golden_check"]["rel_gap"] > 0.5


def test_constants_certifies_where_a_coarse_line_search_failed(capsys, tmp_path):
    # at seed 29 the best coarse start ends on a failed line search; its
    # collapsed step once stalled the finish 3.8% below the golden value
    cfg = tmp_path / "run.cfg"
    cfg.write_text("problem.s = 0.6\n")
    code, rep, _ = run_cli(capsys, "constants", "--config", str(cfg),
                           "--seed", "29")
    assert code == 0
    assert rep["status"] == "certified"
    assert rep["diagnostics"]["golden_check"]["rel_gap"] < 1e-10


def test_constants_requires_golden_entry_for_new_regime(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("problem.s = 0.65\n")
    code, rep, _ = run_cli(capsys, "constants", "--config", str(cfg))
    assert code == 5
    assert rep["status"] == "certification-failed"
    assert "make_golden" in json.dumps(rep["diagnostics"])


def test_constants_fails_certification_on_unreadable_golden(capsys, tmp_path):
    code, rep, _ = run_cli(capsys, "constants", "--golden",
                           str(tmp_path / "missing.txt"))
    assert code == 5
    assert rep["status"] == "certification-failed"
    assert "golden-value file unreadable" in rep["diagnostics"]["error"]


# -- verify ----------------------------------------------------------------------


def test_verify_battery_passes(capsys):
    code, rep, _ = run_cli(capsys, "verify")
    assert code == 0
    assert rep["status"] == "all-checks-pass"
    checks = rep["verification"]["checks"]
    assert rep["verification"]["all_passed"] is True
    names = {c["name"] for c in checks}
    for needle in ("quadrature_gamma_moment", "ode_residual",
                   "profile_energy_vs_kappa", "conormal_limit",
                   "trace_identity", "gradient_vs_finite_difference",
                   "nonlinearity_growth_bound", "nonlinearity_superlinearity",
                   "nonlinearity_superhomogeneity", "norm_sandwich",
                   "duality_pairing_bound"):
        assert any(needle in n for n in names), needle
    assert all(c["passed"] for c in checks)
    assert all(c["gap"] <= c["tolerance"] for c in checks if c["tolerance"] > 0)


def test_verify_detects_injected_fault(capsys, tmp_path):
    cfg = tmp_path / "fault.cfg"
    cfg.write_text("verify.inject_theta_fault = 0.001\n")
    code, rep, _ = run_cli(capsys, "verify", "--config", str(cfg))
    assert code == 5
    assert rep["status"] == "verification-failure"
    failed = [c["name"] for c in rep["verification"]["checks"]
              if not c["passed"]]
    assert failed
    # the fault perturbs the decay profile, so profile-derived checks trip
    assert any("ode_residual" in n for n in failed)
    assert any("trace_identity" in n for n in failed)
    # but pure nonlinearity checks are untouched by it
    assert not any("nonlinearity" in n for n in failed)


def test_verify_is_fault_free_after_failed_run(capsys, tmp_path):
    # the injected fault must not leak into later runs in the same process
    cfg = tmp_path / "fault.cfg"
    cfg.write_text("verify.inject_theta_fault = 0.001\n")
    run_cli(capsys, "verify", "--config", str(cfg))
    code, rep, _ = run_cli(capsys, "verify")
    assert code == 0 and rep["status"] == "all-checks-pass"


def test_failed_quadrature_fails_its_check(capsys, tmp_path):
    # mu_k = m^2 = 1e300 defeats the trace identity's mode quadrature; the
    # QuadratureError once ended verify with a traceback and exit 1
    cfg = tmp_path / "m.cfg"
    cfg.write_text("problem.m = 1e150\n")
    code, rep, _ = run_cli(capsys, "verify", "--config", str(cfg))
    assert code == 5 and rep["status"] == "verification-failure"
    failed = [c for c in rep["verification"]["checks"] if not c["passed"]]
    assert [c["name"] for c in failed] == ["trace_identity"]
    assert failed[0]["gap"] is None
    assert failed[0]["error"].startswith("QuadratureError: ")
    assert rep["timings"]["checks_run"] == len(rep["verification"]["checks"])


@pytest.mark.parametrize("fault", ["1e154", "1e160", "1e308"])
def test_huge_injected_fault_fails_its_checks(capsys, tmp_path, fault):
    # a profile energy of inf went into its check's entry (1e154), theta(y)^2
    # overflowed a Python float inside the profile quadratures (1e160), and
    # the ODE residual's differences overflowed to inf - inf (1e308): verify
    # once ended with a traceback and exit 1
    cfg = tmp_path / "fault.cfg"
    cfg.write_text(f"verify.inject_theta_fault = {fault}\n")
    code, rep, _ = run_cli(capsys, "verify", "--config", str(cfg))
    assert code == 5 and rep["status"] == "verification-failure"
    failed = {c["name"]: c for c in rep["verification"]["checks"]
              if not c["passed"]}
    assert "trace_identity" in failed
    assert all(f"ode_residual[s={s:g}]" in failed for s in (0.3, 0.5, 0.7, 0.9))
    for check in failed.values():
        assert check["gap"] is None or math.isfinite(check["gap"])
        assert (check["gap"] is None) == ("error" in check)
        assert check["gap"] is not None or "value" not in check
    assert failed["trace_identity"]["gap"] is None
    assert not any("nonlinearity" in name for name in failed)


# nonlinearity constants whose checks meet non-finite samples: t_max^q
# overflowed (exit 1), t^alpha = inf made the gap inf, which JSON cannot
# hold (exit 1), and the NaN margins inf - inf at t = 4, v = +-2 r0 were
# skipped (all-checks-pass)
NON_FINITE_CHECKS = {
    "nonlinearity.r0 = 1e77": ["superlinearity", "superhomogeneity"],
    "nonlinearity.alpha = 1e300": ["superlinearity", "superhomogeneity"],
    "nonlinearity.r0 = 3e76": ["superhomogeneity"],
}


@pytest.mark.parametrize("line", sorted(NON_FINITE_CHECKS))
def test_non_finite_nonlinearity_samples_fail_verify(capsys, tmp_path, line):
    cfg = tmp_path / "nl.cfg"
    cfg.write_text(line + "\n")
    code, rep, _ = run_cli(capsys, "verify", "--config", str(cfg))
    assert code == 5 and rep["status"] == "verification-failure"
    failed = [c for c in rep["verification"]["checks"] if not c["passed"]]
    assert [c["name"] for c in failed] == [
        f"nonlinearity_{name}" for name in NON_FINITE_CHECKS[line]]
    assert all(math.isfinite(c["gap"]) for c in failed)


# -- solve -----------------------------------------------------------------------


SOLVE_CFG = ("discretization.M = 4\n"
             "discretization.grid_points = 18\n")


def test_solve_auto_lambda_two_solutions(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(SOLVE_CFG)
    code, rep, _ = run_cli(capsys, "solve", "--config", str(cfg))
    assert code == 0
    assert rep["status"] == "two-solutions"
    assert len(rep["solutions"]) == 2
    lo, hi = rep["solutions"]
    assert lo["method"] == "ball_min" and hi["method"] == "mountain_pass"
    assert lo["energy"] < hi["energy"]
    assert lo["in_ball"] is True
    assert max(lo["residual_dual_norm"], hi["residual_dual_norm"]) <= 1e-8
    assert rep["diagnostics"]["hs_distance"] > 1e-3
    consts = rep["constants"]
    assert consts["resolved_lambda"] == 0.5 * consts["lambda_max_best"]
    assert consts["resolved_rho"] == consts["best_rho"]
    # the auto lambda sits in the certified interval and below the gate
    cert = rep["diagnostics"]["certificate"]
    assert cert["lambda"] < cert["lambda_max_at_rho"]
    assert cert["chi_upper"] < cert["inv_two_lambda"]


def test_solve_reports_krylov_iterations(capsys):
    code, rep, _ = run_cli(capsys, "solve")
    assert code == 0
    timings = rep["timings"]
    assert timings["newton_steps"] > 0
    assert timings["krylov_iterations"] > 0
    # Newton first: on the default problem the first attempt of each stage
    # lands, so neither stage takes a descent step
    assert timings["iterations_ball"] == timings["iterations_path"] == 1
    assert timings["polish_attempts"] == 2
    assert "line_search_trials" not in timings


def test_solve_refuses_inadmissible_lambda(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(SOLVE_CFG + "problem.lambda = 0.5\n")
    code, rep, _ = run_cli(capsys, "solve", "--config", str(cfg))
    assert code == 2
    assert rep["status"] == "refused-inadmissible-lambda"
    assert rep["solutions"] == []
    cert = rep["diagnostics"]["certificate"]
    assert cert["lambda"] == 0.5
    assert cert["lambda_max_at_rho"] < 0.5


def test_solve_reports_the_certificate_of_certify(capsys):
    code, rep, _ = run_cli(capsys, "solve")
    assert code == 0
    consts = rep["constants"]
    sigma = {e["r"]: e["value"] for e in consts["sigmas"]}
    cfg = parse_config(default_example_text())
    nl = cfg.nonlinearity()
    cert = certify(consts["resolved_rho"],
                   cfg.problem(lam=consts["resolved_lambda"]), nl,
                   (sigma[1.0], sigma[nl.q]))
    assert cert == rep["diagnostics"]["certificate"]


# the smallest grid at M = 2: each solve below takes milliseconds
SMALL_CFG = ("discretization.M = 2\n"
             "discretization.grid_points = 5\n")


def test_solve_reports_a_stalled_ball_descent(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(SMALL_CFG + "solver.grad_tol = 1e-300\n")
    code, rep, _ = run_cli(capsys, "solve", "--config", str(cfg))
    assert code == 3 and rep["status"] == "non-convergence"
    diag = rep["diagnostics"]
    assert diag["error"] == ("ball descent stalled at residual 1.373e-09 "
                             "after 41 iterations")
    assert len(diag["residual_history_tail"]) == 12
    assert rep["solutions"] == []


def test_solve_reports_a_failed_ball_stage(capsys, tmp_path, monkeypatch):
    def on_the_boundary(*args, **kwargs):
        raise BoundaryActiveError("minimizer on the ball boundary")

    monkeypatch.setattr(solvers, "ball_minimize", on_the_boundary)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(SMALL_CFG)
    code, rep, _ = run_cli(capsys, "solve", "--config", str(cfg))
    assert code == 3 and rep["status"] == "non-convergence"
    assert rep["diagnostics"]["error"].startswith("BoundaryActiveError: ")
    assert rep["solutions"] == []


def test_solve_reports_one_solution_with_its_certificate(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(SMALL_CFG + "solver.max_doublings = 0\n")
    code, rep, _ = run_cli(capsys, "solve", "--config", str(cfg))
    assert code == 3 and rep["status"] == "one-solution-only"
    assert len(rep["solutions"]) == 1
    diag = rep["diagnostics"]
    assert diag["detail"].startswith("EndpointSearchError: ")
    assert set(diag["certificate"]) == {
        "rho", "lambda", "lambda_max_at_rho", "chi_upper", "inv_two_lambda",
        "sigma1", "sigmaq", "ball_radius_hs"}


def test_solve_accepts_the_first_saddle_landing_beyond_distinct_tol(
        capsys, tmp_path):
    # the saddle lies 14.39 from the ball minimizer in Hs, beyond
    # distinct_tol = 10, but within 10 of the endpoint, which only anchors
    # the path: the saddle stage's first polish lands, as the ball's did
    cfg = tmp_path / "run.cfg"
    cfg.write_text(SMALL_CFG + "solver.distinct_tol = 10\n")
    code, rep, _ = run_cli(capsys, "solve", "--config", str(cfg))
    assert code == 0 and rep["status"] == "two-solutions"
    assert rep["timings"]["iterations_path"] == 1
    assert rep["timings"]["polish_attempts"] == 2


def test_solve_lists_one_solution_when_the_saddle_is_not_distinct(
        capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(SMALL_CFG + "solver.distinct_tol = 20\n")
    code, rep, _ = run_cli(capsys, "solve", "--config", str(cfg))
    assert code == 3 and rep["status"] == "one-solution-only"
    assert len(rep["solutions"]) == 1
    diag = rep["diagnostics"]
    assert diag["distinct"] is False and diag["hs_distance"] == 0.0
    assert diag["detail"].startswith("DegeneratePathError: ")


def test_solve_counts_every_path_node_as_an_energy_evaluation(capsys):
    # the straight path's 17 node energies come from two transforms, yet
    # each counts: 1 for the ball's start, 2 endpoint probes and 17 nodes;
    # and one gradient per stage, at its start
    code, rep, _ = run_cli(capsys, "solve")
    assert code == 0
    timings = rep["timings"]
    assert (timings["energy_evals"], timings["gradient_evals"]) == (20, 2)
    assert timings["endpoint_probes"] == 2


# nonlinearity.r0 far past the ridge root (near 2.45 at M = 2), and the
# number of times the saddle stage samples its start path there
R0_PAST_THE_RIDGE = {"100": 2, "1e4": 3, "1e6": 5, "1e50": 42}


@pytest.mark.parametrize("r0", sorted(R0_PAST_THE_RIDGE))
def test_solve_refines_the_start_path_when_r0_lies_past_the_ridge(
        capsys, tmp_path, r0):
    # the first probe u = r0 is the endpoint, so the ridge lies inside the
    # path's first segment and node 0 is its highest node; each refinement
    # samples that segment again until the ridge is interior, and the
    # saddle is the one that the default r0 = 2 finds
    cfg = tmp_path / "run.cfg"
    cfg.write_text(SMALL_CFG)
    _, ref, _ = run_cli(capsys, "solve", "--config", str(cfg))
    cfg.write_text(SMALL_CFG + f"nonlinearity.r0 = {r0}\n")
    code, rep, _ = run_cli(capsys, "solve", "--config", str(cfg))
    assert code == 0 and rep["status"] == "two-solutions"
    want, got = (r["solutions"][1]["energy"] for r in (ref, rep))
    assert abs(got - want) <= 1e-14 * want
    assert rep["solutions"][1]["residual_dual_norm"] <= 1e-8
    timings = rep["timings"]
    assert timings["endpoint_probes"] == 1
    assert timings["energy_evals"] == 2 + 17 * R0_PAST_THE_RIDGE[r0]


def test_saddle_polish_trust_radius_follows_the_refined_path(
        capsys, tmp_path, monkeypatch):
    # at r0 = 1e50 the path is refined 42 times toward u_a; the climber's
    # node spacing, and with it the polish's trust radius (twice the
    # spacing), comes from the refined path, not from the far endpoint
    # u = r0, which made it about 7.9e49
    moves = []
    real = solvers._newton_polish

    def spy(*args, **kwargs):
        moves.append(kwargs["max_move"])
        return real(*args, **kwargs)

    monkeypatch.setattr(solvers, "_newton_polish", spy)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(SMALL_CFG + "nonlinearity.r0 = 1e50\n")
    code, rep, _ = run_cli(capsys, "solve", "--config", str(cfg))
    assert code == 0 and rep["status"] == "two-solutions"
    assert len(moves) == 2   # the ball stage's polish, then the saddle's
    assert 0.0 < moves[1] < 4.0


def test_overflowing_energy_sum_leaves_one_solution(capsys, tmp_path):
    # at r0 = 1e77 F is finite on each sample of the first endpoint probe,
    # but their sum overflows: the probe raises OverflowError instead of
    # passing with energy -inf, and the ball solution stands alone
    cfg = tmp_path / "run.cfg"
    cfg.write_text(SMALL_CFG + "nonlinearity.r0 = 1e77\n")
    code, rep, _ = run_cli(capsys, "solve", "--config", str(cfg))
    assert code == 3 and rep["status"] == "one-solution-only"
    assert [s["method"] for s in rep["solutions"]] == ["ball_min"]
    assert rep["diagnostics"]["detail"].startswith(
        "OverflowError: rectangle-rule sum of F[cubic_plus_one] overflowed")


def test_solve_dump_fields(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(SOLVE_CFG)
    out = tmp_path / "fields"
    code, rep, _ = run_cli(capsys, "solve", "--config", str(cfg),
                           "--dump-fields", str(out))
    assert code == 0
    files = sorted(os.listdir(out))
    assert files == ["solution_00_ball_min.csv", "solution_01_mountain_pass.csv"]
    header = (out / files[0]).read_text().splitlines()[0]
    assert header == "x0,x1,u"
    assert rep["diagnostics"]["field_dumps"] == [
        str(out / f) for f in files]


def test_solve_samples_fields_on_a_grid_below_2m_plus_1(capsys, tmp_path):
    # the default grid_points = 32 only sets the CSV grid, and sampling a
    # degree-16 field on 32 points per axis is exact evaluation
    cfg = tmp_path / "run.cfg"
    cfg.write_text("discretization.M = 16\n")
    out = tmp_path / "fields"
    code, rep, _ = run_cli(capsys, "solve", "--config", str(cfg),
                           "--dump-fields", str(out))
    assert code == 0 and rep["status"] == "two-solutions"
    energies = [s["energy"] for s in rep["solutions"]]
    assert energies == pytest.approx([-2.8909056, 359.83609], rel=1e-7)
    assert all(s["residual_dual_norm"] < 1e-12 for s in rep["solutions"])
    for path in rep["diagnostics"]["field_dumps"]:
        assert len(pathlib.Path(path).read_text().splitlines()) == 1 + 32 * 32


# each output flag only on the subcommands that read it, and a dump path that
# cannot be a directory refused before any work (FILE is a regular file)
FLAG_MISUSE = [
    "verify --dump-fields DIR", "constants --dump-fields DIR",
    "solve --golden FILE", "verify --golden FILE",
    "reproduce-example --golden FILE",
    "solve --dump-fields FILE/sub",
    "reproduce-example --smoke --dump-fields FILE/sub",
]


@pytest.mark.parametrize("argv", FLAG_MISUSE)
def test_misused_output_flag_is_a_config_error(capsys, tmp_path, argv):
    plain = tmp_path / "plain.txt"
    plain.write_text("")
    out = tmp_path / "out"
    argv = [word.replace("FILE", str(plain)).replace("DIR", str(out))
            for word in argv.split()]
    code, rep, _ = run_cli(capsys, *argv)
    assert code == 4 and rep["status"] == "config-error"
    assert rep["constants"]["kappa"] is None and rep["solutions"] == []
    assert not out.exists()


# -- reproduce-example -----------------------------------------------------------


def test_reproduce_example_smoke_hits_scalar_roots(capsys):
    code, rep, _ = run_cli(capsys, "reproduce-example", "--smoke")
    assert code == 0
    assert rep["status"] == "two-solutions"
    assert rep["diagnostics"]["smoke"] is True
    assert rep["diagnostics"]["f_at_zero"] == 1.0
    assert rep["diagnostics"]["f_at_zero_nonzero"] is True
    assert rep["diagnostics"]["nontrivial"] == [True, True]
    lo, hi = rep["solutions"]
    a = 0.5 / 0.01  # (m^{2s} - gamma) / lambda in the smoke configuration
    assert abs(lo["mean_value"] - newton_root(a, 1.0 / a)) < 1e-8
    assert abs(hi["mean_value"] - newton_root(a, math.sqrt(a))) < 1e-8
    assert rep["config"]["discretization.M"] == 0


def test_reproduce_example_notes_ignored_config(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("problem.s = 0.3\n")
    code, rep, _ = run_cli(capsys, "reproduce-example", "--smoke",
                           "--config", str(cfg))
    assert code == 0
    assert "config-free" in rep["diagnostics"]["note"]
    assert rep["config"]["problem.s"] == 0.75  # benchmark unaffected


def test_reproduce_example_full_runs_certified_midpoint(capsys):
    code, rep, _ = run_cli(capsys, "reproduce-example", "--modes", "4",
                           "--grid", "18")
    assert code == 0
    assert rep["status"] == "two-solutions"
    interval = rep["constants"]["example_interval"]
    assert rep["constants"]["resolved_lambda"] == pytest.approx(
        0.5 * interval["upper"], rel=1e-12)
    assert rep["constants"]["resolved_rho"] == interval["best_rho"]
    assert rep["diagnostics"]["hs_distance"] > 1e-3


def test_reproduce_example_downgrades_a_numerically_trivial_solution(
        capsys, monkeypatch):
    # a two-solution solve with one solution below distinct_tol in H^s
    # norm is not the benchmark's pair of non-trivial solutions
    def solve(cfg, dump_dir=None):
        rep = perifrac.report.empty_report("solve", cfg.values,
                                           cfg.values["solver.seed"])
        rep["status"] = "two-solutions"
        rep["constants"]["resolved_rho"] = 1.0
        rep["solutions"] = [{"hs_norm": 0.5}, {"hs_norm": 1e-6}]
        return rep

    monkeypatch.setattr(cli, "cmd_solve", solve)
    code, rep, _ = run_cli(capsys, "reproduce-example", "--smoke")
    assert code == 3 and rep["status"] == "one-solution-only"
    assert rep["diagnostics"]["nontrivial"] == [True, False]
    assert "numerically trivial" in rep["diagnostics"]["detail"]


# diagnostics only reproduce-example adds to the solve report
REPRODUCE_ONLY = {"smoke", "f_at_zero", "f_at_zero_nonzero", "nontrivial"}


def test_reproduce_example_is_solve_on_the_example_config(capsys, tmp_path):
    cfg = tmp_path / "example.cfg"
    cfg.write_text("discretization.M = 4\ndiscretization.grid_points = 18\n")
    code, solve, _ = run_cli(capsys, "solve", "--config", str(cfg))
    code_r, rep, _ = run_cli(capsys, "reproduce-example", "--modes", "4",
                             "--grid", "18")
    assert code == code_r == 0
    assert rep.pop("command") == "reproduce-example"
    assert solve.pop("command") == "solve"
    assert set(rep["diagnostics"]) - set(solve["diagnostics"]) == REPRODUCE_ONLY
    for key in REPRODUCE_ONLY:
        del rep["diagnostics"][key]
    assert rep == solve


# -- error handling and determinism ------------------------------------------------


def test_config_error_paths(capsys, tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("problem.s = 1.5\n")
    code, rep, _ = run_cli(capsys, "verify", "--config", str(bad))
    assert code == 4 and rep["status"] == "config-error"
    assert "0 < s < 1" in rep["diagnostics"]["error"]

    code, rep, _ = run_cli(capsys, "solve", "--config",
                           str(tmp_path / "missing.cfg"))
    assert code == 4 and "cannot read" in rep["diagnostics"]["error"]

    code, rep, _ = run_cli(capsys, "solve", "--frobnicate")
    assert code == 4 and rep["status"] == "config-error"


@pytest.mark.parametrize("command", ["constants", "solve"])
def test_running_out_of_memory_is_a_config_error(capsys, monkeypatch,
                                                 command):
    # a discretization too big for memory first fails where the sigma
    # ascent allocates its starts, with numpy's MemoryError
    text = "Unable to allocate 37.3 GiB for an array with shape (16, 6001)"

    def allocate(*args):
        raise MemoryError(text)

    monkeypatch.setattr(constants, "_SIGMA_CACHE", {})
    monkeypatch.setattr(constants, "_gaussian_starts", allocate)
    code, rep, captured = run_cli(capsys, command)
    assert code == 4 and rep["status"] == "config-error"
    assert rep["diagnostics"]["error"] == f"out of memory: {text}"
    assert "status=config-error" in captured.err


@pytest.mark.parametrize("line, message", [
    ("nonlinearity.key = 3", "must be a registry name"),
    ("nonlinearity.beta = 1", "unknown configuration key"),
])
def test_bad_nonlinearity_entry_is_a_config_error(capsys, tmp_path, line,
                                                  message):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(line + "\n")
    code, rep, _ = run_cli(capsys, "solve", "--config", str(cfg))
    assert code == 4 and rep["status"] == "config-error"
    assert message in rep["diagnostics"]["error"]


def test_reused_parser_prints_what_a_fresh_one_prints(capsys, tmp_path,
                                                      monkeypatch):
    # main builds its parser once per process; a run of commands, usage
    # errors among them, must print the same bytes and exit with the same
    # codes as with a parser built anew for every call
    cfg = tmp_path / "run.cfg"
    cfg.write_text(SOLVE_CFG)
    calls = [["solve", "--frobnicate"], ["constants"],
             ["constants", "--config", str(cfg)], [],
             ["solve", "--config", str(cfg)], ["constants", "--seed", "x"],
             ["frobnicate"], ["solve", "--config", str(cfg), "--seed", "3"]]

    def run(fresh):
        monkeypatch.setattr(constants, "_SIGMA_CACHE", {})
        cli._build_parser.cache_clear()
        out = []
        for argv in calls:
            if fresh:
                cli._build_parser.cache_clear()
            code = main(argv)
            out.append((code, capsys.readouterr().out))
        return out

    reused = run(fresh=False)
    assert cli._build_parser() is cli._build_parser()
    assert run(fresh=True) == reused
    assert [code for code, _ in reused] == [4, 0, 5, 4, 0, 4, 4, 0]


# non-finite numbers (nan, inf, integers beyond the float range) and
# negative seeds, each once a traceback with exit 1; zero growth constants,
# which once ran at a bracket limit of the rho search
HUGE = "1" + "0" * 400
BAD_NUMBERS = [
    ("solve", "problem.lambda = nan"), ("solve", "problem.lambda = inf"),
    ("solve", "solver.rho = nan"), ("solve", "solver.grad_tol = nan"),
    ("verify", "verify.inject_theta_fault = nan"),
    ("constants", "problem.T = nan"), ("constants", "problem.T = inf"),
    ("constants", "problem.m = inf"), ("solve", "nonlinearity.q = nan"),
    ("solve", "solver.seed = -2"),
    ("constants", f"problem.m = {HUGE}"), ("solve", f"problem.lambda = {HUGE}"),
    ("solve", f"solver.rho = {HUGE}"),
    ("constants", f"nonlinearity.a1 = {HUGE}"),
] + [(command, "--seed -1") for command in
     ("constants", "solve", "verify", "reproduce-example")] + [
    (command, f"nonlinearity.{key} = 0") for command in ("constants", "solve")
    for key in ("a1", "a2")] + [
    # a2 sigma_4^4 underflows to 0, so the best rho is not a double
    (command, "nonlinearity.a2 = 5e-324") for command in ("constants", "solve")]


@pytest.mark.parametrize("command, bad", BAD_NUMBERS,
                         ids=[f"{c}:{b.replace(HUGE, '10**400')}"
                              for c, b in BAD_NUMBERS])
def test_bad_number_is_a_config_error(capsys, tmp_path, command, bad):
    if bad.startswith("--"):
        argv = [command, *bad.split()]
    else:
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(bad + "\n")
        argv = [command, "--config", str(cfg)]
    code, rep, _ = run_cli(capsys, *argv)
    assert code == 4 and rep["status"] == "config-error"


def test_forcing_beyond_float_range_on_the_ball_edge_is_a_config_error(
        capsys, tmp_path):
    # a tiny a2 puts the best rho at 3.2e201; F overflows on the constant
    # field at the edge of that ball, so solve refuses before the ball stage
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text("nonlinearity.a2 = 1e-300\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, rep, _ = run_cli(capsys, "solve", "--config", str(cfg))
    assert code == 4 and rep["status"] == "config-error"
    error = rep["diagnostics"]["error"]
    assert "rho = 3.18249e+201" in error and "u = +-8.77865e+99" in error
    # the default config is far inside the float range
    cfg.write_text("discretization.M = 2\n")
    code, rep, _ = run_cli(capsys, "solve", "--config", str(cfg))
    assert code == 0 and rep["status"] == "two-solutions"


@pytest.mark.parametrize("r0", ["1e100", "1e300"])
def test_endpoint_probe_beyond_float_range_is_a_config_error(
        capsys, tmp_path, r0):
    # the endpoint search's first probe is the constant field u = r0; F
    # overflows there, so solve refuses before the ball stage instead of
    # ending in non-convergence after it
    cfg = tmp_path / "far.cfg"
    cfg.write_text(f"nonlinearity.r0 = {r0}\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, rep, _ = run_cli(capsys, "solve", "--config", str(cfg))
    assert code == 4 and rep["status"] == "config-error"
    assert f"u = r0 = {float(r0):.6g}" in rep["diagnostics"]["error"]


# T and m whose scales are not finite, positive doubles.  Each once crashed
# a command with exit 1, or was refused for a sigma that is not positive, or
# passed verify on a T^N of 0
SCALES_OUT_OF_RANGE = {
    "problem.T = 1e-300": "omega^2 = inf",
    "problem.T = 1e-155": "omega^2 = inf",
    "problem.T = 1e300": "omega^2 = 0.0",
    "problem.N = 3\nproblem.s = 0.9\nproblem.T = 1e103": "T^N = inf",
    "problem.N = 3\nproblem.s = 0.9\nproblem.T = 1e-110": "T^N = 0.0",
    "problem.m = 1e300": "m^2 = inf",
    "problem.m = 1e-200\nproblem.gamma = 0": "m^2 = 0.0",
}


# T and m whose sigma_4 underflows or overflows, once blamed on the
# nonlinearity block.  verify uses no sigma, so it does not refuse them
SIGMAS_OUT_OF_RANGE = {
    "problem.T = 1e100": "sigma_4 = 0.0",
    "problem.m = 1e150": "sigma_4 = 0.0",
    "problem.T = 1e-100": "sigma_4 = inf",
}


@pytest.mark.parametrize("lines, command", [
    (lines, command) for lines in sorted(SCALES_OUT_OF_RANGE)
    for command in ("constants", "solve", "verify")] + [
    (lines, command) for lines in sorted(SIGMAS_OUT_OF_RANGE)
    for command in ("constants", "solve")])
def test_problem_scale_beyond_float_range_is_a_config_error(
        capsys, tmp_path, command, lines):
    cfg = tmp_path / "scale.cfg"
    cfg.write_text(lines + "\n")
    code, rep, _ = run_cli(capsys, command, "--config", str(cfg))
    assert code == 4 and rep["status"] == "config-error"
    error = rep["diagnostics"]["error"]
    assert error.startswith("problem block invalid: ")
    blamed = {**SCALES_OUT_OF_RANGE, **SIGMAS_OUT_OF_RANGE}[lines]
    assert blamed + " is not a finite positive double" in error


def test_command_key_is_a_config_error(capsys, tmp_path):
    # the subcommand comes from the command line only
    cfg = tmp_path / "run.cfg"
    cfg.write_text("command = solve\n")
    code, rep, _ = run_cli(capsys, "constants", "--config", str(cfg))
    assert code == 4 and rep["status"] == "config-error"
    assert "unknown configuration key 'command'" in rep["diagnostics"]["error"]


# tuning values that were solver.* keys once and are fixed constants now
REMOVED_SOLVER_KEYS = {
    "path_points": "16", "armijo_c1": "1e-4", "backtrack": "0.5",
    "max_halvings": "30", "endpoint_margin": "1.0", "polish": "true",
    "polish_trigger": "1e-3", "polish_every": "10", "polish_max_steps": "20",
    "sigma_starts": "16",
}


@pytest.mark.parametrize("key", sorted(REMOVED_SOLVER_KEYS))
def test_removed_solver_key_is_rejected(capsys, tmp_path, key):
    cfg = tmp_path / "old.cfg"
    cfg.write_text(f"solver.{key} = {REMOVED_SOLVER_KEYS[key]}\n")
    code, rep, _ = run_cli(capsys, "solve", "--config", str(cfg))
    assert code == 4 and rep["status"] == "config-error"
    assert (f"unknown configuration key 'solver.{key}'"
            in rep["diagnostics"]["error"])


def test_config_echo_holds_the_six_solver_keys(capsys):
    code, rep, _ = run_cli(capsys, "reproduce-example", "--smoke")
    assert code == 0
    solver_keys = {k for k in rep["config"] if k.startswith("solver.")}
    assert solver_keys == {"solver.rho", "solver.grad_tol", "solver.max_iter",
                           "solver.distinct_tol", "solver.max_doublings",
                           "solver.seed"}


@pytest.mark.parametrize("command", ["constants", "solve"])
def test_supercritical_growth_is_a_config_error(capsys, tmp_path, command):
    # 2N/(N-2s) = 5 for N = 3, s = 0.9, so q = 5.5 is supercritical
    cfg = tmp_path / "super.cfg"
    cfg.write_text("problem.N = 3\nproblem.s = 0.9\nnonlinearity.q = 5.5\n")
    code, rep, _ = run_cli(capsys, command, "--config", str(cfg))
    assert code == 4 and rep["status"] == "config-error"
    assert "critical exponent" in rep["diagnostics"]["error"]


def test_seed_flag_is_recorded(capsys):
    code, rep, _ = run_cli(capsys, "reproduce-example", "--smoke", "--seed", "5")
    assert code == 0 and rep["seed"] == 5


def test_byte_identical_reruns(capsys):
    outs = []
    for _ in range(2):
        main(["reproduce-example", "--smoke", "--seed", "0"])
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    outs = []
    for _ in range(2):
        main(["constants"])
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc_info:
        main(["--help"])
    assert exc_info.value.code == 0
    assert "reproduce-example" in capsys.readouterr().out


# -- import footprint --------------------------------------------------------------

# Imports perifrac.cli and runs commands one after another in a fresh
# interpreter; prints, after the import and after each command, the exit
# code (None for the import) and the scipy and numpy.random modules loaded
# by then beyond those a bare `import numpy` loads.
_FRESH_RUN = """
import contextlib, io, json, sys
import numpy
bare = set(sys.modules)

def loaded(package):
    return sorted(m for m in set(sys.modules) - bare
                  if m == package or m.startswith(package + "."))

import perifrac.cli
out = [[None, loaded("scipy"), loaded("numpy.random")]]
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = perifrac.cli.main(argv)
    out.append([code, loaded("scipy"), loaded("numpy.random")])
print(json.dumps(out))
"""


def test_only_verify_loads_scipy(tmp_path):
    cfg = tmp_path / "small.cfg"
    cfg.write_text("problem.N = 2\ndiscretization.M = 3\n")
    src = str(pathlib.Path(perifrac.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    # M = 3 has no pinned golden sigma_4, so constants computes both sigmas
    # and then refuses (exit 5); on the default config it certifies, which
    # runs the golden check too.  Neither the import nor these commands
    # load scipy or numpy.random: the ascent draws its starts itself.
    # verify, last, must still find both.
    argvs = [["solve", "--config", str(cfg)],
             ["constants", "--config", str(cfg)], ["constants"],
             ["reproduce-example", "--smoke"], ["verify"]]
    proc = subprocess.run([sys.executable, "-c", _FRESH_RUN, json.dumps(argvs)],
                          env=env, capture_output=True, text=True, check=True)
    out = json.loads(proc.stdout.splitlines()[-1])
    assert [code for code, *_ in out] == [None, 0, 5, 0, 0, 0]
    assert [loaded for _, *loaded in out[:-1]] == [[[], []]] * 5
