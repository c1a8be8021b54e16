"""Command-line front-end.

Subcommands: constants | solve | verify | reproduce-example, each taking
--config PATH and --seed N; constants also takes --golden PATH, and solve
and reproduce-example take --dump-fields DIR.  One JSON report
goes to stdout; wall-clock chatter goes to stderr only (report timings are
deterministic operation counts).  Exit codes: 0 success (certified /
two-solutions / all-checks-pass), 2 refused-inadmissible-lambda,
3 non-convergence or one-solution-only, 4 config error (out of memory
included), 5 verification or certification failure.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
import time

import numpy as np

from . import report as rp
from . import spectral as sp
from . import variational as vr
from .config import AUTO, ConfigError, RunConfig, load_config
from .constants import (InadmissibleLambdaError, ball_radius, best_lambda,
                        certify, golden_key, lambda_table, load_golden,
                        sigma_estimate)
from .extension import (ExtrapolationError, QuadratureError,
                        WeightedQuadrature, conormal_limit, ode_residual,
                        profile_energy, verify_trace_identity)
from .solvers import NonConvergenceError, SolverError, solve_multiplicity
from .spectral import SpectrumParams, kappa

__all__ = ["main", "cmd_constants", "cmd_solve", "cmd_verify",
           "cmd_reproduce_example"]

GOLDEN_REL_TOL = 5e-4          # "agrees to three significant digits"
RHO_GRID_POINTS = 16
RHO_GRID_SPAN = 100.0          # table covers [rho*/span, rho*·span]


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on usage errors, which this contract
    reserves for the admissibility refusal; route usage errors to the
    config-error path (exit 4) instead."""

    def error(self, message):
        raise ConfigError(message)


@functools.cache   # parse_args keeps no state, so one parser serves every call
def _build_parser() -> _Parser:
    parser = _Parser(prog="perifrac",
                     description="certified two-solution runs for periodic "
                                 "fractional Schroedinger-type problems")
    sub = parser.add_subparsers(dest="command", required=True)
    specs = [
        ("constants", "certify kappa, sigma_r and the admissible-lambda table"),
        ("solve", "run the two-solution pipeline on a configured problem"),
        ("verify", "run the numerical invariant battery"),
        ("reproduce-example", "run the built-in quartic benchmark end to end"),
    ]
    for name, help_text in specs:
        s = sub.add_parser(name, help=help_text)
        s.add_argument("--config", metavar="PATH",
                       help="configuration file (flat dotted keys)")
        s.add_argument("--seed", type=int, metavar="N",
                       help="master seed (overrides solver.seed)")
        if name in ("solve", "reproduce-example"):
            s.add_argument("--dump-fields", metavar="DIR",
                           help="write one CSV of grid samples per solution")
        if name == "constants":
            s.add_argument("--golden", metavar="PATH",
                           help="golden-value file")
        if name == "reproduce-example":
            s.add_argument("--modes", type=int, default=8, metavar="M",
                           help="mode cutoff per axis (default 8)")
            s.add_argument("--grid", type=int, default=32, metavar="N",
                           help="sampling grid per axis (default 32)")
            s.add_argument("--smoke", action="store_true",
                           help="one-mode truncation (M=0) at lambda=0.01")
    return parser


def _load(args) -> RunConfig:
    if getattr(args, "config", None):
        cfg = load_config(args.config)
    else:
        cfg = RunConfig()
    if getattr(args, "seed", None) is not None:
        cfg.override_seed(args.seed)
    return cfg


def _is_plain_quartic(nl) -> bool:
    return nl.q == 4.0 and nl.a1 == 1.0 and nl.a2 == 1.0


def _check_ball_edge(problem, nl, rho):
    """f and F must be finite on the constant fields +-a at the edge of the
    ball e(u)^2 < rho, a = sqrt(rho / (kappa (1-g) m^(2s) T^N)), and r0,
    the endpoint search's first probe; a rho or an r0 beyond that is
    outside the float range of the problem, and the solve would overflow."""
    a = ball_radius(rho, problem) / math.sqrt(
        problem.m ** (2.0 * problem.s) * problem.T ** problem.N)
    x = tuple(np.zeros(2) for _ in range(problem.N))
    for t, where in (((a, -a), f"+-{a:.6g} at the edge of the ball, "
                                f"rho = {rho:.6g}"),
                     ((nl.r0, nl.r0), f"r0 = {nl.r0:.6g}, the endpoint "
                                      f"search's first probe")):
        try:
            for fn in (nl.f, nl.F):
                vr._evaluate(fn, x, np.array(t), "f or F")
        except OverflowError:
            raise ConfigError(f"nonlinearity block invalid: f or F is not "
                              f"finite on the constant field u = {where}")


def _fill_constants(rep, problem, params, nl, seed):
    """Shared constants section: kappa, sigmas, best rho, the lambda table
    around it, and, for the quartic (q = 4, a1 = a2 = 1), the paper's
    interval (0, max_rho lambda_max), read off best_lambda.  A sigma that
    is not a finite positive double on the problem's scales is a config
    error of the problem block, a best rho that is not a finite double one
    of the nonlinearity block.  Returns (sigmas, rho_star, lam_star,
    sigma_q estimate)."""
    cons = rep["constants"]
    cons["kappa"] = kappa(problem.s)
    try:
        sig1, sig2, sigq = (sigma_estimate(r, problem, params, seed=seed)
                            for r in (1.0, 2.0, nl.q))
    except ValueError as exc:
        raise ConfigError(
            f"problem block invalid: {exc} (m = {problem.m!r}, s = "
            f"{problem.s!r}, T = {problem.T!r}, N = {problem.N!r})") from exc
    cons["sigmas"] = [rp.estimate_dict(e) for e in (sig1, sig2, sigq)]
    sigmas = (sig1.value, sigq.value)
    try:
        rho_star, lam_star = best_lambda(problem, nl, sigmas)
    except ValueError as exc:
        raise ConfigError(f"nonlinearity block invalid: {exc}") from exc
    cons["best_rho"] = float(rho_star)
    cons["lambda_max_best"] = float(lam_star)
    cons["ball_radius_best"] = ball_radius(rho_star, problem)
    grid = np.geomspace(rho_star / RHO_GRID_SPAN, rho_star * RHO_GRID_SPAN,
                        RHO_GRID_POINTS)
    cons["lambda_table"] = lambda_table(grid, problem, nl, sigmas)
    if _is_plain_quartic(nl):
        cons["example_interval"] = {"lower": 0.0, "upper": lam_star,
                                    "best_rho": rho_star}
    for key in ("starts", "iterations", "coarse_modes", "coarse_iterations",
                "fine_iterations"):
        rep["timings"][f"sigma_ascent_{key}"] = int(getattr(sigq, key))
    return sigmas, rho_star, lam_star, sigq


# -- constants ---------------------------------------------------------------


def cmd_constants(cfg: RunConfig, golden_path: str | None = None) -> dict:
    seed = cfg.values["solver.seed"]
    rep = rp.empty_report("constants", cfg.values, seed)
    nl = cfg.nonlinearity()
    problem = cfg.lambda_free_problem()
    params = cfg.params()
    *_, sigq = _fill_constants(rep, problem, params, nl, seed)

    if sigq.status == "truncated-lower-bound":
        key = golden_key(nl.q, problem, params.modes)
        try:
            golden = load_golden(golden_path)
        except (OSError, ValueError) as exc:
            rep["status"] = "certification-failed"
            rep["diagnostics"]["error"] = (
                f"golden-value file unreadable: {exc}; regenerate it with "
                f"scripts/make_golden.py")
            return rep
        if key not in golden:
            rep["status"] = "certification-failed"
            rep["diagnostics"]["error"] = (
                f"golden value missing for tuple {key!r}; regenerate the "
                f"golden file with scripts/make_golden.py and re-run")
            return rep
        rel = abs(sigq.value - golden[key]) / abs(golden[key])
        rep["diagnostics"]["golden_check"] = {
            "key": key,
            "golden": float(golden[key]),
            "live": float(sigq.value),
            "rel_gap": float(rel),
            "rel_tol": GOLDEN_REL_TOL,
        }
        if rel > GOLDEN_REL_TOL:
            rep["status"] = "certification-failed"
            rep["diagnostics"]["error"] = (
                f"live sigma ascent {sigq.value!r} disagrees with golden "
                f"value {golden[key]!r} (rel gap {rel:.2e} > {GOLDEN_REL_TOL})")
            return rep
    rep["status"] = "certified"
    return rep


# -- solve -------------------------------------------------------------------


def cmd_solve(cfg: RunConfig, dump_dir: str | None = None) -> dict:
    """Realize the problem at the resolved lambda (auto: half of
    lambda_max at the best rho) and rho (auto: the best rho), run
    _check_ball_edge, certify lambda on the constants section's sigmas,
    run the pipeline, map errors to statuses."""
    seed = cfg.values["solver.seed"]
    rep = rp.empty_report("solve", cfg.values, seed)
    nl = cfg.nonlinearity()
    params = cfg.params()
    problem0 = cfg.lambda_free_problem()
    sigmas, rho_star, lam_star, _ = _fill_constants(
        rep, problem0, params, nl, seed)
    rho, lam = cfg.values["solver.rho"], cfg.values["problem.lambda"]
    rho = rho_star if rho == AUTO else float(rho)
    lam = 0.5 * lam_star if lam == AUTO else float(lam)
    problem = cfg.problem(lam=lam)
    scfg = cfg.solver(rho=rho)
    rep["constants"]["resolved_lambda"] = float(lam)
    rep["constants"]["resolved_rho"] = float(rho)
    _check_ball_edge(problem, nl, rho)
    try:
        certificate = certify(rho, problem, nl, sigmas)
        mrep = solve_multiplicity(scfg, nl, problem, params)
    except InadmissibleLambdaError as exc:
        rep["status"] = "refused-inadmissible-lambda"
        rep["diagnostics"]["error"] = str(exc)
        rep["diagnostics"]["certificate"] = {
            "lambda": float(exc.lam), "lambda_max_at_rho": float(exc.lam_max),
            "rho": float(exc.rho)}
        return rep
    except NonConvergenceError as exc:
        rep["status"] = "non-convergence"
        rep["diagnostics"]["error"] = str(exc)
        rep["diagnostics"]["residual_history_tail"] = [
            float(r) for r in exc.residual_history[-12:]]
        return rep
    except (SolverError, OverflowError) as exc:
        rep["status"] = "non-convergence"
        rep["diagnostics"]["error"] = f"{type(exc).__name__}: {exc}"
        return rep
    rep["status"] = mrep.status
    rep["solutions"] = [rp.solution_dict(s) for s in mrep.solutions]
    rep["diagnostics"]["certificate"] = certificate
    # mountain_pass's rule puts a listed saddle above and apart from the first
    rep["diagnostics"]["distinct"] = len(mrep.solutions) == 2
    rep["diagnostics"]["hs_distance"] = float(mrep.hs_distance)
    rep["diagnostics"]["energy_ordering_ok"] = True
    if mrep.detail:
        rep["diagnostics"]["detail"] = mrep.detail
    for key, val in mrep.counters.items():
        rep["timings"][key] = int(val)
    if dump_dir:
        rep["diagnostics"]["field_dumps"] = rp.dump_fields(dump_dir,
                                                           mrep.solutions)
    return rep


# -- verify ------------------------------------------------------------------


def _failed(name, tol, error: str) -> dict:
    return {"name": name, "gap": None, "tolerance": float(tol),
            "passed": False, "error": error}


def _check(name, gap, tol) -> dict:
    """A check entry; a gap that is not finite (no JSON value) fails it."""
    gap = float(gap)
    if not math.isfinite(gap):
        return _failed(name, tol, f"gap {gap!r} is not finite")
    return {"name": name, "gap": gap, "tolerance": float(tol),
            "passed": bool(gap <= tol)}


def _measured(name, tol, measure) -> dict:
    """_check of the gap measure() returns.  A quadrature, a Richardson
    extrapolation or a float that fails inside measure fails the check
    instead, and its entry carries the error in place of a gap."""
    try:
        return _check(name, measure(), tol)
    except (QuadratureError, ExtrapolationError, OverflowError) as exc:
        return _failed(name, tol, f"{type(exc).__name__}: {exc}")


def _checker_entry(report) -> dict:
    violation = max(0.0, -float(report.worst_margin)) if not report.passed else 0.0
    return {"name": f"nonlinearity_{report.name}", "gap": violation,
            "tolerance": 0.0, "passed": bool(report.passed)}


def cmd_verify(cfg: RunConfig) -> dict:
    seed = cfg.values["solver.seed"]
    rep = rp.empty_report("verify", cfg.values, seed)
    nl = cfg.nonlinearity()
    problem = cfg.lambda_free_problem()
    rep["constants"]["kappa"] = kappa(problem.s)
    checks = []
    s_values = sorted({0.3, 0.5, 0.7, 0.9, float(problem.s)})
    fault = cfg.values["verify.inject_theta_fault"]
    for s in s_values:
        wq = WeightedQuadrature(1.0 - 2.0 * s)
        exact = math.gamma(2.0 - 2.0 * s) / 2.0 ** (2.0 - 2.0 * s)
        checks.append(_measured(
            f"quadrature_gamma_moment[s={s:g}]", 1e-9,
            lambda: abs(wq.integrate(lambda y: np.exp(-2.0 * y)) - exact)
            / abs(exact)))
        ys = np.geomspace(0.1, 10.0, 25)
        # a huge fault overflows the differences; NaN must reach the check
        with np.errstate(over="ignore", invalid="ignore"):
            worst = np.max([abs(ode_residual(s, float(y), fault)) for y in ys])
        checks.append(_check(f"ode_residual[s={s:g}]", worst, 1e-5))
        k, pe = kappa(s), {}

        def profile_gap():
            pe["value"] = float(profile_energy(s, fault))
            return abs(pe["value"] - k) / k

        entry = _measured(f"profile_energy_vs_kappa[s={s:g}]", 1e-6, profile_gap)
        checks.append({**entry, **pe} if entry["gap"] is not None else entry)
    for mu in (1.0, 2.0, 5.0):
        exact = kappa(problem.s) * mu ** problem.s
        checks.append(_measured(
            f"conormal_limit[mu={mu:g}]", 1e-4,
            lambda: abs(conormal_limit(problem.s, mu) - exact) / abs(exact)))

    n_tr = 11
    params_tr = SpectrumParams(5, n_tr)
    rng = np.random.default_rng([seed, 101])
    u_tr = sp.forward_transform(
        rng.standard_normal((n_tr,) * problem.N) * 0.5, problem, params_tr)
    checks.append(_measured("trace_identity", 1e-5,
                            lambda: verify_trace_identity(u_tr, fault).rel_gap))

    # gradient versus central differences, in a random direction
    params_g = SpectrumParams(4, 9)
    rng = np.random.default_rng([seed, 202])
    u_g = sp.forward_transform(
        rng.standard_normal((9,) * problem.N) * 0.3, problem, params_g)
    phi = sp.forward_transform(
        rng.standard_normal((9,) * problem.N) * 0.1, problem, params_g)
    h = 1e-5
    num = (vr.energy(u_g + phi * h, nl) - vr.energy(u_g + phi * (-h), nl)) / (2 * h)
    ana = sp.pairing(vr.gradient(u_g, nl), phi)
    checks.append(_check("gradient_vs_finite_difference",
                         abs(num - ana) / max(1.0, abs(ana)), 1e-5))

    # structural checks of the configured nonlinearity
    coords = sp.grid_coordinates(problem, 3)
    x_points = np.stack([c.reshape(-1) for c in coords], axis=1)
    t_span = max(3.0, 2.0 * nl.r0)
    checks.append(_checker_entry(vr.check_growth(
        nl, np.linspace(-t_span, t_span, 121), x_points, N=problem.N)))
    checks.append(_checker_entry(vr.check_ar(
        nl, t_max=2.0 * nl.r0 + 3.0, x_points=x_points, N=problem.N)))
    checks.append(_checker_entry(vr.check_superhomogeneity(
        nl, t_values=(1.0, 1.5, 2.0, 4.0),
        v_values=(nl.r0, -nl.r0, 2.0 * nl.r0, -2.0 * nl.r0),
        x_points=x_points, N=problem.N)))

    # norm coherence on a random field: kappa(1-g) hs^2 <= e^2 <= kappa hs^2
    rng = np.random.default_rng([seed, 303])
    u_n = sp.forward_transform(
        rng.standard_normal((9,) * problem.N), problem, params_g)
    hs2 = sp.hs_norm(u_n) ** 2
    e2 = sp.e_norm(u_n) ** 2
    k = kappa(problem.s)
    lower = k * (1.0 - problem.gamma_fraction) * hs2
    upper = k * hs2
    viol = max(0.0, lower - e2) + max(0.0, e2 - upper)
    checks.append(_check("norm_sandwich", viol / max(upper, 1e-300), 1e-12))
    g_n = vr.gradient(u_n, nl)
    cs_gap = max(0.0, abs(sp.pairing(g_n, u_n))
                 - sp.dual_norm(g_n) * sp.hs_norm(u_n))
    checks.append(_check("duality_pairing_bound",
                         cs_gap / max(1.0, sp.dual_norm(g_n) * sp.hs_norm(u_n)),
                         1e-12))

    rep["verification"]["checks"] = checks
    all_passed = all(c["passed"] for c in checks)
    rep["verification"]["all_passed"] = all_passed
    rep["timings"]["checks_run"] = len(checks)
    rep["status"] = "all-checks-pass" if all_passed else "verification-failure"
    if fault:
        rep["diagnostics"]["injected_theta_fault"] = float(fault)
    return rep


# -- reproduce-example ---------------------------------------------------------


def cmd_reproduce_example(seed: int | None = None, modes: int = 8,
                          grid: int = 32, smoke: bool = False,
                          dump_dir: str | None = None,
                          config_ignored: bool = False) -> dict:
    """cmd_solve on the benchmark config: N=2, s=3/4, m=1, gamma=1/2,
    T=2*pi, forcing 1 + t^3, so lambda is the midpoint of the certified
    interval (0.01 under --smoke, which truncates to the constant mode).
    Adds the benchmark's own diagnostics and requires both solutions to be
    non-trivial."""
    cfg = RunConfig()
    if seed is not None:
        cfg.override_seed(seed)
    if smoke:
        modes, grid = 0, 1
        cfg.values["problem.lambda"] = 0.01
    cfg.values["discretization.M"] = modes
    cfg.values["discretization.grid_points"] = grid
    rep = cmd_solve(cfg, dump_dir=dump_dir)
    rep["command"] = "reproduce-example"
    diag = rep["diagnostics"]
    if config_ignored:
        diag["note"] = "reproduce-example is config-free; --config was ignored"
    diag["smoke"] = bool(smoke)

    # the benchmark's forcing does not vanish at zero, so u = 0 is never a
    # solution; record the checked value
    nl = cfg.nonlinearity()
    x0 = tuple(np.zeros(1) for _ in range(cfg.values["problem.N"]))
    f0 = float(np.asarray(nl.f(x0, np.zeros(1)))[0])
    diag["f_at_zero"] = f0
    diag["f_at_zero_nonzero"] = bool(f0 != 0.0)

    if rep["solutions"]:
        tol = cfg.values["solver.distinct_tol"]
        nontrivial = [bool(s["hs_norm"] > tol) for s in rep["solutions"]]
        diag["nontrivial"] = nontrivial
        if rep["status"] == "two-solutions" and not all(nontrivial):
            rep["status"] = "one-solution-only"
            diag["detail"] = ("a reported solution is numerically trivial; "
                              "the benchmark requires both to be non-trivial")
    return rep


# -- entry point -----------------------------------------------------------------


def main(argv=None) -> int:
    parser = _build_parser()
    command = ""
    t0 = time.perf_counter()
    try:
        args = parser.parse_args(argv)
        command = args.command
        if getattr(args, "dump_fields", None):
            # made up front, so a path that cannot be a directory fails as
            # a config error before any work is done
            try:
                os.makedirs(args.dump_fields, exist_ok=True)
            except OSError as exc:
                raise ConfigError(f"--dump-fields: {exc}") from exc
        if command == "reproduce-example":
            rep = cmd_reproduce_example(
                seed=args.seed, modes=args.modes, grid=args.grid,
                smoke=args.smoke, dump_dir=args.dump_fields,
                config_ignored=bool(args.config))
        else:
            cfg = _load(args)
            if command == "constants":
                rep = cmd_constants(cfg, golden_path=args.golden)
            elif command == "solve":
                rep = cmd_solve(cfg, dump_dir=args.dump_fields)
            else:
                rep = cmd_verify(cfg)
    except (ConfigError, MemoryError) as exc:
        # a discretization too big for memory is a configuration this
        # machine cannot run
        rep = rp.empty_report(command, {}, 0)
        rep["status"] = "config-error"
        rep["diagnostics"]["error"] = (
            str(exc) if isinstance(exc, ConfigError)
            else f"out of memory: {exc}")
    sys.stdout.write(rp.to_json(rep))
    elapsed = time.perf_counter() - t0
    print(f"[perifrac] {command or 'usage'}: status={rep['status']} "
          f"wall={elapsed:.3f}s", file=sys.stderr)
    return rp.exit_code_for(rep["status"])
