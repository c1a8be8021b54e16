"""Command-line front-end.

Subcommands: constants | solve | verify | reproduce-example, each taking
--config PATH, --seed N, --dump-fields DIR, --golden PATH.  One JSON report
goes to stdout; wall-clock chatter goes to stderr only (report timings are
deterministic operation counts).  Exit codes: 0 success (certified /
two-solutions / all-checks-pass), 2 refused-inadmissible-lambda,
3 non-convergence or one-solution-only, 4 config error, 5 verification or
certification failure.
"""

from __future__ import annotations

import argparse
import math
import sys
import time

import numpy as np

from . import report as rp
from . import spectral as sp
from . import variational as vr
from .config import (AUTO, ConfigError, RunConfig, default_example_text,
                     load_config, parse_config)
from .constants import (ball_radius, best_lambda, default_golden_path,
                        example_lambda_interval, golden_key, kappa,
                        lambda_table, load_golden, sigma_estimate)
from .extension import (WeightedQuadrature, conormal_limit, ode_residual,
                        profile_energy, verify_trace_identity)
from .solvers import (InadmissibleLambdaError, NonConvergenceError,
                      SolverError, solve_multiplicity)
from .spectral import FourierField, SpectrumParams

__all__ = ["main", "cmd_constants", "cmd_solve", "cmd_verify",
           "cmd_reproduce_example"]

GOLDEN_REL_TOL = 5e-4          # "agrees to three significant digits"
SIGMA_INFLATION = 1.1          # policy factor for the safe lambda table
RHO_GRID_POINTS = 16
RHO_GRID_SPAN = 100.0          # table covers [rho*/span, rho*·span]


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on usage errors, which this contract
    reserves for the admissibility refusal; route usage errors to the
    config-error path (exit 4) instead."""

    def error(self, message):
        raise ConfigError(message)


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
        s.add_argument("--dump-fields", metavar="DIR",
                       help="write one CSV of grid samples per solution")
        s.add_argument("--golden", metavar="PATH",
                       help="golden-value file (constants command)")
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
        cfg = parse_config(default_example_text())
    if getattr(args, "seed", None) is not None:
        cfg.solver_values["seed"] = int(args.seed)
    return cfg


def _problem_sans_lambda(cfg: RunConfig):
    """lambda-independent work (sigmas, tables) uses a placeholder when
    problem.lambda is 'auto'."""
    return cfg.problem(lam=1.0) if cfg.lam == AUTO else cfg.problem()


def _solver_probe(cfg: RunConfig):
    return cfg.solver(rho=1.0) if cfg.rho_raw == AUTO else cfg.solver()


def _is_plain_quartic(nl) -> bool:
    return nl.q == 4.0 and nl.a1 == 1.0 and nl.a2 == 1.0


def _fill_constants(rep, cfg, problem, params, nl, seed, starts):
    """Shared constants section: kappa, sigmas, best rho, both lambda
    tables, and the quartic interval when it applies.  Returns
    (sigmas, rho_star, lam_star)."""
    cons = rep["constants"]
    cons["kappa"] = kappa(problem.s)
    sig1 = sigma_estimate(1.0, problem, params, seed=seed, starts=starts)
    sig2 = sigma_estimate(2.0, problem, params, seed=seed, starts=starts)
    sigq = sigma_estimate(nl.q, problem, params, seed=seed, starts=starts)
    estimates = [sig1, sig2] + ([sigq] if nl.q not in (1.0, 2.0) else [])
    cons["sigmas"] = [rp.estimate_dict(e) for e in estimates]
    sigmas = (sig1.value, sigq.value)
    rho_star, lam_star = best_lambda(problem, nl, sigmas)
    cons["best_rho"] = float(rho_star)
    cons["lambda_max_best"] = float(lam_star)
    cons["ball_radius_best"] = ball_radius(rho_star, problem)
    grid = np.geomspace(rho_star / RHO_GRID_SPAN, rho_star * RHO_GRID_SPAN,
                        RHO_GRID_POINTS)
    cons["lambda_table"] = [rp.lambda_row_dict(r)
                            for r in lambda_table(grid, problem, nl, sigmas)]
    safe = (sigmas[0] * SIGMA_INFLATION, sigmas[1] * SIGMA_INFLATION)
    cons["lambda_table_safe"] = [rp.lambda_row_dict(r)
                                 for r in lambda_table(grid, problem, nl, safe)]
    cons["sigma_inflation"] = SIGMA_INFLATION
    if _is_plain_quartic(nl):
        iv = example_lambda_interval(sigmas, problem)
        cons["example_interval"] = {"lower": iv.lower, "upper": iv.upper,
                                    "best_rho": iv.best_rho}
        iv_safe = example_lambda_interval(safe, problem)
        cons["example_interval_safe"] = {"lower": iv_safe.lower,
                                         "upper": iv_safe.upper,
                                         "best_rho": iv_safe.best_rho}
    rep["timings"]["sigma_ascent_iterations"] = int(sigq.iterations)
    rep["timings"]["sigma_ascent_starts"] = int(sigq.starts)
    return sigmas, rho_star, lam_star, sigq


# -- constants ---------------------------------------------------------------


def cmd_constants(cfg: RunConfig, golden_path: str | None = None) -> dict:
    rep = rp.empty_report("constants", cfg.to_mapping(), cfg.seed)
    nl = cfg.nonlinearity()
    problem = _problem_sans_lambda(cfg)
    params = cfg.params()
    probe = _solver_probe(cfg)
    sigmas, rho_star, lam_star, sigq = _fill_constants(
        rep, cfg, problem, params, nl, probe.seed, probe.sigma_starts)

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


def _run_pipeline(rep, cfg, params, nl, lam, rho, dump_dir):
    """Shared by solve and reproduce-example: realize the problem at the
    resolved lambda/rho, run the pipeline, map errors to statuses."""
    problem = cfg.problem(lam=lam)
    scfg = cfg.solver(rho=rho)
    rep["constants"]["resolved_lambda"] = float(lam)
    rep["constants"]["resolved_rho"] = float(rho)
    try:
        mrep = solve_multiplicity(scfg, nl, problem, params)
    except InadmissibleLambdaError as exc:
        rep["status"] = "refused-inadmissible-lambda"
        rep["diagnostics"]["error"] = str(exc)
        rep["diagnostics"]["certificate"] = {
            "lambda": float(exc.lam),
            "lambda_max_at_rho": float(exc.lam_max),
            "rho": float(exc.rho),
        }
        return None
    except NonConvergenceError as exc:
        rep["status"] = "non-convergence"
        rep["diagnostics"]["error"] = str(exc)
        rep["diagnostics"]["residual_history_tail"] = [
            float(r) for r in exc.residual_history[-12:]]
        return None
    except (SolverError, OverflowError) as exc:
        rep["status"] = "non-convergence"
        rep["diagnostics"]["error"] = f"{type(exc).__name__}: {exc}"
        return None
    rep["status"] = mrep.status
    rep["solutions"] = [rp.solution_dict(s) for s in mrep.solutions]
    rep["diagnostics"]["certificate"] = {k: float(v)
                                         for k, v in mrep.certificate.items()}
    rep["diagnostics"]["distinct"] = bool(mrep.distinct)
    rep["diagnostics"]["hs_distance"] = float(mrep.hs_distance)
    rep["diagnostics"]["energy_ordering_ok"] = bool(mrep.energy_ordering_ok)
    if mrep.detail:
        rep["diagnostics"]["detail"] = mrep.detail
    for key, val in mrep.counters.items():
        rep["timings"][key] = int(val)
    if dump_dir:
        rep["diagnostics"]["field_dumps"] = rp.dump_fields(dump_dir,
                                                           mrep.solutions)
    return mrep


def cmd_solve(cfg: RunConfig, dump_dir: str | None = None) -> dict:
    rep = rp.empty_report("solve", cfg.to_mapping(), cfg.seed)
    nl = cfg.nonlinearity()
    params = cfg.params()
    probe = _solver_probe(cfg)
    problem0 = _problem_sans_lambda(cfg)
    sigmas, rho_star, lam_star, _ = _fill_constants(
        rep, cfg, problem0, params, nl, probe.seed, probe.sigma_starts)
    rho = rho_star if cfg.rho_raw == AUTO else float(cfg.rho_raw)
    lam = 0.5 * lam_star if cfg.lam == AUTO else float(cfg.lam)
    _run_pipeline(rep, cfg, params, nl, lam, rho, dump_dir)
    return rep


# -- verify ------------------------------------------------------------------


def _check(name, gap, tol) -> dict:
    gap = float(gap)
    return {"name": name, "gap": gap, "tolerance": float(tol),
            "passed": bool(gap <= tol)}


def _checker_entry(report) -> dict:
    violation = max(0.0, -float(report.worst_margin)) if not report.passed else 0.0
    return {"name": f"nonlinearity_{report.name}", "gap": violation,
            "tolerance": 0.0, "passed": bool(report.passed)}


def cmd_verify(cfg: RunConfig) -> dict:
    rep = rp.empty_report("verify", cfg.to_mapping(), cfg.seed)
    nl = cfg.nonlinearity()
    problem = _problem_sans_lambda(cfg)
    rep["constants"]["kappa"] = kappa(problem.s)
    checks = []
    s_values = sorted({0.3, 0.5, 0.7, 0.9, float(problem.s)})
    fault = cfg.inject_theta_fault
    for s in s_values:
        wq = WeightedQuadrature(1.0 - 2.0 * s)
        moment = wq.integrate(lambda y: np.exp(-2.0 * y))
        exact = math.gamma(2.0 - 2.0 * s) / 2.0 ** (2.0 - 2.0 * s)
        checks.append(_check(f"quadrature_gamma_moment[s={s:g}]",
                             abs(moment - exact) / abs(exact), 1e-9))
        ys = np.geomspace(0.1, 10.0, 25)
        worst = max(abs(ode_residual(s, float(y), fault)) for y in ys)
        checks.append(_check(f"ode_residual[s={s:g}]", worst, 1e-5))
        pe = profile_energy(s, fault)
        k = kappa(s)
        entry = _check(f"profile_energy_vs_kappa[s={s:g}]",
                       abs(pe - k) / k, 1e-6)
        entry["value"] = float(pe)
        checks.append(entry)
    for mu in (1.0, 2.0, 5.0):
        cl = conormal_limit(problem.s, mu)
        exact = kappa(problem.s) * mu ** problem.s
        checks.append(_check(f"conormal_limit[mu={mu:g}]",
                             abs(cl - exact) / abs(exact), 1e-4))

    n_tr = 11
    params_tr = SpectrumParams(5, n_tr)
    rng = np.random.default_rng([cfg.seed, 101])
    u_tr = sp.forward_transform(
        rng.standard_normal((n_tr,) * problem.N) * 0.5, problem, params_tr)
    trace = verify_trace_identity(u_tr, fault)
    checks.append(_check("trace_identity", trace.rel_gap, 1e-5))

    # gradient versus central differences, in a random direction
    params_g = SpectrumParams(4, 9)
    rng = np.random.default_rng([cfg.seed, 202])
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
    rng = np.random.default_rng([cfg.seed, 303])
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
    if cfg.inject_theta_fault:
        rep["diagnostics"]["injected_theta_fault"] = float(cfg.inject_theta_fault)
    return rep


# -- reproduce-example ---------------------------------------------------------


def cmd_reproduce_example(seed: int | None = None, modes: int = 8,
                          grid: int = 32, smoke: bool = False,
                          dump_dir: str | None = None,
                          config_ignored: bool = False) -> dict:
    """Hard-coded benchmark: N=2, s=3/4, m=1, gamma=1/2, T=2*pi, forcing
    1 + t^3; lambda is the midpoint of the certified interval (0.01 under
    --smoke, which truncates to the constant mode)."""
    cfg = parse_config(default_example_text())
    if seed is not None:
        cfg.solver_values["seed"] = int(seed)
    if smoke:
        modes, grid = 0, 1
    rep = rp.empty_report("reproduce-example", cfg.to_mapping(), cfg.seed)
    rep["config"]["discretization.M"] = modes
    rep["config"]["discretization.grid_points"] = grid
    if config_ignored:
        rep["diagnostics"]["note"] = ("reproduce-example is config-free; "
                                      "--config was ignored")
    nl = cfg.nonlinearity()
    params = cfg.params(modes=modes, grid_points=grid)
    probe = _solver_probe(cfg)
    problem0 = _problem_sans_lambda(cfg)
    sigmas, rho_star, lam_star, _ = _fill_constants(
        rep, cfg, problem0, params, nl, probe.seed, probe.sigma_starts)
    interval = example_lambda_interval(sigmas, problem0)
    lam = 0.01 if smoke else interval.midpoint
    rho = interval.best_rho
    rep["diagnostics"]["smoke"] = bool(smoke)

    # the benchmark's forcing does not vanish at zero, so u = 0 is never a
    # solution; record the checked value
    x0 = tuple(np.zeros(1) for _ in range(cfg.N))
    f0 = float(np.asarray(nl.f(x0, np.zeros(1)))[0])
    rep["diagnostics"]["f_at_zero"] = f0
    rep["diagnostics"]["f_at_zero_nonzero"] = bool(f0 != 0.0)

    mrep = _run_pipeline(rep, cfg, params, nl, lam, rho, dump_dir)
    if mrep is not None:
        scfg_tol = cfg.solver(rho=rho).distinct_tol
        nontrivial = [bool(s.hs_norm > scfg_tol) for s in mrep.solutions]
        rep["diagnostics"]["nontrivial"] = nontrivial
        if rep["status"] == "two-solutions" and not all(nontrivial):
            rep["status"] = "one-solution-only"
            rep["diagnostics"]["detail"] = (
                "a reported solution is numerically trivial; the benchmark "
                "requires both to be non-trivial")
    return rep


# -- entry point -----------------------------------------------------------------


def main(argv=None) -> int:
    parser = _build_parser()
    command = ""
    t0 = time.perf_counter()
    try:
        args = parser.parse_args(argv)
        command = args.command
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
    except ConfigError as exc:
        rep = rp.empty_report(command, {}, 0)
        rep["status"] = "config-error"
        rep["diagnostics"]["error"] = str(exc)
    sys.stdout.write(rp.to_json(rep))
    elapsed = time.perf_counter() - t0
    print(f"[perifrac] {command or 'usage'}: status={rep['status']} "
          f"wall={elapsed:.3f}s", file=sys.stderr)
    return rp.exit_code_for(rep["status"])
