"""Constrained minimization, path-climbing saddle search, and the
multiplicity pipeline.  At M = 0 (and on the constant-invariant subspace
at any M) the Euler-Lagrange equation collapses to a scalar cubic whose
roots a plain Newton iteration delivers to machine precision; those roots
are the oracles here."""

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.sparse.linalg import LinearOperator, minres

from perifrac import constants, solvers
from perifrac import variational as vr
from perifrac.constants import (InadmissibleLambdaError, best_lambda, certify,
                                sigma_estimate)
from perifrac.extension import kappa
from perifrac.solvers import (BoundaryActiveError, DegeneratePathError,
                              EndpointSearchError, MultiplicityReport,
                              NonConvergenceError,
                              PathCollapseError, SolutionReport, SolverConfig,
                              ball_minimize, find_descent_endpoint,
                              mountain_pass, solve_multiplicity)
from perifrac.spectral import (FourierField, ProblemSpec, SpectrumParams,
                               forward_transform, hs_norm, inverse_transform,
                               mean_value, multiplier_array)
from perifrac.variational import (energy, get_nonlinearity, gradient,
                                  make_nonlinearity, residual_dual_norm,
                                  riesz_representative)

from conftest import random_symmetric_coeffs

BASE = dict(s=0.75, m=1.0, gamma=0.5, T=2.0 * math.pi, N=2)


def scalar_roots(problem):
    """Roots of the constant-field stationarity equation
    (m^{2s} - gamma) c = lam (1 + c^3), i.e. c^3 - a c + 1 = 0 with
    a = (m^{2s} - gamma)/lam: (ball root near 1/a, ridge root near sqrt(a))."""
    a = (problem.m ** (2.0 * problem.s) - problem.gamma) / problem.lam

    def newton(c):
        for _ in range(80):
            c -= (c ** 3 - a * c + 1.0) / (3.0 * c * c - a)
        return c

    return newton(1.0 / a), newton(math.sqrt(a))


# -- scalar problem (M = 0): every stage against the cubic's roots ---------------


def test_ball_minimize_hits_small_root():
    problem = ProblemSpec(lam=0.01, **BASE)
    params = SpectrumParams(0, 2)
    nl = get_nonlinearity("cubic_plus_one")
    c_low, _ = scalar_roots(problem)
    rep = ball_minimize(FourierField.zeros(problem, params),
                        SolverConfig(rho=1.0), nl)
    assert isinstance(rep, SolutionReport)
    assert rep.method == "ball_min"
    assert abs(rep.mean_value - c_low) < 1e-8 * abs(c_low)
    assert rep.residual_dual_norm <= 1e-8
    assert rep.in_ball
    assert rep.counters["iterations_ball"] == rep.iterations


def test_pipeline_two_scalar_solutions():
    problem = ProblemSpec(lam=0.01, **BASE)
    params = SpectrumParams(0, 2)
    nl = get_nonlinearity("cubic_plus_one")
    c_low, c_high = scalar_roots(problem)
    rep = solve_multiplicity(SolverConfig(rho=1.0), nl, problem, params)
    assert isinstance(rep, MultiplicityReport)
    assert rep.status == "two-solutions"
    assert rep.distinct and rep.energy_ordering_ok
    low, high = rep.solutions
    assert (low.method, high.method) == ("ball_min", "mountain_pass")
    assert abs(low.mean_value - c_low) < 1e-8 * abs(c_low)
    assert abs(high.mean_value - c_high) < 1e-8 * abs(c_high)
    # distance between two constants has a closed form
    want_gap = (abs(c_high - c_low) * problem.T ** (problem.N / 2.0)
                * problem.m ** problem.s)
    assert abs(rep.hs_distance - want_gap) < 1e-6 * want_gap
    certificate = certify(1.0, problem, nl, (4.344, 0.3617))
    for key in ("rho", "lambda", "lambda_max_at_rho", "chi_upper",
                "inv_two_lambda", "sigma1", "sigmaq", "ball_radius_hs"):
        assert key in certificate
    assert certificate["lambda"] == problem.lam
    assert certificate["lambda"] < certificate["lambda_max_at_rho"]


def test_pipeline_runs_no_sigma_ascent(monkeypatch):
    # the pipeline takes lambda as given: it needs no sigma and climbs none
    calls = []
    real = constants.rayleigh_ascent

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(constants, "_SIGMA_CACHE", {})
    monkeypatch.setattr(constants, "rayleigh_ascent", spy)
    problem = ProblemSpec(lam=0.01, **BASE)
    rep = solve_multiplicity(SolverConfig(rho=1.0),
                             get_nonlinearity("cubic_plus_one"), problem,
                             SpectrumParams(0, 2))
    assert rep.status == "two-solutions"
    assert calls == []


def test_mountain_pass_needs_interior_ridge():
    problem = ProblemSpec(lam=0.01, **BASE)
    params = SpectrumParams(0, 2)
    nl = get_nonlinearity("cubic_plus_one")
    # both endpoints beyond the ridge: energy decreases monotonically from
    # node 0, so there is no interior maximum to climb
    u_a = FourierField.constant(problem, params, 8.0)
    u_b = FourierField.constant(problem, params, 16.0)
    with pytest.raises(PathCollapseError):
        mountain_pass(u_a, u_b, SolverConfig(rho=1.0), nl)


def test_mountain_pass_rejects_coincident_endpoints():
    problem = ProblemSpec(lam=0.01, **BASE)
    params = SpectrumParams(0, 2)
    nl = get_nonlinearity("cubic_plus_one")
    u = FourierField.constant(problem, params, 0.02)
    with pytest.raises(DegeneratePathError):
        mountain_pass(u, u + FourierField.constant(problem, params, 1e-9),
                      SolverConfig(rho=1.0), nl)


# the path oracle's nonlinearities: the registry cubic, the x-dependent
# forcing of x_dependent_problem, and a cubic with no F (the quadrature
# primitive, so at small M only)
PATH_NONLINEARITIES = ("cubic_plus_one", "x_dependent", "quadrature")


def path_nonlinearity(name):
    if name == "x_dependent":
        return x_dependent_problem(4, 0.5)[0]
    if name == "quadrature":
        return make_nonlinearity("cubic_by_quadrature",
                                 f=lambda x, t: 1.0 + t ** 3, a1=1.0, a2=1.0,
                                 q=4.0, alpha=3.0, r0=2.0)
    return get_nonlinearity(name)


@pytest.mark.parametrize("name", PATH_NONLINEARITIES)
@pytest.mark.parametrize("N, s", [(1, 0.4), (2, 0.75), (3, 0.9)])
def test_path_energies_match_the_energy_of_each_node(name, N, s):
    # node i's samples and quadratic part are affine and quadratic in t, so
    # two transforms give every node; the oracle builds each node's field
    nl = path_nonlinearity(name)
    modes = 1 if name == "quadrature" else 3
    problem = ProblemSpec(s=s, m=1.0, gamma=0.5, lam=0.05, T=2.0 * math.pi,
                          N=N)
    params = SpectrumParams(modes, 2 * modes + 1)
    rng = np.random.default_rng(N)
    u_a = FourierField(0.1 * random_symmetric_coeffs(rng, modes, N), problem,
                       params)
    u_b = (FourierField.constant(problem, params, 8.0)
           + FourierField(random_symmetric_coeffs(rng, modes, N), problem,
                          params))
    P = solvers._PATH_POINTS
    got = solvers._path_energies(u_a, u_b, nl)
    assert len(got) == P - 1
    for i, value in enumerate(got, start=1):
        want = energy(u_a * (1.0 - i / P) + u_b * (i / P), nl)
        assert abs(value - want) <= 1e-12 * abs(want)


def test_path_energies_raise_on_an_overflowing_sum():
    # F is finite on each sample of the far end, their sum is not
    problem = ProblemSpec(lam=0.01, **BASE)
    params = SpectrumParams(1, 3)
    far = FourierField.constant(problem, params, 1e77)
    with pytest.raises(OverflowError, match="rectangle-rule sum"):
        solvers._path_energies(FourierField.zeros(problem, params), far,
                               get_nonlinearity("cubic_plus_one"))


def test_boundary_active_detection():
    # place the ball boundary exactly at the free minimizer's level set:
    # the descent converges there and must refuse to certify the point
    problem = ProblemSpec(lam=0.01, **BASE)
    params = SpectrumParams(0, 2)
    nl = get_nonlinearity("cubic_plus_one")
    c_low, _ = scalar_roots(problem)
    m2s = problem.m ** (2.0 * problem.s)
    e2_star = (kappa(problem.s) * (m2s - problem.gamma)
               * c_low ** 2 * problem.T ** problem.N)
    cfg = SolverConfig(rho=e2_star)
    with pytest.raises(BoundaryActiveError):
        ball_minimize(FourierField.zeros(problem, params), cfg, nl)


def test_endpoint_search_budget():
    problem = ProblemSpec(lam=0.1, **BASE)
    params = SpectrumParams(0, 2)
    nl = get_nonlinearity("cubic_plus_one")
    zero = FourierField.zeros(problem, params)
    # one doubling only tries t = 1, where the quartic well is not yet deep
    with pytest.raises(EndpointSearchError):
        find_descent_endpoint(zero, SolverConfig(rho=1.0, max_doublings=1), nl)
    ep, _ = find_descent_endpoint(zero, SolverConfig(rho=1.0), nl)
    assert energy(ep, nl) < energy(zero, nl) - 1.0
    assert abs(mean_value(ep)) >= nl.r0


def test_endpoint_search_returns_the_endpoint_energy():
    # the returned energy is the last probe's, bit for bit; only probes are
    # counted, whether the caller gives energy(u_loc) or not, and a failed
    # search quotes the energy it had to undercut
    problem = ProblemSpec(lam=0.1, **BASE)
    params = SpectrumParams(2, 6)
    nl = get_nonlinearity("cubic_plus_one")
    zero = FourierField.zeros(problem, params)
    for I_loc in (None, 0.0):
        counters = {}
        ep, I_ep = find_descent_endpoint(zero, SolverConfig(rho=1.0), nl,
                                         counters, I_loc)
        assert I_ep == energy(ep, nl)
        assert counters["energy_evals"] == counters["endpoint_probes"] >= 2
    with pytest.raises(EndpointSearchError, match=r"below -123\.5 - 1 within"):
        find_descent_endpoint(zero, SolverConfig(rho=1.0, max_doublings=1), nl,
                              I_loc=-123.5)


def test_nonconvergence_carries_history():
    problem = ProblemSpec(lam=0.01, **BASE)
    params = SpectrumParams(0, 2)
    nl = get_nonlinearity("cubic_plus_one")
    cfg = SolverConfig(rho=1.0, max_iter=3, grad_tol=1e-300)
    with pytest.raises(NonConvergenceError) as exc_info:
        ball_minimize(FourierField.zeros(problem, params), cfg, nl)
    assert len(exc_info.value.residual_history) == 3


def test_inadmissible_lambda_refused_with_certificate_data():
    problem = ProblemSpec(lam=0.5, **BASE)
    nl = get_nonlinearity("cubic_plus_one")
    with pytest.raises(InadmissibleLambdaError) as exc_info:
        certify(1.0, problem, nl, (4.344, 0.3617))
    err = exc_info.value
    assert err.lam == 0.5
    assert err.rho == 1.0
    assert err.lam_max is not None and err.lam_max < 0.5


def test_one_solution_only_when_saddle_stage_fails():
    problem = ProblemSpec(lam=0.01, **BASE)
    params = SpectrumParams(0, 2)
    nl = get_nonlinearity("cubic_plus_one")
    c_low, _ = scalar_roots(problem)
    rep = solve_multiplicity(SolverConfig(rho=1.0, max_doublings=0), nl,
                             problem, params)
    assert rep.status == "one-solution-only"
    assert len(rep.solutions) == 1
    assert not rep.distinct and rep.hs_distance == 0.0
    assert rep.detail.startswith("EndpointSearchError")
    assert abs(rep.solutions[0].mean_value - c_low) < 1e-8


# -- truncated problem (M = 8): constant subspace is invariant -------------------


def test_pipeline_constant_subspace_at_m8():
    nl = get_nonlinearity("cubic_plus_one")
    probe = ProblemSpec(lam=1.0, **BASE)
    params = SpectrumParams(8, 34)
    s1 = sigma_estimate(1.0, probe, params).value
    s4 = sigma_estimate(4.0, probe, params, seed=0, starts=8).value
    rho_star, lam_star = best_lambda(probe, nl, (s1, s4))
    problem = replace(probe, lam=0.5 * lam_star)
    rep = solve_multiplicity(SolverConfig(rho=rho_star), nl, problem, params)
    assert rep.status == "two-solutions"
    c_low, c_high = scalar_roots(problem)
    for sol, root in zip(rep.solutions, (c_low, c_high)):
        assert abs(sol.mean_value - root) < 1e-8 * abs(root)
        assert sol.residual_dual_norm <= 1e-8
        # starting data and dynamics never leave the constant subspace
        c = sol.field.coeffs.copy()
        c[(8,) * problem.N] = 0.0
        assert np.abs(c).max() < 1e-10
    assert rep.solutions[0].energy < rep.solutions[1].energy


# sigma_4 of the BASE problem from the six-start ascent at seed 0, pinned so
# that the solver tests below run the same problem bit for bit whatever
# roundoff the ascent picks up: their descent-only runs end near the float
# floor of the residual, where the path they take follows the last bits of
# lambda
X_DEPENDENT_SIGMA4 = {4: 0.3580504133970116, 8: 0.3616643798998783}


@pytest.mark.parametrize("modes", sorted(X_DEPENDENT_SIGMA4))
def test_pinned_sigma4_matches_the_ascent(modes):
    probe = ProblemSpec(lam=1.0, **BASE)
    got = sigma_estimate(4.0, probe, SpectrumParams(modes, 4 * modes + 2),
                         seed=0, starts=6).value
    want = X_DEPENDENT_SIGMA4[modes]
    assert abs(got - want) <= 1e-12 * want


# (rho*, lambda_max(rho*)) of x_dependent_problem from those sigmas, pinned
# for the same reason: lambda, and so every iterate, stays the same bits
X_DEPENDENT_BEST = {4: (38.93679878667733, 0.12448857832058371),
                    8: (37.90787290570404, 0.12283272782478404)}


def x_dependent_problem(modes, factor):
    """f(x, t) = c(x) + t^3 with c(x) = 1 + 0.3 cos(omega x_0), at factor
    times the best lambda_max of the modes-M sigmas (sigma_4 pinned in
    X_DEPENDENT_SIGMA4, rho* and lambda_max(rho*) in X_DEPENDENT_BEST):
    the bounds hold with a1 = 1.3, and
    t f - 3 F = t^4/4 - 2 t c(x) >= 0 beyond r0 = (8 * 1.3)^(1/3).
    Returns (nl, problem, params, rho, sigmas)."""
    omega = 2.0 * math.pi / BASE["T"]

    def cx(x):
        return 1.0 + 0.3 * np.cos(omega * x[0])

    nl = make_nonlinearity(
        "modulated_cubic",
        f=lambda x, t: cx(x) + t ** 3,
        F=lambda x, t: cx(x) * t + 0.25 * t ** 4,
        fprime=lambda x, t: 3.0 * t ** 2,
        a1=1.3, a2=1.0, q=4.0, alpha=3.0, r0=(8.0 * 1.3) ** (1.0 / 3.0),
        poly_degree=3,
    )
    probe = ProblemSpec(lam=1.0, **BASE)
    params = SpectrumParams(modes, 4 * modes + 2)
    s1 = sigma_estimate(1.0, probe, params).value
    s4 = X_DEPENDENT_SIGMA4[modes]
    rho_star, lam_star = X_DEPENDENT_BEST[modes]
    problem = replace(probe, lam=factor * lam_star)
    return nl, problem, params, rho_star, (s1, s4)


@pytest.mark.parametrize("modes", sorted(X_DEPENDENT_BEST))
def test_pinned_best_lambda_matches_the_certificate(modes):
    nl, problem, _, rho, sigmas = x_dependent_problem(modes, 1.0)
    rho_star, lam_star = best_lambda(problem, nl, sigmas)
    assert abs(rho_star - rho) <= 1e-7 * rho
    assert abs(lam_star - problem.lam) <= 1e-15 * problem.lam


def solve_x_dependent_forcing():
    """The pipeline on x_dependent_problem at M = 4, half the best
    lambda_max."""
    nl, problem, params, rho, _ = x_dependent_problem(4, 0.5)
    rep = solve_multiplicity(SolverConfig(rho=rho), nl, problem, params)
    return nl, rep


def test_pipeline_x_dependent_forcing():
    # the branches must pick up the x-dependence
    nl, rep = solve_x_dependent_forcing()
    assert rep.status == "two-solutions"
    for sol in rep.solutions:
        assert residual_dual_norm(sol.field, nl) <= 1e-8
        # the forcing mode (1, 0) must be present in the solution
        k10 = abs(sol.field.coeffs[5, 4])
        assert k10 > 1e-4 * hs_norm(sol.field)
    assert rep.hs_distance > SolverConfig(rho=1.0).distinct_tol


def test_pipeline_survives_two_rejected_attempts_per_stage(monkeypatch):
    # the polish does its work and is then rejected from the first two
    # points each stage tries it from, and again whenever it is retried from
    # one of them, as a deterministic failure would be.  The climbing image
    # stalls on this problem right after its second attempt, so the path
    # stage lands only because its across-path step gives the retry a new
    # start
    real = solvers._newton_polish
    rejected = {"ball": [], "path": []}

    def first_two_rejected(u, R, nl, cfg, counters, **kwargs):
        out = real(u, R, nl, cfg, counters, **kwargs)
        points = rejected["path" if "iterations_path" in counters else "ball"]
        if any(np.array_equal(u.coeffs, p) for p in points):
            return None
        if len(points) < 2:
            points.append(u.coeffs.copy())
            return None
        return out

    monkeypatch.setattr(solvers, "_newton_polish", first_two_rejected)
    nl, rep = solve_x_dependent_forcing()
    assert [len(p) for p in rejected.values()] == [2, 2]
    assert rep.status == "two-solutions", rep.detail
    assert rep.counters["polish_attempts"] >= 6
    for sol in rep.solutions:
        assert residual_dual_norm(sol.field, nl) <= 1e-8
    assert rep.solutions[0].energy < rep.solutions[1].energy


@pytest.mark.parametrize("stall_at, lands", [(3, True), (2, False)])
def test_stalled_ball_descent_retries_the_polish(monkeypatch, stall_at,
                                                 lands):
    # attempts 1 and 2 are rejected, and the descent stalls on iteration
    # stall_at.  From iteration 3 the polish has not been tried, so it is
    # brought forward to iteration 4 and lands; on iteration 2 it was just
    # rejected from the stalled point, and retrying would repeat it
    real_polish, real_armijo = solvers._newton_polish, solvers._armijo
    calls = {"polish": 0, "armijo": 0}

    def polish(u, *args, **kwargs):
        calls["polish"] += 1
        out = real_polish(u, *args, **kwargs)
        return None if calls["polish"] <= 2 else out

    def armijo(*args, **kwargs):
        calls["armijo"] += 1
        return None if calls["armijo"] == stall_at else real_armijo(*args,
                                                                    **kwargs)

    monkeypatch.setattr(solvers, "_newton_polish", polish)
    monkeypatch.setattr(solvers, "_armijo", armijo)
    problem = ProblemSpec(lam=0.05, **BASE)
    params = SpectrumParams(4, 10)
    nl = get_nonlinearity("cubic_plus_one")
    start = FourierField.zeros(problem, params)
    if not lands:
        with pytest.raises(NonConvergenceError, match="stalled"):
            ball_minimize(start, SolverConfig(rho=1.0), nl)
        assert calls["polish"] == 2
        return
    rep = ball_minimize(start, SolverConfig(rho=1.0), nl)
    assert rep.iterations == 4 and calls["polish"] == 3
    assert rep.residual_dual_norm <= 1e-8


def test_ball_polish_must_land_downhill_from_the_start(monkeypatch):
    # from zero, a small negative constant has energy above the start
    # (F(t) = t + t^4/4), a small positive one below it; both are in the ball
    accepts = []
    monkeypatch.setattr(solvers, "_newton_polish",
                        lambda u, R, nl, cfg, counters, *, accept, max_move:
                        accepts.append(accept))
    problem = ProblemSpec(lam=0.01, **BASE)
    params = SpectrumParams(2, 6)
    nl = get_nonlinearity("cubic_plus_one")
    ball_minimize(FourierField.zeros(problem, params), SolverConfig(rho=1.0),
                  nl)
    accept = accepts[0]
    small = FourierField.constant(problem, params, 1e-3)
    assert energy(small * -1.0, nl) > 0.0 > energy(small, nl)
    assert accept(small) is not None and accept(small * -1.0) is None


def test_ball_descent_stalls_when_steps_cannot_move_the_field(monkeypatch):
    # without the polish, the descent on the x-dependent forcing at M = 8
    # stops improving near residual 1e-8: the steps it still accepts are
    # below the float resolution of the field.  With grad_tol far below
    # that floor it must end the stage as a stall, not spend the whole
    # iteration budget, whatever the last bits of the transforms
    monkeypatch.setattr(solvers, "_newton_polish",
                        lambda *args, **kwargs: None)
    nl, problem, params, rho, _ = x_dependent_problem(8, 0.5)
    with pytest.raises(NonConvergenceError, match="stalled"):
        ball_minimize(FourierField.zeros(problem, params),
                      SolverConfig(rho=rho, max_iter=100, grad_tol=1e-12), nl)


def test_ball_minimize_evaluates_each_point_energy_once(monkeypatch):
    # the energy of the current point is carried from the Armijo step that
    # accepted it: one evaluation for the start and one per line-search
    # trial, whatever the number of iterations; the report takes the carried
    # value.  The polish would finish on iteration 1, so it is switched off
    # to leave a descent-only run
    calls = []
    real_energy = solvers.vr.energy

    def spy(u, nl, *args, **kwargs):
        calls.append(u)
        return real_energy(u, nl, *args, **kwargs)

    monkeypatch.setattr(solvers.vr, "energy", spy)
    monkeypatch.setattr(solvers, "_newton_polish",
                        lambda *args, **kwargs: None)
    nl = make_nonlinearity(
        "modulated_cubic",
        f=lambda x, t: 1.0 + 0.3 * np.cos(x[0]) + t ** 3,
        F=lambda x, t: (1.0 + 0.3 * np.cos(x[0])) * t + 0.25 * t ** 4,
        fprime=lambda x, t: 3.0 * t ** 2,
        a1=1.3, a2=1.0, q=4.0, alpha=3.0, r0=(8.0 * 1.3) ** (1.0 / 3.0),
        poly_degree=3,
    )
    problem = ProblemSpec(lam=0.05, **BASE)
    params = SpectrumParams(4, 10)
    rep = ball_minimize(FourierField.zeros(problem, params),
                        SolverConfig(rho=1.0), nl)
    trials = rep.counters["line_search_trials"]
    assert rep.iterations >= 5
    assert rep.counters["energy_evals"] == 1 + trials
    assert len(calls) == 1 + trials
    assert rep.energy == real_energy(rep.field, nl)


# -- Newton first, with back-off; the fallbacks converge alone ---------------------

# lambda at half the seed-0 lambda_max, at its rho: the paper's example
# (N=2, M=8) and a 3-D problem (N=3, s=0.9, M=5)
STAGE_CASES = {
    "paper-N2-M8": (dict(s=0.75, N=2), SpectrumParams(8, 32),
                    0.5 * 0.14631078198381178, 31.824909523391405),
    "N3-s0.9-M5": (dict(s=0.9, N=3), SpectrumParams(5, 11),
                   0.5 * 0.12638961059060816, 364.6907023587712),
}


def run_stages(case):
    """Ball stage, endpoint and saddle stage, each with its own counters."""
    dims, params, lam, rho = STAGE_CASES[case]
    problem = ProblemSpec(m=1.0, gamma=0.5, lam=lam, T=2.0 * math.pi, **dims)
    nl = get_nonlinearity("cubic_plus_one")
    cfg = SolverConfig(rho=rho)
    low = ball_minimize(FourierField.zeros(problem, params), cfg, nl,
                        counters={})
    endpoint, _ = find_descent_endpoint(low.field, cfg, nl)
    high = mountain_pass(low.field, endpoint, cfg, nl, counters={})
    return cfg, low, high


@pytest.mark.parametrize("case", sorted(STAGE_CASES))
def test_stages_converge_without_the_polish(monkeypatch, case):
    _, low_ref, high_ref = run_stages(case)
    assert low_ref.iterations == high_ref.iterations == 1
    monkeypatch.setattr(solvers, "_newton_polish",
                        lambda *args, **kwargs: None)
    cfg, low, high = run_stages(case)
    assert low.residual_dual_norm <= cfg.grad_tol
    assert high.residual_dual_norm <= cfg.grad_tol
    assert high.iterations > 1
    # the climbing-image fallback lands on the saddle that Newton finds
    assert hs_norm(high.field - high_ref.field) <= 1e-6
    assert hs_norm(low.field - low_ref.field) <= 1e-6


@pytest.mark.parametrize("modes", [4, 8])
def test_saddle_fallback_converges_off_the_constant_subspace(monkeypatch,
                                                             modes):
    # x-dependent forcing at 0.9 of the best lambda_max: the ball stage
    # keeps the polish, the saddle stage runs on the climbing image alone
    nl, problem, params, rho, _ = x_dependent_problem(modes, 0.9)
    cfg = SolverConfig(rho=rho)
    low = ball_minimize(FourierField.zeros(problem, params), cfg, nl)
    endpoint, _ = find_descent_endpoint(low.field, cfg, nl)
    monkeypatch.setattr(solvers, "_newton_polish",
                        lambda *args, **kwargs: None)
    high = mountain_pass(low.field, endpoint, cfg, nl)
    assert high.residual_dual_norm <= cfg.grad_tol
    assert high.energy > max(low.energy, energy(endpoint, nl))
    for end in (low.field, endpoint):
        assert hs_norm(high.field - end) > cfg.distinct_tol


def saddle_without_the_polish(monkeypatch, **cfg):
    """The saddle stage on the x-dependent forcing at 0.5 of the best
    lambda_max, from the ball stage's minimizer (which keeps the polish),
    with the polish switched off for the saddle stage alone."""
    nl, problem, params, rho, _ = x_dependent_problem(4, 0.5)
    cfg = SolverConfig(rho=rho, **cfg)
    low = ball_minimize(FourierField.zeros(problem, params), cfg, nl)
    endpoint, _ = find_descent_endpoint(low.field, cfg, nl)
    monkeypatch.setattr(solvers, "_newton_polish",
                        lambda *args, **kwargs: None)
    return mountain_pass(low.field, endpoint, cfg, nl)


def test_saddle_search_raises_on_a_second_stall(monkeypatch):
    # no climbing step lowers the residual here, and after the one Armijo
    # step across the path none does either: the stage ends as a stall
    with pytest.raises(NonConvergenceError,
                       match=r"^saddle search stalled at residual") as info:
        saddle_without_the_polish(monkeypatch)
    assert info.value.residual_history


def test_saddle_search_raises_when_the_budget_runs_out(monkeypatch):
    with pytest.raises(NonConvergenceError,
                       match=r"^saddle search did not reach grad_tol=1\.0e-08 "
                             r"in 2 iterations") as info:
        saddle_without_the_polish(monkeypatch, max_iter=2)
    assert len(info.value.residual_history) == 2


def test_polish_backs_off_after_rejections(monkeypatch):
    # every attempt does its work and is then rejected
    real = solvers._newton_polish
    attempts = []

    def rejected(u, *args, **kwargs):
        attempts.append(u)
        real(u, *args, **kwargs)
        return None

    monkeypatch.setattr(solvers, "_newton_polish", rejected)
    _, low, high = run_stages("paper-N2-M8")
    assert len(attempts) == (low.counters["polish_attempts"]
                             + high.counters["polish_attempts"])
    for rep in (low, high):
        n = rep.counters["polish_attempts"]
        assert n <= math.floor(math.log2(rep.iterations)) + 1
        # attempts fall on iterations 1, 2, 4, ... before the last one
        assert n == sum(1 for k in range(rep.iterations) if 2 ** k < rep.iterations)


# -- matrix-free Newton operator against the dense basis assembly ----------------


def dense_jacobian(problem, params, d):
    """L - lam diag(d) in the sample basis of the minimal grid, assembled
    column by column: transform each sample basis vector to coefficients,
    multiply mode k by mu_k^s - gamma, transform back."""
    n, N = params.grid_points, problem.N
    D = n ** N
    sym = multiplier_array(problem, params) - problem.gamma
    L = np.empty((D, D))
    basis = np.zeros((n,) * N)
    for j in range(D):
        idx = np.unravel_index(j, basis.shape)
        basis[idx] = 1.0
        c = forward_transform(basis, problem, params).coeffs
        L[:, j] = inverse_transform(FourierField(sym * c, problem,
                                                 params)).reshape(-1)
        basis[idx] = 0.0
    return L - problem.lam * np.diag(d.reshape(-1))


def flat(c):
    """The flat real view of a mode cube, the operators' vector space."""
    return np.ascontiguousarray(c).reshape(-1).view(float)


def in_samples(problem, params, x):
    """Flattened minimal-grid samples of the cube whose flat view is x."""
    c = x.view(complex).reshape((params.grid_points,) * problem.N)
    return inverse_transform(FourierField(c, problem, params)).reshape(-1)


def in_modes(problem, params, samples):
    """Flat view of the coefficients of flattened minimal-grid samples."""
    grid = samples.reshape((params.grid_points,) * problem.N)
    return flat(forward_transform(grid, problem, params).coeffs)


@pytest.mark.parametrize("N, s, modes", [(1, 0.4, 5), (2, 0.75, 3),
                                         (3, 0.9, 2)])
@pytest.mark.parametrize("shift", [1.0, -2.0])
def test_matrix_free_jacobian_matches_dense_assembly(N, s, modes, shift):
    # shift = -2 makes mean(d) negative, which the preconditioner clamps
    problem = ProblemSpec(s=s, m=1.0, gamma=0.5, lam=0.2,
                          T=2.0 * math.pi, N=N)
    params = SpectrumParams(modes, 2 * modes + 1)
    n = params.grid_points
    D = n ** N
    rng = np.random.default_rng(N)
    d = 3.0 * rng.standard_normal((n,) * N) ** 2 * shift
    J_ref = dense_jacobian(problem, params, d)
    nl = replace(get_nonlinearity("cubic_plus_one"), fprime=lambda x, t: d)
    jac, prec = solvers._jacobian_operators(
        FourierField.zeros(problem, params), nl)
    xs = [flat(random_symmetric_coeffs(rng, modes, N)) for _ in range(D)]
    X = np.column_stack(xs)
    J = np.column_stack([jac(x) for x in xs])
    want = np.column_stack([
        in_modes(problem, params, J_ref @ in_samples(problem, params, x))
        for x in xs])
    scale = np.abs(want).max()
    assert np.abs(J - want).max() <= 1e-12 * scale
    # symmetric in Re sum conj(a_k) b_k: <a, J b> = <J a, b>
    gram = X.T @ J
    assert np.abs(gram - gram.T).max() <= 1e-12 * np.abs(gram).max()
    # P is diagonal and positive, on every real and imaginary part
    diagonal = prec(np.ones(2 * D))
    assert diagonal.min() > 0.0
    assert all(np.array_equal(prec(x), diagonal * x) for x in xs)
    b = xs[0]
    want = in_modes(problem, params,
                    np.linalg.solve(J_ref, in_samples(problem, params, b)))
    got, info, iterations = solvers._minres(jac, b, prec, 1e-12)
    assert info == 0 and 1 <= iterations <= 5 * b.size
    assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)
    # scipy's minres at the same rtol, as an independent oracle
    theirs, _ = minres(LinearOperator((2 * D, 2 * D), matvec=jac, dtype=float),
                       b, M=LinearOperator((2 * D, 2 * D), matvec=prec,
                                           dtype=float),
                       rtol=1e-12)
    assert np.linalg.norm(got - theirs) <= 1e-10 * np.linalg.norm(theirs)


@pytest.mark.parametrize("N, s, modes", [(1, 0.4, 5), (2, 0.75, 3),
                                         (3, 0.9, 2)])
def test_half_cube_operators_match_the_transform_pair_bitwise(N, s, modes):
    # the matvecs skip the symmetry check of the public pair, not a bit
    problem = ProblemSpec(s=s, m=1.0, gamma=0.5, lam=0.2,
                          T=2.0 * math.pi, N=N)
    params = SpectrumParams(modes, 2 * modes + 1)
    n = params.grid_points
    rng = np.random.default_rng(N)
    d = 3.0 * rng.standard_normal((n,) * N) ** 2
    symbol = multiplier_array(problem, params) - problem.gamma
    inv_prec = 1.0 / (symbol + problem.lam * max(float(np.mean(d)), 0.0))

    nl = replace(get_nonlinearity("cubic_plus_one"), fprime=lambda x, t: d)
    jac, prec = solvers._jacobian_operators(
        FourierField.zeros(problem, params), nl)
    for _ in range(3):
        c = random_symmetric_coeffs(rng, modes, N)
        samples = inverse_transform(FourierField(c, problem, params), n)
        image = forward_transform(d * samples, problem, params).coeffs
        assert np.array_equal(jac(flat(c)),
                              flat(symbol * c - problem.lam * image))
        assert np.array_equal(prec(flat(c)), flat(inv_prec * c))


def polish_alone(u, nl, cfg, counters, max_move=math.inf):
    """The Newton polish from u outside a stage: R is the weak residual at
    u, and any landing is accepted, with its energy."""
    return solvers._newton_polish(u, vr.weak_residual(u, nl), nl, cfg,
                                  counters, accept=lambda w: energy(w, nl),
                                  max_move=max_move)


def test_polish_steps_keep_the_hermitian_symmetry_exact(monkeypatch):
    # every trial point is cur + tau delta in mode space, and MINRES keeps
    # delta's conjugate pairs exact, so no trial loses a bit of symmetry
    problem = ProblemSpec(lam=0.01, **BASE)
    params = SpectrumParams(3, 8)
    nl = get_nonlinearity("cubic_plus_one")
    c_low, _ = scalar_roots(problem)
    u = (FourierField.constant(problem, params, 1.5 * c_low)
         + FourierField.from_modes(problem, params, {(1, 0): 0.1 - 0.05j}))
    defects = []
    real = vr.weak_residual

    def weak_residual(w, nl):
        defects.append(w.hermitian_defect())
        return real(w, nl)

    monkeypatch.setattr(vr, "weak_residual", weak_residual)
    counters = {}
    landed = polish_alone(u, nl, SolverConfig(rho=1.0), counters)
    assert landed and counters["newton_steps"] >= 2
    assert len(defects) > counters["newton_steps"]
    assert defects == [0.0] * len(defects)
    assert landed[0].hermitian_defect() == 0.0


def test_polish_broadcasts_a_scalar_fprime():
    # a user f' may return one number for the whole grid
    problem = ProblemSpec(lam=0.01, **BASE)
    params = SpectrumParams(3, 8)
    nl = replace(get_nonlinearity("cubic_plus_one"), fprime=lambda x, t: 0.27)
    c_low, _ = scalar_roots(problem)
    u = (FourierField.constant(problem, params, 1.01 * c_low)
         + FourierField.from_modes(problem, params, {(1, 0): 1e-3}))
    cfg = SolverConfig(rho=1.0)
    counters = {}
    landed = polish_alone(u, nl, cfg, counters)
    assert landed and residual_dual_norm(landed[0], nl) <= cfg.grad_tol
    assert counters["newton_steps"] >= 1


def test_minres_reports_breakdown_instead_of_raising():
    # psolve not SPD: <b, psolve(b)> < 0 before the first step, and a
    # psolve indefinite on the second Lanczos vector inside the loop
    A = np.array([[0.0, 1.0], [1.0, 0.0]])
    b = np.array([1.0, 0.0])
    x, info, iterations = solvers._minres(lambda v: A @ v, b, lambda v: -v,
                                          1e-12)
    assert info < 0 and iterations == 0 and np.array_equal(x, np.zeros(2))
    x, info, iterations = solvers._minres(
        lambda v: A @ v, b, lambda v: np.array([v[0], -v[1]]), 1e-12)
    assert info < 0 and iterations == 1 and np.all(np.isfinite(x))


def test_minres_reports_its_iteration_limit():
    # rtol = 0 is never met, so MINRES runs its 5 len(b) iterations; the
    # steps past convergence move x by roundoff only
    A = np.array([[4.0, 1.0, 0.0], [1.0, 3.0, 1.0], [0.0, 1.0, 2.0]])
    b = np.ones(3)
    x, info, iterations = solvers._minres(lambda v: A @ v, b, lambda v: v, 0.0)
    assert info == iterations == 15
    assert np.allclose(x, np.linalg.solve(A, b), rtol=0.0, atol=1e-14)


@pytest.mark.parametrize("failure", ["nan-step", "breakdown"])
def test_polish_rejects_failed_krylov_solve(monkeypatch, failure):
    # near the ball minimizer, off the constant subspace: the unpatched
    # polish converges from here in one attempt
    problem = ProblemSpec(lam=0.01, **BASE)
    params = SpectrumParams(2, 8)
    nl = get_nonlinearity("cubic_plus_one")
    c_low, _ = scalar_roots(problem)
    u = (FourierField.constant(problem, params, 1.01 * c_low)
         + FourierField.from_modes(problem, params, {(1, 0): 1e-3}))
    cfg = SolverConfig(rho=1.0)
    counters = {}
    landed = polish_alone(u, nl, cfg, counters)
    assert landed and residual_dual_norm(landed[0], nl) <= cfg.grad_tol
    assert counters["krylov_iterations"] > 0

    solve = solvers._minres

    def broken(matvec, b, psolve, rtol):
        x, _, iterations = solve(matvec, b, psolve, rtol)
        if failure == "nan-step":
            return np.full_like(b, np.nan), 0, iterations
        return x, -1, iterations

    monkeypatch.setattr(solvers, "_minres", broken)
    counters = {}
    assert polish_alone(u, nl, cfg, counters) is None
    assert counters["newton_steps"] == 1


def test_polish_trust_radius_rejects_every_trial(monkeypatch):
    # the same start, with a trust radius of zero: every trial lies outside
    # it, so the line search evaluates no residual and the polish does not
    # land; only the start's residual is computed
    problem = ProblemSpec(lam=0.01, **BASE)
    params = SpectrumParams(2, 8)
    nl = get_nonlinearity("cubic_plus_one")
    c_low, _ = scalar_roots(problem)
    u = (FourierField.constant(problem, params, 1.01 * c_low)
         + FourierField.from_modes(problem, params, {(1, 0): 1e-3}))
    calls = []
    real = vr.weak_residual
    monkeypatch.setattr(vr, "weak_residual",
                        lambda w, nl: (calls.append(w), real(w, nl))[1])
    counters = {}
    assert polish_alone(u, nl, SolverConfig(rho=1.0), counters,
                        max_move=0.0) is None
    assert len(calls) == 1 and calls[0] is u
    assert counters["newton_steps"] == 1


@pytest.mark.parametrize("root", [0, 1])
def test_exact_preconditioner_takes_one_krylov_iteration_per_newton_step(root):
    # on a constant field f'(u) is constant, so the preconditioner is the
    # exact inverse of the Jacobian and MINRES solves each step at once
    problem = ProblemSpec(lam=0.07, **BASE)   # near the example midpoint 0.0741
    params = SpectrumParams(4, 9)
    nl = get_nonlinearity("cubic_plus_one")
    c = scalar_roots(problem)[root]
    u = FourierField.constant(problem, params, 1.2 * c)
    cfg = SolverConfig()
    counters = {}
    landed = polish_alone(u, nl, cfg, counters)
    assert landed and residual_dual_norm(landed[0], nl) <= cfg.grad_tol
    assert abs(mean_value(landed[0]) - c) <= 1e-6 * c   # that root, not the other
    assert counters["newton_steps"] >= 2
    assert counters["krylov_iterations"] == counters["newton_steps"]


def spy_gradient(monkeypatch, log):
    """Log ("gradient", coefficient bytes) for every variational.gradient
    call, weak_residual's and residual_dual_norm's included."""
    real = vr.gradient

    def gradient(u, nl):
        log.append(("gradient", u.coeffs.tobytes()))
        return real(u, nl)

    monkeypatch.setattr(vr, "gradient", gradient)


def test_polish_evaluates_each_point_once(monkeypatch):
    # an accepted trial's residual is the next step's right-hand side
    problem = ProblemSpec(lam=0.01, **BASE)
    params = SpectrumParams(2, 8)
    nl = get_nonlinearity("cubic_plus_one")
    c_low, _ = scalar_roots(problem)
    u = (FourierField.constant(problem, params, 1.5 * c_low)
         + FourierField.from_modes(problem, params, {(1, 0): 0.1}))
    log = []
    spy_gradient(monkeypatch, log)
    counters = {}
    landed = polish_alone(u, nl, SolverConfig(rho=1.0), counters)
    assert landed and counters["newton_steps"] >= 2
    points = [key for _, key in log]
    assert len(points) == len(set(points))


def test_no_residual_between_landed_polish_and_report(monkeypatch):
    # after a landed polish each stage goes straight to its report, which
    # takes the residual norm and the energy the landing holds: no point's
    # gradient is evaluated twice, the stage's start included
    problem = ProblemSpec(lam=0.01, **BASE)
    params = SpectrumParams(2, 8)
    nl = get_nonlinearity("cubic_plus_one")
    cfg = SolverConfig(rho=1.0)
    log = []
    spy_gradient(monkeypatch, log)
    polish, report = solvers._newton_polish, solvers._solution_report

    def logged_polish(*args, **kwargs):
        out = polish(*args, **kwargs)
        if out is not None:
            log.append(("landed", None))
        return out

    def logged_report(*args, **kwargs):
        log.append(("report", None))
        return report(*args, **kwargs)

    monkeypatch.setattr(solvers, "_newton_polish", logged_polish)
    monkeypatch.setattr(solvers, "_solution_report", logged_report)
    low = ball_minimize(FourierField.zeros(problem, params), cfg, nl)
    end, _ = find_descent_endpoint(low.field, cfg, nl)
    mountain_pass(low.field, end, cfg, nl)
    events = [kind for kind, _ in log]
    assert events.count("landed") == 2
    for i, kind in enumerate(events):
        if kind == "landed":
            assert events[i + 1] == "report"
    points = [key for kind, key in log if kind == "gradient"]
    assert len(points) == len(set(points))


def test_polish_without_fprime_uses_a_finite_difference_jacobian():
    # with no fprime make_nonlinearity differentiates f by central
    # differences; both stages must still land on iteration 1, on the
    # solutions that the exact Jacobian finds
    problem = ProblemSpec(lam=0.02, **BASE)
    params = SpectrumParams(4, 10)
    nl = get_nonlinearity("cubic_plus_one")
    fd_nl = make_nonlinearity(nl.name, nl.f, nl.F, a1=nl.a1, a2=nl.a2, q=nl.q,
                              alpha=nl.alpha, r0=nl.r0,
                              poly_degree=nl.poly_degree)
    exact, fd = (solve_multiplicity(SolverConfig(rho=1.0), n, problem, params)
                 for n in (nl, fd_nl))
    assert fd.status == "two-solutions"
    assert [s.iterations for s in fd.solutions] == [1, 1]
    for a, b in zip(exact.solutions, fd.solutions):
        assert hs_norm(a.field - b.field) <= 1e-10


# -- config validation ------------------------------------------------------------


@pytest.mark.parametrize("bad", [
    dict(rho=0.0),
    dict(rho=-2.0),
    dict(grad_tol=0.0),
    dict(distinct_tol=-1.0),
    dict(distinct_tol=0.0),
    dict(grad_tol=-1e-8),
    dict(max_iter=0),
    dict(max_iter=-5),
    dict(max_doublings=-1),
])
def test_solver_config_rejects(bad):
    with pytest.raises(ValueError):
        SolverConfig(**bad)


def test_solver_config_defaults_are_valid():
    cfg = SolverConfig()
    assert cfg.rho == 1.0 and cfg.max_iter == 2000 and cfg.max_doublings == 40
    # zero doublings is a valid budget: the endpoint search then gives up
    assert SolverConfig(max_doublings=0).max_doublings == 0


def test_armijo_accepts_descent_and_reports_stall():
    problem = ProblemSpec(lam=0.01, **BASE)
    params = SpectrumParams(0, 2)
    nl = get_nonlinearity("cubic_plus_one")
    u = FourierField.zeros(problem, params)
    riesz = riesz_representative(gradient(u, nl))
    I0 = energy(u, nl)
    counters = {}
    u_new, I_new, tau = solvers._armijo(u, riesz, I0, 1.0, nl, counters)
    assert I_new == energy(u_new, nl) < I0
    assert 0.0 < tau <= 1.0
    assert counters["line_search_trials"] == counters["energy_evals"] >= 1
    # uphill along +riesz no step length passes the sufficient-decrease test
    counters = {}
    assert solvers._armijo(u, -riesz, I0, 1.0, nl, counters) is None
    assert counters["line_search_trials"] == solvers._MAX_HALVINGS
    # from a nonzero field, a step too short to move it in floating point
    # is a stall, reported before any trial
    u1 = FourierField.constant(problem, params, 1.0)
    tiny = riesz * (0.5 * np.finfo(float).eps * hs_norm(u1) / hs_norm(riesz))
    counters = {}
    assert solvers._armijo(u1, tiny, energy(u1, nl), 1.0, nl, counters) is None
    assert counters == {}
