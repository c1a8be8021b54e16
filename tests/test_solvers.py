"""Constrained minimization, the saddle search by Newton from a path's
nodes, and the multiplicity pipeline.  At M = 0 (and on the constant-invariant subspace
at any M) the Euler-Lagrange equation collapses to a scalar cubic whose
roots a plain Newton iteration delivers to machine precision; those roots
are the oracles here."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.sparse.linalg import LinearOperator, minres

from perifrac import constants, solvers
from perifrac import spectral as sp
from perifrac import variational as vr
from perifrac.constants import (InadmissibleLambdaError, best_lambda, certify,
                                sigma_estimate)
from perifrac.solvers import (BoundaryActiveError, DegeneratePathError,
                              EndpointSearchError, MultiplicityReport,
                              NonConvergenceError,
                              PathCollapseError, SolutionReport, SolverConfig,
                              ball_minimize, find_descent_endpoint,
                              mountain_pass, solve_multiplicity)
from perifrac.spectral import (FourierField, ProblemSpec, SpectrumParams,
                               forward_transform, hs_norm, inverse_transform,
                               kappa, mean_value, multiplier_array)
from perifrac.variational import (Nonlinearity, energy, get_nonlinearity,
                                  gradient, residual_dual_norm,
                                  riesz_representative)

from conftest import random_symmetric_coeffs
from manufactured import manufactured_forcing, manufactured_problem

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
    counters = {}
    rep = ball_minimize(FourierField.zeros(problem, params),
                        SolverConfig(rho=1.0), nl, counters)
    assert isinstance(rep, SolutionReport)
    assert rep.method == "ball_min"
    assert abs(rep.mean_value - c_low) < 1e-8 * abs(c_low)
    assert rep.residual_dual_norm <= 1e-8
    assert rep.in_ball
    assert counters["iterations_ball"] == rep.iterations


def test_pipeline_two_scalar_solutions():
    problem = ProblemSpec(lam=0.01, **BASE)
    params = SpectrumParams(0, 2)
    nl = get_nonlinearity("cubic_plus_one")
    c_low, c_high = scalar_roots(problem)
    rep = solve_multiplicity(SolverConfig(rho=1.0), nl, problem, params)
    assert isinstance(rep, MultiplicityReport)
    assert rep.status == "two-solutions"
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
    # node 0, so there is no interior maximum to start from
    u_a = FourierField.constant(problem, params, 8.0)
    u_b = FourierField.constant(problem, params, 16.0)
    with pytest.raises(PathCollapseError):
        mountain_pass(u_a, u_b, SolverConfig(rho=1.0), nl, {},
                      (energy(u_a, nl), energy(u_b, nl)))


def test_mountain_pass_rejects_coincident_endpoints():
    problem = ProblemSpec(lam=0.01, **BASE)
    params = SpectrumParams(0, 2)
    nl = get_nonlinearity("cubic_plus_one")
    u = FourierField.constant(problem, params, 0.02)
    v = u + FourierField.constant(problem, params, 1e-9)
    with pytest.raises(DegeneratePathError):
        mountain_pass(u, v, SolverConfig(rho=1.0), nl, {},
                      (energy(u, nl), energy(v, nl)))


def test_saddle_search_tries_every_node_highest_first(monkeypatch):
    # with no landing, the polish starts from the 15 interior nodes of the
    # path, highest energy first, then from the 48 nodes of the path
    # sampled at 65 that the first sampling lacks, in the same order
    problem = ProblemSpec(lam=0.01, **BASE)
    params = SpectrumParams(2, 6)
    nl = get_nonlinearity("cubic_plus_one")
    cfg = SolverConfig(rho=1.0)
    low = ball_minimize(FourierField.zeros(problem, params), cfg, nl, {})
    endpoint, _ = find_descent_endpoint(low.field, cfg, nl, {},
                                        energy(low.field, nl))
    starts = []
    monkeypatch.setattr(solvers, "_newton_polish",
                        lambda u, *args, **kwargs: starts.append(u))
    counters = {}
    with pytest.raises(NonConvergenceError,
                       match="Newton landed from none of 63 path nodes"):
        mountain_pass(low.field, endpoint, cfg, nl, counters,
                      (energy(low.field, nl), energy(endpoint, nl)))
    assert counters["iterations_path"] == counters["polish_attempts"] == 63
    assert counters["energy_evals"] == 17 + 65
    coarse, fine = starts[:15], starts[15:]
    for nodes, P in ((coarse, 16), (fine, 64)):
        grid = [low.field * (1.0 - i / P) + endpoint * (i / P)
                for i in range(1, P)]
        ranks = [next(i for i, w in enumerate(grid)
                      if np.array_equal(w.coeffs, u.coeffs)) for u in nodes]
        assert len(set(ranks)) == len(nodes)
        values = [energy(u, nl) for u in nodes]
        assert values == sorted(values, reverse=True)
    assert not any(np.array_equal(u.coeffs, w.coeffs)
                   for u in fine for w in coarse)


# the path oracle's nonlinearities: the registry cubic and the x-dependent
# forcing of x_dependent_problem
PATH_NONLINEARITIES = ("cubic_plus_one", "x_dependent")


def path_nonlinearity(name):
    if name == "x_dependent":
        return x_dependent_problem(4, 0.5)[0]
    return get_nonlinearity(name)


@pytest.mark.parametrize("name", PATH_NONLINEARITIES)
@pytest.mark.parametrize("N, s", [(1, 0.4), (2, 0.75), (3, 0.9)])
def test_path_energies_match_the_energy_of_each_node(name, N, s):
    # node i's samples and quadratic part are affine and quadratic in t, so
    # two transforms give every node; the oracle builds each node's field
    nl = path_nonlinearity(name)
    modes = 3
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
        ball_minimize(FourierField.zeros(problem, params), cfg, nl, {})


def test_endpoint_search_budget():
    problem = ProblemSpec(lam=0.1, **BASE)
    params = SpectrumParams(0, 2)
    nl = get_nonlinearity("cubic_plus_one")
    zero = FourierField.zeros(problem, params)
    # one doubling only tries t = 1, where the quartic well is not yet deep
    with pytest.raises(EndpointSearchError):
        find_descent_endpoint(zero, SolverConfig(rho=1.0, max_doublings=1), nl,
                              {}, energy(zero, nl))
    ep, _ = find_descent_endpoint(zero, SolverConfig(rho=1.0), nl, {},
                                  energy(zero, nl))
    assert energy(ep, nl) < energy(zero, nl) - 1.0
    assert abs(mean_value(ep)) >= nl.r0


def test_endpoint_search_returns_the_endpoint_energy():
    # the returned energy is the last probe's, bit for bit; only probes are
    # counted, and a failed search quotes the energy it had to undercut
    problem = ProblemSpec(lam=0.1, **BASE)
    params = SpectrumParams(2, 6)
    nl = get_nonlinearity("cubic_plus_one")
    zero = FourierField.zeros(problem, params)
    counters = {}
    ep, I_ep = find_descent_endpoint(zero, SolverConfig(rho=1.0), nl,
                                     counters, 0.0)
    assert I_ep == energy(ep, nl)
    assert counters["energy_evals"] == counters["endpoint_probes"] >= 2
    with pytest.raises(EndpointSearchError, match=r"below -123\.5 - 1 within"):
        find_descent_endpoint(zero, SolverConfig(rho=1.0, max_doublings=1), nl,
                              {}, -123.5)


def test_nonconvergence_carries_history():
    problem = ProblemSpec(lam=0.01, **BASE)
    params = SpectrumParams(0, 2)
    nl = get_nonlinearity("cubic_plus_one")
    cfg = SolverConfig(rho=1.0, max_iter=3, grad_tol=1e-300)
    with pytest.raises(NonConvergenceError) as exc_info:
        ball_minimize(FourierField.zeros(problem, params), cfg, nl, {})
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
    assert rep.hs_distance == 0.0
    assert rep.detail.startswith("EndpointSearchError")
    assert abs(rep.solutions[0].mean_value - c_low) < 1e-8


def test_saddle_within_distinct_tol_leaves_one_solution():
    # the scalar saddle lies 44.24 from the ball minimizer in Hs: at
    # distinct_tol = 50 the saddle stage's rule rejects it from every start,
    # so the pipeline lists the ball solution alone
    problem = ProblemSpec(lam=0.01, **BASE)
    rep = solve_multiplicity(SolverConfig(rho=1.0, distinct_tol=50),
                             get_nonlinearity("cubic_plus_one"), problem,
                             SpectrumParams(0, 2))
    assert rep.status == "one-solution-only"
    assert len(rep.solutions) == 1 and rep.hs_distance == 0.0
    assert rep.detail.startswith("DegeneratePathError")


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

    nl = Nonlinearity(
        name="modulated_cubic",
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


# (N, s, eps, lam, M) with m = 1 and gamma = 0.5
MANUFACTURED_CASES = (
    [(2, 0.75, eps, lam, M) for eps, lam in ((0.1, 0.05), (0.05, 0.1),
                                             (0.02, 0.1))
     for M in (1, 2, 4, 8)]
    + [(1, 0.4, 0.05, 0.1, M) for M in (1, 2, 4, 8)]
    + [(3, 0.9, 0.05, 0.05, M) for M in (1, 2, 4)])


@pytest.mark.parametrize("N, s, eps, lam, modes", MANUFACTURED_CASES)
def test_ball_stage_returns_the_manufactured_solution(N, s, eps, lam, modes):
    problem = ProblemSpec(s=s, m=1.0, gamma=0.5, lam=lam, T=2.0 * math.pi, N=N)
    params = SpectrumParams(modes, 4 * modes + 2)
    nl, ustar = manufactured_problem(problem, params, eps)
    sigmas = tuple(sigma_estimate(r, problem, params).value for r in (1.0, nl.q))
    rho, _ = best_lambda(problem, nl, sigmas)
    certify(rho, problem, nl, sigmas)    # raises unless lam is admissible
    assert sp.e_norm(ustar) ** 2 < rho
    cfg = SolverConfig(rho=rho)
    rep = ball_minimize(FourierField.zeros(problem, params), cfg, nl, {})
    c = coercivity(rep.field, ustar)
    assert c > 0.0
    assert hs_norm(rep.field - ustar) <= cfg.grad_tol / c


@pytest.mark.parametrize("N, s", [(1, 0.4), (2, 0.75), (3, 0.9)])
def test_manufactured_forcing_samples_equal_the_resummed_ones(N, s):
    # f and F sum g's trigonometric terms once per point set; a copy of the
    # grid is a new point set, summed afresh, and must give the same bits
    problem = ProblemSpec(s=s, m=1.0, gamma=0.5, lam=0.1, T=2.0 * math.pi, N=N)
    params = SpectrumParams(2, 10)
    nl, ustar = manufactured_problem(problem, params, 0.1)
    n = vr.dealias_points(2, nl.poly_degree)
    x = sp.grid_coordinates(problem, n)
    t = inverse_transform(ustar, n)
    for fn in (nl.f, nl.F):
        cached = [fn(x, t), fn(x, 2.0 * t)]
        fresh = [fn(tuple(c.copy() for c in x), v) for v in (t, 2.0 * t)]
        for a, b in zip(cached, fresh):
            assert np.array_equal(a, b)


def coercivity(u, ustar):
    """The stop rule leaves |R(u)|_dual <= grad_tol at u, for the weak
    residual R(u) = L u - lam f(., u); R(u*) = 0.  With e = u - u*,
      <R(u) - R(u*), e> = sum_k (mu_k^s - gamma) |e_k|^2
                          - lam int (u^2 + u u* + u*^2) e^2 dx
                       >= c |e|_Hs^2,
      c = 1 - gamma / m^(2s) - 3 lam K^2 / m^(2s),
    with K = max(|u|_inf, |u*|_inf), as |e|_L2^2 <= |e|_Hs^2 / m^(2s).
    The left side is at most |R(u)|_dual |e|_Hs, so |e|_Hs <= grad_tol / c
    when c > 0.  The float error of R and of the distance (about 1e-15) is
    far below.  Returns c."""
    problem = u.problem
    K = (max(np.abs(v.coeffs).sum() for v in (u, ustar))
         / problem.T ** (problem.N / 2.0))
    return (1.0 - problem.gamma_fraction
            - 3.0 * problem.lam * K ** 2 / problem.m ** (2.0 * problem.s))


@st.composite
def manufactured_inputs(draw):
    """(problem, params, modes): N, an s in [N/4 + 0.05, min(N/2 - 0.05,
    0.95)], so that q = 4 is subcritical, a lambda, and u* of degree <= 2
    (a nonzero mean and up to two modes k with |k_i| <= 2, amplitudes up
    to eps), at M = deg u* or 4."""
    N = draw(st.sampled_from([1, 2, 3]))
    s = draw(st.floats(N / 4.0 + 0.05, min(N / 2.0 - 0.05, 0.95)))
    lam = draw(st.floats(0.01, 0.2))
    eps = draw(st.floats(0.001, 0.2)) * (2.0 * math.pi) ** (N / 2.0)
    unit = st.floats(-1.0, 1.0)
    modes = {(0,) * N: eps * draw(st.sampled_from([-1.0, 1.0]))
             * draw(st.floats(0.1, 1.0))}
    for _ in range(draw(st.integers(0, 2))):
        k = tuple(draw(st.lists(st.integers(-2, 2), min_size=N, max_size=N)))
        if any(k):
            modes[k] = eps * complex(draw(unit), draw(unit))
    degree = max(max(abs(ki) for ki in k) for k in modes)
    M = draw(st.sampled_from([degree, 4]))
    problem = ProblemSpec(s=s, m=1.0, gamma=0.5, lam=lam, T=2.0 * math.pi, N=N)
    return problem, SpectrumParams(M, 4 * M + 2), modes


@settings(max_examples=150, deadline=None, derandomize=True)
@given(manufactured_inputs())
def test_ball_stage_returns_any_certified_manufactured_solution(inputs):
    # the property behind the cases above: whenever certify admits lambda
    # at best_lambda's rho* and u* lies in that ball, the ball stage from
    # zero returns u* within grad_tol / c
    problem, params, modes = inputs
    nl, ustar = manufactured_forcing(problem, params, modes)
    sigmas = tuple(sigma_estimate(r, problem, params).value for r in (1.0, nl.q))
    rho, _ = best_lambda(problem, nl, sigmas)
    try:
        certify(rho, problem, nl, sigmas)
    except InadmissibleLambdaError:
        assume(False)
    assume(sp.e_norm(ustar) ** 2 < rho)
    cfg = SolverConfig(rho=rho)
    rep = ball_minimize(FourierField.zeros(problem, params), cfg, nl, {})
    c = coercivity(rep.field, ustar)
    assume(c > 0.0)
    assert hs_norm(rep.field - ustar) <= cfg.grad_tol / c


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
    # one of them, as a deterministic failure would be.  The saddle stage
    # lands from its third path node
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
            ball_minimize(start, SolverConfig(rho=1.0), nl, {})
        assert calls["polish"] == 2
        return
    rep = ball_minimize(start, SolverConfig(rho=1.0), nl, {})
    assert rep.iterations == 4 and calls["polish"] == 3
    assert rep.residual_dual_norm <= 1e-8


def test_ball_polish_must_land_downhill_from_the_start(monkeypatch):
    # from zero, a small negative constant has energy above the start
    # (F(t) = t + t^4/4), a small positive one below it; both are in the ball
    accepts = []
    monkeypatch.setattr(solvers, "_newton_polish",
                        lambda u, R, nl, cfg, counters, *, accept:
                        accepts.append(accept))
    problem = ProblemSpec(lam=0.01, **BASE)
    params = SpectrumParams(2, 6)
    nl = get_nonlinearity("cubic_plus_one")
    ball_minimize(FourierField.zeros(problem, params), SolverConfig(rho=1.0),
                  nl, {})
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
                      SolverConfig(rho=rho, max_iter=100, grad_tol=1e-12), nl,
                      {})


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
    nl = Nonlinearity(
        name="modulated_cubic",
        f=lambda x, t: 1.0 + 0.3 * np.cos(x[0]) + t ** 3,
        F=lambda x, t: (1.0 + 0.3 * np.cos(x[0])) * t + 0.25 * t ** 4,
        fprime=lambda x, t: 3.0 * t ** 2,
        a1=1.3, a2=1.0, q=4.0, alpha=3.0, r0=(8.0 * 1.3) ** (1.0 / 3.0),
        poly_degree=3,
    )
    problem = ProblemSpec(lam=0.05, **BASE)
    params = SpectrumParams(4, 10)
    counters = {}
    rep = ball_minimize(FourierField.zeros(problem, params),
                        SolverConfig(rho=1.0), nl, counters)
    trials = counters["line_search_trials"]
    assert rep.iterations >= 5
    assert counters["energy_evals"] == 1 + trials
    assert len(calls) == 1 + trials
    assert rep.energy == real_energy(rep.field, nl)


# -- Newton first, with back-off; the ball stage's descent converges alone ---------

# lambda at half the seed-0 lambda_max, at its rho: the paper's example
# (N=2, M=8) and a 3-D problem (N=3, s=0.9, M=5)
STAGE_CASES = {
    "paper-N2-M8": (dict(s=0.75, N=2), SpectrumParams(8, 32),
                    0.5 * 0.14631078198381178, 31.824909523391405),
    "N3-s0.9-M5": (dict(s=0.9, N=3), SpectrumParams(5, 11),
                   0.5 * 0.12638961059060816, 364.6907023587712),
}


def stage_inputs(case):
    """(zero field, solver config, nonlinearity) of a STAGE_CASES problem."""
    dims, params, lam, rho = STAGE_CASES[case]
    problem = ProblemSpec(m=1.0, gamma=0.5, lam=lam, T=2.0 * math.pi, **dims)
    return (FourierField.zeros(problem, params), SolverConfig(rho=rho),
            get_nonlinearity("cubic_plus_one"))


@pytest.mark.parametrize("case", sorted(STAGE_CASES))
def test_stages_converge_without_the_polish(monkeypatch, case):
    # Newton lands on iteration 1 of each stage; without it the ball
    # stage's descent reaches the same minimizer alone (the saddle stage
    # has no route but the polish)
    zero, cfg, nl = stage_inputs(case)
    low_ref = ball_minimize(zero, cfg, nl, {})
    endpoint, _ = find_descent_endpoint(low_ref.field, cfg, nl, {},
                                        energy(low_ref.field, nl))
    high_ref = mountain_pass(low_ref.field, endpoint, cfg, nl, {},
                             (energy(low_ref.field, nl), energy(endpoint, nl)))
    assert low_ref.iterations == high_ref.iterations == 1
    monkeypatch.setattr(solvers, "_newton_polish",
                        lambda *args, **kwargs: None)
    low = ball_minimize(zero, cfg, nl, {})
    assert low.residual_dual_norm <= cfg.grad_tol
    assert low.iterations > 1
    assert hs_norm(low.field - low_ref.field) <= 1e-6


def test_polish_backs_off_after_rejections(monkeypatch):
    # every attempt of the ball stage does its work and is then rejected
    real = solvers._newton_polish
    attempts = []

    def rejected(u, *args, **kwargs):
        attempts.append(u)
        real(u, *args, **kwargs)
        return None

    monkeypatch.setattr(solvers, "_newton_polish", rejected)
    zero, cfg, nl = stage_inputs("paper-N2-M8")
    counters = {}
    low = ball_minimize(zero, cfg, nl, counters)
    n = counters["polish_attempts"]
    assert len(attempts) == n
    assert n <= math.floor(math.log2(low.iterations)) + 1
    # attempts fall on iterations 1, 2, 4, ... before the last one
    assert n == sum(1 for k in range(low.iterations) if 2 ** k < low.iterations)


# -- matrix-free Newton operator against the dense basis assembly ----------------


def dense_jacobian(problem, params, d):
    """L - lam diag(d) in the sample basis of d's grid, assembled column by
    column: transform each sample basis vector to coefficients, multiply
    mode k by mu_k^s - gamma, transform back to that grid."""
    n, N = d.shape[0], problem.N
    D = n ** N
    sym = multiplier_array(problem, params) - problem.gamma
    L = np.empty((D, D))
    basis = np.zeros((n,) * N)
    for j in range(D):
        idx = np.unravel_index(j, basis.shape)
        basis[idx] = 1.0
        c = forward_transform(basis, problem, params).coeffs
        L[:, j] = inverse_transform(FourierField(sym * c, problem, params),
                                    n).reshape(-1)
        basis[idx] = 0.0
    return L - problem.lam * np.diag(d.reshape(-1))


def flat(c):
    """The flat real view of a mode cube, the operators' vector space."""
    return np.ascontiguousarray(c).reshape(-1).view(float)


def in_samples(problem, params, x, n):
    """Flattened n^N-grid samples of the cube whose flat view is x."""
    c = x.view(complex).reshape((2 * params.modes + 1,) * problem.N)
    return inverse_transform(FourierField(c, problem, params), n).reshape(-1)


def in_modes(problem, params, samples, n):
    """Flat view of the coefficients of flattened n^N-grid samples."""
    grid = samples.reshape((n,) * problem.N)
    return flat(forward_transform(grid, problem, params).coeffs)


def residual_grid(modes):
    """Points per axis of the grid on which cubic_plus_one's residual, and
    with it the Jacobian, samples f and f'."""
    return vr.dealias_points(modes, get_nonlinearity("cubic_plus_one")
                             .poly_degree)


@pytest.mark.parametrize("N, s, modes", [(1, 0.4, 5), (2, 0.75, 3),
                                         (3, 0.9, 2)])
@pytest.mark.parametrize("shift", [1.0, -2.0])
def test_matrix_free_jacobian_matches_dense_assembly(N, s, modes, shift):
    # shift = -2 makes mean(d) negative, which the preconditioner clamps.
    # The operator acts on the mode cube, the dense reference on the
    # samples of the residual's grid: J x = F (J_ref S x), S and F the
    # public transform pair on that grid
    problem = ProblemSpec(s=s, m=1.0, gamma=0.5, lam=0.2,
                          T=2.0 * math.pi, N=N)
    params = SpectrumParams(modes, 2 * modes + 1)
    n = residual_grid(modes)
    D = (2 * modes + 1) ** N
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
        in_modes(problem, params, J_ref @ in_samples(problem, params, x, n), n)
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
    # the solution of J y = b in the span of the Hermitian cubes xs, from
    # the reference's images of them
    b = xs[0]
    z = np.linalg.lstsq(want, b, rcond=None)[0]
    want = X @ z
    got, info, iterations = solvers._minres(jac, b, prec, 1e-12)
    assert info == 0 and 1 <= iterations <= 5 * b.size
    assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)
    # scipy's minres at the same rtol, as an independent oracle
    theirs, _ = minres(LinearOperator((2 * D, 2 * D), matvec=jac, dtype=float),
                       b, M=LinearOperator((2 * D, 2 * D), matvec=prec,
                                           dtype=float),
                       rtol=1e-12)
    assert np.linalg.norm(got - theirs) <= 1e-10 * np.linalg.norm(theirs)


@pytest.mark.parametrize("N, s, modes", [(1, 0.4, 4), (2, 0.75, 3),
                                         (3, 0.9, 2)])
def test_jacobian_is_the_derivative_of_the_weak_residual(N, s, modes):
    # on the non-constant manufactured solution, J v against the central
    # difference of the weak residual along v.  The residual is cubic in
    # h, so the gap is exactly h^2 R'''[v, v, v] / 6 up to roundoff, and
    # halving h quarters it; a Jacobian sampled on another grid than the
    # residual leaves a gap that does not shrink
    problem = ProblemSpec(s=s, m=1.0, gamma=0.5, lam=0.1, T=2.0 * math.pi,
                          N=N)
    params = SpectrumParams(modes, 2 * modes + 1)
    nl, u = manufactured_problem(problem, params, 0.5)
    rng = np.random.default_rng(N)
    xs = [flat(random_symmetric_coeffs(rng, modes, N)) for _ in range(4)]
    jac, _ = solvers._jacobian_operators(u, nl)
    v = FourierField(xs[0].view(complex).reshape(u.coeffs.shape), problem,
                     params)
    Jv = jac(xs[0])
    gaps = []
    for h in (0.04, 0.02, 0.01):
        fd = (vr.weak_residual(u + v * h, nl)
              - vr.weak_residual(u - v * h, nl)).coeffs / (2.0 * h)
        gaps.append(np.linalg.norm(flat(fd) - Jv) / np.linalg.norm(Jv))
    assert gaps[0] < 1e-3
    for wide, narrow in zip(gaps, gaps[1:]):
        assert 3.99 < wide / narrow < 4.01
    # symmetric in Re sum conj(a_k) b_k on the same field
    X = np.column_stack(xs)
    gram = X.T @ np.column_stack([jac(x) for x in xs])
    assert np.abs(gram - gram.T).max() <= 1e-12 * np.abs(gram).max()


@pytest.mark.parametrize("N, s, modes", [(1, 0.4, 5), (2, 0.75, 3),
                                         (3, 0.9, 2)])
def test_half_cube_operators_match_the_transform_pair_bitwise(N, s, modes):
    # the matvecs skip the symmetry check of the public pair, not a bit
    problem = ProblemSpec(s=s, m=1.0, gamma=0.5, lam=0.2,
                          T=2.0 * math.pi, N=N)
    params = SpectrumParams(modes, 2 * modes + 1)
    n = residual_grid(modes)
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


def polish_alone(u, nl, cfg, counters):
    """The Newton polish from u outside a stage: R is the weak residual at
    u, and any landing is accepted, with its energy."""
    return solvers._newton_polish(u, vr.weak_residual(u, nl), nl, cfg,
                                  counters, accept=lambda w: energy(w, nl))


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


def test_polish_lands_at_a_start_that_already_meets_grad_tol():
    # the same start polished to a root, then polished again from that
    # root: no Newton step is taken, and accept decides the landing
    problem = ProblemSpec(lam=0.01, **BASE)
    params = SpectrumParams(2, 8)
    nl = get_nonlinearity("cubic_plus_one")
    c_low, _ = scalar_roots(problem)
    u = (FourierField.constant(problem, params, 1.01 * c_low)
         + FourierField.from_modes(problem, params, {(1, 0): 1e-3}))
    cfg = SolverConfig(rho=1.0)
    root, I_root, res_root = polish_alone(u, nl, cfg, {})
    assert res_root <= cfg.grad_tol
    counters = {}
    again = polish_alone(root, nl, cfg, counters)
    assert again is not None and again[0] is root
    assert again[1:] == (I_root, res_root)
    assert counters == {}


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
    low = ball_minimize(FourierField.zeros(problem, params), cfg, nl, {})
    end, _ = find_descent_endpoint(low.field, cfg, nl, {},
                                   energy(low.field, nl))
    mountain_pass(low.field, end, cfg, nl, {},
                  (energy(low.field, nl), energy(end, nl)))
    events = [kind for kind, _ in log]
    assert events.count("landed") == 2
    for i, kind in enumerate(events):
        if kind == "landed":
            assert events[i + 1] == "report"
    points = [key for kind, key in log if kind == "gradient"]
    assert len(points) == len(set(points))


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
    u_new, I_new, tau = solvers._armijo(u, riesz, I0, 1.0, math.inf, nl,
                                        counters)
    assert I_new == energy(u_new, nl) < I0
    assert 0.0 < tau <= 1.0
    assert counters["line_search_trials"] == counters["energy_evals"] >= 1
    # uphill along +riesz no step length passes the sufficient-decrease test
    counters = {}
    assert solvers._armijo(u, -riesz, I0, 1.0, math.inf, nl,
                           counters) is None
    assert counters["line_search_trials"] == solvers._MAX_HALVINGS
    # from a nonzero field, a step too short to move it in floating point
    # is a stall, reported before any trial
    u1 = FourierField.constant(problem, params, 1.0)
    tiny = riesz * (0.5 * np.finfo(float).eps * hs_norm(u1) / hs_norm(riesz))
    counters = {}
    assert solvers._armijo(u1, tiny, energy(u1, nl), 1.0, math.inf, nl,
                           counters) is None
    assert counters == {}
