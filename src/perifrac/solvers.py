"""Two-solution solvers: constrained descent in the energy ball and a
path-climbing saddle search between the ball minimizer and a far downhill
endpoint.

Both return stationary points of the reduced functional measured by the
dual norm of the weak residual

    R_k = (mu_k^s - gamma) c_k - lam g_k,         g = f(., u),

which is what residual_dual_norm reports.  Descent alone converges linearly;
once the residual is small enough both solvers hand off to a damped inexact
Newton polish on the sample-space residual map of the minimal grid.  Its
Jacobian, the Fourier multiplier mu_k^s - gamma minus lam f'(u) diagonal in
samples, is symmetric and is never formed: preconditioned MINRES applies it
through the field core's transform pair, with the spectral multiplier as an
SPD preconditioner.  A step is accepted only if it decreases the true
residual and lands inside the caller's guard region.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.sparse.linalg import LinearOperator, minres

from . import spectral as sp
from . import variational as vr
from .constants import ball_radius, chi_upper, lambda_max, sigma_estimate
from .spectral import FourierField, ProblemSpec, SpectrumParams

__all__ = [
    "SolverConfig",
    "SolutionReport",
    "MultiplicityReport",
    "SolverError",
    "NonConvergenceError",
    "PathCollapseError",
    "DegeneratePathError",
    "EndpointSearchError",
    "BoundaryActiveError",
    "InadmissibleLambdaError",
    "ball_minimize",
    "find_descent_endpoint",
    "mountain_pass",
    "solve_multiplicity",
]


class SolverError(RuntimeError):
    pass


class NonConvergenceError(SolverError):
    def __init__(self, message, residual_history=None):
        super().__init__(message)
        self.residual_history = list(residual_history or [])


class PathCollapseError(SolverError):
    """The path's energy maximum sits at an endpoint: no interior ridge."""


class DegeneratePathError(SolverError):
    """Endpoints coincide, or the converged node is not above both endpoints."""


class EndpointSearchError(SolverError):
    """Doubling along the constant direction never produced the required
    energy drop; numerically the superlinearity assumption looks violated."""


class BoundaryActiveError(SolverError):
    """The constrained minimizer converged on the ball boundary; it is not
    a certified interior critical point there."""


class InadmissibleLambdaError(SolverError):
    def __init__(self, message, lam=None, lam_max=None, rho=None):
        super().__init__(message)
        self.lam = lam
        self.lam_max = lam_max
        self.rho = rho


@dataclass(frozen=True)
class SolverConfig:
    rho: float = 1.0               # ball parameter: constraint is e(u)^2 <= rho
    grad_tol: float = 1e-8
    max_iter: int = 2000
    path_points: int = 16          # segments P; the path carries P+1 nodes
    armijo_c1: float = 1e-4
    backtrack: float = 0.5
    max_halvings: int = 30
    distinct_tol: float = 1e-3
    endpoint_margin: float = 1.0
    max_doublings: int = 40
    polish: bool = True
    polish_trigger: float = 1e-3   # residual level that prompts a Newton attempt
    polish_every: int = 10         # also attempt periodically (0 disables)
    polish_max_steps: int = 20
    seed: int = 0
    sigma_starts: int = 16

    def __post_init__(self):
        if self.rho <= 0:
            raise ValueError("rho must be positive")
        if self.grad_tol <= 0:
            raise ValueError("grad_tol must be positive")
        if self.distinct_tol <= 0:
            raise ValueError("distinct_tol must be positive")
        if self.path_points < 8:
            raise ValueError("path_points must be at least 8")
        if not (0.0 < self.backtrack < 1.0):
            raise ValueError("backtrack must lie in (0, 1)")
        if not (0.0 < self.armijo_c1 < 0.5):
            raise ValueError("armijo_c1 must lie in (0, 0.5)")


@dataclass
class SolutionReport:
    method: str                    # "ball_min" | "mountain_pass"
    energy: float
    residual_dual_norm: float
    hs_norm: float
    e_norm: float
    in_ball: bool                  # e_norm^2 < rho, strictly
    mean_value: float
    iterations: int
    counters: dict
    field: FourierField


@dataclass
class MultiplicityReport:
    status: str                    # "two-solutions" | "one-solution-only"
    solutions: list
    distinct: bool
    hs_distance: float
    energy_ordering_ok: bool
    certificate: dict
    counters: dict
    detail: str = ""


def _bump(counters: dict, key: str, n: int = 1) -> None:
    counters[key] = counters.get(key, 0) + n


def _energy(u, nl, counters):
    _bump(counters, "energy_evals")
    return vr.energy(u, nl)


def _gradient(u, nl, counters):
    _bump(counters, "gradient_evals")
    return vr.gradient(u, nl)


def _solution_report(u, nl, method, rho, iterations, counters) -> SolutionReport:
    e = sp.e_norm(u)
    return SolutionReport(
        method=method,
        energy=vr.energy(u, nl),
        residual_dual_norm=vr.residual_dual_norm(u, nl),
        hs_norm=sp.hs_norm(u),
        e_norm=e,
        in_ball=bool(e * e < rho),
        mean_value=sp.mean_value(u),
        iterations=iterations,
        counters=dict(counters),
        field=u,
    )


def _polish_due(cfg: SolverConfig, res: float, it: int) -> bool:
    """Newton attempts are prompted by a small residual, and also fire on a
    fixed cadence: the path scheme's max-node residual plateaus at the node
    spacing scale, so waiting for a small residual alone can starve the
    polish that would finish the job."""
    if not cfg.polish:
        return False
    if res <= cfg.polish_trigger:
        return True
    return cfg.polish_every > 0 and it % cfg.polish_every == 0


# -- Newton polish -------------------------------------------------------------

# MINRES stops once its residual is below _KRYLOV_RTOL * |J| |delta|, a
# backward-error test.  This is tight enough that the polish takes no more
# Newton steps than with an exact solve, and the Krylov iterations still
# cost little beside the residual evaluations of the line search.
_KRYLOV_RTOL = 1e-12


def _minimal_params(params: SpectrumParams) -> SpectrumParams:
    return SpectrumParams(params.modes, 2 * params.modes + 1)


def _jacobian_operators(problem: ProblemSpec, params_min: SpectrumParams,
                        d: np.ndarray):
    """Matrix-free (J, P) on the minimal grid n = 2M+1, where the field
    core's transform pair is a bijection.  J = L - lam diag(d) acts on
    flattened samples, L multiplying mode k by the real, even symbol
    mu_k^s - gamma, so J is symmetric.  P applies the SPD spectral
    multiplier (mu_k^s - gamma + lam max(mean d, 0))^-1; the clamp keeps it
    SPD when a finite-difference d dips negative."""
    shape = (params_min.grid_points,) * problem.N
    size = math.prod(shape)
    symbol = sp.multiplier_array(problem, params_min) - problem.gamma
    inv_prec = 1.0 / (symbol + problem.lam * max(float(np.mean(d)), 0.0))

    def multiply(x, sym):
        c = sp.forward_transform(x.reshape(shape), problem, params_min).coeffs
        return sp.inverse_transform(
            FourierField(sym * c, problem, params_min)).reshape(-1)

    jac = LinearOperator(
        (size, size), dtype=float,
        matvec=lambda x: multiply(x, symbol) - problem.lam * d * x.reshape(-1))
    prec = LinearOperator((size, size), dtype=float,
                          matvec=lambda x: multiply(x, inv_prec))
    return jac, prec


def _newton_polish(u, nl, cfg, counters, guard=None, max_move=None):
    """Damped inexact Newton on the sample-space weak residual.  Returns
    (u_out, converged): the polished field if every step decreased the
    true residual and the final point meets grad_tol plus the guard,
    else the input unchanged.  max_move is a trust radius (Hs distance
    from the starting point): Newton from a point with a near-singular
    Jacobian can jump into the basin of a different critical point, and
    residual backtracking alone does not notice.

    Each step solves J delta = -R with preconditioned MINRES on the
    matrix-free operators of _jacobian_operators, so no D x D matrix is
    formed.  A MINRES breakdown or a non-finite step ends the attempt the
    way a failed line search does."""
    problem, params = u.problem, u.params
    params_min = _minimal_params(params)
    x_min = sp.grid_coordinates(problem, params_min.grid_points)

    def count_iteration(_):
        _bump(counters, "krylov_iterations")

    def to_min(w):
        return FourierField(w.coeffs, problem, params_min)

    cur = u
    res_cur = vr.residual_dual_norm(cur, nl)
    res_start = res_cur
    for _ in range(cfg.polish_max_steps):
        if res_cur <= cfg.grad_tol:
            break
        _bump(counters, "newton_steps")
        v = sp.inverse_transform(to_min(cur))
        if nl.fprime is not None:
            d = np.asarray(nl.fprime(x_min, v), dtype=float)
        else:
            h = 1e-6 * (1.0 + np.abs(v))
            d = (np.asarray(nl.f(x_min, v + h), dtype=float)
                 - np.asarray(nl.f(x_min, v - h), dtype=float)) / (2.0 * h)
        jac, prec = _jacobian_operators(problem, params_min, d.reshape(-1))
        rhs = -sp.inverse_transform(to_min(vr.weak_residual(cur, nl))).reshape(-1)
        delta, info = minres(jac, rhs, M=prec, rtol=_KRYLOV_RTOL,
                             callback=count_iteration)
        if info < 0 or not np.all(np.isfinite(delta)):
            break
        delta = delta.reshape(v.shape)
        tau, accepted = 1.0, False
        for _ in range(cfg.max_halvings):
            c_try = sp.forward_transform(v + tau * delta, problem, params_min).coeffs
            u_try = FourierField(c_try, problem, params)
            if max_move is not None and sp.hs_distance(u_try, u) > max_move:
                tau *= cfg.backtrack
                continue
            res_try = vr.residual_dual_norm(u_try, nl)
            if res_try < res_cur * (1.0 - 1e-4):
                cur, res_cur, accepted = u_try, res_try, True
                break
            tau *= cfg.backtrack
        if not accepted:
            break
    ok = (res_cur <= cfg.grad_tol and res_cur < res_start
          and (guard is None or guard(cur)))
    return (cur, True) if ok else (u, False)


# -- constrained descent ---------------------------------------------------------


def _project_to_ball(u, rho):
    e = sp.e_norm(u)
    if e * e > rho:
        return u * (math.sqrt(rho) / e)
    return u


def ball_minimize(start: FourierField, cfg: SolverConfig, nl,
                  counters: dict | None = None) -> SolutionReport:
    """Projected Armijo descent for the reduced functional on the closed
    ball e(u)^2 <= cfg.rho (radial rescaling keeps iterates feasible).
    Raises BoundaryActiveError if the converged point has the constraint
    active, NonConvergenceError when the budget runs out."""
    problem = start.problem
    if counters is None:
        counters = {}
    rho = cfg.rho
    u = _project_to_ball(start.copy(), rho)
    step = 1.0
    history = []

    def guard(w):
        e = sp.e_norm(w)
        return e * e < rho

    it = 0
    for it in range(1, cfg.max_iter + 1):
        _bump(counters, "iterations_ball")
        r = _gradient(u, nl, counters)
        res = problem.lam * sp.dual_norm(r)
        history.append(res)
        if res <= cfg.grad_tol:
            break
        if _polish_due(cfg, res, it):
            u_new, done = _newton_polish(u, nl, cfg, counters, guard=guard,
                                         max_move=2.0 * ball_radius(rho, problem))
            if done:
                u = u_new
                history.append(vr.residual_dual_norm(u, nl))
                break
        riesz = vr.riesz_representative(r)
        decrease = -sp.hs_norm(riesz) ** 2   # <r, -riesz> in the duality pairing
        I_cur = _energy(u, nl, counters)
        tau, moved = step, False
        for _ in range(cfg.max_halvings):
            u_try = _project_to_ball(u + riesz * (-tau), rho)
            _bump(counters, "line_search_trials")
            if _energy(u_try, nl, counters) <= I_cur + cfg.armijo_c1 * tau * decrease:
                u, moved = u_try, True
                step = tau / cfg.backtrack
                break
            tau *= cfg.backtrack
        if not moved:
            raise NonConvergenceError(
                f"ball descent stalled at residual {res:.3e} after {it} iterations",
                residual_history=history,
            )
    else:
        raise NonConvergenceError(
            f"ball descent did not reach grad_tol={cfg.grad_tol:.1e} in "
            f"{cfg.max_iter} iterations (last residual {history[-1]:.3e})",
            residual_history=history,
        )
    e = sp.e_norm(u)
    if e * e >= rho * (1.0 - 1e-9):
        raise BoundaryActiveError(
            f"constrained minimizer sits on the ball boundary "
            f"(e^2 = {e * e:.6g}, rho = {rho:.6g}); not a certified interior "
            f"critical point"
        )
    return _solution_report(u, nl, "ball_min", rho, it, counters)


def find_descent_endpoint(u_loc: FourierField, cfg: SolverConfig, nl,
                          counters: dict | None = None) -> FourierField:
    """March t -> 2t along the constant field of height r0 until the energy
    drops below energy(u_loc) - endpoint_margin.  The superlinear potential
    guarantees success; the doubling budget guards against a nonlinearity
    that is not actually superlinear."""
    problem = u_loc.problem
    if counters is None:
        counters = {}
    reference = vr.energy(u_loc, nl)
    v0 = FourierField.constant(problem, u_loc.params, nl.r0)
    t = 1.0
    for _ in range(cfg.max_doublings):
        _bump(counters, "endpoint_probes")
        cand = v0 * t
        if _energy(cand, nl, counters) < reference - cfg.endpoint_margin:
            return cand
        t *= 2.0
    raise EndpointSearchError(
        f"no endpoint with energy below {reference:.6g} - "
        f"{cfg.endpoint_margin:g} within {cfg.max_doublings} doublings of the "
        f"constant direction; superlinearity looks violated numerically"
    )


# -- path-climbing saddle search --------------------------------------------------


def _interpolate_path(u_a, u_b, segments):
    return [u_a * (1.0 - i / segments) + u_b * (i / segments)
            for i in range(segments + 1)]


def _respace(nodes):
    """Redistribute interior nodes uniformly in arc length (Hs metric) along
    the current polyline; endpoints stay fixed."""
    P = len(nodes) - 1
    seg = [sp.hs_distance(nodes[i], nodes[i + 1]) for i in range(P)]
    total = sum(seg)
    if total <= 0.0:
        return nodes
    cum = np.concatenate([[0.0], np.cumsum(seg)])
    out = [nodes[0]]
    j = 0
    for i in range(1, P):
        target = total * i / P
        while j < P - 1 and cum[j + 1] < target:
            j += 1
        span = seg[j]
        w = 0.0 if span <= 0.0 else (target - cum[j]) / span
        out.append(nodes[j] * (1.0 - w) + nodes[j + 1] * w)
    out.append(nodes[P])
    return out


def mountain_pass(u_a: FourierField, u_b: FourierField, cfg: SolverConfig, nl,
                  counters: dict | None = None) -> SolutionReport:
    """Saddle search along a discrete path from u_a to u_b: repeatedly take
    a capped Armijo step on the highest-energy node (smallest index on ties)
    along its negative Riesz gradient, then respace the path by arc length.
    The path localizes the ridge to one node spacing; the trust-region
    Newton polish turns that into a critical point to grad_tol."""
    problem = u_a.problem
    if counters is None:
        counters = {}
    if sp.hs_distance(u_a, u_b) <= cfg.distinct_tol:
        raise DegeneratePathError("path endpoints coincide")

    P = cfg.path_points
    nodes = _interpolate_path(u_a, u_b, P)
    energies = [_energy(w, nl, counters) for w in nodes]
    end_max = max(energies[0], energies[P])

    def guard(w):
        return (vr.energy(w, nl) > end_max
                and sp.hs_distance(w, u_a) > cfg.distinct_tol
                and sp.hs_distance(w, u_b) > cfg.distinct_tol)

    step = 1.0
    history = []
    candidate = None
    it = 0
    for it in range(1, cfg.max_iter + 1):
        _bump(counters, "iterations_path")
        jmax = int(np.argmax(energies))
        if jmax == 0 or jmax == P:
            raise PathCollapseError(
                f"path maximum at endpoint (node {jmax}): no interior ridge "
                f"between the given endpoints"
            )
        u = nodes[jmax]
        arc = sum(sp.hs_distance(nodes[i], nodes[i + 1]) for i in range(P))
        r = _gradient(u, nl, counters)
        res = problem.lam * sp.dual_norm(r)
        history.append(res)
        if res <= cfg.grad_tol:
            candidate = u
            break
        if _polish_due(cfg, res, it):
            u_new, done = _newton_polish(u, nl, cfg, counters, guard=guard,
                                         max_move=2.0 * arc / P)
            if done:
                candidate = u_new
                history.append(vr.residual_dual_norm(u_new, nl))
                break
        riesz = vr.riesz_representative(r)
        riesz_norm = sp.hs_norm(riesz)
        decrease = -riesz_norm ** 2
        I_cur = energies[jmax]
        # cap the displacement at one node spacing: a longer move would
        # tunnel the node past the saddle into the far well (the Armijo
        # test happily accepts that) and shred the path discretization
        cap = arc / P / max(riesz_norm, 1e-300)
        tau, moved = min(step, cap), False
        for _ in range(cfg.max_halvings):
            u_try = u + riesz * (-tau)
            _bump(counters, "line_search_trials")
            I_try = _energy(u_try, nl, counters)
            if I_try <= I_cur + cfg.armijo_c1 * tau * decrease:
                nodes[jmax] = u_try
                energies[jmax] = I_try
                step = tau / cfg.backtrack
                moved = True
                break
            tau *= cfg.backtrack
        if not moved:
            raise NonConvergenceError(
                f"saddle search stalled at residual {res:.3e} "
                f"(node {jmax}, iteration {it})",
                residual_history=history,
            )
        # unconditional arc-length respacing; without it nodes drain into
        # the two wells and the ridge crossing ends up inside an unsampled
        # segment (the discrete max then has nothing to do with the saddle)
        nodes = _respace(nodes)
        energies = ([energies[0]]
                    + [_energy(w, nl, counters) for w in nodes[1:-1]]
                    + [energies[P]])
    if candidate is None:
        raise NonConvergenceError(
            f"saddle search did not reach grad_tol={cfg.grad_tol:.1e} in "
            f"{cfg.max_iter} iterations (last residual {history[-1]:.3e})",
            residual_history=history,
        )
    cand_energy = vr.energy(candidate, nl)
    if cand_energy <= end_max:
        raise DegeneratePathError(
            f"converged node energy {cand_energy:.6g} does not exceed the "
            f"endpoint energies (max {end_max:.6g})"
        )
    return _solution_report(candidate, nl, "mountain_pass", cfg.rho, it, counters)


# -- full pipeline ---------------------------------------------------------------


def solve_multiplicity(cfg: SolverConfig, nl, spec: ProblemSpec,
                       params: SpectrumParams,
                       sigma1: float | None = None,
                       sigmaq: float | None = None) -> MultiplicityReport:
    """Admissibility gate, constrained minimization from zero, endpoint
    search, saddle search, distinctness check.  Raises
    InadmissibleLambdaError when lambda fails the certificate at cfg.rho;
    lets solver errors propagate if the ball stage itself fails."""
    vr.validate_growth_exponent(nl, spec)
    if sigma1 is None:
        sigma1 = sigma_estimate(1.0, spec, params,
                                seed=cfg.seed, starts=cfg.sigma_starts).value
    if sigmaq is None:
        sigmaq = sigma_estimate(nl.q, spec, params,
                                seed=cfg.seed, starts=cfg.sigma_starts).value
    sigmas = (sigma1, sigmaq)
    rho = cfg.rho
    lam_max = lambda_max(rho, spec, nl, sigmas)
    certificate = {
        "rho": rho,
        "lambda": spec.lam,
        "lambda_max_at_rho": lam_max,
        "chi_upper": chi_upper(rho, spec, nl, sigmas),
        "inv_two_lambda": 1.0 / (2.0 * spec.lam),
        "sigma1": sigma1,
        "sigmaq": sigmaq,
        "ball_radius_hs": ball_radius(rho, spec),
    }
    if not (spec.lam < lam_max):
        raise InadmissibleLambdaError(
            f"lambda = {spec.lam:.6g} is not below lambda_max(rho) = "
            f"{lam_max:.6g} at rho = {rho:.6g}; certificate refused",
            lam=spec.lam, lam_max=lam_max, rho=rho,
        )

    counters: dict = {}
    low = ball_minimize(FourierField.zeros(spec, params), cfg, nl,
                        counters=counters)
    try:
        endpoint = find_descent_endpoint(low.field, cfg, nl, counters=counters)
        high = mountain_pass(low.field, endpoint, cfg, nl, counters=counters)
    except SolverError as exc:
        return MultiplicityReport(
            status="one-solution-only",
            solutions=[low],
            distinct=False,
            hs_distance=0.0,
            energy_ordering_ok=True,
            certificate=certificate,
            counters=dict(counters),
            detail=f"{type(exc).__name__}: {exc}",
        )
    gap = sp.hs_distance(low.field, high.field)
    distinct = gap > cfg.distinct_tol
    ordering_ok = low.energy < high.energy
    notes = []
    if not distinct:
        notes.append(f"solutions coincide within distinct_tol={cfg.distinct_tol}")
    if not ordering_ok:
        notes.append("energy ordering violated: ball solution does not sit "
                     "below the saddle")
    return MultiplicityReport(
        status="two-solutions" if distinct else "one-solution-only",
        solutions=[low, high],
        distinct=distinct,
        hs_distance=gap,
        energy_ordering_ok=ordering_ok,
        certificate=certificate,
        counters=dict(counters),
        detail="; ".join(notes),
    )
