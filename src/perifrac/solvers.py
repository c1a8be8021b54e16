"""Two-solution solvers: constrained descent in the energy ball and a
climbing-image search for the saddle between the ball minimizer and a far
downhill endpoint.

Both return stationary points of the reduced functional measured by the
dual norm of the weak residual

    R_k = (mu_k^s - gamma) c_k - lam g_k,         g = f(., u),

which is what residual_dual_norm reports.  Each stage tries Newton first:
it attempts a damped inexact Newton polish on iteration 1, and after each
rejected attempt the wait before the next one doubles (iterations 1, 2, 4,
8, ...), so a polish that keeps failing costs a logarithmic number of
attempts.  Between attempts runs a fallback that converges by itself:
projected Armijo descent in the ball, a climbing image between the two
fixed endpoints (mountain_pass) for the saddle, from the highest of 17
path nodes, whose energies come from the endpoints' samples (while that
is the ball minimizer, the first segment is sampled again).  A fallback
step that stalls brings the next attempt forward to the following
iteration before the stage gives up.

The polish solves for the Newton step in mode space, where the principal
part mu_k^s - gamma is diagonal.  Its Jacobian at a field u, that
multiplier minus lam f'(u), has one builder, _jacobian_operators(u, nl),
which samples nl.fprime at u on the minimal grid n = 2M+1.  It is never
formed: preconditioned MINRES applies it through spectral's half-cube
helpers, with the shifted multiplier's inverse as SPD preconditioner.
Newton is inexact: each step's MINRES stops at an Eisenstat-Walker
forcing term, loose far from the root and tightening as the residual
falls.  A step is accepted only if it decreases the true residual within
the stage's trust radius, and the landing only if the stage's acceptance
test takes it.  Each point's weak residual and energy are evaluated once:
the stage passes lam times its gradient as the first right-hand side, an
accepted trial's is the next, and a landing returns its residual norm and
the energy its acceptance test evaluated, which the stage reports.

The counters energy_evals and gradient_evals count solver events, not
calls: a sampled path adds P + 1 = 17 energies, endpoints included, and
the stages' acceptance energies and the polish's weak_residual calls go
uncounted.  On the default `solve --seed 0` they read 20 and 2 while
vr.energy runs 5 times (plus one 15-node batch) and vr.gradient 8 times.

The solvers take lambda as given: whether it is admissible is decided
before a solve, by constants.certify.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import spectral as sp
from . import variational as vr
from .constants import ball_radius
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


@dataclass(frozen=True)
class SolverConfig:
    rho: float = 1.0               # ball parameter: constraint is e(u)^2 <= rho
    grad_tol: float = 1e-8
    max_iter: int = 2000
    distinct_tol: float = 1e-3
    max_doublings: int = 40

    def __post_init__(self):
        if self.rho <= 0:
            raise ValueError(f"rho = {self.rho!r} violates rho > 0")
        if self.grad_tol <= 0:
            raise ValueError("grad_tol must be positive")
        if self.distinct_tol <= 0:
            raise ValueError("distinct_tol must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")
        if self.max_doublings < 0:
            raise ValueError("max_doublings must be non-negative")


# Fixed tuning of the descent stages and the Newton polish.
_PATH_POINTS = 16          # segments P of the straight start path
_ARMIJO_C1 = 1e-4
_BACKTRACK = 0.5
_MAX_HALVINGS = 30
_ENDPOINT_MARGIN = 1.0     # energy drop the descent endpoint must reach
_POLISH_MAX_STEPS = 20


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


def _solution_report(u, method, rho, iterations, counters, energy, residual):
    e = sp.e_norm(u)
    return SolutionReport(
        method=method,
        energy=energy,
        residual_dual_norm=residual,
        hs_norm=sp.hs_norm(u),
        e_norm=e,
        in_ball=bool(e * e < rho),
        mean_value=sp.mean_value(u),
        iterations=iterations,
        counters=dict(counters),
        field=u,
    )


# -- Newton polish -------------------------------------------------------------

# Eisenstat-Walker forcing (1996, choice 2): Newton step k runs MINRES to
# rtol = max(eta_k, _FORCING_FLOOR grad_tol / |R_k|), with eta_0 = _ETA_MAX
# and eta_{k+1} = min(_ETA_MAX, _EW_GAMMA (|R_{k+1}| / |R_k|)^2).
_ETA_MAX = 0.5
_EW_GAMMA = 0.9
_FORCING_FLOOR = 0.1


def _minres(matvec, b, psolve, rtol):
    """Preconditioned MINRES (Paige & Saunders 1975) for A x = b with A
    symmetric and psolve SPD, from x0 = 0: Lanczos on the preconditioned
    operator, Givens rotations on its tridiagonal matrix.  Stops once the
    psolve-norm of the residual is at most rtol times that of b, or after
    5 len(b) iterations.  Returns (x, info, iterations): info = 0 on
    convergence, the iteration limit if it was reached, and -1 when
    <r, psolve(r)> turns negative (psolve not SPD, or A not symmetric)."""
    n = b.shape[0]
    x = np.zeros(n)
    y = psolve(b)
    beta1 = np.inner(b, y)
    if beta1 <= 0:     # b = 0 for an SPD psolve, else a breakdown
        return x, (0 if beta1 == 0 else -1), 0
    beta1 = beta = phibar = math.sqrt(beta1)
    oldb, dbar, epsln = 1.0, 0.0, 0.0
    cs, sn = -1.0, 0.0
    w = w2 = r1 = np.zeros(n)      # r1 = 0: no Lanczos vector before the first
    r2 = b
    for itn in range(1, 5 * n + 1):
        # Lanczos step: v_k, and the next residual r2 with y = psolve(r2)
        v = y * (1.0 / beta)
        y = matvec(v) - (beta / oldb) * r1
        alfa = np.inner(v, y)
        y = y - (alfa / beta) * r2
        r1, r2 = r2, y
        y = psolve(r2)
        oldb, beta = beta, np.inner(r2, y)
        if beta < 0:
            return x, -1, itn
        beta = math.sqrt(beta)
        # the previous rotation on the new column, then the next rotation
        oldeps = epsln
        delta = cs * dbar + sn * alfa
        gbar = sn * dbar - cs * alfa
        epsln, dbar = sn * beta, -cs * beta
        gamma = max(math.hypot(gbar, beta), np.finfo(float).eps)
        cs, sn = gbar / gamma, beta / gamma
        phi, phibar = cs * phibar, sn * phibar
        w1, w2 = w2, w
        w = (v - oldeps * w1 - delta * w2) * (1.0 / gamma)
        x = x + phi * w
        if phibar <= rtol * beta1:     # phibar is the residual's psolve-norm
            return x, 0, itn
    return x, itn, itn


def _jacobian_operators(u: FourierField, nl):
    """Matrix-free (J, P) at the field u, on flat real views of the mode
    cube, with d = f'(u): nl.fprime at u's samples on the minimal grid n =
    2M+1 (a scalar is broadcast to it).  J c = (mu_k^s - gamma) c - lam
    F(d S c), S and F the arithmetic of inverse_transform and
    forward_transform on that grid, bit for bit but with no symmetry check;
    S also samples u.  The pair is unitary there up to scale, so J maps
    Hermitian cubes to Hermitian cubes and is symmetric on them in Re sum
    conj(a_k) b_k.  P divides mode k by mu_k^s - gamma + lam max(mean d,
    0), with no transform; the clamp keeps it SPD when d dips negative."""
    problem, params, M = u.problem, u.params, u.params.modes
    n = 2 * M + 1
    v = sp._half_to_samples(u.coeffs[..., M:], problem, n)
    d = np.broadcast_to(np.asarray(
        nl.fprime(sp.grid_coordinates(problem, n), v), dtype=float), v.shape)
    symbol = sp.multiplier_array(problem, params) - problem.gamma
    inv_prec = np.repeat(  # one entry per real and imaginary part
        1.0 / (symbol + problem.lam * max(float(np.mean(d)), 0.0)), 2)

    def jac(x):
        c = x.view(complex).reshape(symbol.shape)
        v = d * sp._half_to_samples(c[..., M:], problem, n)
        image = sp._full_cube(sp._hermitian_half(v, problem, M))
        return (symbol * c - problem.lam * image).reshape(-1).view(float)

    def prec(x):
        return inv_prec * x

    return jac, prec


def _newton_polish(u, R, nl, cfg, counters, *, accept, max_move):
    """Damped inexact Newton in mode space on the weak residual, R at u
    (lam times the stage's gradient there).  Returns (field, energy,
    residual_norm) if every step decreased the true residual, the final
    point meets grad_tol and accept, a field -> its energy or None, takes
    it with that energy; otherwise None.  max_move is a trust radius (Hs
    distance from u): Newton from a point with a near-singular Jacobian
    can jump into the basin of a different critical point, and residual
    backtracking alone does not notice.

    Each step solves J delta = -R inexactly by preconditioned MINRES on
    _jacobian_operators(cur, nl), which samples f'(cur) itself, to the
    Eisenstat-Walker forcing term above.  A MINRES breakdown or a
    non-finite step ends the attempt as a failed line search does.  Each
    point's weak residual is evaluated once (the start's is the caller's
    R, an accepted trial's the next right-hand side), so its Hermitian
    symmetry has been checked before the operator samples it unchecked."""
    problem, params = u.problem, u.params
    cur, eta = u, _ETA_MAX
    res_cur = res_start = sp.dual_norm(R)
    for _ in range(_POLISH_MAX_STEPS):
        if res_cur <= cfg.grad_tol:
            break
        _bump(counters, "newton_steps")
        jac, prec = _jacobian_operators(cur, nl)
        rhs = (-R.coeffs).reshape(-1).view(float)
        rtol = max(eta, _FORCING_FLOOR * cfg.grad_tol / res_cur)
        delta, info, iterations = _minres(jac, rhs, prec, rtol)
        _bump(counters, "krylov_iterations", iterations)
        if info < 0 or not np.all(np.isfinite(delta)):
            break
        delta = FourierField(delta.view(complex).reshape(R.coeffs.shape),
                             problem, params)
        tau, accepted = 1.0, False
        for _ in range(_MAX_HALVINGS):
            u_try = cur + delta * tau
            if sp.hs_distance(u_try, u) > max_move:
                tau *= _BACKTRACK
                continue
            R_try = vr.weak_residual(u_try, nl)
            res_try = sp.dual_norm(R_try)
            if res_try < res_cur * (1.0 - 1e-4):
                eta = min(_ETA_MAX, _EW_GAMMA * (res_try / res_cur) ** 2)
                cur, R, res_cur, accepted = u_try, R_try, res_try, True
                break
            tau *= _BACKTRACK
        if not accepted:
            break
    energy = (accept(cur) if res_cur <= cfg.grad_tol and res_cur < res_start
              else None)
    return None if energy is None else (cur, energy, res_cur)


# -- descent stages ----------------------------------------------------------------


def _armijo(u, riesz, I_cur, tau, nl, counters, project=None):
    """Backtracking Armijo search from u along -riesz, starting at step tau.
    project, if given, maps each trial point back to the feasible set.
    Returns the accepted (u, I, tau), or None (a stall) when every halving
    fails or the step falls below the float resolution of u."""
    norm = sp.hs_norm(riesz)
    decrease = -norm ** 2   # <r, -riesz> in the duality pairing
    # a move shorter than this cannot change u in floating point
    floor = np.finfo(float).eps * sp.hs_norm(u)
    for _ in range(_MAX_HALVINGS):
        if tau * norm <= floor:
            return None
        u_try = u + riesz * (-tau)
        if project is not None:
            u_try = project(u_try)
        _bump(counters, "line_search_trials")
        I_try = _energy(u_try, nl, counters)
        if I_try <= I_cur + _ARMIJO_C1 * tau * decrease:
            return u_try, I_try, tau
        tau *= _BACKTRACK
    return None


def _project_to_ball(u, rho):
    e = sp.e_norm(u)
    if e * e > rho:
        return u * (math.sqrt(rho) / e)
    return u


def ball_minimize(start: FourierField, cfg: SolverConfig, nl,
                  counters: dict | None = None) -> SolutionReport:
    """Projected Armijo descent for the reduced functional on the closed
    ball e(u)^2 <= cfg.rho (radial rescaling keeps iterates feasible).
    The Newton polish is tried first, with back-off (module docstring); its
    result must lie in the open ball and not above the start's energy.  A
    stalled descent step is retried once through the polish unless it was
    just tried from the same point.  Raises BoundaryActiveError if the converged point has the constraint
    active, NonConvergenceError when the budget runs out."""
    problem = start.problem
    if counters is None:
        counters = {}
    rho = cfg.rho
    u = _project_to_ball(start.copy(), rho)
    I_cur = _energy(u, nl, counters)   # carried: each accepted step returns it
    step = 1.0
    history = []
    due = 1
    I_start = I_cur

    def accept(w):
        # inside the ball and downhill from the start: a Newton landing on
        # a saddle above the start is not the ball minimizer
        e = sp.e_norm(w)
        I_w = vr.energy(w, nl) if e * e < rho else math.inf
        return I_w if I_w <= I_start else None

    for it in range(1, cfg.max_iter + 1):
        _bump(counters, "iterations_ball")
        r = _gradient(u, nl, counters)
        res = problem.lam * sp.dual_norm(r)
        history.append(res)
        if res <= cfg.grad_tol:
            res = sp.dual_norm(problem.lam * r)   # report |lam r|, not lam |r|
            break
        tried = it == due
        if tried:
            _bump(counters, "polish_attempts")
            landed = _newton_polish(u, problem.lam * r, nl, cfg, counters,
                                    accept=accept,
                                    max_move=2.0 * ball_radius(rho, problem))
            if landed is not None:
                u, I_cur, res = landed
                break
            due *= 2
        accepted = _armijo(u, vr.riesz_representative(r), I_cur, step, nl,
                           counters, project=lambda w: _project_to_ball(w, rho))
        if accepted is None:
            if not tried:
                due = it + 1    # a Newton attempt from here may still land
                continue
            raise NonConvergenceError(
                f"ball descent stalled at residual {res:.3e} after {it} iterations",
                residual_history=history,
            )
        u, I_cur, tau = accepted
        step = tau / _BACKTRACK
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
    return _solution_report(u, "ball_min", rho, it, counters, I_cur, res)


def find_descent_endpoint(u_loc: FourierField, cfg: SolverConfig, nl,
                          counters: dict | None = None,
                          I_loc: float | None = None):
    """March t -> 2t along the constant field of height r0 until the energy
    drops below I_loc - _ENDPOINT_MARGIN, I_loc = energy(u_loc) (evaluated
    here if not given).  Returns (endpoint, its energy).  The superlinear
    potential guarantees success; the doubling budget guards against a
    nonlinearity that is not actually superlinear."""
    if counters is None:
        counters = {}
    if I_loc is None:
        I_loc = vr.energy(u_loc, nl)
    v0 = FourierField.constant(u_loc.problem, u_loc.params, nl.r0)
    t = 1.0
    for _ in range(cfg.max_doublings):
        _bump(counters, "endpoint_probes")
        cand = v0 * t
        I_cand = _energy(cand, nl, counters)
        if I_cand < I_loc - _ENDPOINT_MARGIN:
            return cand, I_cand
        t *= 2.0
    raise EndpointSearchError(
        f"no endpoint with energy below {I_loc:.6g} - "
        f"{_ENDPOINT_MARGIN:g} within {cfg.max_doublings} doublings of the "
        f"constant direction; superlinearity looks violated numerically"
    )


# -- path-climbing saddle search --------------------------------------------------


def _path_energies(u_a: FourierField, u_b: FourierField, nl) -> list:
    """Energies of the nodes (1 - t) u_a + t u_b, t = i/P for 0 < i < P, from
    two transforms: a node's samples are (1 - t) S(u_a) + t S(u_b)."""
    problem = u_a.problem
    x, S_a, n_pad = vr._padded_samples(u_a, nl)
    S_b = sp.inverse_transform(u_b, n_pad)
    weight = sp.multiplier_array(problem, u_a.params) - problem.gamma
    aa, ab, bb = (np.vdot(v.coeffs, weight * w.coeffs).real / problem.lam
                  for v, w in ((u_a, u_a), (u_a, u_b), (u_b, u_b)))
    return [0.5 * ((1.0 - t) ** 2 * aa + 2.0 * t * (1.0 - t) * ab + t * t * bb)
            - vr._rectangle_rule(nl, x, (1.0 - t) * S_a + t * S_b, problem)
            for t in (i / _PATH_POINTS for i in range(1, _PATH_POINTS))]


def mountain_pass(u_a: FourierField, u_b: FourierField, cfg: SolverConfig, nl,
                  counters: dict | None = None,
                  ends: tuple | None = None) -> SolutionReport:
    """Climbing-image search for the saddle between the fixed endpoints u_a
    and u_b (Henkelman, Uberuaga & Jonsson 2000).

    The straight path from u_a to u_b is sampled at _PATH_POINTS + 1 evenly
    spaced nodes; its highest node (smallest index on ties) is the climbing
    image, or, while that is u_a, the first segment is sampled again, unless
    its first node would lie within distinct_tol of u_a.  ends is the pair
    (energy(u_a), energy(u_b)) if the caller has it.  Each iteration
    attempts the trust-region Newton polish from the
    climber when due (first on iteration 1), and otherwise steps the
    climber along the Riesz representative of its weak residual with the
    component along the tangent reflected: downhill across the path, uphill
    along it.  The tangent is the sum of the unit directions from u_a to
    the climber and from the climber to the sampled path's far end (u_b,
    or the refined endpoint), and the node spacing is the length of that
    two-segment path over _PATH_POINTS.  A step is accepted
    when the residual drops and is halved otherwise; it never moves the
    climber more than one node spacing, and the polish's trust radius is
    two.  Near a saddle whose unstable direction the tangent follows, the
    reflected step contracts every direction, so this fallback reaches
    grad_tol with no Newton step.  Near a saddle with further unstable
    directions no step lowers the residual.  Such a stall moves the
    climber one Armijo step downhill across the path and retries the
    polish from there on the next iteration; a second stall before any
    climbing step is accepted raises NonConvergenceError."""
    problem = u_a.problem
    lam = problem.lam
    if counters is None:
        counters = {}
    if sp.hs_distance(u_a, u_b) <= cfg.distinct_tol:
        raise DegeneratePathError("path endpoints coincide")

    P = _PATH_POINTS
    I_a, I_far = ends or (vr.energy(u_a, nl), vr.energy(u_b, nl))
    end_max, far = max(I_a, I_far), u_b
    while True:
        _bump(counters, "energy_evals", P + 1)
        energies = [I_a, *_path_energies(u_a, far, nl), I_far]
        j = int(np.argmax(energies))
        if 0 < j < P:
            break
        if j == P or sp.hs_distance(far, u_a) / P ** 2 <= cfg.distinct_tol:
            raise PathCollapseError(f"path maximum at endpoint (node {j}): no "
                                    f"interior ridge between the given endpoints")
        far, I_far = u_a * (1.0 - 1.0 / P) + far * (1.0 / P), energies[1]

    def accept(w):
        I_w = vr.energy(w, nl)
        apart = min(sp.hs_distance(w, u_a), sp.hs_distance(w, u_b))
        return I_w if I_w > end_max and apart > cfg.distinct_tol else None

    u = u_a * (1.0 - j / P) + far * (j / P)
    r = _gradient(u, nl, counters)
    res = lam * sp.dual_norm(r)
    step = 1.0
    history = []
    due = 1
    stalled = False
    for it in range(1, cfg.max_iter + 1):
        _bump(counters, "iterations_path")
        history.append(res)
        if res <= cfg.grad_tol:
            res, I_cand = sp.dual_norm(lam * r), vr.energy(u, nl)
            break
        to_u, to_b = u - u_a, far - u
        d_a, d_b = sp.hs_norm(to_u), sp.hs_norm(to_b)
        spacing = (d_a + d_b) / P
        if it == due:
            _bump(counters, "polish_attempts")
            landed = _newton_polish(u, lam * r, nl, cfg, counters,
                                    accept=accept, max_move=2.0 * spacing)
            if landed is not None:
                u, I_cand, res = landed
                break
            due *= 2
        tangent = (to_u * (1.0 / max(d_a, 1e-300))
                   + to_b * (1.0 / max(d_b, 1e-300)))
        tangent = tangent * (1.0 / max(sp.hs_norm(tangent), 1e-300))
        # Riesz representative of r and its part across the path; the Hs
        # product of riesz(r) with the tangent is the mode pairing of r
        riesz, along = vr.riesz_representative(r), sp.pairing(r, tangent)
        across = riesz - tangent * along
        drift = (riesz - tangent * (2.0 * along)) * lam
        tau = min(step, spacing / max(sp.hs_norm(drift), 1e-300))
        for _ in range(_MAX_HALVINGS):
            _bump(counters, "line_search_trials")
            u_try = u - drift * tau
            r_try = _gradient(u_try, nl, counters)
            res_try = lam * sp.dual_norm(r_try)
            if res_try < res:
                step, stalled = min(1.0, tau / _BACKTRACK), False
                break
            tau *= _BACKTRACK
        else:
            # stalled: one Armijo step downhill across the path gives the
            # polish a new start on the next iteration; a second stall
            # before any climbing step is accepted ends the search
            cap = spacing / max(sp.hs_norm(across), 1e-300)
            moved = None if stalled else _armijo(
                u, across, _energy(u, nl, counters), min(1.0, cap), nl,
                counters)
            if moved is None:
                raise NonConvergenceError(
                    f"saddle search stalled at residual {res:.3e} "
                    f"(node {j}, iteration {it})",
                    residual_history=history,
                )
            stalled, due = True, it + 1
            u_try = moved[0]
            r_try = _gradient(u_try, nl, counters)
            res_try = lam * sp.dual_norm(r_try)
        u, r, res = u_try, r_try, res_try
    else:
        raise NonConvergenceError(
            f"saddle search did not reach grad_tol={cfg.grad_tol:.1e} in "
            f"{cfg.max_iter} iterations (last residual {history[-1]:.3e})",
            residual_history=history,
        )
    if I_cand <= end_max:
        raise DegeneratePathError(
            f"converged node energy {I_cand:.6g} does not exceed the "
            f"endpoint energies (max {end_max:.6g})"
        )
    return _solution_report(u, "mountain_pass", cfg.rho, it, counters, I_cand, res)


# -- full pipeline ---------------------------------------------------------------


def solve_multiplicity(cfg: SolverConfig, nl, spec: ProblemSpec,
                       params: SpectrumParams) -> MultiplicityReport:
    """Constrained minimization from zero, endpoint search, saddle search,
    distinctness check.  It does not decide whether lambda is admissible
    (constants.certify does); it lets solver errors propagate if the ball
    stage itself fails, and reports one solution if a later one fails."""
    vr.validate_growth_exponent(nl, spec)
    counters: dict = {}
    low = ball_minimize(FourierField.zeros(spec, params), cfg, nl,
                        counters=counters)
    try:
        endpoint, I_end = find_descent_endpoint(low.field, cfg, nl, counters,
                                                low.energy)
        high = mountain_pass(low.field, endpoint, cfg, nl, counters,
                             (low.energy, I_end))
    except (SolverError, OverflowError) as exc:
        return MultiplicityReport(
            status="one-solution-only",
            solutions=[low],
            distinct=False,
            hs_distance=0.0,
            energy_ordering_ok=True,
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
        counters=dict(counters),
        detail="; ".join(notes),
    )
