"""Embedding constants and the admissible-lambda machinery.

sigma_r is the best constant in  |u|_{L^r} <= sigma_r * sqrt(kappa) |u|_{H^s}
over real trigonometric polynomials of the working resolution; r = 1 and
r = 2 have closed forms (the constant field is extremal), general r is
estimated from below by projected Rayleigh-quotient ascent on the H^s
sphere from randomized starts, which climb together at M/2 as one stack
only as far as ranking them needs; the best of them is finished at M to
_TOL by limited-memory BFGS.

From sigma_1 and sigma_q the certificate machinery produces, for each positive
trial ball parameter rho,

    lambda_max(rho) = q sqrt(rho) (1-g)^{q/2}
        / (2 kappa (a1 sigma_1 q (1-g)^{(q-1)/2} + a2 sigma_q^q rho^{(q-1)/2}))

with g = gamma / m^{2s}; admissible lambda lie below it.  Write its
denominator as 2 kappa (A + B rho^{(q-1)/2}), with A = a1 sigma_1 q
(1-g)^{(q-1)/2} and B = a2 sigma_q^q, both positive.  lambda_max rises
while A > (q-2) B rho^{(q-1)/2} and falls after, so its maximum sits at
the unique critical point rho* = (A / ((q-2) B))^{2/(q-1)}, where
best_lambda evaluates it once.  chi_upper is the matching upper bound on
the constrained-quotient function, algebraically equal to
1/(2 lambda_max(rho)).  certify is the certification gate, the one place
that decides whether lambda is admissible: it refuses lambda unless
lambda < lambda_max(rho).  The paper states its quartic example (q=4,
a1=a2=1) through the profile h(rho) = sqrt(rho) / (4 sigma_1 (1-g)^{3/2}
+ sigma_4^4 rho^{3/2}) and the interval (0, (2/kappa)(1-g)^2 max h); there
(2/kappa)(1-g)^2 h(rho) is lambda_max(rho), so that interval is
(0, best_lambda's maximum) and needs no code of its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from importlib import resources

import numpy as np
from numpy.random import SeedSequence, default_rng

from . import spectral as sp
from .extension import kappa
from .spectral import FourierField, ProblemSpec, SpectrumParams
from .variational import dealias_points

__all__ = [
    "EmbeddingEstimate",
    "sigma_estimate",
    "rayleigh_ascent",
    "lambda_max",
    "chi_upper",
    "ball_radius",
    "InadmissibleLambdaError",
    "certify",
    "lambda_table",
    "best_lambda",
    "golden_key",
    "load_golden",
    "default_golden_path",
]


@dataclass(frozen=True)
class EmbeddingEstimate:
    """A value of sigma_r at fixed resolution, with an honest status tag."""

    r: float
    value: float
    status: str            # "exact-closed-form" | "truncated-lower-bound"
    modes: int
    starts: int = 0
    iterations: int = 0    # coarse_iterations + fine_iterations
    coarse_modes: int = 0  # the level the starts climbed at
    coarse_iterations: int = 0
    fine_iterations: int = 0


def _closed_form(problem: ProblemSpec, r: float) -> float | None:
    """sigma_1 and sigma_2 are attained by constant fields:
    sigma_2 = m^{-s}/sqrt(kappa), sigma_1 = T^{N/2} sigma_2 (the
    Cauchy-Schwarz chain is tight at constants)."""
    k = kappa(problem.s)
    if r == 2.0:
        return problem.m ** (-problem.s) / math.sqrt(k)
    if r == 1.0:
        return problem.T ** (problem.N / 2.0) * problem.m ** (-problem.s) / math.sqrt(k)
    return None


def _ascent_grid(modes: int, r: float) -> int:
    # For even integer r, |u|^r = u^r and |u|^{r-1} sgn(u) = u^{r-1} are
    # trigonometric polynomials of degree rM and (r-1)M, so n >= rM+1 makes
    # both the rectangle rule for |u|_r^r and the truncated forward transform
    # of w exact.  For odd r, w is not a polynomial (r = 3 gives u|u|), and
    # for fractional r neither |u|^r nor w is: those take the dealiasing
    # grid of a degree-r or a non-polynomial f, only spectrally accurate.
    if not float(r).is_integer():
        return dealias_points(modes, None)
    if r % 2:
        return dealias_points(modes, int(r))
    return max(int(r) * modes + 1, 2)


# Below this many modes every start climbs at M itself and no finish runs.
# The coarse level M // 2 = 0 holds only constant fields, a critical point
# of the quotient that the finish cannot leave, and from M // 2 = 1 the
# finish can land on a lower fine maximum: at N=2, s=0.6, r=3 it ended up
# to 4.1% short of the single-level ascent at M=2 and 3 (seeds 0-9).
# From M // 2 >= 2 (N=1..3, r=3 and 4, M=4..6) it stayed within 1.3e-10.
_NESTED_MIN_MODES = 4

_MAX_ITER, _TOL = 2000, 1e-12   # per climb
_RANK_TOL = 1e-4                # the nested coarse level, which only ranks


def _level(problem: ProblemSpec, r: float, modes: int, starts: int):
    """The quotient |u|_{L^r} / |u|_{H^s} at degree `modes` for a stack of
    `starts` half cubes: (dot, sample, tangent).  dot is the H^s product
    of spectral._half_dot; sample(c) gives |u|_{L^r} per field and w =
    |u|^{r-1} sgn(u) over the samples; tangent(w, Lr, c, due) gives, at the
    rows `due` (default all) of the unit fields c, the quotient's gradient
    on the sphere: L^{1-r} w_k preconditioned by mu^{-s}, less its radial
    part, from one transform of the whole stack.  Samples and the largest
    transform intermediates live in two buffers allocated once per level
    (fresh arrays per round made the coarse climb 1.5x slower through page
    faults); for N = 1 a tangent is a view of one."""
    N = problem.N
    n = _ascent_grid(modes, r)
    params = SpectrumParams(modes, n)
    inv_mu_s = 1.0 / sp._half_multiplier(problem, params)[..., None, :]
    dot = sp._half_dot(problem, params)
    dx_weight = (problem.T / n) ** N
    cells = "ij"[:N - 1] + "sk"   # the leading axes, the stack, the last axis
    # for even r, a = u*u, |u|^r = a b and w = u b with b = a^(p-1);
    # otherwise a = |u|
    even = float(r).is_integer() and int(r) % 2 == 0
    p = int(r) // 2
    size = starts * n ** (N - 1) * max(n, 2 * modes + 2)
    samples, spare = np.empty(size), np.empty(size)

    def sample(c):
        u = sp._half_to_samples(c, problem, n, out=samples, work=spare)
        if even:
            a = np.multiply(u, u, out=sp._view(spare, u.shape, float))
            b = a if p == 2 else a ** (p - 1)
            u *= b
            lr = np.einsum(f"{cells},{cells}->s", a, b)
        else:
            a = np.abs(u, out=sp._view(spare, u.shape, float))
            lr = np.einsum(f"{cells}->s", a ** r)
            np.power(a, r - 1.0, out=a)
            np.sign(u, out=u)
            u *= a
        return (lr * dx_weight) ** (1.0 / r), u

    def tangent(w, Lr, c, due=None):
        grad = sp._hermitian_half(w, problem, modes, work=spare)
        scale = Lr ** (1.0 - r)
        if due is not None and not due.all():
            grad, scale, c = grad[..., due, :], scale[due], c[..., due, :]
        grad *= scale[:, None]
        grad *= inv_mu_s
        grad -= dot(c, grad)[:, None] * c
        return grad

    return dot, sample, tangent


@np.errstate(over="ignore", invalid="ignore")
def _climb(problem: ProblemSpec, r: float, modes: int, c: np.ndarray,
           tol: float):
    """Projected gradient ascent of |u|_{L^r} / |u|_{H^s} at degree
    `modes` for a stack of starts, one half cube per start on the axis
    before the last (see spectral._hermitian_half), each rescaled to the
    H^s unit sphere, with first trial step 0.5.  Returns, per start,
    (ratios, half cubes of the end points, iterations).

    The starts climb in lockstep: each round inverse-transforms all trial
    points in one stacked call, and the accepted ones get their next
    gradient from one forward transform of the stack; a start leaves the
    stack when its climb stops.  Each start keeps the rules of a climb of
    its own: a trial is accepted when it raises the value by more than a
    factor 1 + 1e-16, the step then grows x1.3, and otherwise halves.  A
    climb stops after 40 halvings in a row, on a tangent norm or a value
    change below tol, after _MAX_ITER iterations, or on a value that is not
    a positive finite double, which is returned as it is."""
    starts = c.shape[-2]
    dot, sample, gradient = _level(problem, r, modes, starts)
    c = c / np.maximum(np.sqrt(dot(c, c)), 1e-300)[:, None]
    # the results, per start
    ratios, ends = np.zeros(starts), np.empty_like(c)
    iterations = np.zeros(starts, dtype=int)
    # the state, one row per start still climbing; `rows` holds its start
    rows = np.arange(starts)
    step = np.full(starts, 0.5)
    halvings, count = np.zeros(starts, dtype=int), np.zeros(starts, dtype=int)
    prev = np.full(starts, -np.inf)
    tangent = np.empty_like(c)
    Lr, w = sample(c)
    due = np.ones(starts, dtype=bool)   # at a new point, with w of its samples
    stop = np.zeros(starts, dtype=bool)
    while True:
        go = due & (count < _MAX_ITER)
        count += go
        go &= (0.0 < Lr) & (Lr < math.inf)
        stop |= due & ~go
        due = go
        if due.any():
            grad = gradient(w, Lr, c, due)
            tangent[..., due, :] = grad
            stop[due] = dot(grad, grad) <= (tol * np.maximum(Lr[due], 1.0)) ** 2
            halvings[due] = 0
        if stop.any():
            done, end = rows[stop], c[..., stop, :]
            h = np.sqrt(dot(end, end))
            ratios[done] = np.divide(Lr[stop], h, out=np.zeros(h.size), where=h > 0)
            ends[..., done, :] = end
            iterations[done] = count[stop]
            keep = ~stop
            if not keep.any():
                return ratios, ends, iterations
            rows, Lr, prev, step, halvings, count, stop = (
                x[keep] for x in (rows, Lr, prev, step, halvings, count, stop))
            c, tangent = c[..., keep, :], tangent[..., keep, :]
        trial = tangent * step[:, None]
        trial += c
        h = np.sqrt(dot(trial, trial))
        trial /= np.where(h > 0.0, h, np.nan)[:, None]  # 0 -> NaN, rejected
        val, w = sample(trial)
        won = val > Lr * (1.0 + 1e-16)
        np.copyto(c, trial, where=won[:, None])
        np.copyto(Lr, val, where=won)
        step *= np.where(won, 1.3, 0.5)
        halvings += ~won
        stop = halvings == 40
        settled = won & (np.abs(Lr - prev) <= tol * np.maximum(1.0, np.abs(Lr)))
        np.copyto(prev, Lr, where=won)
        stop |= settled
        due = won & ~settled


@np.errstate(over="ignore", invalid="ignore")
def _finish(problem: ProblemSpec, r: float, modes: int, c: np.ndarray):
    """L-BFGS ascent of the quotient on the H^s unit sphere at degree
    `modes` from the half cube c, a stack of one, to _TOL (Liu & Nocedal
    1989; Huang, Gallivan & Absil 2015): (ratio, end point, iterations).
    It keeps the pairs s = c+ - c, y = g - g+ (g the tangent) of the last
    5 steps with <s, y> > 0, projected onto the new tangent space; the
    two-loop recursion, scaled by the last <s, y> / <y, y> and projected,
    gives the direction d.  A trial c + t d, rescaled onto the sphere,
    starts at t = 1 (0.5 along g while no pair is kept); acceptance,
    halvings and stops are _climb's."""
    dot, sample, gradient = _level(problem, r, modes, 1)
    weight = dot.weight.ravel()   # a flat product is faster for one field

    def inner(a, b):
        return float(np.dot(a.view(float).ravel() * weight,
                            b.view(float).ravel()))

    c = c / max(math.sqrt(inner(c, c)), 1e-300)
    Lr, w = sample(c)
    pairs, g, count = [], None, 0   # pairs: (s, y, 1 / <s, y>)
    while count < _MAX_ITER and 0.0 < Lr[0] < math.inf:
        count += 1
        g_new = gradient(w, Lr, c).copy()   # not a view of a buffer
        if g is not None:
            s, y = (x - inner(c, x) * c for x in (c - c_old, g - g_new))
            if inner(s, y) > 0.0:
                pairs = pairs[-4:] + [(s, y, 1.0 / inner(s, y))]
        g = g_new
        if inner(g, g) <= (_TOL * max(Lr[0], 1.0)) ** 2:
            break
        d, alphas = g.copy(), []
        for s, y, rho in reversed(pairs):
            alphas.append(rho * inner(s, d))
            d -= alphas[-1] * y
        if pairs:
            d *= 1.0 / (pairs[-1][2] * inner(pairs[-1][1], pairs[-1][1]))
        for (s, y, rho), a in zip(pairs, reversed(alphas)):
            d += (a - rho * inner(y, d)) * s
        d -= inner(c, d) * c
        step = 1.0 if pairs else 0.5
        for _ in range(40):
            trial = c + step * d
            trial /= math.sqrt(inner(trial, trial)) or math.nan   # 0: rejected
            val, w = sample(trial)
            if val[0] > Lr[0] * (1.0 + 1e-16):
                break
            step *= 0.5
        else:
            break
        settled = abs(val[0] - Lr[0]) <= _TOL * max(1.0, abs(val[0]))
        c_old, c, Lr = c, trial, val
        if settled:
            break
    return float(Lr[0] / max(math.sqrt(inner(c, c)), 1e-300)), c[..., 0, :], count


def rayleigh_ascent(problem: ProblemSpec, r: float, modes: int,
                    seed: int = 0, starts: int = 16):
    """Maximize |u|_{L^r} / |u|_{H^s} over the truncated mode space by
    ascent on the H^s unit sphere from `starts` random starts, with seeds
    spawned from `seed`; returns (best ratio, best field, diagnostics).

    Nested iteration: all starts climb together in one _climb on the
    coarse level M_c = M // 2, only to _RANK_TOL, which ranks them, and
    the best coarse maximizer (the first of equal ones), zero-padded into
    the degree-M half cube (leading axes centred, k_N = 0..M_c), is
    finished at M to _TOL by _finish's L-BFGS.  Below _NESTED_MIN_MODES
    the starts climb at M itself to _TOL and no finish runs.  The returned
    ratio is the quotient of the returned degree-M field, a lower bound for
    the supremum.  The diagnostics count the coarse level (coarse_modes,
    coarse_iterations), the finish (fine_iterations) and their sum
    (iterations).

    For even integer r the grid has n = max(rM, 2M) + 1 points per axis,
    which resolves u^r and u^{r-1} (degree rM and (r-1)M, exact integer
    powers of u*u times u), so the ratio is the exact quotient of the
    returned field.  Odd and fractional r use a finer grid on which |u|^r,
    kinked at the zeros of u, is integrated to spectral accuracy only.

    The state is the k_N >= 0 half of the mode cube, moved by spectral's
    pruned DFT kernels.  Every forward transform makes the k_N = 0 plane
    exactly Hermitian, and the steps (real even multipliers, real scalars,
    sums, zero padding) keep it so.  Each field is inverse-transformed
    once on its level: an accepted trial's samples carry over to the next
    iteration and to the final ratio."""
    if r < 1.0:
        raise ValueError("r must be >= 1")
    if starts < 1:
        raise ValueError(f"starts = {starts!r} violates starts >= 1")
    coarse = modes // 2 if modes >= _NESTED_MIN_MODES else modes
    n = _ascent_grid(coarse, r)
    c = sp._hermitian_half(
        np.stack([default_rng(ss).standard_normal((n,) * problem.N)
                  for ss in SeedSequence(seed).spawn(starts)], axis=-2),
        problem, coarse)
    ratios, c, iterations = _climb(problem, r, coarse, c,
                                   _RANK_TOL if coarse < modes else _TOL)
    best = max(range(starts), key=lambda i: ratios[i])
    ratio, c = float(ratios[best]), c[..., best, :]
    coarse_iterations = int(iterations.sum())
    fine_iterations = 0
    if coarse < modes:
        padded = np.zeros((2 * modes + 1,) * (problem.N - 1) + (1, modes + 1),
                          dtype=complex)
        lead = slice(modes - coarse, modes + coarse + 1)
        padded[(lead,) * (problem.N - 1) + (0, slice(coarse + 1))] = c
        ratio, c, fine_iterations = _finish(problem, r, modes, padded)
    field = FourierField(sp._full_cube(c), problem,
                         SpectrumParams(modes, _ascent_grid(modes, r)))
    diag = {"starts": starts,
            "iterations": coarse_iterations + fine_iterations,
            "coarse_modes": coarse,
            "coarse_iterations": coarse_iterations,
            "fine_iterations": fine_iterations}
    return ratio, field, diag


_SIGMA_CACHE: dict[tuple, EmbeddingEstimate] = {}


def sigma_estimate(r: float, problem: ProblemSpec, params: SpectrumParams,
                   seed: int = 0, starts: int = 16) -> EmbeddingEstimate:
    """sigma_r = sup |u|_{L^r} / (sqrt(kappa) |u|_{H^s}): exact closed form
    for r in {1, 2}, otherwise a truncated lower bound from multi-start
    ascent over the retained modes.

    Ascent results are memoized on (r, s, m, T, N, modes, seed, starts);
    lambda and gamma do not enter the quotient.  A cached estimate keeps
    the starts and the per-level iterations of the ascent that produced
    it, so on a cache hit those counts describe where the estimate came
    from, not work done in this call.  A sigma that is not a finite
    positive double raises ValueError and is not cached.
    """
    r = float(r)
    if r < 1.0:
        raise ValueError("r must be >= 1")
    if r >= problem.critical_exponent:
        raise ValueError(
            f"r={r:g} is not below the critical exponent "
            f"{problem.critical_exponent:.6g}; the supremum may be infinite"
        )
    closed = _closed_form(problem, r)
    if closed is not None:
        return EmbeddingEstimate(r=r, value=_finite_positive(r, closed),
                                 status="exact-closed-form", modes=params.modes)
    key = (r, problem.s, problem.m, problem.T, problem.N,
           params.modes, seed, starts)
    hit = _SIGMA_CACHE.get(key)
    if hit is not None:
        return hit
    ratio, _field, diag = rayleigh_ascent(problem, r, params.modes,
                                          seed=seed, starts=starts)
    est = EmbeddingEstimate(
        r=r,
        value=_finite_positive(r, ratio / math.sqrt(kappa(problem.s))),
        status="truncated-lower-bound",
        modes=params.modes,
        **diag,
    )
    _SIGMA_CACHE[key] = est
    return est


def _finite_positive(r: float, sigma: float) -> float:
    """sigma, or ValueError when it is not a finite positive double, as
    when the problem's scales make |u|_{L^r} overflow or underflow."""
    if not 0.0 < sigma < math.inf:
        raise ValueError(f"sigma_{r:g} = {float(sigma)!r} is not a finite "
                         f"positive double")
    return sigma


# -- certificates ---------------------------------------------------------------


def _sigma_pair(sigmas) -> tuple[float, float]:
    s1, sq = sigmas
    if s1 <= 0 or sq <= 0:
        raise ValueError("sigma inputs must be positive")
    return float(s1), float(sq)


def lambda_max(rho: float, problem: ProblemSpec, nl, sigmas) -> float:
    """Largest certified lambda at ball parameter rho; sigmas = (sigma_1,
    sigma_q)."""
    if rho <= 0.0:
        raise ValueError("rho must be positive")
    s1, sq = _sigma_pair(sigmas)
    g = problem.gamma_fraction
    q = nl.q
    k = kappa(problem.s)
    num = q * math.sqrt(rho) * (1.0 - g) ** (q / 2.0)
    den = 2.0 * k * (nl.a1 * s1 * q * (1.0 - g) ** ((q - 1.0) / 2.0)
                     + nl.a2 * sq ** q * rho ** ((q - 1.0) / 2.0))
    return num / den


def chi_upper(rho: float, problem: ProblemSpec, nl, sigmas) -> float:
    """Upper bound for the constrained quotient at radius rho; the
    certificate holds when chi_upper(rho) < 1/(2 lambda).  Algebraically
    equal to 1/(2 lambda_max(rho))."""
    if rho <= 0.0:
        raise ValueError("rho must be positive")
    s1, sq = _sigma_pair(sigmas)
    g = problem.gamma_fraction
    q = nl.q
    k = kappa(problem.s)
    return k * (nl.a1 * s1 / (math.sqrt(rho) * math.sqrt(1.0 - g))
                + nl.a2 * sq ** q * rho ** (q / 2.0 - 1.0)
                / (q * (1.0 - g) ** (q / 2.0)))


def ball_radius(rho: float, problem: ProblemSpec) -> float:
    """H^s radius of the localization ball e(u)^2 < rho:
    sqrt(rho / (kappa (1 - g)))."""
    if rho <= 0.0:
        raise ValueError("rho must be positive")
    g = problem.gamma_fraction
    return math.sqrt(rho / (kappa(problem.s) * (1.0 - g)))


def lambda_table(rho_values, problem: ProblemSpec, nl, sigmas) -> list[dict]:
    """One row per rho: rho, lambda_max(rho) and the ball radius."""
    return [{"rho": float(rho),
             "lambda_max": float(lambda_max(rho, problem, nl, sigmas)),
             "ball_radius": ball_radius(rho, problem)}
            for rho in rho_values]


class InadmissibleLambdaError(ValueError):
    """lambda is not below lambda_max(rho): the certificate is refused."""

    def __init__(self, message, lam, lam_max, rho):
        super().__init__(message)
        self.lam, self.lam_max, self.rho = lam, lam_max, rho


def certify(rho: float, problem: ProblemSpec, nl, sigmas) -> dict:
    """The certification gate at ball parameter rho, sigmas = (sigma_1,
    sigma_q): raises InadmissibleLambdaError unless lambda <
    lambda_max(rho), and returns the certificate a solve reports."""
    lam, lam_max = problem.lam, lambda_max(rho, problem, nl, sigmas)
    if not lam < lam_max:
        raise InadmissibleLambdaError(
            f"lambda = {lam:.6g} is not below lambda_max(rho) = "
            f"{lam_max:.6g} at rho = {rho:.6g}; certificate refused",
            lam=lam, lam_max=lam_max, rho=rho)
    s1, sq = _sigma_pair(sigmas)
    return {"rho": float(rho), "lambda": float(lam),
            "lambda_max_at_rho": lam_max,
            "chi_upper": chi_upper(rho, problem, nl, sigmas),
            "inv_two_lambda": 1.0 / (2.0 * lam), "sigma1": s1, "sigmaq": sq,
            "ball_radius_hs": ball_radius(rho, problem)}


def best_lambda(problem: ProblemSpec, nl, sigmas) -> tuple[float, float]:
    """Maximize lambda_max over rho; returns (rho*, lambda_max(rho*)).

    lambda_max(rho) is proportional to sqrt(rho) / (A + B rho^{(q-1)/2})
    with A = a1 sigma_1 q (1-g)^{(q-1)/2} and B = a2 sigma_q^q, both
    positive.  Its derivative has the sign of A - (q-2) B rho^{(q-1)/2},
    which falls strictly through zero once (q > 2), so the maximum sits at
    the unique critical point rho* = (A / ((q-2) B))^{2/(q-1)}.  Raises
    ValueError when rho* is not a positive finite double, as when a tiny
    a2 makes B underflow to 0.
    """
    s1, sq = _sigma_pair(sigmas)
    g = problem.gamma_fraction
    q = nl.q
    A = nl.a1 * s1 * q * (1.0 - g) ** ((q - 1.0) / 2.0)
    B = nl.a2 * sq ** q
    try:
        rho = (A / ((q - 2.0) * B)) ** (2.0 / (q - 1.0))
    except (ZeroDivisionError, OverflowError):
        rho = math.inf
    if not 0.0 < rho < math.inf:
        raise ValueError(f"lambda_max has no finite maximizing rho: A = {A!r}, "
                         f"B = a2 sigma_q^q = {B!r}")
    return rho, lambda_max(rho, problem, nl, sigmas)


# -- golden values ---------------------------------------------------------------


def golden_key(r: float, problem: ProblemSpec, modes: int) -> str:
    return (f"sigma r={r:g} N={problem.N} T={problem.T!r} m={problem.m!r} "
            f"s={problem.s!r} M={modes}")


def default_golden_path():
    return resources.files("perifrac").joinpath("data/golden_sigmas.txt")


def load_golden(path=None) -> dict[str, float]:
    """Parse the golden-value file: '#' comments, 'key = value' lines."""
    if path is None:
        text = default_golden_path().read_text()
    else:
        with open(path) as fh:
            text = fh.read()
    out: dict[str, float] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, _, val = line.rpartition("=")
        out[key.strip()] = float(val.strip())
    return out
