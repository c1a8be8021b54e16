"""Embedding constants and the admissible-lambda machinery.

sigma_r is the best constant in  |u|_{L^r} <= sigma_r * sqrt(kappa) |u|_{H^s}
over real trigonometric polynomials of the working resolution; r = 1 and
r = 2 have closed forms (the constant field is extremal), general r is
estimated from below by projected Rayleigh-quotient ascent on the H^s
sphere from randomized starts, climbed at M/2 and finished at M.

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
1/(2 lambda_max(rho)), and the comparison chi_upper < 1/(2 lambda) is the
certification gate.  The paper states its quartic example (q=4,
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

__all__ = [
    "EmbeddingEstimate",
    "sigma_estimate",
    "rayleigh_ascent",
    "lambda_max",
    "chi_upper",
    "ball_radius",
    "LambdaRange",
    "lambda_table",
    "best_lambda",
    "golden_key",
    "load_golden",
    "default_golden_path",
    "kappa",
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
    # for fractional r neither |u|^r nor w is: those keep the generous
    # product-dealiasing rule, which is only spectrally accurate.
    if float(r).is_integer():
        deg = int(r)
        n = deg * modes + 1 if deg % 2 == 0 else (deg + 1) * modes + 2
    else:
        n = 4 * modes + 2
    return max(n, 2 * modes + 1, 2)


# Below this many modes every start climbs at M itself and no finish runs.
# The coarse level M // 2 = 0 holds only constant fields, a critical point
# of the quotient that the finish cannot leave, and from M // 2 = 1 the
# finish can land on a lower fine maximum: at N=2, s=0.6, r=3 it ended up
# to 4.1% short of the single-level ascent at M=2 and 3 (seeds 0-9).
# From M // 2 >= 2 (N=1..3, r=3 and 4, M=4..6) it stayed within 1.3e-10.
_NESTED_MIN_MODES = 4


@np.errstate(over="ignore", invalid="ignore")
def _climb(problem: ProblemSpec, r: float, modes: int, c: np.ndarray,
           step: float, max_iter: int, tol: float):
    """One projected gradient ascent of |u|_{L^r} / |u|_{H^s} over the half
    cube of degree `modes`, from the half cube c, first rescaled to the
    H^s unit sphere, with first trial step `step`.  Returns (ratio, half
    cube of the end point, step length at the end, iterations).  A ratio
    that overflows or underflows the float range ends the climb, and is
    returned as it is."""
    n = _ascent_grid(modes, r)
    params = SpectrumParams(modes, n)
    mu_s = sp._half_multiplier(problem, params)
    dot = sp._half_dot(problem, params)
    dx_weight = (problem.T / n) ** problem.N
    # for even r, a = u*u and |u|^r = a^p; otherwise a = |u|
    even = float(r).is_integer() and int(r) % 2 == 0
    p = int(r) // 2

    def sample(c):
        u = sp._half_to_samples(c, problem, n)
        a = u * u if even else np.abs(u)
        lr = float(np.sum(a ** p if even else a ** r) * dx_weight) ** (1.0 / r)
        return u, a, lr

    c = c / max(math.sqrt(dot(c, c)), 1e-300)
    u, a, Lr = sample(c)
    val_prev = -np.inf
    iterations = 0
    for _ in range(max_iter):
        iterations += 1
        if not 0.0 < Lr < math.inf:
            break
        w = a ** (p - 1) * u if even else a ** (r - 1.0) * np.sign(u)
        grad = sp._hermitian_half(w, problem, modes) * Lr ** (1.0 - r) / mu_s
        tangent = grad - dot(c, grad) * c
        tnorm2 = dot(tangent, tangent)
        if tnorm2 <= (tol * max(Lr, 1.0)) ** 2:
            break
        accepted = False
        for _ in range(40):
            trial = c + step * tangent
            h = math.sqrt(dot(trial, trial))
            if h > 0.0:
                c_try = trial / h
                u_try, a_try, val_try = sample(c_try)
                if val_try > Lr * (1.0 + 1e-16):
                    c, u, a, Lr = c_try, u_try, a_try, val_try
                    step *= 1.3
                    accepted = True
                    break
            step *= 0.5
        if not accepted:
            break
        if abs(Lr - val_prev) <= tol * max(1.0, abs(Lr)):
            break
        val_prev = Lr
    h = math.sqrt(dot(c, c))
    return (Lr / h if h > 0 else 0.0), c, step, iterations


def rayleigh_ascent(problem: ProblemSpec, r: float, modes: int,
                    seed: int = 0, starts: int = 16,
                    max_iter: int = 2000, tol: float = 1e-12):
    """Maximize |u|_{L^r} / |u|_{H^s} over the truncated mode space.

    Projected gradient ascent on the H^s unit sphere: the flat-metric
    gradient of L(c) = |u|_{L^r} has modes L^{1-r} w_k with
    w = |u|^{r-1} sgn(u); preconditioning by mu^{-s} and removing the
    radial component gives the tangential step.  Multi-start with seeds
    spawned from the master seed; returns (best ratio, best field,
    diagnostics dict).

    Nested iteration: every start climbs on the coarse level M_c = M // 2,
    and only the best coarse maximizer, zero-padded into the degree-M half
    cube (leading axes centred, k_N = 0..M_c), climbs on at M, with the
    step length its coarse climb ended with.  The returned ratio is the
    quotient of the returned degree-M field, a lower bound for the
    supremum as before.  Below _NESTED_MIN_MODES the starts climb at M
    itself and no finish runs.  The diagnostics count the coarse level
    (coarse_modes, coarse_iterations), the finish (fine_iterations) and
    their sum (iterations).

    For even integer r the grid has n = max(rM, 2M) + 1 points per axis,
    where u^r and u^{r-1} (degree rM and (r-1)M) are resolved exactly, so
    the returned ratio is the exact quotient of the returned field.  There
    u^r and w = u^{r-1} are exact integer powers of u*u times u.  Odd and
    fractional r use a finer grid on which |u|^r, which has a kink at the
    zeros of u, is integrated to spectral accuracy only.

    The state is the k_N >= 0 half of the mode cube as a raw array, moved
    by spectral's pruned kernels, products with cached DFT matrices that
    compute only the retained modes, and measured by spectral._half_dot,
    which weights each k_N > 0 entry twice, once for its conjugate
    partner.  Every forward step makes the k_N = 0 plane exactly
    Hermitian, as forward_transform does, and the steps (real even
    multipliers, real scalars, sums, zero padding) keep it so; the
    returned field is the full cube filled by conjugation.  Each field is
    inverse-transformed once on its level: the samples of an accepted
    trial point carry over to the next iteration and to the final ratio.
    """
    if r < 1.0:
        raise ValueError("r must be >= 1")
    if starts < 1:
        raise ValueError(f"starts = {starts!r} violates starts >= 1")
    coarse = modes // 2 if modes >= _NESTED_MIN_MODES else modes
    n = _ascent_grid(coarse, r)
    climbs = [_climb(problem, r, coarse,
                     sp._hermitian_half(default_rng(ss).standard_normal(
                         (n,) * problem.N), problem, coarse),
                     0.5, max_iter, tol)
              for ss in SeedSequence(seed).spawn(starts)]
    ratio, c, step, _ = max(climbs, key=lambda climb: climb[0])
    coarse_iterations = sum(climb[3] for climb in climbs)
    fine_iterations = 0
    if coarse < modes:
        padded = np.zeros((2 * modes + 1,) * (problem.N - 1) + (modes + 1,),
                          dtype=complex)
        lead = slice(modes - coarse, modes + coarse + 1)
        padded[(lead,) * (problem.N - 1) + (slice(coarse + 1),)] = c
        ratio, c, _, fine_iterations = _climb(problem, r, modes, padded,
                                              step, max_iter, tol)
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


@dataclass(frozen=True)
class LambdaRange:
    """One row of the certificate table: lambda_max and the ball radius at
    a fixed rho."""

    rho: float
    lambda_max: float
    ball_radius: float


def lambda_table(rho_values, problem: ProblemSpec, nl, sigmas) -> list[LambdaRange]:
    return [LambdaRange(rho=float(rho),
                        lambda_max=float(lambda_max(rho, problem, nl, sigmas)),
                        ball_radius=ball_radius(rho, problem))
            for rho in rho_values]


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
