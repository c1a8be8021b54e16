"""Embedding constants and the admissible-lambda machinery.

sigma_r is the best constant in  |u|_{L^r} <= sigma_r * sqrt(kappa) |u|_{H^s}
over real trigonometric polynomials of the working resolution; r = 1 and
r = 2 have closed forms (the constant field is extremal), general r is
estimated from below by projected Rayleigh-quotient ascent on the H^s
sphere from randomized starts.

From sigma_1 and sigma_q the certificate machinery produces, for each trial
ball parameter rho > 0,

    lambda_max(rho) = q sqrt(rho) (1-g)^{q/2}
        / (2 kappa (a1 sigma_1 q (1-g)^{(q-1)/2} + a2 sigma_q^q rho^{(q-1)/2}))

with g = gamma / m^{2s}; admissible lambda lie below it.  chi_upper is the
matching upper bound on the constrained-quotient function, algebraically
equal to 1/(2 lambda_max(rho)), and the comparison chi_upper < 1/(2 lambda)
is the certification gate.  For the quartic case (q=4, a1=a2=1) the same
content appears as the profile h(rho) whose maximum sets the right endpoint
of the admissible interval (0, (2/kappa)(1-g)^2 max h).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from importlib import resources

import numpy as np

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
    "example_h",
    "LambdaInterval",
    "example_lambda_interval",
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
    iterations: int = 0
    best_start: int = -1


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


def _ascent_grid(problem: ProblemSpec, modes: int, r: float) -> int:
    # |u|^{r-1} sgn(u) for integer r is a degree-(r-1) power of the samples;
    # use the product-dealiasing rule, generously for fractional r.
    deg = int(round(r)) if float(r).is_integer() else None
    n = (deg + 1) * modes + 2 if deg is not None else 4 * modes + 2
    return max(n, 2 * modes + 1, 2)


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
    """
    if r < 1.0:
        raise ValueError("r must be >= 1")
    n = _ascent_grid(problem, modes, r)
    params = SpectrumParams(modes, n)
    mu_s = sp.multiplier_array(problem, params)
    dx_weight = (problem.T / n) ** problem.N

    def lr_of(samples):
        return float(np.sum(np.abs(samples) ** r) * dx_weight) ** (1.0 / r)

    best_val, best_field, best_start = -np.inf, None, -1
    total_iters = 0
    for i_start, ss in enumerate(np.random.SeedSequence(seed).spawn(starts)):
        rng = np.random.default_rng(ss)
        u0 = sp.forward_transform(rng.standard_normal((n,) * problem.N),
                                  problem, params)
        c = u0.coeffs / max(sp.hs_norm(u0), 1e-300)
        step = 0.5
        val_prev = -np.inf
        for _ in range(max_iter):
            total_iters += 1
            samples = sp.inverse_transform(FourierField(c, problem, params))
            Lr = lr_of(samples)
            if Lr <= 0.0:
                break
            w = np.abs(samples) ** (r - 1.0) * np.sign(samples)
            what = sp.forward_transform(w, problem, params).coeffs * Lr ** (1.0 - r)
            grad = what / mu_s
            tangent = grad - np.real(np.vdot(c * mu_s, grad)) * c
            tnorm2 = float(np.real(np.vdot(tangent * mu_s, tangent)))
            if tnorm2 <= (tol * max(Lr, 1.0)) ** 2:
                break
            accepted = False
            val_try = val_prev
            for _ in range(40):
                trial = FourierField(c + step * tangent, problem, params)
                h = sp.hs_norm(trial)
                if h > 0.0:
                    c_try = trial.coeffs / h
                    val_try = lr_of(sp.inverse_transform(
                        FourierField(c_try, problem, params)))
                    if val_try > Lr * (1.0 + 1e-16):
                        c = c_try
                        step *= 1.3
                        accepted = True
                        break
                step *= 0.5
            if not accepted:
                break
            if abs(val_try - val_prev) <= tol * max(1.0, abs(val_try)):
                break
            val_prev = val_try
        field = FourierField(c, problem, params)
        h = sp.hs_norm(field)
        val = sp.lr_norm(field, r) / h if h > 0 else 0.0
        if val > best_val:
            best_val, best_field, best_start = val, field, i_start
    diag = {"starts": starts, "iterations": total_iters, "best_start": best_start}
    return best_val, best_field, diag


_SIGMA_CACHE: dict[tuple, EmbeddingEstimate] = {}


def sigma_estimate(r: float, problem: ProblemSpec, params: SpectrumParams,
                   seed: int = 0, starts: int = 16) -> EmbeddingEstimate:
    """sigma_r = sup |u|_{L^r} / (sqrt(kappa) |u|_{H^s}): exact closed form
    for r in {1, 2}, otherwise a truncated lower bound from multi-start
    ascent over the retained modes.

    Ascent results are memoized on (r, s, m, T, N, modes, seed, starts);
    lambda and gamma do not enter the quotient.  A cached estimate keeps
    the starts and iterations of the ascent that produced it, so on a
    cache hit those counts describe where the estimate came from, not
    work done in this call.
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
        return EmbeddingEstimate(r=r, value=closed,
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
        value=ratio / math.sqrt(kappa(problem.s)),
        status="truncated-lower-bound",
        modes=params.modes,
        starts=diag["starts"],
        iterations=diag["iterations"],
        best_start=diag["best_start"],
    )
    _SIGMA_CACHE[key] = est
    return est


# -- certificates ---------------------------------------------------------------


def _gap_fraction(problem: ProblemSpec) -> float:
    g = problem.gamma_fraction
    if not (0.0 <= g < 1.0):
        raise ValueError(f"gamma/m^(2s) = {g} must lie in [0, 1)")
    return g


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
    g = _gap_fraction(problem)
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
    g = _gap_fraction(problem)
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
    g = _gap_fraction(problem)
    return math.sqrt(rho / (kappa(problem.s) * (1.0 - g)))


@dataclass(frozen=True)
class LambdaRange:
    """One row of the certificate table at a fixed rho, with the inputs
    snapshotted so the row is self-contained."""

    rho: float
    lambda_max: float
    ball_radius: float
    sigma1: float
    sigmaq: float
    kappa_s: float
    a1: float
    a2: float
    q: float
    gamma_fraction: float


def lambda_table(rho_values, problem: ProblemSpec, nl, sigmas) -> list[LambdaRange]:
    s1, sq = _sigma_pair(sigmas)
    rows = []
    for rho in rho_values:
        rows.append(LambdaRange(
            rho=float(rho),
            lambda_max=lambda_max(rho, problem, nl, sigmas),
            ball_radius=ball_radius(rho, problem),
            sigma1=s1, sigmaq=sq,
            kappa_s=kappa(problem.s),
            a1=nl.a1, a2=nl.a2, q=nl.q,
            gamma_fraction=problem.gamma_fraction,
        ))
    return rows


def _golden_section_max(fn, lo: float, hi: float, tol: float = 1e-12,
                        max_iter: int = 300) -> tuple[float, float]:
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = fn(c), fn(d)
    for _ in range(max_iter):
        if b - a <= tol * max(1.0, abs(a) + abs(b)):
            break
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = fn(d)
    x = 0.5 * (a + b)
    return x, fn(x)


def _maximize_profile(fn, lo: float = 1e-6) -> tuple[float, float]:
    """Golden-section on [lo, rho_big], doubling rho_big until the profile
    decreases (it vanishes at both ends, so an interior bracket exists);
    lo is halved first if the profile is already decreasing there."""
    for _ in range(200):
        if fn(lo) < fn(2.0 * lo):
            break
        lo *= 0.5
    hi = max(2.0 * lo, 1.0)
    for _ in range(200):
        if fn(2.0 * hi) < fn(hi):
            break
        hi *= 2.0
    return _golden_section_max(fn, lo, 2.0 * hi)


def best_lambda(problem: ProblemSpec, nl, sigmas) -> tuple[float, float]:
    """Maximize lambda_max over rho; returns (rho*, lambda_max(rho*))."""
    return _maximize_profile(lambda rho: lambda_max(rho, problem, nl, sigmas))


def example_h(rho: float, sigmas, problem: ProblemSpec) -> float:
    """h(rho) = sqrt(rho) / (4 sigma_1 (1-g)^{3/2} + sigma_4^4 rho^{3/2}),
    the quartic-case (q=4, a1=a2=1) admissibility profile."""
    if rho <= 0.0:
        raise ValueError("rho must be positive")
    s1, s4 = _sigma_pair(sigmas)
    g = _gap_fraction(problem)
    return math.sqrt(rho) / (4.0 * s1 * (1.0 - g) ** 1.5 + s4 ** 4 * rho ** 1.5)


@dataclass(frozen=True)
class LambdaInterval:
    """Open interval (lower, upper) of certified lambda, with the
    maximizing rho recorded."""

    lower: float
    upper: float
    best_rho: float

    def contains(self, lam: float) -> bool:
        return self.lower < lam < self.upper

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.lower + self.upper)


def example_lambda_interval(sigmas, problem: ProblemSpec) -> LambdaInterval:
    """Certified interval (0, (2/kappa)(1-g)^2 max_rho h(rho)) for the
    quartic case; equals (0, max_rho lambda_max(rho)) there."""
    g = _gap_fraction(problem)
    k = kappa(problem.s)
    rho_star, h_star = _maximize_profile(
        lambda rho: example_h(rho, sigmas, problem))
    return LambdaInterval(lower=0.0,
                          upper=(2.0 / k) * (1.0 - g) ** 2 * h_star,
                          best_rho=rho_star)


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
