"""Nonlinearity, reduced energy functional and its spectral gradient.

The working functional on Fourier fields is

    I(u) = (1/(2 lam)) (|u|_Hs^2 - gamma |u|_L2^2) - int F(x, u) dx

whose stationary points solve, per retained mode k,

    (mu_k^s - gamma) c_k = lam g_k,     g = f(., u).

The overall prefactor kappa(s) of the e-norm formulation is dropped from
the working functional and carried separately in reports; critical points
are unchanged.

Nonlinear terms f(x, u) are evaluated pseudospectrally on an oversampled
grid: >= (p+1)/2 oversampling relative to the minimal 2M + 1 points for a
polynomial of degree p (the 3/2-rule for quadratics, 2x for cubics), and
plain 2x for non-polynomial f.

Samples of f and F are judged by their values alone (`_evaluate`), after
a result of another shape, a scalar say, is broadcast to the samples'
(`_values`): float flags are ignored, so a finite value after an
intermediate overflow passes, and the first non-finite value in C order
raises OverflowError naming its sample u and point x.  In the checkers a
non-finite margin fails its check.
"""

from __future__ import annotations

import math
import re
import sys
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from . import spectral as sp
from .spectral import FourierField

__all__ = [
    "Nonlinearity",
    "get_nonlinearity",
    "registry_keys",
    "CheckReport",
    "check_growth",
    "check_ar",
    "check_superhomogeneity",
    "validate_growth_exponent",
    "dealias_points",
    "nonlinear_image",
    "integral_of_potential",
    "energy",
    "gradient",
    "weak_residual",
    "residual_dual_norm",
    "riesz_representative",
]


@dataclass(frozen=True, eq=False)
class Nonlinearity:
    """Forcing profile f(x, t), its primitive F(x, t) = int_0^t f(x, r) dr
    and its derivative fprime(x, t) = d f / d t, each a callable whose
    result broadcasts to the shape of t, and the structural constants,
    declared facts about f and F:

      a1, a2, q : growth bound |f(x,t)| <= a1 + a2 |t|^(q-1), a1, a2 > 0
                  (a bound with a zero constant holds with any positive
                  one, and the best rho of the certificate needs both)
      alpha, r0 : superlinearity 0 < alpha F(x,t) <= t f(x,t) for |t| >= r0
    """

    name: str
    f: Callable
    F: Callable
    a1: float
    a2: float
    q: float
    alpha: float
    r0: float
    fprime: Callable
    poly_degree: int | None = None   # degree of t -> f(x, t) when polynomial

    def __post_init__(self):
        for name in ("f", "F", "fprime"):
            if not callable(getattr(self, name)):
                raise ValueError(f"{name} must be callable")
        if self.a1 <= 0 or self.a2 <= 0:
            raise ValueError("growth constants a1, a2 must be positive")
        if self.q <= 2.0:
            raise ValueError(f"q={self.q} must exceed 2")
        if self.alpha <= 2.0:
            raise ValueError(f"alpha={self.alpha} must exceed 2")
        if self.r0 <= 0.0:
            raise ValueError("r0 must be positive")


def _cubic_plus_one() -> Nonlinearity:
    return Nonlinearity(
        name="cubic_plus_one",
        f=lambda x, t: 1.0 + t ** 3,
        F=lambda x, t: t + 0.25 * t ** 4,
        fprime=lambda x, t: 3.0 * t ** 2,
        a1=1.0, a2=1.0, q=4.0, alpha=3.0, r0=2.0,
        poly_degree=3,
    )


def _odd_power(p: int) -> Nonlinearity:
    if p < 3 or p % 2 == 0:
        raise ValueError(f"odd_power requires an odd integer power >= 3, got {p}")
    return Nonlinearity(
        name=f"odd_power({p})",
        f=lambda x, t: t ** p,
        F=lambda x, t: t ** (p + 1) / (p + 1),
        fprime=lambda x, t: p * t ** (p - 1),
        a1=1.0, a2=1.0, q=float(p + 1), alpha=float(p + 1), r0=1.0,
        poly_degree=p,
    )


_REGISTRY = {
    "cubic_plus_one": _cubic_plus_one,
    "pure_cubic": lambda: replace(_odd_power(3), name="pure_cubic"),
}

_ODD_POWER_RE = re.compile(r"^odd_power\((\d+)\)$")


def registry_keys() -> list[str]:
    return sorted(_REGISTRY) + ["odd_power(p)"]


def get_nonlinearity(key: str, **overrides) -> Nonlinearity:
    """Look up a registered nonlinearity by key: 'cubic_plus_one',
    'pure_cubic', or 'odd_power(p)' with p an odd integer >= 3."""
    key = key.strip()
    m = _ODD_POWER_RE.match(key)
    if m:
        nl = _odd_power(int(m.group(1)))
    elif key in _REGISTRY:
        nl = _REGISTRY[key]()
    else:
        raise KeyError(f"unknown nonlinearity {key!r}; known: {registry_keys()}")
    return replace(nl, **overrides) if overrides else nl


def validate_growth_exponent(nl: Nonlinearity, problem) -> None:
    """q must stay below the critical exponent 2N/(N-2s)."""
    if nl.q >= problem.critical_exponent:
        raise ValueError(
            f"q={nl.q} >= critical exponent {problem.critical_exponent:.6g} "
            f"for N={problem.N}, s={problem.s}"
        )


# -- hypothesis checkers -----------------------------------------------------


@dataclass(frozen=True)
class CheckReport:
    name: str
    passed: bool
    worst_margin: float
    witness: tuple | None = None
    detail: str = ""


def _x_tuple(x_points: np.ndarray, N: int):
    x_points = np.atleast_2d(np.asarray(x_points, dtype=float))
    if x_points.shape[1] != N:
        raise ValueError(f"x_points must have {N} columns")
    return tuple(x_points[:, d] for d in range(N)), x_points


def _values(fn, x, t) -> np.ndarray:
    """fn at the samples t, a result of another shape (a scalar, say)
    broadcast to t's."""
    out = np.asarray(fn(x, t), dtype=float)
    return out if out.shape == t.shape else np.broadcast_to(out, t.shape)


class _WorstMargin:
    """Running minimum of sampled margins and the sample that attains it.

    A non-finite margin is the worst there is: it is recorded as
    -sys.float_info.max, which keeps the report a finite double, and it
    fails the check whatever the tolerance.
    """

    def __init__(self):
        self.value, self.witness, self.finite = math.inf, None, True

    def add(self, margins, witness):
        """Fold in one batch; witness(i) describes its sample i."""
        finite = np.isfinite(margins)
        self.finite = self.finite and bool(finite.all())
        margins = np.where(finite, margins, -sys.float_info.max)
        i = int(np.argmin(margins))
        if margins[i] < self.value:
            self.value, self.witness = float(margins[i]), witness(i)

    def holds(self, tol: float) -> bool:
        return self.finite and bool(self.value >= tol)


# the checkers judge f and F by their values, as _evaluate does: a sample
# that is not finite fails its check, whatever float flag produced it
_SAMPLING = dict(all="ignore")


def check_growth(nl: Nonlinearity, t_values, x_points, N: int = 1) -> CheckReport:
    """Sample |f(x,t)| <= a1 + a2 |t|^(q-1) on the given lattice."""
    xt, xp = _x_tuple(x_points, N)
    worst = _WorstMargin()
    with np.errstate(**_SAMPLING):
        for t in np.asarray(t_values, dtype=float):
            fv = _values(nl.f, xt, np.full(xp.shape[0], t))
            bound = nl.a1 + nl.a2 * abs(t) ** (nl.q - 1.0)
            worst.add(bound - np.abs(fv), lambda i: (tuple(xp[i]), float(t)))
        tol = -1e-12 * (1.0 + nl.a1
                        + nl.a2 * np.max(np.abs(t_values)) ** (nl.q - 1.0))
    return CheckReport(
        name="growth_bound",
        passed=worst.holds(tol),
        worst_margin=worst.value,
        witness=worst.witness,
        detail=f"|f| <= {nl.a1} + {nl.a2}|t|^{nl.q - 1.0}",
    )


def check_ar(nl: Nonlinearity, t_max: float, x_points, N: int = 1) -> CheckReport:
    """Superlinearity 0 < alpha F(x,t) <= t f(x,t) at 201 |t| in [r0, t_max]."""
    if t_max < nl.r0:
        raise ValueError("t_max must be >= r0")
    xt, xp = _x_tuple(x_points, N)
    ts_pos = np.linspace(nl.r0, t_max, 201)
    ts = np.concatenate([-ts_pos[::-1], ts_pos])
    worst, alpha_F = _WorstMargin(), _WorstMargin()
    with np.errstate(**_SAMPLING):
        for t in ts:
            tv = np.full(xp.shape[0], t)
            aF = nl.alpha * _values(nl.F, xt, tv)
            fv = _values(nl.f, xt, tv)
            alpha_F.add(aF, lambda i: None)
            worst.add(t * fv - aF, lambda i: (tuple(xp[i]), float(t)))
        scale = 1.0 + np.abs(t_max) ** nl.q
    return CheckReport(
        name="superlinearity",
        passed=alpha_F.value > 0.0 and worst.holds(-1e-11 * scale),
        worst_margin=min(worst.value, alpha_F.value),
        witness=worst.witness,
        detail=f"0 < {nl.alpha} F <= t f on |t| in [{nl.r0}, {t_max}]",
    )


def check_superhomogeneity(nl: Nonlinearity, t_values, v_values, x_points,
                           N: int = 1) -> CheckReport:
    """F(x, t v) >= F(x, v) t^alpha for t >= 1, |v| >= r0, on the lattice."""
    xt, xp = _x_tuple(x_points, N)
    worst = _WorstMargin()
    with np.errstate(**_SAMPLING):
        for t in np.asarray(t_values, dtype=float):
            if t < 1.0:
                raise ValueError("t_values must be >= 1")
            for v in np.asarray(v_values, dtype=float):
                if abs(v) < nl.r0:
                    raise ValueError("v_values must satisfy |v| >= r0")
                vv = np.full(xp.shape[0], v)
                lhs = _values(nl.F, xt, t * vv)
                rhs = _values(nl.F, xt, vv) * t ** nl.alpha
                worst.add(lhs - rhs,
                          lambda i: (tuple(xp[i]), float(t), float(v)))
        scale = 1.0 + abs(np.max(np.abs(t_values))
                          * np.max(np.abs(v_values))) ** nl.q
    return CheckReport(
        name="superhomogeneity",
        passed=worst.holds(-1e-9 * scale),
        worst_margin=worst.value,
        witness=worst.witness,
        detail=f"F(x, t v) >= F(x, v) t^{nl.alpha}",
    )


# -- pseudospectral evaluation ------------------------------------------------


def dealias_points(modes: int, poly_degree: int | None) -> int:
    """Grid size per dimension making products of degree p alias-free on the
    retained cube: n >= (p+1) M + 1 (with one extra point of slack); 2x the
    minimal grid for non-polynomial f."""
    if poly_degree is None:
        n = 2 * (2 * modes + 1)
    else:
        n = (poly_degree + 1) * modes + 2
    return max(n, 2 * modes + 1, 1)


def _padded_samples(u: FourierField, nl: Nonlinearity):
    n_pad = dealias_points(u.params.modes, nl.poly_degree)
    samples = sp.inverse_transform(u, grid_points=n_pad)
    x = sp.grid_coordinates(u.problem, n_pad)
    return x, samples, n_pad


def _evaluate(fn, x, samples, what: str) -> np.ndarray:
    with np.errstate(all="ignore"):
        out = _values(fn, x, samples)
    if not np.all(np.isfinite(out)):
        i = np.unravel_index(int(np.argmax(~np.isfinite(out))), out.shape)
        raise OverflowError(
            f"{what} non-finite at sample u={samples[i]:.6g}, "
            f"x={tuple(float(c[i]) for c in x)}"
        )
    return out


def nonlinear_image(u: FourierField, nl: Nonlinearity) -> FourierField:
    """Retained-cube coefficients of g = f(., u), dealiased by oversampling."""
    x, samples, _ = _padded_samples(u, nl)
    g = _evaluate(nl.f, x, samples, f"f[{nl.name}]")
    return sp.forward_transform(g, u.problem, u.params)


def _rectangle_rule(nl: Nonlinearity, x, samples, problem) -> float:
    """int F(x, u(x)) dx by the rectangle rule, from u's samples at x."""
    Fv = _evaluate(nl.F, x, samples, f"F[{nl.name}]")
    with np.errstate(over="ignore", invalid="ignore"):
        total = float(np.sum(Fv) * (problem.T / samples.shape[0]) ** problem.N)
    if not math.isfinite(total):
        raise OverflowError(f"rectangle-rule sum of F[{nl.name}] overflowed")
    return total


def integral_of_potential(u: FourierField, nl: Nonlinearity) -> float:
    """int F(x, u(x)) dx by the rectangle rule on the dealiased grid."""
    x, samples, _ = _padded_samples(u, nl)
    return _rectangle_rule(nl, x, samples, u.problem)


# -- energy and gradient -------------------------------------------------------


def energy(u: FourierField, nl: Nonlinearity) -> float:
    """Reduced functional value I(u)."""
    pr = u.problem
    quad_part = (sp.hs_norm(u) ** 2 - pr.gamma * sp.l2_norm(u) ** 2) / (2.0 * pr.lam)
    return quad_part - integral_of_potential(u, nl)


def gradient(u: FourierField, nl: Nonlinearity) -> FourierField:
    """Mode-wise gradient r_k = (1/lam)(mu_k^s - gamma) c_k - g_k, g = f(., u),
    so that d/de I(u + e phi)|_0 = Re sum r_k conj(phi_k).  Real even
    multipliers and sums keep the Hermitian symmetry of u and g exact."""
    pr = u.problem
    mu_s = sp.multiplier_array(pr, u.params)
    ghat = nonlinear_image(u, nl)
    r = (mu_s - pr.gamma) / pr.lam * u.coeffs - ghat.coeffs
    return FourierField(r, pr, u.params)


def weak_residual(u: FourierField, nl: Nonlinearity) -> FourierField:
    """Euler-Lagrange residual (mu_k^s - gamma) c_k - lam g_k = lam * gradient."""
    return u.problem.lam * gradient(u, nl)


def residual_dual_norm(u: FourierField, nl: Nonlinearity) -> float:
    """Dual norm of the weak residual; the solvers' convergence measure."""
    return sp.dual_norm(weak_residual(u, nl))


def riesz_representative(r: FourierField) -> FourierField:
    """Hs-Riesz representative of a dual element: divide mode k by mu_k^s.
    Satisfies hs_norm(riesz)^2 = dual_norm(r)^2."""
    mu_s = sp.multiplier_array(r.problem, r.params)
    return FourierField(r.coeffs / mu_s, r.problem, r.params)
