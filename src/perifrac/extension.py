"""Bessel-profile identities behind the fractional norm.

The degenerate-elliptic profile

    theta(y) = (2 / Gamma(s)) (y/2)^s K_s(y)

solves theta'' + ((1-2s)/y) theta' - theta = 0 with theta(0) = 1 and
theta(inf) = 0 (K_s the modified Bessel function of the second kind).
It carries the normalization constant

    kappa(s) = 2^(1-2s) Gamma(1-s) / Gamma(s)

through three identities that this module computes and cross-checks
numerically:

  * profile energy: int_0^inf y^(1-2s) (theta'^2 + theta^2) dy = kappa(s)
  * per mode:       int_0^inf y^(1-2s) (theta_k'^2 + mu theta_k^2) dy
                    = mu^s kappa(s),  theta_k(y) = theta(sqrt(mu) y)
  * conormal limit: -lim_{y->0+} y^(1-2s) d/dy theta(sqrt(mu) y)
                    = kappa(s) mu^s

At s = 1/2 everything is elementary: theta(y) = exp(-y), kappa = 1.

The derivative uses d/dy [y^s K_s(y)] = -y^s K_{s-1}(y) and K_{-v} = K_v:

    theta'(y) = -(2^(1-s) / Gamma(s)) y^s K_{1-s}(y).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad
from scipy.special import gamma as _gamma
from scipy.special import kv as _kv

__all__ = [
    "kappa",
    "bessel_k",
    "theta",
    "theta_prime",
    "ode_residual",
    "ExtensionProfile",
    "WeightedQuadrature",
    "QuadratureError",
    "ExtrapolationError",
    "profile_energy",
    "mode_energy",
    "conormal_limit",
    "TraceIdentityReport",
    "verify_trace_identity",
]


def _check_order(s: float):
    if not 0.0 < s < 1.0:
        raise ValueError(f"order s={s} outside (0, 1)")


def kappa(s: float) -> float:
    """Normalization constant 2^(1-2s) Gamma(1-s) / Gamma(s); kappa(1/2) = 1."""
    _check_order(s)
    return 2.0 ** (1.0 - 2.0 * s) * _gamma(1.0 - s) / _gamma(s)


def bessel_k(s: float, y) -> float | np.ndarray:
    """Modified Bessel function K_s(y) for order s in (0, 1), y > 0."""
    _check_order(s)
    y = np.asarray(y, dtype=float)
    if np.any(y <= 0.0):
        raise ValueError("bessel_k requires y > 0")
    out = _kv(s, y)
    return float(out) if out.ndim == 0 else out


def theta(s: float, y, fault: float = 0.0) -> float | np.ndarray:
    """Profile value theta(y) = (2/Gamma(s)) (y/2)^s K_s(y); theta(0) = 1.

    A nonzero fault adds fault * y * exp(-y), which keeps theta(0) = 1 but
    breaks the ODE; the verification battery injects it to prove that its
    checks can fail.
    """
    _check_order(s)
    y = np.asarray(y, dtype=float)
    if np.any(y < 0.0):
        raise ValueError("theta requires y >= 0")
    out = np.ones_like(y)
    pos = y > 0.0
    yp = y[pos]
    out[pos] = (2.0 / _gamma(s)) * (yp / 2.0) ** s * _kv(s, yp)
    if fault:
        out = out + fault * y * np.exp(-y)
    return float(out) if out.ndim == 0 else out


def theta_prime(s: float, y) -> float | np.ndarray:
    """theta'(y) = -(2^(1-s)/Gamma(s)) y^s K_{1-s}(y), for y > 0."""
    _check_order(s)
    y = np.asarray(y, dtype=float)
    if np.any(y <= 0.0):
        raise ValueError("theta_prime requires y > 0")
    out = -(2.0 ** (1.0 - s) / _gamma(s)) * y ** s * _kv(1.0 - s, y)
    return float(out) if out.ndim == 0 else out


def ode_residual(s: float, y: float, fault: float = 0.0) -> float:
    """theta'' + ((1-2s)/y) theta' - theta at y, derivatives by 4th-order
    central differences of theta (an implementation-independent check).

    Accuracy degrades as y -> 0; intended for y in roughly [0.05, 40].
    """
    _check_order(s)
    y = float(y)
    if y <= 0.0:
        raise ValueError("ode_residual requires y > 0")
    h = min(1e-3, y / 8.0)
    t = theta(s, np.array([y - 2 * h, y - h, y, y + h, y + 2 * h]), fault)
    d1 = (-t[4] + 8.0 * t[3] - 8.0 * t[1] + t[0]) / (12.0 * h)
    d2 = (-t[4] + 16.0 * t[3] - 30.0 * t[2] + 16.0 * t[1] - t[0]) / (12.0 * h * h)
    return float(d2 + (1.0 - 2.0 * s) / y * d1 - t[2])


@dataclass(frozen=True)
class ExtensionProfile:
    """Evaluator bundle for theta and theta' at a fixed order s."""

    s: float

    def __post_init__(self):
        _check_order(self.s)

    def value(self, y):
        return theta(self.s, y)

    def derivative(self, y):
        return theta_prime(self.s, y)


class QuadratureError(RuntimeError):
    """Weighted quadrature failed to converge within its error budget."""


class ExtrapolationError(RuntimeError):
    """Richardson sequence for the conormal limit did not settle."""


@dataclass(frozen=True)
class WeightedQuadrature:
    """Quadrature for int_0^inf y^exponent g(y) dy with exponent in (-1, 1).

    The finite part (0, crossover] goes through an adaptive rule with the
    algebraic endpoint weight handled analytically; beyond the crossover
    the integrands of interest decay like exp(-2y), so the tail is not
    integrated but bounded by that decay model and required to be
    negligible (errors out otherwise).
    """

    exponent: float
    crossover: float = 40.0
    rel_tol: float = 1e-9

    def __post_init__(self):
        if not -1.0 < self.exponent < 1.0:
            raise ValueError(f"exponent={self.exponent} outside (-1, 1)")
        if self.crossover <= 0.0:
            raise ValueError("crossover must be positive")

    def integrate(self, g) -> float:
        res = quad(
            g,
            0.0,
            self.crossover,
            weight="alg",
            wvar=(self.exponent, 0.0),
            epsabs=1e-13,
            epsrel=1e-12,
            limit=400,
            full_output=1,
        )
        value, abserr = res[0], res[1]
        scale = max(abs(value), 1e-30)
        if len(res) > 3 and abserr > 1e-7 * scale:
            raise QuadratureError(f"weighted quadrature: {res[3]}")
        if abserr > max(1e-9, 1e-7 * scale):
            raise QuadratureError(
                f"weighted quadrature error estimate {abserr:.2e} exceeds budget"
            )
        # decay-model tail estimate: |g| falls at least like exp(-2(y-Y*))
        tail = 5.0 * self.crossover ** self.exponent * abs(g(self.crossover)) * 0.5
        if tail > max(1e-12, self.rel_tol * scale):
            raise QuadratureError(
                f"tail estimate {tail:.2e} at crossover {self.crossover} "
                f"exceeds tolerance; integrand decays too slowly"
            )
        return float(value)


def _dprofile_sq(s: float, y: float, scale: float = 1.0) -> float:
    """Smooth factor y^(2-4s) theta'(scale*y)^2 of the derivative integrand.

    The adaptive rule evaluates at the y=0 endpoint, where theta' itself
    blows up like -kappa(s) (scale*y)^(2s-1); the product has the finite
    limit kappa(s)^2 scale^(4s-2), spliced in here.
    """
    y = float(y)
    if y == 0.0:
        return kappa(s) ** 2 * scale ** (4.0 * s - 2.0)
    return y ** (2.0 - 4.0 * s) * theta_prime(s, scale * y) ** 2


def profile_energy(s: float, fault: float = 0.0) -> float:
    """int_0^inf y^(1-2s) (theta'^2 + theta^2) dy, computed by quadrature.

    Equals kappa(s); the two endpoint behaviors y^(1-2s) and y^(2s-1) are
    integrated with their own weighted rules.
    """
    _check_order(s)
    wa = WeightedQuadrature(1.0 - 2.0 * s)
    a = wa.integrate(lambda y: theta(s, y, fault) ** 2)
    wb = WeightedQuadrature(2.0 * s - 1.0)
    b = wb.integrate(lambda y: _dprofile_sq(s, y))
    return a + b


def mode_energy(k, problem, fault: float = 0.0) -> float:
    """Weighted energy of the mode profile theta_k(y) = theta(sqrt(mu_k) y):

        int_0^inf y^(1-2s) (theta_k'^2 + mu_k theta_k^2) dy  = mu_k^s kappa(s)

    computed by raw quadrature (the closed form is the test oracle).
    """
    s = problem.s
    k = np.asarray(k, dtype=float)
    mu = problem.omega ** 2 * float(k @ k) + problem.m ** 2
    rt = math.sqrt(mu)
    wa = WeightedQuadrature(1.0 - 2.0 * s)
    a = wa.integrate(lambda y: mu * theta(s, rt * y, fault) ** 2)
    wb = WeightedQuadrature(2.0 * s - 1.0)
    b = wb.integrate(lambda y: mu * _dprofile_sq(s, y, scale=rt))
    return a + b


def conormal_limit(s: float, mu: float) -> float:
    """-lim_{y->0+} y^(1-2s) d/dy theta(sqrt(mu) y), by Richardson extrapolation.

    Evaluates phi(y) = -y^(1-2s) sqrt(mu) theta'(sqrt(mu) y) on y_j = 2^-j,
    j = 3..14, and removes the leading corrections y^(2-2s), y^2, y^(4-2s).
    Limit equals kappa(s) mu^s.
    """
    _check_order(s)
    if mu <= 0.0:
        raise ValueError("mu must be positive")
    rt = math.sqrt(mu)
    ys = 2.0 ** (-np.arange(3, 15, dtype=float))
    seq = -(ys ** (1.0 - 2.0 * s)) * rt * theta_prime(s, rt * ys)
    for p in (2.0 - 2.0 * s, 2.0, 4.0 - 2.0 * s):
        w = 2.0 ** p
        seq = (w * seq[1:] - seq[:-1]) / (w - 1.0)
    if not np.all(np.isfinite(seq)):
        raise ExtrapolationError("non-finite extrapolation sequence")
    tol = 1e-6 * max(abs(seq[-1]), 1e-30)
    if abs(seq[-1] - seq[-2]) > tol:
        raise ExtrapolationError(
            f"extrapolation not settled: last delta {abs(seq[-1] - seq[-2]):.2e}"
        )
    return float(seq[-1])


@dataclass(frozen=True)
class TraceIdentityReport:
    mode_sum: float       # sum_k mode_energy(k) |c_k|^2 (quadrature route)
    norm_side: float      # kappa(s) |u|_Hs^2 (multiplier route)
    rel_gap: float
    modes_used: int


def verify_trace_identity(u, fault: float = 0.0) -> TraceIdentityReport:
    """Cross-check sum_k mode_energy(k)|c_k|^2 against kappa(s)|u|_Hs^2.

    Modes with negligible coefficients are skipped; mode energies are
    cached per |k|^2 since they depend on k only through mu_k.
    """
    from . import spectral as sp  # imported here to keep this module a leaf

    problem, params = u.problem, u.params
    M = params.modes
    c = u.coeffs
    cmax = float(np.abs(c).max())
    threshold = 1e-13 * max(cmax, 1.0)
    cache: dict[int, float] = {}
    mode_sum = 0.0
    used = 0
    for idx in np.argwhere(np.abs(c) > threshold):
        k = idx - M
        ksq = int(k @ k)
        if ksq not in cache:
            cache[ksq] = mode_energy(k, problem, fault)
        mode_sum += cache[ksq] * float(np.abs(c[tuple(idx)]) ** 2)
        used += 1
    norm_side = kappa(problem.s) * sp.hs_norm(u) ** 2
    denom = max(abs(norm_side), 1e-30)
    return TraceIdentityReport(
        mode_sum=mode_sum,
        norm_side=norm_side,
        rel_gap=abs(mode_sum - norm_side) / denom,
        modes_used=used,
    )
