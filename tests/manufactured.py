"""Manufactured forcings: a non-constant field u* that solves the equation
exactly, for the ball-stage oracle tests and scripts/manufactured_sweep.py.

For a real trigonometric polynomial u*, take f(x, t) = g(x) + t^3 with
g = (L u*)/lam - u*^3, where L multiplies mode k by mu_k^s - gamma, so
that L u* = lam f(., u*).  g has degree 3 deg u*, so u* is an exact
Galerkin solution at every M >= deg u* on the cubic dealiasing grid.  The
bounds hold with a2 = 1, q = 4 and the rigorous a1 = |L u*|_inf / lam +
|u*|_inf^3, each sup norm bounded by the coefficient sum times T^(-N/2);
and t f - 3 F = t^4/4 - 2 g t >= 0 for |t| >= r0 = (8 a1)^(1/3).
"""

import numpy as np

from perifrac.spectral import FourierField, multiplier_array
from perifrac.variational import Nonlinearity


def manufactured_forcing(problem, params, modes):
    """The forcing whose exact solution is u* = FourierField.from_modes(
    problem, params, modes), with M >= deg u*.  Returns (nl, u*)."""
    M, scale = params.modes, problem.T ** (problem.N / 2.0)
    ustar = FourierField.from_modes(problem, params, modes)
    L = multiplier_array(problem, params) - problem.gamma
    terms = [(tuple(i - M for i in idx), ustar.coeffs[idx], L[idx])
             for idx in zip(*np.nonzero(ustar.coeffs))]

    def resummed(x):
        u = Lu = 0.0
        for k, c, l_k in terms:
            phase = problem.omega * sum(ki * xi for ki, xi in zip(k, x))
            term = (c.real * np.cos(phase) - c.imag * np.sin(phase)) / scale
            u, Lu = u + term, Lu + l_k * term
        return Lu / problem.lam - u ** 3

    samples = {}

    def g(x):
        # summed once per point set x: the solvers pass the one cached tuple
        # of grid_coordinates on every call.  x is kept with its samples,
        # so its id is not reused while it is a key
        if id(x) not in samples:
            samples[id(x)] = (x, resummed(x))
        return samples[id(x)][1]

    sup = np.abs(ustar.coeffs).sum() / scale
    a1 = np.abs(L * ustar.coeffs).sum() / scale / problem.lam + sup ** 3
    nl = Nonlinearity(
        name="manufactured_cubic",
        f=lambda x, t: g(x) + t ** 3,
        F=lambda x, t: g(x) * t + 0.25 * t ** 4,
        fprime=lambda x, t: 3.0 * t ** 2,
        a1=a1, a2=1.0, q=4.0, alpha=3.0, r0=(8.0 * a1) ** (1.0 / 3.0),
        poly_degree=3,
    )
    return nl, ustar


def manufactured_problem(problem, params, eps):
    """The forcing whose exact solution is the non-constant field
    u* = eps (0.4 + 0.3 cos(omega x_0) + 0.2 sin(omega x_{N-1})).
    Returns (nl, u*)."""
    N, amp = problem.N, eps * problem.T ** (problem.N / 2.0)
    modes = {(0,) * N: 0.4 * amp}
    for k, c in (((1,) + (0,) * (N - 1), 0.15 * amp),
                 ((0,) * (N - 1) + (1,), -0.1j * amp)):
        modes[k] = modes.get(k, 0.0) + c
    return manufactured_forcing(problem, params, modes)
