"""Profile, quadrature, and trace-identity checks against independent
oracles: mpmath for Gamma/Bessel closed forms at high precision, and a
direct ODE integration that only shares initial data with the profile."""

import math

import mpmath
import numpy as np
import pytest
from scipy.integrate import solve_ivp

from perifrac.extension import (QuadratureError, WeightedQuadrature,
                                conormal_limit, kappa, mode_energy,
                                ode_residual, profile_energy, theta,
                                theta_prime, verify_trace_identity)
from perifrac.spectral import FourierField, SpectrumParams

from conftest import random_symmetric_coeffs

mpmath.mp.dps = 50

S_SET = (0.3, 0.5, 0.7, 0.9)


def kappa_oracle(s):
    return float(2 ** (1 - 2 * mpmath.mpf(s)) * mpmath.gamma(1 - mpmath.mpf(s))
                 / mpmath.gamma(mpmath.mpf(s)))


def theta_oracle(s, y):
    s, y = mpmath.mpf(s), mpmath.mpf(y)
    return float(2 / mpmath.gamma(s) * (y / 2) ** s * mpmath.besselk(s, y))


def test_kappa_against_mpmath():
    for s in (0.25, 0.3, 0.5, 0.6, 0.75, 0.9):
        want = kappa_oracle(s)
        assert abs(kappa(s) - want) <= 1e-12 * want
    assert abs(kappa(0.5) - 1.0) <= 1e-15
    # to a few ulps over the whole order range, down to either end of it
    grid = np.concatenate([[1e-12, 1e-9, 1e-6, 0.5, 1 - 1e-9, 1 - 1e-12],
                           np.linspace(0.0, 1.0, 2001)[1:-1]])
    for s in grid:
        want = kappa_oracle(float(s))
        assert abs(kappa(float(s)) - want) <= 2e-15 * want, s


def test_kappa_rejects_bad_order():
    for s in (0.0, 1.0, -0.2, 1.3):
        with pytest.raises(ValueError):
            kappa(s)


def test_bessel_and_theta_against_mpmath():
    ys = (0.05, 0.3, 1.0, 4.0, 12.0)
    for s in S_SET:
        for y in ys:
            want_t = theta_oracle(s, y)
            assert abs(theta(s, y) - want_t) <= 1e-12 * abs(want_t)


def test_theta_boundary_and_decay():
    for s in S_SET:
        assert theta(s, 0.0) == 1.0
        ys = np.linspace(0.05, 20.0, 80)
        vals = theta(s, ys)
        assert np.all(vals > 0.0)
        assert np.all(np.diff(vals) < 0.0)   # strictly decreasing
        assert theta(s, 30.0) < 1e-10


def test_theta_prime_closed_form_half():
    # at s = 1/2 the profile is exp(-y)
    ys = np.linspace(0.1, 10.0, 25)
    assert np.abs(theta(0.5, ys) - np.exp(-ys)).max() < 1e-13
    assert np.abs(theta_prime(0.5, ys) + np.exp(-ys)).max() < 1e-13


def test_profile_solves_ode_by_direct_integration():
    """Integrate theta'' + ((1-2s)/y) theta' - theta = 0 inward from y0 with
    mpmath-seeded initial data; the quadrature profile must follow it."""
    for s in (0.3, 0.75):
        y0, y1 = 20.0, 0.25
        th0 = theta_oracle(s, y0)
        s_mp, y_mp = mpmath.mpf(s), mpmath.mpf(y0)
        dth0 = float(-(2 ** (1 - s_mp)) / mpmath.gamma(s_mp) * y_mp ** s_mp
                     * mpmath.besselk(1 - s_mp, y_mp))

        def rhs(y, z):
            return [z[1], z[0] - (1.0 - 2.0 * s) / y * z[1]]

        # atol must sit far below the ~1e-9 initial state or the absolute
        # error budget rides the backward-growing branch
        sol = solve_ivp(rhs, (y0, y1), [th0, dth0], method="DOP853",
                        rtol=1e-12, atol=1e-30, dense_output=True)
        assert sol.success
        for y in (0.3, 1.0, 2.5, 7.0, 15.0):
            want = sol.sol(y)[0]
            assert abs(theta(s, y) - want) <= 1e-11 * (1.0 + abs(want))


def test_ode_residual_lattice():
    ys = np.geomspace(0.1, 10.0, 30)
    for s in S_SET:
        worst = max(abs(ode_residual(s, float(y))) for y in ys)
        assert worst < 1e-5


def test_weighted_quadrature_gamma_moments():
    # int_0^inf y^a exp(-2y) dy = Gamma(a+1) / 2^(a+1)
    for a in (-0.8, -0.4, 0.0, 0.4, 0.8):
        wq = WeightedQuadrature(a)
        got = wq.integrate(lambda y: math.exp(-2.0 * y))
        want = float(mpmath.gamma(a + 1) / mpmath.mpf(2) ** (a + 1))
        assert abs(got - want) <= 1e-9 * want


def test_weighted_quadrature_rejects_slow_decay():
    wq = WeightedQuadrature(0.0)
    with pytest.raises(QuadratureError):
        wq.integrate(lambda y: 1.0 / (1.0 + y * y))


def test_weighted_quadrature_rejects_bad_exponent():
    for a in (-1.0, 1.0, -3.0):
        with pytest.raises(ValueError):
            WeightedQuadrature(a)


def test_profile_energy_equals_kappa():
    for s in S_SET + (0.75,):
        k = kappa_oracle(s)
        assert abs(profile_energy(s) - k) <= 1e-10 * k


def test_mode_energy_closed_form(example_problem):
    for k in [(0, 0), (1, 0), (2, 2), (-3, 1)]:
        mu = (example_problem.omega ** 2 * (k[0] ** 2 + k[1] ** 2)
              + example_problem.m ** 2)
        want = mu ** example_problem.s * kappa_oracle(example_problem.s)
        assert abs(mode_energy(k, example_problem) - want) <= 1e-8 * want


def test_conormal_limit_matches_kappa_mu_s():
    for s in (0.3, 0.5, 0.75):
        for mu in (1.0, 2.0, 5.0):
            want = kappa_oracle(s) * mu ** s
            assert abs(conormal_limit(s, mu) - want) <= 1e-4 * want


def test_trace_identity_random_fields(example_problem):
    rng = np.random.default_rng(23)
    params = SpectrumParams(modes=5, grid_points=11)
    for _ in range(3):
        u = FourierField(random_symmetric_coeffs(rng, 5, 2),
                         example_problem, params)
        rep = verify_trace_identity(u)
        assert rep.rel_gap < 1e-5
        assert rep.modes_used > 0
        assert rep.mode_sum > 0.0


def test_trace_identity_detects_theta_fault(example_problem):
    rng = np.random.default_rng(29)
    params = SpectrumParams(modes=3, grid_points=7)
    u = FourierField(random_symmetric_coeffs(rng, 3, 2),
                     example_problem, params)
    rep = verify_trace_identity(u, fault=1e-3)
    assert rep.rel_gap > 1e-5   # the battery threshold must trip


def test_fault_perturbs_ode_residual():
    base = abs(ode_residual(0.75, 1.0))
    faulty = abs(ode_residual(0.75, 1.0, fault=1e-3))
    assert base < 1e-6
    assert faulty > 1e-4
