"""Embedding constants: closed forms against high-precision arithmetic,
ascent against the closed forms and brute scans, and the certificate
algebra (lambda_max / chi_upper / ball_radius / interval) against
independently coded dense searches."""

import math

import mpmath
import numpy as np
import pytest

from perifrac.constants import (EmbeddingEstimate, LambdaInterval,
                                ball_radius, best_lambda, chi_upper,
                                default_golden_path, example_h,
                                example_lambda_interval, golden_key,
                                lambda_max, lambda_table, load_golden,
                                rayleigh_ascent, sigma_estimate)
from perifrac.extension import kappa
from perifrac.spectral import ProblemSpec, SpectrumParams
from perifrac.variational import get_nonlinearity

mpmath.mp.dps = 50

PROBLEM = ProblemSpec(s=0.75, m=1.0, gamma=0.5, lam=0.1, T=2.0 * math.pi, N=2)
PARAMS = SpectrumParams(modes=4, grid_points=10)
NL = get_nonlinearity("cubic_plus_one")


def kappa_oracle(s):
    return float(2.0 ** (1.0 - 2.0 * s) * mpmath.gamma(1.0 - s) / mpmath.gamma(s))


def sigma_closed(r, problem):
    k = kappa_oracle(problem.s)
    base = problem.m ** (-problem.s) / math.sqrt(k)
    return base * problem.T ** (problem.N / 2.0) if r == 1 else base


# -- sigma closed forms and ascent ---------------------------------------------


@pytest.mark.parametrize("s,m,T,N", [
    (0.75, 1.0, 2.0 * math.pi, 2),
    (0.3, 2.0, 3.0, 1),
    (0.9, 0.7, 5.0, 3),
])
def test_sigma_closed_forms(s, m, T, N):
    problem = ProblemSpec(s=s, m=m, gamma=0.0, lam=0.1, T=T, N=N)
    for r in (1.0, 2.0):
        est = sigma_estimate(r, problem, SpectrumParams(3, 8))
        assert est.status == "exact-closed-form"
        assert abs(est.value - sigma_closed(r, problem)) < 1e-12 * est.value


def test_ascent_recovers_constant_extremal_for_r2():
    # constants maximize |u|_{L^2}/|u|_{H^s}; the ascent must find that
    # ratio (m^{-s}) on its own, without the closed-form shortcut
    ratio, field, diag = rayleigh_ascent(PROBLEM, 2.0, modes=3, seed=0, starts=6)
    want = PROBLEM.m ** (-PROBLEM.s)
    assert abs(ratio - want) < 1e-8 * want
    # the maximizer really is (numerically) constant: all energy in mode 0
    c = field.coeffs
    center = (3,) * PROBLEM.N
    off = np.abs(c).sum() - abs(c[center])
    assert off < 1e-6 * abs(c[center])
    assert diag["starts"] == 6 and diag["iterations"] > 0


def test_sigma4_at_zero_modes_equals_constant_field_value():
    # with M = 0 the admissible space is the constants, where the quotient
    # is computable by hand: T^{-N/4} m^{-s} / sqrt(kappa)
    est = sigma_estimate(4.0, PROBLEM, SpectrumParams(0, 1), seed=0, starts=3)
    want = (PROBLEM.T ** (-PROBLEM.N / 4.0) * PROBLEM.m ** (-PROBLEM.s)
            / math.sqrt(kappa_oracle(PROBLEM.s)))
    assert est.status == "truncated-lower-bound"
    assert abs(est.value - want) < 1e-10 * want


def test_sigma4_grows_with_resolution():
    lo = sigma_estimate(4.0, PROBLEM, SpectrumParams(0, 1), seed=0, starts=3)
    hi = sigma_estimate(4.0, PROBLEM, SpectrumParams(4, 10), seed=0, starts=6)
    assert hi.value > lo.value * (1.0 + 1e-3)
    assert hi.modes == 4 and hi.best_start >= 0


def test_sigma_estimate_is_memoized_and_deterministic():
    a = sigma_estimate(4.0, PROBLEM, PARAMS, seed=7, starts=4)
    b = sigma_estimate(4.0, PROBLEM, PARAMS, seed=7, starts=4)
    assert a is b
    r1, _, _ = rayleigh_ascent(PROBLEM, 4.0, modes=2, seed=11, starts=3)
    r2, _, _ = rayleigh_ascent(PROBLEM, 4.0, modes=2, seed=11, starts=3)
    assert r1 == r2  # bitwise


@pytest.mark.parametrize("r", [3.0, 4.0])
def test_rayleigh_ascent_field_is_exactly_hermitian(r):
    # the ascent steps without re-symmetrizing: real even multipliers,
    # real scalars and sums must keep forward_transform's symmetry exact
    _, field, diag = rayleigh_ascent(PROBLEM, r, modes=2, seed=3, starts=2)
    assert diag["iterations"] > 2
    assert field.hermitian_defect() == 0.0


def test_sigma_estimate_rejects_supercritical_r():
    # critical exponent is 2N/(N-2s) = 8 here
    with pytest.raises(ValueError):
        sigma_estimate(8.0, PROBLEM, PARAMS)
    with pytest.raises(ValueError):
        sigma_estimate(9.5, PROBLEM, PARAMS)
    with pytest.raises(ValueError):
        sigma_estimate(0.5, PROBLEM, PARAMS)
    with pytest.raises(ValueError):
        rayleigh_ascent(PROBLEM, 0.5, modes=2)


def test_problem_spec_rejects_closed_gap():
    with pytest.raises(ValueError):
        ProblemSpec(s=0.75, m=1.0, gamma=1.0, lam=0.1, T=2.0 * math.pi, N=2)
    with pytest.raises(ValueError):
        ProblemSpec(s=0.75, m=1.0, gamma=1.5, lam=0.1, T=2.0 * math.pi, N=2)


# -- certificate algebra ---------------------------------------------------------


SIGMAS = (sigma_closed(1, PROBLEM), 0.36166437989985)  # (sigma_1, sigma_4)


def test_lambda_max_hand_evaluation():
    # independent transcription of the certificate bound
    rho = 2.5
    s1, s4 = SIGMAS
    g = PROBLEM.gamma_fraction
    k = kappa_oracle(PROBLEM.s)
    want = (4.0 * math.sqrt(rho) * (1.0 - g) ** 2
            / (2.0 * k * (s1 * 4.0 * (1.0 - g) ** 1.5 + s4 ** 4 * rho ** 1.5)))
    assert abs(lambda_max(rho, PROBLEM, NL, SIGMAS) - want) < 1e-14 * want


def test_chi_upper_is_reciprocal_of_twice_lambda_max():
    # chi_upper and lambda_max are coded as separate formulas; their
    # algebraic identity chi_upper = 1/(2 lambda_max) is a cross-check
    for rho in np.geomspace(1e-3, 1e3, 25):
        lm = lambda_max(rho, PROBLEM, NL, SIGMAS)
        cu = chi_upper(rho, PROBLEM, NL, SIGMAS)
        assert abs(cu - 1.0 / (2.0 * lm)) < 1e-12 * cu


def test_certificate_gate_holds_below_lambda_max():
    for rho in np.geomspace(1e-2, 1e2, 16):
        lam = 0.999 * lambda_max(rho, PROBLEM, NL, SIGMAS)
        assert chi_upper(rho, PROBLEM, NL, SIGMAS) < 1.0 / (2.0 * lam)
        lam_bad = 1.001 * lambda_max(rho, PROBLEM, NL, SIGMAS)
        assert not chi_upper(rho, PROBLEM, NL, SIGMAS) < 1.0 / (2.0 * lam_bad)


def test_ball_radius_formula():
    g = PROBLEM.gamma_fraction
    k = kappa_oracle(PROBLEM.s)
    for rho in (0.1, 1.0, 7.3):
        br = ball_radius(rho, PROBLEM)
        assert abs(br - math.sqrt(rho / (k * (1.0 - g)))) < 1e-14 * br
        assert abs(k * (1.0 - g) * br ** 2 - rho) < 1e-12 * rho


def test_positive_rho_required():
    for fn in (lambda r: lambda_max(r, PROBLEM, NL, SIGMAS),
               lambda r: chi_upper(r, PROBLEM, NL, SIGMAS),
               lambda r: ball_radius(r, PROBLEM),
               lambda r: example_h(r, SIGMAS, PROBLEM)):
        with pytest.raises(ValueError):
            fn(0.0)
        with pytest.raises(ValueError):
            fn(-1.0)
    with pytest.raises(ValueError):
        lambda_max(1.0, PROBLEM, NL, (0.0, 1.0))


def test_best_lambda_matches_dense_scan():
    rho_star, lam_star = best_lambda(PROBLEM, NL, SIGMAS)
    grid = np.geomspace(1e-4, 1e4, 200001)
    vals = [lambda_max(r, PROBLEM, NL, SIGMAS) for r in grid]
    i = int(np.argmax(vals))
    assert 0 < i < len(grid) - 1  # interior maximum
    assert lam_star >= vals[i] * (1.0 - 1e-10)
    assert abs(lam_star - vals[i]) < 1e-8 * lam_star
    # golden-section landed inside the bracketing grid cell
    assert grid[i - 1] <= rho_star <= grid[i + 1]


def test_example_interval_coincides_with_lambda_max_sweep():
    # for the quartic registry nonlinearity the two independently coded
    # routes (profile h vs generic lambda_max) must give the same interval
    iv = example_lambda_interval(SIGMAS, PROBLEM)
    rho_star, lam_star = best_lambda(PROBLEM, NL, SIGMAS)
    assert isinstance(iv, LambdaInterval)
    assert iv.lower == 0.0
    assert abs(iv.upper - lam_star) < 1e-9 * lam_star
    assert abs(iv.best_rho - rho_star) < 1e-6 * max(1.0, rho_star)
    g = PROBLEM.gamma_fraction
    k = kappa(PROBLEM.s)
    want_upper = (2.0 / k) * (1.0 - g) ** 2 * example_h(iv.best_rho, SIGMAS, PROBLEM)
    assert abs(iv.upper - want_upper) < 1e-10 * iv.upper


def test_lambda_interval_membership_and_midpoint():
    iv = example_lambda_interval(SIGMAS, PROBLEM)
    assert iv.contains(iv.midpoint)
    assert abs(iv.midpoint - 0.5 * iv.upper) < 1e-15
    assert not iv.contains(0.0)
    assert not iv.contains(iv.upper)
    assert not iv.contains(-1.0)
    assert iv.contains(iv.upper * 1e-9)


def test_lambda_table_rows_are_self_contained():
    rhos = [0.5, 1.0, 2.0]
    rows = lambda_table(rhos, PROBLEM, NL, SIGMAS)
    assert [row.rho for row in rows] == rhos
    for row in rows:
        assert row.lambda_max == lambda_max(row.rho, PROBLEM, NL, SIGMAS)
        assert row.ball_radius == ball_radius(row.rho, PROBLEM)
        assert (row.sigma1, row.sigmaq) == SIGMAS
        assert row.kappa_s == kappa(PROBLEM.s)
        assert (row.a1, row.a2, row.q) == (1.0, 1.0, 4.0)
        assert row.gamma_fraction == PROBLEM.gamma_fraction


# -- golden file -----------------------------------------------------------------


def test_golden_key_format():
    key = golden_key(4.0, PROBLEM, 8)
    assert key == ("sigma r=4 N=2 T=6.283185307179586 m=1.0 s=0.75 M=8")


def test_load_golden_parses_comments_and_embedded_equals(tmp_path):
    p = tmp_path / "golden.txt"
    p.write_text("# header comment\n"
                 "\n"
                 "sigma r=4 N=2 T=6.283185307179586 m=1.0 s=0.75 M=8 = 0.25\n"
                 "   # indented comment\n"
                 "plain_key = 1.5e-3   \n")
    got = load_golden(p)
    assert got == {
        "sigma r=4 N=2 T=6.283185307179586 m=1.0 s=0.75 M=8": 0.25,
        "plain_key": 1.5e-3,
    }


def test_shipped_golden_file_covers_generator_tuples():
    table = load_golden()
    assert default_golden_path().name == "golden_sigmas.txt"
    assert golden_key(4.0, PROBLEM, 8) in table
    assert golden_key(4.0, PROBLEM, 0) in table
    p06 = ProblemSpec(s=0.6, m=1.0, gamma=0.5, lam=0.1, T=2.0 * math.pi, N=2)
    assert golden_key(4.0, p06, 8) in table
    for v in table.values():
        assert v > 0.0
    # the M=0 entry is pinned by the constant-field closed form
    want = (PROBLEM.T ** (-0.5) * PROBLEM.m ** (-PROBLEM.s)
            / math.sqrt(kappa_oracle(PROBLEM.s)))
    assert abs(table[golden_key(4.0, PROBLEM, 0)] - want) < 1e-9 * want
