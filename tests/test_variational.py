"""Nonlinearity registry, hypothesis checkers, dealiased pseudospectral
evaluation (against an exact coefficient-convolution oracle), and the
energy/gradient pair (against central differences)."""

import math
import sys
from dataclasses import replace

import numpy as np
import pytest
from scipy.signal import convolve

from perifrac.spectral import (FourierField, ProblemSpec, SpectrumParams,
                               dual_norm, forward_transform, hs_norm,
                               inverse_transform, multiplier_array, pairing)
from perifrac.variational import (CheckReport, check_ar, check_growth,
                                  check_superhomogeneity, dealias_points,
                                  energy, get_nonlinearity, gradient,
                                  integral_of_potential, make_nonlinearity,
                                  nonlinear_image,
                                  registry_keys, residual_dual_norm,
                                  riesz_representative,
                                  validate_growth_exponent, weak_residual)

from conftest import random_symmetric_coeffs

X_LATTICE = np.array([[0.0, 0.0], [1.0, 2.0], [3.0, 0.5],
                      [5.0, 5.0], [6.2, 1.1]])


# -- registry ------------------------------------------------------------------


def test_registry_keys_and_lookup():
    keys = registry_keys()
    assert "cubic_plus_one" in keys and "pure_cubic" in keys
    nl = get_nonlinearity("cubic_plus_one")
    assert (nl.a1, nl.a2, nl.q, nl.alpha, nl.r0) == (1.0, 1.0, 4.0, 3.0, 2.0)
    assert nl.poly_degree == 3
    x = (np.array([0.0]),)
    assert float(nl.f(x, np.array([2.0]))[0]) == 9.0
    assert float(nl.F(x, np.array([2.0]))[0]) == 6.0
    assert float(nl.fprime(x, np.array([2.0]))[0]) == 12.0


def test_registry_odd_power():
    nl = get_nonlinearity("odd_power(5)")
    assert nl.q == 6.0 and nl.alpha == 6.0 and nl.poly_degree == 5
    x = (np.array([0.0]),)
    assert float(nl.f(x, np.array([2.0]))[0]) == 32.0
    assert abs(float(nl.F(x, np.array([2.0]))[0]) - 64.0 / 6.0) < 1e-12
    with pytest.raises(ValueError):
        get_nonlinearity("odd_power(4)")
    with pytest.raises(KeyError):
        get_nonlinearity("sine_gordon")


def test_get_nonlinearity_overrides():
    nl = get_nonlinearity("cubic_plus_one", a1=2.0, r0=3.0)
    assert nl.a1 == 2.0 and nl.r0 == 3.0 and nl.q == 4.0


def test_nonlinearity_validates_constants():
    with pytest.raises(ValueError):
        get_nonlinearity("cubic_plus_one", q=2.0)      # needs q > 2
    with pytest.raises(ValueError):
        get_nonlinearity("cubic_plus_one", alpha=1.5)  # needs alpha > 2
    with pytest.raises(ValueError):
        get_nonlinearity("cubic_plus_one", a1=-1.0)


@pytest.mark.parametrize("zero", ["a1", "a2", "r0"])
def test_growth_constants_must_be_positive(zero):
    with pytest.raises(ValueError, match="must be positive"):
        get_nonlinearity("cubic_plus_one", **{zero: 0.0})


def test_make_nonlinearity_quadrature_primitive():
    nl = make_nonlinearity("cosine", f=lambda x, t: np.cos(t),
                           a1=1.0, a2=1.0, q=3.0, alpha=3.0, r0=1.0)
    x = (np.array([0.0, 1.0]),)
    for t in (-2.0, 0.3, 1.7):
        got = nl.F(x, np.array([t, t]))
        assert np.abs(got - math.sin(t)).max() < 1e-9


def test_nonlinearity_requires_a_callable_fprime():
    with pytest.raises(ValueError, match="fprime must be callable"):
        get_nonlinearity("cubic_plus_one", fprime=None)


def test_make_nonlinearity_central_difference_fprime():
    # without fprime, f' is the central difference with h = 1e-6 (1 + |t|)
    f = lambda x, t: 1.0 + t ** 3
    nl = make_nonlinearity("cubic", f=f, F=lambda x, t: t + 0.25 * t ** 4,
                           a1=1.0, a2=1.0, q=4.0, alpha=3.0, r0=2.0)
    x = (np.array([0.0, 1.0, 2.0]),)
    t = np.array([-2.0, 0.3, 1.7])
    h = 1e-6 * (1.0 + np.abs(t))
    assert np.array_equal(nl.fprime(x, t),
                          (f(x, t + h) - f(x, t - h)) / (2.0 * h))
    assert np.abs(nl.fprime(x, t) - 3.0 * t ** 2).max() < 1e-8


def test_validate_growth_exponent():
    nl = get_nonlinearity("cubic_plus_one")
    ok = ProblemSpec(s=0.75, m=1.0, gamma=0.5, lam=0.1, T=2.0 * np.pi, N=2)
    validate_growth_exponent(nl, ok)   # 4 < 8
    critical = ProblemSpec(s=0.5, m=1.0, gamma=0.5, lam=0.1, T=2.0 * np.pi, N=2)
    with pytest.raises(ValueError):
        validate_growth_exponent(nl, critical)  # 4 is critical here


# -- hypothesis checkers -------------------------------------------------------


def test_growth_check_passes_for_quartic_constants():
    nl = get_nonlinearity("cubic_plus_one")
    rep = check_growth(nl, np.linspace(-6.0, 6.0, 241), X_LATTICE, N=2)
    assert isinstance(rep, CheckReport)
    assert rep.passed
    assert rep.worst_margin >= 0.0


def test_growth_check_fails_with_undersized_exponent():
    nl = get_nonlinearity("cubic_plus_one", q=3.0)  # bound 1 + |t|^2 is too weak
    rep = check_growth(nl, np.linspace(-6.0, 6.0, 241), X_LATTICE, N=2)
    assert not rep.passed
    assert rep.worst_margin < 0.0
    x_w, t_w = rep.witness
    assert abs(t_w) == 6.0   # worst at the largest |t|


def test_ar_check_passes_with_registry_constants():
    nl = get_nonlinearity("cubic_plus_one")
    rep = check_ar(nl, t_max=8.0, x_points=X_LATTICE, N=2)
    assert rep.passed
    # the margin t f - alpha F = t^4/4 - 2t vanishes exactly at t = r0 = 2
    assert rep.worst_margin >= -1e-10
    assert abs(rep.worst_margin) < 1e-9


def test_ar_check_fails_above_true_alpha():
    nl = get_nonlinearity("cubic_plus_one", alpha=4.5)
    rep = check_ar(nl, t_max=8.0, x_points=X_LATTICE, N=2)
    assert not rep.passed


def test_ar_check_fails_on_nonpositive_primitive():
    nl = make_nonlinearity("shifted", f=lambda x, t: t ** 3,
                           F=lambda x, t: 0.25 * t ** 4 - 10.0,
                           a1=1.0, a2=1.0, q=4.0, alpha=4.0, r0=1.0,
                           poly_degree=3)
    rep = check_ar(nl, t_max=3.0, x_points=X_LATTICE, N=2)
    assert not rep.passed


def test_superhomogeneity_passes_for_quartic():
    nl = get_nonlinearity("cubic_plus_one")
    rep = check_superhomogeneity(nl, t_values=(1.0, 1.5, 2.0, 4.0),
                                 v_values=(2.0, -2.0, 4.0, -4.0),
                                 x_points=X_LATTICE, N=2)
    assert rep.passed


def test_superhomogeneity_fails_for_subhomogeneous_primitive():
    nl = make_nonlinearity("quadratic", f=lambda x, t: t,
                           F=lambda x, t: 0.5 * t ** 2,
                           a1=1.0, a2=1.0, q=3.0, alpha=3.0, r0=1.0,
                           poly_degree=1)
    rep = check_superhomogeneity(nl, t_values=(2.0,), v_values=(1.0,),
                                 x_points=X_LATTICE, N=2)
    assert not rep.passed
    assert rep.worst_margin < -1.0  # 2 - 4 = -2 per point


def test_checkers_fail_on_non_finite_samples():
    # f = inf and F = nan beyond |t| = 5; a NaN margin compares False with
    # everything, so it must not be skipped as if it were no worse than the
    # rest, and the report must stay a finite double
    base = get_nonlinearity("cubic_plus_one")
    nl = replace(base,
                 f=lambda x, t: np.where(np.abs(t) > 5.0, np.inf, base.f(x, t)),
                 F=lambda x, t: np.where(np.abs(t) > 5.0, np.nan, base.F(x, t)))
    reps = [check_growth(nl, np.linspace(-6.0, 6.0, 241), X_LATTICE, N=2),
            check_ar(nl, t_max=8.0, x_points=X_LATTICE, N=2),
            check_superhomogeneity(nl, t_values=(1.0, 1.5, 2.0, 4.0),
                                   v_values=(2.0, -2.0, 4.0, -4.0),
                                   x_points=X_LATTICE, N=2)]
    for rep in reps:
        assert not rep.passed, rep.name
        assert rep.worst_margin == -sys.float_info.max, rep.name
    assert abs(reps[0].witness[1]) > 5.0 and abs(reps[1].witness[1]) > 5.0
    _, t, v = reps[2].witness
    assert abs(t * v) > 5.0


def test_checker_input_validation():
    nl = get_nonlinearity("cubic_plus_one")
    with pytest.raises(ValueError):
        check_ar(nl, t_max=1.0, x_points=X_LATTICE, N=2)   # t_max < r0
    with pytest.raises(ValueError):
        check_superhomogeneity(nl, t_values=(0.5,), v_values=(2.0,),
                               x_points=X_LATTICE, N=2)
    with pytest.raises(ValueError):
        check_superhomogeneity(nl, t_values=(2.0,), v_values=(0.5,),
                               x_points=X_LATTICE, N=2)
    with pytest.raises(ValueError, match="2 columns"):
        check_growth(nl, t_values=(1.0,), x_points=np.zeros((4, 3)), N=2)


# -- dealiased evaluation --------------------------------------------------------


def cubic_image_oracle(u, nl_constant):
    """Coefficients of f(u) = const + u^3 on the retained cube by exact
    (direct, non-FFT) convolution of the coefficient array."""
    problem, M = u.problem, u.params.modes
    c = u.coeffs
    conv3 = convolve(convolve(c, c, method="direct"), c, method="direct")
    mid = 3 * M  # center of the (6M+1)-wide cube
    sl = tuple(slice(mid - M, mid + M + 1) for _ in range(problem.N))
    out = conv3[sl] / problem.T ** problem.N
    if nl_constant:
        center = (M,) * problem.N
        out = out.copy()
        out[center] += nl_constant * problem.T ** (problem.N / 2.0)
    return out


def test_nonlinear_image_matches_convolution(example_problem):
    rng = np.random.default_rng(31)
    params = SpectrumParams(modes=2, grid_points=5)
    u = FourierField(random_symmetric_coeffs(rng, 2, 2), example_problem, params)
    got = nonlinear_image(u, get_nonlinearity("cubic_plus_one")).coeffs
    want = cubic_image_oracle(u, 1.0)
    assert np.abs(got - want).max() < 1e-12 * (1.0 + np.abs(want).max())
    got_pure = nonlinear_image(u, get_nonlinearity("pure_cubic")).coeffs
    want_pure = cubic_image_oracle(u, 0.0)
    assert np.abs(got_pure - want_pure).max() < 1e-12 * (1.0 + np.abs(want_pure).max())


def test_minimal_grid_aliases_but_padded_does_not(example_problem):
    """Sampling u^3 on the 2M+1 grid folds modes above M back into the cube;
    the dealiased route must not show that contamination."""
    rng = np.random.default_rng(37)
    M = 2
    params = SpectrumParams(modes=M, grid_points=2 * M + 1)
    u = FourierField(random_symmetric_coeffs(rng, M, 2), example_problem, params)
    nl = get_nonlinearity("pure_cubic")
    want = cubic_image_oracle(u, 0.0)

    aliased = forward_transform(inverse_transform(u) ** 3,
                                example_problem, params).coeffs
    clean = nonlinear_image(u, nl).coeffs
    scale = np.abs(want).max()
    assert np.abs(aliased - want).max() > 1e-3 * scale
    assert np.abs(clean - want).max() < 1e-12 * (1.0 + scale)


def test_dealias_points_rules():
    assert dealias_points(8, 3) == 34
    assert dealias_points(4, 3) == 18
    assert dealias_points(4, None) == 18   # 2*(2M+1)
    assert dealias_points(0, 3) == 2
    assert dealias_points(0, None) == 2


def test_overflow_reports_witness(example_problem):
    params = SpectrumParams(modes=1, grid_points=3)
    u = FourierField.constant(example_problem, params, 1e200)
    with pytest.raises(OverflowError):
        nonlinear_image(u, get_nonlinearity("pure_cubic"))


def test_non_finite_value_without_a_float_error_raises(example_problem):
    # an f that writes inf itself raises no FloatingPointError; the
    # finiteness check of its output still refuses it
    nl = replace(get_nonlinearity("pure_cubic"),
                 f=lambda x, t: np.where(t > 0.5, np.inf, t ** 3))
    params = SpectrumParams(modes=1, grid_points=3)
    u = FourierField.constant(example_problem, params, 1.0)
    with pytest.raises(OverflowError, match=r"f\[pure_cubic\] non-finite"):
        nonlinear_image(u, nl)


def test_overflowing_potential_sum_raises(example_problem):
    # F(1e77) = 2.5e307 is finite at each sample; their sum is not
    params = SpectrumParams(modes=1, grid_points=3)
    u = FourierField.constant(example_problem, params, 1e77)
    with pytest.raises(OverflowError, match="rectangle-rule sum"):
        integral_of_potential(u, get_nonlinearity("cubic_plus_one"))


# -- energy / gradient -----------------------------------------------------------


def test_energy_constant_field_closed_form():
    problem = ProblemSpec(s=0.75, m=1.0, gamma=0.5, lam=0.1, T=2.0 * np.pi, N=2)
    params = SpectrumParams(modes=3, grid_points=8)
    nl = get_nonlinearity("cubic_plus_one")
    TN = problem.T ** 2
    for c in (0.3, -1.2, 2.0):
        u = FourierField.constant(problem, params, c)
        want = ((1.0 - problem.gamma) * c * c / (2.0 * problem.lam)
                - (c + 0.25 * c ** 4)) * TN
        assert abs(energy(u, nl) - want) < 1e-10 * (1.0 + abs(want))


@pytest.mark.parametrize("N, s", [(1, 0.4), (2, 0.75), (3, 0.9)])
def test_gradient_keeps_exact_hermitian_symmetry(N, s):
    # gradient no longer re-symmetrizes: its inputs must stay exact
    problem = ProblemSpec(s=s, m=1.0, gamma=0.5, lam=0.1, T=3.0, N=N)
    params = SpectrumParams(modes=2, grid_points=6)
    rng = np.random.default_rng(N)
    u = forward_transform(0.5 * rng.standard_normal((6,) * N), problem, params)
    assert u.hermitian_defect() == 0.0
    for key in ("cubic_plus_one", "pure_cubic"):
        nl = get_nonlinearity(key)
        assert gradient(u, nl).hermitian_defect() == 0.0
        assert riesz_representative(gradient(u, nl)).hermitian_defect() == 0.0


def test_gradient_matches_central_differences_20_fields():
    problem = ProblemSpec(s=0.75, m=1.0, gamma=0.5, lam=0.1, T=2.0 * np.pi, N=2)
    params = SpectrumParams(modes=8, grid_points=17)
    rng = np.random.default_rng(43)
    h = 1e-5
    for key in ("cubic_plus_one", "pure_cubic"):
        nl = get_nonlinearity(key)
        for _ in range(10):
            u = FourierField(0.4 * random_symmetric_coeffs(rng, 8, 2),
                             problem, params)
            phi = FourierField(0.2 * random_symmetric_coeffs(rng, 8, 2),
                               problem, params)
            num = (energy(u + phi * h, nl) - energy(u + phi * (-h), nl)) / (2 * h)
            ana = pairing(gradient(u, nl), phi)
            assert abs(num - ana) <= 1e-5 * max(1.0, abs(ana))


def test_weak_residual_and_riesz_identities(example_problem):
    rng = np.random.default_rng(47)
    params = SpectrumParams(modes=3, grid_points=8)
    u = FourierField(random_symmetric_coeffs(rng, 3, 2), example_problem, params)
    nl = get_nonlinearity("cubic_plus_one")
    g = gradient(u, nl)
    w = weak_residual(u, nl)
    assert np.abs(w.coeffs - example_problem.lam * g.coeffs).max() < 1e-13 * (
        1.0 + np.abs(g.coeffs).max())
    assert abs(residual_dual_norm(u, nl) - dual_norm(w)) < 1e-13 * (1 + dual_norm(w))
    mu_s = multiplier_array(example_problem, params)
    r = riesz_representative(g)
    assert np.abs(r.coeffs * mu_s - g.coeffs).max() < 1e-12 * (
        1.0 + np.abs(g.coeffs).max())
    # Riesz isometry: |riesz|_Hs == |g|_dual
    assert abs(hs_norm(r) - dual_norm(g)) < 1e-12 * (1.0 + dual_norm(g))


def test_gradient_of_stationary_scalar_is_zero():
    # at M=0 the Euler-Lagrange equation reduces to (m^2s - gamma) c = lam (1 + c^3);
    # feed the Newton root back in and expect a numerically zero residual
    problem = ProblemSpec(s=0.75, m=1.0, gamma=0.5, lam=0.01, T=2.0 * np.pi, N=2)
    params = SpectrumParams(modes=0, grid_points=1)
    nl = get_nonlinearity("cubic_plus_one")
    c = 0.02
    for _ in range(60):
        fval = c ** 3 - 50.0 * c + 1.0
        c -= fval / (3.0 * c * c - 50.0)
    u = FourierField.constant(problem, params, c)
    assert residual_dual_norm(u, nl) < 1e-12
