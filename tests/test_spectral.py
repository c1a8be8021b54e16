"""Transforms, multipliers, and norms against independent oracles:
coefficients by direct summation, integrals by brute-force quadrature."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perifrac.spectral import (FourierField, ProblemSpec, SpectrumParams,
                               SymmetryError, apply_fractional_op, dual_norm,
                               e_norm, forward_transform, grid_coordinates,
                               hs_norm, inverse_transform, l2_norm, lr_norm,
                               mean_value, multiplier, multiplier_array,
                               pairing)
from perifrac.extension import kappa

from conftest import random_symmetric_coeffs


def direct_coefficients(samples, problem, modes):
    """c_k = T^(N/2)/n^N sum_j u(x_j) exp(-i omega k.x_j), slow loops."""
    n = samples.shape[0]
    N = problem.N
    w = problem.omega
    xs = np.arange(n) * (problem.T / n)
    out = np.zeros((2 * modes + 1,) * N, dtype=complex)
    for k in itertools.product(range(-modes, modes + 1), repeat=N):
        acc = 0.0 + 0.0j
        for j in itertools.product(range(n), repeat=N):
            phase = sum(w * ki * xs[ji] for ki, ji in zip(k, j))
            acc += samples[j] * np.exp(-1j * phase)
        out[tuple(ki + modes for ki in k)] = acc
    return out * (problem.T ** (N / 2.0) / n ** N)


def eval_field_at(field, points):
    """u(x) = sum_k c_k exp(i omega k.x) / T^(N/2), slow loops."""
    problem, M = field.problem, field.params.modes
    w = problem.omega
    vals = []
    for x in points:
        acc = 0.0 + 0.0j
        for k in itertools.product(range(-M, M + 1), repeat=problem.N):
            idx = tuple(ki + M for ki in k)
            acc += field.coeffs[idx] * np.exp(1j * w * sum(ki * xi for ki, xi in zip(k, x)))
        vals.append(acc / problem.T ** (problem.N / 2.0))
    vals = np.asarray(vals)
    assert np.abs(vals.imag).max() < 1e-10 * (1.0 + np.abs(vals.real).max())
    return vals.real


def oracle_problem(N):
    return ProblemSpec(s=(0.4, 0.75, 0.9)[N - 1], m=1.0, gamma=0.5, lam=0.1,
                       T=3.0, N=N)


# odd and even grids, the minimal n = 2M+1 included; at N=3 the half-axis
# layout has two full axes to flip
GRID_CASES = [(N, M, n) for N in (1, 2, 3) for M in (1, 2)
              for n in (2 * M + 1, 2 * M + 2)]
GRID_IDS = [f"N{N}-M{M}-n{n}" for N, M, n in GRID_CASES]


@pytest.mark.parametrize("N, M, n", GRID_CASES, ids=GRID_IDS)
def test_forward_transform_matches_direct_summation(N, M, n):
    problem = oracle_problem(N)
    rng = np.random.default_rng([N, M, n])
    samples = rng.standard_normal((n,) * N)
    got = forward_transform(samples, problem, SpectrumParams(M, n))
    want = direct_coefficients(samples, problem, M)
    assert np.abs(got.coeffs - want).max() < 1e-12 * (1.0 + np.abs(want).max())
    # the one place Hermitian symmetry is imposed; downstream code relies
    # on it holding exactly
    assert got.hermitian_defect() == 0.0


@pytest.mark.parametrize("N, M, n", GRID_CASES, ids=GRID_IDS)
def test_inverse_transform_matches_pointwise_sum(N, M, n):
    problem = oracle_problem(N)
    rng = np.random.default_rng([N, M, n, 1])
    u = FourierField(random_symmetric_coeffs(rng, M, N), problem,
                     SpectrumParams(M, n))
    samples = inverse_transform(u)
    xs = grid_coordinates(problem, n)
    pts = list(zip(*(x.reshape(-1) for x in xs)))
    direct = eval_field_at(u, pts)
    got = samples.reshape(-1)
    assert np.abs(got - direct).max() < 1e-11 * (1.0 + np.abs(direct).max())


def test_roundtrip_exact_on_minimal_and_padded_grids(example_problem):
    rng = np.random.default_rng(3)
    for n in (7, 12, 31):
        params = SpectrumParams(modes=3, grid_points=n)
        u = FourierField(random_symmetric_coeffs(rng, 3, 2), example_problem, params)
        back = forward_transform(inverse_transform(u), example_problem, params)
        assert np.abs(back.coeffs - u.coeffs).max() < 1e-12 * (1.0 + np.abs(u.coeffs).max())


SINGLE_MODE_LATTICE = list(itertools.product(
    (0.3, 0.5, 0.75), (1.0, 2.0), (2.0 * np.pi, 3.0)))


@pytest.mark.parametrize("s,m,T", SINGLE_MODE_LATTICE)
def test_single_mode_multiplier_exact(s, m, T):
    problem = ProblemSpec(s=s, m=m, gamma=0.0, lam=0.1, T=T, N=2)
    params = SpectrumParams(modes=8, grid_points=17)
    mu_s = multiplier_array(problem, params)
    w = 2.0 * np.pi / T
    for k in itertools.product(range(-8, 9), repeat=2):
        want = (w * w * (k[0] ** 2 + k[1] ** 2) + m * m) ** s
        idx = (k[0] + 8, k[1] + 8)
        assert abs(mu_s[idx] - want) <= 1e-12 * want
        assert abs(multiplier(k, problem) - want) <= 1e-12 * want


def test_apply_fractional_op_scales_single_modes(example_problem):
    params = SpectrumParams(modes=8, grid_points=17)
    for k in [(0, 0), (1, 0), (3, -2), (8, 8), (-5, 7)]:
        u = FourierField.from_modes(example_problem, params,
                                    {k: 0.5 + (0.25j if any(k) else 0.0)})
        v = apply_fractional_op(u)
        idx = (k[0] + 8, k[1] + 8)
        want = multiplier(k, example_problem) * u.coeffs[idx]
        assert abs(v.coeffs[idx] - want) <= 1e-12 * abs(want)


def test_parseval_grid_vs_coefficients(example_problem):
    rng = np.random.default_rng(5)
    M = 4
    params = SpectrumParams(modes=M, grid_points=4 * M + 2)  # resolves u^2
    u = FourierField(random_symmetric_coeffs(rng, M, 2), example_problem, params)
    samples = inverse_transform(u)
    cell = (example_problem.T / params.grid_points) ** 2
    grid_l2 = math.sqrt(cell * float(np.sum(samples ** 2)))
    coeff_l2 = l2_norm(u)
    assert abs(grid_l2 - coeff_l2) < 1e-10 * (1.0 + coeff_l2)


def test_constant_field_calibration(example_problem):
    params = SpectrumParams(modes=3, grid_points=8)
    u = FourierField.constant(example_problem, params, 1.7)
    T, N, s = example_problem.T, example_problem.N, example_problem.s
    assert abs(mean_value(u) - 1.7) < 1e-13
    assert abs(l2_norm(u) - 1.7 * T ** (N / 2.0)) < 1e-12
    assert abs(hs_norm(u) - 1.7 * example_problem.m ** s * T ** (N / 2.0)) < 1e-12
    samples = inverse_transform(u)
    assert np.abs(samples - 1.7).max() < 1e-12


def test_lr_norm_cross_route(example_problem):
    rng = np.random.default_rng(13)
    M = 3
    params = SpectrumParams(modes=M, grid_points=4 * M + 2)
    u = FourierField(random_symmetric_coeffs(rng, M, 2), example_problem, params)
    # r=2 through samples must agree with the coefficient route
    assert abs(lr_norm(u, 2.0) - l2_norm(u)) < 1e-10 * (1.0 + l2_norm(u))
    # r=4 against brute-force quadrature on a much finer grid
    fine = inverse_transform(u, grid_points=64)
    cell = (example_problem.T / 64) ** 2
    brute = (cell * float(np.sum(np.abs(fine) ** 4))) ** 0.25
    coarse_params = SpectrumParams(modes=M, grid_points=8 * M + 2)
    u_fine = FourierField(u.coeffs, example_problem, coarse_params)
    assert abs(lr_norm(u_fine, 4.0) - brute) < 1e-9 * (1.0 + brute)


def test_e_norm_formula_and_sandwich(example_problem):
    rng = np.random.default_rng(17)
    params = SpectrumParams(modes=3, grid_points=8)
    u = FourierField(random_symmetric_coeffs(rng, 3, 2), example_problem, params)
    k = kappa(example_problem.s)
    want = math.sqrt(k * (hs_norm(u) ** 2
                          - example_problem.gamma * l2_norm(u) ** 2))
    assert abs(e_norm(u) - want) < 1e-12 * (1.0 + want)
    gfrac = example_problem.gamma_fraction
    assert math.sqrt(k * (1.0 - gfrac)) * hs_norm(u) <= e_norm(u) + 1e-12
    assert e_norm(u) <= math.sqrt(k) * hs_norm(u) + 1e-12


def test_inverse_rejects_asymmetric_coefficients(example_problem):
    params = SpectrumParams(modes=2, grid_points=5)
    u = FourierField.zeros(example_problem, params)
    u.coeffs[0, 0] = 1.0  # no conjugate partner
    with pytest.raises(SymmetryError):
        inverse_transform(u)


def test_from_modes_rejects_out_of_cube(example_problem):
    params = SpectrumParams(modes=2, grid_points=5)
    with pytest.raises(ValueError):
        FourierField.from_modes(example_problem, params, {(3, 0): 1.0})


# -- property tests -----------------------------------------------------------

coeff_entries = st.floats(min_value=-5.0, max_value=5.0,
                          allow_nan=False, allow_infinity=False)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.lists(coeff_entries, min_size=2 * 49, max_size=2 * 49),
       st.sampled_from([7, 10, 15]))
def test_roundtrip_property(flat, n):
    problem = ProblemSpec(s=0.6, m=1.5, gamma=0.3, lam=0.1, T=5.0, N=2)
    params = SpectrumParams(modes=3, grid_points=n)
    raw = np.asarray(flat[:49]).reshape(7, 7) + 1j * np.asarray(flat[49:]).reshape(7, 7)
    c = 0.5 * (raw + np.conj(raw[::-1, ::-1]))
    u = FourierField(c, problem, params)
    back = forward_transform(inverse_transform(u), problem, params)
    assert np.abs(back.coeffs - u.coeffs).max() < 1e-11 * (1.0 + np.abs(c).max())


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_norm_inequalities_property(seed):
    problem = ProblemSpec(s=0.75, m=1.0, gamma=0.5, lam=0.1, T=2.0 * np.pi, N=2)
    params = SpectrumParams(modes=3, grid_points=8)
    rng = np.random.default_rng(seed)
    u = FourierField(random_symmetric_coeffs(rng, 3, 2), problem, params)
    g = FourierField(random_symmetric_coeffs(rng, 3, 2), problem, params)
    # duality: |<g, u>| <= |g|_dual |u|_Hs  (Cauchy-Schwarz in weighted l2)
    assert abs(pairing(g, u)) <= dual_norm(g) * hs_norm(u) + 1e-10
    # L2 is dominated by Hs through the smallest multiplier value
    assert l2_norm(u) <= hs_norm(u) / problem.m ** problem.s + 1e-10
