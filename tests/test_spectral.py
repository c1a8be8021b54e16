"""Transforms, multipliers, and norms against independent oracles:
coefficients by direct summation, integrals by brute-force quadrature."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perifrac.spectral import (FourierField, ProblemSpec, SpectrumParams,
                               SymmetryError, _half_to_samples, _hermitian_half,
                               _last_axis_dft, _leading_axis_dft,
                               apply_fractional_op, dual_norm,
                               e_norm, forward_transform, grid_coordinates,
                               hs_norm, inverse_transform, l2_norm,
                               mean_value, multiplier_array, pairing)
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
    """u(x) = sum_k c_k exp(i omega k.x) / T^(N/2) at a (P, N) array of
    points, summed term by term over the whole mode cube, 256 points at a
    time."""
    problem, M = field.problem, field.params.modes
    axis = np.arange(-M, M + 1)
    modes = np.stack(np.meshgrid(*([axis] * problem.N), indexing="ij"),
                     axis=-1).reshape(-1, problem.N)
    c = field.coeffs.reshape(-1)
    vals = np.concatenate([
        np.exp(1j * problem.omega * (chunk @ modes.T)) @ c
        for chunk in np.array_split(points, max(1, len(points) // 256))])
    vals /= problem.T ** (problem.N / 2.0)
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


@pytest.mark.parametrize("N, M, n", GRID_CASES + [(2, 8, 18), (3, 6, 25)],
                         ids=GRID_IDS + ["N2-M8-n18", "N3-M6-n25"])
def test_forward_transform_equals_full_cube_symmetrization(N, M, n):
    # only the k_N = 0 plane is averaged; off it the conjugate fill is exact,
    # so averaging the whole cube, as the transform once did, changes no bit,
    # and the result is the symmetrized, scaled rfftn to roundoff
    problem = oracle_problem(N)
    samples = np.random.default_rng([N, M, n, 2]).standard_normal((n,) * N)
    got = forward_transform(samples, problem, SpectrumParams(M, n)).coeffs
    assert np.array_equal(got, 0.5 * (got + np.conj(np.flip(got))))
    cube = np.ix_(*([np.arange(-M, M + 1) % n] * (N - 1)), np.arange(M + 1))
    c = np.empty((2 * M + 1,) * N, dtype=complex)
    c[..., M:] = np.fft.rfftn(samples)[cube]
    c[..., :M] = np.conj(np.flip(c[..., M + 1:]))
    c *= problem.T ** (N / 2.0) / n ** N
    want = 0.5 * (c + np.conj(np.flip(c)))
    assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


@pytest.mark.parametrize("N", [1, 2, 3])
@pytest.mark.parametrize("n", [5, 10])      # 2M+1 and 4M+2 at M = 2
def test_forward_transform_takes_the_grid_from_the_samples(N, n):
    # params.grid_points only rides along on the field; the coefficients
    # come from the samples' own grid
    M = 2
    problem = oracle_problem(N)
    samples = np.random.default_rng([N, n, 4]).standard_normal((n,) * N)
    want = forward_transform(samples, problem, SpectrumParams(M, n))
    for other in (2 * M + 1, 4 * M + 2, 32):
        got = forward_transform(samples, problem, SpectrumParams(M, other))
        assert np.array_equal(got.coeffs, want.coeffs)
        assert got.params.grid_points == other


@pytest.mark.parametrize("shape", [(9, 8), (9,), (9, 9, 9), (4, 4)],
                         ids=["not-a-cube", "too-few-axes", "too-many-axes",
                              "n-below-2M+1"])
def test_forward_transform_rejects_bad_sample_shapes(shape):
    problem = oracle_problem(2)
    with pytest.raises(ValueError, match="cube"):
        forward_transform(np.zeros(shape), problem, SpectrumParams(2, 9))


# every M with the minimal, the minimal even and the product-dealiasing
# grids, then the largest grids of the scripts/bench.py size ladder, where
# the summation error of a direct product grows most
PRUNED_CASES = [(N, M, n) for N in (1, 2, 3) for M in (0, 1, 2, 6)
                for n in sorted({2 * M + 1, 2 * M + 2, 4 * M + 1, 4 * M + 2})]
PRUNED_CASES += [(1, 128, 257), (1, 128, 513), (1, 128, 514), (2, 32, 130),
                 (3, 8, 33), (3, 8, 34)]


@pytest.mark.parametrize("N, M, n", PRUNED_CASES,
                         ids=[f"N{N}-M{M}-n{n}" for N, M, n in PRUNED_CASES])
def test_pruned_kernels_are_bit_identical_to_numpy(N, M, n):
    # numpy's rfftn / irfftn, scaled by T^(N/2) / n^N and its inverse, are
    # the reference; the matrix products sum in another order, so they
    # agree to roundoff, not bit for bit as the FFT kernels that gave the
    # test its name did
    problem = oracle_problem(N)
    scale = problem.T ** (N / 2.0) / n ** N
    rng = np.random.default_rng([N, M, n, 3])
    samples = rng.standard_normal((n,) * N)
    cube = np.ix_(*([np.arange(-M, M + 1) % n] * (N - 1)), np.arange(M + 1))
    want = np.fft.rfftn(samples)[cube] * scale
    half = _hermitian_half(samples, problem, M)
    assert half.shape == want.shape
    assert np.abs(half - want).max() <= 1e-14 * np.abs(want).max()
    half = half + rng.standard_normal(half.shape)  # any half cube will do
    padded = np.zeros((n,) * (N - 1) + (n // 2 + 1,), dtype=complex)
    padded[cube] = half
    want = np.fft.irfftn(padded, s=(n,) * N, axes=tuple(range(N))) / scale
    got = _half_to_samples(half, problem, n)
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()
    # the cached DFT matrices are shared by every call: nobody may write them
    for matrix in _last_axis_dft(M, n) + _leading_axis_dft(M, n):
        assert not matrix.flags.writeable
        with pytest.raises(ValueError):
            matrix[0] = 0.0


# a field is a trigonometric polynomial, so any n >= 1 samples it exactly;
# only recovering coefficients from the samples needs n >= 2M+1
SAMPLE_CASES = sorted(set(GRID_CASES) | {
    (N, M, n) for N in (1, 2, 3) for M in (0, 1, 3, 6)
    for n in (1, 2, 3, 5, 7, 2 * M + 1, 2 * M + 3)})


@pytest.mark.parametrize("N, M, n", SAMPLE_CASES,
                         ids=[f"N{N}-M{M}-n{n}" for N, M, n in SAMPLE_CASES])
def test_inverse_transform_matches_pointwise_sum(N, M, n):
    problem = oracle_problem(N)
    rng = np.random.default_rng([N, M, n, 1])
    u = FourierField(random_symmetric_coeffs(rng, M, N), problem,
                     SpectrumParams(M, n))
    samples = inverse_transform(u)
    assert np.array_equal(inverse_transform(u, n), samples)
    xs = grid_coordinates(problem, n)
    direct = eval_field_at(u, np.stack([x.reshape(-1) for x in xs], axis=-1))
    assert (np.abs(samples.reshape(-1) - direct).max()
            <= 1e-13 * np.abs(direct).max())


def test_grids_must_hold_a_point():
    # a count is a Python int in range: not a float, a bool or a string
    with pytest.raises(ValueError, match=">= 1"):
        SpectrumParams(2, 0)
    for modes, grid in ((True, 5), (2, True), (np.int64(2), 5)):
        with pytest.raises(ValueError, match="must be an integer >= "):
            SpectrumParams(modes, grid)
    u = FourierField.zeros(oracle_problem(2), SpectrumParams(2, 1))
    for grid in (0, 2.7, True, "3"):
        with pytest.raises(ValueError, match="must be an integer >= 1"):
            inverse_transform(u, grid)


@pytest.mark.parametrize("N", [0, 4, True, 2.0, np.int64(2)])
def test_problem_spec_dimension_is_an_int_in_1_to_3(N):
    with pytest.raises(ValueError, match=r"must be an integer in 1\.\.3"):
        ProblemSpec(s=0.75, m=1.0, gamma=0.5, lam=0.1, T=2.0 * np.pi, N=N)


def test_grid_coordinates_are_cached_and_read_only():
    problem = oracle_problem(2)
    xs = grid_coordinates(problem, 5)
    assert grid_coordinates(problem, 5) is xs
    for axis, x in enumerate(xs):
        assert not x.flags.writeable
        assert np.array_equal(np.moveaxis(x, axis, 0)[:, 0],
                              np.arange(5) * (problem.T / 5))


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


def test_apply_fractional_op_scales_single_modes(example_problem):
    params = SpectrumParams(modes=8, grid_points=17)
    w = 2.0 * np.pi / example_problem.T
    m, s = example_problem.m, example_problem.s
    for k in [(0, 0), (1, 0), (3, -2), (8, 8), (-5, 7)]:
        u = FourierField.from_modes(example_problem, params,
                                    {k: 0.5 + (0.25j if any(k) else 0.0)})
        v = apply_fractional_op(u)
        idx = (k[0] + 8, k[1] + 8)
        want = (w * w * (k[0] ** 2 + k[1] ** 2) + m * m) ** s * u.coeffs[idx]
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


@pytest.mark.parametrize("N, M", [(1, 2), (2, 2), (3, 1)])
def test_symmetry_check_covers_every_conjugate_pair(N, M):
    # the check reads each pair from its k_N <= 0 member (pairs inside the
    # k_N = 0 plane twice); a defect anywhere in the cube, that plane
    # included, must still trip it, and roundoff must not
    problem = oracle_problem(N)
    params = SpectrumParams(M, 2 * M + 1)
    rng = np.random.default_rng([N, M])
    base = random_symmetric_coeffs(rng, M, N)
    for idx in np.ndindex(base.shape):
        for kick, rejected in ((1e-6j, True), (1e-12j, False)):
            c = base.copy()
            c[idx] += kick
            u = FourierField(c, problem, params)
            # the same maximum as over the whole cube
            assert u.hermitian_defect() == np.abs(c - np.conj(np.flip(c))).max()
            if rejected:
                with pytest.raises(SymmetryError):
                    inverse_transform(u)
            else:
                inverse_transform(u)


def test_field_rejects_mismatched_operands(example_problem):
    params = SpectrumParams(modes=2, grid_points=5)
    with pytest.raises(ValueError, match="coefficient shape"):
        FourierField(np.zeros((3, 3)), example_problem, params)
    u = FourierField.constant(example_problem, params, 1.0)
    other = ProblemSpec(s=0.75, m=1.0, gamma=0.5, lam=0.2,
                        T=example_problem.T, N=2)
    with pytest.raises(ValueError, match="different problems"):
        u + FourierField.constant(other, params, 1.0)
    with pytest.raises(TypeError, match="scalars"):
        u * u


def test_from_modes_rejects_out_of_cube(example_problem):
    params = SpectrumParams(modes=2, grid_points=5)
    with pytest.raises(ValueError):
        FourierField.from_modes(example_problem, params, {(3, 0): 1.0})


def test_from_modes_stores_a_real_mean_mode(example_problem):
    # an imaginary part at roundoff level is dropped, so the cube is
    # exactly Hermitian
    params = SpectrumParams(modes=2, grid_points=5)
    u = FourierField.from_modes(example_problem, params,
                                {(0, 0): 1 + 1e-13j, (1, 0): 0.5 - 0.25j})
    assert u.coeffs[2, 2] == 1.0
    assert u.hermitian_defect() == 0.0


def test_from_modes_rejects_complex_mean_mode(example_problem):
    params = SpectrumParams(modes=2, grid_points=5)
    with pytest.raises(SymmetryError):
        FourierField.from_modes(example_problem, params, {(0, 0): 1 + 1e-3j})


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


@pytest.mark.parametrize("N, M, n", [(1, 4, 9), (2, 3, 8), (3, 2, 7), (3, 3, 13)])
def test_stacked_kernels_transform_each_field_alone(N, M, n):
    # a stack on the axis before the last only widens the products: each
    # field comes out as it does alone, to roundoff, and the flat buffers
    # change where the results live, not their bits
    problem = ProblemSpec(s=0.3, m=1.0, gamma=0.0, lam=0.1, T=2.0 * np.pi, N=N)
    rng = np.random.default_rng(N * 100 + n)
    fields = [rng.standard_normal((n,) * N) for _ in range(3)]
    stack = np.stack(fields, axis=-2)
    half = _hermitian_half(stack, problem, M)
    back = _half_to_samples(half, problem, n)
    assert half.shape == (2 * M + 1,) * (N - 1) + (3, M + 1)
    assert back.shape == stack.shape
    for i, field in enumerate(fields):
        alone = _hermitian_half(field, problem, M)
        scale = np.abs(alone).max()
        assert np.abs(half[..., i, :] - alone).max() <= 1e-14 * scale
        samples = _half_to_samples(alone, problem, n)
        assert (np.abs(back[..., i, :] - samples).max()
                <= 1e-14 * np.abs(samples).max())
    size = 3 * n ** (N - 1) * max(n, 2 * M + 2)
    out, work = np.empty(size), np.empty(size)
    assert np.array_equal(_hermitian_half(stack, problem, M, work=work), half)
    assert np.array_equal(_half_to_samples(half, problem, n, out=out, work=work),
                          back)


def test_dual_norm_past_the_range_of_its_squares():
    # |g_k|^2 overflows near 2^512 while the norm is still a double; the
    # rescaled sum must agree with the norm of the unscaled field
    problem = ProblemSpec(s=0.75, m=1.0, gamma=0.5, lam=0.1, T=2.0 * np.pi, N=2)
    params = SpectrumParams(modes=3, grid_points=8)
    g = FourierField(random_symmetric_coeffs(np.random.default_rng(4), 3, 2),
                     problem, params)
    big = dual_norm(g * 2.0 ** 700)
    assert math.isfinite(big)
    assert big == pytest.approx(2.0 ** 700 * dual_norm(g), rel=1e-14)
    # past the range of doubles altogether the norm is infinite
    g.coeffs[3, 3] = math.inf
    assert dual_norm(g) == math.inf
