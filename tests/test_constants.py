"""Embedding constants: closed forms against high-precision arithmetic,
ascent against the closed forms and brute scans, and the certificate
algebra (lambda_max / chi_upper / ball_radius / best_lambda) against
independently coded dense searches and the paper's quartic profile h."""

import math
import os
import pathlib
import subprocess
import sys
import warnings
from dataclasses import replace

import mpmath
import numpy as np
import pytest

from perifrac import constants, spectral
from perifrac.cli import GOLDEN_REL_TOL
from perifrac.constants import (InadmissibleLambdaError, ball_radius,
                                best_lambda, certify, chi_upper,
                                default_golden_path, golden_key, lambda_max,
                                lambda_table, load_golden, rayleigh_ascent,
                                sigma_estimate, _ascent_grid)
from perifrac.spectral import (FourierField, ProblemSpec, SpectrumParams,
                               forward_transform, hs_norm, inverse_transform)
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
    assert hi.modes == 4


def test_sigma_estimate_is_memoized_and_deterministic():
    a = sigma_estimate(4.0, PROBLEM, PARAMS, seed=7, starts=4)
    b = sigma_estimate(4.0, PROBLEM, PARAMS, seed=7, starts=4)
    assert a is b
    r1, _, _ = rayleigh_ascent(PROBLEM, 4.0, modes=2, seed=11, starts=3)
    r2, _, _ = rayleigh_ascent(PROBLEM, 4.0, modes=2, seed=11, starts=3)
    assert r1 == r2  # bitwise


@pytest.mark.parametrize("starts", [0, -3])
def test_ascent_rejects_fewer_than_one_start(starts):
    # no start would leave the ratio at -inf; the estimate must not be
    # cached either
    before = dict(constants._SIGMA_CACHE)
    with pytest.raises(ValueError, match="starts"):
        sigma_estimate(4.0, PROBLEM, PARAMS, seed=0, starts=starts)
    with pytest.raises(ValueError, match="starts"):
        rayleigh_ascent(PROBLEM, 4.0, modes=2, seed=0, starts=starts)
    assert constants._SIGMA_CACHE == before


def test_ascent_grid_formulas():
    # even r: the smallest grid resolving u^r exactly; odd r: the grid that
    # dealiases a degree-r product; fractional r: twice the minimal grid
    for modes in range(130):
        for r in (1, 1.5, 2, 2.5, 3, 3.25, 3.5, 4, 5, 6, 7, 8):
            if r % 2 == 0:
                want = max(r * modes + 1, 2)
            elif r % 1 == 0:
                want = (r + 1) * modes + 2
            else:
                want = 4 * modes + 2
            got = _ascent_grid(modes, float(r))
            assert type(got) is int and got == want, (modes, r)


@pytest.mark.parametrize("r", [3.0, 4.0])
def test_rayleigh_ascent_field_is_exactly_hermitian(r):
    # the ascent steps without re-symmetrizing: real even multipliers,
    # real scalars and sums must keep forward_transform's symmetry exact
    _, field, diag = rayleigh_ascent(PROBLEM, r, modes=2, seed=3, starts=2)
    assert diag["iterations"] > 2
    assert field.hermitian_defect() == 0.0


@pytest.mark.parametrize("N, s, modes", [(1, 0.3, 6), (2, 0.75, 4),
                                         (3, 0.9, 2)])
@pytest.mark.parametrize("r", [2.0, 4.0])
def test_ascent_ratio_is_exact_on_its_grid(N, s, modes, r):
    # for even r the ascent's grid resolves u^r exactly, so its ratio must
    # agree with the rectangle rule on a 3x finer grid and the Hs norm
    problem = ProblemSpec(s=s, m=1.0, gamma=0.0, lam=0.1, T=2.0 * math.pi, N=N)
    ratio, field, _ = rayleigh_ascent(problem, r, modes, seed=5, starts=2)
    n = field.params.grid_points
    assert n == max(int(r) * modes + 1, 2 * modes + 1)
    fine = inverse_transform(field, grid_points=3 * n)
    lr = (np.sum(np.abs(fine) ** r) * (problem.T / (3 * n)) ** N) ** (1.0 / r)
    want = lr / hs_norm(field)
    assert abs(ratio - want) < 1e-12 * want


def test_ascent_transforms_each_field_once(monkeypatch):
    # the samples of an accepted trial point are reused by the next
    # iteration and by the final ratio, never recomputed; a stacked call
    # transforms one field per row of its stack axis, the axis before the
    # last
    seen = []
    real = spectral._half_to_samples

    def spy(half, problem, n, *rest, **buffers):
        fields = ([half] if half.ndim == problem.N
                  else [half[..., i, :] for i in range(half.shape[-2])])
        seen.extend(field.tobytes() for field in fields)
        return real(half, problem, n, *rest, **buffers)

    monkeypatch.setattr(spectral, "_half_to_samples", spy)
    _, _, diag = rayleigh_ascent(PROBLEM, 4.0, modes=3, seed=2, starts=2)
    assert diag["iterations"] > 10
    assert len(seen) > diag["iterations"]
    assert len(set(seen)) == len(seen)


def full_cube_climb(problem, r, modes, c, step, max_iter=2000, tol=1e-12):
    """One ascent on whole FourierFields of degree `modes` from the
    coefficients c: full-cube transforms, |u|^r and |u|^{r-1} sgn(u) by
    float powers, H^s products over the whole cube.  Returns (ratio,
    coefficients, iterations)."""
    n = _ascent_grid(modes, r)
    params = SpectrumParams(modes, n)
    mu_s = spectral.multiplier_array(problem, params)
    cell = (problem.T / n) ** problem.N

    def sample(c):
        u = inverse_transform(FourierField(c, problem, params))
        return u, float(np.sum(np.abs(u) ** r) * cell) ** (1.0 / r)

    c = c / hs_norm(FourierField(c, problem, params))
    u, lr = sample(c)
    prev, iters = -np.inf, 0
    for _ in range(max_iter):
        iters += 1
        w = np.abs(u) ** (r - 1.0) * np.sign(u)
        grad = (forward_transform(w, problem, params).coeffs
                * lr ** (1.0 - r) / mu_s)
        tangent = grad - np.real(np.vdot(c * mu_s, grad)) * c
        if (np.real(np.vdot(tangent * mu_s, tangent))
                <= (tol * max(lr, 1.0)) ** 2):
            break
        for _ in range(40):
            trial = FourierField(c + step * tangent, problem, params)
            c_try = trial.coeffs / hs_norm(trial)
            u_try, lr_try = sample(c_try)
            if lr_try > lr * (1.0 + 1e-16):
                c, u, lr = c_try, u_try, lr_try
                step *= 1.3
                break
            step *= 0.5
        else:
            break
        if abs(lr - prev) <= tol * max(1.0, abs(lr)):
            break
        prev = lr
    return lr / hs_norm(FourierField(c, problem, params)), c, iters


def full_cube_finish(problem, r, modes, c, memory=5, tol=1e-12,
                     ripple_tol=1e-14):
    """The nested ascent's finish on whole FourierFields: L-BFGS on the
    H^s unit sphere, written out with full-cube transforms, float powers
    and H^s products over the whole cube.  The last `memory` pairs
    s = c+ - c, y = g - g+, projected onto the new tangent space, are kept
    when <s, y> > 0; the two-loop recursion scales by <s, y> / <y, y>.
    The first trial step is 1 after a recursion and 0.5 along g, halved on
    each rejection.  A value change stops it below tol for even r and below
    ripple_tol otherwise.  Returns (ratio, coefficients, iterations)."""
    n = _ascent_grid(modes, r)
    params = SpectrumParams(modes, n)
    mu_s = spectral.multiplier_array(problem, params)
    cell = (problem.T / n) ** problem.N

    def inner(a, b):
        return float(np.real(np.vdot(a * mu_s, b)))

    def sample(c):
        u = inverse_transform(FourierField(c, problem, params))
        return u, float(np.sum(np.abs(u) ** r) * cell) ** (1.0 / r)

    def tangent(c, u, lr):
        w = np.abs(u) ** (r - 1.0) * np.sign(u)
        grad = (forward_transform(w, problem, params).coeffs
                * lr ** (1.0 - r) / mu_s)
        return grad - inner(c, grad) * c

    c = c / math.sqrt(inner(c, c))
    u, lr = sample(c)
    pairs, g, iters = [], None, 0
    while iters < 2000:
        iters += 1
        g_new = tangent(c, u, lr)
        if g is not None:
            s, y = c - c_old, g - g_new
            s, y = s - inner(c, s) * c, y - inner(c, y) * c
            if inner(s, y) > 0.0:
                pairs = (pairs + [(s, y)])[-memory:]
        g = g_new
        if inner(g, g) <= (tol * max(lr, 1.0)) ** 2:
            break
        d, alphas = g, []
        for s, y in reversed(pairs):
            alphas.append(inner(s, d) / inner(s, y))
            d = d - alphas[-1] * y
        if pairs:
            d = d * (inner(*pairs[-1]) / inner(pairs[-1][1], pairs[-1][1]))
        for (s, y), a in zip(pairs, reversed(alphas)):
            d = d + (a - inner(y, d) / inner(s, y)) * s
        d = d - inner(c, d) * c
        step = 1.0 if pairs else 0.5
        for _ in range(40):
            trial = FourierField(c + step * d, problem, params)
            c_try = trial.coeffs / hs_norm(trial)
            u_try, lr_try = sample(c_try)
            if lr_try > lr * (1.0 + 1e-16):
                break
            step *= 0.5
        else:
            break
        settle = tol if r % 2 == 0 else ripple_tol
        settled = abs(lr_try - lr) <= settle * max(1.0, abs(lr_try))
        c_old, c, u, lr = c, c_try, u_try, lr_try
        if settled:
            break
    return lr / hs_norm(FourierField(c, problem, params)), c, iters


def full_cube_ascent(problem, r, modes, seed, starts):
    """The nested ascent on whole FourierFields: every start climbs at
    modes // 2 (at modes itself below the nesting threshold), and the best
    one, zero-padded into the centre of the degree-modes cube, is finished
    by full_cube_finish.  The coarse climbs stop at the ranking tolerance
    1e-4, a one-level ascent at tol = 1e-12.  Returns (best ratio, total
    iterations)."""
    coarse = modes // 2 if modes >= constants._NESTED_MIN_MODES else modes
    tol = 1e-4 if coarse < modes else 1e-12
    stack = seeded_starts(problem, coarse, seed, starts)
    climbs = [full_cube_climb(problem, r, coarse,
                              spectral._full_cube(stack[..., i, :]), 0.5, tol=tol)
              for i in range(starts)]
    ratio, c, _ = max(climbs, key=lambda climb: climb[0])
    iters = sum(climb[2] for climb in climbs)
    if coarse < modes:
        padded = np.zeros((2 * modes + 1,) * problem.N, dtype=complex)
        padded[(slice(modes - coarse, modes + coarse + 1),) * problem.N] = c
        ratio, _, fine = full_cube_finish(problem, r, modes, padded)
        iters += fine
    return ratio, iters


@pytest.mark.parametrize("N, s, modes", [(1, 0.3, 5), (2, 0.75, 3),
                                         (3, 0.9, 2)])
@pytest.mark.parametrize("r", [2.0, 3.0, 3.5, 4.0, 6.0])
def test_half_cube_ascent_matches_full_cube_ascent(N, s, modes, r):
    # the half-cube state, the pruned kernels and the integer powers change
    # only the roundoff: the same path, to the last iteration
    problem = ProblemSpec(s=s, m=1.0, gamma=0.0, lam=0.1, T=2.0 * math.pi, N=N)
    want, iters = full_cube_ascent(problem, r, modes, seed=4, starts=3)
    ratio, field, diag = rayleigh_ascent(problem, r, modes, seed=4, starts=3)
    assert diag["iterations"] == iters
    assert abs(ratio - want) <= 1e-13 * want
    assert field.hermitian_defect() == 0.0


def seeded_starts(problem, modes, seed, starts):
    """The stack of half cubes that rayleigh_ascent's seeded starts climb
    from at level `modes`, one per row of the axis before the last."""
    return constants._gaussian_starts(problem.N, modes, seed, starts)


def best_climb(problem, r, modes, seed, starts, tol=1e-12):
    """Every seeded start of rayleigh_ascent climbed at one level, as a
    single-level ascent would (tol = 1e-12) or as the coarse level of a
    nested one (tol = 1e-4): (best ratio, its half cube, total
    iterations)."""
    ratios, c, iters = constants._climb(
        problem, r, modes, seeded_starts(problem, modes, seed, starts), tol)
    best = max(range(starts), key=lambda i: ratios[i])
    return ratios[best], c[..., best, :], int(iters.sum())


def quotient(coeffs, problem, modes, n, r):
    """|u|_{L^r} / |u|_{H^s} of the full-cube field by the rectangle rule
    on the n^N grid."""
    field = FourierField(coeffs, problem, SpectrumParams(modes, n))
    u = inverse_transform(field, grid_points=n)
    lr = (np.sum(np.abs(u) ** r) * (problem.T / n) ** problem.N) ** (1.0 / r)
    return lr / hs_norm(field)


@pytest.mark.parametrize("N, s, modes", [(1, 0.3, 8), (2, 0.75, 8),
                                         (3, 0.9, 4)])
@pytest.mark.parametrize("r", [4.0, 6.0])
def test_padded_coarse_maximizer_keeps_its_quotient(N, s, modes, r):
    # for even r both levels' grids integrate u^r exactly, so the coarse
    # maximizer, zero-padded into the fine cube, has the same quotient on
    # the fine grid as on the coarse one
    problem = ProblemSpec(s=s, m=1.0, gamma=0.0, lam=0.1, T=2.0 * math.pi, N=N)
    coarse = modes // 2
    ratio, c, _ = best_climb(problem, r, coarse, seed=1, starts=4)
    full = spectral._full_cube(c)
    padded = np.zeros((2 * modes + 1,) * N, dtype=complex)
    padded[(slice(modes - coarse, modes + coarse + 1),) * N] = full
    on_coarse = quotient(full, problem, coarse, _ascent_grid(coarse, r), r)
    on_fine = quotient(padded, problem, modes, _ascent_grid(modes, r), r)
    assert abs(on_coarse - ratio) <= 1e-13 * ratio
    assert abs(on_fine - on_coarse) <= 1e-13 * on_coarse


@pytest.mark.parametrize("N, s, modes", [(1, 0.3, 8), (2, 0.75, 8),
                                         (2, 0.6, 5), (3, 0.9, 4)])
@pytest.mark.parametrize("r", [3.0, 3.5, 4.0])
def test_finish_never_ends_below_the_best_coarse_value(N, s, modes, r):
    problem = ProblemSpec(s=s, m=1.0, gamma=0.0, lam=0.1, T=2.0 * math.pi, N=N)
    for seed in range(3):
        coarse, _, coarse_iters = best_climb(problem, r, modes // 2, seed,
                                             starts=4, tol=1e-4)
        ratio, field, diag = rayleigh_ascent(problem, r, modes, seed=seed,
                                             starts=4)
        assert ratio >= coarse
        assert field.params.modes == modes
        assert diag["coarse_modes"] == modes // 2
        assert diag["coarse_iterations"] == coarse_iters
        assert diag["fine_iterations"] >= 1
        assert diag["iterations"] == coarse_iters + diag["fine_iterations"]


@pytest.mark.parametrize("N, s", [(1, 0.3), (2, 0.75), (3, 0.9)])
@pytest.mark.parametrize("modes", range(constants._NESTED_MIN_MODES))
def test_ascent_below_the_nesting_threshold_is_one_level(N, s, modes):
    problem = ProblemSpec(s=s, m=1.0, gamma=0.0, lam=0.1, T=2.0 * math.pi, N=N)
    want, c, iters = best_climb(problem, 4.0, modes, seed=2, starts=3)
    ratio, field, diag = rayleigh_ascent(problem, 4.0, modes, seed=2, starts=3)
    assert ratio == want  # bitwise
    assert np.array_equal(field.coeffs, spectral._full_cube(c))
    assert diag == {"starts": 3, "iterations": iters, "coarse_modes": modes,
                    "coarse_iterations": iters, "fine_iterations": 0}


STACK_CASES = [(1, 0.3, 5), (2, 0.75, 3), (3, 0.9, 2)]


@pytest.mark.parametrize("N, s, modes", STACK_CASES)
@pytest.mark.parametrize("r", [3.0, 3.5, 4.0, 6.0])
def test_start_climbs_alike_alone_and_in_the_stack(N, s, modes, r):
    # the stacked climb changes only the roundoff of a start's own path:
    # the same iterations, whichever other starts share its rounds
    problem = ProblemSpec(s=s, m=1.0, gamma=0.0, lam=0.1, T=2.0 * math.pi, N=N)
    stack = seeded_starts(problem, modes, seed=6, starts=16)
    ratios, _, iters = constants._climb(problem, r, modes, stack, 1e-12)
    for i in (0, 7, 15):
        alone = constants._climb(problem, r, modes, stack[..., i:i + 1, :],
                                 1e-12)
        assert alone[2][0] == iters[i]
        assert abs(alone[0][0] - ratios[i]) <= 1e-13 * ratios[i]


@pytest.mark.parametrize("N, s, modes", STACK_CASES)
@pytest.mark.parametrize("r", [3.0, 3.5, 4.0, 6.0])
def test_each_stacked_start_matches_a_full_cube_climb(N, s, modes, r):
    problem = ProblemSpec(s=s, m=1.0, gamma=0.0, lam=0.1, T=2.0 * math.pi, N=N)
    stack = seeded_starts(problem, modes, seed=8, starts=4)
    ratios, _, iters = constants._climb(problem, r, modes, stack, 1e-12)
    for i in range(4):
        want, _, want_iters = full_cube_climb(
            problem, r, modes, spectral._full_cube(stack[..., i, :]), 0.5)
        assert iters[i] == want_iters
        assert abs(ratios[i] - want) <= 1e-13 * want


def padded_coarse_start(problem, r, modes, seed):
    """The best of 4 seeded starts climbed at modes // 2 to the ranking
    tolerance 1e-4, zero-padded into the degree-modes half cube, as
    rayleigh_ascent hands it to the finish."""
    coarse = modes // 2
    _, c, _ = best_climb(problem, r, coarse, seed, starts=4, tol=1e-4)
    padded = np.zeros((2 * modes + 1,) * (problem.N - 1) + (1, modes + 1),
                      dtype=complex)
    lead = slice(modes - coarse, modes + coarse + 1)
    padded[(lead,) * (problem.N - 1) + (0, slice(coarse + 1))] = c
    return padded


@pytest.mark.parametrize("N, s, modes", [(1, 0.3, 8), (2, 0.75, 8),
                                         (3, 0.9, 4)])
@pytest.mark.parametrize("r", [3.0, 3.5, 4.0, 6.0])
def test_finish_never_ends_below_a_gradient_climb(N, s, modes, r):
    # from the same padded start, the L-BFGS finish ends no lower than the
    # projected gradient climb on a stack of one, to the finish's tol
    problem = ProblemSpec(s=s, m=1.0, gamma=0.0, lam=0.1, T=2.0 * math.pi, N=N)
    for seed in range(3):
        start = padded_coarse_start(problem, r, modes, seed)
        climbed, _, _ = constants._climb(problem, r, modes, start, 1e-12)
        ratio, _, iters = constants._finish(problem, r, modes, start)
        assert ratio >= climbed[0] * (1.0 - 1e-13)
        assert iters >= 1


@pytest.mark.parametrize("N, s, modes", [(1, 0.3, 8), (2, 0.75, 8),
                                         (3, 0.9, 4)])
@pytest.mark.parametrize("r", [3.0, 4.0])
def test_finish_field_is_exactly_hermitian(N, s, modes, r):
    # the two-loop recursion only sums tangents and steps with real
    # weights, so the k_N = 0 plane stays exactly Hermitian
    problem = ProblemSpec(s=s, m=1.0, gamma=0.0, lam=0.1, T=2.0 * math.pi, N=N)
    _, c, iters = constants._finish(problem, r, modes,
                                    padded_coarse_start(problem, r, modes, 0))
    field = FourierField(spectral._full_cube(c), problem,
                         SpectrumParams(modes, _ascent_grid(modes, r)))
    assert iters > 2
    assert field.hermitian_defect() == 0.0


@pytest.mark.parametrize("N, s", [(1, 0.3), (2, 0.75), (3, 0.9)])
def test_finish_from_the_maximizer_stops_after_one_iteration(N, s):
    # constant fields maximize |u|_2 / |u|_Hs: the tangent there vanishes
    # and the finish stops on its first iteration, where it started
    problem = ProblemSpec(s=s, m=1.0, gamma=0.0, lam=0.1, T=2.0 * math.pi, N=N)
    modes = 4
    start = np.zeros((2 * modes + 1,) * (N - 1) + (1, modes + 1), dtype=complex)
    start[(modes,) * (N - 1) + (0, 0)] = 3.0
    ratio, c, iters = constants._finish(problem, 2.0, modes, start)
    assert iters == 1
    assert abs(ratio - problem.m ** (-s)) <= 1e-14
    assert np.count_nonzero(c) == 1 and c[(modes,) * (N - 1) + (0,)].real > 0


# -- the starts' Gaussian stream -------------------------------------------------


def splitmix64_reference(state, count):
    """SplitMix64 in Python integers, reduced mod 2^64 by hand."""
    mask, out = 2 ** 64 - 1, []
    for j in range(1, count + 1):
        z = (state + j * 0x9E3779B97F4A7C15) & mask
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        out.append(z ^ (z >> 31))
    return out


def test_splitmix64_wraps_like_python_integers_mod_2_64():
    states = [0, 1, 2 ** 63, 2 ** 64 - 1, 0x9E3779B97F4A7C15]
    got = constants._splitmix64(np.array(states, dtype=np.uint64), 6)
    assert got.dtype == np.uint64
    assert [[int(x) for x in row] for row in got] == [
        splitmix64_reference(state, 6) for state in states]
    # the published first outputs of the stream at 0
    assert [int(x) for x in got[0, :3]] == [
        0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]


@pytest.mark.parametrize("N, modes", [(1, 0), (1, 5), (2, 3), (3, 2)])
def test_gaussian_starts_repeat_bitwise_and_keep_their_prefix(N, modes):
    # start i depends on (seed, i) alone: 3 starts are the first 3 of 16
    many = constants._gaussian_starts(N, modes, 5, 16)
    assert many.shape == (2 * modes + 1,) * (N - 1) + (16, modes + 1)
    assert many.tobytes() == constants._gaussian_starts(N, modes, 5, 16).tobytes()
    assert np.array_equal(constants._gaussian_starts(N, modes, 5, 3),
                          many[..., :3, :])


def test_gaussian_starts_differ_across_seeds_and_starts():
    # 2**64 and 2**64 + 5 differ from 0 and 5 only in a second 64-bit word
    seeds = (0, 1, 5, 2 ** 63, 2 ** 64, 2 ** 64 + 5)
    rows = [row.tobytes() for seed in seeds
            for row in np.moveaxis(constants._gaussian_starts(2, 2, seed, 4), -2, 0)]
    assert len(set(rows)) == len(rows) == 4 * len(seeds)


@pytest.mark.parametrize("seed", [-1, -2 ** 70])
def test_ascent_rejects_a_negative_seed(seed):
    with pytest.raises(ValueError, match="seed"):
        rayleigh_ascent(PROBLEM, 4.0, modes=2, seed=seed, starts=2)


@pytest.mark.parametrize("seed", [0, 2 ** 63])
@pytest.mark.parametrize("N, modes", [(1, 3), (2, 2), (3, 2)])
def test_gaussian_starts_are_finite_and_exactly_hermitian(N, modes, seed):
    problem = ProblemSpec(s=0.3 * N, m=1.0, gamma=0.0, lam=0.1,
                          T=2.0 * math.pi, N=N)
    params = SpectrumParams(modes, 2 * modes + 1)
    stack = constants._gaussian_starts(N, modes, seed, 8)
    assert np.isfinite(stack).all()
    for i in range(8):
        field = FourierField(spectral._full_cube(stack[..., i, :]), problem, params)
        assert field.hermitian_defect() == 0.0
        assert field.coeffs[(modes,) * N].imag == 0.0


def second_moments(half, modes):
    """Mean squares of the parts of a stack of N=2 half cubes (k_1 on the
    first axis, the stack on the second), each over the mean square of the
    off-plane real parts, with the sample counts: the k = 0 entry, the real
    and imaginary parts of the independent k_2 = 0 pairs (k_1 > 0) and the
    imaginary parts off the plane."""
    off = half[:, :, 1:]
    pairs = half[modes + 1:, :, 0]
    parts = {"k=0": half[modes, :, 0].real, "plane re": pairs.real,
             "plane im": pairs.imag, "off-plane im": off.imag}
    base = np.mean(off.real ** 2)
    return {name: (np.mean(x ** 2) / base, x.size, off.size)
            for name, x in parts.items()}


def test_gaussian_starts_have_the_law_of_transformed_white_noise():
    # oracle: _hermitian_half of numpy.random white noise on the smallest
    # grid.  With known mean 0, a mean square over n Gaussian samples has
    # relative standard error sqrt(2/n); a ratio of two adds the squares,
    # and the two sources' ratios must agree to four standard errors of
    # their difference.  The ratios are about 2, 1, 1 and 1.
    N, modes, starts = 2, 2, 2000
    problem = ProblemSpec(s=0.75, m=1.0, gamma=0.0, lam=0.1, T=2.0 * math.pi, N=N)
    n = 2 * modes + 1
    noise = np.random.default_rng(12).standard_normal((n, starts, n))
    want = second_moments(spectral._hermitian_half(noise, problem, modes), modes)
    got = second_moments(constants._gaussian_starts(N, modes, 12, starts), modes)
    for name, (ratio, size, base) in got.items():
        error = ratio * math.sqrt(2.0 * (2.0 / size + 2.0 / base))
        assert abs(ratio - want[name][0]) <= 4.0 * error, name


@pytest.mark.parametrize("s, N, modes", [(0.75, 2, 8), (0.75, 2, 0),
                                         (0.6, 2, 8), (0.9, 3, 6), (0.9, 3, 5)])
def test_sigma_spread_over_seeds_is_at_roundoff(s, N, modes):
    # whichever coarse start wins, the finish lands on the same maximum
    problem = ProblemSpec(s=s, m=1.0, gamma=0.5, lam=0.1, T=2.0 * math.pi, N=N)
    values = [sigma_estimate(4.0, problem, SpectrumParams(modes, 2 * modes + 2),
                             seed=seed).value for seed in range(40)]
    assert max(values) - min(values) <= 1e-13 * max(values)


def test_constants_loads_no_scipy():
    # the nested ascent and its finish are numpy only
    code = ("import math, sys\n"
            "from perifrac import constants\n"
            "from perifrac.spectral import ProblemSpec\n"
            "p = ProblemSpec(s=0.75, m=1.0, gamma=0.5, lam=0.1, "
            "T=2 * math.pi, N=2)\n"
            "constants.rayleigh_ascent(p, 4.0, 4, starts=2)\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    src = str(pathlib.Path(constants.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert proc.stdout.split() == ["[]"]


@pytest.mark.parametrize("N, s, modes, seed", [(2, 0.6, 8, 29), (3, 0.9, 5, 17)])
def test_finish_is_not_stalled_by_a_failed_coarse_line_search(N, s, modes, seed):
    # at these seeds the best coarse start ends its climb on 40 rejected
    # halvings; the finish used to inherit the collapsed step (about
    # 3e-12) and stop near the coarse value, 3.8% and 7.7% short
    problem = ProblemSpec(s=s, m=1.0, gamma=0.5, lam=0.1, T=2.0 * math.pi, N=N)
    ratio, _, _ = rayleigh_ascent(problem, 4.0, modes, seed=seed)
    for other in range(10):
        want, _, _ = rayleigh_ascent(problem, 4.0, modes, seed=other)
        assert abs(ratio - want) <= 1e-10 * want


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


@pytest.mark.parametrize("T, shown", [(1e-100, "inf"), (1e100, "0.0")])
def test_sigma_estimate_refuses_a_sigma_beyond_the_float_range(T, shown):
    # |u|_{L^4} overflows at T = 1e-100 and underflows at T = 1e100; the
    # ascent returns what it got, without a warning, and sigma_estimate
    # refuses it and caches nothing
    problem = ProblemSpec(s=0.75, m=1.0, gamma=0.5, lam=0.1, T=T, N=2)
    before = dict(constants._SIGMA_CACHE)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ratio, _, _ = rayleigh_ascent(problem, 4.0, modes=8, starts=2)
        with pytest.raises(ValueError, match=(
                f"^sigma_4 = {shown} is not a finite positive double$")):
            sigma_estimate(4.0, problem, SpectrumParams(8, 18), starts=2)
    assert not 0.0 < ratio < math.inf
    assert constants._SIGMA_CACHE == before


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
               lambda r: ball_radius(r, PROBLEM)):
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
    # the closed form lands inside the bracketing grid cell
    assert grid[i - 1] <= rho_star <= grid[i + 1]


@pytest.mark.parametrize("key, sigma_q", [("cubic_plus_one", SIGMAS[1]),
                                          ("odd_power(5)", 0.4)])
def test_best_rho_is_the_critical_point(key, sigma_q):
    # root of d lambda_max / d rho, with lambda_max transcribed in mpmath
    nl = get_nonlinearity(key)
    s1 = mpmath.mpf(SIGMAS[0])
    sq = mpmath.mpf(sigma_q)
    g = mpmath.mpf(PROBLEM.gamma_fraction)
    q = mpmath.mpf(nl.q)
    k = mpmath.mpf(kappa_oracle(PROBLEM.s))

    def lam(rho):
        return (q * mpmath.sqrt(rho) * (1 - g) ** (q / 2)
                / (2 * k * (nl.a1 * s1 * q * (1 - g) ** ((q - 1) / 2)
                            + nl.a2 * sq ** q * rho ** ((q - 1) / 2))))

    # bisection, which needs only the sign of the derivative; the default
    # verification asks for |f| below a tolerance that numerical
    # differentiation does not reach
    root = mpmath.findroot(lambda rho: mpmath.diff(lam, rho),
                           (mpmath.mpf("1e-3"), mpmath.mpf("1e4")),
                           solver="bisect", maxsteps=200, verify=False)
    rho_star, lam_star = best_lambda(PROBLEM, nl, (SIGMAS[0], sigma_q))
    assert abs(rho_star - root) < 1e-14 * root
    assert abs(lam_star - lam(root)) < 1e-14 * lam(root)


def test_each_maximization_evaluates_its_profile_once(monkeypatch):
    calls = []
    real = constants.lambda_max

    def counted(*args):
        calls.append("lambda_max")
        return real(*args)

    monkeypatch.setattr(constants, "lambda_max", counted)
    best_lambda(PROBLEM, NL, SIGMAS)
    assert calls == ["lambda_max"]


def paper_h(rho, sigmas, problem):
    """The paper's quartic-case (q=4, a1=a2=1) admissibility profile
    h(rho) = sqrt(rho) / (4 sigma_1 (1-g)^{3/2} + sigma_4^4 rho^{3/2})."""
    s1, s4 = sigmas
    g = problem.gamma_fraction
    return math.sqrt(rho) / (4.0 * s1 * (1.0 - g) ** 1.5 + s4 ** 4 * rho ** 1.5)


def test_example_interval_coincides_with_lambda_max_sweep():
    # the paper's interval for the quartic, (0, (2/kappa)(1-g)^2 max h),
    # is (0, best_lambda's maximum): h peaks where
    # sigma_4^4 rho^{3/2} = 2 sigma_1 (1-g)^{3/2}
    rho_star, lam_star = best_lambda(PROBLEM, NL, SIGMAS)
    s1, s4 = SIGMAS
    g = PROBLEM.gamma_fraction
    k = kappa_oracle(PROBLEM.s)
    rho_h = (2.0 * s1 * (1.0 - g) ** 1.5 / s4 ** 4) ** (2.0 / 3.0)
    assert abs(rho_star - rho_h) < 1e-14 * rho_h
    upper = (2.0 / k) * (1.0 - g) ** 2 * paper_h(rho_star, SIGMAS, PROBLEM)
    assert abs(lam_star - upper) < 1e-14 * upper
    for rho in rho_h * np.array([0.5, 0.9, 0.999, 1.001, 1.1, 2.0]):
        assert paper_h(rho, SIGMAS, PROBLEM) < paper_h(rho_h, SIGMAS, PROBLEM)


def test_subnormal_growth_constant_has_no_best_rho():
    # a2 sigma_4^4 underflows to 0, so the critical point is not a double
    nl = get_nonlinearity("cubic_plus_one", a2=5e-324)
    with pytest.raises(ValueError, match="no finite maximizing rho"):
        best_lambda(PROBLEM, nl, SIGMAS)


def test_lambda_table_rows_are_self_contained():
    rhos = [0.5, 1.0, 2.0]
    rows = lambda_table(rhos, PROBLEM, NL, SIGMAS)
    assert [row["rho"] for row in rows] == rhos
    for row in rows:
        assert row["lambda_max"] == lambda_max(row["rho"], PROBLEM, NL, SIGMAS)
        assert row["ball_radius"] == ball_radius(row["rho"], PROBLEM)


def test_certify_gate_is_strict():
    # lambda = lambda_max(rho) itself is refused, as is the next double up;
    # the next double down is certified
    lam_max = lambda_max(1.0, PROBLEM, NL, SIGMAS)
    for lam in (lam_max, math.nextafter(lam_max, math.inf)):
        with pytest.raises(InadmissibleLambdaError,
                           match="certificate refused") as exc_info:
            certify(1.0, replace(PROBLEM, lam=lam), NL, SIGMAS)
        err = exc_info.value
        assert (err.lam, err.lam_max, err.rho) == (lam, lam_max, 1.0)
    below = math.nextafter(lam_max, 0.0)
    cert = certify(1.0, replace(PROBLEM, lam=below), NL, SIGMAS)
    assert cert == {
        "rho": 1.0, "lambda": below, "lambda_max_at_rho": lam_max,
        "chi_upper": chi_upper(1.0, PROBLEM, NL, SIGMAS),
        "inv_two_lambda": 1.0 / (2.0 * below), "sigma1": SIGMAS[0],
        "sigmaq": SIGMAS[1], "ball_radius_hs": ball_radius(1.0, PROBLEM)}


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


BENCH_GOLDEN = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / \
    "golden_sigmas.txt"


@pytest.mark.parametrize("path, s, N, modes", [
    (None, 0.75, 2, 8), (None, 0.75, 2, 0), (None, 0.6, 2, 8),
    (BENCH_GOLDEN, 0.9, 3, 6)],
    ids=["N2-s0.75-M8", "N2-s0.75-M0", "N2-s0.6-M8", "N3-s0.9-M6"])
def test_nested_ascent_reproduces_the_golden_values(path, s, N, modes):
    # the shipped values came from single-level ascents with 24 and 48
    # starts; the 16-start nested ascent must stay within the certification
    # tolerance at every seed of the range, and land on the same maximum to
    # 1e-10, whichever start wins and however coarsely the starts climbed
    problem = ProblemSpec(s=s, m=1.0, gamma=0.5, lam=0.1, T=2.0 * math.pi, N=N)
    want = load_golden(path)[golden_key(4.0, problem, modes)]
    for seed in range(40):
        got = sigma_estimate(4.0, problem, SpectrumParams(modes, 2 * modes + 2),
                             seed=seed).value
        assert abs(got - want) <= GOLDEN_REL_TOL * want
        assert abs(got - want) <= 1e-10 * want
