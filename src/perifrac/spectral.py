"""Truncated Fourier representation of real T-periodic fields on (0, T)^N.

A field u is stored through its complex Fourier coefficients c_k on the
symmetric mode cube max_i |k_i| <= M, with the convention

    u(x) = sum_k c_k exp(i omega k.x) / sqrt(T^N),    omega = 2 pi / T,

so c_k = T^(-N/2) * int u(x) exp(-i omega k.x) dx.  Real fields carry the
Hermitian symmetry c_{-k} = conj(c_k).  forward_transform is the one place
that imposes it; every other operation (real even multipliers, real scalars,
sums) preserves it bit for bit, and inverse_transform refuses coefficients
that lost it.

The pseudodifferential operator acts diagonally: mode k is multiplied by
mu_k^s with mu_k = omega^2 |k|^2 + m^2, which gives the norm family

    |u|_{Hs}^2   = sum mu_k^s |c_k|^2          (fractional Sobolev norm)
    |u|_{L2}^2   = sum |c_k|^2                 (Parseval)
    |g|_{dual}^2 = sum |g_k|^2 / mu_k^s        (dual norm)
    ||u||_e^2    = kappa(s) (|u|_{Hs}^2 - gamma |u|_{L2}^2)

Everything here is pure value semantics with no shared mutable state.
This is the only module that knows an FFT layout: the transform pair runs
numpy's real FFTs (pocketfft, bitwise deterministic for a fixed input and
thread count), whose half spectrum keeps k_N >= 0 and stores mode k_i at
index k_i mod n on the leading axes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .extension import kappa

__all__ = [
    "ProblemSpec",
    "SpectrumParams",
    "FourierField",
    "SymmetryError",
    "grid_coordinates",
    "multiplier",
    "multiplier_array",
    "forward_transform",
    "inverse_transform",
    "apply_fractional_op",
    "hs_norm",
    "l2_norm",
    "lr_norm",
    "dual_norm",
    "bilinear_form",
    "e_norm",
    "pairing",
    "hs_distance",
    "mean_value",
]


class SymmetryError(ValueError):
    """Coefficients lost Hermitian symmetry: the field is corrupted."""


@dataclass(frozen=True)
class ProblemSpec:
    """Scalar data of one problem instance.

    s, m fix the operator (-Delta + m^2)^s, gamma the zero-order shift,
    lam the forcing scale, and (T, N) the torus (0, T)^N.
    """

    s: float
    m: float
    gamma: float
    lam: float
    T: float
    N: int

    def __post_init__(self):
        if not 0.0 < self.s < 1.0:
            raise ValueError(f"s={self.s} outside (0, 1)")
        if self.m <= 0.0:
            raise ValueError(f"m={self.m} must be positive")
        m2s = self.m ** (2.0 * self.s)
        if not 0.0 <= self.gamma < m2s:
            raise ValueError(
                f"gamma={self.gamma} violates 0 <= gamma < m^(2s) = {m2s}"
            )
        if self.lam <= 0.0:
            raise ValueError(f"lambda={self.lam} must be positive")
        if self.T <= 0.0:
            raise ValueError(f"T={self.T} must be positive")
        if not isinstance(self.N, int) or not 1 <= self.N <= 3:
            raise ValueError(f"N={self.N} must be an integer in 1..3")
        if self.N <= 2.0 * self.s:
            raise ValueError(
                f"N={self.N}, s={self.s}: need N > 2s for a finite critical exponent"
            )

    @property
    def omega(self) -> float:
        return 2.0 * math.pi / self.T

    @property
    def critical_exponent(self) -> float:
        """Upper limit 2N/(N-2s) for admissible growth exponents q."""
        return 2.0 * self.N / (self.N - 2.0 * self.s)

    @property
    def gamma_fraction(self) -> float:
        """gamma / m^(2s), the spectral-gap fraction in (0, 1)."""
        return self.gamma / self.m ** (2.0 * self.s)


@dataclass(frozen=True)
class SpectrumParams:
    """Mode cutoff and collocation grid size (per dimension)."""

    modes: int
    grid_points: int

    def __post_init__(self):
        if not isinstance(self.modes, int) or self.modes < 0:
            raise ValueError(f"modes={self.modes} must be an integer >= 0")
        if not isinstance(self.grid_points, int) or self.grid_points < 2 * self.modes + 1:
            raise ValueError(
                f"grid_points={self.grid_points} must be an integer >= 2*modes+1"
            )


@dataclass(eq=False)
class FourierField:
    """Coefficients c_k on the cube |k_i| <= M, axis index i <-> k_i = i - M."""

    coeffs: np.ndarray
    problem: ProblemSpec
    params: SpectrumParams

    def __post_init__(self):
        M, N = self.params.modes, self.problem.N
        expect = (2 * M + 1,) * N
        self.coeffs = np.asarray(self.coeffs, dtype=complex)
        if self.coeffs.shape != expect:
            raise ValueError(f"coefficient shape {self.coeffs.shape} != {expect}")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zeros(cls, problem: ProblemSpec, params: SpectrumParams) -> "FourierField":
        shape = (2 * params.modes + 1,) * problem.N
        return cls(np.zeros(shape, dtype=complex), problem, params)

    @classmethod
    def constant(cls, problem: ProblemSpec, params: SpectrumParams, value: float) -> "FourierField":
        u = cls.zeros(problem, params)
        center = (params.modes,) * problem.N
        u.coeffs[center] = value * problem.T ** (problem.N / 2.0)
        return u

    @classmethod
    def from_modes(cls, problem: ProblemSpec, params: SpectrumParams, amplitudes: dict) -> "FourierField":
        """Build a real field from {k: c_k}; the conjugate at -k is implied."""
        u = cls.zeros(problem, params)
        M = params.modes
        for k, amp in amplitudes.items():
            k = tuple(int(ki) for ki in np.atleast_1d(k))
            if len(k) != problem.N or any(abs(ki) > M for ki in k):
                raise ValueError(f"mode {k} outside the retained cube")
            idx = tuple(M + ki for ki in k)
            neg = tuple(M - ki for ki in k)
            u.coeffs[idx] = amp
            u.coeffs[neg] = np.conj(amp)
        if abs(u.hermitian_defect()) > 1e-12 * (1.0 + np.abs(u.coeffs).max()):
            raise SymmetryError("amplitudes are not Hermitian-consistent")
        return u

    # -- light vector arithmetic (solvers treat fields as vectors) --------

    def copy(self) -> "FourierField":
        return FourierField(self.coeffs.copy(), self.problem, self.params)

    def _check_compatible(self, other: "FourierField"):
        if self.problem != other.problem or self.params != other.params:
            raise ValueError("fields belong to different problems/discretizations")

    def __add__(self, other: "FourierField") -> "FourierField":
        self._check_compatible(other)
        return FourierField(self.coeffs + other.coeffs, self.problem, self.params)

    def __sub__(self, other: "FourierField") -> "FourierField":
        self._check_compatible(other)
        return FourierField(self.coeffs - other.coeffs, self.problem, self.params)

    def __mul__(self, scalar) -> "FourierField":
        if not np.isscalar(scalar):
            raise TypeError("fields only scale by scalars")
        return FourierField(self.coeffs * scalar, self.problem, self.params)

    __rmul__ = __mul__

    def __neg__(self) -> "FourierField":
        return FourierField(-self.coeffs, self.problem, self.params)

    # -- symmetry ----------------------------------------------------------

    def hermitian_defect(self) -> float:
        flipped = np.conj(np.flip(self.coeffs))
        return float(np.abs(self.coeffs - flipped).max())

    def symmetrized(self) -> "FourierField":
        sym = 0.5 * (self.coeffs + np.conj(np.flip(self.coeffs)))
        return FourierField(sym, self.problem, self.params)


# -- grids and transforms ---------------------------------------------------


def grid_coordinates(problem: ProblemSpec, grid_points: int):
    """Uniform periodic grid x_j = j T/n as a meshgrid tuple (indexing='ij')."""
    axis = np.arange(grid_points) * (problem.T / grid_points)
    return tuple(np.meshgrid(*([axis] * problem.N), indexing="ij"))


def multiplier(k, problem: ProblemSpec) -> float:
    """Symbol value mu_k^s = (omega^2 |k|^2 + m^2)^s at one multi-index."""
    k = np.asarray(k, dtype=float)
    if k.shape != (problem.N,):
        raise ValueError(f"mode index must have length N={problem.N}")
    mu = problem.omega ** 2 * float(k @ k) + problem.m ** 2
    return mu ** problem.s


@lru_cache(maxsize=64)
def multiplier_array(problem: ProblemSpec, params: SpectrumParams) -> np.ndarray:
    """mu_k^s over the retained cube; cached, returned read-only."""
    M = params.modes
    axis = np.arange(-M, M + 1, dtype=float)
    grids = np.meshgrid(*([axis] * problem.N), indexing="ij")
    ksq = sum(g * g for g in grids)
    out = (problem.omega ** 2 * ksq + problem.m ** 2) ** problem.s
    out.setflags(write=False)
    return out


def _half_index(n: int, M: int, N: int):
    """Positions of the k_N >= 0 half of the mode cube in the rfftn layout
    of an n^N grid: k % n on the leading axes, 0..M on the last one."""
    lead = np.arange(-M, M + 1) % n
    return np.ix_(*([lead] * (N - 1)), np.arange(M + 1))


def forward_transform(samples: np.ndarray, problem: ProblemSpec, params: SpectrumParams) -> FourierField:
    """Coefficients of real samples on the n^N grid, truncated to |k_i| <= M.

    Exact (to roundoff) for trigonometric polynomials of degree <= M per
    dimension whenever n >= 2M+1.  The k_N < 0 half is filled by
    conjugation, so the result is exactly Hermitian.
    """
    n, M, N = params.grid_points, params.modes, problem.N
    samples = np.asarray(samples, dtype=float)
    if samples.shape != (n,) * N:
        raise ValueError(f"sample shape {samples.shape} != {(n,) * N}")
    coeffs = np.empty((2 * M + 1,) * N, dtype=complex)
    coeffs[..., M:] = np.fft.rfftn(samples)[_half_index(n, M, N)]
    coeffs[..., :M] = np.conj(np.flip(coeffs[..., M + 1:]))
    coeffs *= problem.T ** (N / 2.0) / n ** N
    return FourierField(coeffs, problem, params).symmetrized()


def inverse_transform(field: FourierField, grid_points: int | None = None) -> np.ndarray:
    """Real samples of the field on an n^N grid (default: params.grid_points).

    Only the k_N >= 0 half is read, so coefficients that are not Hermitian
    raise SymmetryError instead of silently giving a different field.
    """
    problem, params = field.problem, field.params
    n = params.grid_points if grid_points is None else int(grid_points)
    M, N = params.modes, problem.N
    if n < 2 * M + 1:
        raise ValueError(f"grid_points={n} < 2*modes+1 = {2 * M + 1}")
    scale = 1.0 + float(np.abs(field.coeffs).max())
    if field.hermitian_defect() > 1e-8 * scale:
        raise SymmetryError(
            f"Hermitian defect {field.hermitian_defect():.3e} exceeds tolerance"
        )
    half = np.zeros((n,) * (N - 1) + (n // 2 + 1,), dtype=complex)
    half[_half_index(n, M, N)] = field.coeffs[..., M:]
    u = np.fft.irfftn(half, s=(n,) * N, axes=tuple(range(N)))
    return u * (n ** N / problem.T ** (N / 2.0))


def apply_fractional_op(field: FourierField) -> FourierField:
    """Apply (-Delta + m^2)^s: multiply mode k by mu_k^s."""
    mu_s = multiplier_array(field.problem, field.params)
    return FourierField(field.coeffs * mu_s, field.problem, field.params)


# -- norms and pairings ------------------------------------------------------


def hs_norm(field: FourierField) -> float:
    mu_s = multiplier_array(field.problem, field.params)
    return math.sqrt(float(np.sum(mu_s * np.abs(field.coeffs) ** 2)))


def l2_norm(field: FourierField) -> float:
    return math.sqrt(float(np.sum(np.abs(field.coeffs) ** 2)))


def lr_norm(field: FourierField, r: float) -> float:
    """L^r norm by the uniform rectangle rule on the collocation grid.

    Spectrally accurate for smooth periodic integrands; exact when |u|^r
    is a trigonometric polynomial resolved by the grid.
    """
    if r < 1.0:
        raise ValueError(f"r={r} must be >= 1")
    problem, n = field.problem, field.params.grid_points
    samples = inverse_transform(field)
    cell = (problem.T / n) ** problem.N
    return float((cell * np.sum(np.abs(samples) ** r)) ** (1.0 / r))


def dual_norm(field: FourierField) -> float:
    """Norm of Sum g_k e_k as a functional against the Hs norm."""
    mu_s = multiplier_array(field.problem, field.params)
    return math.sqrt(float(np.sum(np.abs(field.coeffs) ** 2 / mu_s)))


def bilinear_form(u: FourierField, v: FourierField) -> float:
    """Q(u, v) = sum mu_k^s c_k conj(d_k); the Hs inner product (real part)."""
    u._check_compatible(v)
    mu_s = multiplier_array(u.problem, u.params)
    return float(np.real(np.sum(mu_s * u.coeffs * np.conj(v.coeffs))))


def pairing(g: FourierField, u: FourierField) -> float:
    """Duality pairing <g, u> = Re sum g_k conj(c_k) (the L2 mode pairing)."""
    g._check_compatible(u)
    return float(np.real(np.sum(g.coeffs * np.conj(u.coeffs))))


def e_norm(field: FourierField) -> float:
    """Shifted energy norm ||u||_e = sqrt(kappa(s) (|u|_Hs^2 - gamma |u|_L2^2)).

    Nonnegative for gamma < m^(2s); tiny negative roundoff is clipped.
    """
    pr = field.problem
    val = kappa(pr.s) * (hs_norm(field) ** 2 - pr.gamma * l2_norm(field) ** 2)
    return math.sqrt(max(val, 0.0))


def hs_distance(u: FourierField, v: FourierField) -> float:
    return hs_norm(u - v)


def mean_value(field: FourierField) -> float:
    """Average of the field over the torus, c_0 / sqrt(T^N)."""
    center = (field.params.modes,) * field.problem.N
    c0 = field.coeffs[center]
    return float(c0.real) / field.problem.T ** (field.problem.N / 2.0)
