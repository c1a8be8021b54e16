"""Truncated Fourier representation of real T-periodic fields on (0, T)^N.

A field u is stored through its complex Fourier coefficients c_k on the
symmetric mode cube max_i |k_i| <= M, with the convention

    u(x) = sum_k c_k exp(i omega k.x) / sqrt(T^N),    omega = 2 pi / T,

so c_k = T^(-N/2) * int u(x) exp(-i omega k.x) dx.  Real fields carry the
Hermitian symmetry c_{-k} = conj(c_k).  _hermitian_half, under
forward_transform, the sigma ascent and the Newton matvec, is the one place
that imposes it; every other operation (real even multipliers, real
scalars, sums) preserves it bit for bit, and inverse_transform refuses
coefficients that lost it.

The pseudodifferential operator acts diagonally: mode k is multiplied by
mu_k^s with mu_k = omega^2 |k|^2 + m^2, which gives the norm family

    |u|_{Hs}^2   = sum mu_k^s |c_k|^2          (fractional Sobolev norm)
    |u|_{L2}^2   = sum |c_k|^2                 (Parseval)
    |g|_{dual}^2 = sum |g_k|^2 / mu_k^s        (dual norm)
    ||u||_e^2    = kappa(s) (|u|_{Hs}^2 - gamma |u|_{L2}^2)

A field is a trigonometric polynomial of degree M per axis: its samples
on any n^N grid, n >= 1, are exact point values, and only recovering
coefficients needs n >= 2M+1, which forward_transform checks on the grid
it reads from its samples.  params.grid_points is only inverse_transform's
default grid, also the --dump-fields grid; no coefficient depends on it.

Everything here is pure value semantics with no shared mutable state.
This is the only module that knows the layout of a discrete Fourier
transform.  The pair is one pruned kernel per direction, _hermitian_half
(samples to coefficients) and _half_to_samples (back), on the k_N >= 0
half of the mode cube as a raw (2M+1)^(N-1) x (M+1) array, mode k_i at
index k_i + M on the leading axes and k_N at index k_N on the last.  They
compute only the kept modes, as products with DFT matrices restricted to
them (a pruned DFT): of the 25 x 25 x 13 half spectrum of a 25^3 grid at
M = 6 they keep 13 x 13 x 7 entries, and a product with the 13 x 25
matrix of an axis costs less than an FFT of all 25 lines.  The matrices
are built once per (M, n) from one table of n-th roots of unity, cached
and read-only.  Scaled by T^(N/2) / n^N and its inverse, numpy's rfftn /
irfftn agree with the kernels to roundoff; the same input gives the same
bits.

The kernels also take a stack of fields: axes between a field's leading
axes and its last one index the stack, so a (2M+1)^(N-1) x S x (M+1)
array holds S half cubes and an n^(N-1) x S x n array their samples.
There the stack only widens each matrix product; no axis is moved and
nothing is copied, and without a stack axis the kernels run one field's
products, bit for bit.  Optional flat float
buffers (`out`, `work`) take the kernels' largest arrays, so a caller
that transforms stacks in a loop can reuse its memory instead of
allocating fresh arrays of the stack's size on every call.

Two hot loops work on such raw half cubes instead of a FourierField: the
sigma ascent (constants.rayleigh_ascent), which keeps the stack of its
starts there, and the Jacobian matvec of the Newton polish
(solvers._jacobian_operators), which samples a mode cube's half,
multiplies by f'(u) and transforms back, unstacked.  Both use only the
half-cube helpers here: the two kernels, _half_multiplier and _half_dot
(mu^s and the H^s products of a stack) and _full_cube (half to
FourierField coefficients).  A half cube stands for the field
_full_cube(half); its samples are that field's only while the k_N = 0
plane is exactly Hermitian, which _hermitian_half makes it and the
operations above keep it.
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
    "multiplier_array",
    "forward_transform",
    "inverse_transform",
    "apply_fractional_op",
    "hs_norm",
    "l2_norm",
    "dual_norm",
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
            raise ValueError(f"s = {self.s!r} violates 0 < s < 1")
        if self.m <= 0.0:
            raise ValueError(f"m = {self.m!r} violates m > 0")
        if self.T <= 0.0:
            raise ValueError(f"T = {self.T!r} violates T > 0")
        if not isinstance(self.N, int) or not 1 <= self.N <= 3:
            raise ValueError(f"N = {self.N!r} must be an integer in 1..3")
        # the scales of the problem must be finite, positive doubles; m^(2s)
        # lies between 1 and m^2, so it is one when m^2 is
        for name, base, power in (("m^2", self.m, 2.0),
                                  ("omega^2", self.omega, 2.0),
                                  ("T^N", self.T, self.N)):
            try:
                value = base ** power
            except OverflowError:
                value = math.inf
            if not 0.0 < value < math.inf:
                raise ValueError(
                    f"{name} = {value!r} is not a finite positive double "
                    f"(m = {self.m!r}, s = {self.s!r}, T = {self.T!r}, "
                    f"N = {self.N!r})")
        m2s = self.m ** (2.0 * self.s)
        if not 0.0 <= self.gamma < m2s:
            raise ValueError(
                f"gamma = {self.gamma!r} violates 0 <= gamma < m^(2s) = {m2s!r}"
            )
        if self.lam <= 0.0:
            raise ValueError(f"lambda = {self.lam!r} violates lambda > 0")
        if self.N <= 2.0 * self.s:
            raise ValueError(f"N = {self.N!r}, s = {self.s!r} violates N > 2s "
                             f"(the critical exponent must be finite)")

    @property
    def omega(self) -> float:
        return 2.0 * math.pi / self.T

    @property
    def critical_exponent(self) -> float:
        """Upper limit 2N/(N-2s) for admissible growth exponents q."""
        return 2.0 * self.N / (self.N - 2.0 * self.s)

    @property
    def gamma_fraction(self) -> float:
        """gamma / m^(2s), the spectral-gap fraction in [0, 1)."""
        return self.gamma / self.m ** (2.0 * self.s)


@dataclass(frozen=True)
class SpectrumParams:
    """Mode cutoff M and the default sampling grid n of inverse_transform
    (per dimension); any n >= 1 samples a field exactly."""

    modes: int
    grid_points: int

    def __post_init__(self):
        if not isinstance(self.modes, int) or self.modes < 0:
            raise ValueError(f"M = {self.modes!r} must be an integer >= 0")
        if not isinstance(self.grid_points, int) or self.grid_points < 1:
            raise ValueError(f"grid_points = {self.grid_points!r} must be an "
                             "integer >= 1")


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
            if not any(k):
                # c_0 is its own conjugate partner: it must be real
                if abs(np.imag(amp)) > 1e-12 * (1.0 + abs(amp)):
                    raise SymmetryError("the k = 0 amplitude must be real")
                amp = np.real(amp)
            idx = tuple(M + ki for ki in k)
            neg = tuple(M - ki for ki in k)
            u.coeffs[idx] = amp
            u.coeffs[neg] = np.conj(amp)
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
        """max |c_k - conj(c_{-k})|, checking each conjugate pair once: every
        pair (k, -k) has one member with k_N <= 0."""
        c, M = self.coeffs, self.params.modes
        return float(np.abs(c[..., :M + 1] - np.conj(np.flip(c[..., M:]))).max())


# -- grids and transforms ---------------------------------------------------


@lru_cache(maxsize=64)
def grid_coordinates(problem: ProblemSpec, grid_points: int):
    """Uniform periodic grid x_j = j T/n as a meshgrid tuple (indexing='ij');
    cached, returned read-only."""
    axis = np.arange(grid_points) * (problem.T / grid_points)
    grids = tuple(np.meshgrid(*([axis] * problem.N), indexing="ij"))
    for g in grids:
        g.setflags(write=False)
    return grids


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


def _unit_roots(n: int) -> np.ndarray:
    """exp(-2 pi i m / n) for m = 0, ..., n-1: every entry of a length-n
    DFT matrix, looked up at m = (j k) % n."""
    angle = 2.0 * np.pi * np.arange(n) / n
    return np.cos(angle) - 1j * np.sin(angle)


@lru_cache(maxsize=64)
def _last_axis_dft(M: int, n: int):
    """(A, w) for the last axis; cached, returned read-only.

    A is the real n x 2(M+1) matrix whose column pair (2k, 2k+1) holds
    cos and -sin of 2 pi j k / n, so x @ A viewed as complex is rfft's
    columns k = 0..M.  Its transpose is the inverse: weighting columns
    k > 0 by w_k = 2/n and k = 0 by 1/n gives irfft of a spectrum that
    is zero beyond column M, and the zero column -sin(0) drops the
    imaginary part at k = 0, as irfft does."""
    roots = _unit_roots(n)[np.outer(np.arange(n), np.arange(M + 1)) % n]
    A = np.empty((n, 2 * M + 2))
    A[:, 0::2] = roots.real
    A[:, 1::2] = roots.imag
    w = np.where(np.arange(M + 1) > 0, 2.0, 1.0) / n
    A.setflags(write=False)
    w.setflags(write=False)
    return A, w


@lru_cache(maxsize=64)
def _leading_axis_dft(M: int, n: int):
    """(F, G) for a leading axis; cached, returned read-only.  F is the
    (2M+1) x n forward DFT matrix exp(-2 pi i k j / n) on the cube rows
    k = -M..M, G = conj(F).T / n the n x (2M+1) inverse, scaled as ifft."""
    F = _unit_roots(n)[np.outer(np.arange(-M, M + 1), np.arange(n)) % n]
    G = np.conj(F.T) / n
    F.setflags(write=False)
    G.setflags(write=False)
    return F, G


def _view(buffer: np.ndarray | None, shape: tuple, dtype) -> np.ndarray | None:
    """The first entries of a flat float buffer as an array of this shape
    and dtype; None without a buffer, for numpy's `out` to allocate."""
    if buffer is None:
        return None
    size = math.prod(shape) * np.dtype(dtype).itemsize // 8
    return buffer[:size].view(dtype).reshape(shape)


def _along(matrix: np.ndarray, x: np.ndarray, axis: int,
           out: np.ndarray | None = None) -> np.ndarray:
    """matrix @ x along one axis: x reshaped to (prefix, axis, rest); the
    complex product goes to the flat float buffer `out` when one is
    given."""
    shape = x.shape
    x = x.reshape(math.prod(shape[:axis]), shape[axis], -1)
    out = _view(out, (x.shape[0], matrix.shape[0], x.shape[2]), complex)
    product = np.matmul(matrix, x, out=out)
    return product.reshape(shape[:axis] + (matrix.shape[0],) + shape[axis + 1:])


def _hermitian_half(samples: np.ndarray, problem: ProblemSpec, M: int,
                    work: np.ndarray | None = None) -> np.ndarray:
    """The k_N >= 0 half of forward_transform's coefficients, mode k_i at
    index k_i + M on the leading axes, with the k_N = 0 plane made exactly
    Hermitian.

    The field's leading axes are the first N - 1 axes of `samples` and its
    last axis is the last one; any axes between them index a stack of
    fields.  The last axis is one real product with _last_axis_dft's
    matrix, each leading axis one product with _leading_axis_dft's forward
    matrix, so only the kept modes are ever computed, and a stack only
    widens each product.  The first product goes to the flat float buffer
    `work` when one is given; for N = 1 the result is then a view of it.
    Off the k_N = 0 plane the partners of the half live in the k_N < 0
    half, which _full_cube fills by conjugation; in the plane the
    transform's pairs agree only to roundoff, so they are averaged."""
    n, N = samples.shape[-1], problem.N
    A, _ = _last_axis_dft(M, n)
    rows = samples.reshape(-1, n)
    half = np.matmul(rows, A, out=_view(work, (len(rows), 2 * M + 2), float))
    half = half.view(complex).reshape(samples.shape[:-1] + (M + 1,))
    if N > 1:
        F, _ = _leading_axis_dft(M, n)
        for axis in reversed(range(N - 1)):
            half = _along(F, half, axis)
    half *= problem.T ** (N / 2.0) / n ** N
    plane = half[..., 0]
    mirror = plane[(slice(None, None, -1),) * (N - 1)]
    half[..., 0] = 0.5 * (plane + np.conj(mirror))
    return half


def _half_to_samples(half: np.ndarray, problem: ProblemSpec, n: int,
                     out: np.ndarray | None = None,
                     work: np.ndarray | None = None) -> np.ndarray:
    """Real samples on the n^N grid of the field whose k_N >= 0 half is
    `half` (laid out as _hermitian_half returns it, stack axes included);
    the inverse of _hermitian_half, with no symmetry check.

    The weights of the last axis go on first, then each leading axis is one
    product with _leading_axis_dft's inverse matrix and the last axis one
    real product with the transpose of _last_axis_dft's matrix.  The last
    leading-axis product goes to the flat float buffer `work` and the
    samples to `out`, when these are given."""
    M, N = half.shape[-1] - 1, problem.N
    A, w = _last_axis_dft(M, n)
    x = half * w
    if N > 1:
        _, G = _leading_axis_dft(M, n)
        for axis in range(N - 1):
            x = _along(G, x, axis, work if axis == N - 2 else None)
    rows = x.reshape(-1, M + 1).view(float)
    u = np.matmul(rows, A.T, out=_view(out, (len(rows), n), float))
    u = u.reshape(x.shape[:-1] + (n,))
    u *= n ** N / problem.T ** (N / 2.0)
    return u


def _half_multiplier(problem: ProblemSpec, params: SpectrumParams) -> np.ndarray:
    """mu_k^s on the k_N >= 0 half cube."""
    return multiplier_array(problem, params)[..., params.modes:]


def _half_dot(problem: ProblemSpec, params: SpectrumParams):
    """The H^s inner products Re sum mu_k^s conj(a_k) b_k of the fields
    _full_cube(a) and _full_cube(b), as a function of the stacks of half
    cubes a, b (laid out as _hermitian_half's stacks, one stack axis): one
    product per field.

    An entry off the k_N = 0 plane also stands for its conjugate partner,
    so its weight is doubled; the plane holds both members of its pairs.
    Re conj(a_k) b_k is summed as the product of the real views of a and
    b, which take each entry's real and imaginary parts in turn; the
    weights of those views are dot.weight."""
    M, N = params.modes, problem.N
    weight = np.where(np.arange(M + 1) > 0, 2.0, 1.0) * _half_multiplier(problem, params)
    weight = np.repeat(weight, 2, axis=-1)[..., None, :]
    field = "ij"[:N - 1]    # the leading axes; s the stack, k the last axis
    rule = f"{field}sk,{field}sk,{field}sk->s"

    def dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return np.einsum(rule, a.view(float), weight, b.view(float))

    dot.weight = weight
    return dot


def _full_cube(half: np.ndarray) -> np.ndarray:
    """The mode cube whose k_N >= 0 half is `half`, the rest by conjugation."""
    M = half.shape[-1] - 1
    coeffs = np.empty(half.shape[:-1] + (2 * M + 1,), dtype=complex)
    coeffs[..., M:] = half
    coeffs[..., :M] = np.conj(np.flip(half[..., 1:]))
    return coeffs


def forward_transform(samples: np.ndarray, problem: ProblemSpec, params: SpectrumParams) -> FourierField:
    """Coefficients of real samples on an n^N grid, truncated to |k_i| <= M.

    n is read from the samples, which may be any n^N cube with n >= 2M+1;
    params.grid_points need not match it and only rides along on the
    returned field.  Exact (to roundoff) for trigonometric polynomials of
    degree <= M per dimension.  The k_N < 0 half is filled by conjugation,
    so the result is exactly Hermitian.
    """
    M, N = params.modes, problem.N
    samples = np.asarray(samples, dtype=float)
    n = samples.shape[0] if samples.ndim else 0
    if samples.shape != (n,) * N or n < 2 * M + 1:
        raise ValueError(f"sample shape {samples.shape} is not an n^{N} cube "
                         f"with n >= 2M+1 = {2 * M + 1}")
    return FourierField(_full_cube(_hermitian_half(samples, problem, M)),
                        problem, params)


def inverse_transform(field: FourierField, grid_points: int | None = None) -> np.ndarray:
    """Real samples of the field on an n^N grid (default: params.grid_points).

    Any n >= 1 gives exact point values, too few below 2M+1 to recover
    the coefficients.  Only the k_N >= 0 half is read, so coefficients that
    are not Hermitian raise SymmetryError instead of silently giving a
    different field.
    """
    params = field.params
    n = params.grid_points if grid_points is None else int(grid_points)
    M = params.modes
    if n < 1:
        raise ValueError(f"grid_points = {n} must be >= 1")
    # the scale is computed only when the defect is not already negligible
    defect = field.hermitian_defect()
    if defect > 1e-8 and defect > 1e-8 * (1.0 + float(np.abs(field.coeffs).max())):
        raise SymmetryError(f"Hermitian defect {defect:.3e} exceeds tolerance")
    return _half_to_samples(field.coeffs[..., M:], field.problem, n)


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


def dual_norm(field: FourierField) -> float:
    """Norm of Sum g_k e_k as a functional against the Hs norm.  Where
    |g_k|^2 overflows although the norm is a double (a huge m), the sum
    is taken again over |g_k| / sqrt(mu_k^s) scaled by its largest entry."""
    mu_s = multiplier_array(field.problem, field.params)
    with np.errstate(over="ignore"):
        total = float(np.sum(np.abs(field.coeffs) ** 2 / mu_s))
    if total < math.inf:
        return math.sqrt(total)
    g = np.abs(field.coeffs) / np.sqrt(mu_s)
    scale = float(g.max())
    if not scale < math.inf:
        return scale
    return scale * math.sqrt(float(np.sum((g / scale) ** 2)))


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
