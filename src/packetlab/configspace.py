"""Discretized two-particle wavefunctions on a shared 1-D grid.

Symmetrization, the one-particle density, conditional action
probabilities, entanglement detection through the Schmidt spectrum, and
the reduction (projection) of an expansion, either onto a window or down
to a single eigenfunction.

A wavefunction is the amplitude matrix of two particles on at most 256
grid points; every claim in scope is demonstrable at that size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError
from .numkit import RandomStream, np, sample_array

__all__ = [
    "ManyBodyWavefunction",
    "ExpansionCoefficients",
    "symmetrize",
    "one_particle_density",
    "conditional_probability",
    "product_form_test",
    "reduce_expansion",
]

MAX_POINTS = 256
_SYMMETRIES = ("none", "symmetric", "antisymmetric")


def _sum_abs_sq(t: np.ndarray, out: np.ndarray) -> float:
    """float(np.sum(np.abs(t) ** 2)) to the bit, for a real or complex t,
    with out, a float array of t's shape other than t, as its only scratch."""
    np.abs(t, out=out)
    return float(np.sum(np.square(out, out=out)))


class ManyBodyWavefunction:
    """Normalized two-particle wavefunction on one uniform grid: the n x n
    amplitude matrix tensor[i, j] = Psi(x_i, x_j), n <= 256.

    The instance keeps a read-only copy of the matrix it is given, real
    if its values are; the caller's array is left as it was."""

    __slots__ = ("start", "spacing", "tensor", "symmetry")

    def __init__(self, start: float, spacing: float, tensor, symmetry: str = "none"):
        self._adopt(start, spacing, sample_array(tensor), symmetry)

    def _adopt(self, start, spacing, t: np.ndarray, symmetry: str) -> None:
        """Check t and keep it, read-only, as the tensor: t must be a float64 or
        complex128 array that no caller holds. The checks use one scratch
        array like t; each is written so that a NaN fails it."""
        if t.ndim != 2 or t.shape[0] != t.shape[1]:
            raise DomainError("tensor must be an n x n two-particle amplitude matrix")
        if t.shape[0] > MAX_POINTS:
            raise DomainError(f"grid capped at {MAX_POINTS} points")
        if not spacing > 0:
            raise DomainError("spacing must be positive")
        if symmetry not in _SYMMETRIES:
            raise DomainError(f"symmetry must be one of {_SYMMETRIES}")

        scratch = np.empty_like(t)
        norm = _sum_abs_sq(t, scratch.real) * spacing**2
        if not abs(norm - 1.0) <= 1e-8:
            raise DomainError(f"tensor norm {norm!r} must be 1 within 1e-8")

        if symmetry != "none":
            # how far the transpose is from +t (symmetric) or -t
            # (antisymmetric); hypot writes |difference| into the scratch
            # array's real part, which is the array itself if it is real
            combine = np.subtract if symmetry == "symmetric" else np.add
            combine(t.T, t, out=scratch)
            dev = float(np.max(np.hypot(scratch.real, scratch.imag, out=scratch.real)))
            if not dev <= 1e-10:
                raise DomainError(f"tensor violates the {symmetry} tag by {dev:.3e}")

        t.setflags(write=False)
        self.start = float(start)
        self.spacing = float(spacing)
        self.tensor = t
        self.symmetry = symmetry

    @classmethod
    def _owning(cls, start, spacing, t: np.ndarray, symmetry: str = "none"):
        """An instance that keeps t itself, for a matrix built here."""
        psi = cls.__new__(cls)
        psi._adopt(start, spacing, t, symmetry)
        return psi

    @property
    def n_points(self) -> int:
        return self.tensor.shape[0]

    @property
    def grid(self) -> np.ndarray:
        return self.start + self.spacing * np.arange(self.n_points)

    def nearest_index(self, x: float) -> int:
        """Index of the grid point nearest x, clamped to the grid; a tie
        half a cell between two points goes to the even index, as
        Python's round does."""
        return min(max(int(round((x - self.start) / self.spacing)), 0), self.n_points - 1)

    @classmethod
    def from_product(cls, factors) -> "ManyBodyWavefunction":
        """Product state f(x1) g(x2) of two normalized SampledFunction1D
        factors [f, g] on one grid."""
        if len(factors) != 2:
            raise DomainError("need exactly two factors")
        f, g = factors
        if not f.same_grid(g):
            raise DomainError("both factors must share one grid")
        if len(f.values) > MAX_POINTS:  # before the n^2 outer product
            raise DomainError(f"grid capped at {MAX_POINTS} points")
        return cls._owning(f.start, f.spacing, np.multiply.outer(f.values, g.values))


def symmetrize(psi: ManyBodyWavefunction, sign: int = +1) -> ManyBodyWavefunction:
    """t + t^T (sign +1) or t - t^T (sign -1), renormalized, with the tag set.

    Antisymmetrizing an exchange-symmetric input annihilates it; that
    case is surfaced as a degenerate-input error, which is the Pauli
    exclusion principle showing up numerically.

    The sum is written into one C-ordered array, which is normalized in
    place and kept by the instance without a copy.
    """
    if sign not in (1, -1):
        raise DomainError("sign must be +1 or -1")
    if psi.symmetry != "none":
        raise DomainError("input is already tagged")
    t = psi.tensor
    total = (np.add if sign == 1 else np.subtract)(t, t.T, order="C")
    norm = math.sqrt(_sum_abs_sq(total, np.empty_like(total, dtype=float)) * psi.spacing**2)
    if not norm >= 1e-12:
        raise DomainError(
            "antisymmetrization annihilated the state (Pauli-excluded input)"
        )
    # times the reciprocal, as numpy divides a complex array by a real norm
    np.multiply(total, 1.0 / norm, out=total)
    tag = "symmetric" if sign == 1 else "antisymmetric"
    return ManyBodyWavefunction._owning(psi.start, psi.spacing, total, tag)


def one_particle_density(psi: ManyBodyWavefunction) -> np.ndarray:
    """Density on the grid, from rho(x_i) = sum_j |Psi(x_i, x_j)|^2 h.

    For an untagged pair that is the first particle's marginal, which
    integrates to 1. For an exchange-(anti)symmetric pair both particles'
    marginals coincide, and the density is twice it, integrating to the
    particle count 2.
    """
    rho = np.sum(np.abs(psi.tensor) ** 2, axis=1) * psi.spacing
    return rho if psi.symmetry == "none" else 2 * rho


def conditional_probability(psi: ManyBodyWavefunction, x2: float) -> np.ndarray:
    """P(x1 | x2) on the grid.

    x2 snaps to the nearest grid point (ManyBodyWavefunction.nearest_index);
    conditioning on a point where the partner density vanishes is a domain
    error.
    """
    grid = psi.grid
    if not grid[0] - 0.5 * psi.spacing <= x2 <= grid[-1] + 0.5 * psi.spacing:
        raise DomainError(f"x2={x2} lies outside the grid")
    column = np.abs(psi.tensor[:, psi.nearest_index(x2)]) ** 2
    denom = float(column.sum()) * psi.spacing
    if not denom > 1e-12:
        raise DomainError("conditioning point carries no probability density")
    return column / denom


def product_form_test(psi: ManyBodyWavefunction) -> tuple:
    """(is_product, schmidt_residual) of the pair.

    The amplitude matrix is decomposed by SVD; a product state has a
    single singular value, and the residual is the total weight of the
    rest of the Schmidt spectrum. numpy takes the real SVD for a real
    matrix, in less than half the time of the complex one. Singular
    values at or below s[0] max(shape) eps are rounding noise of the
    decomposition (Golub and Van Loan, Matrix Computations, 2.4 and 5.4),
    so they add nothing to the residual; a product state's residual is
    then exactly 0.
    """
    m = psi.tensor * psi.spacing
    s = np.linalg.svd(m, compute_uv=False)
    is_product = bool(s.size < 2 or s[1] < 1e-8)
    rest = s[1:]
    signal = rest[rest > s[0] * max(m.shape) * np.finfo(float).eps]
    return is_product, float(np.sum(signal**2))


@dataclass(frozen=True, eq=False)
class ExpansionCoefficients:
    """Real or complex eigenfunction expansion coefficients c(n), normalized to 1."""

    values: np.ndarray

    def __post_init__(self):
        v = sample_array(self.values)
        if v.ndim != 1 or v.size == 0:
            raise DomainError("coefficients must be a nonempty sequence")
        total = float(np.sum(np.abs(v) ** 2))
        if not abs(total - 1.0) <= 1e-10:
            raise DomainError(f"sum |c|^2 = {total!r}, must be 1 within 1e-10")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    def probabilities(self) -> np.ndarray:
        return np.abs(self.values) ** 2


def reduce_expansion(
    c: ExpansionCoefficients, window=None, rng: RandomStream = None
) -> ExpansionCoefficients:
    """Reduction of an expansion.

    Window mode (no rng): coefficients outside the window are zeroed and
    the remainder renormalized. Single-pick mode (rng given): one index is
    drawn with probability |c(n)|^2, restricted to the window when one is
    supplied, and the output is the corresponding single eigenfunction.
    The outcome is always one definite term, never a superposition of the
    picked candidates.
    """
    size = c.values.size
    if window is None:
        if rng is None:
            raise DomainError("window mode needs a window; pick mode needs an rng")
        idx = np.arange(size)
    else:
        kept = sorted(set(int(i) for i in window))
        if not kept:
            raise DomainError("window must be nonempty")
        # on the Python ints, before an index too large for a C long is converted
        if kept[0] < 0 or kept[-1] >= size:
            raise DomainError("window index outside the expansion")
        idx = np.asarray(kept, dtype=int)

    probs = np.abs(c.values[idx]) ** 2
    mass = float(probs.sum())
    if mass <= 1e-12:
        raise DomainError("window carries no probability mass")

    out = np.zeros(size, dtype=c.values.dtype)
    if rng is None:
        # times the reciprocal, as numpy divides complex values by a real norm
        out[idx] = c.values[idx] * (1.0 / math.sqrt(mass))
        return ExpansionCoefficients(out)

    u = float(rng.uniform())
    pos = int(np.searchsorted(np.cumsum(probs / mass), u, side="right"))
    pick = idx[min(pos, idx.size - 1)]
    # keep the phase of the picked coefficient, renormalized to unit weight
    out[pick] = c.values[pick] / abs(c.values[pick])
    return ExpansionCoefficients(out)

