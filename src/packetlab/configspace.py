"""Discretized many-particle wavefunctions on a shared 1-D grid.

Symmetrization, the one-particle density, conditional action
probabilities, entanglement detection through the Schmidt spectrum, and
the reduction (projection) of an expansion, either onto a window or down
to a single eigenfunction.

Tensors are capped at 3 particles and 256 grid points; every claim in
scope is demonstrable at that size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import permutations

import numpy as np

from .errors import DomainError
from .numkit import RandomStream

__all__ = [
    "ManyBodyWavefunction",
    "ExpansionCoefficients",
    "symmetrize",
    "one_particle_density",
    "conditional_probability",
    "product_form_test",
    "reduce_expansion",
]

_MAX_PARTICLES = 3
MAX_POINTS = 256
_SYMMETRIES = ("none", "symmetric", "antisymmetric")


def _perm_parity(perm) -> int:
    inversions = sum(
        1
        for i in range(len(perm))
        for j in range(i + 1, len(perm))
        if perm[i] > perm[j]
    )
    return -1 if inversions % 2 else 1


def _sum_abs_sq(t: np.ndarray, out: np.ndarray) -> float:
    """float(np.sum(np.abs(t) ** 2)) to the bit, with out, a float array in
    t's layout, as its only scratch."""
    np.abs(t, out=out)
    return float(np.sum(np.square(out, out=out)))


class ManyBodyWavefunction:
    """Normalized wavefunction of N <= 3 particles on one uniform grid.

    The instance keeps a read-only copy of the tensor it is given; the
    caller's array is left as it was."""

    __slots__ = ("start", "spacing", "tensor", "symmetry")

    def __init__(self, start: float, spacing: float, tensor, symmetry: str = "none"):
        self._adopt(start, spacing, np.array(tensor, dtype=complex), symmetry)

    def _adopt(self, start, spacing, t: np.ndarray, symmetry: str) -> None:
        """Check t and keep it, read-only, as the tensor: t must be a complex
        array that no caller holds. The checks use one scratch array of
        t's shape."""
        if not 1 <= t.ndim <= _MAX_PARTICLES:
            raise DomainError(f"particle count must be 1..{_MAX_PARTICLES}")
        if len(set(t.shape)) != 1:
            raise DomainError("all tensor axes must share the same grid")
        if t.shape[0] > MAX_POINTS:
            raise DomainError(f"grid capped at {MAX_POINTS} points")
        if not spacing > 0:
            raise DomainError("spacing must be positive")
        if symmetry not in _SYMMETRIES:
            raise DomainError(f"symmetry must be one of {_SYMMETRIES}")

        scratch = np.empty_like(t)
        norm = _sum_abs_sq(t, scratch.real) * spacing**t.ndim
        if abs(norm - 1.0) > 1e-8:
            raise DomainError(f"tensor norm {norm!r} must be 1 within 1e-8")

        if symmetry != "none" and t.ndim >= 2:
            # how far t swapped is from +t (symmetric) or -t (antisymmetric);
            # hypot writes |difference| into the scratch array's real part
            combine = np.subtract if symmetry == "symmetric" else np.add
            for i in range(t.ndim):
                for j in range(i + 1, t.ndim):
                    axes = list(range(t.ndim))
                    axes[i], axes[j] = axes[j], axes[i]
                    combine(np.transpose(t, axes), t, out=scratch)
                    dev = float(np.max(np.hypot(scratch.real, scratch.imag, out=scratch.real)))
                    if dev > 1e-10:
                        raise DomainError(
                            f"tensor violates the {symmetry} tag by {dev:.3e}"
                        )

        t.setflags(write=False)
        self.start = float(start)
        self.spacing = float(spacing)
        self.tensor = t
        self.symmetry = symmetry

    @classmethod
    def _owning(cls, start, spacing, t: np.ndarray, symmetry: str = "none"):
        """An instance that keeps t itself, for a tensor built here."""
        psi = cls.__new__(cls)
        psi._adopt(start, spacing, t, symmetry)
        return psi

    @property
    def n_particles(self) -> int:
        return self.tensor.ndim

    @property
    def n_points(self) -> int:
        return self.tensor.shape[0]

    @property
    def grid(self) -> np.ndarray:
        return self.start + self.spacing * np.arange(self.n_points)

    @classmethod
    def from_product(cls, factors) -> "ManyBodyWavefunction":
        """Product state from normalized single-particle SampledFunction1D factors."""
        if not 1 <= len(factors) <= _MAX_PARTICLES:
            raise DomainError(f"need 1..{_MAX_PARTICLES} factors")
        first = factors[0]
        for f in factors[1:]:
            if not first.same_grid(f):
                raise DomainError("all factors must share one grid")
        if len(first.values) > MAX_POINTS:  # before the N^2 or N^3 outer product
            raise DomainError(f"grid capped at {MAX_POINTS} points")
        if len(factors) == 1:
            return cls(first.start, first.spacing, first.values)
        tensor = first.values
        for f in factors[1:]:
            tensor = np.multiply.outer(tensor, f.values)
        return cls._owning(first.start, first.spacing, tensor)


def symmetrize(psi: ManyBodyWavefunction, sign: int = +1) -> ManyBodyWavefunction:
    """Sum over particle permutations, renormalized, with the tag set.

    sign +1 builds the symmetric combination, -1 the antisymmetric one.
    Antisymmetrizing a permutation-invariant input annihilates it; that
    case is surfaced as a degenerate-input error, which is the Pauli
    exclusion principle showing up numerically.

    The terms are summed in place into one C-ordered array, which is
    normalized in place and kept by the instance without a copy.
    """
    if sign not in (1, -1):
        raise DomainError("sign must be +1 or -1")
    if psi.symmetry != "none":
        raise DomainError("input is already tagged")
    t = psi.tensor
    total = np.zeros(t.shape, dtype=complex)
    for perm in permutations(range(t.ndim)):
        # subtracting equals adding (-1.0) * term to the bit: the sum is
        # never -0.0, so the sign of a zero in the term cannot show
        add = np.add if sign == 1 or _perm_parity(perm) == 1 else np.subtract
        add(total, np.transpose(t, perm), out=total)
    norm = math.sqrt(_sum_abs_sq(total, np.empty_like(total, dtype=float))
                     * psi.spacing**t.ndim)
    if norm < 1e-12:
        raise DomainError(
            "antisymmetrization annihilated the state (Pauli-excluded input)"
        )
    np.divide(total, norm, out=total)
    tag = "symmetric" if sign == 1 else "antisymmetric"
    return ManyBodyWavefunction._owning(psi.start, psi.spacing, total, tag)


def one_particle_density(psi: ManyBodyWavefunction) -> np.ndarray:
    """Density rho(x) = N integral |Psi(x, x2, ..)|^2 dx2.. on the grid.

    Only defined for exchange-(anti)symmetric functions, where the N
    single-particle terms coincide; integrates to the particle count.
    """
    if psi.symmetry == "none":
        raise DomainError("density needs a symmetric or antisymmetric tag")
    ndim = psi.tensor.ndim
    rest = tuple(range(1, ndim))
    rho = np.sum(np.abs(psi.tensor) ** 2, axis=rest) * psi.spacing ** (ndim - 1)
    return ndim * rho


def conditional_probability(psi: ManyBodyWavefunction, x2: float) -> np.ndarray:
    """P(x1 | x2) on the grid for a two-particle function.

    x2 snaps to the nearest grid point; conditioning on a point where the
    partner density vanishes is a domain error.
    """
    if psi.n_particles != 2:
        raise DomainError("conditional probability is a two-particle operation")
    grid = psi.grid
    if x2 < grid[0] - 0.5 * psi.spacing or x2 > grid[-1] + 0.5 * psi.spacing:
        raise DomainError(f"x2={x2} lies outside the grid")
    i2 = int(round((x2 - psi.start) / psi.spacing))
    i2 = min(max(i2, 0), psi.n_points - 1)
    column = np.abs(psi.tensor[:, i2]) ** 2
    denom = float(column.sum()) * psi.spacing
    if denom <= 1e-12:
        raise DomainError("conditioning point carries no probability density")
    return column / denom


def product_form_test(psi: ManyBodyWavefunction) -> tuple:
    """(is_product, schmidt_residual) for a two-particle function.

    The amplitude matrix is decomposed by SVD; a product state has a
    single singular value, and the residual is the total weight of the
    rest of the Schmidt spectrum. A matrix with no nonzero imaginary part
    goes through the real SVD, which gives the same singular values in
    less than half the time. Singular values at or below
    s[0] max(shape) eps are rounding noise of the decomposition (Golub and
    Van Loan, Matrix Computations, 2.4 and 5.4), so they add nothing to
    the residual; a product state's residual is then exactly 0.
    """
    if psi.n_particles != 2:
        raise DomainError("product form test is a two-particle operation")
    t = psi.tensor
    m = (t if np.any(t.imag) else t.real) * psi.spacing
    s = np.linalg.svd(m, compute_uv=False)
    is_product = bool(s.size < 2 or s[1] < 1e-8)
    rest = s[1:]
    signal = rest[rest > s[0] * max(m.shape) * np.finfo(float).eps]
    return is_product, float(np.sum(signal**2))


@dataclass(frozen=True, eq=False)
class ExpansionCoefficients:
    """Eigenfunction expansion coefficients c(n), normalized to 1."""

    values: np.ndarray

    def __post_init__(self):
        v = np.array(self.values, dtype=complex)
        if v.ndim != 1 or v.size == 0:
            raise DomainError("coefficients must be a nonempty sequence")
        total = float(np.sum(np.abs(v) ** 2))
        if abs(total - 1.0) > 1e-10:
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

    if rng is None:
        out = np.zeros(size, dtype=complex)
        out[idx] = c.values[idx] / math.sqrt(mass)
        return ExpansionCoefficients(out)

    u = float(rng.uniform())
    pos = int(np.searchsorted(np.cumsum(probs / mass), u, side="right"))
    pick = idx[min(pos, idx.size - 1)]
    out = np.zeros(size, dtype=complex)
    # keep the phase of the picked coefficient, renormalized to unit weight
    out[pick] = c.values[pick] / abs(c.values[pick])
    return ExpansionCoefficients(out)

