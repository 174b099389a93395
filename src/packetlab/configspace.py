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


class ManyBodyWavefunction:
    """Normalized wavefunction of N <= 3 particles on one uniform grid."""

    __slots__ = ("start", "spacing", "tensor", "symmetry")

    def __init__(self, start: float, spacing: float, tensor, symmetry: str = "none"):
        t = np.array(tensor, dtype=complex)
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

        norm = float(np.sum(np.abs(t) ** 2)) * spacing**t.ndim
        if abs(norm - 1.0) > 1e-8:
            raise DomainError(f"tensor norm {norm!r} must be 1 within 1e-8")

        if symmetry != "none" and t.ndim >= 2:
            want = 1.0 if symmetry == "symmetric" else -1.0
            for i in range(t.ndim):
                for j in range(i + 1, t.ndim):
                    axes = list(range(t.ndim))
                    axes[i], axes[j] = axes[j], axes[i]
                    dev = float(np.max(np.abs(np.transpose(t, axes) - want * t)))
                    if dev > 1e-10:
                        raise DomainError(
                            f"tensor violates the {symmetry} tag by {dev:.3e}"
                        )

        t.setflags(write=False)
        self.start = float(start)
        self.spacing = float(spacing)
        self.tensor = t
        self.symmetry = symmetry

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
        tensor = factors[0].values
        for f in factors[1:]:
            tensor = np.multiply.outer(tensor, f.values)
        return cls(first.start, first.spacing, tensor)


def symmetrize(psi: ManyBodyWavefunction, sign: int = +1) -> ManyBodyWavefunction:
    """Sum over particle permutations, renormalized, with the tag set.

    sign +1 builds the symmetric combination, -1 the antisymmetric one.
    Antisymmetrizing a permutation-invariant input annihilates it; that
    case is surfaced as a degenerate-input error, which is the Pauli
    exclusion principle showing up numerically.
    """
    if sign not in (1, -1):
        raise DomainError("sign must be +1 or -1")
    if psi.symmetry != "none":
        raise DomainError("input is already tagged")
    ndim = psi.tensor.ndim
    total = np.zeros_like(psi.tensor)
    for perm in permutations(range(ndim)):
        factor = 1.0 if sign == 1 else float(_perm_parity(perm))
        total = total + factor * np.transpose(psi.tensor, perm)
    norm = math.sqrt(float(np.sum(np.abs(total) ** 2)) * psi.spacing**ndim)
    if norm < 1e-12:
        raise DomainError(
            "antisymmetrization annihilated the state (Pauli-excluded input)"
        )
    tag = "symmetric" if sign == 1 else "antisymmetric"
    return ManyBodyWavefunction(psi.start, psi.spacing, total / norm, tag)


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
    rest of the Schmidt spectrum.
    """
    if psi.n_particles != 2:
        raise DomainError("product form test is a two-particle operation")
    m = psi.tensor * psi.spacing
    s = np.linalg.svd(m, compute_uv=False)
    residual = float(np.sum(s[1:] ** 2))
    is_product = bool(s.size < 2 or s[1] < 1e-8)
    return is_product, residual


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

