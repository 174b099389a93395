"""First-order transition probabilities for a broad packet on a small
localized scatterer, and the audit of their factorization.

The claim under test: when the incident packet is much wider than the
scatterer, the transition probability W factors as kappa * |psi_i(x0)|^2
with kappa a property of the scatterer alone, so the ratio of W to the
local packet density is the same wherever the scatterer sits inside the
packet.

One spatial dimension, contact interaction, stationary free phases over
a short time window, hbar = 1 internally. All of these keep the
verification honest while staying at desk scale: nothing in the
factorization argument depends on dimension or on the phase bookkeeping.
As the width ratio grows, the audit's spread falls as 0.109 / ratio^2 and
kappa tends to 0.1994711255148905 with 16 finals, or with all of them to
|phi_n phi_0|^2 = 1 / (2 sqrt(2 pi)) = 0.19947114020071634.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

from .errors import DomainError
from .numkit import SampledFunction1D, np, position_width, sampled_gaussian

__all__ = [
    "ScattererSpec",
    "TransitionSetup",
    "first_order_transition",
    "action_ratio_audit",
    "audit_scenario",
    "efficiency_decomposition",
    "final_packet_family",
    "width_ratio",
]

_MAX_FINAL_PACKETS = 16


@dataclass(frozen=True, eq=False)
class ScattererSpec:
    """Localized scatterer: ground and excited internal states, contact strength.

    phi0 and phin share one grid, which may be any span of the incident
    packet's lattice outside which both vanish: cut to it, as in audit_scenario.
    """

    center: float
    phi0: SampledFunction1D
    phin: SampledFunction1D
    strength: float

    def __post_init__(self):
        if not self.phi0.same_grid(self.phin):
            raise DomainError("phi0 and phin must share one grid")
        _check_internal_states(self.phi0.values, self.phin.values, self.phi0.spacing)

    @property
    def width(self) -> float:
        return position_width(self.phi0)[1]


def _check_internal_states(phi0, phin, spacing: float) -> None:
    # on the sample arrays, or on any span outside which both vanish
    for name, values in (("phi0", phi0), ("phin", phin)):
        if abs(float(np.sum(np.abs(values) ** 2) * spacing) - 1.0) > 1e-8:
            raise DomainError(f"{name} must be normalized to 1 within 1e-8")
    overlap = abs(complex(np.sum(np.conj(phin) * phi0)) * spacing)
    if overlap > 1e-6:
        raise DomainError(
            f"phi0 and phin must be orthogonal within 1e-6 (got {overlap:.3e})"
        )


def _whole_cells(offset: float, spacing: float, what: str = "shift") -> int:
    cells_float = offset / spacing
    cells = round(cells_float)
    if abs(cells_float - cells) > 1e-9:
        raise DomainError(f"{what} must be a whole number of grid cells")
    return cells


@dataclass(frozen=True, eq=False)
class TransitionSetup:
    """Incident packet and the resonant time window [t0, t] of the interaction."""

    psi_i: SampledFunction1D
    t0: float
    t: float

    def __post_init__(self):
        if not self.t > self.t0:
            raise DomainError("time window must have t > t0")

    @cached_property
    def _position_width(self) -> tuple:
        # position_width(psi_i), a full-grid reduction, once per setup
        return position_width(self.psi_i)


def width_ratio(setup: TransitionSetup, scatterer: ScattererSpec) -> float:
    """Incident packet width over scatterer width (Delta x / w)."""
    return setup._position_width[1] / scatterer.width


def first_order_transition(
    setup: TransitionSetup, scatterer: ScattererSpec, psi_f: SampledFunction1D
) -> float:
    """Transition probability to one final packet, first order, contact coupling.

    The contact potential collapses the double space integral, leaving
    W = |T|^2 |V integral psi_f* phin* psi_i phi0 dx|^2 with T = t - t0 the
    resonant time-window factor. psi_f and the scatterer's states may hold
    any span of psi_i's lattice (same spacing, a whole number of cells from
    psi_i's start) and are zero outside it; the integral is summed where
    the spans and psi_i's grid intersect, so callers cut them to that span.
    """
    return _transition_sum(setup, scatterer, [psi_f], 0)


def _first_cell(psi_i: SampledFunction1D, f: SampledFunction1D) -> int:
    # the index on psi_i's grid of f's first sample
    if abs(f.spacing - psi_i.spacing) > 1e-15 * psi_i.spacing:
        raise DomainError("psi_i, psi_f and the scatterer must share one grid spacing")
    return _whole_cells(
        f.start - psi_i.start, psi_i.spacing, "the offset of each state from psi_i"
    )


def _transition_sum(setup, scatterer, finals, cells: int) -> float:
    # sum of first_order_transition over finals, with the scatterer and the
    # finals moved `cells` whole grid cells; the samples moved off the grid
    # drop out, and a scatterer that loses samples so must still pass
    # ScattererSpec's checks
    psi_i = setup.psi_i
    first = _first_cell(psi_i, scatterer.phi0) + cells
    lo = max(first, 0)
    hi = max(lo, min(first + scatterer.phi0.n, psi_i.n))
    phi0 = scatterer.phi0.values[lo - first:hi - first]
    phin = scatterer.phin.values[lo - first:hi - first]
    if hi - lo < scatterer.phi0.n:
        _check_internal_states(phi0, phin, psi_i.spacing)
    conj_phin, psi = np.conj(phin), psi_i.values[lo:hi]
    duration = complex(setup.t - setup.t0)
    w_total = 0.0
    for f in finals:
        f_first = _first_cell(psi_i, f) + cells
        a = max(lo, f_first)
        b = max(a, min(hi, f_first + f.n))
        on = slice(a - lo, b - lo)
        amplitude = (
            scatterer.strength
            * complex(
                (np.conj(f.values[a - f_first:b - f_first]) * conj_phin[on]
                 * psi[on] * phi0[on]).sum()
            )
            * psi_i.spacing
        )
        w_total += abs(duration * amplitude) ** 2
    return w_total


def final_packet_family(
    center: float,
    width: float,
    start: float,
    spacing: float,
    num: int,
    count: int,
) -> list:
    """Orthonormal Hermite-Gaussian packets around center, lowest `count` orders."""
    if not 1 <= count <= _MAX_FINAL_PACKETS:
        raise DomainError(f"final family capped at {_MAX_FINAL_PACKETS} packets")
    if width <= 0:
        raise DomainError("width must be positive")
    x = start + spacing * np.arange(num)
    u = (x - center) / width
    env = np.exp(-0.5 * u * u)
    # H_(k+1) = 2u H_k - 2k H_(k-1) (DLMF 18.9.1), one step per order
    hermite, previous = np.ones_like(u), np.zeros_like(u)
    out = []
    for k in range(count):
        norm = 1.0 / math.sqrt(
            2.0**k * math.factorial(k) * math.sqrt(math.pi) * width
        )
        out.append(SampledFunction1D(start, spacing, norm * hermite * env))
        hermite, previous = 2.0 * u * hermite - 2.0 * k * previous, hermite
    return out


def action_ratio_audit(
    setup: TransitionSetup, scatterer_template: ScattererSpec, centers, final_set
) -> tuple:
    """(kappa, max_relative_spread) of W / |psi_i(x0)|^2 over probe centers.

    For each probe position the scatterer and its admitted final packets
    are moved there together (the outgoing forms live at the scatterer)
    and the summed transition probability is divided by the density of
    the unmoved incident packet at x0, which must be one of its samples.
    kappa is the mean ratio; the spread measures how far the factorization
    claim holds. The scatterer's states and the finals hold their nonzero
    span of psi_i's lattice; a move shifts their first cell, each amplitude
    is summed where the moved spans and psi_i's grid intersect, and no
    moved copy of any packet is built.
    """
    if len(final_set) == 0:
        raise DomainError("need at least one final packet")
    if len(final_set) > _MAX_FINAL_PACKETS:
        raise DomainError(f"final family capped at {_MAX_FINAL_PACKETS} packets")
    psi_i, (mean_x, delta_x) = setup.psi_i, setup._position_width
    ratios = []
    for x0 in centers:
        if not math.isfinite(x0):
            raise DomainError(f"probe center {x0} is not finite")
        if abs(x0 - mean_x) > delta_x or not psi_i.start <= x0 <= psi_i.end:
            raise DomainError(f"probe center {x0} outside the central region of psi_i")
        at = f"the offset of probe center {x0} from psi_i's start"
        density = abs(psi_i.values[_whole_cells(x0 - psi_i.start, psi_i.spacing, at)]) ** 2
        if density < 1e-15:
            raise DomainError(f"|psi_i({x0})|^2 below 1e-15, ratio is ill-conditioned")
        cells = _whole_cells(
            float(x0) - scatterer_template.center, scatterer_template.phi0.spacing
        )
        w_total = _transition_sum(setup, scatterer_template, final_set, cells)
        ratios.append(w_total / density)
    kappa = float(np.mean(ratios))
    if kappa == 0.0:
        return 0.0, 0.0
    spread = float(max(abs(r - kappa) for r in ratios) / kappa)
    return kappa, spread


def audit_scenario(
    width_ratio: float = 100.0, n_centers: int = 9, n_finals: int = 8
) -> tuple:
    """(setup, scatterer, centers, finals) for the standard factorization audit.

    Unit-width scatterer (Hermite-Gaussian ground and first excited
    internal states) under a Gaussian packet width_ratio times wider,
    probed at n_centers grid-aligned positions across the packet's
    central region. Contact strength and time window are 1. The grid,
    about 6 sigma either side of x = 0 on the scatterer's 0.25 lattice,
    holds every probe center as a sample and caps width_ratio at 1e4.
    Only psi_i spans the grid; the internal states and the finals hold
    the span of it where they are not exact zeros, at most 309 samples.
    """
    # before any grid exists, NaN too. At 1e4 the grid holds 339,413 points;
    # `actionprob --finals 16` peaks there at 40 MB (2-core Xeon), 29 in import
    if not 2.0 <= width_ratio <= 1e4:
        raise DomainError(
            f"width ratio {width_ratio:g} is refused: the audit needs the packet at "
            "least twice the scatterer width, and the cap is width ratio 1e4"
        )
    if n_centers < 1:
        raise DomainError("need at least one probe center")
    w = 1.0
    # the ground state of the family has position std w/sqrt(2), so this
    # makes the measured width ratio come out at the requested value
    sigma = width_ratio * w / math.sqrt(2.0)
    spacing = 0.25
    # about 6 sigma, snapped to the lattice of the scatterer's center, so
    # that x = 0 and every probe center below are samples of psi_i
    cells = round(6.0 * sigma / spacing)
    half, num = spacing * cells, 2 * cells + 1
    psi_i = sampled_gaussian(0.0, sigma, -half, spacing, num)
    # the Hermite-Gaussians are exact zeros where exp(-u^2/2) underflows,
    # |u| > 38.6: they are built only on the span inside that, found among
    # the samples within 40 widths of the center
    near = np.arange(
        max(0, math.floor((half - 40.0 * w) / spacing)),
        min(num, math.ceil((half + 40.0 * w) / spacing) + 1),
    )
    u = (-half + spacing * near) / w
    nonzero = near[np.exp(-0.5 * u * u) > 0.0]
    lo, count = int(nonzero[0]), int(nonzero[-1] - nonzero[0]) + 1
    start = -half + spacing * lo
    internal = final_packet_family(0.0, w, start, spacing, count, 2)
    scatterer = ScattererSpec(0.0, internal[0], internal[1], 1.0)
    finals = final_packet_family(0.0, w, start, spacing, count, n_finals)
    setup = TransitionSetup(psi_i, 0.0, 1.0)
    offsets = np.linspace(-0.5 * sigma, 0.5 * sigma, n_centers) if n_centers > 1 else [0.0]
    centers = [round(o / spacing) * spacing for o in offsets]
    return setup, scatterer, centers, finals


def efficiency_decomposition(w1: float, psi_norm_sq: float, kappa_dt: float) -> tuple:
    """(I1, P1) with W1 = I1 * P1.

    I1 = kappa(dt) * integral |psi|^2 is the chance the packet acts at
    all during the window; P1 is then the conditional place distribution
    weight carried by W1.
    """
    if not psi_norm_sq > 0:
        raise DomainError("psi_norm_sq must be positive")
    if not 0.0 < kappa_dt <= 1.0:
        raise DomainError("kappa_dt must lie in (0, 1]")
    if w1 < 0:
        raise DomainError("W1 must be nonnegative")
    i1 = kappa_dt * psi_norm_sq
    return i1, w1 / i1
