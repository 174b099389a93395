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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainError
from .numkit import SampledFunction1D, position_width, sampled_gaussian

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
# grid points of the audit scenario, checked before its arrays exist: width
# ratio 1e4 needs 339,412; with the most final packets, `actionprob` there
# takes about 0.5 s and 149 MB peak RSS as a fresh process (2-core Xeon),
# most of it the scenario's full-grid packets
_MAX_AUDIT_POINTS = 339_412


@dataclass(frozen=True, eq=False)
class ScattererSpec:
    """Localized scatterer: ground and excited internal states, contact strength."""

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

    @cached_property
    def _window(self) -> tuple:
        # [lo, hi) of the samples where phi0 or phin is nonzero; outside it
        # every first-order integrand, norm and overlap term is an exact zero
        nonzero = np.flatnonzero(self.phi0.values), np.flatnonzero(self.phin.values)
        return min(int(i[0]) for i in nonzero), max(int(i[-1]) for i in nonzero) + 1

    def shifted(self, new_center: float) -> "ScattererSpec":
        """The same scatterer moved to new_center (whole grid cells only)."""
        return ScattererSpec(
            new_center,
            _shift_function(self.phi0, new_center - self.center),
            _shift_function(self.phin, new_center - self.center),
            self.strength,
        )


def _check_internal_states(phi0, phin, spacing: float) -> None:
    # on the sample arrays, or on any window outside which both vanish
    for name, values in (("phi0", phi0), ("phin", phin)):
        if abs(float(np.sum(np.abs(values) ** 2) * spacing) - 1.0) > 1e-8:
            raise DomainError(f"{name} must be normalized to 1 within 1e-8")
    overlap = abs(complex(np.sum(np.conj(phin) * phi0)) * spacing)
    if overlap > 1e-6:
        raise DomainError(
            f"phi0 and phin must be orthogonal within 1e-6 (got {overlap:.3e})"
        )


def _whole_cells(offset: float, spacing: float) -> int:
    cells_float = offset / spacing
    cells = round(cells_float)
    if abs(cells_float - cells) > 1e-9:
        raise DomainError("shift must be a whole number of grid cells")
    return cells


def _shift_function(f: SampledFunction1D, offset: float) -> SampledFunction1D:
    cells = _whole_cells(offset, f.spacing)
    out = np.zeros_like(np.asarray(f.values))
    if cells >= 0:
        if cells < f.n:
            out[cells:] = f.values[: f.n - cells]
    else:
        if -cells < f.n:
            out[: f.n + cells] = f.values[-cells:]
    return SampledFunction1D(f.start, f.spacing, out)


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
    resonant time-window factor. The integral is summed over the window of
    samples where the scatterer's states are nonzero; every term outside it
    is an exact zero.
    """
    return _transition_sum(setup, scatterer, [psi_f], 0)


def _transition_sum(setup, scatterer, finals, cells: int) -> float:
    # sum of first_order_transition over finals, with the scatterer and the
    # finals moved `cells` whole grid cells; the samples moved off the grid
    # drop out, and a moved scatterer must still pass ScattererSpec's checks
    n = scatterer.phi0.n
    lo, hi = scatterer._window
    lo = max(lo, -cells)
    hi = max(lo, min(hi, n - cells))
    phi0, phin = scatterer.phi0.values[lo:hi], scatterer.phin.values[lo:hi]
    if cells:
        _check_internal_states(phi0, phin, scatterer.phi0.spacing)
    psi_i = setup.psi_i
    if not all(psi_i.same_grid(f) for f in (scatterer.phi0, *finals)):
        raise DomainError("psi_i, psi_f and the scatterer must share one grid")
    conj_phin, psi = np.conj(phin), psi_i.values[lo + cells:hi + cells]
    duration = complex(setup.t - setup.t0)
    w_total = 0.0
    for f in finals:
        amplitude = (
            scatterer.strength
            * complex((np.conj(f.values[lo:hi]) * conj_phin * psi * phi0).sum())
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
    and the summed transition probability is divided by the local density
    of the unmoved incident packet. kappa is the mean ratio; the spread
    measures how far the factorization claim holds. Each amplitude is
    summed over the window where the moved scatterer's states are nonzero,
    clipped to the grid, so no moved copy of any packet is built.
    """
    if len(final_set) == 0:
        raise DomainError("need at least one final packet")
    if len(final_set) > _MAX_FINAL_PACKETS:
        raise DomainError(f"final family capped at {_MAX_FINAL_PACKETS} packets")
    mean_x, delta_x = setup._position_width
    ratios = []
    for x0 in centers:
        if abs(x0 - mean_x) > delta_x:
            raise DomainError(
                f"probe center {x0} outside the central region of psi_i"
            )
        density = abs(setup.psi_i.value_at(float(x0))) ** 2
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
    central region. Contact strength and time window are 1. The grid
    (about 34 points per unit of width_ratio) caps width_ratio at 1e4.
    """
    if width_ratio < 2.0:
        raise DomainError("audit needs the packet at least twice the scatterer width")
    if n_centers < 1:
        raise DomainError("need at least one probe center")
    w = 1.0
    # the ground state of the family has position std w/sqrt(2), so this
    # makes the measured width ratio come out at the requested value
    sigma = width_ratio * w / math.sqrt(2.0)
    spacing = 0.25
    half = 6.0 * sigma
    num = int(round(2.0 * half / spacing)) + 1
    if num > _MAX_AUDIT_POINTS:
        raise DomainError(
            f"width ratio {width_ratio:g} needs more than the audit's "
            f"{_MAX_AUDIT_POINTS:,} grid points; the cap is width ratio 1e4"
        )
    psi_i = sampled_gaussian(0.0, sigma, -half, spacing, num)
    internal = final_packet_family(0.0, w, -half, spacing, num, 2)
    scatterer = ScattererSpec(0.0, internal[0], internal[1], 1.0)
    finals = final_packet_family(0.0, w, -half, spacing, num, n_finals)
    setup = TransitionSetup(psi_i, 0.0, 1.0)
    if n_centers == 1:
        offsets = [0.0]
    else:
        offsets = np.linspace(-0.5 * sigma, 0.5 * sigma, n_centers)
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
