"""Spreading and coherence of free relativistic wave packets.

Gaussian packets spread at an asymptotically constant velocity set by
their momentum-space width. For a minimum-uncertainty packet of a
massive particle the transverse and longitudinal bounds on that velocity
differ by a factor (1 - beta^2): a fast packet spreads along its flight
line far more slowly than sideways. The bounds scale as 1/kappa, so they
need a finite Compton wavenumber: Dispersion takes a positive mass.

SI units throughout (meters, seconds, kilograms, joules).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError
from .numkit import C_LIGHT, E_CHARGE, HBAR, M_ELECTRON, SampledFunction1D, np

__all__ = [
    "Dispersion",
    "PacketEvolution",
    "carrier_wavenumber",
    "group_velocity",
    "width_at_time",
    "tau_doubling",
    "min_width_spreading_bound",
    "spread_after_flight",
    "coherence_profile",
    "accumulation_time",
    "stern_gerlach_deflection",
    "intrinsic_moment",
    "BOHR_MAGNETON",
]

# |gamma| crossing that defines the coherence length
_COHERENCE_LEVEL = math.exp(-0.5)


@dataclass(frozen=True)
class Dispersion:
    """Free relativistic dispersion omega = c sqrt(k^2 + kappa^2), kappa = mc/hbar."""

    mass: float

    def __post_init__(self):
        if not self.mass > 0:
            raise DomainError("mass must be positive")

    @property
    def kappa(self) -> float:
        return self.mass * C_LIGHT / HBAR


@dataclass(frozen=True)
class PacketEvolution:
    """One-axis width history: sigma(t)^2 = sigma0^2 + dv_g^2 (t - t0)^2."""

    sigma0: float
    t0: float
    dv_g: float

    def __post_init__(self):
        if self.sigma0 <= 0:
            raise DomainError("initial width must be positive")
        if self.dv_g < 0:
            raise DomainError("group-velocity spread must be nonnegative")


def carrier_wavenumber(dispersion: Dispersion, kinetic: float) -> float:
    """Carrier k0 = pc / (hbar c) at kinetic energy T (J): (pc)^2 = T (T + 2 mc^2)."""
    if not kinetic > 0:
        raise DomainError("kinetic energy must be positive")
    mc2 = dispersion.mass * C_LIGHT**2
    return math.sqrt(kinetic * (kinetic + 2.0 * mc2)) / (HBAR * C_LIGHT)


def group_velocity(dispersion: Dispersion, k0: float) -> tuple:
    """(v0, omega0) at carrier k0: omega0 = c sqrt(k0^2 + kappa^2), v0 = k0 c^2 / omega0."""
    if k0 < 0:
        raise DomainError("carrier wavenumber must be nonnegative")
    omega0 = C_LIGHT * math.hypot(k0, dispersion.kappa)
    return k0 * C_LIGHT**2 / omega0, omega0


def width_at_time(evolution: PacketEvolution, t: float) -> float:
    return math.hypot(evolution.sigma0, evolution.dv_g * (t - evolution.t0))


def tau_doubling(evolution: PacketEvolution) -> float:
    """Time for the width to double: sqrt(3) sigma0 / dv_g.

    At this moment the spreading velocity has already reached
    (sqrt(3)/2) ~ 87% of its asymptote, which is why the asymptotic
    rate is the honest figure of merit for any flight much longer
    than the doubling time.
    """
    if evolution.dv_g == 0:
        return math.inf
    return math.sqrt(3.0) * evolution.sigma0 / evolution.dv_g


def min_width_spreading_bound(
    dispersion: Dispersion, k0: float, delta_x0: float, direction: str
) -> float:
    """Least possible asymptotic spreading velocity for initial width delta_x0.

    The minimum-uncertainty packet saturates dk >= 1/(2 dx). Transverse
    bound: c (1-beta^2)^(1/2) / (2 kappa dx0); longitudinal picks up one
    more power of (1-beta^2).
    """
    if delta_x0 <= 0:
        raise DomainError("initial width must be positive")
    v0, omega0 = group_velocity(dispersion, k0)
    beta_sq = (v0 / C_LIGHT) ** 2
    kappa = dispersion.kappa
    if direction == "transverse":
        return C_LIGHT * math.sqrt(1.0 - beta_sq) / (2.0 * kappa * delta_x0)
    if direction == "longitudinal":
        return C_LIGHT * (1.0 - beta_sq) ** 1.5 / (2.0 * kappa * delta_x0)
    raise DomainError("direction must be 'transverse' or 'longitudinal'")


def spread_after_flight(
    dispersion: Dispersion,
    k0: float,
    width0: float,
    distance: float,
    direction: str = "transverse",
) -> dict:
    """Width growth over a straight flight, minimum-uncertainty initial packet.

    Returns a dict with the carrier kinematics (v0, omega0, beta), the
    asymptotic spreading velocity for the chosen direction, the doubling
    time, flight time, the final width, and which regime applied
    ("asymptotic" when the flight lasts at least three doubling times,
    else "exact").
    """
    if width0 <= 0 or distance <= 0:
        raise DomainError("width0 and distance must be positive")
    v0, omega0 = group_velocity(dispersion, k0)
    beta = v0 / C_LIGHT
    v_spread = min_width_spreading_bound(dispersion, k0, width0, direction)
    flight_time = distance / v0
    evolution = PacketEvolution(width0, 0.0, v_spread)
    tau2 = tau_doubling(evolution)
    if flight_time >= 3.0 * tau2:
        final_width = v_spread * flight_time
        regime = "asymptotic"
    else:
        final_width = width_at_time(evolution, flight_time)
        regime = "exact"
    return {
        "v0": v0,
        "omega0": omega0,
        "beta": beta,
        "kappa": dispersion.kappa,
        "v_spread": v_spread,
        "tau2": tau2,
        "flight_time": flight_time,
        "final_width": final_width,
        "regime": regime,
    }


def coherence_profile(psi: SampledFunction1D, shifts) -> tuple:
    """(|gamma| at the requested shifts, coherence length).

    gamma(b) = integral psi*(y) psi(y + b) dy for a unit-norm psi, zero off
    the grid. At whole-cell shifts it is the inverse FFT of |psi_hat|^2
    (Wiener-Khinchin), zero-padded to 2N so the correlation does not wrap;
    between cells it is interpolated linearly, and gamma(-b) = gamma(b)*.
    The coherence length is where |gamma| first falls to e^(-1/2) on that
    cell ladder, refined by linear interpolation; None if |gamma| never
    crosses inside the grid.
    """
    if abs(psi.norm_sq() - 1.0) > 1e-8:
        raise DomainError("psi must be normalized to 1 within 1e-8")
    shifts = np.asarray(shifts, dtype=float)
    beyond = np.abs(shifts) > psi.end - psi.start
    if beyond.any():
        raise DomainError(f"shift {shifts[beyond][0]} extends beyond the sampled grid")

    n = psi.n
    dx = psi.spacing
    power = np.abs(np.fft.fft(psi.values, 2 * n))  # the spectrum is not kept
    np.square(power, out=power)
    gamma = np.fft.ifft(power)[:n]
    gamma *= dx
    requested = np.abs(np.interp(np.abs(shifts) / dx, np.arange(n), gamma)).tolist()

    magnitude = np.abs(gamma)
    below = np.flatnonzero(magnitude[1:] <= _COHERENCE_LEVEL)
    if below.size == 0:
        return requested, None
    j = int(below[0]) + 1
    prev, cur = float(magnitude[j - 1]), float(magnitude[j])
    # linear interpolation between the straddling cells
    return requested, (j - 1) * dx + dx * (prev - _COHERENCE_LEVEL) / (prev - cur)


def accumulation_time(energy_threshold: float, flux: float, area: float) -> float:
    """Time for a steady energy flux to pile threshold energy onto one target area."""
    if energy_threshold <= 0 or flux <= 0 or area <= 0:
        raise DomainError("threshold, flux and area must all be positive")
    return energy_threshold / (flux * area)


def stern_gerlach_deflection(
    mu_z: float, grad_b: float, dt: float, p_y: float
) -> float:
    """Deflection angle alpha_z = mu_z (dB_z/dz) dt / p_y of a beam splitter."""
    if p_y <= 0:
        raise DomainError("beam momentum must be positive")
    if dt <= 0:
        raise DomainError("transit time must be positive")
    return mu_z * grad_b * dt / p_y


def intrinsic_moment(mass: float) -> float:
    """Magnetic moment e hbar / 2m of a unit-charge spin-1/2 particle."""
    if mass <= 0:
        raise DomainError("mass must be positive")
    return E_CHARGE * HBAR / (2.0 * mass)


BOHR_MAGNETON = intrinsic_moment(M_ELECTRON)
