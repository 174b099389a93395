"""Equilibrium statistics of quantized wave fields in a cavity.

Mode counting over phase-space cells, the Bose/Fermi/Boltzmann mean
occupancies per cell, spectral distributions, the radiation constant of the
Stefan-Boltzmann law, the collision balance identity that fixes the
equilibrium form (with a sampler of consistent parameter sets for it),
Einstein's A/B recovery from the Planck case, combinatorial entropy with
its thermodynamic derivatives, the von Laue factorization of bundle
degrees of freedom, and the counting laws for quanta seen by an
imperfect detector (negative binomial, binomial, Poisson limit).

The cavity bins are one numpy record array with the columns p, dp,
epsilon, d_epsilon and g (see photon_bins); the spectral counts, the
entropy and its derivatives are array expressions over those columns.

SI units: volumes m^3, temperatures K, energies J, momenta kg m/s.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import numkit
from .errors import AccuracyWarning, DomainError, NumericalError
from .numkit import C_LIGHT, H_PLANCK, K_BOLTZMANN, log_binomial

__all__ = [
    "RADIATION_CONSTANT",
    "Statistics",
    "CavitySpec",
    "CountDistribution",
    "photon_mode_count",
    "photon_bins",
    "spectral_distribution",
    "balance_residual",
    "sample_balance_args",
    "einstein_balance",
    "entropy_and_derivatives",
    "vonlaue_dof",
    "packet_quanta_dist",
    "binomial_pmf",
    "count_distribution",
    "thinned_count_distribution",
    "count_variance",
    "binomial_fold_check",
    "sample_counts",
    "sample_count_moments",
]

# truncated series bookkeeping: the mean deficit is kept under this
_TAIL_MEAN = 1e-13
_MAX_SUPPORT = 10_000_000

# occupancy classes holding fewer packets than this break Stirling
_STIRLING_MIN = 10.0
# classes with less probability than this carry no entropy mass worth guarding
_GUARD_MASS = 1e-9
_LN2 = math.log(2.0)

# a in u = a T^4, the photon-gas energy density (Stefan-Boltzmann law)
RADIATION_CONSTANT = (
    8.0 * math.pi**5 * K_BOLTZMANN**4 / (15.0 * H_PLANCK**3 * C_LIGHT**3)
)


class Statistics(Enum):
    BOSE = "bose"
    FERMI = "fermi"
    BOLTZMANN = "boltzmann"


def photon_mode_count(volume: float, nu, dnu):
    """Cells 4 pi V nu^2 dnu / c^3 per polarization; nu, dnu may be bin arrays."""
    if volume <= 0 or np.any(nu <= 0) or np.any(dnu <= 0):
        raise DomainError("volume, nu and dnu must be positive")
    return 4.0 * math.pi * volume * nu * nu * dnu / C_LIGHT**3


@dataclass(frozen=True)
class CavitySpec:
    """Volume, temperature, chemical potential and occupancy law; the bins carry
    the mode energies, so no particle mass enters."""

    volume: float
    temperature: float
    mu: float
    statistics: Statistics

    def __post_init__(self):
        if self.volume <= 0 or self.temperature <= 0:
            raise DomainError("volume and temperature must be positive")

    @classmethod
    def photon_gas(cls, volume: float, temperature: float) -> "CavitySpec":
        return cls(volume, temperature, 0.0, Statistics.BOSE)


def photon_bins(
    volume: float,
    temperature: float,
    n_bins: int,
    x_lo: float = 1e-3,
    x_hi: float = 40.0,
    polarizations: int = 2,
) -> np.recarray:
    """Log-spaced photon bins covering x = h nu / kT in [x_lo, x_hi].

    A record array: bins.epsilon is a column, and iterating yields records
    with b.epsilon. Each bin is centered on the geometric mean of its
    frequency edges; polarizations multiplies the per-polarization cell
    count, and the default 2 describes the physical cavity field.
    """
    if not (volume > 0 and temperature > 0):
        raise DomainError("volume and temperature must be positive")
    if n_bins < 1:
        raise DomainError("need at least one bin")
    if not 0 < x_lo < x_hi:
        raise DomainError("need 0 < x_lo < x_hi")
    if polarizations not in (1, 2):
        raise DomainError("polarizations must be 1 or 2")
    nu_scale = K_BOLTZMANN * temperature / H_PLANCK
    edges = nu_scale * np.exp(
        np.linspace(math.log(x_lo), math.log(x_hi), n_bins + 1)
    )
    lo, hi = edges[:-1], edges[1:]
    nu = np.sqrt(lo * hi)
    dnu = hi - lo
    p, dp = H_PLANCK * nu / C_LIGHT, H_PLANCK * dnu / C_LIGHT
    # the comparisons let NaN through, as a cell count overflowing does
    if np.any(p <= 0) or np.any(dp <= 0):
        raise DomainError("p, dp and epsilon must be positive")
    g = polarizations * photon_mode_count(volume, nu, dnu)
    return np.rec.fromarrays(
        (p, dp, H_PLANCK * nu, H_PLANCK * dnu, g), names="p,dp,epsilon,d_epsilon,g"
    )


def _law_on_support(log_weight, ratio_after, mean: float, variance: float) -> np.ndarray:
    """exp(log_weight(n)) over n = 0..m, m doubled from mean + 15 sd + 30
    until the tail mean, bounded by the geometric series that ratio_after(m)
    = w(m+1)/w(m) (nonincreasing) gives, is under _TAIL_MEAN * max(1, mean).
    The tail mass is then under _TAIL_MEAN too: it is at most 1/m of the tail
    mean, and m > mean + 29, m >= 29. (The float sum of w is no truncation
    measure: roundoff floors it near 1e-11.)"""
    # the start is compared with the cap as a float: it may overflow to inf
    m = int(min(mean + 15.0 * math.sqrt(variance) + 30.0, _MAX_SUPPORT))
    while m + 1 <= _MAX_SUPPORT:
        w = np.exp(log_weight(np.arange(m + 1, dtype=float)))
        r = ratio_after(m)
        if r < 1.0:
            tail_mean = float(w[-1]) * (m * (r / (1.0 - r)) + r / (1.0 - r) ** 2)
            if tail_mean <= _TAIL_MEAN * max(1.0, mean):
                return w
        m *= 2
    raise NumericalError("count support exceeds the bookkeeping cap")


def _poisson_weights(lam: float) -> np.ndarray:
    if lam == 0.0:
        return np.array([1.0])
    return _law_on_support(lambda s: s * math.log(lam) - lam - numkit.gammaln(s + 1.0),
                           lambda m: lam / (m + 1.0), lam, lam)


def _reduced_energy(bins, temperature: float, mu: float) -> np.ndarray:
    # y = (eps - mu)/kT per bin; beyond the float range +-inf, which each law handles
    with np.errstate(over="ignore"):
        return (bins.epsilon - mu) / (K_BOLTZMANN * temperature)


def _mean_occupancy(statistics: Statistics, y: np.ndarray) -> np.ndarray:
    """Mean quanta per cell at y = (eps - mu)/kT; past y = 700 every law
    is the bare exponential, which keeps exp and expm1 from overflowing."""
    if statistics is Statistics.BOLTZMANN:
        if np.any(y < -700.0):
            raise NumericalError("Boltzmann weight overflows double precision")
        return np.exp(-y)
    tail = np.exp(-np.maximum(y, 700.0))
    core = np.minimum(y, 700.0)
    if statistics is Statistics.FERMI:
        return np.where(y > 700.0, tail, 1.0 / (np.exp(core) + 1.0))
    poles = np.flatnonzero(y <= 0)
    if poles.size:
        raise DomainError(
            f"Bose pole in bin {poles[0]}: epsilon <= mu makes the occupancy diverge"
        )
    return np.where(y > 700.0, tail, 1.0 / np.expm1(core))


def spectral_distribution(cavity: CavitySpec, bins) -> np.ndarray:
    """Expected quanta count N dp per bin: g / (exp((eps-mu)/kT) -+ ... ).

    BOSE uses the minus sign, FERMI the plus sign, BOLTZMANN the bare
    exponential. bins is the record array of photon_bins.
    """
    y = _reduced_energy(bins, cavity.temperature, cavity.mu)
    return bins.g * _mean_occupancy(cavity.statistics, y)


def balance_residual(
    a: float,
    a_prime: float,
    b: float,
    c: float,
    c_prime: float,
    n: int,
    n_prime: int,
    e1i: float,
    e1f: float,
    e2i: float,
    e2f: float,
    s: float,
    r: float,
    s_prime: float,
    r_prime: float,
    b2: float = None,
) -> float:
    """Relative mismatch of the collision balance identity.

    The stationary condition equates the occupancy-probability product
    before a collision that moves n quanta of species 1 (s -> s-n,
    r -> r+n) against n' quanta of species 2, with the product after.
    Exponential cell laws p(s) = a exp(-(b eps - c) s) per species, one
    shared temperature parameter b, satisfy it exactly; b2 overrides the
    second species' b as a deliberate symmetry break.
    """
    for name, value in (("n", n), ("n_prime", n_prime)):
        if int(value) != value or value < 0:
            raise DomainError(f"{name} must be a nonnegative integer")
    if a == 0 or a_prime == 0:
        raise DomainError("normalization factors a, a_prime must be nonzero")
    lhs66 = n * (e1i - e1f)
    rhs66 = n_prime * (e2f - e2i)
    # the rounding of each energy difference scales with its operands, not
    # with the step itself, which may be many orders of magnitude smaller
    scale = n * max(abs(e1i), abs(e1f)) + n_prime * max(abs(e2i), abs(e2f))
    if abs(lhs66 - rhs66) > 1e-12 * scale:
        raise DomainError(
            "energy bookkeeping violated: n(e1i - e1f) must equal n'(e2f - e2i)"
        )
    if s - n < 0 or s_prime - n_prime < 0:
        raise DomainError("collision removes more quanta than the cell holds")
    b_second = b if b2 is None else b2

    def p(occ, eps):
        return a * math.exp(-(b * eps - c) * occ)

    def q(occ, eps):
        return a_prime * math.exp(-(b_second * eps - c_prime) * occ)

    lhs = p(s, e1i) * p(r, e1f) * q(s_prime, e2i) * q(r_prime, e2f)
    rhs = p(s - n, e1i) * p(r + n, e1f) * q(s_prime - n_prime, e2i) * q(
        r_prime + n_prime, e2f
    )
    if lhs == 0.0:
        raise NumericalError("balance product underflowed; rescale the parameters")
    return abs(lhs - rhs) / abs(lhs)


def sample_balance_args(rng) -> dict:
    """One consistent balance_residual parameter set; consumes 14 uniforms."""
    u = rng.uniform(size=14)
    n = 1 + int(3.0 * u[5])
    n_prime = 1 + int(3.0 * u[6])
    e1i = 0.5 + 1.5 * u[7]
    d1 = -0.4 + 0.8 * u[8]
    e2i = 0.5 + 1.5 * u[9]
    return {
        "a": 0.5 + 1.5 * u[0],
        "a_prime": 0.5 + 1.5 * u[1],
        "b": 0.1 + 1.9 * u[2],
        "c": -1.0 + 2.0 * u[3],
        "c_prime": -1.0 + 2.0 * u[4],
        "n": n,
        "n_prime": n_prime,
        "e1i": e1i,
        "e1f": e1i - d1,
        "e2i": e2i,
        "e2f": e2i + n * d1 / n_prime,
        "s": n + 5.0 * u[10],
        "r": 5.0 * u[11],
        "s_prime": n_prime + 5.0 * u[12],
        "r_prime": 5.0 * u[13],
    }


def einstein_balance(
    temperature: float, nu: float, volume: float, dnu: float
) -> tuple:
    """(lhs, rhs, A_over_B) of the two-level balance against Planck radiation.

    With rho the per-polarization Planck spectral energy density, the
    absorption side e^(-eps_lower/kT) rho must equal the emission side
    e^(-eps_upper/kT) (rho + A/B), and the spontaneous/stimulated ratio
    is A/B = 4 pi h nu^3 / c^3.
    """
    if temperature <= 0 or nu <= 0 or volume <= 0 or dnu <= 0:
        raise DomainError("all inputs must be positive")
    x = H_PLANCK * nu / (K_BOLTZMANN * temperature)
    a_over_b = 4.0 * math.pi * H_PLANCK * nu**3 / C_LIGHT**3
    g = photon_mode_count(volume, nu, dnu)
    n_planck = g * math.exp(-x) if x > 700.0 else g / math.expm1(x)
    rho = H_PLANCK * nu * n_planck / (volume * dnu)
    lhs = rho
    rhs = math.exp(-x) * (rho + a_over_b)
    return lhs, rhs, a_over_b


def _cell_entropy(statistics: Statistics, y: np.ndarray, s_bar: np.ndarray) -> tuple:
    """(H, q_light) per bin, the entropy per cell and the Stirling guard's
    share: BOSE and FERMI H = -sum_s q_s ln q_s and the least likely class
    with q_s > _GUARD_MASS (NaN if none); BOLTZMANN H = s_bar (1 + y), s_bar."""
    if statistics is Statistics.BOSE:
        y = np.minimum(y, 800.0)  # exp(-800) is 0: the vacuum alone, H = 0
        # ln q_0 = ln(1 - x), x = exp(-y), each form where it keeps its digits
        log_q0 = np.where(
            y < _LN2,
            np.log(-np.expm1(-np.minimum(y, _LN2))),
            np.log1p(-np.exp(-np.maximum(y, _LN2))),
        )
        # q_s = (1 - x) x^s falls with s; the last s with q_s > _GUARD_MASS
        last = np.ceil((log_q0 - math.log(_GUARD_MASS)) / y) - 1.0
        q_light = np.where(last >= 0, np.exp(log_q0 - y * last), np.nan)
        return y * s_bar - log_q0, q_light
    if statistics is Statistics.FERMI:
        a = np.minimum(np.abs(y), 800.0)
        e = np.exp(-a)
        q_rare = e / (1.0 + e)  # min(q_0, q_1)
        q_light = np.where(q_rare > _GUARD_MASS, q_rare, 1.0 - q_rare)
        return np.log1p(e) + a * q_rare, q_light
    # past y = 800 s_bar is 0, and the clamp keeps 0 * inf out
    return s_bar * (1.0 + np.minimum(y, 800.0)), s_bar


def _entropy_energy_number(
    statistics: Statistics, bins, temperature: float, mu: float
) -> tuple:
    # (S, E, N, q_light) of the bins at (T, mu)
    y = _reduced_energy(bins, temperature, mu)
    s_bar = _mean_occupancy(statistics, y)
    h, q_light = _cell_entropy(statistics, y, s_bar)
    return (
        K_BOLTZMANN * float(np.sum(bins.g * h)),
        float(np.sum(bins.g * s_bar * bins.epsilon)),
        float(np.sum(bins.g * s_bar)),
        q_light,
    )


def entropy_and_derivatives(cavity: CavitySpec, bins) -> tuple:
    """(S, dS_dE, dS_dN) for fixed bins at the cavity's (T, mu).

    BOSE and FERMI count the ways of distributing the cells of each bin
    over the occupancy classes, ln g! - sum_s ln (g q_s)! under Stirling,
    which is g H(q) with H(q) = -sum_s q_s ln q_s in closed form: BOSE H =
    y s_bar - ln(1 - exp(-y)), FERMI H = ln(1 + exp(-|y|)) + |y| min(q_0,
    q_1); Stirling needs every class with q_s > 1e-9 to hold 10 cells.
    BOLTZMANN counts the classical gas, ln(g^N / N!) for the N = g s_bar
    quanta of a bin, N (1 + y) under Stirling, which needs every bin to
    hold 10 quanta; the count is negative, outside its range, in a bin
    with more than e quanta per cell (s_bar > e, so y < -1). An
    AccuracyWarning says when either rule fails.
    The derivatives come from centered finite differences over T and mu
    with the bins held fixed, solved as a 2x2 system; at equilibrium
    they return 1/T and -mu/T.
    """
    if len(bins) == 0:
        raise DomainError("need at least one bin")
    temperature, mu = cavity.temperature, cavity.mu
    stats = cavity.statistics

    s0, _, _, q_light = _entropy_energy_number(stats, bins, temperature, mu)
    if np.any(bins.g * q_light < _STIRLING_MIN):
        sparse = ("bins hold fewer than 10 quanta" if stats is Statistics.BOLTZMANN
                  else "occupancy classes hold fewer than 10 cells")
        warnings.warn(
            f"some {sparse}; the Stirling entropy is degraded", AccuracyWarning,
            stacklevel=2,
        )
    if stats is Statistics.BOLTZMANN and np.any(q_light > math.e):
        warnings.warn(
            "some bins hold more than e quanta per cell; the classical count "
            "ln(g^N/N!) is negative there", AccuracyWarning, stacklevel=2,
        )
    dt = 1e-4 * temperature
    dmu = 1e-4 * max(abs(mu), K_BOLTZMANN * temperature)
    if stats is Statistics.BOSE:
        # the mu stencil must stay below the pole at the lowest bin energy
        dmu = min(dmu, 0.5 * (float(np.min(bins.epsilon)) - mu))

    def sen(t, m):
        return _entropy_energy_number(stats, bins, t, m)[:3]

    # centered differences of (S, E, N): one row over T, one over mu
    diff = np.array([
        np.subtract(sen(temperature + dt, mu), sen(temperature - dt, mu)) / (2 * dt),
        np.subtract(sen(temperature, mu + dmu), sen(temperature, mu - dmu)) / (2 * dmu),
    ])
    try:
        ds_de, ds_dn = np.linalg.solve(diff[:, 1:], diff[:, 0])
    except np.linalg.LinAlgError as exc:
        raise NumericalError("degenerate (T, mu) response; cannot separate dS/dE from dS/dN") from exc
    return s0, float(ds_de), float(ds_dn)


def vonlaue_dof(
    area: float,
    length: float,
    dnu: float,
    focal_area: float,
    packet_dy: float,
    packet_dnu: float = None,
    r: float = 2.0 * math.pi,
) -> tuple:
    """(F, N1, N2, N3, product_ratio) of the bundle degree-of-freedom count.

    F = A l dnu / (a c) counts field degrees of freedom; the packet
    decomposition gives N1 = dnu/Dnu spectral slots, N2 = A/a transverse
    spots, N3 = l/(2 Dy) longitudinal slots. With the average-extension
    convention Dnu = r c / (4 pi Dy) at r = 2 pi, the product recovers F
    exactly; smaller r (tighter packets) overcounts by 2 pi / r.
    """
    if min(area, length, dnu, focal_area, packet_dy) <= 0:
        raise DomainError("all geometric inputs must be positive")
    if r <= 0:
        raise DomainError("extension convention r must be positive")
    f_count = area * length * dnu / (focal_area * C_LIGHT)
    if packet_dnu is None:
        packet_dnu = r * C_LIGHT / (4.0 * math.pi * packet_dy)
    elif packet_dnu <= 0:
        raise DomainError("packet_dnu must be positive")
    n1 = dnu / packet_dnu
    n2 = area / focal_area
    n3 = length / (2.0 * packet_dy)
    return f_count, n1, n2, n3, n1 * n2 * n3 / f_count


def _check_packet_count(g) -> int:
    # the laws use g as a float, which holds every integer only up to 2**53
    if not 1 <= g <= 2**53 or int(g) != g:
        raise DomainError("g must be a positive integer no larger than 2**53")
    return int(g)


def _negative_binomial_weights(g: int, mean_per_packet: float) -> np.ndarray:
    # w(n) = C(g+n-1, n) (1+sb)^(-g) (1+1/sb)^(-n), summed in log space
    sb = mean_per_packet

    def log_weight(n):
        log_w = log_binomial(g + n - 1.0, n) - g * math.log1p(sb)
        # n = 0 takes no odds term: below sb = 2^-1024, 1/sb overflows and
        # 0 * inf would be nan, while every n >= 1 weight is 0 all the same
        log_w[1:] -= n[1:] * math.log1p(1.0 / sb)
        return log_w

    # w(n+1)/w(n) = (g+n)/(n+1) * sb/(1+sb), nonincreasing for g >= 1
    mean = g * sb
    return _law_on_support(log_weight, lambda m: (g + m) / (m + 1.0) * sb / (1.0 + sb),
                           mean, mean * (1.0 + sb))


def binomial_pmf(n: int, eta: float) -> np.ndarray:
    """b(m; n, eta) over m = 0..n."""
    if int(n) != n or n < 0:
        raise DomainError("n must be a nonnegative integer")
    if not 0.0 <= eta <= 1.0:
        raise DomainError("eta must lie in [0, 1]")
    n = int(n)
    if n + 1 > _MAX_SUPPORT:
        raise NumericalError("count support exceeds the bookkeeping cap")
    if eta == 0.0:
        out = np.zeros(n + 1)
        out[0] = 1.0
        return out
    if eta == 1.0:
        out = np.zeros(n + 1)
        out[n] = 1.0
        return out
    m = np.arange(n + 1, dtype=float)
    log_w = log_binomial(float(n), m) + m * math.log(eta) + (n - m) * math.log1p(-eta)
    return np.exp(log_w)


def packet_quanta_dist(statistics: Statistics, g, s_bar: float) -> np.ndarray:
    """w(n; g): probability that g cells hold n quanta in total.

    BOSE gives the negative binomial built from the geometric cell law;
    FERMI the binomial over at most g quanta; BOLTZMANN the Poisson sum
    of independent cells.
    """
    g = _check_packet_count(g)
    if statistics is Statistics.FERMI:
        if not 0.0 < s_bar < 1.0:
            raise DomainError("Fermi cells need 0 < s_bar < 1")
        return binomial_pmf(g, s_bar)
    if s_bar <= 0:
        raise DomainError("s_bar must be positive")
    if statistics is Statistics.BOSE:
        return _negative_binomial_weights(g, s_bar)
    return _poisson_weights(g * s_bar)


@dataclass(frozen=True, eq=False)
class CountDistribution:
    """Detector-count probabilities W(m) from g cells, mean m_bar."""

    statistics: Statistics
    g: int
    m_bar: float
    w: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.w, dtype=float)
        object.__setattr__(self, "w", w)
        if int(self.g) != self.g or self.g < 1:
            raise DomainError("g must be a positive integer")
        if w.ndim != 1 or w.size == 0 or np.any(w < 0):
            raise DomainError("W must be a nonempty nonnegative 1-D array")
        if abs(float(np.sum(w)) - 1.0) > 1e-9:
            raise DomainError("count probabilities must sum to 1 within 1e-9")
        mean = float(np.sum(np.arange(w.size) * w))
        if abs(mean - self.m_bar) > 1e-9 * max(1.0, abs(self.m_bar)):
            raise DomainError("count mean must equal m_bar within 1e-9")
        if self.statistics is Statistics.FERMI and self.m_bar > self.g:
            raise DomainError("Fermi counts cannot exceed the cell count")

    def central_moment(self, order: int) -> float:
        m = np.arange(self.w.size, dtype=float)
        return float(np.sum((m - self.m_bar) ** order * self.w))


def count_distribution(
    statistics: Statistics, g, s_bar: float, eta: float
) -> CountDistribution:
    """Closed-form count law for detection efficiency eta.

    Thinning the cell law by eta only rescales its parameter: BOSE stays
    negative binomial with eta s_bar, FERMI stays binomial with eta
    s_bar, BOLTZMANN stays Poisson with g eta s_bar.
    """
    g = _check_packet_count(g)
    if not 0.0 < eta <= 1.0:
        raise DomainError("eta must lie in (0, 1]")
    if s_bar <= 0:
        raise DomainError("s_bar must be positive")
    thinned = eta * s_bar
    if thinned == 0.0:
        raise DomainError("eta * s_bar underflows to 0")
    if statistics is Statistics.FERMI and thinned >= 1.0:
        raise DomainError("Fermi counts need eta * s_bar < 1")
    w = packet_quanta_dist(statistics, g, thinned)  # the same law at eta * s_bar
    try:  # every input passed its check above, so a failed check is the law's
        return CountDistribution(statistics, g, g * thinned, w)
    except DomainError as exc:
        raise NumericalError(f"count law lost accuracy: {exc}") from None


def thinned_count_distribution(
    statistics: Statistics, g, s_bar: float, eta: float
) -> np.ndarray:
    """Brute-force count law: fold the cell total n over binomial thinning.

    W(m) = sum_n w(n; g) b(m; n, eta). Kept separate from the closed
    forms on purpose; their agreement is the folding consistency check.
    """
    if not 0.0 < eta <= 1.0:
        raise DomainError("eta must lie in (0, 1]")
    if statistics is Statistics.FERMI and not 0.0 < s_bar < 1.0:
        raise DomainError("the folding route needs the Fermi cell law, 0 < s_bar < 1")
    w_quanta = packet_quanta_dist(statistics, g, s_bar)
    out = np.zeros(w_quanta.size)
    for n, weight in enumerate(w_quanta):
        if weight == 0.0:
            continue
        out[: n + 1] += weight * binomial_pmf(n, eta)
    return out


def count_variance(statistics: Statistics, g, m_bar: float) -> float:
    """Variance of the count: m_bar (1 + m_bar/g) Bose, (1 - m_bar/g) Fermi."""
    g = _check_packet_count(g)
    if m_bar < 0:
        raise DomainError("m_bar must be nonnegative")
    if statistics is Statistics.BOSE:
        return m_bar * (1.0 + m_bar / g)
    if statistics is Statistics.FERMI:
        if m_bar > g:
            raise DomainError("Fermi counts cannot exceed the cell count")
        return m_bar * (1.0 - m_bar / g)
    return m_bar


def binomial_fold_check(n1: int, n2: int, eta: float) -> float:
    """Max deviation between b(n1, eta) * b(n2, eta) and b(n1 + n2, eta).

    Two groups thinned at one efficiency fold exactly, to machine precision.
    """
    folded = np.convolve(binomial_pmf(n1, eta), binomial_pmf(n2, eta))
    return float(np.max(np.abs(folded - binomial_pmf(n1 + n2, eta))))


def sample_counts(
    statistics: Statistics, g, s_bar: float, eta: float, n: int, rng
) -> np.ndarray:
    """n Monte Carlo detector counts: draw the cell total, thin by eta.

    Consumes n uniforms (inverse-CDF on the cell total) and n binomial
    draws from the stream, in that order. At eta = 1 the thinning keeps
    every quantum, so the n uniforms are all it consumes.
    """
    if n <= 0:
        raise DomainError("sample count must be positive")
    return _count_sampler(statistics, g, s_bar, eta)(n, rng)


def sample_count_moments(
    statistics: Statistics, g, s_bar: float, eta: float, n: int, rng, workers=1
) -> tuple:
    """(sum, sum of squares) of n sample_counts draws in blocks of MC_BLOCK.

    A binomial takes a variable number of words, so blocks are keyed, not
    addressed: block b draws from rng.split(b), whatever the worker count.
    """
    draw = _count_sampler(statistics, g, s_bar, eta)

    def block(b, size):
        counts = draw(size, rng.split(b)).astype(np.int64)
        return int(np.sum(counts)), int(np.sum(counts**2))

    return numkit.run_blocks(block, n, workers)


def _count_sampler(statistics: Statistics, g, s_bar: float, eta: float):
    # the count law, built once; draw(n, rng) takes n uniforms, then n
    # binomials unless eta = 1, where a binomial would return its n
    if not 0.0 < eta <= 1.0:
        raise DomainError("eta must lie in (0, 1]")
    w = packet_quanta_dist(statistics, g, s_bar)
    cum = np.cumsum(w)

    def draw(n, rng):
        quanta = np.searchsorted(cum, rng.uniform(size=n), side="right")
        quanta = np.minimum(quanta, w.size - 1)
        return quanta if eta == 1.0 else rng.binomial(quanta, eta)

    return draw
