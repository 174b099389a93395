"""Reference implementations that the tests check packetlab's kernels against.

No code in packetlab calls these: an adaptive Simpson quadrature, which
checks the transition amplitudes, the factorization audit summed over the
whole grid by math.fsum, which the windowed sums must reproduce, the
per-cell occupancy law, which the vectorized cavity columns must reproduce,
and the pair sampler that draws all its pairs at once, which the chunked
sampler must reproduce.
"""

import math
from dataclasses import dataclass

import numpy as np

from packetlab import quantstat
from packetlab.errors import DomainError, NumericalError
from packetlab.numkit import K_BOLTZMANN
from packetlab.quantstat import Statistics
from packetlab.spincorr import ModelKind

_SIMPSON_MAX_DEPTH = 30


def integrate_1d(f, a: float, b: float, tol: float = 1e-10):
    """Adaptive Simpson integral of a real or complex function on [a, b].

    The recursion depth is capped at 30; exhausting it raises
    NumericalError rather than returning a silently degraded value.
    """
    if not a < b:
        raise DomainError("integration requires a < b")
    if not tol > 0:
        raise DomainError("tol must be positive")
    fa, fb = f(a), f(b)
    m = 0.5 * (a + b)
    fm = f(m)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    return _adaptive_simpson(f, a, b, fa, fm, fb, whole, tol, _SIMPSON_MAX_DEPTH)


def _adaptive_simpson(f, a, b, fa, fm, fb, whole, tol, depth):
    m = 0.5 * (a + b)
    lm = 0.5 * (a + m)
    rm = 0.5 * (m + b)
    flm, frm = f(lm), f(rm)
    left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
    right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
    err = left + right - whole
    if abs(err) <= 15.0 * tol:
        return left + right + err / 15.0
    if depth <= 0:
        raise NumericalError(
            f"adaptive Simpson did not converge on [{a}, {b}] within depth "
            f"{_SIMPSON_MAX_DEPTH}"
        )
    return _adaptive_simpson(
        f, a, m, fa, flm, fm, left, tol / 2.0, depth - 1
    ) + _adaptive_simpson(f, m, b, fm, frm, fb, right, tol / 2.0, depth - 1)


def _moved(values: np.ndarray, cells: int) -> np.ndarray:
    # values moved `cells` samples along the grid; what leaves it is dropped
    out = np.zeros_like(values)
    n = values.size
    if 0 <= cells < n:
        out[cells:] = values[: n - cells]
    elif -n < cells < 0:
        out[: n + cells] = values[-cells:]
    return out


def full_grid_transition(setup, scatterer, psi_f, cells: int = 0) -> float:
    """actionprob.first_order_transition with the scatterer and psi_f moved
    `cells` grid cells, its integrand taken on the whole grid with the same
    elementwise products and summed exactly by math.fsum."""
    terms = (np.conj(_moved(psi_f.values, cells))
             * np.conj(_moved(scatterer.phin.values, cells))
             * setup.psi_i.values
             * _moved(scatterer.phi0.values, cells))
    integral = complex(math.fsum(terms.real), math.fsum(terms.imag))
    amplitude = scatterer.strength * integral * setup.psi_i.spacing
    return abs(complex(setup.t - setup.t0) * amplitude) ** 2


def full_grid_audit(setup, scatterer, centers, finals) -> tuple:
    """(kappa, max relative spread) of actionprob.action_ratio_audit on
    valid input, every sum taken on the whole grid by math.fsum."""
    ratios = []
    for x0 in centers:
        cells = round((x0 - scatterer.center) / setup.psi_i.spacing)
        w = math.fsum(full_grid_transition(setup, scatterer, f, cells) for f in finals)
        ratios.append(w / abs(setup.psi_i.value_at(x0)) ** 2)
    kappa = math.fsum(ratios) / len(ratios)
    return kappa, max(abs(r - kappa) for r in ratios) / kappa


@dataclass(frozen=True, eq=False)
class OccupancyDistribution:
    """Probabilities q(s) that one cell holds s quanta, plus the mean."""

    statistics: Statistics
    s_bar: float
    q: np.ndarray

    def __post_init__(self):
        q = np.asarray(self.q, dtype=float)
        object.__setattr__(self, "q", q)
        if q.ndim != 1 or q.size == 0 or np.any(q < 0):
            raise DomainError("q must be a nonempty nonnegative 1-D array")
        if abs(float(np.sum(q)) - 1.0) > 1e-10:
            raise DomainError("occupancy probabilities must sum to 1 within 1e-10")
        mean = float(np.sum(np.arange(q.size) * q))
        if abs(mean - self.s_bar) > 1e-10 * max(1.0, abs(self.s_bar)):
            raise DomainError("occupancy mean must equal s_bar within 1e-10")
        if self.statistics is Statistics.FERMI and q.size > 2 and np.any(q[2:] != 0.0):
            raise DomainError("Fermi occupancy is supported on s in {0, 1}")


def _geometric_weights(x: float, s_bar: float) -> np.ndarray:
    # support chosen so both the tail mass x^(M+1) and the tail mean
    # x^(M+1) (M+1+s_bar) stay under the truncation budget
    log_x = math.log(x)
    m = max(1, math.ceil(math.log(quantstat._TAIL_MEAN) / log_x))
    for _ in range(8):
        if x ** (m + 1) * (m + 1 + s_bar) <= quantstat._TAIL_MEAN:
            break
        m = math.ceil((math.log(quantstat._TAIL_MEAN) - math.log(m + 1 + s_bar)) / log_x)
    if m + 1 > quantstat._MAX_SUPPORT:
        raise NumericalError(
            "occupancy support exceeds the bookkeeping cap; mode too close to the pole"
        )
    s = np.arange(m + 1, dtype=float)
    return -math.expm1(log_x) * np.exp(log_x * s)


def occupancy(
    statistics: Statistics, epsilon: float, mu: float, temperature: float
) -> OccupancyDistribution:
    """Equilibrium distribution of the quanta count in one cell.

    BOSE: geometric q(s) = (1-x) x^s with x = exp(-(eps-mu)/kT), needs
    eps > mu. FERMI: two-point law on {0, 1}. BOLTZMANN: Poisson with
    mean x, the no-condensation reduction.
    """
    if temperature <= 0:
        raise DomainError("temperature must be positive")
    y = (epsilon - mu) / (K_BOLTZMANN * temperature)
    if statistics is Statistics.BOSE:
        if y <= 0:
            raise DomainError("Bose occupancy diverges for epsilon <= mu")
        x = math.exp(-y)
        if x == 0.0:
            return OccupancyDistribution(statistics, 0.0, np.array([1.0]))
        s_bar = x / -math.expm1(-y)
        return OccupancyDistribution(statistics, s_bar, _geometric_weights(x, s_bar))
    if statistics is Statistics.FERMI:
        # logistic filling, evaluated on the stable side
        if y >= 0:
            e = math.exp(-y)
            q1 = e / (1.0 + e)
        else:
            q1 = 1.0 / (1.0 + math.exp(y))
        return OccupancyDistribution(statistics, q1, np.array([1.0 - q1, q1]))
    if y < -700.0:
        raise NumericalError("Boltzmann weight overflows double precision")
    lam = math.exp(-y)
    return OccupancyDistribution(statistics, lam, quantstat._poisson_weights(lam))


def one_shot_pair_counts(model, a, b, n: int, rng) -> tuple:
    """spincorr.sample_pair_counts with all 4n uniforms and every temporary
    for the n pairs drawn at once: the same arithmetic, unchunked."""
    if model.kind is ModelKind.TRIPLET:
        raise DomainError("no sampling law for triplet states")
    if n <= 0:
        raise DomainError("n must be positive")
    u = rng.uniform(size=4 * n).reshape(n, 4)
    singlet = model.kind is ModelKind.QM_SINGLET
    axes = (a,) if singlet else (a, b)
    need_x = any(v.x != 0.0 for v in axes)
    need_y = any(v.y != 0.0 for v in axes)
    z = 2.0 * u[:, 0] - 1.0
    if need_x or need_y:
        s = np.sqrt(np.clip(1.0 - z * z, 0.0, None))
        phi = 2.0 * math.pi * u[:, 1]
    sx = s * np.cos(phi) if need_x else None
    sy = s * np.sin(phi) if need_y else None

    def sigma_dot(v):
        (c0, w0), *rest = [(c, w) for c, w in ((sx, v.x), (sy, v.y), (z, v.z))
                           if w != 0.0]
        total = c0 * w0
        for c, w in rest:
            total += c * w
        return total

    a_minus = u[:, 2] >= 0.5 * (1.0 + sigma_dot(a))
    if singlet:
        cos_ab = float(a.as_array() @ b.as_array())
        p_b_plus = np.where(a_minus, 0.5 * (1.0 + cos_ab), 0.5 * (1.0 - cos_ab))
    else:
        p_b_plus = 0.5 * (1.0 - sigma_dot(b))
    b_minus = u[:, 3] >= p_b_plus
    n_am, n_bm, n_mm = (int(np.count_nonzero(m))
                        for m in (a_minus, b_minus, a_minus & b_minus))
    return n - n_am - n_bm + n_mm, n_bm - n_mm, n_am - n_mm, n_mm
