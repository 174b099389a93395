"""Reference implementations that the tests check packetlab's kernels against.

No code in packetlab calls these: an adaptive Simpson quadrature, which
checks the transition amplitudes, the factorization audit summed over the
whole grid by math.fsum, which the sums on the packets' spans must
reproduce, the same audit in the continuum from Gaussian moments in
mpmath, which the grid sums must reproduce to rounding, the position width and the one-particle density summed by
math.fsum, the closed-form Schmidt residual of an (anti)symmetrized
packet pair, the complex SVD that product_form_test skips for real
amplitudes, the sum-per-term symmetrization loop, whose tensor the
in-place one must reproduce bit for bit, the per-cell occupancy law,
which the vectorized cavity columns must reproduce, and the pair sampler
that draws all its pairs at once, which the chunked sampler must
reproduce.
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


def _on_grid(f, psi_i) -> np.ndarray:
    # f's samples placed at their lattice offset on psi_i's grid, zero
    # elsewhere; samples off the grid are dropped
    first = round((f.start - psi_i.start) / psi_i.spacing)
    out = np.zeros(psi_i.n, dtype=complex)
    lo, hi = max(first, 0), min(first + f.n, psi_i.n)
    out[lo:hi] = f.values[lo - first:hi - first]
    return out


def full_grid_transition(setup, scatterer, psi_f, cells: int = 0) -> float:
    """actionprob.first_order_transition with the scatterer and psi_f moved
    `cells` grid cells, its integrand taken on the whole grid of psi_i with
    the same elementwise products and summed exactly by math.fsum."""
    psi_i = setup.psi_i
    terms = (np.conj(_moved(_on_grid(psi_f, psi_i), cells))
             * np.conj(_moved(_on_grid(scatterer.phin, psi_i), cells))
             * psi_i.values
             * _moved(_on_grid(scatterer.phi0, psi_i), cells))
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
        i0 = round((x0 - setup.psi_i.start) / setup.psi_i.spacing)
        ratios.append(w / abs(setup.psi_i.values[i0]) ** 2)
    kappa = math.fsum(ratios) / len(ratios)
    return kappa, max(abs(r - kappa) for r in ratios) / kappa


def _hermite_coefficients(k: int) -> list:
    # the coefficients of H_k in powers of u, by H_(k+1) = 2u H_k - 2k H_(k-1)
    h, previous = [1], [0]
    for j in range(k):
        following = [0] + [2 * c for c in h]
        for i, c in enumerate(previous):
            following[i] -= 2 * j * c
        h, previous = following, h
    return h


def moment_audit(sigma: float, centers, n_finals: int, digits: int = 40) -> tuple:
    """(kappa, max relative spread) of action_ratio_audit on audit_scenario's
    packets in the continuum, exact to `digits` digits, as two floats.

    At a probe x0, u = x - x0, the unit-width scatterer and final k give
    the amplitude c_k c_1 c_0 C integral of H_k(u) H_1(u) exp(-3u^2/2
    - (u + x0)^2 / (4 sigma^2)) du, with C = (2 pi sigma^2)^(-1/4) and c_k
    = (2^k k! sqrt(pi))^(-1/2). Completing the square in the exponent and
    expanding the polynomial about its center leaves a finite sum of
    Gaussian moments, integral v^(2j) exp(-a v^2) dv = Gamma(j + 1/2) /
    a^(j + 1/2). The ratio divides by psi_i(x0)^2 = C^2 exp(-x0^2 / (2
    sigma^2)). sigma and the centers are taken as the floats they are."""
    import mpmath

    with mpmath.workdps(digits):
        s, half = mpmath.mpf(sigma), mpmath.mpf(1) / 2
        a = 3 * half + 1 / (4 * s * s)
        c = [1 / mpmath.sqrt(2**k * mpmath.factorial(k) * mpmath.sqrt(mpmath.pi))
             for k in range(max(n_finals, 2))]
        # H_k H_1 = 2u H_k, in powers of u
        polys = [[0] + [2 * h for h in _hermite_coefficients(k)] for k in range(n_finals)]
        moments = [mpmath.gamma(j + half) / a ** (j + half) for j in range(n_finals // 2 + 1)]
        ratios = []
        for x0 in map(mpmath.mpf, centers):
            # -a u^2 - x0 u / (2 sigma^2) - x0^2 / (4 sigma^2) = -a (u + m)^2 + e
            m = x0 / (4 * a * s * s)
            e = a * m * m - x0 * x0 / (4 * s * s)
            # with v = u + m, only the even powers of v in sum_n p_n (v - m)^n
            # have a nonzero moment
            amplitudes = [
                c[k] * c[1] * c[0] * mpmath.exp(e) * mpmath.fsum(
                    p * mpmath.binomial(n, r) * (-m) ** (n - r) * moments[r // 2]
                    for n, p in enumerate(poly) for r in range(0, n + 1, 2))
                for k, poly in enumerate(polys)
            ]
            # the C^2 of each squared amplitude cancels the C^2 of the density
            ratios.append(mpmath.fsum(w * w for w in amplitudes)
                          / mpmath.exp(-x0 * x0 / (2 * s * s)))
        kappa = mpmath.fsum(ratios) / len(ratios)
        spread = max(abs(r - kappa) for r in ratios) / kappa
        return float(kappa), float(spread)


def fsum_position_width(f) -> float:
    """numkit.position_width(f)[1], its weighted sums taken by math.fsum."""
    p = np.abs(f.values) ** 2
    x = f.grid
    total = math.fsum(p)
    mean = math.fsum(p * x) / total
    return math.sqrt(math.fsum(p * (x - mean) ** 2) / total)


def fsum_density(psi) -> np.ndarray:
    """configspace.one_particle_density(psi), each row of |tensor|^2 summed
    by math.fsum: the first particle's marginal for an untagged pair, twice
    it for a tagged one."""
    factor = 1 if psi.symmetry == "none" else 2
    return np.array([factor * (math.fsum(r) * psi.spacing) for r in np.abs(psi.tensor) ** 2])


def pair_residual(f, g, sign: int) -> float:
    """The exact Schmidt residual of the pair f, g (SampledFunction1D on one
    grid) symmetrized with sign, as product_form_test reports it.

    A fermion pair f ^ g is one Slater determinant of two orthonormal
    states of span{f, g}: two Schmidt weights of 1/2, so 0.5. A boson pair
    f g + g f has weights (1 +- |S|)^2 / (2 (1 + |S|^2)), with S the grid
    overlap of the normalized packets, summed here by math.fsum; the
    residual is the smaller one."""
    if sign == -1:
        return 0.5
    norm_f, norm_g = (math.fsum(np.abs(h.values) ** 2) for h in (f, g))
    terms = np.conj(f.values) * g.values
    overlap = abs(complex(math.fsum(terms.real), math.fsum(terms.imag)))
    overlap /= math.sqrt(norm_f * norm_g)
    return (1.0 - overlap) ** 2 / (2.0 * (1.0 + overlap**2))


def complex_svd_residual(psi) -> tuple:
    """(is_product, schmidt_residual) of product_form_test computed by the
    complex SVD, with the amplitudes cast to complex."""
    m = psi.tensor.astype(complex) * psi.spacing
    s = np.linalg.svd(m, compute_uv=False)
    rest = s[1:]
    return bool(s[1] < 1e-8), float(np.sum(rest[rest > s[0] * max(m.shape) * 2.0**-52] ** 2))


def loop_symmetrize(psi, sign: int) -> np.ndarray:
    """The tensor of configspace.symmetrize(psi, sign) as the loop
    total = total + factor * transpose built it, a new array per term,
    normalized, then copied by the constructor."""
    t = psi.tensor
    total = np.zeros_like(t)
    for factor, term in ((1.0, t), (float(sign), t.T)):
        total = total + factor * term
    norm = math.sqrt(float(np.sum(np.abs(total) ** 2)) * psi.spacing**2)
    return np.array(total / norm, dtype=complex)


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
