"""Shared numerical substrate.

Unit vectors, reproducible PCG64 random streams and the samplers
that draw from them (isotropic directions, Box-Muller normals, Haar
unitaries, bounded integers), fixed Monte Carlo blocks, log-space
binomial coefficients, sampled 1-D functions and their position/wavenumber
widths, plus the physical constants and the special functions the other
modules share.

Everything is desk scale on purpose: the wavenumber moments come from
numpy's FFT.
"""

from __future__ import annotations

import functools
import importlib.util
import itertools
import math
import os
import sys
import threading
from dataclasses import dataclass

from .errors import DomainError


class _PinnedLoader:
    """numpy's own loader, run with one OpenBLAS thread unless the caller set
    a count: OpenBLAS reads the variable once, as numpy loads it, so it is set
    for that load only and the environment is left as it was found."""

    def __init__(self, loader):
        self.loader = loader

    def exec_module(self, module):
        module.__spec__.loader = module.__loader__ = self.loader
        pin = not any(v in os.environ for v in
                      ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"))
        if pin:
            os.environ["OPENBLAS_NUM_THREADS"] = "1"
        try:
            self.loader.exec_module(module)
        finally:
            if pin:
                del os.environ["OPENBLAS_NUM_THREADS"]


# packetlab's one numpy import: numpy as loaded, else a module in its place
# that loads it on first attribute access or on a plain `import numpy`
np = sys.modules.get("numpy")
if np is None:
    _spec = importlib.util.find_spec("numpy")
    np = sys.modules["numpy"] = importlib.util.module_from_spec(_spec)
    importlib.util.LazyLoader(_PinnedLoader(_spec.loader)).exec_module(np)

__all__ = [
    "UnitVector3",
    "normalize",
    "RandomStream",
    "SampledFunction1D",
    "sample_isotropic_directions",
    "sample_normals",
    "sample_haar_unitary",
    "sample_integer",
    "run_blocks",
    "log_binomial",
    "fourier_widths",
    "position_width",
    "sampled_gaussian",
]

# CODATA 2022, as scipy.constants carries them (c, h and e exact by the SI)
C_LIGHT = 299792458.0  # m/s
H_PLANCK = 6.62607015e-34  # J s
HBAR = 1.0545718176461565e-34  # J s, h / (2 pi)
K_BOLTZMANN = 1.380649e-23  # J/K
E_CHARGE = 1.602176634e-19  # C
M_ELECTRON = 9.1093837139e-31  # kg
M_PROTON = 1.67262192595e-27  # kg

_UNIT_TOL = 1e-12
# below this 2-norm the sum of squares is subnormal and has lost digits
_TINY_NORM = math.sqrt(sys.float_info.min)
MIN_SAMPLES = 8  # fewest grid points a SampledFunction1D holds


@dataclass(frozen=True)
class UnitVector3:
    """A direction on the unit sphere (apparatus axis, spin direction)."""

    x: float
    y: float
    z: float

    def __post_init__(self):
        n = math.sqrt(self.x * self.x + self.y * self.y + self.z * self.z)
        if not abs(n - 1.0) <= _UNIT_TOL:  # also true for a NaN norm
            raise DomainError(
                f"unit vector norm {n!r} deviates from 1 by more than {_UNIT_TOL}"
            )

    @classmethod
    def from_array(cls, arr) -> "UnitVector3":
        a = np.asarray(arr, dtype=float)
        if a.shape != (3,):
            raise DomainError("expected exactly three components")
        return cls(float(a[0]), float(a[1]), float(a[2]))

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z])

    def dot(self, other: "UnitVector3") -> float:
        return self.x * other.x + self.y * other.y + self.z * other.z


def normalize(values) -> tuple:
    """(values / |values|, |values|): a unit float array and its 2-norm.

    A sum of squares that overflows or is subnormal is retaken after dividing
    by the largest magnitude; a zero vector comes back as itself with norm 0.
    """
    arr = np.asarray(values, dtype=float)
    with np.errstate(over="ignore", under="ignore"):
        norm = float(np.linalg.norm(arr))
        scale = float(np.max(np.abs(arr), initial=0.0))
        if scale > 0.0 and not _TINY_NORM <= norm < math.inf:
            arr = arr / scale
            norm = float(np.linalg.norm(arr))
            return arr / norm, scale * norm
    return (arr / norm if norm else arr), norm


class RandomStream:
    """Reproducible stream of variates keyed by (seed, stream_id).

    Built on numpy's PCG64, seeded by SeedSequence(seed, spawn_key=(stream_id,)),
    so identical keys give identical sequences on every platform and distinct
    stream ids give independent sequences. ``position`` counts variates
    delivered to callers, which pins down the consumption order documented
    by each sampler. PCG64 makes one 64-bit output per uniform, so a stream
    may start at any nonnegative ``position``; it then matches a fresh stream
    that has drawn that many uniforms.
    """

    def __init__(self, seed: int = 0, stream_id: int = 0, position: int = 0):
        seed, stream_id, position = int(seed), int(stream_id), int(position)
        if not (0 <= seed < 2**64 and 0 <= stream_id < 2**64):
            raise DomainError("seed and stream_id must be unsigned 64-bit integers")
        if position < 0:
            raise DomainError("position must be nonnegative")
        self.seed, self.stream_id, self.position = seed, stream_id, position
        # numpy.random loads with the first stream
        bits = np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(stream_id,)))
        self._gen = np.random.Generator(bits.advance(position))

    def split(self, stream_id: int) -> "RandomStream":
        """Independent stream with the same seed and a new stream id."""
        return RandomStream(self.seed, stream_id)

    def uniform(self, size=None, out=None):
        """Standard uniforms in [0, 1), written into out if it is given."""
        out = self._gen.random(size, out=out)
        self.position += 1 if size is None else int(np.prod(size))
        return out

    def binomial(self, n, p, size=None):
        out = self._gen.binomial(n, p, size)
        self.position += int(np.size(out))
        return out

    def __repr__(self):
        return (
            f"RandomStream(seed={self.seed}, stream_id={self.stream_id}, "
            f"position={self.position})"
        )


def sample_isotropic_directions(rng: RandomStream, n: int) -> np.ndarray:
    """(n, 3) array of directions uniform on the sphere, by inverse CDF.

    Row i takes uniforms 2i and 2i + 1 of the draw: cos(polar angle) =
    2 u - 1 is uniform on [-1, 1], then the azimuth 2 pi u' on [0, 2pi).
    Exactly 2n uniforms are consumed, so n rows and then m rows equal one
    call of n + m rows.
    """
    if n <= 0:
        raise DomainError("n must be positive")
    u = rng.uniform(size=2 * n)
    z = 2.0 * u[0::2] - 1.0
    phi = 2.0 * math.pi * u[1::2]
    s = np.sqrt(np.clip(1.0 - z * z, 0.0, None))
    return np.column_stack([s * np.cos(phi), s * np.sin(phi), z])


def sample_normals(rng: RandomStream, n: int) -> np.ndarray:
    """n Box-Muller normals; consumes 2*ceil(n/2) uniforms."""
    m = (n + 1) // 2
    u1 = 1.0 - rng.uniform(size=m)  # (0, 1], keeps the log finite
    u2 = rng.uniform(size=m)
    radius = np.sqrt(-2.0 * np.log(u1))
    z = np.concatenate([radius * np.cos(2.0 * np.pi * u2),
                        radius * np.sin(2.0 * np.pi * u2)])
    return z[:n]


def sample_haar_unitary(rng: RandomStream, dim: int) -> np.ndarray:
    """Haar-distributed unitary via QR with the phase convention fixed."""
    z = sample_normals(rng, dim * dim) + 1j * sample_normals(rng, dim * dim)
    q, r = np.linalg.qr(z.reshape(dim, dim) / math.sqrt(2.0))
    diag = np.diagonal(r).copy()
    diag[diag == 0] = 1.0
    return q * (diag / np.abs(diag))


def sample_integer(rng: RandomStream, lo: int, hi: int) -> int:
    """Uniform integer in [lo, hi], one uniform consumed."""
    return min(lo + int(float(rng.uniform()) * (hi - lo + 1)), hi)


# Monte Carlo draws per block, the unit of thread work and of stream
# addressing; a block's arrays stay a few MB at any n, and the pair
# sampler and the lhv audit work through each block in smaller chunks
MC_BLOCK = 2**16


def run_blocks(work, n: int, workers: int = 1, combine=lambda x, y: tuple(map(sum, zip(x, y)))):
    """work(b, size) over the blocks b of n draws, folded by combine.

    Blocks hold MC_BLOCK draws, the last one the rest. Thread i of
    min(workers, os.cpu_count(), blocks) folds in blocks i, i + threads, ...
    one at a time, so memory does not grow with n; combine, by default the
    exact elementwise sum of integer tuples, must not depend on order.
    """
    if n <= 0:
        raise DomainError("n must be positive")
    blocks = -(-n // MC_BLOCK)
    threads = min(workers, os.cpu_count() or 1, blocks)
    stop = threading.Event()  # a block raised or the caller left: end each stride

    def part(i):
        stride = itertools.takewhile(lambda b: b == i or not stop.is_set(),
                                     range(i, blocks, threads))
        return functools.reduce(combine, (work(b, min(MC_BLOCK, n - b * MC_BLOCK))
                                          for b in stride))

    if threads == 1:
        return part(0)
    from concurrent.futures import FIRST_EXCEPTION, ThreadPoolExecutor, wait  # only with threads
    np.ndarray  # a lazy numpy loads here, as its load is not thread-safe

    with ThreadPoolExecutor(threads) as pool:
        try:
            parts = [pool.submit(part, i) for i in range(threads)]
            wait(parts, return_when=FIRST_EXCEPTION)
        finally:
            stop.set()
        return functools.reduce(combine, [f.result() for f in parts])


def gammaln(x):
    """ln Gamma(x) for x > 0, elementwise; a scalar input gives a float.

    Each entry goes through math.lgamma, which keeps ln Gamma(1) =
    ln Gamma(2) = 0 exact.
    """
    arr = np.asarray(x, dtype=float)
    if not np.all(arr > 0.0):
        raise DomainError("gammaln needs x > 0")
    out = np.fromiter(map(math.lgamma, arr.reshape(-1).tolist()), float, arr.size)
    return float(out[0]) if arr.ndim == 0 else out.reshape(arr.shape)


def log_binomial(n, k):
    """ln C(n, k) through log-gamma.

    k must be a nonnegative integer; n may be real (generalized
    coefficients) but must satisfy n >= k so the coefficient is positive.
    Accepts arrays and broadcasts.
    """
    n_arr = np.asarray(n, dtype=float)
    k_arr = np.asarray(k, dtype=float)
    if np.any(k_arr < 0):
        raise DomainError("k must be nonnegative")
    if np.any(k_arr != np.floor(k_arr)):
        raise DomainError("k must be an integer")
    if np.any(n_arr < k_arr):
        raise DomainError("n must be at least k")
    out = gammaln(n_arr + 1.0) - gammaln(k_arr + 1.0) - gammaln(n_arr - k_arr + 1.0)
    if np.isscalar(n) and np.isscalar(k):
        return float(out)
    return out


def sample_array(values) -> np.ndarray:
    """A new array of values, complex128 if they are complex, else float64."""
    return np.array(values, dtype=complex if np.iscomplexobj(values) else float)


class SampledFunction1D:
    """Real or complex function sampled on a uniform 1-D grid."""

    __slots__ = ("start", "spacing", "values")

    def __init__(self, start: float, spacing: float, values):
        vals = sample_array(values)
        if vals.ndim != 1:
            raise DomainError("values must be a one dimensional sequence")
        if vals.size < MIN_SAMPLES:
            raise DomainError(f"need at least {MIN_SAMPLES} samples")
        if not spacing > 0:
            raise DomainError("spacing must be positive")
        vals.setflags(write=False)
        self.start = float(start)
        self.spacing = float(spacing)
        self.values = vals

    @property
    def n(self) -> int:
        return self.values.size

    @property
    def grid(self) -> np.ndarray:
        return self.start + self.spacing * np.arange(self.values.size)

    @property
    def end(self) -> float:
        return self.start + self.spacing * (self.values.size - 1)

    def norm_sq(self) -> float:
        return float(np.sum(np.abs(self.values) ** 2) * self.spacing)

    def normalized(self) -> "SampledFunction1D":
        nsq = self.norm_sq()
        if nsq <= 0.0:
            raise DomainError("cannot normalize a zero function")
        # times the reciprocal, as numpy divides complex samples by a real norm
        return SampledFunction1D(self.start, self.spacing, self.values * (1.0 / math.sqrt(nsq)))

    def same_grid(self, other: "SampledFunction1D") -> bool:
        return (
            self.values.size == other.values.size
            and abs(self.start - other.start) <= 1e-12 * max(1.0, abs(self.start))
            and abs(self.spacing - other.spacing) <= 1e-15 * self.spacing
        )


def sampled_gaussian(
    center: float,
    sigma: float,
    start: float,
    spacing: float,
    num: int,
    k0: float = 0.0,
) -> SampledFunction1D:
    """Normalized Gaussian packet with position width sigma and carrier k0.

    psi(x) = (2 pi sigma^2)^(-1/4) exp(-(x-center)^2/(4 sigma^2) + i k0 x)
    """
    if sigma <= 0:
        raise DomainError("sigma must be positive")
    x = start + spacing * np.arange(num)
    env = (2.0 * math.pi * sigma * sigma) ** -0.25 * np.exp(
        -((x - center) ** 2) / (4.0 * sigma * sigma)
    )
    return SampledFunction1D(start, spacing, env * np.exp(1j * k0 * x) if k0 else env)


def position_width(psi: SampledFunction1D) -> tuple:
    """(mean, standard deviation) of position under |psi|^2."""
    p = np.abs(psi.values) ** 2 * psi.spacing
    total = p.sum()
    if total <= 0:
        raise DomainError("zero function has no width")
    p = p / total
    x = psi.grid
    mean = float(np.dot(p, x))
    var = float(np.dot(p, (x - mean) ** 2))
    return mean, math.sqrt(max(var, 0.0))


def fourier_widths(psi: SampledFunction1D) -> tuple:
    """Standard deviations of position and wavenumber, (delta_x, delta_k).

    The wavenumber weights are |FFT|^2 on the signed DFT frequencies; the
    grid-start phase drops out of the modulus. Requires a normalized input
    with negligible boundary amplitude, otherwise the transform samples do
    not represent the continuum function.
    """
    if abs(psi.norm_sq() - 1.0) > 1e-8:
        raise DomainError("input must be normalized to 1 within 1e-8")
    amax = float(np.max(np.abs(psi.values)))
    edge = max(abs(psi.values[0]), abs(psi.values[-1]))
    if amax == 0.0 or edge > 1e-6 * amax:
        raise DomainError("boundary amplitude exceeds 1e-6 of the maximum")

    _, delta_x = position_width(psi)

    k = 2.0 * math.pi * np.fft.fftfreq(psi.n, psi.spacing)
    weights = np.abs(np.fft.fft(psi.values)) ** 2
    weights /= weights.sum()
    k_mean = float(np.dot(weights, k))
    k_var = float(np.dot(weights, (k - k_mean) ** 2))
    return delta_x, math.sqrt(max(k_var, 0.0))
