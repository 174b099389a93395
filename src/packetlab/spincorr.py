"""Spin-pair correlation engine.

Closed-form joint probabilities and expectation values for the singlet,
the semiclassical independent-evolution model and the triplet states,
Monte Carlo pair sampling by the sequential reduction picture in fixed
blocks, CHSH combinations, local-hidden-variable bound audits, and the
bipartite no-signaling check computed by three independent routes.

Conventions: outcomes are +1/-1, theta is always arccos of the clamped
dot product of the two apparatus axes, and hidden-variable models live on
a finite weighted grid so their averages are exact given the grid.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable, Optional

from .errors import DomainError
from .numkit import MC_BLOCK, RandomStream, UnitVector3, np, run_blocks
from .numkit import sample_array, sample_isotropic_directions

__all__ = [
    "ModelKind",
    "PairModel",
    "JointProbability",
    "LhvModel",
    "BipartiteCoefficients",
    "joint_probability",
    "joint_table",
    "expectation",
    "chsh",
    "marginal",
    "sample_pair_counts",
    "block_pair_counts",
    "chsh_estimate",
    "coincidence_expectation",
    "lhv_expectation",
    "lhv_chsh_audit",
    "random_lhv_model",
    "sign_anticorrelated_model",
    "semiclassical_lhv_model",
    "basis_change",
    "no_signaling_audit",
    "coplanar_axis",
]

CHSH_BOUND_TOL = 1e-9
# pairs per sample_pair_counts chunk: 256 KiB of uniforms, which fits in L2
_PAIR_CHUNK = 2**13
# (S, L) table cells per lhv_chsh_audit block: 128 KiB per table at any L
_AUDIT_CELLS = 2**14


def _outcome(r) -> int:
    if r not in (1, -1):
        raise DomainError(f"outcome must be +1 or -1, got {r!r}")
    return int(r)


class ModelKind(enum.Enum):
    QM_SINGLET = "qm_singlet"
    SEMICLASSICAL = "semiclassical"
    TRIPLET = "triplet"


@dataclass(frozen=True)
class PairModel:
    """Correlated-pair model selector.

    Triplet states carry the magnetic quantum number m and the preferred
    axis it refers to; the paper gives only their expectation values, so
    joint laws are deliberately not defined for them.
    """

    kind: ModelKind
    triplet_m: Optional[int] = None
    axis: Optional[UnitVector3] = None

    def __post_init__(self):
        if self.kind is ModelKind.TRIPLET:
            if self.triplet_m not in (-1, 0, 1):
                raise DomainError("triplet m must be one of -1, 0, +1")
            if not isinstance(self.axis, UnitVector3):
                raise DomainError("triplet model needs a preferred axis")
        else:
            if self.triplet_m is not None or self.axis is not None:
                raise DomainError("m and axis are only meaningful for triplets")

    @classmethod
    def qm_singlet(cls) -> "PairModel":
        return cls(ModelKind.QM_SINGLET)

    @classmethod
    def semiclassical(cls) -> "PairModel":
        return cls(ModelKind.SEMICLASSICAL)

    @classmethod
    def triplet(cls, m: int, axis: UnitVector3) -> "PairModel":
        return cls(ModelKind.TRIPLET, m, axis)


@dataclass(frozen=True)
class JointProbability:
    """2x2 outcome table P(r_A, r_B) for one pair of settings."""

    pp: float
    pm: float
    mp: float
    mm: float

    def __post_init__(self):
        entries = (self.pp, self.pm, self.mp, self.mm)
        if any(p < -1e-15 or p > 1.0 + 1e-15 for p in entries):
            raise DomainError("joint probabilities must lie in [0, 1]")
        if abs(sum(entries) - 1.0) > 1e-12:
            raise DomainError("joint probabilities must sum to 1 within 1e-12")

    @property
    def expectation(self) -> float:
        return self.pp + self.mm - self.pm - self.mp


def _angle_between(a: UnitVector3, b: UnitVector3) -> float:
    # clamp guards rounding at parallel and antiparallel axes
    return math.acos(max(-1.0, min(1.0, a.dot(b))))


def coplanar_axis(angle_rad: float) -> UnitVector3:
    """Axis in the x-z plane at the given angle from the z axis."""
    return UnitVector3(math.sin(angle_rad), 0.0, math.cos(angle_rad))


def joint_probability(
    model: PairModel, r_a: int, r_b: int, a: UnitVector3, b: UnitVector3
) -> float:
    """Joint outcome probability for the singlet or the semiclassical model.

    Singlet: (1 - r_A r_B cos theta)/4. Semiclassical: the same with the
    correlation reduced by a factor 3. Triplet states have no joint law
    here and are rejected.
    """
    if model.kind is ModelKind.TRIPLET:
        raise DomainError("no joint probability law for triplet states")
    r = _outcome(r_a) * _outcome(r_b)
    cos_t = math.cos(_angle_between(a, b))
    if model.kind is ModelKind.QM_SINGLET:
        return 0.25 * (1.0 - r * cos_t)
    return 0.25 * (1.0 - r * cos_t / 3.0)


def joint_table(model: PairModel, a: UnitVector3, b: UnitVector3) -> JointProbability:
    return JointProbability(
        pp=joint_probability(model, +1, +1, a, b),
        pm=joint_probability(model, +1, -1, a, b),
        mp=joint_probability(model, -1, +1, a, b),
        mm=joint_probability(model, -1, -1, a, b),
    )


def expectation(model: PairModel, a: UnitVector3, b: UnitVector3) -> float:
    """Expectation of the product of the two outcomes."""
    if model.kind is ModelKind.QM_SINGLET:
        return -math.cos(_angle_between(a, b))
    if model.kind is ModelKind.SEMICLASSICAL:
        return -math.cos(_angle_between(a, b)) / 3.0
    az = a.dot(model.axis)
    bz = b.dot(model.axis)
    if model.triplet_m == 0:
        return a.dot(b) - 2.0 * az * bz
    return az * bz


def chsh(
    model: PairModel,
    a: UnitVector3,
    b: UnitVector3,
    a2: UnitVector3,
    b2: UnitVector3,
) -> float:
    """K = |E(a,b) + E(a,b') + E(a',b) - E(a',b')|."""
    return abs(
        expectation(model, a, b)
        + expectation(model, a, b2)
        + expectation(model, a2, b)
        - expectation(model, a2, b2)
    )


def marginal(model: PairModel, a: UnitVector3, b: UnitVector3, r_b: int) -> float:
    """Probability that B observes r_b, summed over A's outcomes.

    Computed as the actual sum over r_A rather than hard-coded, so the
    equality with 1/2 is a checked consequence, not an assumption.
    """
    return joint_probability(model, +1, r_b, a, b) + joint_probability(
        model, -1, r_b, a, b
    )


def sample_pair_counts(
    model: PairModel, a: UnitVector3, b: UnitVector3, n: int, rng: RandomStream
) -> tuple:
    """Draw n outcome pairs; returns the counts (n_pp, n_pm, n_mp, n_mm).

    Pairs follow the sequential reduction picture. Singlet: a hidden spin
    direction sigma is drawn isotropically, r_A with probability
    (1 + r_A sigma.a)/2; particle 2 then points along -r_A a and r_B
    follows with probability (1 + r_B (-r_A a).b)/2. Semiclassical: both
    outcomes are drawn independently from sigma, with particle 2 pointing
    along -sigma.

    Consumes exactly four uniforms per pair, in the order (cos polar,
    azimuth, A outcome, B outcome), so one batch of n pairs reproduces n
    one-pair calls on the same stream exactly.

    The pairs are drawn in chunks of _PAIR_CHUNK, each from the next 4m
    uniforms of the stream, and the chunks' counts are summed as Python
    ints. Each pair's arithmetic does not depend on its chunk, so the
    counts equal one draw of all n pairs, and the memory stays under 1 MiB
    at any n. The chunks share one uniform buffer: a fresh draw per chunk put
    a chunk's arrays at the heap's trim threshold, refaulting every chunk.

    sigma.axis is summed over the axis components that are nonzero only,
    for the axes the model reads (a alone for the singlet, a and b for the
    semiclassical model). A zero component adds a +-0 term, which cannot
    move a threshold 0.5 (1 +- sigma.axis), so the counts are bit-identical
    to the full sum; sigma's x (cos) and y (sin) parts are computed only
    when some read axis needs them, so an axis along z takes no trig. The
    four uniforms per pair are consumed all the same.
    """
    if model.kind is ModelKind.TRIPLET:
        raise DomainError("no sampling law for triplet states")
    if n <= 0:
        raise DomainError("n must be positive")
    n_am = n_bm = n_mm = 0
    u = np.empty((min(_PAIR_CHUNK, n), 4))  # every chunk's uniforms, drawn in place
    for done in range(0, n, _PAIR_CHUNK):
        m = min(_PAIR_CHUNK, n - done)
        am, bm, mm = _minus_counts(model, a, b, rng.uniform((m, 4), out=u[:m]))
        n_am, n_bm, n_mm = n_am + am, n_bm + bm, n_mm + mm
    return n - n_am - n_bm + n_mm, n_bm - n_mm, n_am - n_mm, n_mm


def _minus_counts(model: PairModel, a: UnitVector3, b: UnitVector3, u) -> tuple:
    # (A minus, B minus, both minus) among the pairs drawn from u, an (m, 4)
    # array of uniforms; its temporaries are freed before the next chunk, and
    # each is computed in place with the operations, in the order, of
    # 2 u0 - 1, sqrt(clip(1 - z^2)), 2 pi u1 and 0.5 (1 -+ sigma.v)
    singlet = model.kind is ModelKind.QM_SINGLET
    axes = (a,) if singlet else (a, b)
    need_x = any(v.x != 0.0 for v in axes)
    need_y = any(v.y != 0.0 for v in axes)
    z = u[:, 0] * 2.0
    z -= 1.0
    sx = sy = None
    if need_x or need_y:
        s = z * z
        np.subtract(1.0, s, out=s)
        np.clip(s, 0.0, None, out=s)
        np.sqrt(s, out=s)
        phi = u[:, 1] * (2.0 * math.pi)
        if need_x:
            sx = np.cos(phi)
            sx *= s
        if need_y:
            sy = np.sin(phi)
            sy *= s
        # freed before the products: with them alive, a semiclassical chunk's
        # arrays passed the heap's trim threshold, so every chunk refaulted
        del s, phi

    def sigma_dot(v):
        # sx v.x + sy v.y + z v.z without its zero terms, summed left to right
        # as numpy sums the full expression, with one product alive at a time
        (c0, w0), *rest = [(c, w) for c, w in ((sx, v.x), (sy, v.y), (z, v.z))
                           if w != 0.0]
        total = c0 * w0
        for c, w in rest:
            total += c * w
        return total

    threshold = sigma_dot(a)
    threshold += 1.0
    threshold *= 0.5
    a_minus = u[:, 2] >= threshold
    del threshold
    if singlet:
        # second packet reduced to point along -r_A a: B is minus at
        # u3 >= 0.5 (1 + cos_ab) after A minus, at u3 >= 0.5 (1 - cos_ab) after A plus
        cos_ab = float(a.as_array() @ b.as_array())
        n_mm = int(np.count_nonzero(a_minus & (u[:, 3] >= 0.5 * (1.0 + cos_ab))))
        n_pm = int(np.count_nonzero(~a_minus & (u[:, 3] >= 0.5 * (1.0 - cos_ab))))
        return int(np.count_nonzero(a_minus)), n_mm + n_pm, n_mm
    threshold = sigma_dot(b)
    np.subtract(1.0, threshold, out=threshold)
    threshold *= 0.5
    b_minus = u[:, 3] >= threshold
    return tuple(int(np.count_nonzero(m)) for m in (a_minus, b_minus, a_minus & b_minus))


def block_pair_counts(
    model: PairModel, a: UnitVector3, b: UnitVector3, n: int, seed: int,
    start: int = 0, workers: int = 1,
) -> tuple:
    """sample_pair_counts of n pairs from RandomStream(seed), in blocks.

    Block k of MC_BLOCK pairs starts at pair start + k MC_BLOCK, so the
    counts equal one call on a stream that has first drawn 4 start uniforms.
    """
    def block(k, size):
        rng = RandomStream(seed, position=4 * (start + k * MC_BLOCK))
        return sample_pair_counts(model, a, b, size, rng)

    return run_blocks(block, n, workers)


def chsh_estimate(model: PairModel, settings, n: int, seed: int, workers=1) -> tuple:
    """(K estimate, the four correlation estimates) from n pairs per setting.

    Setting pair k of (a, b), (a, b'), (a', b), (a', b') takes pairs
    [k n, (k + 1) n) of RandomStream(seed), so each sees fresh draws.
    """
    a, b, a2, b2 = settings
    e = [coincidence_expectation(*block_pair_counts(model, x, y, n, seed, k * n, workers))
         for k, (x, y) in enumerate(((a, b), (a, b2), (a2, b), (a2, b2)))]
    return abs(e[0] + e[1] + e[2] - e[3]), e


def coincidence_expectation(n_ll: int, n_lr: int, n_rl: int, n_rr: int) -> float:
    """Correlation estimate from the four coincidence counters.

    (N_LL + N_RR - N_RL - N_LR) over the total of all four.
    """
    counts = (n_ll, n_lr, n_rl, n_rr)
    if any(c < 0 for c in counts):
        raise DomainError("counts must be nonnegative")
    total = sum(counts)
    if total == 0:
        raise DomainError("at least one coincidence is required")
    return (n_ll + n_rr - n_rl - n_lr) / total


# ---------------------------------------------------------------------------
# local hidden variable models


@dataclass(frozen=True, eq=False)
class LhvModel:
    """Factorizing hidden-variable model on a finite weighted grid.

    ``abar(settings, lambdas)`` returns side A's mean outcome, P(+1) - P(-1),
    at each (setting, lambda) combination as an (S, L) array in [-1, 1];
    likewise bbar for side B. Bell's bound needs nothing more of a model.
    The factorization is structural: abar never sees the b setting and
    bbar never sees a.
    """

    lambdas: np.ndarray
    weights: np.ndarray
    abar: Callable
    bbar: Callable

    def __post_init__(self):
        lam = np.atleast_2d(np.asarray(self.lambdas, dtype=float))
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 1 or w.size != lam.shape[0]:
            raise DomainError("weights must match the lambda grid length")
        if np.any(w < -1e-15):
            raise DomainError("weights must be nonnegative")
        if abs(float(w.sum()) - 1.0) > 1e-10:
            raise DomainError("weights must sum to 1 within 1e-10")
        object.__setattr__(self, "lambdas", lam)
        object.__setattr__(self, "weights", w)


def _settings_matrix(settings) -> np.ndarray:
    if isinstance(settings, UnitVector3):
        return settings.as_array()[None, :]
    arr = np.asarray(settings, dtype=float)
    if arr.ndim == 1:
        arr = arr[None, :]
    if arr.ndim != 2 or arr.shape[1] != 3:
        raise DomainError("settings must be 3-vectors or an (n, 3) array")
    return arr


def _aligned_settings(*settings) -> list:
    mats = [_settings_matrix(s) for s in settings]
    if len({m.shape[0] for m in mats}) > 1:
        raise DomainError("setting batches must align")
    return mats


def _mean_response(model: LhvModel, mean, settings: np.ndarray) -> np.ndarray:
    """Abar or Bbar from one call of mean, checked as an (S, L) table in [-1, 1]."""
    tab = np.asarray(mean(settings, model.lambdas), dtype=float)
    want = (settings.shape[0], model.lambdas.shape[0])
    if tab.shape != want:
        raise DomainError(f"mean response table must have shape {want}")
    if not np.all(np.abs(tab) <= 1.0 + 1e-12):  # NaN fails too
        raise DomainError("mean responses must lie in [-1, 1]")
    return tab


def _overlaps(settings: np.ndarray, lambdas: np.ndarray) -> np.ndarray:
    """(S, L) table of setting-lambda dot products, one product per row.

    Each row is its own (1, 3) x (3, L) product, so its bits do not depend
    on the other rows of the batch; one (S, 3) x (3, L) product can round a
    row by the batch around it.
    """
    return np.matmul(settings[:, None, :], lambdas.T)[:, 0, :]


def _correlations(model: LhvModel, abar: np.ndarray, bbar: np.ndarray) -> np.ndarray:
    """sum over lambda of f Abar Bbar, each row reduced by itself."""
    return np.einsum("ij,ij,j->i", abar, bbar, model.weights)


def lhv_expectation(model: LhvModel, a, b):
    """E(a, b) = sum over lambda of f Abar Bbar.

    a and b may be single axes or aligned (n, 3) arrays of settings.
    """
    sa, sb = _aligned_settings(a, b)
    abar = _mean_response(model, model.abar, sa)
    bbar = _mean_response(model, model.bbar, sb)
    e = _correlations(model, abar, bbar)
    return float(e[0]) if e.size == 1 and isinstance(a, UnitVector3) else e


def lhv_chsh_audit(model: LhvModel, a, b, a2, b2) -> tuple:
    """CHSH value(s) of a hidden-variable model and the K <= 2 verdict.

    Each setting may be an axis or an (n, 3) batch of axes; batches give
    a K array and a verdict covering every quadruple. A grid of L lambda
    points is audited max(1, _AUDIT_CELLS // L) settings at a time, which
    bounds each table at any n. Abar(a), Abar(a'), Bbar(b) and Bbar(b') are
    built once per block. Each row is reduced by itself, so with the
    families' mean responses each K equals that of a one-row call, and the
    four correlations equal lhv_expectation's, whatever the batch around it.
    """
    sa, sb, sa2, sb2 = _aligned_settings(a, b, a2, b2)
    k = np.empty(sa.shape[0])
    rows = max(1, _AUDIT_CELLS // model.weights.size)
    for lo in range(0, k.size, rows):
        block = slice(lo, lo + rows)
        abars = [_mean_response(model, model.abar, s[block]) for s in (sa, sa2)]
        bbars = [_mean_response(model, model.bbar, s[block]) for s in (sb, sb2)]
        # E(a,b), E(a,b'), E(a',b), E(a',b')
        e = [_correlations(model, abar, bbar) for abar in abars for bbar in bbars]
        k[block] = np.abs(e[0] + e[1] + e[2] - e[3])
    satisfied = bool(np.all(k <= 2.0 + CHSH_BOUND_TOL))
    if k.size == 1 and isinstance(a, UnitVector3):
        return float(k[0]), satisfied
    return k, satisfied


def random_lhv_model(rng: RandomStream, n_lambda: int = 16) -> LhvModel:
    """Random smooth factorizing model for bound sweeps.

    Each side responds through a logistic curve P(+1) in the
    setting-lambda overlap with coefficients fixed at construction; its
    mean 2 P(+1) - 1 lies in [-1, 1] by construction.
    """
    if n_lambda < 1:
        raise DomainError("need at least one lambda point")
    lams = sample_isotropic_directions(rng, n_lambda)
    w = rng.uniform(size=n_lambda) + 1e-3
    w = w / w.sum()

    def make_response(c0, c1, c2):
        def mean(settings, lambdas):
            t = _overlaps(settings, lambdas)
            plus = 1.0 / (1.0 + np.exp(-(c0 + c1 * t + c2 * t * t)))
            return 2.0 * plus - 1.0

        return mean

    ca = 4.0 * rng.uniform(size=3) - 2.0
    cb = 4.0 * rng.uniform(size=3) - 2.0
    return LhvModel(lams, w, make_response(*ca), make_response(*cb))


def sign_anticorrelated_model(rng: RandomStream, n_lambda: int = 64) -> LhvModel:
    """Deterministic model with Abar = sign(lambda.a) and Bbar = -Abar shape."""
    lams = sample_isotropic_directions(rng, n_lambda)
    w = np.full(n_lambda, 1.0 / n_lambda)

    def abar(settings, lambdas):
        return np.where(_overlaps(settings, lambdas) >= 0.0, 1.0, -1.0)

    def bbar(settings, lambdas):
        return -abar(settings, lambdas)

    return LhvModel(lams, w, abar, bbar)


def semiclassical_lhv_model() -> LhvModel:
    """The independent-evolution model as an explicit hidden-variable grid.

    lambda is the initial spin direction sigma; the outcome probabilities
    (1 + r sigma.a)/2 and (1 - r sigma.b)/2 give the mean responses sigma.a
    and -sigma.b. So the model reads its grid only through sum w sigma and
    sum w sigma sigma^T, as E(a, b) = -a^T (sum w sigma sigma^T) b, and any
    grid on which these are 0 and I/3, as on the sphere, is the same model.
    The octahedron vertices +-e_i at weight 1/6, the smallest spherical
    3-design (Delsarte, Goethals and Seidel, 1977), give both exactly in
    floating point, since 2 fl(1/6) = fl(1/3).
    """
    lams = np.concatenate([np.eye(3), -np.eye(3)])
    w = np.full(6, 1.0 / 6.0)

    def abar(settings, lambdas):
        return _overlaps(settings, lambdas)

    def bbar(settings, lambdas):
        return -_overlaps(settings, lambdas)

    return LhvModel(lams, w, abar, bbar)


# ---------------------------------------------------------------------------
# bipartite coefficients and no-signaling audits

MAX_BIPARTITE_DIM = 64


@dataclass(frozen=True, eq=False)
class BipartiteCoefficients:
    """Coefficient matrix a_lk of a symmetrized two-particle expansion.

    C is the overall normalization constant; the convention here is
    C^2 sum |a_lk|^2 = 1, which makes C^2 |a_mn|^2 the joint detection
    probability directly. A real matrix stays real.
    """

    a: np.ndarray
    C: float

    def __post_init__(self):
        a = sample_array(self.a)
        if a.ndim != 2:
            raise DomainError("coefficients must form a matrix")
        if a.shape[0] > MAX_BIPARTITE_DIM or a.shape[1] > MAX_BIPARTITE_DIM:
            raise DomainError(f"dimensions capped at {MAX_BIPARTITE_DIM}")
        if not self.C > 0:
            raise DomainError("normalization constant must be positive")
        total = float(self.C**2 * np.sum(np.abs(a) ** 2))
        if abs(total - 1.0) > 1e-10:
            raise DomainError(
                f"C^2 sum|a|^2 = {total!r}, must equal 1 within 1e-10"
            )
        a.setflags(write=False)
        object.__setattr__(self, "a", a)

    @classmethod
    def normalized(cls, matrix) -> "BipartiteCoefficients":
        m = sample_array(matrix)
        total = float(np.sum(np.abs(m) ** 2))
        if total <= 0:
            raise DomainError("cannot normalize a zero coefficient matrix")
        return cls(m, 1.0 / math.sqrt(total))


def _check_unitary(u: np.ndarray, dim: int) -> np.ndarray:
    u = np.asarray(u, dtype=complex)
    if u.shape != (dim, dim):
        raise DomainError(f"unitary must be {dim}x{dim} for these coefficients")
    dev = float(np.max(np.abs(u.conj().T @ u - np.eye(dim))))
    if dev > 1e-12:
        raise DomainError(f"matrix is not unitary (max deviation {dev:.3e})")
    return u


def basis_change(coeffs: BipartiteCoefficients, u) -> BipartiteCoefficients:
    """New coefficients b_lk = sum_j a_jk U_jl under an apparatus basis change."""
    u = _check_unitary(u, coeffs.a.shape[0])
    return BipartiteCoefficients(u.T @ coeffs.a, coeffs.C)


def _pair_inner(s1: np.ndarray, s2: np.ndarray) -> complex:
    # two-particle states as (2, L, K) stacks over the orthogonal blocks
    # w_l(1)u_k(2) and u_k(1)w_l(2); separated packets keep the blocks
    # orthogonal, so the inner product is a plain componentwise sum
    return complex(np.sum(s1 * np.conj(s2)))


def no_signaling_audit(
    coeffs: BipartiteCoefficients, u, n: int, sign: int = +1
) -> tuple:
    """Probability of detecting packet u_n on side 2, three independent ways.

    Route 1 sums the joint law over side 1 in the original basis. Route 2
    repeats the sum after the side-1 apparatus basis change U. Route 3
    removes the apparatus entirely and projects the symmetrized state onto
    the two exchange components belonging to u_n. Returns
    (p_with_apparatus, p_changed_apparatus, p_no_apparatus, max_deviation).
    """
    rows, cols = coeffs.a.shape
    if not 0 <= n < cols:
        raise DomainError(f"index {n} outside the {cols} columns")
    if sign not in (1, -1):
        raise DomainError("sign must be +1 or -1")

    p_with = float(coeffs.C**2 * np.sum(np.abs(coeffs.a[:, n]) ** 2))

    changed = basis_change(coeffs, u)
    p_changed = float(changed.C**2 * np.sum(np.abs(changed.a[:, n]) ** 2))

    psi = np.stack([coeffs.C * coeffs.a, sign * coeffs.C * coeffs.a])
    p_no = 0.0
    for block in (0, 1):
        target = np.zeros_like(psi)
        target[block, :, n] = coeffs.a[:, n]
        norm_sq = float(np.sum(np.abs(target) ** 2))
        if norm_sq > 0.0:
            p_no += 0.5 * abs(_pair_inner(psi, target)) ** 2 / norm_sq

    probs = (p_with, p_changed, p_no)
    max_dev = max(abs(x - y) for x in probs for y in probs)
    return p_with, p_changed, p_no, max_dev
