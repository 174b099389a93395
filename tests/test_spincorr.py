"""Unit tests for the spin pair correlation experiments.

Closed forms (joint tables, CHSH, marginals), the two hidden-variable
bounds, the sampling layer against its own closed forms, and the
no-signaling audit routes.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import one_shot_pair_counts
from packetlab.errors import DomainError
from packetlab.numkit import (
    MC_BLOCK,
    RandomStream,
    UnitVector3,
    normalize,
    sample_isotropic_directions,
)
from packetlab.spincorr import (
    _AUDIT_CELLS,
    _PAIR_CHUNK,
    BipartiteCoefficients,
    LhvModel,
    ModelKind,
    PairModel,
    basis_change,
    block_pair_counts,
    chsh,
    chsh_estimate,
    coincidence_expectation,
    coplanar_axis,
    expectation,
    joint_probability,
    joint_table,
    lhv_chsh_audit,
    lhv_expectation,
    marginal,
    no_signaling_audit,
    random_lhv_model,
    sample_pair_counts,
    semiclassical_lhv_model,
    sign_anticorrelated_model,
)

TWO_SQRT_TWO = 2.0 * math.sqrt(2.0)
# components of coplanar_axis(pi/2): y is exactly 0, z = cos(pi/2) is 6e-17
_XZ_RIGHT = coplanar_axis(math.pi / 2).as_array().tolist()
# axes along z, x and y, and an oblique one that needs all three components
_AXES = [UnitVector3(0.0, 0.0, 1.0), UnitVector3(1.0, 0.0, 0.0),
         UnitVector3(0.0, 1.0, 0.0), UnitVector3(1 / 3, -2 / 3, 2 / 3)]


def _singlet():
    # the 2x2 singlet matrix [[0, 1], [-1, 0]]/sqrt(2) with C = 1
    inv = 1.0 / math.sqrt(2.0)
    return BipartiteCoefficients(np.array([[0.0, inv], [-inv, 0.0]]), 1.0)


def _random_axes(rng, n):
    """The next n isotropic directions of rng, as UnitVector3 values."""
    return [UnitVector3.from_array(v) for v in sample_isotropic_directions(rng, n)]


class TestSingletClosedForms:
    def test_joint_table(self):
        a, b = coplanar_axis(0.0), coplanar_axis(0.3)
        t = joint_table(PairModel.qm_singlet(), a, b)
        d = a.dot(b)
        assert t.pp == pytest.approx((1.0 - d) / 4.0, abs=1e-14)
        assert t.mm == pytest.approx((1.0 - d) / 4.0, abs=1e-14)
        assert t.pm == pytest.approx((1.0 + d) / 4.0, abs=1e-14)
        assert t.mp == pytest.approx((1.0 + d) / 4.0, abs=1e-14)

    def test_perfect_anticorrelation(self):
        a = coplanar_axis(1.1)
        t = joint_table(PairModel.qm_singlet(), a, a)
        assert t.pp == pytest.approx(0.0, abs=1e-14)
        assert t.expectation == pytest.approx(-1.0)

    def test_expectation_is_minus_dot(self):
        for a, b in zip(_random_axes(RandomStream(11), 20),
                        _random_axes(RandomStream(12), 20)):
            e = expectation(PairModel.qm_singlet(), a, b)
            assert e == pytest.approx(-a.dot(b), abs=1e-13)

    def test_table_sums_to_one(self):
        for a, b in zip(_random_axes(RandomStream(13), 50),
                        _random_axes(RandomStream(14), 50)):
            t = joint_table(PairModel.qm_singlet(), a, b)
            assert t.pp + t.pm + t.mp + t.mm == pytest.approx(1.0, abs=1e-12)

    def test_joint_probability_matches_table(self):
        a, b = coplanar_axis(0.4), coplanar_axis(1.7)
        t = joint_table(PairModel.qm_singlet(), a, b)
        assert joint_probability(PairModel.qm_singlet(), 1, -1, a, b) == t.pm
        assert joint_probability(PairModel.qm_singlet(), -1, 1, a, b) == t.mp

    def test_outcome_guard(self):
        a = coplanar_axis(0.0)
        with pytest.raises(DomainError):
            joint_probability(PairModel.qm_singlet(), 0, 1, a, a)


class TestSemiclassicalClosedForms:
    def test_reduced_correlation(self):
        for a, b in zip(_random_axes(RandomStream(15), 30),
                        _random_axes(RandomStream(16), 30)):
            e = expectation(PairModel.semiclassical(), a, b)
            assert e == pytest.approx(-a.dot(b) / 3.0, abs=1e-13)

    def test_joint_table(self):
        a, b = coplanar_axis(0.2), coplanar_axis(1.0)
        t = joint_table(PairModel.semiclassical(), a, b)
        d = a.dot(b)
        assert t.pp == pytest.approx((1.0 - d / 3.0) / 4.0, abs=1e-14)
        assert t.pm == pytest.approx((1.0 + d / 3.0) / 4.0, abs=1e-14)

    def test_no_perfect_anticorrelation(self):
        a = coplanar_axis(0.9)
        assert expectation(PairModel.semiclassical(), a, a) == pytest.approx(
            -1.0 / 3.0
        )


class TestTriplet:
    def test_m0_closed_form(self):
        z = UnitVector3(0.0, 0.0, 1.0)
        for a, b in zip(_random_axes(RandomStream(17), 20),
                        _random_axes(RandomStream(18), 20)):
            e = expectation(PairModel.triplet(0, z), a, b)
            want = a.dot(b) - 2.0 * a.z * b.z
            assert e == pytest.approx(want, abs=1e-13)

    def test_m1_is_product_form(self):
        z = UnitVector3(0.0, 0.0, 1.0)
        for a, b in zip(_random_axes(RandomStream(19), 20),
                        _random_axes(RandomStream(20), 20)):
            for m in (1, -1):
                e = expectation(PairModel.triplet(m, z), a, b)
                assert e == pytest.approx(a.z * b.z, abs=1e-13)

    def test_m_guard(self):
        with pytest.raises(DomainError):
            PairModel.triplet(2, UnitVector3(0.0, 0.0, 1.0))


class TestChsh:
    def test_quantum_maximum(self):
        a, b, a2, b2 = (coplanar_axis(math.radians(t)) for t in (0.0, 45.0, 90.0, -45.0))
        k = chsh(PairModel.qm_singlet(), a, b, a2, b2)
        assert k == pytest.approx(TWO_SQRT_TWO, abs=1e-12)

    def test_semiclassical_canonical(self):
        a, b, a2, b2 = (coplanar_axis(math.radians(t)) for t in (0.0, 45.0, 90.0, -45.0))
        k = chsh(PairModel.semiclassical(), a, b, a2, b2)
        assert k == pytest.approx(TWO_SQRT_TWO / 3.0, abs=1e-12)

    def test_quantum_never_exceeds_tsirelson(self):
        rng = RandomStream(21)
        for _ in range(200):
            axes = _random_axes(rng, 4)
            assert chsh(PairModel.qm_singlet(), *axes) <= TWO_SQRT_TWO + 1e-12


class TestMarginals:
    def test_always_half(self):
        models = [PairModel.qm_singlet(), PairModel.semiclassical()]
        for a, b in zip(_random_axes(RandomStream(22), 100),
                        _random_axes(RandomStream(23), 100)):
            for model in models:
                for r_b in (1, -1):
                    assert abs(marginal(model, a, b, r_b) - 0.5) < 1e-12

    def test_triplet_has_no_joint_law(self):
        z = UnitVector3(0.0, 0.0, 1.0)
        a = coplanar_axis(0.7)
        with pytest.raises(DomainError):
            marginal(PairModel.triplet(1, z), a, z, 1)


class TestSampling:
    def test_batch_counts_match_scalar_sequence(self):
        model = PairModel.qm_singlet()
        a, b = coplanar_axis(0.0), coplanar_axis(0.6)
        counts = sample_pair_counts(model, a, b, 500, RandomStream(31))
        rng = RandomStream(31)
        singles = [sample_pair_counts(model, a, b, 1, rng) for _ in range(500)]
        assert counts == tuple(int(x) for x in np.sum(singles, axis=0))
        assert rng.position == 4 * 500

    def test_qm_parallel_frequencies(self):
        # theta = 0: all weight on the anticorrelated outcomes
        a = coplanar_axis(0.0)
        n = 10**6
        pp, pm, mp, mm = sample_pair_counts(
            PairModel.qm_singlet(), a, a, n, RandomStream(32)
        )
        assert pp == 0 and mm == 0
        assert abs(pm / n - 0.5) < 0.0015

    def test_qm_sixty_degrees(self):
        a, b = coplanar_axis(0.0), coplanar_axis(math.pi / 3.0)
        counts = sample_pair_counts(PairModel.qm_singlet(), a, b, 10**6, RandomStream(33))
        assert coincidence_expectation(*counts) == pytest.approx(-0.5, abs=0.003)

    def test_semiclassical_parallel(self):
        a = coplanar_axis(0.0)
        counts = sample_pair_counts(
            PairModel.semiclassical(), a, a, 10**6, RandomStream(34)
        )
        assert coincidence_expectation(*counts) == pytest.approx(-1.0 / 3.0, abs=0.003)

    def test_empirical_chsh_at_45(self):
        a, b = coplanar_axis(0.0), coplanar_axis(math.radians(45.0))
        counts = sample_pair_counts(PairModel.qm_singlet(), a, b, 10**6, RandomStream(35))
        want = -math.cos(math.radians(45.0))
        assert coincidence_expectation(*counts) == pytest.approx(want, abs=0.003)

    def test_coincidence_guard(self):
        with pytest.raises(DomainError):
            coincidence_expectation(0, 0, 0, 0)

    @settings(max_examples=30, deadline=None)
    @given(
        model=st.sampled_from([PairModel.qm_singlet(), PairModel.semiclassical()]),
        axes=st.lists(st.floats(min_value=-1.0, max_value=1.0), min_size=6, max_size=6)
        .filter(lambda v: min(np.linalg.norm(v[:3]), np.linalg.norm(v[3:])) > 0.1),
        n=st.integers(min_value=1, max_value=20000),
        seed=st.integers(min_value=0, max_value=2**64 - 1),
    )
    # axes with exact zero components, which the sampler leaves out of sigma.axis
    @example(PairModel.qm_singlet(), [0.0, 0.0, 1.0, 0.0, 0.0, -1.0], 20000, 1)
    @example(PairModel.qm_singlet(), [*_XZ_RIGHT, 0.0, 1.0, 0.0], 20000, 2)
    @example(PairModel.qm_singlet(), [0.0, 1.0, 0.0, -0.0, 0.0, 1.0], 20000, 3)
    @example(PairModel.qm_singlet(), [-0.0, 0.0, -1.0, 0.6, 0.0, 0.8], 20000, 4)
    @example(PairModel.semiclassical(), [0.0, 0.0, 1.0, 0.0, 0.0, -1.0], 20000, 5)
    @example(PairModel.semiclassical(), [*_XZ_RIGHT, 0.0, 1.0, 0.0], 20000, 6)
    @example(PairModel.semiclassical(), [0.0, 1.0, 0.0, *_XZ_RIGHT], 20000, 7)
    @example(PairModel.semiclassical(), [0.0, -0.0, 1.0, -0.0, 0.0, -1.0], 20000, 8)
    def test_counts_match_the_sigma_matrix_sampler(self, model, axes, n, seed):
        a = UnitVector3.from_array(normalize(axes[:3])[0])
        b = UnitVector3.from_array(normalize(axes[3:])[0])
        want = _sigma_matrix_counts(model, a, b, n, RandomStream(seed))
        assert sample_pair_counts(model, a, b, n, RandomStream(seed)) == want

    @pytest.mark.parametrize("model, a, b, cos_calls, sin_calls", [
        (PairModel.qm_singlet(), coplanar_axis(0.0), coplanar_axis(0.7), 0, 0),
        (PairModel.qm_singlet(), coplanar_axis(math.pi / 2), coplanar_axis(0.7), 1, 0),
        (PairModel.qm_singlet(), UnitVector3(1 / 3, 2 / 3, 2 / 3), coplanar_axis(0.7), 1, 1),
        (PairModel.semiclassical(), coplanar_axis(0.0), coplanar_axis(math.pi / 4), 1, 0),
    ], ids=["singlet-a-along-z", "singlet-a-along-x", "singlet-oblique-a", "sc-0-45"])
    def test_trig_only_for_the_axis_components_read(
        self, monkeypatch, model, a, b, cos_calls, sin_calls
    ):
        calls = {"cos": 0, "sin": 0}

        def counting(name, f):
            def shim(*args, **kwargs):
                calls[name] += 1
                return f(*args, **kwargs)
            return shim

        monkeypatch.setattr(np, "cos", counting("cos", np.cos))
        monkeypatch.setattr(np, "sin", counting("sin", np.sin))
        rng = RandomStream(36)
        sample_pair_counts(model, a, b, 1000, rng)
        assert calls == {"cos": cos_calls, "sin": sin_calls}
        assert rng.position == 4 * 1000

    @settings(max_examples=40, deadline=None)
    @given(
        model=st.sampled_from([PairModel.qm_singlet(), PairModel.semiclassical()]),
        a=st.sampled_from(_AXES),
        b=st.sampled_from(_AXES),
        n=st.one_of(
            st.sampled_from([1, _PAIR_CHUNK - 1, _PAIR_CHUNK, _PAIR_CHUNK + 1, MC_BLOCK + 5]),
            st.integers(min_value=1, max_value=3 * _PAIR_CHUNK),
        ),
        seed=st.integers(min_value=0, max_value=2**64 - 1),
        skip=st.integers(min_value=0, max_value=1000),
    )
    @example(PairModel.qm_singlet(), _AXES[1], _AXES[3], 1, 1, 3)
    @example(PairModel.semiclassical(), _AXES[3], _AXES[2], _PAIR_CHUNK - 1, 2, 4)
    @example(PairModel.qm_singlet(), _AXES[0], _AXES[1], _PAIR_CHUNK, 3, 0)
    @example(PairModel.semiclassical(), _AXES[1], _AXES[0], _PAIR_CHUNK + 1, 4, 7)
    @example(PairModel.qm_singlet(), _AXES[3], _AXES[0], MC_BLOCK + 5, 5, 8)
    @example(PairModel.semiclassical(), _AXES[3], _AXES[3], MC_BLOCK + 5, 6, 1)
    def test_chunks_equal_one_draw_of_all_pairs(self, model, a, b, n, seed, skip):
        # the stream may stand at any position, odd ones too
        rng, ref = RandomStream(seed), RandomStream(seed)
        rng.uniform(size=skip)
        ref.uniform(size=skip)
        assert sample_pair_counts(model, a, b, n, rng) == one_shot_pair_counts(
            model, a, b, n, ref)
        assert rng.position == ref.position == skip + 4 * n
        assert rng.uniform() == ref.uniform()

    @pytest.mark.parametrize("model, a", [
        (PairModel.qm_singlet(), _AXES[1]), (PairModel.semiclassical(), _AXES[3]),
    ], ids=["singlet-a-along-x", "sc-oblique-a"])
    def test_memory_does_not_grow_with_n(self, model, a):
        # drawing every pair at once traced 74 MiB (singlet) and 88 MiB
        # (oblique) more at 2**20 pairs than at 2**14. A first untraced call
        # keeps first-use allocations out of both peaks.
        b = coplanar_axis(0.7)
        sample_pair_counts(model, a, b, 2**14, RandomStream(1))

        def traced_peak(n):
            tracemalloc.start()
            try:
                sample_pair_counts(model, a, b, n, RandomStream(2))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small = traced_peak(2**14)
        assert traced_peak(2**20) - small < 2**20


def _sigma_matrix_counts(model, a, b, n, rng):
    """The sampler before outcome codes: an (n, 3) spin-direction matrix and
    one outcome array per side, counted by four masks."""
    u = rng.uniform(size=4 * n).reshape(n, 4)
    z = 2.0 * u[:, 0] - 1.0
    phi = 2.0 * math.pi * u[:, 1]
    s = np.sqrt(np.clip(1.0 - z * z, 0.0, None))
    sigma = np.column_stack([s * np.cos(phi), s * np.sin(phi), z])
    a_vec, b_vec = a.as_array(), b.as_array()
    r_a = np.where(u[:, 2] < 0.5 * (1.0 + sigma @ a_vec), 1.0, -1.0)
    if model.kind is ModelKind.QM_SINGLET:
        p_b_plus = 0.5 * (1.0 - r_a * float(a_vec @ b_vec))
    else:
        p_b_plus = 0.5 * (1.0 - sigma @ b_vec)
    r_b = np.where(u[:, 3] < p_b_plus, 1.0, -1.0)
    n_pp = int(np.sum((r_a > 0) & (r_b > 0)))
    n_pm = int(np.sum((r_a > 0) & (r_b < 0)))
    n_mp = int(np.sum((r_a < 0) & (r_b > 0)))
    return n_pp, n_pm, n_mp, n - n_pp - n_pm - n_mp


class TestBlockSampling:
    @settings(max_examples=20, deadline=None)
    @given(
        model=st.sampled_from([PairModel.qm_singlet(), PairModel.semiclassical()]),
        angle=st.floats(min_value=-math.pi, max_value=math.pi),
        n=st.one_of(
            st.just(2 * MC_BLOCK + 3),
            st.integers(min_value=1, max_value=3 * MC_BLOCK),
        ),
        start=st.integers(min_value=0, max_value=200_000),
        seed=st.integers(min_value=0, max_value=2**64 - 1),
        workers=st.sampled_from([1, 2, 3]),
        a_angle=st.sampled_from([0.0, 0.3]),
    )
    def test_blocks_equal_one_call_at_the_offset(
        self, model, angle, n, start, seed, workers, a_angle
    ):
        a, b = coplanar_axis(a_angle), coplanar_axis(angle)
        rng = RandomStream(seed)
        rng.uniform(size=4 * start)
        want = sample_pair_counts(model, a, b, n, rng)
        assert block_pair_counts(model, a, b, n, seed, start, workers) == want

    @pytest.mark.parametrize("workers", [1, 2, 7])
    def test_chsh_settings_take_consecutive_pair_ranges(self, workers):
        # one stream runs through the four settings in turn, n pairs each
        model = PairModel.qm_singlet()
        settings_ = [coplanar_axis(math.radians(d)) for d in (0.0, 45.0, 90.0, -45.0)]
        a, b, a2, b2 = settings_
        n, rng = MC_BLOCK + 5, RandomStream(17)
        want = [
            coincidence_expectation(*sample_pair_counts(model, x, y, n, rng))
            for x, y in ((a, b), (a, b2), (a2, b), (a2, b2))
        ]
        k, estimates = chsh_estimate(model, settings_, n, 17, workers)
        assert estimates == want
        assert k == abs(want[0] + want[1] + want[2] - want[3])

    def test_triplet_blocks_rejected(self):
        z = UnitVector3(0.0, 0.0, 1.0)
        with pytest.raises(DomainError):
            block_pair_counts(PairModel.triplet(0, z), z, z, 10, 0)


def _counting_model(family):
    """A family's model whose abar and bbar count their calls, and the counts."""
    made = {
        "random": lambda: random_lhv_model(RandomStream(49), 16),
        "sign": lambda: sign_anticorrelated_model(RandomStream(50)),
        "semiclassical": semiclassical_lhv_model,
    }[family]()
    calls = {"a": 0, "b": 0}

    def counting(side, mean):
        def shim(settings_, lambdas):
            calls[side] += 1
            return mean(settings_, lambdas)
        return shim

    model = LhvModel(made.lambdas, made.weights,
                     counting("a", made.abar), counting("b", made.bbar))
    return model, calls


# settings per audit block of each family's 16, 64 and 6 lambda points
_AUDIT_ROWS = {"random": 1024, "sign": 256, "semiclassical": 2730}


class TestLhvModels:
    def test_random_model_weights(self):
        model = random_lhv_model(RandomStream(41), 16)
        assert abs(model.weights.sum() - 1.0) < 1e-10
        assert np.all(model.weights >= 0.0)
        assert model.lambdas.shape == (16, 3)
        assert np.all(np.abs(np.linalg.norm(model.lambdas, axis=1) - 1.0) <= 1e-12)

    def test_random_model_bound(self):
        rng = RandomStream(42)
        a = sample_isotropic_directions(rng, 50)
        b = sample_isotropic_directions(rng, 50)
        a2 = sample_isotropic_directions(rng, 50)
        b2 = sample_isotropic_directions(rng, 50)
        for seed in range(20):
            model = random_lhv_model(RandomStream(seed, 99), 16)
            k, ok = lhv_chsh_audit(model, a, b, a2, b2)
            assert ok
            assert np.max(k) <= 2.0 + 1e-9

    def test_sign_model_anticorrelated(self):
        model = sign_anticorrelated_model(RandomStream(43))
        for a in _random_axes(RandomStream(44), 10):
            assert lhv_expectation(model, a, a) == pytest.approx(-1.0, abs=1e-12)

    def test_sign_model_bound(self):
        model = sign_anticorrelated_model(RandomStream(45))
        rng = RandomStream(46)
        for _ in range(50):
            axes = _random_axes(rng, 4)
            k, ok = lhv_chsh_audit(model, *axes)
            assert ok and k <= 2.0 + 1e-9

    def test_semiclassical_grid_matches_reduced_correlation(self):
        model = semiclassical_lhv_model()
        for a, b in zip(_random_axes(RandomStream(47), 20),
                        _random_axes(RandomStream(48), 20)):
            want = -a.dot(b) / 3.0
            assert lhv_expectation(model, a, b) == pytest.approx(want, abs=1e-12)

    def test_semiclassical_grid_has_the_sphere_moments_exactly(self):
        # the model reads its grid only through sum w lambda and
        # sum w lambda lambda^T, so with these exact it is the sphere integral
        model = semiclassical_lhv_model()
        w, lam = model.weights, model.lambdas
        assert np.array_equal(w @ lam, np.zeros(3))
        assert np.array_equal((w[:, None] * lam).T @ lam, np.eye(3) / 3.0)

    def test_semiclassical_canonical_chsh(self):
        model = semiclassical_lhv_model()
        axes = [coplanar_axis(math.radians(t)) for t in (0.0, 45.0, 90.0, -45.0)]
        k, ok = lhv_chsh_audit(model, *axes)
        assert ok
        assert k == pytest.approx(TWO_SQRT_TWO / 3.0, abs=1e-9)

    @pytest.mark.parametrize("family", ["random", "sign", "semiclassical"])
    @pytest.mark.parametrize("batched", [False, True])
    def test_audit_builds_each_response_table_once(self, family, batched):
        model, calls = _counting_model(family)
        if batched:
            rng = RandomStream(51)
            axes = [sample_isotropic_directions(rng, 7) for _ in range(4)]
        else:
            axes = _random_axes(RandomStream(52), 4)
        k, ok = lhv_chsh_audit(model, *axes)
        assert calls == {"a": 2, "b": 2}  # one table per setting per side

        a, b, a2, b2 = axes
        want = abs(lhv_expectation(model, a, b) + lhv_expectation(model, a, b2)
                   + lhv_expectation(model, a2, b) - lhv_expectation(model, a2, b2))
        if batched:
            assert k.shape == (7,) and np.array_equal(k, want)
        else:
            assert type(k) is float and k == want
        assert ok == bool(np.all(want <= 2.0 + 1e-9))

    @pytest.mark.parametrize("family, n", [
        (family, n) for family, rows in _AUDIT_ROWS.items()
        for n in (1, rows - 1, rows, rows + 1, 2 * rows + 5)])
    def test_audit_blocks_equal_one_table_per_batch(self, family, n):
        model, calls = _counting_model(family)
        rows = _AUDIT_ROWS[family]
        assert rows == max(1, _AUDIT_CELLS // model.weights.size)
        rng = RandomStream(57)
        axes = [sample_isotropic_directions(rng, n) for _ in range(4)]
        k, ok = lhv_chsh_audit(model, *axes)
        blocks = -(-n // rows)
        assert calls == {"a": 2 * blocks, "b": 2 * blocks}

        def expected_k(a, b, a2, b2):
            return np.abs(lhv_expectation(model, a, b) + lhv_expectation(model, a, b2)
                          + lhv_expectation(model, a2, b) - lhv_expectation(model, a2, b2))

        per_block = np.concatenate([expected_k(*(x[lo:lo + rows] for x in axes))
                                    for lo in range(0, n, rows)])
        assert k.shape == (n,) and np.array_equal(k, per_block)
        whole = expected_k(*axes)
        assert ok == bool(np.all(whole <= 2.0 + 1e-9))
        assert np.array_equal(k, whole)
        # each row's K is its own, whatever the batch around it
        one_row = [lhv_chsh_audit(model, *(x[i:i + 1] for x in axes))[0][0]
                   for i in range(n)]
        assert np.array_equal(k, one_row)

    def test_audit_memory_does_not_grow_with_settings(self):
        # tables for every setting at once traced 281 MiB more at 8,000
        # settings than at 2,000. A first untraced call keeps first-use
        # allocations out of both peaks, and the settings are drawn untraced.
        model = semiclassical_lhv_model()
        rng = RandomStream(58)
        big = [sample_isotropic_directions(rng, 8000) for _ in range(4)]
        small = [s[:2000] for s in big]
        lhv_chsh_audit(model, *small)

        def traced_peak(axes):
            tracemalloc.start()
            try:
                lhv_chsh_audit(model, *axes)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small_peak = traced_peak(small)
        assert traced_peak(big) - small_peak < 2**20

    @pytest.mark.parametrize("side", ["a", "b"])
    @pytest.mark.parametrize("bad", ["nan", "above_one", "wrong_shape"])
    def test_invalid_mean_response_refused(self, side, bad):
        made = semiclassical_lhv_model()

        def broken(settings_, lambdas):
            tab = made.abar(settings_, lambdas)
            if bad == "nan":
                tab[0, 0] = np.nan
            elif bad == "above_one":
                tab[0, 0] = 1.5
            else:
                tab = tab[:, 1:]
            return tab

        means = {"a": (broken, made.bbar), "b": (made.abar, broken)}[side]
        model = LhvModel(made.lambdas, made.weights, *means)
        axes = _random_axes(RandomStream(59), 4)
        with pytest.raises(DomainError):
            lhv_chsh_audit(model, *axes)
        with pytest.raises(DomainError):
            lhv_expectation(model, axes[0], axes[1])

    def test_audit_rejects_misaligned_batches(self):
        model = semiclassical_lhv_model()
        a, b, a2 = _random_axes(RandomStream(53), 3)
        b2 = sample_isotropic_directions(RandomStream(54), 2)
        with pytest.raises(DomainError):
            lhv_chsh_audit(model, a, b, a2, b2)

    def test_weight_guard(self):
        lam = np.zeros((2, 3))
        lam[0, 2] = 1.0
        lam[1, 0] = 1.0
        with pytest.raises(DomainError):
            LhvModel(lam, np.array([0.5, 0.6]), lambda a, l: 0.5, lambda b, l: 0.5)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=10**6))
    def test_audit_verdict_matches_bound(self, seed):
        model = random_lhv_model(RandomStream(seed, 7), 8)
        rng = RandomStream(seed, 8)
        axes = _random_axes(rng, 4)
        k, ok = lhv_chsh_audit(model, *axes)
        assert ok == (k <= 2.0 + 1e-9)


class TestBipartite:
    def test_joint_sums_to_one(self):
        rng = np.random.default_rng(5)
        m = rng.normal(size=(4, 6)) + 1j * rng.normal(size=(4, 6))
        coeffs = BipartiteCoefficients.normalized(m)
        # the joint law of packet pair (m, n) is C^2 |a_mn|^2
        total = float(np.sum(coeffs.C**2 * np.abs(coeffs.a) ** 2))
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_norm_guard(self):
        with pytest.raises(DomainError):
            BipartiteCoefficients(np.eye(2), 1.0)

    def test_dimension_cap(self):
        with pytest.raises(DomainError):
            BipartiteCoefficients.normalized(np.ones((65, 2)))

    def test_basis_change_preserves_norm(self):
        rng = np.random.default_rng(6)
        m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        coeffs = BipartiteCoefficients.normalized(m)
        q, r = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
        changed = basis_change(coeffs, q)
        total = float(changed.C**2 * np.sum(np.abs(changed.a) ** 2))
        assert total == pytest.approx(1.0, abs=1e-10)

    def test_basis_change_rejects_nonunitary(self):
        coeffs = _singlet()
        with pytest.raises(DomainError):
            basis_change(coeffs, np.array([[1.0, 0.0], [0.0, 2.0]]))

    def test_no_signaling_routes_agree(self):
        rng = np.random.default_rng(7)
        for trial in range(20):
            d1, d2 = rng.integers(2, 9), rng.integers(2, 9)
            m = rng.normal(size=(d1, d2)) + 1j * rng.normal(size=(d1, d2))
            coeffs = BipartiteCoefficients.normalized(m)
            q, r = np.linalg.qr(
                rng.normal(size=(d1, d1)) + 1j * rng.normal(size=(d1, d1))
            )
            sign = 1 if trial % 2 == 0 else -1
            out = no_signaling_audit(coeffs, q, int(rng.integers(0, d2)), sign=sign)
            assert out[3] < 1e-10
            assert out[0] == pytest.approx(out[2], abs=1e-10)

    def test_no_signaling_on_singlet(self):
        theta = 0.4
        u = np.array(
            [
                [math.cos(theta), -math.sin(theta)],
                [math.sin(theta), math.cos(theta)],
            ]
        )
        out = no_signaling_audit(_singlet(), u, 0, sign=-1)
        assert out[3] < 1e-12
        assert out[0] == pytest.approx(0.5, abs=1e-12)
