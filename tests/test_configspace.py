"""Unit tests for configuration-space wavefunctions.

Symmetrization and its Pauli degeneracy, one-particle and conditional
densities, the Schmidt product-form test, and expansion reduction in
both window and single-pick mode.
"""

import math
import tracemalloc

import numpy as np
import pytest

from packetlab.configspace import (
    ExpansionCoefficients,
    ManyBodyWavefunction,
    conditional_probability,
    one_particle_density,
    product_form_test,
    reduce_expansion,
    symmetrize,
)
from packetlab.errors import DomainError
from packetlab.numkit import RandomStream, sampled_gaussian
from oracles import complex_svd_residual, fsum_density, loop_symmetrize, pair_residual

START, SPACING, NUM = -8.0, 16.0 / 127, 128


def _packet(center, sigma=0.8):
    return sampled_gaussian(center, sigma, START, SPACING, NUM).normalized()


def _cli_pair(points, k0=(0.0, 0.0), centers=(-1.0, 1.0)):
    # condspace's packets: width 0.7 on [-8, 8]
    spacing = 16.0 / (points - 1)
    return [sampled_gaussian(c, 0.7, -8.0, spacing, points, k0=k).normalized()
            for c, k in zip(centers, k0)]


REAL, COMPLEX = (0.0, 0.0), (0.5, -0.3)


class TestConstruction:
    def test_from_product_norm(self):
        psi = ManyBodyWavefunction.from_product([_packet(-1.0), _packet(1.5)])
        assert psi.tensor.shape == (NUM, NUM)
        total = float(np.sum(np.abs(psi.tensor) ** 2)) * psi.spacing**2
        assert total == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("count", [1, 3])
    def test_from_product_needs_two_factors(self, count):
        with pytest.raises(DomainError, match="need exactly two factors"):
            ManyBodyWavefunction.from_product([_packet(0.0)] * count)

    @pytest.mark.parametrize("shape, spacing, symmetry, match", [
        ((4,), 0.5, "none", "n x n two-particle amplitude matrix"),
        ((2, 2, 2), 0.5, "none", "n x n two-particle amplitude matrix"),
        ((4, 3), 0.5, "none", "n x n two-particle amplitude matrix"),
        ((257, 257), 0.5, "none", "grid capped at 256 points"),
        ((4, 4), 0.0, "none", "spacing must be positive"),
        ((4, 4), math.nan, "none", "spacing must be positive"),
        ((4, 4), 0.5, "bose", "symmetry must be one of"),
    ], ids=["1-d", "3-d", "non-square", "257-points", "spacing-0", "spacing-nan",
            "unknown-symmetry"])
    def test_constructor_guards(self, shape, spacing, symmetry, match):
        # these guards come before the norm check, so the zeros never reach it
        with pytest.raises(DomainError, match=match):
            ManyBodyWavefunction(0.0, spacing, np.zeros(shape), symmetry)

    def test_point_cap(self):
        big = sampled_gaussian(0.0, 1.0, -10.0, 20.0 / 299, 300).normalized()
        with pytest.raises(DomainError):
            ManyBodyWavefunction.from_product([big, big])

    def test_point_cap_precedes_the_outer_product(self):
        # two 3000-point factors would build a 144 MB tensor before the check
        big = sampled_gaussian(0.0, 1.0, -10.0, 20.0 / 2999, 3000).normalized()
        tracemalloc.start()
        try:
            with pytest.raises(DomainError, match="grid capped at 256 points"):
                ManyBodyWavefunction.from_product([big, big])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_norm_guard(self):
        t = np.ones((16, 16), dtype=complex)
        with pytest.raises(DomainError):
            ManyBodyWavefunction(0.0, 0.1, t)

    def test_caller_array_is_copied_not_frozen(self):
        g1, g2 = _packet(-1.0), _packet(1.0)
        for t, tag in ((np.multiply.outer(g1.values, g2.values), "none"),
                       (np.multiply.outer(g1.values, g1.values), "symmetric")):
            before = t.copy()
            psi = ManyBodyWavefunction(START, SPACING, t, tag)
            assert t.flags.writeable and not np.shares_memory(t, psi.tensor)
            assert np.array_equal(t, before)
            assert not psi.tensor.flags.writeable
            t[0, 0] = 5.0
            assert psi.tensor[0, 0] == before[0, 0]

    def test_tag_check(self):
        g1, g2 = _packet(-1.0), _packet(0.5)
        sym = symmetrize(ManyBodyWavefunction.from_product([g1, g2]), 1)
        anti = symmetrize(ManyBodyWavefunction.from_product([g1, g2]), -1)
        assert ManyBodyWavefunction(START, SPACING, sym.tensor, "symmetric").symmetry == "symmetric"
        assert (ManyBodyWavefunction(START, SPACING, anti.tensor, "antisymmetric").symmetry
                == "antisymmetric")
        with pytest.raises(DomainError, match="violates the antisymmetric tag by"):
            ManyBodyWavefunction(START, SPACING, sym.tensor, "antisymmetric")
        with pytest.raises(DomainError, match="violates the symmetric tag by"):
            ManyBodyWavefunction(START, SPACING, anti.tensor, "symmetric")
        product = ManyBodyWavefunction.from_product([g1, g2])
        with pytest.raises(DomainError, match="violates the symmetric tag by"):
            ManyBodyWavefunction(START, SPACING, product.tensor, "symmetric")

    @pytest.mark.parametrize("k0, coeffs, dtype", [
        (REAL, [0.6, 0.0, 0.8], np.float64),
        (COMPLEX, [0.6, 0.0, 0.8j], np.complex128),
    ], ids=["real", "complex"])
    def test_samples_keep_the_dtype_of_their_values(self, k0, coeffs, dtype):
        # real values stay float64 from packet to pair to expansion, and
        # only a carrier or a complex coefficient makes them complex128
        f, g = _cli_pair(NUM, k0)
        psi = ManyBodyWavefunction.from_product([f, g])
        c = ExpansionCoefficients(coeffs)
        arrays = [sampled_gaussian(0.0, 0.7, START, SPACING, NUM, k0=k0[0]).values, f.values,
                  psi.tensor, symmetrize(psi, 1).tensor, symmetrize(psi, -1).tensor, c.values,
                  reduce_expansion(c, window=[0, 2]).values,
                  reduce_expansion(c, rng=RandomStream(1)).values]
        assert [a.dtype for a in arrays] == [np.dtype(dtype)] * len(arrays)

    def test_mismatched_grids(self):
        a = _packet(0.0)
        b = sampled_gaussian(0.0, 0.8, START, SPACING * 1.5, NUM).normalized()
        with pytest.raises(DomainError):
            ManyBodyWavefunction.from_product([a, b])


class TestSymmetrize:
    def test_bose_tensor_is_symmetric(self):
        psi = ManyBodyWavefunction.from_product([_packet(-1.5), _packet(1.5)])
        sym = symmetrize(psi, 1)
        assert sym.symmetry == "symmetric"
        assert np.allclose(sym.tensor, sym.tensor.T, atol=1e-12)

    def test_fermi_tensor_is_antisymmetric(self):
        psi = ManyBodyWavefunction.from_product([_packet(-1.5), _packet(1.5)])
        anti = symmetrize(psi, -1)
        assert anti.symmetry == "antisymmetric"
        assert np.allclose(anti.tensor, -anti.tensor.T, atol=1e-12)

    def test_renormalized(self):
        psi = ManyBodyWavefunction.from_product([_packet(-0.5), _packet(0.5)])
        sym = symmetrize(psi, 1)
        total = float(np.sum(np.abs(sym.tensor) ** 2)) * sym.spacing**2
        assert total == pytest.approx(1.0, abs=1e-10)

    def test_pauli_annihilation(self):
        # antisymmetrizing two quanta in the same packet has nowhere to go
        psi = ManyBodyWavefunction.from_product([_packet(0.0), _packet(0.0)])
        with pytest.raises(DomainError):
            symmetrize(psi, -1)

    def test_double_tag_rejected(self):
        psi = ManyBodyWavefunction.from_product([_packet(-1.0), _packet(1.0)])
        sym = symmetrize(psi, 1)
        with pytest.raises(DomainError):
            symmetrize(sym, 1)

    def test_sign_guard(self):
        psi = ManyBodyWavefunction.from_product([_packet(-1.0), _packet(1.0)])
        with pytest.raises(DomainError):
            symmetrize(psi, 2)

    # numpy sums a term in place from 256 KiB on (128 points), which gave
    # the loop another layout there; the values are the same, and the
    # in-place sum is always C-ordered
    @pytest.mark.parametrize("points", [64, 127, 128, 161, 256])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_in_place_sum_is_the_per_term_loop_bit_for_bit(self, points, sign):
        psi = ManyBodyWavefunction.from_product(_cli_pair(points, (0.4, -0.2)))
        want, got = loop_symmetrize(psi, sign), symmetrize(psi, sign).tensor
        assert got.flags.c_contiguous
        assert got.tobytes(order="C") == want.tobytes(order="C")

    def test_fermi_pair_traces_under_4_mib(self):
        # the library benchmark's configspace call: the product, its
        # antisymmetrized copy and one scratch array are the large ones
        tracemalloc.start()
        try:
            psi = symmetrize(ManyBodyWavefunction.from_product(_cli_pair(256)), -1)
            conditional_probability(psi, 0.5)
            one_particle_density(psi)
            product_form_test(psi)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20


class TestDensities:
    def test_density_integrates_to_particle_count(self):
        psi = ManyBodyWavefunction.from_product([_packet(-2.0), _packet(2.0)])
        rho = one_particle_density(symmetrize(psi, 1))
        assert float(np.sum(rho)) * SPACING == pytest.approx(2.0, abs=1e-8)

    @pytest.mark.parametrize("points", [64, 128, 161, 256])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_density_against_fsum(self, points, sign):
        # each row summed in C order, pairwise; summed down the columns of
        # an F-ordered tensor, 161 points read 1.24e-15 off
        psi = symmetrize(ManyBodyWavefunction.from_product(_cli_pair(points)), sign)
        got, want = one_particle_density(psi), fsum_density(psi)
        assert np.all(np.abs(got - want) <= 1e-15 * want)

    @pytest.mark.parametrize("points", [64, 128, 161, 256])
    @pytest.mark.parametrize("k0", [REAL, COMPLEX], ids=["real", "complex"])
    def test_untagged_density_is_the_first_marginal(self, points, k0):
        # an untagged pair's density is the first particle's marginal,
        # which integrates to 1 and, for a product, is |f|^2
        f, g = _cli_pair(points, k0)
        psi = ManyBodyWavefunction.from_product([f, g])
        got, want = one_particle_density(psi), fsum_density(psi)
        assert np.all(np.abs(got - want) <= 1e-15 * want)
        assert float(np.sum(got)) * psi.spacing == pytest.approx(1.0, abs=1e-12)
        assert np.max(np.abs(got - np.abs(f.values) ** 2)) < 1e-12

    def test_well_separated_packets_stack(self):
        # far apart, exchange terms vanish and the density is just the sum
        psi = ManyBodyWavefunction.from_product([_packet(-3.0), _packet(3.0)])
        rho = one_particle_density(symmetrize(psi, 1))
        g1, g2 = _packet(-3.0), _packet(3.0)
        want = np.abs(g1.values) ** 2 + np.abs(g2.values) ** 2
        assert np.max(np.abs(rho - want)) < 1e-6


class TestConditional:
    def test_product_state_conditional_is_marginal(self):
        g1, g2 = _packet(-1.0, 0.6), _packet(1.0, 0.9)
        psi = ManyBodyWavefunction.from_product([g1, g2])
        for x2 in (-0.5, 1.0, 2.0):
            cond = conditional_probability(psi, x2)
            want = np.abs(g1.values) ** 2
            assert np.max(np.abs(cond - want)) < 1e-8

    def test_conditional_normalized(self):
        psi = symmetrize(
            ManyBodyWavefunction.from_product([_packet(-1.0), _packet(1.0)]), 1
        )
        cond = conditional_probability(psi, 0.8)
        assert float(np.sum(cond)) * SPACING == pytest.approx(1.0, abs=1e-10)

    def test_symmetrized_conditional_selects_partner(self):
        # conditioning deep inside one packet leaves the other packet
        g1, g2 = _packet(-3.0), _packet(3.0)
        psi = symmetrize(ManyBodyWavefunction.from_product([g1, g2]), 1)
        cond = conditional_probability(psi, 3.0)
        want = np.abs(g1.values) ** 2
        assert np.max(np.abs(cond - want)) < 1e-5

    def test_outside_grid(self):
        psi = ManyBodyWavefunction.from_product([_packet(0.0), _packet(0.0)])
        for x2 in (99.0, math.nan):
            with pytest.raises(DomainError, match="lies outside the grid"):
                conditional_probability(psi, x2)

    def test_zero_density_point(self):
        psi = ManyBodyWavefunction.from_product([_packet(0.0, 0.2), _packet(0.0, 0.2)])
        with pytest.raises(DomainError):
            conditional_probability(psi, -7.9)

    def test_half_cell_ties_snap_to_the_even_index(self):
        # x2 half a cell past points 4 and 5 lands on 4 and 6, as round
        # does; on this grid every x below is exact
        psi = ManyBodyWavefunction(1.0, 0.5, np.full((16, 16), 0.125))
        assert [psi.nearest_index(1.0 + (i + 0.5) * 0.5) for i in (4, 5)] == [4, 6]
        assert psi.nearest_index(1.0 - 0.25) == 0
        assert psi.nearest_index(1.0 + 15.75 * 0.5) == 15


class TestProductForm:
    def test_product_state(self):
        psi = ManyBodyWavefunction.from_product([_packet(-1.0), _packet(1.0)])
        is_product, residual = product_form_test(psi)
        assert is_product
        assert residual < 1e-10

    def test_symmetrized_state_is_not_product(self):
        psi = symmetrize(
            ManyBodyWavefunction.from_product([_packet(-2.0), _packet(2.0)]), 1
        )
        is_product, residual = product_form_test(psi)
        assert not is_product
        assert residual > 0.1

    def test_residual_shrinks_with_overlap(self):
        # nearly identical packets symmetrize to nearly a product
        near = symmetrize(
            ManyBodyWavefunction.from_product([_packet(-0.05), _packet(0.05)]), 1
        )
        far = symmetrize(
            ManyBodyWavefunction.from_product([_packet(-2.0), _packet(2.0)]), 1
        )
        assert product_form_test(near)[1] < product_form_test(far)[1]


class TestSchmidtSpectrum:
    # closed forms for both SVD paths: real packets (k0 = 0) and packets
    # with carriers, whose amplitudes are complex
    @pytest.mark.parametrize("points", [64, 161, 256])
    @pytest.mark.parametrize("k0", [REAL, COMPLEX], ids=["real", "complex"])
    def test_fermi_residual_is_one_half(self, points, k0):
        psi = symmetrize(ManyBodyWavefunction.from_product(_cli_pair(points, k0)), -1)
        is_product, residual = product_form_test(psi)
        assert not is_product
        assert abs(residual - 0.5) <= 4 * math.ulp(0.5)

    @pytest.mark.parametrize("points", [64, 161, 256])
    @pytest.mark.parametrize("k0", [REAL, COMPLEX], ids=["real", "complex"])
    def test_bose_residual_against_the_overlap(self, points, k0):
        f, g = _cli_pair(points, k0)
        psi = symmetrize(ManyBodyWavefunction.from_product([f, g]), 1)
        is_product, residual = product_form_test(psi)
        assert not is_product
        want = pair_residual(f, g, 1)
        assert abs(residual - want) <= 1e-15 * want

    @pytest.mark.parametrize("points", [64, 161, 256])
    @pytest.mark.parametrize("k0", [REAL, COMPLEX], ids=["real", "complex"])
    def test_product_residual_is_exactly_zero(self, points, k0):
        # a product's second singular value is rounding noise of the SVD
        psi = ManyBodyWavefunction.from_product(_cli_pair(points, k0))
        assert product_form_test(psi) == (True, 0.0)

    @pytest.mark.parametrize("points", [64, 161, 256])
    @pytest.mark.parametrize("sign", [None, 1, -1])
    def test_real_svd_agrees_with_the_complex_one(self, points, sign):
        psi = ManyBodyWavefunction.from_product(_cli_pair(points))
        if sign is not None:
            psi = symmetrize(psi, sign)
        # numpy's SVD takes the routine of the dtype: the real one here, and
        # the complex one for the same matrix cast to complex
        cast = ManyBodyWavefunction(psi.start, psi.spacing, psi.tensor.astype(complex),
                                    psi.symmetry)
        assert (psi.tensor.dtype, cast.tensor.dtype) == (np.float64, np.complex128)
        is_product, residual = product_form_test(psi)
        for want_product, want in (product_form_test(cast), complex_svd_residual(psi)):
            assert is_product == want_product
            assert abs(residual - want) <= 1e-15


class TestReduceExpansion:
    def test_window_zeroes_and_renormalizes(self):
        c = ExpansionCoefficients(np.array([0.6, 0.0, 0.8]))
        out = reduce_expansion(c, window=[2])
        assert out.probabilities() == pytest.approx([0.0, 0.0, 1.0])

    def test_window_keeps_relative_weights(self):
        c = ExpansionCoefficients(np.array([0.6, 0.48, 0.64]))
        out = reduce_expansion(c, window=[1, 2])
        p = out.probabilities()
        assert p[0] == 0.0
        assert p[1] / p[2] == pytest.approx(0.48**2 / 0.64**2, rel=1e-12)
        assert sum(p) == pytest.approx(1.0, abs=1e-12)

    def test_pick_is_single_term(self):
        c = ExpansionCoefficients(np.array([0.6, 0.8]))
        out = reduce_expansion(c, rng=RandomStream(3))
        p = out.probabilities()
        assert sorted(p) == pytest.approx([0.0, 1.0], abs=1e-15)

    def test_pick_certain_outcome(self):
        c = ExpansionCoefficients(np.array([0.0, 1.0, 0.0]))
        for seed in range(5):
            out = reduce_expansion(c, rng=RandomStream(seed))
            assert out.probabilities()[1] == pytest.approx(1.0)

    def test_equal_superposition_pick_frequencies(self):
        # reduction of (phi_m + phi_n)/sqrt(2) lands on one term, half-half
        c = ExpansionCoefficients(np.array([1.0, 1.0]) / math.sqrt(2.0))
        rng = RandomStream(77)
        hits = 0
        for _ in range(10**5):
            out = reduce_expansion(c, rng=rng)
            p = out.probabilities()
            assert max(p) == pytest.approx(1.0)  # never a superposition
            hits += int(p[0] > 0.5)
        assert abs(hits / 10**5 - 0.5) < 0.005

    def test_windowed_pick(self):
        c = ExpansionCoefficients(np.array([0.6, 0.0, 0.8]))
        out = reduce_expansion(c, window=[0], rng=RandomStream(1))
        assert out.probabilities()[0] == pytest.approx(1.0)

    def test_mode_guards(self):
        c = ExpansionCoefficients(np.array([0.6, 0.8]))
        with pytest.raises(DomainError):
            reduce_expansion(c)
        with pytest.raises(DomainError):
            reduce_expansion(c, window=[])
        with pytest.raises(DomainError):
            reduce_expansion(c, window=[5])
        with pytest.raises(DomainError):
            reduce_expansion(ExpansionCoefficients(np.array([1.0, 0.0])), window=[1])

    def test_norm_guard(self):
        with pytest.raises(DomainError):
            ExpansionCoefficients(np.array([0.6, 0.9]))

    @pytest.mark.parametrize("values", [[], [[0.6, 0.8]], [math.nan]],
                             ids=["empty", "2-d", "nan"])
    def test_coefficient_guards(self, values):
        with pytest.raises(DomainError):
            ExpansionCoefficients(np.array(values))

