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

START, SPACING, NUM = -8.0, 16.0 / 127, 128


def _packet(center, sigma=0.8):
    return sampled_gaussian(center, sigma, START, SPACING, NUM).normalized()


class TestConstruction:
    def test_from_product_norm(self):
        psi = ManyBodyWavefunction.from_product([_packet(-1.0), _packet(1.5)])
        assert psi.n_particles == 2
        total = float(np.sum(np.abs(psi.tensor) ** 2)) * psi.spacing**2
        assert total == pytest.approx(1.0, abs=1e-8)

    def test_particle_cap(self):
        with pytest.raises(DomainError):
            ManyBodyWavefunction.from_product([_packet(0.0)] * 4)

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


class TestDensities:
    def test_density_integrates_to_particle_count(self):
        psi = ManyBodyWavefunction.from_product([_packet(-2.0), _packet(2.0)])
        rho = one_particle_density(symmetrize(psi, 1))
        assert float(np.sum(rho)) * SPACING == pytest.approx(2.0, abs=1e-8)

    def test_three_particles(self):
        psi = ManyBodyWavefunction.from_product(
            [_packet(-2.5), _packet(0.0), _packet(2.5)]
        )
        rho = one_particle_density(symmetrize(psi, 1))
        assert float(np.sum(rho)) * SPACING == pytest.approx(3.0, abs=1e-8)

    def test_untagged_rejected(self):
        psi = ManyBodyWavefunction.from_product([_packet(-1.0), _packet(1.0)])
        with pytest.raises(DomainError):
            one_particle_density(psi)

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
        with pytest.raises(DomainError):
            conditional_probability(psi, 99.0)

    def test_zero_density_point(self):
        psi = ManyBodyWavefunction.from_product([_packet(0.0, 0.2), _packet(0.0, 0.2)])
        with pytest.raises(DomainError):
            conditional_probability(psi, -7.9)

    def test_needs_two_particles(self):
        psi = ManyBodyWavefunction.from_product([_packet(0.0)])
        with pytest.raises(DomainError):
            conditional_probability(psi, 0.0)


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

