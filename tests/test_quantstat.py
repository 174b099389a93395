"""Cavity statistics: mode counting, occupancy laws, balance, count laws."""

import math
import tracemalloc
import warnings
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.constants import c as C_LIGHT
from scipy.constants import h as H_PLANCK
from scipy.constants import Stefan_Boltzmann
from scipy.constants import k as K_BOLTZMANN
from scipy.stats import binom, nbinom, poisson

from packetlab import numkit, quantstat
from packetlab.errors import AccuracyWarning, DomainError, NumericalError
from packetlab.numkit import RandomStream
from packetlab.quantstat import (
    RADIATION_CONSTANT,
    CavitySpec,
    CountDistribution,
    Statistics,
    balance_residual,
    binomial_fold_check,
    binomial_pmf,
    count_distribution,
    count_variance,
    einstein_balance,
    entropy_and_derivatives,
    packet_quanta_dist,
    photon_bins,
    photon_mode_count,
    sample_balance_args,
    sample_count_moments,
    sample_counts,
    spectral_distribution,
    thinned_count_distribution,
    vonlaue_dof,
)
from oracles import OccupancyDistribution, occupancy

# the wide default photon window includes near-pole bins whose cells are
# legitimately sparse; the Stirling warning there is by design
pytestmark = pytest.mark.filterwarnings(
    "ignore::packetlab.errors.AccuracyWarning"
)


class TestModeCounting:
    def test_photon_shell_formula(self):
        v, nu, dnu = 1.0, 5.0e14, 1.0e10
        expected = 4.0 * math.pi * v * nu * nu * dnu / C_LIGHT**3
        assert photon_mode_count(v, nu, dnu) == pytest.approx(expected, rel=1e-15)
        assert photon_mode_count(v, nu, dnu) == pytest.approx(
            1165971040577118.0, rel=1e-12
        )

    def test_photon_equals_momentum_count(self):
        # the bins count cells in the frequency form; substituting p = h nu / c
        # must give the momentum-shell count 4 pi V p^2 dp / h^3 per polarization
        v = 0.5
        for pol in (1, 2):
            bins = photon_bins(v, 300.0, 40, polarizations=pol)
            shell = 4.0 * math.pi * v * bins.p**2 * bins.dp / H_PLANCK**3
            np.testing.assert_allclose(bins.g, pol * shell, rtol=1e-12)

    def test_mode_count_guards(self):
        with pytest.raises(DomainError):
            photon_mode_count(0.0, 1.0, 1.0)
        with pytest.raises(DomainError):
            photon_mode_count(1.0, -1.0, 1.0)
        with pytest.raises(DomainError):
            photon_mode_count(1.0, np.array([1.0, 0.0]), np.array([1.0, 1.0]))

    def test_bin_from_photon_frequency(self):
        # each record is the photon frequency form at the bin's geometric center
        (b,) = photon_bins(2.0, 300.0, 1, x_lo=1.0, x_hi=1.5, polarizations=1)
        lo, hi = 1.0 * K_BOLTZMANN * 300.0 / H_PLANCK, 1.5 * K_BOLTZMANN * 300.0 / H_PLANCK
        nu, dnu = math.sqrt(lo * hi), hi - lo
        assert b.epsilon == pytest.approx(H_PLANCK * nu, rel=1e-12)
        assert b.d_epsilon == pytest.approx(H_PLANCK * dnu, rel=1e-12)
        assert b.p == pytest.approx(H_PLANCK * nu / C_LIGHT, rel=1e-12)
        assert b.dp == pytest.approx(H_PLANCK * dnu / C_LIGHT, rel=1e-12)
        assert b.g == pytest.approx(photon_mode_count(2.0, nu, dnu), rel=1e-12)

    def test_bin_guards(self):
        # volume and temperature are checked directly, not through the bins
        for volume, temperature in ((0.0, 300.0), (-1.0, 300.0), (1.0, 0.0), (1.0, -5.0)):
            with pytest.raises(DomainError, match="volume and temperature"):
                photon_bins(volume, temperature, 10)
        # a window too narrow to split leaves bins of zero width
        with pytest.raises(DomainError, match="must be positive"):
            photon_bins(1.0, 300.0, 4, x_lo=1.0, x_hi=1.0 + 2e-16)


class TestPhotonBins:
    def test_bins_cover_requested_window(self):
        v, t = 1.0, 300.0
        bins = photon_bins(v, t, 50)
        nu_scale = K_BOLTZMANN * t / H_PLANCK
        total_dnu = sum(b.d_epsilon for b in bins) / H_PLANCK
        assert total_dnu == pytest.approx(nu_scale * (40.0 - 1e-3), rel=1e-10)

    def test_polarization_factor_doubles_cells(self):
        single = photon_bins(1.0, 300.0, 10, polarizations=1)
        double = photon_bins(1.0, 300.0, 10, polarizations=2)
        for s, d in zip(single, double):
            assert d.g == pytest.approx(2.0 * s.g, rel=1e-15)
            assert d.epsilon == s.epsilon

    def test_centers_are_geometric_means(self):
        bins = photon_bins(1.0, 500.0, 8, x_lo=0.1, x_hi=10.0)
        nu_scale = K_BOLTZMANN * 500.0 / H_PLANCK
        edges = nu_scale * np.exp(np.linspace(math.log(0.1), math.log(10.0), 9))
        for b, lo, hi in zip(bins, edges[:-1], edges[1:]):
            assert b.epsilon / H_PLANCK == pytest.approx(
                math.sqrt(lo * hi), rel=1e-12
            )

    def test_bin_guards(self):
        with pytest.raises(DomainError):
            photon_bins(1.0, 300.0, 0)
        with pytest.raises(DomainError):
            photon_bins(1.0, 300.0, 10, x_lo=2.0, x_hi=1.0)
        with pytest.raises(DomainError):
            photon_bins(1.0, 300.0, 10, polarizations=3)


class TestOccupancy:
    T = 300.0

    def _eps(self, y: float) -> float:
        return y * K_BOLTZMANN * self.T

    def test_bose_is_geometric(self):
        y = 1.3
        d = occupancy(Statistics.BOSE, self._eps(y), 0.0, self.T)
        x = math.exp(-y)
        s = np.arange(d.q.size)
        assert np.max(np.abs(d.q - (1.0 - x) * x**s)) < 1e-15
        assert d.s_bar == pytest.approx(1.0 / math.expm1(y), rel=1e-12)

    def test_fermi_is_two_point(self):
        y = 0.7
        d = occupancy(Statistics.FERMI, self._eps(y), 0.0, self.T)
        q1 = 1.0 / (math.exp(y) + 1.0)
        assert d.q.size == 2
        assert d.q[1] == pytest.approx(q1, rel=1e-14)
        assert d.s_bar == pytest.approx(q1, rel=1e-14)

    def test_fermi_symmetric_about_mu(self):
        # filling at mu + delta mirrors the hole count at mu - delta
        mu = self._eps(2.0)
        delta = self._eps(0.6)
        above = occupancy(Statistics.FERMI, mu + delta, mu, self.T)
        below = occupancy(Statistics.FERMI, mu - delta, mu, self.T)
        assert above.s_bar == pytest.approx(1.0 - below.s_bar, rel=1e-12)

    def test_boltzmann_is_poisson(self):
        y = 0.9
        d = occupancy(Statistics.BOLTZMANN, self._eps(y), 0.0, self.T)
        lam = math.exp(-y)
        ref = poisson.pmf(np.arange(d.q.size), lam)
        assert np.max(np.abs(d.q - ref)) < 1e-14
        assert d.s_bar == pytest.approx(lam, rel=1e-14)

    def test_deep_tail_collapses_to_vacuum(self):
        d = occupancy(Statistics.BOSE, self._eps(800.0), 0.0, self.T)
        assert d.q.size == 1
        assert d.q[0] == 1.0
        assert d.s_bar == 0.0

    def test_bose_pole_rejected(self):
        with pytest.raises(DomainError):
            occupancy(Statistics.BOSE, 1.0e-21, 1.0e-21, self.T)
        with pytest.raises(DomainError):
            occupancy(Statistics.BOSE, 1.0e-21, 2.0e-21, self.T)

    def test_near_pole_support_capped(self):
        with pytest.raises(NumericalError):
            occupancy(Statistics.BOSE, self._eps(1e-9), 0.0, self.T)

    def test_temperature_guard(self):
        with pytest.raises(DomainError):
            occupancy(Statistics.BOSE, 1e-21, 0.0, 0.0)

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from(list(Statistics)),
        st.floats(min_value=0.05, max_value=30.0),
    )
    def test_mass_and_mean_bookkeeping(self, stats, y):
        d = occupancy(stats, self._eps(y), 0.0, self.T)
        assert abs(float(np.sum(d.q)) - 1.0) < 1e-10
        mean = float(np.sum(np.arange(d.q.size) * d.q))
        assert mean == pytest.approx(d.s_bar, abs=1e-10 + 1e-10 * abs(d.s_bar))

    def test_distribution_validation(self):
        with pytest.raises(DomainError):
            # sums to 2
            OccupancyDistribution(Statistics.BOSE, 1.0, np.array([1.0, 1.0]))
        with pytest.raises(DomainError):
            OccupancyDistribution(
                Statistics.FERMI, 1.0, np.array([0.25, 0.25, 0.5])
            )


class TestSpectralDistribution:
    def test_radiation_constant(self):
        # u = a T^4 with a = 4 sigma / c
        assert RADIATION_CONSTANT == pytest.approx(
            4.0 * Stefan_Boltzmann / C_LIGHT, rel=1e-12
        )

    def test_photon_planck_counts(self):
        cavity = CavitySpec.photon_gas(1.0, 1000.0)
        bins = photon_bins(1.0, 1000.0, 30)
        counts = spectral_distribution(cavity, bins)
        for b, n in zip(bins, counts):
            x = b.epsilon / (K_BOLTZMANN * 1000.0)
            assert n == pytest.approx(b.g / math.expm1(x), rel=1e-12)

    def test_counts_match_occupancy_mean(self):
        # the bin total must be the per-cell mean times the cell count
        cavity = CavitySpec(1.0, 400.0, 0.0, Statistics.FERMI)
        bins = photon_bins(1.0, 400.0, 12, polarizations=1)
        counts = spectral_distribution(cavity, bins)
        for b, n in zip(bins, counts):
            d = occupancy(Statistics.FERMI, b.epsilon, 0.0, 400.0)
            assert n == pytest.approx(b.g * d.s_bar, rel=1e-12)

    def test_boltzmann_bare_exponential(self):
        cavity = CavitySpec(1.0, 400.0, 0.0, Statistics.BOLTZMANN)
        bins = photon_bins(1.0, 400.0, 12, polarizations=1)
        counts = spectral_distribution(cavity, bins)
        for b, n in zip(bins, counts):
            x = b.epsilon / (K_BOLTZMANN * 400.0)
            assert n == pytest.approx(b.g * math.exp(-x), rel=1e-12)

    def test_bose_pole_in_bin_rejected(self):
        # mu between the energies of bins 2 and 3; reversed, the first bin
        # at or below mu is bin 7 of 10
        bins = photon_bins(1.0, 300.0, 10, x_lo=0.1, x_hi=10.0)[::-1]
        mu = 0.5 * (bins.epsilon[6] + bins.epsilon[7])
        cavity = CavitySpec(1.0, 300.0, mu, Statistics.BOSE)
        with pytest.raises(DomainError, match="Bose pole in bin 7"):
            spectral_distribution(cavity, bins)
        with pytest.raises(DomainError, match="Bose pole in bin 7"):
            entropy_and_derivatives(cavity, bins)


class TestCollisionBalance:
    # one consistent bookkeeping set: 2 quanta of species 1 drop
    # 1.5 -> 1.1 while 1 quantum of species 2 climbs 1.0 -> 1.8
    INTACT = dict(
        a=1.0,
        a_prime=1.2,
        b=0.8,
        c=0.3,
        c_prime=-0.2,
        n=2,
        n_prime=1,
        e1i=1.5,
        e1f=1.1,
        e2i=1.0,
        e2f=1.8,
        s=4.0,
        r=2.0,
        s_prime=3.0,
        r_prime=1.5,
    )

    def test_shared_temperature_balances(self):
        assert balance_residual(**self.INTACT) < 1e-12

    def test_broken_temperature_detected(self):
        # ratio of the two sides is exp(delta (b - b2)) with
        # delta = n (e1i - e1f) = 0.8
        res = balance_residual(**self.INTACT, b2=0.88)
        assert res == pytest.approx(-math.expm1(0.8 * (0.8 - 0.88)), rel=1e-9)

    def test_residual_grows_with_symmetry_break(self):
        r1 = balance_residual(**self.INTACT, b2=0.81)
        r2 = balance_residual(**self.INTACT, b2=0.88)
        assert 0.0 < r1 < r2

    def test_energy_bookkeeping_enforced(self):
        bad = dict(self.INTACT)
        bad["e2f"] = 1.7
        with pytest.raises(DomainError):
            balance_residual(**bad)

    def test_bookkeeping_tolerance_stays_tight(self):
        bad = dict(self.INTACT, e2f=self.INTACT["e2f"] + 1e-9)
        with pytest.raises(DomainError):
            balance_residual(**bad)

    def test_small_energy_step_accepted(self):
        # a 1e-5 step between levels near 0.6 and 1.8: the rounding of each
        # energy difference scales with the levels, not with the step
        small = dict(self.INTACT, n=2, n_prime=3, e1i=0.6, e1f=0.6 - 1e-5,
                     e2i=1.8, e2f=1.8 + 2e-5 / 3)
        assert balance_residual(**small) < 1e-12

    def test_generated_sets_keep_the_bookkeeping(self):
        # this seed's 406th set moves 8.4e-5 of energy between levels near
        # 1.84, which a tolerance scaled by the step alone rejected
        rng = RandomStream(14279167644398334059)
        for _ in range(2000):
            assert balance_residual(**sample_balance_args(rng)) < 1e-12
        assert rng.position == 14 * 2000

    def test_occupancy_cannot_go_negative(self):
        bad = dict(self.INTACT)
        bad["s"] = 1.0
        with pytest.raises(DomainError):
            balance_residual(**bad)

    def test_integer_and_normalization_guards(self):
        bad = dict(self.INTACT)
        bad["n"] = 1.5
        with pytest.raises(DomainError):
            balance_residual(**bad)
        bad = dict(self.INTACT)
        bad["a"] = 0.0
        with pytest.raises(DomainError):
            balance_residual(**bad)

    def test_underflow_reported(self):
        with pytest.raises(NumericalError):
            balance_residual(
                a=1.0,
                a_prime=1.0,
                b=1000.0,
                c=0.0,
                c_prime=0.0,
                n=0,
                n_prime=0,
                e1i=1.0,
                e1f=1.0,
                e2i=1.0,
                e2f=1.0,
                s=400.0,
                r=400.0,
                s_prime=1.0,
                r_prime=1.0,
            )


class TestEinsteinBalance:
    def test_balance_holds_against_planck(self):
        for t in (250.0, 300.0, 1000.0, 5800.0):
            for nu in (1.0e12, 1.0e13, 1.0e14, 1.0e15):
                lhs, rhs, _ = einstein_balance(t, nu, 1.0, 1.0e9)
                assert rhs == pytest.approx(lhs, rel=1e-12)

    def test_spontaneous_to_stimulated_ratio(self):
        nu = 1.0e15
        _, _, a_over_b = einstein_balance(300.0, nu, 1.0, 1.0e9)
        assert a_over_b == 4.0 * math.pi * H_PLANCK * nu**3 / C_LIGHT**3
        assert a_over_b == pytest.approx(3.0903223630929913e-13, rel=1e-12)

    def test_ratio_independent_of_cavity(self):
        _, _, r1 = einstein_balance(300.0, 1.0e14, 1.0, 1.0e9)
        _, _, r2 = einstein_balance(5800.0, 1.0e14, 2.5, 3.0e10)
        assert r1 == r2

    def test_guards(self):
        with pytest.raises(DomainError):
            einstein_balance(0.0, 1.0e14, 1.0, 1.0e9)
        with pytest.raises(DomainError):
            einstein_balance(300.0, 1.0e14, 1.0, 0.0)


class TestEntropy:
    def test_photon_equilibrium_derivatives(self):
        cavity = CavitySpec.photon_gas(1.0, 300.0)
        bins = photon_bins(1.0, 300.0, 200)
        s, ds_de, ds_dn = entropy_and_derivatives(cavity, bins)
        assert s > 0.0
        assert ds_de * 300.0 == pytest.approx(1.0, rel=1e-2)
        # photon gas sits at mu = 0, so dS/dN vanishes against dS/dE scale
        assert abs(ds_dn) < 1e-2 * abs(ds_de) * K_BOLTZMANN * 300.0 / K_BOLTZMANN

    def test_massive_gas_recovers_minus_mu_over_t(self):
        t = 300.0
        mu = -0.15 * K_BOLTZMANN * t
        cavity = CavitySpec(1.0, t, mu, Statistics.FERMI)
        bins = photon_bins(1.0, t, 150, polarizations=1)
        _, ds_de, ds_dn = entropy_and_derivatives(cavity, bins)
        assert ds_de == pytest.approx(1.0 / t, rel=1e-2)
        assert ds_dn == pytest.approx(-mu / t, rel=1e-2)

    def test_sparse_cells_warn(self):
        cavity = CavitySpec.photon_gas(1.0e-40, 300.0)
        bins = photon_bins(1.0e-40, 300.0, 5)
        with pytest.warns(AccuracyWarning):
            entropy_and_derivatives(cavity, bins)

    def test_dense_cells_do_not_warn(self):
        # away from the pole every heavy occupancy class holds many cells
        cavity = CavitySpec.photon_gas(1.0, 300.0)
        bins = photon_bins(1.0, 300.0, 20, x_lo=0.5)
        with warnings.catch_warnings():
            warnings.simplefilter("error", AccuracyWarning)
            entropy_and_derivatives(cavity, bins)

    def test_empty_bins_rejected(self):
        with pytest.raises(DomainError):
            entropy_and_derivatives(CavitySpec.photon_gas(1.0, 300.0), [])

    @pytest.mark.parametrize("statistics, mu_over_kt", [
        (Statistics.BOSE, 0.0), (Statistics.BOSE, -0.5), (Statistics.BOSE, -3.0),
        (Statistics.FERMI, 0.0), (Statistics.FERMI, 2.0), (Statistics.FERMI, -3.0),
        (Statistics.FERMI, 10.0),
        (Statistics.BOLTZMANN, 0.0), (Statistics.BOLTZMANN, 3.0),
        (Statistics.BOLTZMANN, -3.0), (Statistics.BOLTZMANN, 12.0),
    ])
    @pytest.mark.parametrize("t", [300.0, 5800.0])
    def test_equilibrium_identities(self, statistics, mu_over_kt, t):
        # dS/dE = 1/T and dS/dN = -mu/T for every law, mu measured in kT
        mu = mu_over_kt * K_BOLTZMANN * t
        _, ds_de, ds_dn = entropy_and_derivatives(
            CavitySpec(1.0, t, mu, statistics), photon_bins(1.0, t, 200)
        )
        assert ds_de * t == pytest.approx(1.0, abs=1e-6)
        assert ds_dn * t / (K_BOLTZMANN * t) == pytest.approx(-mu_over_kt, abs=1e-6)

    @pytest.mark.parametrize("quanta, warns", [(10.5, False), (9.5, True)])
    def test_boltzmann_guard_counts_quanta(self, quanta, warns):
        # the Boltzmann rule: every bin must hold at least 10 quanta; mu
        # shifts the emptiest bin of this window to the given count
        t = 300.0
        bins = photon_bins(1.0, t, 20)
        y0 = bins.epsilon / (K_BOLTZMANN * t)
        fewest = float(np.min(bins.g * np.exp(-y0)))
        mu = K_BOLTZMANN * t * math.log(quanta / fewest)
        cavity = CavitySpec(1.0, t, mu, Statistics.BOLTZMANN)
        assert _sparse_warning(cavity, bins) is warns
        if warns:
            with pytest.warns(AccuracyWarning, match="some bins hold fewer than 10 quanta"):
                entropy_and_derivatives(cavity, bins)

    @pytest.mark.parametrize("fullest, warns", [(2.6, False), (2.8, True)])
    def test_boltzmann_count_turns_negative_past_e_quanta_per_cell(self, fullest, warns):
        # ln(g^N/N!) = N (1 + ln(g/N)) under Stirling is negative once a bin
        # holds more than e quanta per cell; mu sets the fullest cell's mean
        t = 5800.0
        bins = photon_bins(1.0, t, 20)
        y0 = float(np.min(bins.epsilon)) / (K_BOLTZMANN * t)
        mu = K_BOLTZMANN * t * (y0 + math.log(fullest))
        cavity = CavitySpec(1.0, t, mu, Statistics.BOLTZMANN)
        negative = [m for m in _accuracy_warnings(cavity, bins) if "more than e" in m]
        assert negative == (
            ["some bins hold more than e quanta per cell; the classical count "
             "ln(g^N/N!) is negative there"] if warns else []
        )


# ---------------------------------------------------------------------------
# the per-bin cavity code that the record array replaced, kept as oracles

_H, _C, _K = numkit.H_PLANCK, numkit.C_LIGHT, numkit.K_BOLTZMANN


def _old_bins(volume, temperature, n_bins, x_lo, x_hi, polarizations):
    """(p, dp, epsilon, d_epsilon, g) per bin, built one bin at a time."""
    nu_scale = _K * temperature / _H
    edges = nu_scale * np.exp(np.linspace(math.log(x_lo), math.log(x_hi), n_bins + 1))
    rows = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        nu, dnu = math.sqrt(lo * hi), hi - lo
        g = 4.0 * math.pi * volume * nu * nu * dnu / _C**3
        rows.append((_H * nu / _C, _H * dnu / _C, _H * nu, _H * dnu, polarizations * g))
    return rows


def _old_spectral(statistics, mu, temperature, rows):
    kt = _K * temperature
    out = []
    for i, (_, _, eps, _, g) in enumerate(rows):
        y = (eps - mu) / kt
        if statistics is Statistics.BOSE:
            if y <= 0:
                raise DomainError(f"Bose pole in bin {i}")
            out.append(g * math.exp(-y) if y > 700.0 else g / math.expm1(y))
        elif statistics is Statistics.FERMI:
            out.append(g * math.exp(-y) if y > 700.0 else g / (math.exp(y) + 1.0))
        else:
            if y < -700.0:
                raise NumericalError("Boltzmann weight overflows double precision")
            out.append(g * math.exp(-y))
    return np.array(out)


def _old_stirling(z):
    # z ln z - z, continued by 0 at z = 0
    z = np.asarray(z, dtype=float)
    out = np.zeros_like(z)
    pos = z > 0
    out[pos] = z[pos] * np.log(z[pos]) - z[pos]
    return out


def _boltzmann_quanta(eps, g, temperature, mu):
    y = (eps - mu) / (_K * temperature)
    if y < -700.0:
        raise NumericalError("Boltzmann weight overflows double precision")
    return g * math.exp(-y)


def _old_entropy_energy_number(statistics, rows, temperature, mu):
    """S = k sum ln g! - sum_s ln (g q_s)! under Stirling, E and N, per bin;
    for BOLTZMANN the gas count k sum ln(g^N / N!) = N ln g - ln N!."""
    s_total = energy = number = 0.0
    for _, _, eps, _, g in rows:
        if statistics is Statistics.BOLTZMANN:
            n = _boltzmann_quanta(eps, g, temperature, mu)
            s_total += n * math.log(g) - float(_old_stirling(n))
            energy += n * eps
            number += n
            continue
        d = occupancy(statistics, eps, mu, temperature)
        s_total += float(_old_stirling(g)) - float(np.sum(_old_stirling(g * d.q)))
        energy += g * d.s_bar * eps
        number += g * d.s_bar
    return _K * s_total, energy, number


def _old_guard(statistics, rows, temperature, mu, margin):
    """(warns, near): the per-bin Stirling guard, and whether some class
    (for BOLTZMANN, some bin's quanta count) lies within `margin` (relative)
    of one of its thresholds."""
    warns = near = False
    for _, _, eps, _, g in rows:
        if statistics is Statistics.BOLTZMANN:
            n = _boltzmann_quanta(eps, g, temperature, mu)
            warns |= n < 10.0
            near |= n > 0 and abs(math.log(n / 10.0)) < margin
            continue
        q = occupancy(statistics, eps, mu, temperature).q
        q = q[q > 0]
        warns |= bool(np.any(g * q[q > 1e-9] < 10.0))
        near |= bool(np.any(np.abs(np.log(q / 1e-9)) < margin))
        near |= bool(np.any(np.abs(math.log(g / 10.0) + np.log(q)) < margin))
    return warns, near


def _accuracy_warnings(cavity, bins) -> list:
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        entropy_and_derivatives(cavity, bins)
    return [str(w.message) for w in caught if issubclass(w.category, AccuracyWarning)]


def _sparse_warning(cavity, bins) -> bool:
    # the Stirling guard only; BOLTZMANN bins past e quanta per cell warn apart
    return any("Stirling" in message for message in _accuracy_warnings(cavity, bins))


# ln n! through ln Gamma(n + 1): shift the argument past 40, then Stirling's
# series, whose first omitted term there is below 1e-25
_BERNOULLI = [Decimal(1) / 6, Decimal(-1) / 30, Decimal(1) / 42, Decimal(-1) / 30,
              Decimal(5) / 66, Decimal(-691) / 2730, Decimal(7) / 6]
_PI = Decimal("3.14159265358979323846264338327950288419716939937511")


def _decimal_ln_factorial(n: Decimal) -> Decimal:
    z, shift = n + 1, Decimal(0)
    while z < 40:
        shift += z.ln()
        z += 1
    series = sum(b / (2 * k * (2 * k - 1) * z ** (2 * k - 1))
                 for k, b in enumerate(_BERNOULLI, start=1))
    return (z - Decimal("0.5")) * z.ln() - z + (2 * _PI).ln() / 2 + series - shift


def _decimal_gas_count(g: float, y: float) -> tuple:
    """(N, N ln g - (N ln N - N), ln(g^N / N!)) for N = g exp(-y), in 50 digits."""
    with localcontext() as ctx:
        ctx.prec = 50
        n = Decimal(g) * (-Decimal(y)).exp()
        stirling = n * Decimal(g).ln() - (n * n.ln() - n)
        exact = n * Decimal(g).ln() - _decimal_ln_factorial(n)
        return float(n), float(stirling), float(exact)


class TestAgainstPerBinCode:
    @settings(max_examples=80, deadline=None)
    @given(
        statistics=st.sampled_from(list(Statistics)),
        n_bins=st.integers(min_value=1, max_value=300),
        log_t=st.floats(min_value=1.0, max_value=4.0),
        log_v=st.floats(min_value=-12.0, max_value=1.0),
        log_x_lo=st.floats(min_value=-4.0, max_value=0.5),
        log_span=st.floats(min_value=0.05, max_value=3.0),
        mu_over_kt=st.floats(min_value=-10.0, max_value=10.0),
        polarizations=st.sampled_from([1, 2]),
    )
    def test_bins_counts_entropy_and_guard(
        self, statistics, n_bins, log_t, log_v, log_x_lo, log_span, mu_over_kt,
        polarizations,
    ):
        t, v = 10.0**log_t, 10.0**log_v
        x_lo, x_hi = 10.0**log_x_lo, 10.0 ** (log_x_lo + log_span)
        mu = mu_over_kt * _K * t
        rows = _old_bins(v, t, n_bins, x_lo, x_hi, polarizations)
        bins = photon_bins(v, t, n_bins, x_lo, x_hi, polarizations)
        columns = np.column_stack([bins[name] for name in bins.dtype.names])
        assert columns.tobytes() == np.array(rows).tobytes()

        cavity = CavitySpec(1.0, t, mu, statistics)
        try:
            old_counts = _old_spectral(statistics, mu, t, rows)
        except DomainError:
            with pytest.raises(DomainError):
                spectral_distribution(cavity, bins)
            with pytest.raises(DomainError):
                entropy_and_derivatives(cavity, bins)
            return
        counts = spectral_distribution(cavity, bins)
        assert np.all(np.abs(counts - old_counts) <= 1e-15 * np.abs(old_counts))

        new = quantstat._entropy_energy_number(statistics, bins, t, mu)[:3]
        try:
            old = _old_entropy_energy_number(statistics, rows, t, mu)
        except (NumericalError, DomainError):
            # the old per-cell supports hit their cap next to the Bose pole,
            # or their 1e-10 sum check at large Poisson means
            assert all(math.isfinite(value) for value in new)
            return
        s_new, e_new, n_new = new
        s_old, e_old, n_old = old
        assert e_new == pytest.approx(e_old, rel=1e-9, abs=0.0)
        assert n_new == pytest.approx(n_old, rel=1e-9, abs=0.0)
        # ln g! - sum_s ln (g q_s)! cancels terms of size g |ln g| in floats
        # (N ln g - ln N! terms of size N (|ln g| + |ln N|) for BOLTZMANN),
        # so the old sum holds no digits below this; compare above it
        g = bins.g
        size = g * (np.abs(np.log(g)) + 1.0)
        if statistics is Statistics.BOLTZMANN:
            n = counts[counts > 0]
            size = n * (np.abs(np.log(g[counts > 0])) + np.abs(np.log(n)) + 1.0)
        noise = 1e-15 * _K * float(np.sum(size))
        if noise < 1e-10 * abs(s_old):
            assert s_new == pytest.approx(s_old, rel=1e-9, abs=0.0)

        # the old 1 - q_1 of a Fermi cell is off by 1e-16 absolute, which is
        # 1e-7 relative at the 1e-9 mass threshold
        warns, near = _old_guard(statistics, rows, t, mu, margin=1e-6)
        if not near:
            assert _sparse_warning(cavity, bins) == warns


class TestCellEntropy:
    @pytest.mark.parametrize("statistics", list(Statistics))
    def test_tail_cells_keep_their_entropy(self, statistics):
        # far above mu every law is x = exp(-y) quanta at most: H = (1 + y) x
        y = np.array([40.0, 200.0, 700.0])
        h, _ = quantstat._cell_entropy(
            statistics, y, quantstat._mean_occupancy(statistics, y)
        )
        assert h == pytest.approx((1.0 + y) * np.exp(-y), rel=1e-12, abs=0.0)

    def test_fermi_holes_mirror_particles(self):
        y = np.array([0.3, 5.0, 30.0, 600.0])
        law = lambda y: quantstat._cell_entropy(
            Statistics.FERMI, y, quantstat._mean_occupancy(Statistics.FERMI, y)
        )
        assert law(-y)[0] == pytest.approx(law(y)[0], rel=1e-15, abs=0.0)
        # beyond double range on either side the cell is certain: H = 0
        h, _ = law(np.array([-np.inf, np.inf]))
        assert np.array_equal(h, [0.0, 0.0])

    def test_boltzmann_gas_entropy_against_exact_count(self):
        # g H is ln(g^N / N!) with Stirling's N ln N - N for ln N!, so it
        # exceeds the exact count by Stirling's remainder, which is under
        # ln(2 pi N)/2 + 1/(12 N) nats once a bin holds 10 quanta. The bins
        # are those of `cavity --statistics boltzmann --bins 20` at its
        # defaults, at --mu=1e-18 and at --temperature 300.
        for t, mu in ((5800.0, 0.0), (5800.0, 1e-18), (300.0, 0.0)):
            bins = photon_bins(1.0, t, 20)
            y = (bins.epsilon - mu) / (_K * t)
            h, q_light = quantstat._cell_entropy(Statistics.BOLTZMANN, y, np.exp(-y))
            assert np.array_equal(q_light, np.exp(-y))
            for g, y_bin, gh in zip(bins.g, y, bins.g * h):
                n, stirling, exact = _decimal_gas_count(g, y_bin)
                tol = 1e-12 * n * (1.0 + abs(y_bin))
                assert gh == pytest.approx(stirling, abs=tol, rel=0.0)
                if n >= 10.0:
                    remainder = math.log(2.0 * math.pi * n) / 2.0 + 1.0 / (12.0 * n)
                    assert -tol < gh - exact <= remainder + tol

    def test_boltzmann_entropy_no_longer_trips_the_sum_check(self):
        cavity = CavitySpec(1.0, 5800.0, 1e-18, Statistics.BOLTZMANN)
        s, ds_de, ds_dn = entropy_and_derivatives(cavity, photon_bins(1.0, 5800.0, 20))
        # most quanta sit in bins with N > e g, where ln(g^N / N!) < 0
        assert math.isfinite(s) and s < 0.0
        assert ds_de * 5800.0 == pytest.approx(1.0, abs=1e-6)
        assert ds_dn * 5800.0 == pytest.approx(-1e-18, rel=1e-6)

    def test_near_pole_window_has_an_entropy(self):
        # x_lo = 1e-7 once needed a 3e8-point geometric support per cell; the
        # mu stencil now stays below the pole at the lowest bin
        cavity = CavitySpec.photon_gas(1.0, 5800.0)
        _, ds_de, _ = entropy_and_derivatives(
            cavity, photon_bins(1.0, 5800.0, 200, x_lo=1e-7)
        )
        assert ds_de * 5800.0 == pytest.approx(1.0, abs=1e-3)


class TestVonLaue:
    ARGS = dict(
        area=1.0e-4,
        length=0.5,
        dnu=2.0e11,
        focal_area=1.0e-8,
        packet_dy=1.0e-3,
    )

    def test_average_extension_recovers_field_count(self):
        f, n1, n2, n3, ratio = vonlaue_dof(**self.ARGS)
        assert ratio == pytest.approx(1.0, rel=1e-12)
        assert n1 * n2 * n3 == pytest.approx(f, rel=1e-12)

    def test_tight_packets_overcount(self):
        *_, ratio = vonlaue_dof(**self.ARGS, r=1.0)
        assert ratio == pytest.approx(2.0 * math.pi, rel=1e-12)

    def test_explicit_bandwidth_override(self):
        dy = self.ARGS["packet_dy"]
        *_, ratio = vonlaue_dof(**self.ARGS, packet_dnu=C_LIGHT / (2.0 * dy))
        assert ratio == pytest.approx(1.0, rel=1e-12)

    def test_component_counts(self):
        f, n1, n2, n3, _ = vonlaue_dof(**self.ARGS)
        a = self.ARGS
        assert n2 == pytest.approx(a["area"] / a["focal_area"], rel=1e-15)
        assert n3 == pytest.approx(a["length"] / (2.0 * a["packet_dy"]), rel=1e-15)
        assert f == pytest.approx(
            a["area"] * a["length"] * a["dnu"] / (a["focal_area"] * C_LIGHT),
            rel=1e-15,
        )

    def test_guards(self):
        bad = dict(self.ARGS)
        bad["focal_area"] = 0.0
        with pytest.raises(DomainError):
            vonlaue_dof(**bad)
        with pytest.raises(DomainError):
            vonlaue_dof(**self.ARGS, r=0.0)
        with pytest.raises(DomainError):
            vonlaue_dof(**self.ARGS, packet_dnu=-1.0)


class TestPacketQuanta:
    def test_single_bose_cell_at_unit_mean(self):
        w = packet_quanta_dist(Statistics.BOSE, 1, 1.0)
        n = np.arange(w.size)
        assert np.max(np.abs(w - 0.5**(n + 1))) < 1e-15

    def test_bose_matches_negative_binomial(self):
        g, sb = 4, 1.7
        w = packet_quanta_dist(Statistics.BOSE, g, sb)
        ref = nbinom.pmf(np.arange(w.size), g, 1.0 / (1.0 + sb))
        assert np.max(np.abs(w - ref)) < 1e-12

    def test_fermi_is_binomial(self):
        w = packet_quanta_dist(Statistics.FERMI, 6, 0.3)
        ref = binom.pmf(np.arange(7), 6, 0.3)
        assert w.size == 7
        assert np.max(np.abs(w - ref)) < 1e-13

    def test_boltzmann_is_poisson(self):
        g, sb = 5, 0.8
        w = packet_quanta_dist(Statistics.BOLTZMANN, g, sb)
        ref = poisson.pmf(np.arange(w.size), g * sb)
        assert np.max(np.abs(w - ref)) < 1e-13

    def test_guards(self):
        with pytest.raises(DomainError):
            packet_quanta_dist(Statistics.BOSE, 0, 1.0)
        with pytest.raises(DomainError):
            packet_quanta_dist(Statistics.BOSE, 2, -1.0)
        with pytest.raises(DomainError):
            packet_quanta_dist(Statistics.FERMI, 2, 1.0)

    def test_compact_support_at_many_cells(self):
        # the stopping rule must not balloon the support when the mean
        # stays small against the cell count
        w = packet_quanta_dist(Statistics.BOSE, 10_000, 2.0e-4)
        assert w.size < 100
        assert abs(float(np.sum(w)) - 1.0) < 1e-9

    def test_many_cell_bose_approaches_poisson(self):
        w = packet_quanta_dist(Statistics.BOSE, 10_000, 2.0e-4)
        ref = poisson.pmf(np.arange(w.size), 2.0)
        assert 0.5 * float(np.sum(np.abs(w - ref))) < 1e-3


class TestBinomialPmf:
    def test_against_reference(self):
        for n, eta in ((5, 0.3), (12, 0.77), (40, 0.5)):
            ours = binomial_pmf(n, eta)
            ref = binom.pmf(np.arange(n + 1), n, eta)
            assert np.max(np.abs(ours - ref)) < 1e-13

    def test_degenerate_efficiencies(self):
        all_miss = binomial_pmf(7, 0.0)
        assert all_miss[0] == 1.0 and np.sum(all_miss) == 1.0
        all_hit = binomial_pmf(7, 1.0)
        assert all_hit[7] == 1.0 and np.sum(all_hit) == 1.0

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(min_value=0, max_value=200),
        st.floats(min_value=0.0, max_value=1.0),
    )
    def test_normalized(self, n, eta):
        assert abs(float(np.sum(binomial_pmf(n, eta))) - 1.0) < 1e-12

    def test_guards(self):
        with pytest.raises(DomainError):
            binomial_pmf(-1, 0.5)
        with pytest.raises(DomainError):
            binomial_pmf(3, 1.5)


class TestCountLaws:
    def test_closed_form_matches_thinning_fold(self):
        # dual route: parameter-rescaled law vs the explicit binomial fold
        for stats, sb_values in (
            (Statistics.BOSE, (0.5, 2.0)),
            (Statistics.FERMI, (0.3, 0.9)),
            (Statistics.BOLTZMANN, (0.5, 2.0)),
        ):
            for g in (1, 3, 7):
                for sb in sb_values:
                    for eta in (0.3, 0.7, 1.0):
                        closed = count_distribution(stats, g, sb, eta)
                        folded = thinned_count_distribution(stats, g, sb, eta)
                        k = min(closed.w.size, folded.size)
                        assert np.max(np.abs(closed.w[:k] - folded[:k])) < 1e-9

    def test_mean_is_eta_g_sbar(self):
        d = count_distribution(Statistics.BOSE, 3, 1.2, 0.4)
        assert d.m_bar == pytest.approx(3 * 1.2 * 0.4, rel=1e-12)

    def test_variances_against_closed_forms(self):
        for g, m_bar in ((1, 0.5), (3, 1.0), (10, 2.0)):
            sb = m_bar / g
            bose = count_distribution(Statistics.BOSE, g, sb, 1.0)
            assert bose.central_moment(2) == pytest.approx(
                count_variance(Statistics.BOSE, g, m_bar), rel=1e-9
            )
            assert count_variance(Statistics.BOSE, g, m_bar) == pytest.approx(
                m_bar * (1.0 + m_bar / g), rel=1e-15
            )
            boltz = count_distribution(Statistics.BOLTZMANN, g, sb, 1.0)
            assert boltz.central_moment(2) == pytest.approx(m_bar, rel=1e-9)
        fermi = count_distribution(Statistics.FERMI, 10, 0.2, 1.0)
        assert fermi.central_moment(2) == pytest.approx(
            count_variance(Statistics.FERMI, 10, 2.0), rel=1e-12
        )
        assert count_variance(Statistics.FERMI, 10, 2.0) == pytest.approx(
            2.0 * (1.0 - 0.2), rel=1e-15
        )

    def test_bose_noise_exceeds_poisson_fermi_sits_below(self):
        m_bar, g = 2.0, 4
        assert count_variance(Statistics.BOSE, g, m_bar) > m_bar
        assert count_variance(Statistics.FERMI, g, m_bar) < m_bar
        assert count_variance(Statistics.BOLTZMANN, g, m_bar) == m_bar

    def test_central_moments(self):
        d = count_distribution(Statistics.BOSE, 2, 0.7, 0.9)
        assert d.central_moment(1) == pytest.approx(0.0, abs=1e-12)
        assert d.central_moment(2) == pytest.approx(
            count_variance(Statistics.BOSE, 2, d.m_bar), rel=1e-9
        )
        # negative binomial skew is positive
        assert d.central_moment(3) > 0.0

    def test_count_distribution_guards(self):
        with pytest.raises(DomainError):
            count_distribution(Statistics.BOSE, 2, 1.0, 0.0)
        with pytest.raises(DomainError):
            count_distribution(Statistics.BOSE, 2, 1.0, 1.1)
        with pytest.raises(DomainError):
            count_distribution(Statistics.FERMI, 2, 1.5, 0.9)
        with pytest.raises(DomainError):
            thinned_count_distribution(Statistics.FERMI, 2, 1.5, 0.5)

    @pytest.mark.parametrize("statistics", list(Statistics))
    def test_thinned_mean_underflow_is_named(self, statistics):
        # eta * s_bar below the float range: no law is built at mean 0
        with pytest.raises(DomainError, match="eta \\* s_bar underflows to 0"):
            count_distribution(statistics, 3, 1e-200, 1e-200)

    def test_distribution_validation(self):
        with pytest.raises(DomainError):
            CountDistribution(Statistics.BOSE, 1, 0.5, np.array([0.7, 0.7]))
        with pytest.raises(DomainError):
            CountDistribution(Statistics.BOSE, 1, 2.0, np.array([0.5, 0.5]))
        with pytest.raises(DomainError):
            CountDistribution(Statistics.FERMI, 1, 1.5, np.array([0.25, 0.75]))

    def test_fold_check_equal_efficiencies_exact(self):
        assert binomial_fold_check(5, 9, 0.4) < 1e-14



class TestSupportCap:
    # the cap holds the support of one law; it must be checked before the
    # support is allocated, or a large mean dies on the allocation itself

    @pytest.mark.parametrize(
        "weights, args",
        [
            # 1e12 would have asked for a multi-terabyte support
            ("_poisson_weights", (1e12,)),
            # first supports of 10,047,465 and 10,350,780 points, about
            # 80 MB each, just over the cap
            ("_poisson_weights", (1e7,)),
            ("_negative_binomial_weights", (10000, 900.0)),
            # 10**8 + 1 points, 800 MB, in every branch of the binomial
            ("binomial_pmf", (10**8, 0.5)),
            ("binomial_pmf", (10**8, 0.0)),
            ("binomial_pmf", (10**8, 1.0)),
        ],
    )
    def test_over_the_cap_raises_before_allocating(self, weights, args):
        tracemalloc.start()
        try:
            with pytest.raises(NumericalError):
                getattr(quantstat, weights)(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    @pytest.mark.parametrize("statistics", list(Statistics))
    @pytest.mark.parametrize(
        "g", [2**53 + 1, 10**320, math.inf], ids=["2**53+1", "10**320", "inf"]
    )
    def test_packet_count_beyond_exact_floats(self, statistics, g):
        # the laws use g as a float; past 2**53 it is no longer the count
        with pytest.raises(DomainError, match="no larger than 2\\*\\*53"):
            packet_quanta_dist(statistics, g, 0.5)
        with pytest.raises(DomainError, match="no larger than 2\\*\\*53"):
            count_distribution(statistics, g, 0.5, 1.0)

    def test_count_distribution_reports_the_cap(self):
        with pytest.raises(NumericalError, match="bookkeeping cap"):
            count_distribution(Statistics.BOSE, 1, 1e12, 1.0)
        with pytest.raises(NumericalError, match="bookkeeping cap"):
            count_distribution(Statistics.BOLTZMANN, 1, 1e12, 1.0)

    def test_large_support_under_the_cap_still_works(self):
        w = quantstat._poisson_weights(1e5)
        assert w.size < quantstat._MAX_SUPPORT
        assert float(np.sum(w)) == pytest.approx(1.0, abs=1e-9)

    def test_a_short_first_support_doubles(self):
        # mean 10, sd 10.5: the first support ends at m = 197, where the
        # tail mean is still over budget, so the law ends at m = 394
        assert quantstat._negative_binomial_weights(1, 10.0).size == 395

    @settings(max_examples=60, deadline=None)
    @given(
        bose=st.booleans(),
        log2_g=st.floats(min_value=0.0, max_value=53.0),
        log10_mean=st.floats(min_value=-6.0, max_value=5.0),
    )
    def test_the_support_bounds_the_tail_mass_too(self, bose, log2_g, log10_mean):
        # the support is chosen on its tail mean alone; the geometric bound on
        # the mass beyond it, w(m) r / (1 - r), must meet the same budget
        g = int(2.0**log2_g)
        sb = 10.0**log10_mean / g
        if bose:
            w = quantstat._negative_binomial_weights(g, sb)
            m = w.size - 1
            r = (g + m) / (m + 1.0) * sb / (1.0 + sb)
        else:
            w = quantstat._poisson_weights(g * sb)
            m = w.size - 1
            r = g * sb / (m + 1.0)
        assert r < 1.0
        assert float(w[-1]) * (r / (1.0 - r)) <= quantstat._TAIL_MEAN


class TestSampling:
    def test_reproducible(self):
        a = sample_counts(
            Statistics.BOSE, 3, 0.5, 0.7, 200, RandomStream(11, 4)
        )
        b = sample_counts(
            Statistics.BOSE, 3, 0.5, 0.7, 200, RandomStream(11, 4)
        )
        assert np.array_equal(a, b)
        c = sample_counts(
            Statistics.BOSE, 3, 0.5, 0.7, 200, RandomStream(11, 5)
        )
        assert not np.array_equal(a, c)

    def test_stream_consumption(self):
        rng = RandomStream(0, 0)
        sample_counts(Statistics.BOLTZMANN, 2, 0.5, 0.5, 50, rng)
        assert rng.position == 100

    @pytest.mark.parametrize("statistics, s_bar", [
        (Statistics.BOSE, 2.0), (Statistics.FERMI, 0.4), (Statistics.BOLTZMANN, 1.5),
    ])
    def test_perfect_detector_draws_no_binomials(self, statistics, s_bar):
        # a binomial at eta = 1 returns its n, so the thinning is skipped
        rng, ref = RandomStream(8, 1), RandomStream(8, 1)
        draws = sample_counts(statistics, 4, s_bar, 1.0, 500, rng)
        cum = np.cumsum(packet_quanta_dist(statistics, 4, s_bar))
        quanta = np.searchsorted(cum, ref.uniform(size=500), side="right")
        want = ref.binomial(np.minimum(quanta, cum.size - 1), 1.0)
        assert np.array_equal(draws, want)
        assert rng.position == 500

    def test_sample_mean_near_expectation(self):
        n = 100_000
        draws = sample_counts(
            Statistics.BOSE, 3, 1.0, 0.6, n, RandomStream(7, 0)
        )
        m_bar = 3 * 1.0 * 0.6
        sigma = math.sqrt(count_variance(Statistics.BOSE, 3, m_bar) / n)
        assert abs(float(np.mean(draws)) - m_bar) < 5.0 * sigma

    def test_perfect_detector_keeps_cell_totals(self):
        draws = sample_counts(
            Statistics.FERMI, 4, 0.5, 1.0, 1000, RandomStream(3, 0)
        )
        assert draws.max() <= 4
        assert draws.min() >= 0

    def test_guards(self):
        with pytest.raises(DomainError):
            sample_counts(Statistics.BOSE, 3, 0.5, 0.7, 0, RandomStream(0))
        with pytest.raises(DomainError):
            sample_counts(Statistics.BOSE, 3, 0.5, 1.5, 10, RandomStream(0))

    @pytest.mark.parametrize("statistics, s_bar", [
        (Statistics.BOSE, 2.0), (Statistics.FERMI, 0.4), (Statistics.BOLTZMANN, 1.5),
    ])
    def test_moment_blocks_are_keyed_by_block_index(self, statistics, s_bar):
        # block b draws its counts from stream id b of the seed, the last
        # block holding the rest, whatever the worker count
        n = 2 * numkit.MC_BLOCK + 3
        draws = np.concatenate([
            sample_counts(statistics, 4, s_bar, 0.7, size, RandomStream(5, b))
            for b, size in enumerate((numkit.MC_BLOCK, numkit.MC_BLOCK, 3))
        ]).astype(np.int64)
        want = (int(np.sum(draws)), int(np.sum(draws**2)))
        for workers in (1, 2, 7):
            moments = sample_count_moments(
                statistics, 4, s_bar, 0.7, n, RandomStream(5, 9), workers
            )
            assert moments == want

    def test_moment_guards(self):
        with pytest.raises(DomainError):
            sample_count_moments(Statistics.BOSE, 3, 0.5, 0.7, 0, RandomStream(0))
        with pytest.raises(DomainError):
            sample_count_moments(Statistics.BOSE, 3, 0.5, 1.5, 10, RandomStream(0))


class TestCavitySpec:
    def test_photon_gas_constructor(self):
        c = CavitySpec.photon_gas(2.0, 500.0)
        assert c.mu == 0.0
        assert c.statistics is Statistics.BOSE

    def test_guards(self):
        with pytest.raises(DomainError):
            CavitySpec(0.0, 300.0, 0.0, Statistics.BOSE)
        with pytest.raises(DomainError):
            CavitySpec(1.0, -300.0, 0.0, Statistics.BOSE)
