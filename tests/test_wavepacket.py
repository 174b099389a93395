"""Unit tests for relativistic packet spreading and the beam diagnostics."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.constants import c as C_LIGHT
from scipy.constants import electron_mass, hbar, proton_mass

from packetlab.errors import DomainError
from packetlab.numkit import SampledFunction1D, sampled_gaussian
from packetlab.wavepacket import (
    BOHR_MAGNETON,
    Dispersion,
    PacketEvolution,
    accumulation_time,
    carrier_wavenumber,
    coherence_profile,
    group_velocity,
    intrinsic_moment,
    min_width_spreading_bound,
    spread_after_flight,
    stern_gerlach_deflection,
    tau_doubling,
    width_at_time,
)

EV = 1.602176634e-19


def _proton_k0(kinetic_ev):
    t = kinetic_ev * EV
    mc2 = proton_mass * C_LIGHT**2
    pc = math.sqrt(t * (t + 2.0 * mc2))
    return pc / (hbar * C_LIGHT)


class TestDispersion:
    def test_compton_wavenumber(self):
        d = Dispersion(proton_mass)
        assert d.kappa == pytest.approx(proton_mass * C_LIGHT / hbar, rel=1e-15)

    def test_mass_guard(self):
        with pytest.raises(DomainError):
            Dispersion(-1.0)

    def test_carrier_wavenumber(self):
        t = 6e6 * EV
        k0 = carrier_wavenumber(Dispersion(proton_mass), t)
        assert k0 == pytest.approx(_proton_k0(6e6), rel=1e-15)
        with pytest.raises(DomainError):
            carrier_wavenumber(Dispersion(proton_mass), 0.0)

    def test_group_velocity_closed_form(self):
        d = Dispersion(proton_mass)
        k0 = _proton_k0(6e6)
        v0, omega0 = group_velocity(d, k0)
        assert omega0 == pytest.approx(
            C_LIGHT * math.sqrt(k0**2 + d.kappa**2), rel=1e-14
        )
        assert v0 == pytest.approx(k0 * C_LIGHT**2 / omega0, rel=1e-14)

    def test_subluminal(self):
        d = Dispersion(electron_mass)
        for k0 in (1e8, 1e10, 1e12, 1e14):
            v0, _ = group_velocity(d, k0)
            assert 0.0 < v0 < C_LIGHT


class TestWidthHistory:
    def test_initial_width(self):
        ev = PacketEvolution(2.0, 1.0, 0.5)
        assert width_at_time(ev, 1.0) == 2.0

    def test_hyperbolic_form(self):
        ev = PacketEvolution(2.0, 0.0, 0.5)
        t = 7.0
        want = math.sqrt(4.0 + 0.25 * 49.0)
        assert width_at_time(ev, t) == pytest.approx(want, rel=1e-15)

    @settings(max_examples=50, deadline=None)
    @given(st.floats(min_value=-1e3, max_value=1e3))
    def test_even_around_t0(self, dt):
        # t0 +/- dt round differently, so evenness holds to the last ulp only
        ev = PacketEvolution(1.5, 10.0, 0.2)
        assert width_at_time(ev, 10.0 + dt) == pytest.approx(
            width_at_time(ev, 10.0 - dt), rel=1e-12
        )

    def test_doubling_time(self):
        ev = PacketEvolution(3.0, 0.0, 0.7)
        tau2 = tau_doubling(ev)
        assert tau2 == pytest.approx(math.sqrt(3.0) * 3.0 / 0.7, rel=1e-14)
        assert width_at_time(ev, tau2) == pytest.approx(6.0, rel=1e-14)

    def test_spreading_velocity_derivative(self):
        # d sigma / dt = dv_g^2 (t - t0) / sigma(t)
        ev = PacketEvolution(1.0, 0.0, 0.3)
        t, h = 5.0, 1e-6
        fd = (width_at_time(ev, t + h) - width_at_time(ev, t - h)) / (2.0 * h)
        assert fd == pytest.approx(0.3**2 * t / width_at_time(ev, t), rel=1e-7)

    def test_velocity_asymptote(self):
        # the width grows at dv_g long after t0
        ev = PacketEvolution(1.0, 0.0, 0.3)
        t, h = 1e9, 1e3
        slope = (width_at_time(ev, t + h) - width_at_time(ev, t)) / h
        assert slope == pytest.approx(0.3, rel=1e-10)

    def test_frozen_packet_never_doubles(self):
        ev = PacketEvolution(1.0, 0.0, 0.0)
        assert math.isinf(tau_doubling(ev))

    def test_width_guard(self):
        with pytest.raises(DomainError):
            PacketEvolution(0.0, 0.0, 0.5)


class TestMinWidthBound:
    def test_transverse_closed_form(self):
        d = Dispersion(proton_mass)
        k0 = _proton_k0(6e6)
        _, omega0 = group_velocity(d, k0)
        beta = k0 * C_LIGHT / omega0
        dx0 = 1e-12
        want = C_LIGHT * math.sqrt(1.0 - beta**2) / (2.0 * d.kappa * dx0)
        got = min_width_spreading_bound(d, k0, dx0, "transverse")
        assert got == pytest.approx(want, rel=1e-12)

    def test_longitudinal_carries_extra_contraction(self):
        d = Dispersion(proton_mass)
        k0 = _proton_k0(6e6)
        _, omega0 = group_velocity(d, k0)
        beta = k0 * C_LIGHT / omega0
        dy0 = 2e-15
        trans = min_width_spreading_bound(d, k0, dy0, "transverse")
        lon = min_width_spreading_bound(d, k0, dy0, "longitudinal")
        assert lon == pytest.approx(trans * (1.0 - beta**2), rel=1e-12)

    def test_massless_rejected(self):
        with pytest.raises(DomainError):
            min_width_spreading_bound(Dispersion(0.0), 1e7, 1e-9, "transverse")

    def test_direction_guard(self):
        d = Dispersion(proton_mass)
        with pytest.raises(DomainError):
            min_width_spreading_bound(d, 1e10, 1e-12, "sideways")


class TestSpreadAfterFlight:
    def test_proton_benchmark(self):
        d = Dispersion(proton_mass)
        out = spread_after_flight(d, _proton_k0(6e6), 2e-15, 0.05, "longitudinal")
        assert out["regime"] == "asymptotic"
        assert out["final_width"] == pytest.approx(0.023, rel=0.01)

    def test_asymptotic_matches_velocity_times_time(self):
        d = Dispersion(proton_mass)
        out = spread_after_flight(d, _proton_k0(6e6), 2e-15, 0.05, "longitudinal")
        assert out["final_width"] == pytest.approx(
            out["v_spread"] * out["flight_time"], rel=1e-6
        )

    def test_exact_regime_for_wide_packet(self):
        d = Dispersion(proton_mass)
        k0 = _proton_k0(6e6)
        out = spread_after_flight(d, k0, 1e-3, 0.05, "longitudinal")
        assert out["regime"] == "exact"
        # a metre-scale packet does not measurably spread over 5 cm
        assert out["final_width"] == pytest.approx(1e-3, rel=1e-9)

    def test_regime_boundary_continuous(self):
        # the two formulas agree where the regime switches
        d = Dispersion(proton_mass)
        k0 = _proton_k0(6e6)
        out = spread_after_flight(d, k0, 2e-15, 0.05, "longitudinal")
        sigma = math.sqrt(2e-15**2 + (out["v_spread"] * out["flight_time"]) ** 2)
        assert out["final_width"] == pytest.approx(sigma, rel=1e-4)

    def test_input_guards(self):
        d = Dispersion(proton_mass)
        with pytest.raises(DomainError):
            spread_after_flight(d, _proton_k0(6e6), 0.0, 0.05)
        with pytest.raises(DomainError):
            spread_after_flight(d, _proton_k0(6e6), 1e-15, -1.0)


def _overlap_profile(psi, shifts):
    """coherence_profile by one interpolated O(N) overlap per shift.

    The per-cell scan coherence_profile ran before it took one FFT; kept as
    its oracle. Off-grid samples count as zero, so on a fractional shift the
    last cell's half-step term is lost: the two agree only for packets with
    negligible edge amplitude.
    """
    level = math.exp(-0.5)
    x = psi.grid
    vals = np.asarray(psi.values)
    dx = psi.spacing

    def gamma_abs(b):
        xs = x + b
        inside = (xs >= psi.start) & (xs <= psi.end)
        if not np.any(inside):
            return 0.0
        shifted = np.zeros_like(vals)
        pos = (xs[inside] - psi.start) / dx
        # clip first, so a shift onto the last cell reads it with frac = 1
        i0 = np.clip(np.floor(pos).astype(int), 0, psi.n - 2)
        frac = pos - i0
        shifted[inside] = vals[i0] * (1.0 - frac) + vals[i0 + 1] * frac
        return abs(complex(np.sum(np.conj(vals) * shifted)) * dx)

    requested = [gamma_abs(float(b)) for b in shifts]
    prev = gamma_abs(0.0)
    for j in range(1, psi.n):
        cur = gamma_abs(j * dx)
        if cur <= level:
            if prev == cur:
                return requested, j * dx
            return requested, (j - 1) * dx + dx * (prev - level) / (prev - cur)
        prev = cur
    return requested, None


@st.composite
def packets(draw):
    """Normalized Gaussian, chirped or two-hump packet, n in 8..4096.

    The grid reaches at least 11 widths past the outer hump, so the edge
    amplitude stays below 1e-13 of the peak.
    """
    n = draw(st.integers(min_value=8, max_value=4096))
    kind = draw(st.sampled_from(["gaussian", "chirp", "two-hump"]))
    center = draw(st.floats(min_value=-1.0, max_value=1.0))
    k0 = draw(st.floats(min_value=-2.0, max_value=2.0))
    offset = draw(st.floats(min_value=1.0, max_value=3.0)) if kind == "two-hump" else 0.0
    half = abs(center) + offset + draw(st.floats(min_value=11.0, max_value=16.0))
    x = np.linspace(-half, half, n)
    psi = np.exp(-((x - center - offset) ** 2) / 4.0 + 1j * k0 * x)
    if kind == "chirp":
        psi = psi * np.exp(1j * draw(st.floats(min_value=0.05, max_value=1.0)) * x * x)
    if kind == "two-hump":
        phase = draw(st.floats(min_value=0.0, max_value=2.0 * math.pi))
        psi = psi + np.exp(-((x - center + offset) ** 2) / 4.0 + 1j * phase)
    return SampledFunction1D(x[0], x[1] - x[0], psi).normalized()


class TestCoherence:
    @settings(max_examples=40, deadline=None)
    @given(packets(), st.lists(st.floats(min_value=-1.0, max_value=1.0), max_size=4))
    def test_matches_overlap_oracle(self, psi, fractions):
        shifts = [f * (psi.end - psi.start) for f in fractions]
        gamma, length = coherence_profile(psi, shifts)
        want_gamma, want_length = _overlap_profile(psi, shifts)
        assert gamma == pytest.approx(want_gamma, rel=0.0, abs=1e-12)
        if want_length is None:
            assert length is None
        else:
            assert length == pytest.approx(want_length, rel=1e-12, abs=0.0)

    def test_gaussian_profile_closed_form(self):
        sigma = 1.0
        g = sampled_gaussian(0.0, sigma, -8.0, 16.0 / 2047, 2048).normalized()
        shifts = [0.5, 1.0, 2.0, 3.0]
        gamma, length = coherence_profile(g, shifts)
        for b, got in zip(shifts, gamma):
            assert got == pytest.approx(
                math.exp(-b * b / (8.0 * sigma * sigma)), abs=1e-6
            )

    def test_length_is_twice_width(self):
        for sigma in (0.5, 1.0, 2.0):
            g = sampled_gaussian(
                0.0, sigma, -8.0 * sigma, 16.0 * sigma / 2047, 2048
            ).normalized()
            _, length = coherence_profile(g, [sigma])
            assert length == pytest.approx(2.0 * sigma, rel=0.01)

    def test_invariant_under_free_spreading(self):
        # analytically evolved free Gaussian: the momentum spectrum is fixed,
        # so the coherence length must not move while the width triples
        sigma0 = 1.0
        a = math.sqrt(8.0)  # spread factor sqrt(1 + a^2) = 3
        span = 10.0 * sigma0 * 3.0
        x = np.linspace(-span, span, 2048)
        psi = np.exp(-x * x / (4.0 * sigma0**2 * (1.0 + 1j * a)))
        evolved = SampledFunction1D(x[0], x[1] - x[0], psi).normalized()
        _, length = coherence_profile(evolved, [sigma0])
        assert length == pytest.approx(2.0 * sigma0, rel=0.02)

    def test_narrow_grid_shortens_length(self):
        # window truncation: overlap lost off-grid drags |gamma| down early,
        # so the measured length undershoots the wide-grid 2*sigma value
        g = sampled_gaussian(0.0, 1.0, -0.8, 1.6 / 511, 512).normalized()
        _, length = coherence_profile(g, [0.1])
        assert length is not None
        assert 0.0 < length < 2.0

    def test_norm_guard(self):
        g = sampled_gaussian(0.0, 1.0, -8.0, 16.0 / 511, 512)
        bad = SampledFunction1D(g.start, g.spacing, 0.5 * g.values)
        with pytest.raises(DomainError):
            coherence_profile(bad, [1.0])

    def test_shift_beyond_grid(self):
        g = sampled_gaussian(0.0, 1.0, -8.0, 16.0 / 511, 512).normalized()
        with pytest.raises(DomainError):
            coherence_profile(g, [100.0])


class TestBeamNumbers:
    def test_accumulation_time(self):
        t = accumulation_time(2.18 * EV, 3.5e-13, 1e-18)
        assert t == pytest.approx(2.18 * EV / (3.5e-13 * 1e-18), rel=1e-15)
        assert t == pytest.approx(9.98e11, rel=0.005)

    def test_accumulation_guards(self):
        with pytest.raises(DomainError):
            accumulation_time(0.0, 1.0, 1.0)

    def test_stern_gerlach_angle(self):
        alpha = stern_gerlach_deflection(BOHR_MAGNETON, 1e3, 7e-5, 8.96e-23)
        want = BOHR_MAGNETON * 1e3 * 7e-5 / 8.96e-23
        assert alpha == pytest.approx(want, rel=1e-15)

    def test_stern_gerlach_guards(self):
        with pytest.raises(DomainError):
            stern_gerlach_deflection(1e-23, 1e3, 7e-5, 0.0)
        with pytest.raises(DomainError):
            stern_gerlach_deflection(1e-23, 1e3, -1.0, 1e-22)

    def test_bohr_magneton(self):
        assert intrinsic_moment(electron_mass) == BOHR_MAGNETON
        assert BOHR_MAGNETON == pytest.approx(9.2740100783e-24, rel=1e-6)

    def test_moment_scales_inversely_with_mass(self):
        ratio = intrinsic_moment(electron_mass) / intrinsic_moment(proton_mass)
        assert ratio == pytest.approx(proton_mass / electron_mass, rel=1e-12)
