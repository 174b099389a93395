"""Unit tests for the first-order transition factorization audit."""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.special import eval_hermite

import packetlab
from packetlab.actionprob import (
    ScattererSpec,
    TransitionSetup,
    action_ratio_audit,
    audit_scenario,
    efficiency_decomposition,
    final_packet_family,
    first_order_transition,
    width_ratio,
)
from packetlab.errors import DomainError
from packetlab.numkit import SampledFunction1D, sampled_gaussian
from oracles import (
    full_grid_audit,
    full_grid_transition,
    fsum_position_width,
    integrate_1d,
    moment_audit,
)


def _grid(start=-30.0, spacing=0.1):
    num = int(round(-2.0 * start / spacing)) + 1
    return start, spacing, num


class TestFinalPacketFamily:
    def test_orthonormal(self):
        start, spacing, num = _grid(-8.0, 0.125)
        family = final_packet_family(0.0, 1.0, start, spacing, num, 8)
        v = np.stack([f.values for f in family])
        gram = (v @ v.T.conj()).real * spacing
        assert np.max(np.abs(gram - np.eye(8))) < 1e-8

    def test_hermite_orders_against_scipy(self):
        # every order the cap admits, on [-8, 8]; the recurrence's rounding
        # grows with |H_k|, so the gate is relative to max|H_k| on the grid
        start, spacing, num = _grid(-8.0, 1.0 / 64.0)
        family = final_packet_family(0.0, 1.0, start, spacing, num, 16)
        u = start + spacing * np.arange(num)
        for k, packet in enumerate(family):
            norm = 1.0 / math.sqrt(2.0**k * math.factorial(k) * math.sqrt(math.pi))
            hermite = eval_hermite(k, u)
            want = norm * hermite * np.exp(-0.5 * u * u)
            gap = np.max(np.abs(packet.values - want))
            assert gap <= 4e-15 * norm * np.max(np.abs(hermite)), k

    def test_count_cap(self):
        start, spacing, num = _grid(-8.0, 0.125)
        with pytest.raises(DomainError):
            final_packet_family(0.0, 1.0, start, spacing, num, 17)

    def test_width_guard(self):
        start, spacing, num = _grid(-8.0, 0.125)
        with pytest.raises(DomainError):
            final_packet_family(0.0, 0.0, start, spacing, num, 2)

    def test_ground_state_width(self):
        from packetlab.numkit import position_width

        start, spacing, num = _grid(-8.0, 0.125)
        family = final_packet_family(0.0, 2.0, start, spacing, num, 1)
        _, std = position_width(family[0])
        # |H_0 exp(-u^2/2)|^2 has position std w / sqrt(2)
        assert std == pytest.approx(2.0 / math.sqrt(2.0), rel=1e-6)


class TestScattererSpec:
    def test_orthogonality_guard(self):
        start, spacing, num = _grid(-8.0, 0.125)
        h = final_packet_family(0.0, 1.0, start, spacing, num, 1)[0]
        with pytest.raises(DomainError):
            ScattererSpec(0.0, h, h, 1.0)

    def test_norm_guard(self):
        start, spacing, num = _grid(-8.0, 0.125)
        h0, h1 = final_packet_family(0.0, 1.0, start, spacing, num, 2)
        bad = SampledFunction1D(h1.start, h1.spacing, 2.0 * h1.values)
        with pytest.raises(DomainError):
            ScattererSpec(0.0, h0, bad, 1.0)

    def test_time_window_guard(self):
        start, spacing, num = _grid(-8.0, 0.125)
        psi = sampled_gaussian(0.0, 2.0, start, spacing, num)
        with pytest.raises(DomainError):
            TransitionSetup(psi, 1.0, 1.0)


class TestFirstOrderTransition:
    def test_against_adaptive_quadrature(self):
        # grid amplitude against an independent grid-free integration of
        # the same analytic product psi_f phi_n psi_i phi_0
        start, spacing, num = _grid(-30.0, 0.1)
        sigma = 5.0
        psi_i = sampled_gaussian(0.0, sigma, start, spacing, num)
        h0, h1 = final_packet_family(0.0, 1.0, start, spacing, num, 2)
        scat = ScattererSpec(0.0, h0, h1, 1.0)
        setup = TransitionSetup(psi_i, 0.0, 1.0)
        w_grid = first_order_transition(setup, scat, h1)

        c_psi = (2.0 * math.pi * sigma * sigma) ** -0.25
        c_h0 = math.pi**-0.25
        c_h1 = 1.0 / math.sqrt(2.0 * math.sqrt(math.pi))

        def integrand(x):
            psi = c_psi * math.exp(-x * x / (4.0 * sigma * sigma))
            phi0 = c_h0 * math.exp(-0.5 * x * x)
            phi1 = c_h1 * 2.0 * x * math.exp(-0.5 * x * x)
            return phi1 * phi1 * psi * phi0

        # knots at the peaks: the even integrand vanishes at 0 and at the far
        # ends, which would otherwise fool the first Simpson estimate
        knots = (0.0, 1.0, 3.0, 12.0)
        amp = 2.0 * sum(
            integrate_1d(integrand, a, b, tol=1e-14)
            for a, b in zip(knots, knots[1:])
        )
        assert w_grid == pytest.approx(amp**2, rel=1e-6)

    def test_strength_scales_quadratically(self):
        start, spacing, num = _grid(-20.0, 0.1)
        psi_i = sampled_gaussian(0.0, 4.0, start, spacing, num)
        h0, h1 = final_packet_family(0.0, 1.0, start, spacing, num, 2)
        setup = TransitionSetup(psi_i, 0.0, 1.0)
        w1 = first_order_transition(setup, ScattererSpec(0.0, h0, h1, 1.0), h1)
        w3 = first_order_transition(setup, ScattererSpec(0.0, h0, h1, 3.0), h1)
        assert w3 == pytest.approx(9.0 * w1, rel=1e-12)

    def test_parity_selection(self):
        # even finals decouple at center: the integrand is odd through phi_1
        start, spacing, num = _grid(-20.0, 0.1)
        psi_i = sampled_gaussian(0.0, 4.0, start, spacing, num)
        h = final_packet_family(0.0, 1.0, start, spacing, num, 3)
        scat = ScattererSpec(0.0, h[0], h[1], 1.0)
        setup = TransitionSetup(psi_i, 0.0, 1.0)
        assert first_order_transition(setup, scat, h[0]) < 1e-25
        assert first_order_transition(setup, scat, h[2]) < 1e-25
        assert first_order_transition(setup, scat, h[1]) > 1e-6

    @pytest.mark.parametrize("start_shift,spacing_scale", [(0.05, 1.0), (0.0, 1.01)])
    def test_grid_mismatch_guard(self, start_shift, spacing_scale):
        # a final half a cell off psi_i's lattice, or with another spacing
        start, spacing, num = _grid(-20.0, 0.1)
        psi_i = sampled_gaussian(0.0, 4.0, start, spacing, num)
        h0, h1 = final_packet_family(0.0, 1.0, start, spacing, num, 2)
        other = sampled_gaussian(
            0.0, 1.0, start + start_shift, spacing * spacing_scale, num - 1
        )
        setup = TransitionSetup(psi_i, 0.0, 1.0)
        with pytest.raises(DomainError):
            first_order_transition(setup, ScattererSpec(0.0, h0, h1, 1.0), other)

    def test_final_cut_to_its_span(self):
        # the same final on the whole grid and on the samples where it is
        # nonzero: |u| < 38.6 at width 0.3 is |x - center| < 11.6
        start, spacing, num = _grid(-20.0, 0.1)
        psi_i = sampled_gaussian(0.0, 4.0, start, spacing, num)
        h0, h1 = final_packet_family(0.0, 1.0, start, spacing, num, 2)
        setup = TransitionSetup(psi_i, 0.0, 1.0)
        scatterer = ScattererSpec(0.0, h0, h1, 1.0)
        for center in (0.0, -1.5, 2.0):
            full = final_packet_family(center, 0.3, start, spacing, num, 4)[-1]
            cut = _nonzero_span(full)
            assert cut.n < num
            want = first_order_transition(setup, scatterer, full)
            got = first_order_transition(setup, scatterer, cut)
            assert abs(got - want) <= 1e-15 * want

    def test_final_beside_the_scatterers_span(self):
        # spans that do not meet leave an empty sum, on either side
        start, spacing, num = _grid(-20.0, 0.1)
        psi_i = sampled_gaussian(0.0, 4.0, start, spacing, num)
        h0, h1 = map(_nonzero_span, final_packet_family(0.0, 0.3, start, spacing, num, 2))
        setup = TransitionSetup(psi_i, 0.0, 1.0)
        scatterer = ScattererSpec(0.0, h0, h1, 1.0)
        for center in (-15.0, 15.0):
            final = _nonzero_span(final_packet_family(center, 0.05, start, spacing, num, 1)[0])
            assert first_order_transition(setup, scatterer, final) == 0.0


def _nonzero_span(f):
    # f on the samples from its first nonzero one to its last
    nonzero = np.flatnonzero(f.values)
    lo, hi = int(nonzero[0]), int(nonzero[-1]) + 1
    return SampledFunction1D(f.start + f.spacing * lo, f.spacing, f.values[lo:hi])


class TestAudit:
    def test_scenario_width_ratio(self):
        setup, scatterer, centers, finals = audit_scenario(20.0, 5, 4)
        assert width_ratio(setup, scatterer) == pytest.approx(20.0, rel=1e-4)
        assert len(centers) == 5
        assert len(finals) == 4

    def test_factorization_tightens_with_ratio(self):
        narrow = audit_scenario(10.0, 5, 6)
        wide = audit_scenario(40.0, 5, 6)
        _, spread_narrow = action_ratio_audit(*narrow[:2], narrow[2], narrow[3])
        _, spread_wide = action_ratio_audit(*wide[:2], wide[2], wide[3])
        assert spread_wide < spread_narrow

    @pytest.mark.parametrize("ratio", [2.0, 100.0, 1e4])
    def test_scenario_packets_on_their_span(self, ratio):
        # only psi_i spans the grid; the scatterer's states and the finals
        # hold the samples where exp(-u^2/2) does not underflow, except at
        # ratio 2, whose 69-point grid lies wholly inside that span
        setup, scatterer, _, finals = audit_scenario(ratio, 3, 16)
        for f in (scatterer.phi0, scatterer.phin, *finals):
            assert f.values[0] != 0 and f.values[-1] != 0
            if ratio == 2.0:
                assert f.same_grid(setup.psi_i) and f.n == 69
            else:
                assert f.n <= 310

    @pytest.mark.parametrize("ratio", [2.0, 100.0, 1000.0, 1e4])
    def test_scatterer_width_against_fsum(self, ratio):
        _, scatterer, _, _ = audit_scenario(ratio, 3, 1)
        want = fsum_position_width(scatterer.phi0)
        assert abs(scatterer.width - want) <= 2 * math.ulp(want)

    def test_kappa_positive(self):
        setup, scatterer, centers, finals = audit_scenario(20.0, 3, 4)
        kappa, spread = action_ratio_audit(setup, scatterer, centers, finals)
        assert kappa > 0.0
        assert spread >= 0.0

    def test_probe_outside_central_region(self):
        setup, scatterer, _, finals = audit_scenario(20.0, 3, 4)
        with pytest.raises(DomainError):
            action_ratio_audit(setup, scatterer, [100.0], finals)

    @pytest.mark.parametrize("x0", [math.nan, math.inf, -math.inf])
    def test_probe_center_that_is_not_finite(self, x0):
        setup, scatterer, centers, finals = audit_scenario(20.0, 3, 4)
        with pytest.raises(DomainError, match=f"^probe center {x0} is not finite$"):
            action_ratio_audit(setup, scatterer, [centers[0], x0], finals)

    def test_scenario_guards(self):
        with pytest.raises(DomainError):
            audit_scenario(1.5)
        with pytest.raises(DomainError):
            audit_scenario(20.0, 0)
        # 1e4, 339,413 grid points, is the cap; any larger ratio, and a
        # ratio that is not a number, is refused before any grid is built
        for ratio in (10000.01, 1e300, math.inf, math.nan):
            with pytest.raises(DomainError, match="the cap is width ratio 1e4"):
                audit_scenario(ratio)

    @pytest.mark.parametrize("ratio,num", [(2.0, 69), (100.0, 3395), (1e4, 339_413)])
    def test_probe_centers_are_samples_of_psi_i(self, ratio, num):
        # the grid is snapped to the scatterer's lattice: x = 0 is its middle
        # sample, and each probe center a whole number of cells from its start
        setup, scatterer, centers, _ = audit_scenario(ratio, 9, 1)
        psi_i = setup.psi_i
        assert psi_i.n == num
        assert psi_i.start + psi_i.spacing * (num // 2) == scatterer.center == 0.0
        for x0 in centers:
            cells = (x0 - psi_i.start) / psi_i.spacing
            assert cells == round(cells)

    @pytest.mark.parametrize("ratio", [2.0, 100.0, 1000.0, 1e4])
    def test_audit_against_the_moment_oracle(self, ratio):
        # the continuum kappa and spread, from Gaussian moments at 40 digits.
        # Each amplitude sums terms of the size of the all-finals amplitude,
        # whose kappa is |phi_n phi_0|^2 = 1 / (2 sqrt(2 pi)); its rounding,
        # relative to a smaller kappa, grows as sqrt(that over kappa). That
        # factor is 1.0 to 1.2 from two finals on, and up to 7e4 with one
        # final, whose even ground state couples only through psi_i's slope.
        # An error in any ratio r moves the spread's |r - kappa| by as much;
        # the largest r is (1 + spread) kappa
        limit = 1.0 / (2.0 * math.sqrt(2.0 * math.pi))
        sigma = ratio / math.sqrt(2.0)
        for n_finals in (1, 2, 8, 16):
            setup, scatterer, centers, finals = audit_scenario(ratio, 9, n_finals)
            kappa, spread = action_ratio_audit(setup, scatterer, centers, finals)
            kappa_o, spread_o = moment_audit(sigma, centers, n_finals)
            tol = 1e-15 * math.sqrt(limit / kappa_o) * kappa_o
            assert abs(kappa - kappa_o) <= tol, n_finals
            assert abs(spread * kappa - spread_o * kappa_o) <= tol * (1.0 + spread_o), n_finals

    def test_empty_finals(self):
        setup, scatterer, centers, _ = audit_scenario(20.0, 3, 4)
        with pytest.raises(DomainError):
            action_ratio_audit(setup, scatterer, centers, [])

    @pytest.mark.parametrize("ratio", [2.0, 20.0, 100.0, 1000.0])
    def test_window_sums_against_full_grid_fsum(self, ratio):
        # at ratio 2 the scatterer's span is the whole 69-point grid, so
        # every moved probe clips it at a grid edge
        setup, scatterer, centers, finals = audit_scenario(ratio)
        kappa, spread = action_ratio_audit(setup, scatterer, centers, finals)
        kappa_o, spread_o = full_grid_audit(setup, scatterer, centers, finals)
        assert abs(kappa - kappa_o) <= 1e-15 * kappa_o
        # the largest |W / |psi_i(x0)|^2 - kappa| over probes, within 1e-15 kappa
        assert abs(spread * kappa - spread_o * kappa_o) <= 1e-15 * kappa_o
        w = [first_order_transition(setup, scatterer, f) for f in finals]
        w_o = [full_grid_transition(setup, scatterer, f) for f in finals]
        for got, want in zip(w, w_o):
            assert abs(got - want) <= 1e-15 * sum(w_o)

    def test_probe_that_moves_the_scatterer_off_the_grid(self):
        # a nearly flat packet on [-8, 8] admits probes out to about 4.6; at
        # 4.5 the scatterer's tail past 3.5 widths leaves the grid, and with
        # it more than 1e-8 of each internal state's norm
        start, spacing, num = _grid(-8.0, 0.125)
        psi_i = sampled_gaussian(0.0, 20.0, start, spacing, num)
        h = final_packet_family(0.0, 1.0, start, spacing, num, 2)
        setup = TransitionSetup(psi_i, 0.0, 1.0)
        scatterer = ScattererSpec(0.0, h[0], h[1], 1.0)
        assert action_ratio_audit(setup, scatterer, [-1.0, 1.0], h)[0] > 0.0
        with pytest.raises(DomainError, match="normalized"):
            action_ratio_audit(setup, scatterer, [4.5], h)
        with pytest.raises(DomainError, match="whole number of grid cells"):
            action_ratio_audit(setup, scatterer, [0.3], h)

    def test_probe_between_the_samples_of_psi_i(self):
        # psi_i half a cell off the scatterer's lattice: a whole-cell move
        # of the scatterer lands between psi_i's samples, which the audit
        # does not interpolate
        start, spacing, num = _grid(-8.0, 0.125)
        psi_i = sampled_gaussian(0.0, 20.0, start - 0.5 * spacing, spacing, num + 1)
        h = final_packet_family(0.0, 1.0, start - 0.5 * spacing, spacing, num + 1, 2)
        setup = TransitionSetup(psi_i, 0.0, 1.0)
        scatterer = ScattererSpec(0.0, h[0], h[1], 1.0)
        with pytest.raises(DomainError, match="^the offset of probe center 1.0 from "
                                              "psi_i's start must be a whole number"):
            action_ratio_audit(setup, scatterer, [1.0], h)

    def test_probe_inside_the_central_region_but_off_the_grid(self):
        # most of |psi_i|^2 on its first sample and the rest on its last: the
        # mean lies near the start, and one standard deviation reaches past
        # it, where a negative sample index would wrap around to the end
        start, spacing, num = _grid(-8.0, 0.125)
        values = np.zeros(num)
        values[0], values[-1] = 1.0, 0.3
        setup = TransitionSetup(SampledFunction1D(start, spacing, values), 0.0, 1.0)
        h = final_packet_family(0.0, 1.0, start, spacing, num, 2)
        scatterer = ScattererSpec(0.0, h[0], h[1], 1.0)
        central = "^probe center -9.0 outside the central region of psi_i$"
        with pytest.raises(DomainError, match=central):
            action_ratio_audit(setup, scatterer, [-9.0], h)

    def test_audit_memory_stays_on_the_window(self):
        # ratio 1e4: 339,413 grid points, 5.4 MB per complex full-grid array,
        # so one full-grid temporary would show. The first call on a setup
        # also takes psi_i's position width once (the probes' admitted
        # range), which needs full-grid float temporaries of its own. A fresh
        # interpreter holds the inputs, so this process's peak RSS, which the
        # children it starts later inherit, does not grow
        src = os.path.dirname(os.path.dirname(packetlab.__file__))
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        out = subprocess.run(
            [sys.executable, "-c", _AUDIT_MEMORY_SCRIPT], capture_output=True,
            text=True, check=True, env=dict(os.environ, PYTHONPATH=path),
        ).stdout
        width_peak, first_peak, peak = json.loads(out)
        assert width_peak > 2**20  # tracemalloc sees numpy's full-grid arrays
        assert first_peak < width_peak + 2**20
        assert peak < 2**20


_AUDIT_MEMORY_SCRIPT = """
import json, tracemalloc
from packetlab.actionprob import action_ratio_audit, audit_scenario
from packetlab.numkit import position_width

setup, scatterer, centers, finals = audit_scenario(1e4, 9, 16)
peaks = []
tracemalloc.start()
for run in (lambda: position_width(setup.psi_i),
            lambda: action_ratio_audit(setup, scatterer, centers, finals),
            lambda: action_ratio_audit(setup, scatterer, centers, finals)):
    tracemalloc.reset_peak()
    base = tracemalloc.get_traced_memory()[0]
    run()
    peaks.append(tracemalloc.get_traced_memory()[1] - base)
print(json.dumps(peaks))
"""


class TestEfficiencyDecomposition:
    def test_recomposition(self):
        w1 = 3.2e-4
        i1, p1 = efficiency_decomposition(w1, 0.98, 0.05)
        assert i1 == pytest.approx(0.05 * 0.98, rel=1e-15)
        assert i1 * p1 == pytest.approx(w1, rel=1e-12)

    def test_guards(self):
        with pytest.raises(DomainError):
            efficiency_decomposition(0.1, 0.0, 0.5)
        with pytest.raises(DomainError):
            efficiency_decomposition(0.1, 1.0, 0.0)
        with pytest.raises(DomainError):
            efficiency_decomposition(0.1, 1.0, 1.5)
        with pytest.raises(DomainError):
            efficiency_decomposition(-0.1, 1.0, 0.5)
