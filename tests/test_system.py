import math

import mpmath
import numpy as np
import pytest

from hopbound.allocation import end_to_end_rate, rate_policy_scale
from hopbound.channel import HopChannel, capacity
from hopbound.exponents import random_coding_exponent, sphere_packing_exponent
from hopbound.system import system_error_bounds

R_CR = math.log(1.5) - 1.0 / 6.0


def exponents(rates, hops):
    """(E_r, E_sp) lists of the hops at their rates."""
    return ([random_coding_exponent(r, ch).exponent for r, ch in zip(rates, hops)],
            [sphere_packing_exponent(r, ch).exponent for r, ch in zip(rates, hops)])


def bounds_for(blocks, rates, hops):
    return system_error_bounds(blocks, *exponents(rates, hops))


class TestSystemBounds:
    def test_single_hop_collapses_to_per_hop_exponent(self):
        ch = HopChannel.awgn(1.0)
        bounds = bounds_for([1000], [0.5], [ch])
        e_r = random_coding_exponent(0.5, ch).exponent
        e_sp = sphere_packing_exponent(0.5, ch).exponent
        assert bounds.esys_lower == pytest.approx(e_r, abs=1e-12)
        assert bounds.esys_upper == pytest.approx(e_sp, abs=1e-12)
        assert 0.5 > R_CR
        assert bounds.esys_lower == pytest.approx(bounds.esys_upper, abs=1e-12)

    def test_all_rates_at_capacity_gives_log_n_over_q(self):
        hops = [HopChannel.awgn(1.0), HopChannel.awgn(3.0)]
        rates = [capacity(h) for h in hops]
        bounds = bounds_for([500, 500], rates, hops)
        assert bounds.esys_lower == pytest.approx(-math.log(2) / 1000, abs=1e-12)
        assert bounds.esys_upper == pytest.approx(-math.log(2) / 1000, abs=1e-12)
        assert bounds.degenerate_hops == [0, 1]

    def test_sum_matches_extended_precision(self):
        hops = [HopChannel.awgn(10 ** 0.9), HopChannel.awgn(10 ** 0.6)]
        bounds = bounds_for([336, 664], [0.9, 0.7], hops)
        with mpmath.workdps(60):
            exact = sum(
                mpmath.e ** (-q * e)
                for q, e in zip([336, 664], exponents([0.9, 0.7], hops)[0]))
            assert bounds.pe_upper == pytest.approx(float(exact), rel=1e-12)
            exact_esys = -mpmath.log(exact) / 1000
            assert bounds.esys_lower == pytest.approx(float(exact_esys), rel=1e-10)

    def test_sandwich_order_on_random_scenarios(self):
        rng = np.random.default_rng(21)
        for _ in range(30):
            n = int(rng.integers(1, 5))
            hops = [HopChannel.awgn(float(10 ** rng.uniform(-0.5, 1.5)))
                    for _ in range(n)]
            caps = [capacity(h) for h in hops]
            rates = [float(rng.uniform(0.2, 0.95)) * c for c in caps]
            blocks = rng.integers(10, 500, size=n).tolist()
            bounds = bounds_for(blocks, rates, hops)
            assert bounds.pe_lower <= bounds.pe_upper + 1e-12
            assert bounds.esys_lower <= bounds.esys_upper + 1e-12

    def test_finite_q_brackets_weighted_min(self):
        hops = [HopChannel.awgn(10 ** 0.9), HopChannel.awgn(10 ** 0.6)]
        rates = rate_policy_scale([capacity(h) for h in hops], 0.5)
        blocks = [400, 600]
        bounds = bounds_for(blocks, rates, hops)
        q = sum(blocks)
        for esys, exps in zip((bounds.esys_lower, bounds.esys_upper), exponents(rates, hops)):
            weighted_min = min(b / q * e for b, e in zip(blocks, exps))
            assert weighted_min - math.log(len(hops)) / q - 1e-12 <= esys
            assert esys <= weighted_min + 1e-12

    def test_monotone_in_snr(self):
        rates = [0.5, 0.4]
        blocks = [400, 600]
        lo = [HopChannel.awgn(2.0), HopChannel.awgn(1.5)]
        hi = [HopChannel.awgn(2.5), HopChannel.awgn(2.0)]
        b_lo = bounds_for(blocks, rates, lo)
        b_hi = bounds_for(blocks, rates, hi)
        assert b_hi.esys_lower > b_lo.esys_lower
        assert b_hi.esys_upper > b_lo.esys_upper

    def test_logsumexp_stability_at_huge_exponents(self):
        # Q_n * E_n around 1e8 must not underflow to -inf
        ch = HopChannel.awgn(1e6)
        rate = 0.01
        blocks = [10_000_000, 10_000_000]
        bounds = bounds_for(blocks, [rate, rate], [ch, ch])
        e_r = random_coding_exponent(rate, ch).exponent
        assert blocks[0] * e_r > 1e8
        assert math.isfinite(bounds.esys_lower)
        expected = e_r / 2 - math.log(2) / 20_000_000  # lambda_n = 1/2 each
        assert bounds.esys_lower == pytest.approx(expected, rel=1e-9)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            system_error_bounds([10], [0.5, 0.5], [0.5, 0.5])


class TestEndToEndRate:
    def test_bottleneck(self):
        assert end_to_end_rate([10, 20], [2.0, 1.0]) == pytest.approx(20.0 / 30.0, abs=1e-12)

    def test_single_hop(self):
        assert end_to_end_rate([777], [0.31]) == pytest.approx(0.31)

    def test_min_selects_weakest(self):
        assert end_to_end_rate([500, 500], [1.0, 2.0]) == pytest.approx(0.5)
