import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

from hopbound.allocation import end_to_end_rate, rate_policy_scale
from hopbound.channel import HopChannel, capacity
from hopbound.exponents import random_coding_exponent, sphere_packing_exponent
from hopbound.system import _logsumexp, system_error_bounds

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

    def test_no_hops_rejected(self):
        with pytest.raises(ValueError, match="at least one hop"):
            system_error_bounds([], [], [])


@st.composite
def _log_terms(draw):
    """1 to 1000 terms of magnitude up to 1e-3..1e9, some tied at the maximum,
    some -0.0 or +0.0, mostly non-positive like -Q_n E_n."""
    n = draw(st.integers(1, 1000))
    scale = draw(st.floats(1e-3, 1e9))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    low = -1.0 if draw(st.booleans()) else 0.0
    a = -scale * rng.uniform(low, 1.0, n)
    ties = draw(st.integers(0, n))
    a[rng.choice(n, ties, replace=False)] = a.max()
    for zero in draw(st.lists(st.sampled_from([-0.0, 0.0]), max_size=3)):
        a[rng.integers(n)] = zero
    return a


class TestLogSumExp:
    """The private log-sum-exp against scipy's, which stays a test-only oracle."""

    @settings(max_examples=300, deadline=None)
    @given(a=_log_terms())
    def test_equals_scipy_bit_for_bit(self, a):
        assert _logsumexp(a).hex() == float(logsumexp(a)).hex()

    @pytest.mark.parametrize("a", [[-np.inf], [-np.inf, -np.inf], [np.inf, 1.0],
                                   [np.nan, 1.0], [-0.0], [-0.0, 0.0], [-745.2, -745.2]])
    def test_edge_values_equal_scipy(self, a):
        a = np.array(a)
        assert _logsumexp(a).hex() == float(logsumexp(a)).hex()

    @settings(max_examples=200, deadline=None)
    @given(hops=st.lists(st.tuples(st.integers(1, 10 ** 6),
                                   st.floats(0.0, 30.0), st.floats(0.0, 30.0)),
                         min_size=1, max_size=50))
    def test_bounds_equal_the_scipy_and_per_scalar_forms(self, hops):
        blocks, e_r, e_sp = (list(col) for col in zip(*hops))
        bounds = system_error_bounds(blocks, e_r, e_sp)
        q_n = np.asarray(blocks, dtype=float)
        for terms, per_hop, pe, esys in (
                (-q_n * np.asarray(e_r), bounds.per_hop_pe_upper, bounds.pe_upper,
                 bounds.esys_lower),
                (-q_n * np.asarray(e_sp), bounds.per_hop_pe_lower, bounds.pe_lower,
                 bounds.esys_upper)):
            assert [x.hex() for x in per_hop] == [float(np.exp(t)).hex() for t in terms]
            lse = float(logsumexp(terms))
            assert pe.hex() == float(np.exp(lse)).hex()
            assert esys.hex() == (-lse / sum(blocks)).hex()


@st.composite
def _stacked_families(draw):
    """(blocks, e_r, e_sp) on 1 to 1000 hops; one family, chosen at random,
    may hold +-inf or nan exponents or exponents tied at the largest term."""
    n = draw(st.integers(1, 1000))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    blocks = rng.integers(1, 10 ** 6, n).tolist()
    families = [(10.0 ** rng.uniform(-6.0, 1.5, n)).tolist() for _ in range(2)]
    odd = families[draw(st.integers(0, 1))]
    twist = draw(st.sampled_from(["none", "inf", "-inf", "nan", "ties"]))
    if twist == "ties":
        # equal products Q_n E_n, the largest log-term, on up to all hops
        for i in rng.choice(n, draw(st.integers(1, n)), replace=False):
            blocks[i], odd[i] = 1000, 1e-6
    elif twist != "none":
        for i in rng.choice(n, draw(st.integers(1, min(n, 3))), replace=False):
            odd[i] = float(twist)
    return blocks, *families


class TestStackedBounds:
    """One 2 x N log-sum-exp pass gives each family's scipy result."""

    @settings(max_examples=150, deadline=None)
    @given(case=_stacked_families())
    def test_each_family_equals_scipy(self, case):
        blocks, e_r, e_sp = case
        bounds = system_error_bounds(blocks, e_r, e_sp)
        q_n = np.asarray(blocks, dtype=float)
        for exps, pe, esys, per_hop in (
                (e_r, bounds.pe_upper, bounds.esys_lower, bounds.per_hop_pe_upper),
                (e_sp, bounds.pe_lower, bounds.esys_upper, bounds.per_hop_pe_lower)):
            terms = -q_n * np.asarray(exps)
            lse = float(logsumexp(terms))
            assert _logsumexp(terms).hex() == lse.hex()
            assert esys.hex() == (-lse / sum(blocks)).hex()
            assert pe.hex() == float(np.exp(lse)).hex()
            assert [x.hex() for x in per_hop] == [x.hex() for x in np.exp(terms).tolist()]

    @settings(max_examples=100, deadline=None)
    @given(case=_stacked_families())
    def test_rows_equal_the_one_dimensional_form(self, case):
        blocks, e_r, e_sp = case
        rows = -np.asarray(blocks, dtype=float) * np.array([e_r, e_sp])
        assert [x.hex() for x in _logsumexp(rows).tolist()] == [
            _logsumexp(rows[0]).hex(), _logsumexp(rows[1]).hex()]


class TestEndToEndRate:
    def test_bottleneck(self):
        assert end_to_end_rate([10, 20], [2.0, 1.0]) == pytest.approx(20.0 / 30.0, abs=1e-12)

    def test_single_hop(self):
        assert end_to_end_rate([777], [0.31]) == pytest.approx(0.31)

    def test_min_selects_weakest(self):
        assert end_to_end_rate([500, 500], [1.0, 2.0]) == pytest.approx(0.5)
