import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

from hopbound.allocation import AllocationError, end_to_end_rate, rate_policy_scale
from hopbound.channel import HopChannel, capacity
from hopbound.exponents import random_coding_exponent, sphere_packing_exponent
from hopbound.system import _logsumexp, stacked_error_bounds, system_error_bounds

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

    @pytest.mark.parametrize("blocks", [[[0]], [[0, 0]], [[2, -1]], [[5], [0]]])
    def test_block_below_one_rejected(self, blocks):
        # Q = 0 would divide by zero, and a negative block is no split of Q
        exps = [[1.0] * len(row) for row in blocks]
        with pytest.raises(ValueError, match="every block at least 1"):
            stacked_error_bounds(blocks, exps, exps)

    @pytest.mark.parametrize("bad", [math.nan, -math.inf, -1.0, -5e-324])
    @pytest.mark.parametrize("family", ["e_r", "e_sp"])
    def test_nan_or_negative_exponent_rejected(self, bad, family):
        # a NaN once gave pe_upper NaN, and -inf pe_upper inf; +inf stays legal
        exps = {"e_r": [1.0, 1.0], "e_sp": [1.0, 1.0]}
        exps[family] = [bad, 1.0]
        with pytest.raises(ValueError, match="exponents >= 0"):
            system_error_bounds([1, 1], **exps)
        exps[family] = [math.inf, 1.0]
        assert system_error_bounds([1, 1], **exps).degenerate_hops == []


    def test_overflowing_log_term_is_exactly_zero(self):
        # once: Q_n E_n = 3e308 warned "overflow encountered in multiply"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            big = system_error_bounds([3, 4], [1e308, 0.6], [0.7, 0.8])
        assert big == system_error_bounds([3, 4], [math.inf, 0.6], [0.7, 0.8])
        assert big.per_hop_pe_upper[0] == 0.0


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
def _stacked_families(draw, n=None, twists=("none", "inf", "-inf", "nan", "0.0", "ties")):
    """(blocks, e_r, e_sp) on n hops (1 to 1000 if None); one family, chosen
    at random, may hold +-inf, nan or zero exponents or exponents tied at the
    largest term, as `twists` allows."""
    n = draw(st.integers(1, 1000)) if n is None else n
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    blocks = rng.integers(1, 10 ** 6, n).tolist()
    families = [(10.0 ** rng.uniform(-6.0, 1.5, n)).tolist() for _ in range(2)]
    odd = families[draw(st.integers(0, 1))]
    twist = draw(st.sampled_from(twists))
    if twist == "ties":
        # equal products Q_n E_n, the largest log-term, on up to all hops
        for i in rng.choice(n, draw(st.integers(1, n)), replace=False):
            blocks[i], odd[i] = 1000, 1e-6
    elif twist != "none":
        for i in rng.choice(n, draw(st.integers(1, min(n, 3))), replace=False):
            odd[i] = float(twist)
    return blocks, *families


# the exponents the bounds take: +inf (E_sp below a DMC's R_inf) and 0, not -inf or nan
_BOUND_TWISTS = ("none", "inf", "0.0", "ties")


class TestStackedBounds:
    """One 2 x N log-sum-exp pass gives each family's scipy result."""

    @settings(max_examples=150, deadline=None)
    @given(case=_stacked_families(twists=_BOUND_TWISTS))
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

    @pytest.mark.parametrize("blocks,rates", [
        ([], []), ([10], []), ([10, 20], [1.0]), ([-1, 1], [1.0, 1.0]), ([0], [1.0]),
        ([10], [math.nan]), ([10], [math.inf]), ([10], [0.0]), ([10, 20], [1.0, -1.0])],
        ids=["empty", "no_rates", "fewer_rates", "negative_block", "zero_block", "nan_rate",
             "inf_rate", "zero_rate", "negative_rate"])
    def test_malformed_input_raises_allocation_error(self, blocks, rates):
        # these raised ZeroDivisionError or a bare min() error, or returned NaN
        with pytest.raises(AllocationError, match="one positive finite rate per hop"):
            end_to_end_rate(blocks, rates)


def _hexed(bounds):
    """Every field of a SystemBounds, floats by their hex form."""
    return [[x.hex() for x in v] if isinstance(v, list) and v and isinstance(v[0], float)
            else v.hex() if isinstance(v, float) else v for v in vars(bounds).values()]


class TestTableBounds:
    """A table's rows in one stacked pass give each row's own bounds bit for bit,
    including rows whose log-sum-exp takes the non-finite fallback and rows
    with degenerate hops."""

    @settings(max_examples=100, deadline=None)
    @given(rows=st.integers(1, 60).flatmap(
        lambda n: st.lists(_stacked_families(n, _BOUND_TWISTS), min_size=1, max_size=12)))
    def test_rows_equal_per_row_bounds(self, rows):
        blocks, e_r, e_sp = (list(col) for col in zip(*rows))
        stacked = stacked_error_bounds(blocks, e_r, e_sp)
        assert len(stacked) == len(rows)
        for got, row in zip(stacked, rows):
            assert _hexed(got) == _hexed(system_error_bounds(*row))

    def test_fallback_and_degenerate_rows_next_to_finite_ones(self):
        rows = [([10, 20], [0.5, 0.25], [0.6, 0.3]),
                ([10, 20], [math.inf, math.inf], [0.6, 0.3]),  # every term -inf
                ([10, 20], [0.5, 0.25], [math.inf, math.inf]),  # E_sp = +inf below R_inf
                ([10, 20], [0.0, 0.25], [0.6, 0.0])]  # degenerate hops
        stacked = stacked_error_bounds(*(list(col) for col in zip(*rows)))
        assert [b.degenerate_hops for b in stacked] == [[], [], [], [0, 1]]
        assert stacked[1].pe_upper == 0.0
        assert (stacked[2].pe_lower, stacked[2].esys_upper) == (0.0, math.inf)
        for got, row in zip(stacked, rows):
            assert _hexed(got) == _hexed(system_error_bounds(*row))

    def test_rows_of_unequal_hop_counts_rejected(self):
        with pytest.raises(ValueError):
            stacked_error_bounds([[10], [10, 20]], [[0.5], [0.5, 0.5]], [[0.5], [0.5, 0.5]])

    def test_empty_table(self):
        assert stacked_error_bounds([], [], []) == []
