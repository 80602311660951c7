import functools
import heapq
import itertools
import math
import tracemalloc
import types
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

from hopbound import allocation
from hopbound.allocation import (AllocationError, balance_lagrange, balance_step,
                                 end_to_end_rate, info_continuous_log_m,
                                 information_continuous_blocks,
                                 network_capacity, rate_policy_scale,
                                 reliability_optimal_blocks, reliability_real_blocks)
from hopbound.channel import HopChannel
from hopbound.exponents import random_coding_exponent
from hopbound.oracle import exhaustive_allocation

TWO_HOP_CAPS = [math.log(1 + 10 ** 0.9), math.log(1 + 10 ** 0.6)]  # 9 dB, 6 dB


def log_objective(blocks, exps):
    """ln sum(exp(-Q_n E_n)), finite however large Q_n E_n gets."""
    return float(logsumexp([-b * e for b, e in zip(blocks, exps)]))


def best_single_exchange(blocks, exps):
    """Largest log-domain margin by which one one-unit move between two hops
    lowers sum(exp(-Q_n E_n)); <= 0 means no single exchange improves.

    A move j -> i improves iff the drop from Q_i -> Q_i + 1 exceeds the rise
    from Q_j -> Q_j - 1; both are compared as logs, so nothing underflows.
    The margin is relative to the size of the log terms.
    """
    b = np.asarray(blocks, dtype=float)
    e = np.asarray(exps, dtype=float)
    gap = np.log(-np.expm1(-e))
    gain = -b * e + gap
    loss = np.where(b > 1, -(b - 1) * e + gap, np.inf)
    scale = np.maximum(1.0, np.abs(np.where(b > 1, loss, 0.0)))
    margin = (gain[:, None] - loss[None, :]) / scale[None, :]
    np.fill_diagonal(margin, -np.inf)
    return float(margin.max())


def log_domain_exhaustive(exps, q):
    """Smallest ln sum(exp(-Q_n E_n)) over all compositions of q into positive parts."""
    n = len(exps)
    cuts = np.array(list(itertools.combinations(range(1, q), n - 1)), dtype=float)
    edges = np.hstack([np.zeros((len(cuts), 1)), cuts.reshape(len(cuts), n - 1),
                       np.full((len(cuts), 1), float(q))])
    blocks = np.diff(edges, axis=1)
    return float(logsumexp(-blocks * np.asarray(exps), axis=1).min())


def time_shares(caps):
    """Time fractions lambda_n = network_capacity / I_n."""
    network = network_capacity(caps)
    return [network / c for c in caps]


class TestTimeShare:
    def test_two_hop_harmonic(self):
        assert network_capacity([2.1909, 1.6056]) == pytest.approx(0.9266, abs=1e-4)
        lambdas = time_shares([2.1909, 1.6056])
        assert lambdas[0] == pytest.approx(0.4229, abs=1e-4)
        assert lambdas[1] == pytest.approx(0.5771, abs=1e-4)

    def test_single_hop(self):
        assert network_capacity([1.7]) == 1.7
        assert time_shares([1.7]) == [1.0]

    def test_symmetric(self):
        assert network_capacity([0.4, 0.4, 0.4]) == pytest.approx(0.4 / 3, abs=1e-14)
        for lam in time_shares([0.4, 0.4, 0.4]):
            assert lam == pytest.approx(1 / 3, abs=1e-14)

    def test_balanced_products_and_harmonic_form(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            caps = list(rng.uniform(0.1, 3.0, size=rng.integers(1, 6)))
            network = network_capacity(caps)
            lambdas = time_shares(caps)
            products = [lam * c for lam, c in zip(lambdas, caps)]
            assert max(products) - min(products) <= 1e-10
            assert sum(lambdas) == pytest.approx(1.0, abs=1e-12)
            assert network == pytest.approx(products[0], abs=1e-10)
            assert network == pytest.approx(1.0 / sum(1.0 / c for c in caps), abs=1e-12)

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(AllocationError):
            network_capacity([1.0, 0.0])

    def test_rejects_no_hops(self):
        with pytest.raises(AllocationError, match="need at least one hop"):
            network_capacity([])


class TestReliabilityOptimal:
    def test_two_hop_example(self):
        real = reliability_real_blocks([0.2, 0.1], 1000)
        assert real[0] == pytest.approx(335.64, abs=0.01)
        assert real[1] == pytest.approx(664.36, abs=0.01)
        assert reliability_optimal_blocks([0.2, 0.1], 1000) == [336, 664]
        balance = [q * e - math.log(e) for q, e in zip(real, [0.2, 0.1])]
        assert balance[0] == pytest.approx(68.738, abs=1e-3)
        assert balance[0] == pytest.approx(balance[1], abs=1e-8)

    def test_symmetry(self):
        for e in (0.01, 0.2, 1.5):
            assert reliability_optimal_blocks([e, e], 500) == [250, 250]

    def test_real_valued_stationarity(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            n = int(rng.integers(2, 6))
            exps = list(rng.uniform(0.05, 1.0, size=n))
            q = int(rng.integers(10 * n, 5000))
            real = reliability_real_blocks(exps, q)
            assert sum(real) == pytest.approx(q, abs=1e-8)
            balance = [b * e - math.log(e) for b, e in zip(real, exps)]
            assert max(balance) - min(balance) <= 1e-8

    def test_matches_exhaustive_enumeration(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            n = int(rng.integers(2, 4))
            q = int(rng.integers(n, 61))
            exps = list(rng.uniform(0.05, 1.0, size=n))
            assert reliability_optimal_blocks(exps, q) == exhaustive_allocation(exps, q)

    def test_three_hop_brute_force(self):
        exps = [0.3, 0.2, 0.1]
        blocks = reliability_optimal_blocks(exps, 60)
        assert blocks == exhaustive_allocation(exps, 60)
        assert sum(blocks) == 60

    def test_three_hop_stationarity_at_scale(self):
        exps = [0.3, 0.2, 0.1]
        real = reliability_real_blocks(exps, 900)
        balance = [b * e - math.log(e) for b, e in zip(real, exps)]
        assert max(balance) - min(balance) <= 1e-8
        blocks = reliability_optimal_blocks(exps, 900)
        assert sum(blocks) == 900
        int_balance = [b * e - math.log(e) for b, e in zip(blocks, exps)]
        # integer rounding can shift each hop by at most one symbol's exponent
        assert max(int_balance) - min(int_balance) <= max(exps) + 1e-9

    def test_beats_random_allocations(self):
        rng = np.random.default_rng(14)
        exps = [0.35, 0.15, 0.08]
        q = 400
        blocks = reliability_optimal_blocks(exps, q)
        best = sum(math.exp(-b * e) for b, e in zip(blocks, exps))
        for _ in range(1000):
            cuts = sorted(rng.choice(np.arange(1, q), size=2, replace=False))
            blocks = [cuts[0], cuts[1] - cuts[0], q - cuts[1]]
            val = sum(math.exp(-b * e) for b, e in zip(blocks, exps))
            assert best <= val + 1e-15

    def test_rejects_nonpositive_exponent(self):
        with pytest.raises(AllocationError):
            reliability_optimal_blocks([0.2, 0.0], 100)

    def test_clamped_hops_stay_feasible(self):
        # the real shares of the two fast hops are below 1; [1, 1, 4] is optimal
        blocks = reliability_optimal_blocks([20.0, 20.0, 0.01], 6)
        assert blocks == [1, 1, 4]
        assert blocks == exhaustive_allocation([20.0, 20.0, 0.01], 6)

    def test_equal_cost_split_keeps_lowest_index_rounding(self):
        assert reliability_optimal_blocks([0.2, 0.2], 501) == [251, 250]
        assert reliability_optimal_blocks([0.2, 0.2, 0.2], 8) == [3, 3, 2]

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(min_value=-3.0, max_value=math.log10(30.0)),
                    min_size=1, max_size=4),
           st.integers(min_value=0, max_value=40))
    def test_property_matches_exhaustive_search(self, log_exps, extra):
        exps = [10.0 ** x for x in log_exps]
        q = min(len(exps) + extra, 40)
        got = reliability_optimal_blocks(exps, q)
        assert sum(got) == q and min(got) >= 1
        best = log_domain_exhaustive(exps, q)
        assert log_objective(got, exps) <= best + 1e-12 * max(1.0, abs(best))
        if len(exps) <= 3:
            oracle = exhaustive_allocation(exps, q)
            assert log_objective(got, exps) <= (log_objective(oracle, exps)
                                                + 1e-12 * max(1.0, abs(best)))

    @pytest.mark.parametrize("n,q", [(2, 10 ** 6), (5, 200_000), (200, 800_000),
                                     (1000, 10 ** 6)])
    def test_no_improving_single_exchange_at_scale(self, n, q):
        rng = np.random.default_rng(n)
        exps = [float(e) for e in rng.uniform(0.3, 2.0, size=n)]
        blocks = reliability_optimal_blocks(exps, q)
        assert sum(blocks) == q and min(blocks) >= 1
        # exp(-Q_n E_n) underflows past 745; the log-domain check still sees it
        assert max(b * e for b, e in zip(blocks, exps)) > 745
        assert best_single_exchange(blocks, exps) <= 1e-12

    def test_no_improving_single_exchange_where_exp_underflows(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            n = int(rng.integers(2, 6))
            q = int(rng.integers(2000, 20_001))
            exps = [float(e) for e in rng.uniform(0.05, 1.0, size=n)]
            blocks = reliability_optimal_blocks(exps, q)
            assert sum(blocks) == q
            assert best_single_exchange(blocks, exps) <= 1e-12

    def test_tiny_exponents_stay_optimal_and_fast(self):
        # real shares lose all precision once 1/E dwarfs the other hops
        for exps in ([1e-3, 1e-15], [1e-4, 1e-300], [0.5, 8e-19]):
            blocks = reliability_optimal_blocks(exps, 1000)
            assert sum(blocks) == 1000 and min(blocks) >= 1
            assert best_single_exchange(blocks, exps) <= 1e-12

    @staticmethod
    def count_pushes(monkeypatch, budget):
        """Count the greedy's heap pushes, failing once they exceed `budget`.

        From the exact real optimum the floors lose less than one unit per
        hop, so the fill makes fewer than N moves and the optimum lies within
        a unit per hop of the floors: at most 2N initial pushes, 2 per fill
        move and 4 per exchange, so 8N in all whatever Q is.  A walk of ~Q
        one-unit moves exceeds the budget at once instead of hanging.
        """
        pushes = []

        def counted_push(heap, item):
            pushes.append(item)
            if len(pushes) > budget:
                raise AssertionError(f"more than {budget} heap pushes")
            heapq.heappush(heap, item)

        monkeypatch.setattr(allocation, "heapq",
                            types.SimpleNamespace(heappush=counted_push,
                                                  heappop=heapq.heappop))
        return pushes

    @pytest.mark.parametrize("exps", [[0.508, 8.06e-25], [0.3, 0.5, 1e-20, 2.0],
                                      [5e-324, 1.0], [0.5, 0.25]])
    @pytest.mark.parametrize("q", [10 ** 5, 10 ** 6, 2 ** 53])
    def test_greedy_moves_do_not_grow_with_the_budget(self, monkeypatch, exps, q):
        # E = [0.508, 8.06e-25]: AWGN hops at 9 and 6 dB, hop 2 at (1 - 1e-12) C
        self.count_pushes(monkeypatch, 8 * len(exps))
        blocks = reliability_optimal_blocks(exps, q)
        assert sum(blocks) == q and min(blocks) >= 1
        assert best_single_exchange(blocks, exps) <= 1e-12
        if exps == [0.508, 8.06e-25]:
            # hop 1 keeps 108 units at any Q; at Q = 1e5 (0.8 s) and 1e6 (8.6 s)
            # the one-unit walk from shares that lost their sum gave this split
            assert blocks == [108, q - 108]
        if exps == [0.5, 0.25] and q == 2 ** 53:
            # the floors of the real shares overshoot Q by 1, so the greedy
            # drains a unit before it looks for exchanges
            floors = [math.floor(v) for v in reliability_real_blocks(exps, q)]
            assert sum(floors) == q + 1
            assert blocks == [3002399751580331, 6004799503160661]

    @settings(max_examples=200, deadline=None)
    @given(log_exps=st.lists(st.floats(-300.0, math.log10(30.0)), min_size=1, max_size=6),
           log_q=st.floats(0.0, 53.0))
    def test_greedy_moves_bounded_for_any_exponents_and_budget(self, log_exps, log_q):
        exps = [10.0 ** x for x in log_exps]
        q = max(len(exps), min(int(2.0 ** log_q), 2 ** 53))
        with pytest.MonkeyPatch.context() as monkeypatch:
            self.count_pushes(monkeypatch, 8 * len(exps))
            blocks = reliability_optimal_blocks(exps, q)
        assert sum(blocks) == q and min(blocks) >= 1
        assert best_single_exchange(blocks, exps) <= 1e-12

    @pytest.mark.parametrize("exps,split", [([1e-310, 2e-310], [1, 9]),
                                            ([5e-324, 1e-323, 1.0], [1, 1, 8])])
    def test_overflowing_gap_sum_pins_the_pivot(self, monkeypatch, exps, split):
        # g_m / E_m overflows to inf here; the pivot hop is pinned and the rest re-solved
        self.count_pushes(monkeypatch, 8 * len(exps))
        blocks = reliability_optimal_blocks(exps, 10)
        assert blocks == split
        assert best_single_exchange(blocks, exps) <= 1e-12

    @settings(max_examples=200, deadline=None)
    @given(log_exps=st.lists(st.floats(math.log10(5e-324), -300.0), min_size=2, max_size=6),
           log_q=st.floats(0.0, 53.0))
    def test_greedy_moves_bounded_for_subnormal_exponents(self, log_exps, log_q):
        exps = [max(10.0 ** x, 5e-324) for x in log_exps]
        q = max(len(exps), min(int(2.0 ** log_q), 2 ** 53))
        with pytest.MonkeyPatch.context() as monkeypatch:
            self.count_pushes(monkeypatch, 8 * len(exps))
            blocks = reliability_optimal_blocks(exps, q)
        assert sum(blocks) == q and min(blocks) >= 1
        assert best_single_exchange(blocks, exps) <= 1e-12

    def test_rejects_budget_below_hops(self):
        with pytest.raises(AllocationError):
            reliability_optimal_blocks([0.2, 0.1, 0.3], 2)


def heap_balanced_blocks(exponents, q_total, shares):
    """The greedy with lazy heaps for every fill, drain and exchange, as
    `allocation._balanced_blocks` ran it before its sorted fill: the reference."""
    n = len(exponents)
    free = list(range(n))
    while any(v < 1.0 for v in shares) and any(v >= 1.0 for v in shares):
        free = [i for i, v in zip(free, shares) if v >= 1.0]
        shares = reliability_real_blocks([exponents[i] for i in free], q_total - n + len(free))
    blocks = [1] * n
    for i, v in zip(free, shares):
        blocks[i] = min(max(math.floor(v), 1), q_total - n + 1)
    log_gap = [math.log(-math.expm1(-e)) for e in exponents]
    gains, losses = [], []

    def move(i, delta):
        blocks[i] += delta
        b, e = blocks[i], exponents[i]
        heapq.heappush(gains, (b * e - log_gap[i], i, b))
        if b > 1:
            heapq.heappush(losses, (log_gap[i] - (b - 1) * e, i, b))

    def top(heap):
        while heap and blocks[heap[0][1]] != heap[0][2]:
            heapq.heappop(heap)
        return heap[0] if heap else None

    for i in range(n):
        move(i, 0)
    placed = sum(blocks)
    for _ in range(placed, q_total):
        move(top(gains)[1], 1)
    for _ in range(q_total, placed):
        move(top(losses)[1], -1)
    while True:
        gain, loss = top(gains), top(losses)
        if loss is None or gain[1] == loss[1] or -gain[0] <= loss[0]:
            return blocks
        move(gain[1], 1)
        move(loss[1], -1)


# exponents of AWGN-like hops, subnormal ones, and a few values that repeat
_EXPONENTS = st.one_of(st.floats(1e-3, 30.0), st.floats(5e-324, 1e-300),
                       st.sampled_from([0.003, 0.2, 2.0, 5.0]))


class TestSortedFill:
    """`_balanced_blocks` fills by one sort where its certificate holds and runs
    the heap greedy otherwise; both give the reference's split."""

    @staticmethod
    def paths(monkeypatch, exps, q):
        """(whether the heaps ran, each `_sorted_fill` call's certificate) of the
        split of `exps` and `q`, which must equal the reference's."""
        shares = reliability_real_blocks(exps, q)
        expected = heap_balanced_blocks(exps, q, shares)
        pushes = TestReliabilityOptimal.count_pushes(monkeypatch, 8 * len(exps))
        fill, certified = allocation._sorted_fill, []
        monkeypatch.setattr(allocation, "_sorted_fill", lambda *args: certified.append(
            fill(*args)) or certified[-1])
        assert allocation._balanced_blocks(exps, q, shares) == expected
        return bool(pushes), [filled is not None for filled in certified]

    @pytest.mark.parametrize("exps,q,heaps,certified", [
        ([0.2, 1.0], 3, False, [True]),  # one unit by the sort, then no exchange
        ([5.0, 5.0, 0.003], 5, True, [True]),  # by the sort, then an exchange on heaps
        ([0.2, 2.0, 2.0, 2.0], 6, True, [False]),  # hop 0 takes two units: heaps from the floors
        ([0.5, 5.0], 2, False, [])])  # the floors sum to Q
    def test_each_path(self, monkeypatch, exps, q, heaps, certified):
        assert self.paths(monkeypatch, exps, q) == (heaps, certified)

    @pytest.mark.parametrize("seed", [1, 2, 5])
    def test_a_long_chain_takes_the_sort_alone(self, monkeypatch, seed):
        # AWGN hops at 0 to 15 dB and half of capacity, Q = 1000 N: about N/2 units, no exchange
        snr = 10.0 ** (np.random.default_rng(seed).uniform(0.0, 15.0, 1000) / 10.0)
        rates = [0.5 * math.log1p(x) for x in snr]
        exps = [random_coding_exponent(r, HopChannel.awgn(x)).exponent for r, x in zip(rates, snr)]
        assert self.paths(monkeypatch, exps, 1000 * len(exps)) == (False, [True])

    @settings(max_examples=300, deadline=None)
    @given(exps=st.lists(_EXPONENTS, min_size=1, max_size=8),
           log_q=st.floats(0.0, 53.0), small_q=st.integers(1, 60), equal=st.booleans())
    @example(exps=[0.2, 2.0, 2.0, 2.0], log_q=0.0, small_q=6, equal=False)
    @example(exps=[5.0, 5.0, 0.003], log_q=0.0, small_q=5, equal=False)
    def test_equals_the_heap_greedy(self, exps, log_q, small_q, equal):
        exps = exps[:1] * len(exps) if equal else exps  # equal SNRs
        q = max(len(exps), min(int(2.0 ** log_q), 2 ** 53) if log_q > 6 else small_q)
        shares = reliability_real_blocks(exps, q)
        assert allocation._balanced_blocks(exps, q, shares) == heap_balanced_blocks(
            exps, q, shares)


def mp_balance_level(exps, q):
    """c = -lambda = (Q - sum ln E_m / E_m) / sum 1 / E_m at 50 digits: the common
    value of Q_n E_n - ln E_n at the real optimum."""
    with mpmath.workdps(50):
        e = [mpmath.mpf(x) for x in exps]
        return (q - mpmath.fsum(mpmath.log(x) / x for x in e)) / mpmath.fsum(1 / x for x in e)


class TestRealSharePrecision:
    """The real shares of `reliability_real_blocks` against a 50-digit oracle."""

    @settings(max_examples=300, deadline=None)
    @given(log_exps=st.lists(st.floats(math.log10(5e-324), math.log10(30.0)),
                             min_size=1, max_size=6),
           log_q=st.floats(0.0, 53.0))
    def test_shares_keep_their_sum_and_balance(self, log_exps, log_q):
        # down to subnormal exponents, where the frame scales the pivot to a
        # normal double; where D / E_p overflows the shares are -inf and +inf
        exps = [max(10.0 ** x, 5e-324) for x in log_exps]
        q = min(int(2.0 ** log_q), 2 ** 53)
        shares = reliability_real_blocks(exps, q)
        assume(all(math.isfinite(v) for v in shares))
        assert abs(math.fsum(shares) - q) <= 1e-12 * max(q, max(abs(v) for v in shares))
        level = mp_balance_level(exps, q)
        for v, e in zip(shares, exps):
            scale = max(abs(float(level)), abs(math.log(e)), 1.0)
            assert abs(v * e - math.log(e) - level) <= 1e-12 * scale
        lam = balance_lagrange(functools.reduce(balance_step, exps, None), q)
        assert abs(lam + level) <= 1e-12 * max(abs(float(level)), 1.0)

    def test_shares_next_to_a_tiny_exponent_sum_to_q(self):
        # AWGN hops at 9 and 6 dB, hop 2 at (1 - 1e-9) C: ln E_n - lambda cancelled
        # here and gave [80.68, 0.0]
        shares = reliability_real_blocks([0.508, 8.06e-19], 1000)
        assert math.fsum(shares) == pytest.approx(1000.0, rel=1e-12)
        assert shares[1] == pytest.approx(919.32, abs=0.01)

    @pytest.mark.parametrize("exps", [[5e-324, 1.0], [1e-315, 1.0], [1e-320, 0.5, 2.0]])
    def test_subnormal_pivot_keeps_the_sum(self, exps):
        # W and D were scaled by the subnormal pivot: [5e-324, 1.0] summed to 1000.44
        assert abs(math.fsum(reliability_real_blocks(exps, 1000)) - 1000) <= 1e-12 * 1000

    @pytest.mark.parametrize("exps", [[1e-310, 2e-310], [5e-324, 1e-323, 1.0]])
    def test_subnormal_exponents_give_no_nan(self, exps):
        # D / E_p overflows: the pivot's hop gets -inf, the rest +inf (they were
        # NaN); lambda is -713.57 for the first
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            shares = reliability_real_blocks(exps, 10)
            lam = balance_lagrange(functools.reduce(balance_step, exps, None), 10)
        assert shares == [-math.inf] + [math.inf] * (len(exps) - 1)
        assert math.isfinite(lam)
        assert lam == pytest.approx(-float(mp_balance_level(exps, 10)), rel=1e-12)


class TestInformationContinuous:
    def test_two_rate_example(self):
        assert info_continuous_log_m([2.0, 1.0], 30) == pytest.approx(20.0, abs=1e-12)
        blocks = information_continuous_blocks([2.0, 1.0], 30)
        assert blocks == [10, 20]
        assert end_to_end_rate(blocks, [2.0, 1.0]) == pytest.approx(20.0 / 30.0, abs=1e-12)

    def test_single_hop(self):
        assert information_continuous_blocks([0.7], 100) == [100]
        assert info_continuous_log_m([0.7], 100) == pytest.approx(70.0, abs=1e-6)

    def test_leftover_tie_goes_to_first_hop(self):
        assert information_continuous_blocks([1.0, 1.0], 101) == [51, 50]

    def test_symbolic_ln_m_above_overflow(self):
        # M = e^1000 overflows a double; ln M and the split stay exact
        assert info_continuous_log_m([1.0, 1.0], 2000) == 1000.0
        assert information_continuous_blocks([1.0, 1.0], 2000) == [1000, 1000]

    def test_floors_within_one_symbol(self):
        rng = np.random.default_rng(15)
        for _ in range(30):
            n = int(rng.integers(1, 5))
            rates = list(rng.uniform(0.2, 3.0, size=n))
            q = int(rng.integers(50, 5000))
            blocks = information_continuous_blocks(rates, q)
            ln_m = q / sum(1.0 / r for r in rates)
            assert sum(blocks) == q
            # each block is floor(ln M / R_n), or one more from the leftover
            for b, r in zip(blocks, rates):
                assert abs(b * r - ln_m) <= r + 1e-9

    def test_reproduces_time_share_fractions(self):
        # rate adaptation R_n = I_n makes blocks track the optimal lambdas
        q = 1000
        blocks = information_continuous_blocks(TWO_HOP_CAPS, q)
        for b, lam in zip(blocks, time_shares(TWO_HOP_CAPS)):
            assert abs(b / q - lam) <= 1.0 / q

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(min_value=-310.0, max_value=math.log10(30.0)),
                    min_size=1, max_size=6),
           st.integers(min_value=1, max_value=2 ** 53))
    @example([-310.0, -310.0], 1000)
    @example([-310.0, math.log10(2e-310), -308.0], 2 ** 53)
    # float floors above Q = 2**50: one exceeded the budget, one missed its share by 1.015
    @example([math.log10(0.699), math.log10(0.887)], 7442179337159336)
    @example([0.0, -226.51117680909542, -230.62903792098558], 4503599627370070)
    def test_property_split_sums_to_budget_or_raises(self, log_rates, q):
        # rates down to 1e-310, where 1/R_n overflows a double (ln M used to
        # collapse to 0 there); exact shares Q (1/R_n) / sum(1/R_m) in rationals
        rates = [10.0 ** x for x in log_rates]
        inverse = [1 / Fraction(r) for r in rates]
        exact = [q * v / sum(inverse) for v in inverse]
        try:
            blocks = information_continuous_blocks(rates, q)
        except AllocationError:
            # only a split that cannot give some hop a whole block may fail
            assert min(exact) < 1 + 1e-9
            return
        assert len(blocks) == len(rates)
        assert min(blocks) >= 1
        assert sum(blocks) == q
        assert all(abs(b - v) <= 1 for b, v in zip(blocks, exact))


def exact_common_m_split(rates, q):
    """The largest-remainder split of the exact shares Q (1/R_n) / sum 1/R_m,
    in rationals, ties to the lowest index; None where a hop gets no block."""
    inverse = [1 / Fraction(r) for r in rates]
    exact = [q * v / sum(inverse) for v in inverse]
    blocks = [math.floor(v) for v in exact]
    order = sorted(range(len(rates)), key=lambda i: (blocks[i] - exact[i], i))
    for i in order[:q - sum(blocks)]:
        blocks[i] += 1
    return blocks if min(blocks) >= 1 else None


class TestInformationContinuousAboveTwoToThe50:
    """Above Q = 2**50 the float shares ln M / R_n are off by up to a few
    blocks; the split takes its floors and remainders from the exact shares."""

    @pytest.mark.parametrize("rates,q,expected", [
        ([0.699, 0.887], 7442179337159336, [4162177220718998, 3280002116440338]),
        ([1.0, 10.0 ** -226.51117680909542, 10.0 ** -230.62903792098558], 4503599627370070,
         None)])
    def test_logged_cases(self, rates, q, expected):
        assert exact_common_m_split(rates, q) == expected
        if expected is None:  # the first hop's exact share is 1.1e-215 blocks
            with pytest.raises(AllocationError, match="blocklength >= 1"):
                information_continuous_blocks(rates, q)
        else:
            assert information_continuous_blocks(rates, q) == expected

    def test_random_lists_equal_the_exact_split(self):
        rng = np.random.default_rng(1950)
        for _ in range(400):
            n = int(rng.integers(2, 7))
            rates = (10.0 ** rng.uniform(-310.0, math.log10(30.0), n)).tolist()
            q = int(rng.integers(2 ** 50, 2 ** 53, endpoint=True))
            expected = exact_common_m_split(rates, q)
            if expected is None:
                with pytest.raises(AllocationError, match="blocklength >= 1"):
                    information_continuous_blocks(rates, q)
            else:
                assert information_continuous_blocks(rates, q) == expected

    @settings(max_examples=300, deadline=None)
    @given(rates=st.lists(st.one_of(
        st.sampled_from([5e-324, 1e-300, 0.5, 1.0, 1.5, 3.0, 2.0 ** 60, 1.7e308]),
        st.floats(min_value=1e-6, max_value=30.0)), min_size=1, max_size=8),
        q=st.one_of(st.integers(1, 100), st.integers(2 ** 50, 2 ** 53), st.just(2 ** 70)))
    @example(rates=[2.0 ** -70, 1.0], q=2 ** 70 + 2)
    @example(rates=[1.0, 0.5, 2.0 ** -80], q=2 ** 80 + 4)
    def test_floors_and_remainder_order_equal_fractions(self, rates, q):
        # exact shares in rationals, their floors, and the hops by descending
        # remainder with ties to the lowest index; integer shares and ties included.
        # The first example's first share is 2**70 + 1 - 2**-70 / (1 + 2**-70), its
        # remainder's first 64 bits all ones; the second's first two remainders,
        # 2**-80 and 2**-79 to within 2**-158, tie in their first 64 bits
        inverse = [1 / Fraction(r) for r in rates]
        exact = [q * v / sum(inverse) for v in inverse]
        floors = [math.floor(v) for v in exact]
        order = sorted(range(len(rates)), key=lambda i: (floors[i] - exact[i], i))
        assert allocation._exact_common_m_split(rates, q) == (floors, order)

    def test_ten_thousand_distinct_rates_in_linear_memory(self, monkeypatch):
        # the former weights held one product of all other numerators per hop:
        # 53 MB at 2,000 rates, growing with the square of the count
        rates = np.unique(np.random.default_rng(1952).uniform(0.1, 3.0, 10_000)).tolist()
        assert len(rates) == 10_000
        calls = []
        split = allocation._exact_common_m_split
        monkeypatch.setattr(allocation, "_exact_common_m_split",
                            lambda *args: calls.append(args) or split(*args))
        tracemalloc.start()
        try:
            blocks = information_continuous_blocks(rates, 2 ** 53)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(calls) == 1 and sum(blocks) == 2 ** 53 and min(blocks) >= 1
        assert peak < 16 * 2 ** 20
        # equal rates tie every remainder, and each tie is settled without
        # computing a remainder again
        q, n = 2 ** 53, 10_000
        assert information_continuous_blocks([0.3] * n, q) == [q // n + 1] * (q % n) + [
            q // n] * (n - q % n)
        assert len(calls) == 2

    def test_normal_budgets_equal_the_exact_split(self):
        # where the float floors are certain, and where equal rates tie them
        rng = np.random.default_rng(1951)
        for _ in range(400):
            n = int(rng.integers(1, 7))
            rates = (10.0 ** rng.uniform(-3.0, math.log10(30.0), n)).tolist()
            rates[-1] = rates[0]
            q = int(rng.integers(n, 10 ** 7))
            assert information_continuous_blocks(rates, q) == exact_common_m_split(rates, q)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("solve", [reliability_real_blocks, reliability_optimal_blocks,
                                   info_continuous_log_m, information_continuous_blocks])
def test_non_finite_values_rejected(solve, bad):
    # each folds its values through one frame, which takes only 0 < v < inf
    for values in ([bad, 1.0], [1.0, bad]):
        with pytest.raises(AllocationError, match="positive and finite"):
            solve(values, 10)


@pytest.mark.parametrize("solve", [reliability_real_blocks, reliability_optimal_blocks])
def test_first_exponent_at_or_below_zero_is_named(solve):
    # counted from 0, as a scenario counts its hops; NaN and +-inf stay "positive and finite"
    with pytest.raises(AllocationError, match=r"^hop 1: rate at/above capacity, zero exponent$"):
        solve([1.0, 0.0, -1.0], 10)
    with pytest.raises(AllocationError, match=r"^hop 0: rate at/above capacity, zero exponent$"):
        solve([-2.0, 1.0], 10)


_BAD_BUDGETS = [math.inf, math.nan, 2.5, 10.0, 0, -3, True, 2 ** 53 + 1, "10", None]


@pytest.mark.parametrize("bad", _BAD_BUDGETS, ids=repr)
@pytest.mark.parametrize("solve", [
    reliability_real_blocks, reliability_optimal_blocks, info_continuous_log_m,
    information_continuous_blocks,
    lambda values, q: allocation._balanced_blocks(values, q, [5.0, 5.0])])
def test_budget_must_be_an_integer_in_range(solve, bad):
    # once: inf raised OverflowError, 2.5 TypeError, and NaN gave [nan, nan] shares
    with pytest.raises(AllocationError, match=r"budget must be an integer in \[1, 2\*\*53\]"):
        solve([1.0, 2.0], bad)


@pytest.mark.parametrize("q", [np.int64(10), 2 ** 53])
def test_budget_takes_any_integral_up_to_two_to_the_53(q):
    assert sum(reliability_optimal_blocks([1.0, 2.0], q)) == q
    assert sum(information_continuous_blocks([1.0, 2.0], q)) == q


class TestRatePolicy:
    def test_half_capacity_scaling(self):
        rates = rate_policy_scale([2.1909, 1.6056], 0.4633)
        assert rates[0] == pytest.approx(1.0954, abs=2e-4)
        assert rates[1] == pytest.approx(0.8028, abs=2e-4)

    def test_boundary_target_equals_capacities(self):
        caps = [2.1909, 1.6056]
        network = 1.0 / sum(1.0 / c for c in caps)
        rates = rate_policy_scale(caps, network)
        for r, c in zip(rates, caps):
            assert r == pytest.approx(c, abs=1e-12)

    def test_single_hop_passthrough(self):
        assert rate_policy_scale([1.3], 0.9) == [pytest.approx(0.9, abs=1e-15)]

    def test_infeasible_target(self):
        with pytest.raises(AllocationError):
            rate_policy_scale([2.0, 1.0], 0.7)  # network capacity is 2/3

    @pytest.mark.parametrize("target", [0.0, -0.5])
    def test_rejects_nonpositive_target(self, target):
        with pytest.raises(AllocationError, match=f"target rate must be positive, got {target}"):
            rate_policy_scale([2.0, 1.0], target)

    @pytest.mark.parametrize("call, message", [
        (lambda: network_capacity([math.inf]), "all capacities must be positive and finite"),
        (lambda: network_capacity([math.nan, 1.0]), "all capacities must be positive and finite"),
        (lambda: rate_policy_scale([math.nan], 0.5), "all capacities must be positive and finite"),
        (lambda: rate_policy_scale([1.0], math.nan), "target rate must be positive, got nan"),
    ], ids=["inf_capacity", "nan_capacity", "nan_capacity_scaled", "nan_target"])
    def test_rejects_nan_and_inf(self, call, message):
        # an infinite capacity has 1 / c = 0, and NaN passes any c <= 0 test
        with pytest.raises(AllocationError, match=message):
            call()

    def test_scaled_rates_hit_target(self):
        rng = np.random.default_rng(16)
        for _ in range(20):
            caps = list(rng.uniform(0.3, 3.0, size=3))
            network = 1.0 / sum(1.0 / c for c in caps)
            target = float(rng.uniform(0.1, 0.99)) * network
            rates = rate_policy_scale(caps, target)
            achieved = 1.0 / sum(1.0 / r for r in rates)
            assert achieved == pytest.approx(target, rel=1e-12)

