import functools
import math
from dataclasses import asdict

import numpy as np
import pytest

from hopbound.allocation import (AllocationError, balance_lagrange, balance_log_m,
                                 balance_step, info_continuous_log_m,
                                 rate_policy_scale, reliability_real_blocks)
from hopbound.channel import HopChannel, capacity
from hopbound.distproto import (compute_and_broadcast, derive_blocks, fold_into, forward_pass,
                                run_distributed_allocation)
from hopbound.exponents import hop_exponents, random_coding_exponent, sphere_packing_exponent


def exponent_pairs(rates, hops):
    """Each hop's (E_r, E_sp) at its rate, as the scenario table solves them."""
    rc, sp = hop_exponents(rates, hops)
    return list(zip(rc[0], sp[0]))


def random_scenario(rng):
    n = int(rng.integers(1, 5))
    hops = [HopChannel.awgn(float(10 ** rng.uniform(-0.5, 1.5))) for _ in range(n)]
    caps = [capacity(h) for h in hops]
    beta = float(rng.uniform(0.1, 0.9))
    rates = [beta * c for c in caps]
    q = int(rng.integers(10 * n, 5000))
    return hops, rates, q


class TestForwardPass:
    def test_single_hop_frames(self):
        pairs = exponent_pairs([2.0], [HopChannel.awgn(10.0)])
        msg = forward_pass([2.0], pairs)
        assert msg["frame_rate"] == balance_step(None, 2.0)
        assert balance_log_m(msg["frame_rate"], 1) == 2.0
        e_r, e_sp = pairs[0]
        assert msg["frame_rc"] == balance_step(None, e_r)
        assert msg["frame_sp"] == balance_step(None, e_sp)

    def test_two_hop_rate_frame_matches_centralized(self):
        hops = [HopChannel.awgn(10.0), HopChannel.awgn(5.0)]
        msg = forward_pass([2.0, 1.0], exponent_pairs([2.0, 1.0], hops))
        # pivot R_p = 1, W = 1 + 1/2: ln M = Q R_p / W = Q / (1/2 + 1/1)
        assert msg["frame_rate"] == (1.0, 0.0, 1.5, 0.5 * math.log(2.0), 1.0)
        assert balance_log_m(msg["frame_rate"], 3) == 2.0

    def test_accumulators_match_centralized_bit_exactly(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            hops, rates, _ = random_scenario(rng)
            msg = forward_pass(rates, exponent_pairs(rates, hops))
            assert msg["frame_rate"] == functools.reduce(balance_step, rates, None)
            exps_rc = [random_coding_exponent(r, ch).exponent for r, ch in zip(rates, hops)]
            assert msg["frame_rc"] == functools.reduce(balance_step, exps_rc, None)

    def test_needs_a_node(self):
        with pytest.raises(AllocationError, match="need at least one node"):
            forward_pass([], [])

    def test_rate_at_capacity_propagates_error(self):
        ch = HopChannel.awgn(1.0)
        pairs = exponent_pairs([capacity(ch)], [ch])
        assert pairs[0] == (0.0, 0.0)
        with pytest.raises(AllocationError):
            forward_pass([capacity(ch)], pairs)

    def test_accumulators_grow_monotonically(self):
        rng = np.random.default_rng(42)
        hops, rates, _ = random_scenario(rng)
        pairs = exponent_pairs(rates, hops)
        prev = {"frame_rate": None, "frame_rc": None, "frame_sp": None}
        for i in range(len(rates)):
            running = forward_pass(rates[: i + 1], pairs[: i + 1])
            if prev["frame_rc"] is not None:
                # 1 / sum(1/R_n) = ln M at Q = 1 falls as hops join
                assert (balance_log_m(running["frame_rate"], 1)
                        < balance_log_m(prev["frame_rate"], 1))
                # sum(1/E_n) = W / s grows (W itself falls when a new pivot
                # shrinks the weights); the pivot only falls
                assert (running["frame_rc"][2] / running["frame_rc"][4]
                        >= prev["frame_rc"][2] / prev["frame_rc"][4])
                assert running["frame_rc"][0] <= prev["frame_rc"][0]
            prev = running


class TestBroadcast:
    def test_ln_m_matches_info_continuous_example(self):
        frame = balance_step(None, 1.0)
        msg = {"frame_rate": functools.reduce(balance_step, [2.0, 1.0], None),
               "frame_rc": frame, "frame_sp": frame}
        trace = []
        constants = compute_and_broadcast(msg, 30, 2, trace)
        assert constants.ln_m == pytest.approx(20.0, abs=1e-12)
        # the end node, node 2, delivers the one broadcast to both nodes
        assert trace == [{"step": k, "from": 2, "to": k, "broadcast": asdict(constants)}
                         for k in (1, 2)]

    def test_lambda_matches_allocation_example(self):
        frame = functools.reduce(balance_step, [0.2, 0.1], None)
        msg = {"frame_rate": functools.reduce(balance_step, [1.0, 1.0], None),
               "frame_rc": frame, "frame_sp": frame}
        constants = compute_and_broadcast(msg, 1000, 2)
        assert constants.lambda_r == pytest.approx(-68.738, abs=1e-3)

    def test_single_hop_derives_whole_budget(self):
        ch = HopChannel.awgn(4.0)
        rate = 0.5 * capacity(ch)
        constants, per_node = run_distributed_allocation([rate], exponent_pairs([rate], [ch]),
                                                         250)
        assert per_node[0]["q_reliability_rc"] == pytest.approx(250.0, rel=1e-12)
        assert per_node[0]["q_info_continuous"] == 250


class TestDistributedEqualsCentralized:
    def test_hundred_random_scenarios_bit_exact(self):
        rng = np.random.default_rng(43)
        for _ in range(100):
            hops, rates, q = random_scenario(rng)
            constants, per_node = run_distributed_allocation(rates, exponent_pairs(rates, hops), q)
            exps_rc = [random_coding_exponent(r, ch).exponent
                       for r, ch in zip(rates, hops)]
            exps_sp = [sphere_packing_exponent(r, ch).exponent
                       for r, ch in zip(rates, hops)]
            ln_m = info_continuous_log_m(rates, q)
            assert constants.ln_m == ln_m
            frame_rc, frame_sp = (functools.reduce(balance_step, exps, None)
                                  for exps in (exps_rc, exps_sp))
            assert constants.lambda_r == balance_lagrange(frame_rc, q)
            assert constants.lambda_sp == balance_lagrange(frame_sp, q)
            central_rc = reliability_real_blocks(exps_rc, q)
            central_sp = reliability_real_blocks(exps_sp, q)
            for i, node in enumerate(per_node):
                assert node["q_reliability_rc"] == central_rc[i]
                assert node["q_reliability_sp"] == central_sp[i]
                assert node["q_info_continuous"] == math.floor(ln_m / rates[i])

    def test_locality_no_foreign_channel_reads(self):
        # what a node knows of its channel is its rate and (E_r, E_sp) pair:
        # spoiling every other node's after the broadcast leaves its blocks as they were
        rng = np.random.default_rng(44)
        hops, rates, q = random_scenario(rng)
        pairs = exponent_pairs(rates, hops)
        for i in range(len(hops)):
            local_rates, local_pairs = list(rates), list(pairs)
            constants = compute_and_broadcast(forward_pass(local_rates, local_pairs), q,
                                              len(hops))
            derived = derive_blocks(local_rates[i], local_pairs[i], constants)
            for other in [*range(i), *range(i + 1, len(hops))]:
                local_rates[other], local_pairs[other] = math.nan, (math.nan, math.nan)
            assert derive_blocks(local_rates[i], local_pairs[i], constants) == derived, \
                f"node {i} read non-local state"

    @pytest.mark.parametrize("place", ["rate", "e_r", "e_sp"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    def test_rate_and_exponents_must_be_positive_and_finite(self, place, bad):
        # the rule allocation._balance_frame applies, with the hop named
        rates, pairs = [1.0, 0.5], [(0.4, 0.5), (0.2, 0.3)]
        if place == "rate":
            rates[1] = bad
        else:
            pairs[1] = (bad, 0.3) if place == "e_r" else (0.2, bad)
        message = ("hop 2 has zero exponent" if bad == 0.0 and place != "rate"
                   else "hop 2 has rate .*: not all positive and finite")
        with pytest.raises(AllocationError, match=message):
            run_distributed_allocation(rates, pairs, 100)

    @pytest.mark.parametrize("place", ["rate", "e_r", "e_sp"])
    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf, -math.inf], ids=repr)
    def test_fold_and_derive_reject_a_bad_local_value(self, place, bad):
        # a rate of 0 once reached derive_blocks' ln M / rate: ZeroDivisionError
        rate, pair = 1.0, (0.4, 0.5)
        constants, _ = run_distributed_allocation([rate], [pair], 100)
        if place == "rate":
            rate = bad
        else:
            pair = (bad, 0.5) if place == "e_r" else (0.4, bad)
        with pytest.raises(AllocationError, match="^hop 3 has "):
            fold_into({"frame_rate": None, "frame_rc": None, "frame_sp": None}, 3, rate, pair)
        with pytest.raises(AllocationError, match="^hop has "):
            derive_blocks(rate, pair, constants)

    def test_ln_m_beyond_doubles(self):
        # ln M = Q R overflowed: inf, and an OverflowError from the node's floor
        with pytest.raises(AllocationError, match="not finite"):
            info_continuous_log_m([1e308], 10)
        with pytest.raises(AllocationError, match="not finite"):
            run_distributed_allocation([1e308], [(1.0, 1.0)], 10)

    def test_ln_m_over_rate_beyond_doubles(self):
        # ln M / rate overflowed at a node: once an OverflowError from its floor
        constants, _ = run_distributed_allocation([1.0], [(1.0, 1.0)], 10)
        with pytest.raises(AllocationError, match="^hop has rate 5e-324: .* not finite"):
            derive_blocks(5e-324, (1.0, 1.0), constants)

    @pytest.mark.parametrize("bad", [math.inf, math.nan, 2.5, 0, True, 2 ** 53 + 1], ids=repr)
    def test_budget_must_be_an_integer_in_range(self, bad):
        # inf once raised OverflowError, and a budget of 0 gave ln M = 0
        with pytest.raises(AllocationError, match=r"budget must be an integer in \[1, 2\*\*53\]"):
            run_distributed_allocation([1.0], [(1.0, 1.0)], bad)

    @pytest.mark.parametrize("bad", [0, 2.5, True], ids=repr)
    def test_broadcast_checks_the_budget(self, bad):
        # Q enters the protocol at the end node; a budget of 0 once broadcast ln M = 0
        msg = forward_pass([1.0], [(1.0, 1.0)])
        with pytest.raises(AllocationError, match=r"budget must be an integer in \[1, 2\*\*53\]"):
            compute_and_broadcast(msg, bad, 1)

    def test_lengths_must_agree(self):
        ch = HopChannel.awgn(10.0)
        pairs = exponent_pairs([1.0] * 3, [ch] * 3)
        with pytest.raises(AllocationError, match="2 rates but 3 exponent pairs"):
            run_distributed_allocation([1.0] * 2, pairs, 300)
        with pytest.raises(AllocationError, match="3 rates but 2 exponent pairs"):
            run_distributed_allocation([1.0] * 3, pairs[:2], 300)

    def test_message_count(self):
        rng = np.random.default_rng(45)
        for n in (1, 2, 4):
            hops = [HopChannel.awgn(float(10 ** rng.uniform(-0.5, 1.0)))
                    for _ in range(n)]
            rates = [0.5 * capacity(h) for h in hops]
            trace: list[dict] = []
            msg = forward_pass(rates, exponent_pairs(rates, hops), trace)
            forward_msgs = len(trace)
            compute_and_broadcast(msg, 100 * n, n, trace)
            assert forward_msgs == n - 1
            assert len(trace) - forward_msgs == n

