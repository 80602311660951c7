import math

import numpy as np
import pytest

from hopbound.allocation import rate_policy_scale
from hopbound.arq import (ArqChain, LatencyError, default_workers, expected_latency,
                          simulate_latency)
from hopbound.channel import HopChannel, capacity
from hopbound.scenario import Evaluation, Scenario


def random_chain(rng, max_hops=10):
    n = int(rng.integers(1, max_hops + 1))
    probs = rng.uniform(0.0, 0.95, size=n).tolist()
    costs = rng.integers(1, 2000, size=n).tolist()
    return ArqChain(probs, [int(c) for c in costs])


class TestExpectedLatency:
    def test_error_free(self):
        assert expected_latency(ArqChain([0.0, 0.0], [100, 100])) == 200.0

    def test_half_loss_first_hop(self):
        assert expected_latency(ArqChain([0.5, 0.0], [100, 100])) == pytest.approx(300.0)

    def test_closed_form_equals_recursion_random(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            chain = random_chain(rng)
            closed = expected_latency(chain)
            # independent oracle: absorption cost from the linear system
            # T_n = Q_n + P_n T_n + (1 - P_n) T_{n+1}, T_{N+1} = 0
            n = len(chain.costs)
            a = np.zeros((n, n))
            for i, p in enumerate(chain.self_loop_probs):
                a[i, i] = 1.0 - p
                if i + 1 < n:
                    a[i, i + 1] = -(1.0 - p)
            t = np.linalg.solve(a, np.asarray(chain.costs, dtype=float))
            assert closed == pytest.approx(float(t[0]), rel=1e-9)

    def test_rejects_pe_of_one(self):
        with pytest.raises(LatencyError):
            ArqChain([1.0], [10])

    def test_monotone_in_pe_and_cost(self):
        base = expected_latency(ArqChain([0.2, 0.3], [100, 200]))
        assert expected_latency(ArqChain([0.25, 0.3], [100, 200])) > base
        assert expected_latency(ArqChain([0.2, 0.3], [101, 200])) > base


class TestSimulateLatency:
    def test_error_free_is_deterministic(self):
        est = simulate_latency(ArqChain([0.0, 0.0], [100, 100]), 1000, 99)
        assert est.mc_mean == 200.0
        assert est.mc_stderr == 0.0

    def test_matches_closed_form(self):
        est = simulate_latency(ArqChain([0.5, 0.0], [100, 100]), 200_000, 5)
        assert abs(est.mc_mean - 300.0) <= 4 * est.mc_stderr

    def test_geometric_single_hop(self):
        est = simulate_latency(ArqChain([0.9], [10]), 200_000, 7)
        assert abs(est.mc_mean - 100.0) <= 4 * est.mc_stderr

    def test_random_chains_within_four_stderr(self):
        rng = np.random.default_rng(32)
        for _ in range(20):
            chain = random_chain(rng, max_hops=5)
            est = simulate_latency(chain, 100_000, int(rng.integers(0, 2 ** 63)))
            assert abs(est.mc_mean - est.analytic) <= 4 * max(est.mc_stderr, 1e-12)

    def test_bit_identical_reproducibility(self):
        chain = ArqChain([0.3, 0.6, 0.1], [50, 70, 90])
        a = simulate_latency(chain, 50_000, 123456789)
        b = simulate_latency(chain, 50_000, 123456789)
        assert a == b

    def test_worker_count_does_not_change_result(self):
        chain = ArqChain([0.4, 0.2], [100, 300])
        a = simulate_latency(chain, 50_000, 42, workers=1)
        b = simulate_latency(chain, 50_000, 42, workers=7)
        assert a.mc_mean == b.mc_mean
        assert a.mc_stderr == b.mc_stderr

    @pytest.mark.parametrize("seed,mean,stderr", [
        (0, 341.45, 4.125775020468217), (123456789, 334.47, 4.145178114581037),
        (-1, 350.06, 4.666022735496278), (2 ** 64 - 1, 350.06, 4.666022735496278),
        (2 ** 70 + 3, 346.11, 4.563769921446073)])
    def test_pinned_digits(self, seed, mean, stderr):
        # the stream is keyed by the seed modulo 2**64; these digits must not move
        est = simulate_latency(ArqChain([0.3, 0.6, 0.1], [50, 70, 90]), 1000, seed)
        assert (est.mc_mean, est.mc_stderr) == (mean, stderr)

    def test_seed_changes_stream(self):
        chain = ArqChain([0.4], [100])
        a = simulate_latency(chain, 10_000, 1)
        b = simulate_latency(chain, 10_000, 2)
        assert a.mc_mean != b.mc_mean

    @pytest.mark.parametrize("raw,cpus,expected", [
        (None, 8, 1), ("", 8, 1), ("junk", 8, 1), ("0", 8, 1), ("-3", 8, 1),
        ("3", 8, 3), ("8", 8, 8), ("100000", 8, 8), ("100000", 2, 2), ("4", None, 1)])
    def test_default_workers_capped_at_cpu_count(self, monkeypatch, raw, cpus, expected):
        # pure function of the environment and the CPU count; starts no thread
        if raw is None:
            monkeypatch.delenv("HOPBOUND_THREADS", raising=False)
        else:
            monkeypatch.setenv("HOPBOUND_THREADS", raw)
        monkeypatch.setattr("os.cpu_count", lambda: cpus)
        assert default_workers() == expected

    def test_trials_validated(self):
        with pytest.raises(ValueError):
            simulate_latency(ArqChain([0.1], [10]), 0, 1)


class TestLatencyBounds:
    @staticmethod
    def latency(blocks, rates, hops):
        """latency_bounds of a manual split, through the scenario evaluation."""
        return Evaluation(Scenario(sum(blocks), hops, {"mode": "explicit", "rates_nats": rates},
                                   "manual", blocks)).latency

    def test_low_rate_bounds_collapse_to_budget(self):
        hops = [HopChannel.awgn(10 ** 0.9), HopChannel.awgn(10 ** 0.6)]
        rates = rate_policy_scale([capacity(h) for h in hops], 0.1)
        upper, lower = self.latency([423, 577], rates, hops)
        assert upper >= lower
        assert upper == pytest.approx(1000.0, rel=1e-10)
        assert lower == pytest.approx(1000.0, rel=1e-10)

    def test_upper_dominates_lower(self):
        hops = [HopChannel.awgn(2.0), HopChannel.awgn(1.0)]
        caps = [capacity(h) for h in hops]
        rates = [0.9 * c for c in caps]
        upper, lower = self.latency([500, 500], rates, hops)
        assert upper >= lower >= 1000.0

    def test_rate_at_capacity_errors_with_hop_index(self):
        hops = [HopChannel.awgn(1.0), HopChannel.awgn(1.0)]
        rates = [0.3, capacity(hops[1])]
        with pytest.raises(LatencyError) as err:
            self.latency([500, 500], rates, hops)
        assert err.value.hop == 1
