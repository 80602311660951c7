import math
import re
import time
import tracemalloc
import warnings

import numpy as np
import pytest

from hopbound import oracle
from hopbound.arq import _moments
from hopbound.channel import HopChannel
from hopbound.exponents import random_coding_exponent
from hopbound.oracle import (GridSpec, bsc_ensemble_error,
                             exhaustive_allocation, grid_max_exponent)

SNR1 = HopChannel.awgn(1.0)


class TestGridMax:
    def test_capacity_edge(self):
        val, rho = grid_max_exponent(math.log(2.0), SNR1, GridSpec(0.0, 1.0, 1e-4))
        assert val == pytest.approx(0.0, abs=1e-8)
        assert rho == pytest.approx(0.0, abs=1e-3)

    def test_clamped_regime(self):
        val, rho = grid_max_exponent(0.1, SNR1, GridSpec(0.0, 1.0, 1e-6))
        assert val == pytest.approx(math.log(1.5) - 0.1, abs=1e-9)
        assert rho == pytest.approx(1.0, abs=1e-5)

    def test_sphere_packing_dominance_at_low_rate(self):
        rc_val, _ = grid_max_exponent(0.05, SNR1, GridSpec(0.0, 1.0, 1e-4))
        sp_val, sp_rho = grid_max_exponent(0.05, SNR1, GridSpec(0.0, 50.0, 1e-4))
        assert sp_val > rc_val
        assert sp_rho > 1.0

    def test_invalid_grid(self):
        with pytest.raises(ValueError):
            GridSpec(1.0, 0.5, 1e-3)
        with pytest.raises(ValueError):
            GridSpec(0.0, 1.0, 0.0)

    @pytest.mark.parametrize("spec", [(0.0, 1.0, math.inf), (0.0, 1.0, math.nan),
                                      (0.0, math.inf, 1e-3), (math.nan, 1.0, 1e-3),
                                      (0.0, math.nan, 1e-3)])
    def test_non_finite_grid_rejected(self, spec):
        with pytest.raises(ValueError, match="rho_min < rho_max < inf"):
            GridSpec(*spec)

    @pytest.mark.parametrize("step,count", [(1e-15, "1e+15"), (5e-324, "inf"),
                                            (1e-8, "100000001")])
    def test_grid_past_1e8_points_rejected_at_once(self, step, count):
        # once: a 1e-15 step ran for as long as its 1e15 points took, and
        # 5e-324 raised OverflowError
        start = time.perf_counter()
        with pytest.raises(ValueError, match=rf"^grid of {re.escape(count)} points, more than"):
            grid_max_exponent(0.1, SNR1, GridSpec(0.0, 1.0, step))
        assert time.perf_counter() - start < 1.0
        assert GridSpec(0.0, 1.0, 1.00000001e-8).points == 10 ** 8

    @pytest.mark.parametrize("rate", [math.nan, math.inf, -math.inf])
    def test_non_finite_rate_rejected(self, rate):
        with pytest.raises(ValueError, match="rate must be finite"):
            grid_max_exponent(rate, SNR1, GridSpec(0.0, 1.0, 1e-3))


class TestExhaustiveAllocation:
    def test_known_optimum(self):
        best = exhaustive_allocation([0.2, 0.1], 60)
        val = sum(math.exp(-b * e) for b, e in zip(best, [0.2, 0.1]))
        for q1 in range(1, 60):
            other = math.exp(-q1 * 0.2) + math.exp(-(60 - q1) * 0.1)
            assert val <= other + 1e-18

    def test_symmetry(self):
        assert exhaustive_allocation([0.4, 0.4], 10) == [5, 5]

    def test_mass_shifts_to_weak_hop(self):
        best = exhaustive_allocation([1.0, 0.01], 20)
        assert best[1] > best[0]

    def test_instance_bounds_enforced(self):
        with pytest.raises(ValueError):
            exhaustive_allocation([0.1, 0.2], 61)
        with pytest.raises(ValueError):
            exhaustive_allocation([0.1] * 4, 20)
        with pytest.raises(ValueError, match="budget smaller than hop count"):
            exhaustive_allocation([0.1, 0.2, 0.3], 2)

    @pytest.mark.parametrize("exponents, q", [
        ([math.nan, 1.0], 5), ([1.0, math.inf], 5), ([1.0, -0.5], 5), ([1.0, 1.0], 2.5),
        ([1.0, 1.0], 5.0), ([1.0, 1.0], True)])
    def test_domain(self, exponents, q):
        # ([nan, 1.0], 5) once returned None and ([1.0, 1.0], 2.5) raised TypeError
        with pytest.raises(ValueError, match="need an integer budget and finite exponents >= 0"):
            exhaustive_allocation(exponents, q)


class TestBscEnsemble:
    def test_noiseless_channel_zero_error(self):
        # with distinct codewords ML decoding is exact at p = 0
        mean, stderr = bsc_ensemble_error(6, 2, 0.0, trials=50, seed=3)
        assert mean <= 0.05  # duplicate codewords occur with prob 2^-6 per trial
        assert stderr >= 0.0

    def test_useless_channel(self):
        mean, _ = bsc_ensemble_error(4, 2, 0.5, trials=20, seed=1)
        assert mean >= 0.5
        assert mean <= 1.0

    def test_random_coding_bound_holds(self):
        q, m, p = 8, 4, 0.05
        rate = math.log(m) / q
        e_r = random_coding_exponent(rate, HopChannel.bsc(p)).exponent
        bound = math.exp(-q * e_r)
        mean, stderr = bsc_ensemble_error(q, m, p, trials=2000, seed=1)
        assert mean <= bound + 3 * stderr

    def test_deterministic_given_seed(self):
        a = bsc_ensemble_error(6, 4, 0.1, trials=100, seed=9)
        b = bsc_ensemble_error(6, 4, 0.1, trials=100, seed=9)
        assert a == b

    def test_instance_bounds_enforced(self):
        with pytest.raises(ValueError):
            bsc_ensemble_error(11, 4, 0.1, trials=10, seed=1)
        with pytest.raises(ValueError):
            bsc_ensemble_error(8, 9, 0.1, trials=10, seed=1)

    @pytest.mark.parametrize("args", [
        (4, 2, math.nan, 3), (4, 2, math.inf, 3), (4, 2, -math.inf, 3), (4, 2, 1e308, 3),
        (4, 2, -1.0, 3), (4, 2, 1.5, 3), (4, 2, 0.1, 0), (4, 2, 0.1, 2.0), (0, 2, 0.1, 3),
        (4.0, 2, 0.1, 3), (4, 0, 0.1, 3), (4, 2.5, 0.1, 3), (4, True, 0.1, 3)])
    def test_domain(self, args):
        # once: NaN gave (nan, nan), +-inf warned, 1e308 raised OverflowError, -1 a mean
        # of -31.7, and no trials warned
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="need integers blocklength, num_codewords"):
                bsc_ensemble_error(*args, seed=1)

    @pytest.mark.parametrize("seed", [0.5, True, -1, "1", None])
    def test_seed_must_be_an_integer(self, seed):
        # once: 0.5 raised numpy's TypeError and True ran as seed 1
        with pytest.raises(ValueError, match="seed must be an integer >= 0"):
            bsc_ensemble_error(4, 2, 0.1, 3, seed)

    @pytest.mark.parametrize("p", [0.0, 1.0])
    def test_crossover_ends(self, p):
        mean, _ = bsc_ensemble_error(4, 2, p, trials=3, seed=1)
        assert 0.0 <= mean <= 1.0

    def test_exact_against_direct_enumeration(self):
        # one fixed codebook, tiny instance: compare with a slow direct count
        q, m, p = 4, 2, 0.2
        rng = np.random.default_rng([5, 0])
        code = rng.integers(0, 2, size=(m, q), dtype=np.uint8)
        total_correct = 0.0
        for y in range(2 ** q):
            ybits = [(y >> k) & 1 for k in range(q)]
            liks = []
            for cw in code:
                d = sum(int(b != c) for b, c in zip(ybits, cw))
                liks.append(p ** d * (1 - p) ** (q - d))
            top = max(liks)
            winners = [k for k, v in enumerate(liks) if v == top]
            if len(winners) == 1:
                total_correct += liks[winners[0]]
        expected_pe = 1.0 - total_correct / m
        mean, _ = bsc_ensemble_error(q, m, p, trials=1, seed=5)
        assert mean == pytest.approx(expected_pe, abs=1e-14)


class TestBscEnsembleBlocks:
    """The trials' errors are held one block at a time, each reduced to its moments."""

    def _blocks_seen(self, monkeypatch):
        seen = []
        monkeypatch.setattr(oracle, "_moments", lambda x: (seen.append(x.copy()), _moments(x))[1])
        return seen

    def test_one_block_is_numpys_mean_and_stderr_bit_for_bit(self, monkeypatch):
        seen = self._blocks_seen(monkeypatch)
        mean, stderr = bsc_ensemble_error(6, 4, 0.2, 300, 3)
        (pe,) = seen
        assert len(pe) == 300
        assert (mean, stderr) == (float(np.mean(pe)), float(np.std(pe, ddof=1) / math.sqrt(300)))

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_numpys_mean_and_stderr_bit_for_bit_past_1000_trials(self, monkeypatch, seed):
        # the verify suite's instance at 1,500 trials, one block of _ENSEMBLE_BLOCK
        seen = self._blocks_seen(monkeypatch)
        mean, stderr = bsc_ensemble_error(8, 4, 0.05, 1500, seed)
        pe = np.concatenate(seen)
        assert len(pe) == 1500
        assert (mean.hex(), stderr.hex()) == (
            float(np.mean(pe)).hex(), float(np.std(pe, ddof=1) / math.sqrt(1500)).hex())

    def test_blocks_merge_in_order_within_ulps(self, monkeypatch):
        whole = bsc_ensemble_error(6, 4, 0.2, 300, 3)
        monkeypatch.setattr(oracle, "_ENSEMBLE_BLOCK", 64)
        seen = self._blocks_seen(monkeypatch)
        mean, stderr = bsc_ensemble_error(6, 4, 0.2, 300, 3)
        assert [len(pe) for pe in seen] == [64, 64, 64, 64, 44]
        assert mean == pytest.approx(whole[0], rel=1e-15)
        assert stderr == pytest.approx(whole[1], rel=1e-13)

    def test_traced_memory_stops_growing_with_trials(self, monkeypatch):
        # once: an array of 8 bytes per trial, 7.5 KiB more at 1,024 trials than at 64
        monkeypatch.setattr(oracle, "_ENSEMBLE_BLOCK", 16)

        def peak(trials):
            tracemalloc.start()
            try:
                bsc_ensemble_error(1, 2, 0.1, trials, 1)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(16)
        assert peak(1024) - peak(64) < 4096
