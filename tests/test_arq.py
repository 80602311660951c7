import math
import os
import subprocess
import sys
import threading
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hopbound
from hopbound import arq, cli
from hopbound.allocation import rate_policy_scale
from hopbound.arq import (_BLOCK, _GOLDEN, _INVERTED, _MASK64, _SPARSE_PE, _UNMIXED, PE_CLAMP,
                          ArqChain, LatencyError, _candidate_cap, _latency_kernel, _moments,
                          _splitmix64, _splitmix64_inplace, _unmix, expected_latency,
                          latency_variance, simulate_latency)
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

    @pytest.mark.parametrize("cost", [-5, 0, 2.5, 5.0, math.nan, math.inf, True, "7", None])
    def test_rejects_cost_that_is_not_an_integer_of_at_least_one(self, cost):
        with pytest.raises(LatencyError) as err:
            ArqChain([0.1, 0.2], [10, cost])
        assert err.value.hop == 1

    @pytest.mark.parametrize("cost", [1, 2 ** 40, np.int64(7), np.uint8(3)])
    def test_accepts_integral_costs(self, cost):
        assert expected_latency(ArqChain([0.0], [cost])) == float(cost)

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

    @pytest.mark.parametrize("probs,costs,seed,mean,stderr", [
        # fig4-like: almost every trial makes one attempt; seed 19 draws two
        # retransmissions on the 1e-6 hop
        ([1e-9, 1e-6], [423, 577], 19, 1000.005869338555, 0.004150238539030777),
        # hops on both sides of the candidate cutoff (0.25)
        ([5e-324, 1e-6, 0.01, 0.24999999999999997, 0.25, 0.9, PE_CLAMP],
         [50, 70, 90, 110, 130, 150, 170], 5, 170644603950012.1, 385107221190.3198),
        # each trial's latency passes 2**53, so the order of its addends shows
        ([PE_CLAMP, 1e-6, PE_CLAMP, 1e-3], [10 ** 6, 7, 999_999, 3], 6,
         2.0002318505022062e+18, 3184154955202795.5)],
        ids=["fig4_like", "straddles_cutoff", "latencies_past_2**53"])
    def test_pinned_digits_sparse_hops(self, probs, costs, seed, mean, stderr):
        # three blocks and a partial one; these digits must not move either
        est = simulate_latency(ArqChain(probs, costs), 3 * _BLOCK + 7, seed)
        assert (est.mc_mean, est.mc_stderr) == (mean, stderr)

    def test_seed_changes_stream(self):
        chain = ArqChain([0.4], [100])
        a = simulate_latency(chain, 10_000, 1)
        b = simulate_latency(chain, 10_000, 2)
        assert a.mc_mean != b.mc_mean

    @pytest.mark.parametrize("raw,cpus,workers", [
        (None, 8, None), ("", 8, None), ("junk", 8, None), ("0", 8, 0), ("-3", 8, -3),
        ("3", 8, 3), ("8", 8, 8), ("100000", 8, 100_000), ("100000", 2, 2), ("4", None, 4)])
    def test_every_block_runs_on_the_calling_thread(self, monkeypatch, raw, cpus, workers):
        # neither the former HOPBOUND_THREADS variable, the CPU count nor `workers`
        # starts a thread or changes the result
        chain = _mixed_chain(4)
        trials = 3 * _BLOCK + 7
        sequential = simulate_latency(chain, trials, 3, workers=1)
        if raw is None:
            monkeypatch.delenv("HOPBOUND_THREADS", raising=False)
        else:
            monkeypatch.setenv("HOPBOUND_THREADS", raw)
        monkeypatch.setattr("os.cpu_count", lambda: cpus)
        block_threads = []
        make_kernel = arq._latency_kernel

        def recording_kernel(*args):
            kernel = make_kernel(*args)

            def run(start, stop):
                block_threads.append(threading.get_ident())
                return kernel(start, stop)
            return run

        monkeypatch.setattr(arq, "_latency_kernel", recording_kernel)
        threads_before = threading.active_count()
        assert simulate_latency(chain, trials, 3, workers=workers) == sequential
        assert block_threads == [threading.get_ident()] * 4
        assert threading.active_count() == threads_before

    def test_trials_validated(self):
        with pytest.raises(ValueError):
            simulate_latency(ArqChain([0.1], [10]), 0, 1)


# The former full-array Monte Carlo, kept as the oracle of the blocked kernel.
_REF_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_REF_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_REF_MIX2 = np.uint64(0x94D049BB133111EB)


def _ref_splitmix64(x):
    x = (x ^ (x >> np.uint64(30))) * _REF_MIX1
    x = (x ^ (x >> np.uint64(27))) * _REF_MIX2
    return x ^ (x >> np.uint64(31))


def _ref_counter_uniforms(seed, indices):
    key = _ref_splitmix64(np.array([(seed + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF],
                                   dtype=np.uint64))[0]
    state = key + (indices.astype(np.uint64) + np.uint64(1)) * _REF_GOLDEN
    bits = _ref_splitmix64(state)
    return ((bits >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0 ** -53


def _ref_trial_latencies(chain, seed, start, stop):
    n = len(chain.costs)
    trials = np.arange(start, stop, dtype=np.uint64)
    total = np.zeros(stop - start, dtype=np.float64)
    for hop, (q, p) in enumerate(zip(chain.costs, chain.self_loop_probs)):
        if p == 0.0:
            total += q
            continue
        u = _ref_counter_uniforms(seed, trials * np.uint64(n) + np.uint64(hop))
        total += (1.0 + np.floor(np.log(u) / math.log(p))) * q
    return total


def _ref_estimate(chain, trials, seed):
    """(mean, stderr, exact sum of the latencies) of the full-array reduction."""
    latencies = _ref_trial_latencies(chain, seed, 0, trials)
    mean = float(np.mean(latencies))
    stderr = float(np.std(latencies, ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
    return mean, stderr, math.fsum(latencies)


def _assert_matches_reference(est, chain, trials, seed):
    mean, stderr, exact_sum = _ref_estimate(chain, trials, seed)
    if exact_sum < 2.0 ** 53:
        assert est.mc_mean == mean
    else:
        assert math.isclose(est.mc_mean, mean, rel_tol=1e-14, abs_tol=0.0)
    if trials <= _BLOCK:
        assert est.mc_stderr == stderr
    else:
        assert math.isclose(est.mc_stderr, stderr, rel_tol=1e-14, abs_tol=0.0)


_probabilities = st.one_of(
    st.sampled_from([0.0, 5e-324, PE_CLAMP]),
    st.floats(min_value=-300.0, max_value=math.log10(0.95)).map(lambda e: 10.0 ** e))
_chains = st.lists(st.tuples(_probabilities, st.integers(1, 2000)), min_size=1,
                   max_size=6).map(lambda hops: ArqChain([p for p, _ in hops],
                                                         [q for _, q in hops]))
_seeds = st.integers(-2 ** 70, 2 ** 70)


class TestBlockedKernel:
    @settings(max_examples=200, deadline=None)
    @given(chain=_chains, seed=_seeds, start=st.integers(0, 2 ** 40),
           m=st.integers(1, 3000), spare=st.integers(0, 64))
    def test_latencies_match_full_array_reference(self, chain, seed, start, m, spare):
        got = _latency_kernel(chain, seed, m + spare)(start, start + m)
        assert got.tobytes() == _ref_trial_latencies(chain, seed, start, start + m).tobytes()

    @settings(max_examples=60, deadline=None)
    @given(chain=_chains, seed=_seeds, trials=st.integers(1, 3 * _BLOCK + 7))
    def test_estimate_matches_full_array_reference(self, chain, seed, trials):
        _assert_matches_reference(simulate_latency(chain, trials, seed), chain, trials, seed)

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("trials", [1, 2, _BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 7])
    @pytest.mark.parametrize("probs", [[0.3, 0.6, 0.1], [0.3, PE_CLAMP, 0.1]],
                             ids=["sums_below_2**53", "sums_past_2**53"])
    def test_block_boundaries_for_any_worker_count(self, probs, trials, workers):
        chain = ArqChain(probs, [50, 70, 90])
        est = simulate_latency(chain, trials, 11, workers=workers)
        assert est == simulate_latency(chain, trials, 11, workers=1)
        _assert_matches_reference(est, chain, trials, 11)

    @pytest.mark.parametrize("workers", [2, 3])
    def test_merge_order_fixed_for_any_worker_count(self, workers):
        # ten blocks with sums past 2**53: a merge out of block order moves the digits
        chain = ArqChain([0.3, PE_CLAMP, 0.1], [50, 70, 90])
        for seed in range(4):
            assert (simulate_latency(chain, 10 * _BLOCK + 3, seed, workers=workers)
                    == simulate_latency(chain, 10 * _BLOCK + 3, seed, workers=1))

    def test_ten_million_trials_in_bounded_memory(self):
        # a fresh interpreter: this process's earlier peak would hide the growth
        code = ("import resource\n"
                "import hopbound\n"
                "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
                "chain = hopbound.ArqChain([0.3, 0.6, 0.1], [50, 70, 90])\n"
                "hopbound.simulate_latency(chain, 10_000_000, 1)\n"
                "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)\n")
        src = os.path.dirname(os.path.dirname(os.path.abspath(hopbound.__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        kib_per_unit = 1 / 1024 if sys.platform == "darwin" else 1  # ru_maxrss units
        assert int(proc.stdout) * kib_per_unit < 50 * 1024


# lattice points (k + 1/2) 2**-53, where a draw u equals P_e exactly, the
# integer points k 2**-53 halfway between draws, and their neighbours
def _mixed_chain(n):
    """n hops cycling through zero, sparse, near-cutoff and dense P_e."""
    return ArqChain([(0.0, 1e-6, 0.01, 0.3, 0.9)[h % 5] for h in range(n)],
                    [10 + 7 * h for h in range(n)])


@pytest.fixture
def built_workspaces(monkeypatch):
    """Every workspace built, counted, with the thread that built it."""
    built = []

    class Counted(arq._Workspace):
        def __init__(self, *args):
            super().__init__(*args)
            self.thread = threading.current_thread()
            built.append(self)

    monkeypatch.setattr(arq, "_Workspace", Counted)
    return built


class TestWorkspaceReuse:
    # hop counts interleaved so that each call's counter ramp differs from the last's
    CASES = [(n, trials) for trials in (1, _BLOCK - 1, _BLOCK + 1, 100_000)
             for n in (1, 16, 2, 3)]

    def test_interleaved_calls_match_fresh_workspaces_and_the_oracle(self, monkeypatch,
                                                                     built_workspaces):
        fresh = {}
        for n, trials in self.CASES:
            # a thread's first call builds its workspace
            monkeypatch.setattr(arq, "_per_thread", threading.local())
            fresh[n, trials] = simulate_latency(_mixed_chain(n), trials, n, workers=1)
        assert len(built_workspaces) == len(self.CASES)
        monkeypatch.setattr(arq, "_per_thread", threading.local())
        for n, trials in self.CASES:
            est = simulate_latency(_mixed_chain(n), trials, n, workers=1)
            assert est == fresh[n, trials]
            _assert_matches_reference(est, _mixed_chain(n), trials, n)
        assert len(built_workspaces) == len(self.CASES) + 1

    def test_concurrent_calls_get_the_sequential_results(self, built_workspaces):
        # more threads than cores, each running the calls in its own order, with
        # frequent switches: a workspace shared by two calls would mix their blocks
        calls = [(_mixed_chain(n), 3 * _BLOCK + 7, n, workers)
                 for n in (16, 1, 3) for workers in (1, 2)]
        expected = [simulate_latency(*call) for call in calls]
        orders = [tuple(range(k, len(calls))) + tuple(range(k)) for k in range(4)]
        barrier = threading.Barrier(len(orders), timeout=60)
        results = {}

        def run(order):
            barrier.wait()
            results[order] = [simulate_latency(*calls[i]) for i in order]

        threads = [threading.Thread(target=run, args=(order,)) for order in orders]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for order in orders:
            assert results[order] == [expected[i] for i in order]
        assert max(Counter(ws.thread for ws in built_workspaces).values(), default=0) <= 1

    def test_any_worker_count_reuses_the_calling_threads_workspace(self, monkeypatch,
                                                                   built_workspaces):
        monkeypatch.setattr("os.cpu_count", lambda: 2)
        monkeypatch.setattr(arq, "_per_thread", threading.local())
        chain = _mixed_chain(4)
        sequential = simulate_latency(chain, 5 * _BLOCK, 3, workers=1)
        for workers in (10 ** 6, 64, 3, 2):
            assert simulate_latency(chain, 5 * _BLOCK, 3, workers=workers) == sequential
        assert [ws.thread for ws in built_workspaces] == [threading.current_thread()]


_BOUNDARY_PE = sorted(
    {5e-324, 2.5e-310, 1e-300, 1e-6, 1e-3, 0.01, 0.1, 0.2, 0.24, math.nextafter(_SPARSE_PE, 0.0)}
    | {q for k in [0, 1, 2, 1000, 2 ** 19 - 1, 2 ** 19, 2 ** 20 + 1, 2 ** 30, 2 ** 45,
                   2 ** 50, 2 ** 51 - 1]
       for p in ((k + 0.5) * 2.0 ** -53, k * 2.0 ** -53)
       for q in (math.nextafter(p, 0.0), p, math.nextafter(p, 1.0))
       if 0.0 < q < _SPARSE_PE})


class TestCandidateRule:
    @pytest.mark.parametrize("p", _BOUNDARY_PE)
    def test_rejected_draws_make_exactly_one_attempt(self, p):
        cap = _candidate_cap(p)
        centre = [math.floor(Fraction(p) * 2 ** 53), cap >> 11]
        j = np.unique(np.concatenate([np.arange(c - 4096, c + 4097) for c in centre]))
        j = j[(j >= 0) & (j < 2 ** 53)].astype(np.uint64)
        for low_bits in (0, 2047):  # the cap decides on j alone
            rejected = j[((j << np.uint64(11)) | np.uint64(low_bits)) > np.uint64(cap)]
            assert 0 < len(rejected) < len(j)
            # the kernel's float64 steps, in its order
            u = (rejected.astype(np.float64) + 0.5) * 2.0 ** -53
            attempts = 1.0 + np.floor(np.log(u) / math.log(p))
            assert np.all(attempts == 1.0), rejected[attempts != 1.0][:5]
            # and the margin the docstring's bound rests on: u > P_e (1 + 2**-20)
            lowest = int(rejected.min())
            assert Fraction(2 * lowest + 1, 2 ** 54) > Fraction(p) * (1 + Fraction(1, 2 ** 20))


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


def _seed_drawing(x, trial, n, hop):
    """A seed under which `trial` draws the raw hash x on `hop` (of n hops)."""
    key = (_unmix(x) - (trial * n + hop + 1) * _GOLDEN) & _MASK64
    return (_unmix(key) - _GOLDEN) & _MASK64


def _block_of(trial, trials):
    start = trial - trial % _BLOCK
    return start, min(start + _BLOCK, trials)


class TestUnmix:
    @settings(max_examples=300, deadline=None)
    @given(x=st.one_of(st.sampled_from([0, 2 ** 64 - 1]), st.integers(0, 2 ** 64 - 1)))
    def test_inverts_splitmix64(self, x):
        assert _unmix(_splitmix64(x)) == x
        assert _splitmix64(_unmix(x)) == x

    def test_table_hashes_back_to_its_index(self):
        hashed = _UNMIXED.copy()
        _splitmix64_inplace(hashed, np.empty_like(hashed))
        assert np.array_equal(hashed, np.arange(_INVERTED, dtype=np.uint64))
        assert [int(v) for v in _UNMIXED[[0, 1, _INVERTED - 1]]] == [
            _unmix(0), _unmix(1), _unmix(_INVERTED - 1)]

    def test_seed_construction_draws_the_chosen_hash(self):
        for x, trial, n, hop in [(0, 0, 1, 0), (2047, 12345, 3, 2), (4095, 2 ** 40, 16, 7)]:
            key = _splitmix64((_seed_drawing(x, trial, n, hop) + _GOLDEN) & _MASK64)
            assert _splitmix64((key + (trial * n + hop + 1) * _GOLDEN) & _MASK64) == x


class TestInvertedCandidates:
    TRIALS = 3 * _BLOCK + 7
    # a forced candidate on hop 1 of [1e-300, P_e, 0] with costs [13, 700, 11]:
    # (P_e, hash, trial, pinned mean, pinned stderr)
    RETRANSMITS = (724.0035602573557, 0.003560257355746001)
    CASES = [(p, x, trial, *pinned)
             for p, hashes, pinned in [(1.1e-16, (0, 2047), RETRANSMITS),
                                       (2e-16, (0, 2047, 4095), RETRANSMITS),
                                       (1e-300, (0, 2047), (724.0, 0.0))]
             for x in hashes
             for trial in (0, _BLOCK - 1, _BLOCK, 3 * _BLOCK + 6)]

    @pytest.mark.parametrize("p,x,trial,mean,stderr", CASES)
    def test_forced_candidate_matches_reference(self, p, x, trial, mean, stderr):
        assert x <= _candidate_cap(p) < _INVERTED
        chain = ArqChain([1e-300, p, 0.0], [13, 700, 11])
        seed = _seed_drawing(x, trial, 3, 1)
        start, stop = _block_of(trial, self.TRIALS)
        got = _latency_kernel(chain, seed, _BLOCK)(start, stop)
        ref = _ref_trial_latencies(chain, seed, start, stop)
        assert got.tobytes() == ref.tobytes()
        assert got[trial - start] == (724.0 + 700.0 if stderr else 724.0)
        est = simulate_latency(chain, self.TRIALS, seed)
        assert (est.mc_mean, est.mc_stderr) == (mean, stderr)
        _assert_matches_reference(est, chain, self.TRIALS, seed)

    @pytest.mark.parametrize("cost,constant", [(2 ** 37 - 2, True), (2 ** 37 - 1, False),
                                               (2 ** 40, False)])
    def test_constant_block_only_while_its_sum_is_exact(self, cost, constant):
        # 2**16 trials of latency S: the block's sum m S passes 2**53 at S = 2**37
        chain = ArqChain([1e-300, 5e-324], [cost, 1])
        got = _latency_kernel(chain, 9, _BLOCK)(0, _BLOCK)
        assert got.tobytes() == _ref_trial_latencies(chain, 9, 0, _BLOCK).tobytes()
        assert (got.strides == (0,)) == constant
        filled = _moments(np.array(got))
        assert _moments(got) == filled
        _assert_matches_reference(simulate_latency(chain, _BLOCK, 9), chain, _BLOCK, 9)
        _assert_matches_reference(simulate_latency(chain, 2 * _BLOCK + 5, 9), chain,
                                  2 * _BLOCK + 5, 9)

    def test_blocks_whose_counters_wrap_hash_instead(self):
        # with N = 3, trial 2**64 // 3 is the first whose counters pass 2**64;
        # trial t = 2**64 // 3 + 5 on hop 1 has counter 16 mod 2**64, the same
        # as trial 5 on hop 0, so both draw the forced hash
        chain = ArqChain([1e-300, 1.1e-16, 0.0], [13, 700, 11])
        edge = 2 ** 64 // 3

        def block(seed, start, stop):
            got = _latency_kernel(chain, seed, 64)(start, stop)
            assert got.tobytes() == _ref_trial_latencies(chain, seed, start, stop).tobytes()
            return got

        seed = _seed_drawing(0, edge + 5, 3, 1)
        assert block(seed, edge, edge + 40)[5] == 724.0 + 700.0
        assert block(seed, edge - 20, edge + 20)[25] == 724.0 + 700.0
        assert block(seed, 0, 40)[5] == 724.0  # the 1e-300 hop makes one attempt
        block(seed, edge - 40, edge)
        # the last trial before the edge, on the listed path
        seed = _seed_drawing(0, edge - 1, 3, 1)
        assert block(seed, edge - 40, edge)[-1] == 724.0 + 700.0

    def test_either_side_of_the_cutoff(self):
        listed = (_INVERTED >> 11) * 2.0 ** -53 / (1 + 2.0 ** -20)
        while _candidate_cap(listed) >= _INVERTED:
            listed = math.nextafter(listed, 0.0)
        hashed = math.nextafter(listed, 1.0)
        assert _candidate_cap(listed) == _INVERTED - 1 < _candidate_cap(hashed)
        for p in (listed, hashed):
            chain = ArqChain([p, 0.3], [700, 11])
            for x in (0, _INVERTED - 1, _candidate_cap(p), _candidate_cap(p) + 1):
                for trial in (3, _BLOCK + 2):
                    seed = _seed_drawing(x, trial, 2, 0)
                    start, stop = _block_of(trial, 2 * _BLOCK)
                    got = _latency_kernel(chain, seed, _BLOCK)(start, stop)
                    ref = _ref_trial_latencies(chain, seed, start, stop)
                    assert got.tobytes() == ref.tobytes()
                    _assert_matches_reference(simulate_latency(chain, 2 * _BLOCK, seed),
                                              chain, 2 * _BLOCK, seed)

    def test_listed_candidates_need_memory_of_the_table_alone(self):
        # the lists take no trial count: a block near trial 2**60 costs no more
        chain = ArqChain([1e-300, 1e-20, 0.0], [13, 700, 11])
        workspace = arq._Workspace(64)
        tracemalloc.start()
        try:
            _latency_kernel(chain, 1, 64, workspace)(2 ** 60, 2 ** 60 + 64)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * _INVERTED


class TestCandidateCache:
    """The cached inverted candidate lists equal the lists made afresh."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 64 - 1), n=st.sampled_from([1, 2, 3, 7]),
           data=st.data())
    def test_cached_lists_equal_fresh_ones(self, seed, n, data):
        hop = data.draw(st.integers(0, n - 1))
        cap = data.draw(st.sampled_from([2047, _INVERTED - 1]))
        key = _splitmix64((seed + _GOLDEN) & _MASK64)
        counters = (_UNMIXED - np.uint64(key)) * np.uint64(arq._GOLDEN_INV)
        fresh = arq._listed_candidates(counters, cap, hop, n)
        cached = arq._inverted_candidates(key, n, hop, cap)
        assert arq._inverted_candidates(key, n, hop, cap) is cached
        for got, want in zip(cached, fresh):
            assert got.dtype == want.dtype and np.array_equal(got, want)
            assert not got.flags.writeable
        trials, hashes = cached
        assert np.all(trials[1:] > trials[:-1]) and np.all(hashes <= np.uint64(cap))
        for i, x in list(zip(trials.tolist(), hashes.tolist()))[:50]:
            assert _splitmix64((key + (i * n + hop + 1) * _GOLDEN) & _MASK64) == x

    def test_only_two_caps_lie_below_the_cutoff(self):
        # cap = (j << 11) | 2047, so the cache sees at most two caps per hop
        probs = [5e-324, 1e-300, 1e-20, 1.1e-16, 2e-16]
        assert {_candidate_cap(p) for p in probs} == {2047, _INVERTED - 1}

    def test_cache_stays_bounded(self):
        limit = arq._inverted_candidates.cache_info().maxsize
        for seed in range(limit + 10):
            simulate_latency(ArqChain([1e-300, 1e-20], [5, 7]), 10, seed)
        assert arq._inverted_candidates.cache_info().currsize == limit


class TestLatencyVariance:
    def test_closed_form_single_hop(self):
        # K geometric with success 1/2: Var(Q K) = Q^2 P / (1 - P)^2 = 200
        assert latency_variance(ArqChain([0.5], [10])) == 200.0
        assert latency_variance(ArqChain([0.0, 0.0], [5, 7])) == 0.0
        series = sum((10.0 * k) ** 2 * 0.5 ** k for k in range(1, 400)) - 20.0 ** 2
        assert latency_variance(ArqChain([0.5], [10])) == pytest.approx(series, rel=1e-12)

    def test_sums_over_hops(self):
        chain = ArqChain([0.3, 0.0, 0.9], [50, 70, 2 ** 40])
        assert latency_variance(chain) == pytest.approx(
            50 ** 2 * 0.3 / 0.7 ** 2 + 2 ** 80 * 0.9 / 0.1 ** 2, rel=1e-12)

    def test_monte_carlo_z_scores_on_random_chains(self):
        rng = np.random.default_rng(33)
        for _ in range(20):
            chain = random_chain(rng, max_hops=5)
            trials = 100_000
            est = simulate_latency(chain, trials, int(rng.integers(0, 2 ** 63)))
            sigma = math.sqrt(latency_variance(chain) / trials)
            assert abs(est.mc_mean - est.analytic) <= 5 * sigma
            assert 0.8 * sigma <= est.mc_stderr <= 1.25 * sigma

    def test_fig4_rows_without_a_retransmission(self):
        # a row whose sample stderr is 0 still has a z-score on the analytic scale
        single = [HopChannel.awgn(cli._snr_db_to_linear(db)) for db in cli.REPRODUCE_SINGLE_SNR_DB]
        two = [HopChannel.awgn(cli._snr_db_to_linear(db)) for db in cli.REPRODUCE_TWO_SNR_DB]
        chains = [*cli._sweep_rows(single, [cli.Method.MANUAL], lambda ev: ev.chains[0])[0],
                  *cli._sweep_rows(two, [cli.Method.RELIABILITY_OPTIMAL_RC],
                                   lambda ev: ev.chains[0])[0]]
        trials, seed = cli.REPRODUCE_MC_TRIALS, cli.REPRODUCE_MC_SEED
        silent = 0
        for chain in chains:
            est = simulate_latency(chain, trials, seed)
            if est.mc_stderr:
                continue
            silent += 1
            sigma = math.sqrt(latency_variance(chain) / trials)
            assert sigma > 0.0
            assert abs(est.mc_mean - est.analytic) <= 5 * sigma
            # no retransmission in any trial is likely: fewer than 5 expected
            assert trials * sum(chain.self_loop_probs) < 5
        assert silent == 132
