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
from hopbound.arq import (_BLOCK, _GOLDEN, _MASK64, _MIX1, _MIX2, _SPARSE_PE, PE_CLAMP, ArqChain,
                          LatencyError, _candidate_cap, _latency_kernel, _moments, _splitmix64,
                          expected_latency, latency_variance, simulate_latencies,
                          simulate_latency)
from hopbound.channel import HopChannel, capacity, snr_db_to_linear
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

    def test_rejects_lengths_that_differ(self):
        with pytest.raises(ValueError, match="self_loop_probs and costs lengths differ"):
            ArqChain([0.1], [1, 2])

    @pytest.mark.parametrize("cost", [-5, 0, 2.5, 5.0, math.nan, math.inf, True, "7", None])
    def test_rejects_cost_that_is_not_an_integer_of_at_least_one(self, cost):
        with pytest.raises(LatencyError) as err:
            ArqChain([0.1, 0.2], [10, cost])
        assert err.value.hop == 1

    @pytest.mark.parametrize("reader", [
        expected_latency, latency_variance, lambda chain: simulate_latency(chain, 10, 1)],
        ids=["expected_latency", "latency_variance", "simulate_latency"])
    @pytest.mark.parametrize("cost", [2 ** 53 + 1, 10 ** 200, 10 ** 400],
                             ids=["2**53+1", "10**200", "10**400"])
    def test_rejects_a_cost_above_2_53_before_any_reader(self, reader, cost):
        # past the doubles the readers overflow or warn; 2**53 is total_q's cap
        with pytest.raises(LatencyError) as err:
            reader(ArqChain([0.5, 0.5], [10, cost]))
        assert err.value.hop == 1

    def test_a_cost_of_2_53_runs(self):
        chain = ArqChain([0.5], [2 ** 53])
        est = simulate_latency(chain, 10, 1)
        assert est.analytic == expected_latency(chain) == 2.0 ** 54
        assert math.isfinite(est.mc_mean) and latency_variance(chain) == 2.0 ** 107

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
        (None, 8, None), ("", 8, None), ("junk", 8, None), ("3", 8, 3), ("8", 8, 8),
        ("100000", 8, 100_000), ("100000", 2, 2), ("4", None, 4)])
    def test_every_block_runs_on_the_calling_thread(self, monkeypatch, raw, cpus, workers):
        # a 4-block call stays on the calling thread: each thread takes at least 4
        # blocks; neither the former HOPBOUND_THREADS variable, the CPU count nor
        # `workers` starts a thread or changes the result
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

    @pytest.mark.parametrize("trials", [True, False, 2.5, 3.0, "3", None])
    def test_rejects_trials_that_is_not_an_integer(self, trials):
        chain = ArqChain([0.1], [10])
        for run in (lambda: simulate_latency(chain, trials, 1),
                    lambda: simulate_latencies([chain], trials, 1)):
            with pytest.raises(ValueError, match="trials must be an integer >= 1"):
                run()
        assert simulate_latency(chain, np.int64(3), 1).trials == 3

    @pytest.mark.parametrize("workers", [0, -3, True, False, 2.5, 2.0, "2"])
    def test_rejects_workers_that_is_not_an_integer_of_at_least_one(self, workers):
        chain = ArqChain([0.1], [10])
        for run in (lambda: simulate_latency(chain, 10, 1, workers=workers),
                    lambda: simulate_latencies([chain], 10, 1, workers=workers)):
            with pytest.raises(ValueError, match="workers must be None or an integer >= 1"):
                run()
        assert (simulate_latency(chain, 10, 1, workers=np.int64(2))
                == simulate_latency(chain, 10, 1, workers=None))

    @pytest.mark.parametrize("seed", [True, 0.5, 1.0, "1", None])
    def test_rejects_a_seed_that_is_not_an_integer(self, seed):
        # a float seed once raised TypeError from the hash's `&`
        chain = ArqChain([0.1], [10])
        for run in (lambda: simulate_latency(chain, 10, seed),
                    lambda: simulate_latencies([chain], 10, seed)):
            with pytest.raises(ValueError, match="seed must be an integer"):
                run()
        assert simulate_latency(chain, 10, np.int64(3)).seed == 3


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


def _table_kernels(chains, seed, size, moments=False):
    """The kernels of one `simulate_latencies` call over the table, on a new
    workspace of `size` entries; with `moments`, its moment kernels."""
    streams = arq._HashStreams(_splitmix64((seed + _GOLDEN) & _MASK64), len(chains[0].costs),
                               size, arq._Workspace(size), chains)
    return [_latency_kernel(chain, streams, moments) for chain in chains]


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
        got = _table_kernels([chain], seed, m + spare)[0](start, start + m)
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


def _estimates(chains, trials, seed, workers):
    """(mean, stderr) of each chain's estimate in one table call, by .hex()."""
    return [(est.mc_mean.hex(), est.mc_stderr.hex())
            for est in simulate_latencies(chains, trials, seed, workers=workers)]


def _blocks_plus_partial(least, most):
    """Trial counts of `least` to `most` whole blocks and a partial one."""
    return st.tuples(st.integers(least, most), st.integers(1, _BLOCK - 1)).map(
        lambda bp: bp[0] * _BLOCK + bp[1])


def _table(n):
    """Up to three chains of n hops, each from `_chains`' hop draws."""
    hop = st.tuples(_probabilities, st.integers(1, 2000))
    chain = st.lists(hop, min_size=n, max_size=n).map(
        lambda hops: ArqChain([p for p, _ in hops], [q for _, q in hops]))
    return st.lists(chain, min_size=2, max_size=3)


@pytest.fixture
def four_cpus(monkeypatch):
    """Four usable CPUs, so that every worker count up to the cap starts its threads."""
    monkeypatch.setattr(arq, "_usable_cpus", lambda: 4)


@pytest.fixture
def kernel_threads(monkeypatch):
    """(block start, thread that ran it) of every kernel built, in call order
    (thread objects: an ended thread's ident can be reused)."""
    threads = []
    make_kernel = arq._latency_kernel

    def recording_kernel(*args):
        kernel = make_kernel(*args)

        def run(start, stop):
            threads.append((start, threading.current_thread()))
            return kernel(start, stop)
        return run

    monkeypatch.setattr(arq, "_latency_kernel", recording_kernel)
    return threads


class TestWorkerThreads:
    """Blocks run on up to four threads, whole runs of at least four blocks
    each, and every estimate is the one-thread estimate bit for bit."""

    WORKERS = (1, 2, 3, 4, None)

    @settings(max_examples=8, deadline=None)
    @given(chain=_chains.filter(lambda c: PE_CLAMP in c.self_loop_probs) | _chains,
           seed=_seeds, trials=_blocks_plus_partial(8, 17))
    def test_any_worker_count_gives_the_same_bits(self, chain, seed, trials):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(arq, "_usable_cpus", lambda: 4)
            got = {w: _estimates([chain], trials, seed, w) for w in self.WORKERS}
        assert all(got[w] == got[1] for w in self.WORKERS), got
        _assert_matches_reference(simulate_latency(chain, trials, seed), chain, trials, seed)

    @settings(max_examples=6, deadline=None)
    @given(chains=st.integers(1, 4).flatmap(_table), seed=_seeds,
           trials=_blocks_plus_partial(8, 17))
    def test_any_worker_count_gives_a_tables_bits(self, chains, seed, trials):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(arq, "_usable_cpus", lambda: 4)
            got = {w: _estimates(chains, trials, seed, w) for w in self.WORKERS}
        assert all(got[w] == got[1] for w in self.WORKERS), got
        assert got[1] == [_estimates([chain], trials, seed, 1)[0] for chain in chains]
        for chain in chains:
            _assert_matches_reference(simulate_latency(chain, trials, seed), chain, trials, seed)

    def test_sums_past_2_53_in_every_run(self, four_cpus):
        # each block's sum passes 2**53, so a merge out of block order moves the digits
        chain = ArqChain([PE_CLAMP, 1e-6, 0.3], [2000, 7, 3])
        trials = 16 * _BLOCK + 5
        got = {w: _estimates([chain], trials, 4, w) for w in self.WORKERS}
        assert all(got[w] == got[1] for w in self.WORKERS)
        _assert_matches_reference(simulate_latency(chain, trials, 4), chain, trials, 4)

    @pytest.mark.parametrize("failing_block", [0, 3, 4, 9, 16])
    def test_a_kernels_exception_reaches_the_caller(self, monkeypatch, four_cpus,
                                                    failing_block):
        # blocks 0-3 run on the calling thread, 4-7, 8-11 and 12-16 on three others
        raised = []
        make_kernel = arq._latency_kernel

        def failing_kernel(*args):
            kernel = make_kernel(*args)

            def run(start, stop):
                if start == failing_block * _BLOCK:
                    raised.append(RuntimeError(f"block {failing_block}"))
                    raise raised[-1]
                return kernel(start, stop)
            return run

        monkeypatch.setattr(arq, "_latency_kernel", failing_kernel)
        threads_before = threading.active_count()
        with pytest.raises(RuntimeError, match=f"block {failing_block}") as info:
            simulate_latency(_mixed_chain(5), 16 * _BLOCK + 7, 3, workers=4)
        assert len(raised) == 1 and info.value is raised[0]
        assert threading.active_count() == threads_before

    @pytest.mark.parametrize("blocks", [1, 7, 8, 11, 12, 16, 17, 40])
    def test_at_most_four_workers_of_four_blocks_each(self, monkeypatch, kernel_threads,
                                                      blocks):
        trials = blocks * _BLOCK
        serial = simulate_latency(_mixed_chain(3), trials, 5, workers=1)
        monkeypatch.setattr(arq, "_usable_cpus", lambda: 10 ** 6)
        built = []

        class CountedThread(threading.Thread):
            def __init__(self, *args, **kwargs):
                built.append(self)
                if len(built) > 4:
                    raise RuntimeError("a fifth thread")
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(threading, "Thread", CountedThread)
        for workers in (None, 10 ** 6):
            kernel_threads.clear()
            built.clear()
            assert simulate_latency(_mixed_chain(3), trials, 5, workers=workers) == serial
            expected = min(4, blocks // 4) or 1
            threads = [thread for _, thread in sorted(kernel_threads, key=lambda b: b[0])]
            assert len(set(threads)) == expected
            assert len(built) == expected - 1
            assert threads[0] is threading.current_thread()

    def test_rounds_of_blocks_keep_the_bits(self, monkeypatch, kernel_threads):
        # rounds of 8 blocks: 8, 8 and 1, on 2, 2 and 1 threads of runs of 4
        chain = ArqChain([0.3, PE_CLAMP, 0.1], [50, 70, 90])
        serial = simulate_latency(chain, 16 * _BLOCK + 3, 2, workers=1)
        kernel_threads.clear()
        monkeypatch.setattr(arq, "_usable_cpus", lambda: 4)
        monkeypatch.setattr(arq, "_ROUND", 8)
        assert simulate_latency(chain, 16 * _BLOCK + 3, 2) == serial
        me = threading.current_thread()
        threads = [thread for _, thread in sorted(kernel_threads, key=lambda b: b[0])]
        rounds = [threads[:8], threads[8:16], threads[16:]]
        assert [len(set(r)) for r in rounds] == [2, 2, 1]
        assert [r.count(me) for r in rounds] == [4, 4, 1]

    def test_each_sparse_pe_capped_once_for_every_thread(self, monkeypatch, four_cpus,
                                                         kernel_threads):
        calls = []
        cap = arq._candidate_cap
        monkeypatch.setattr(arq, "_candidate_cap", lambda p: calls.append(p) or cap(p))
        chains = [ArqChain([0.01, 1e-20, 0.6], [5, 7, 9]), ArqChain([1e-20, 0.01, 0.0], [5, 7, 9])]
        simulate_latencies(chains, 16 * _BLOCK, 3)
        assert len({thread for _, thread in kernel_threads}) == 4
        assert sorted(calls) == [1e-20, 0.01]

    def test_concurrent_parallel_calls_get_the_sequential_results(self, four_cpus):
        # three callers of four threads each on two cores, with frequent switches:
        # a workspace or ramp shared by two calls would mix their blocks
        calls = [([_mixed_chain(n)], 16 * _BLOCK + 5, n) for n in (1, 5)]
        calls.append((_table_chains(3, 2), 16 * _BLOCK + 5, 9))
        expected = [_estimates(*call, 1) for call in calls]
        barrier = threading.Barrier(len(calls), timeout=60)
        results = {}

        def run(i):
            barrier.wait()
            results[i] = _estimates(*calls[i], None)

        threads = [threading.Thread(target=run, args=(i,)) for i in range(len(calls))]
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
        assert [results.get(i) for i in range(len(calls))] == expected

    def test_default_worker_count_is_the_usable_cpus(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3, 5}, raising=False)
        assert arq._usable_cpus() == 3
        assert [arq._worker_count(None, b) for b in (7, 8, 12, 1000)] == [1, 2, 3, 3]
        assert [arq._worker_count(w, 1000) for w in (1, 2, 4, 10 ** 6)] == [1, 2, 3, 3]
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        for count, usable in ((6, 6), (None, 1)):
            monkeypatch.setattr(os, "cpu_count", lambda count=count: count)
            assert arq._usable_cpus() == usable
        assert arq._worker_count(None, 1000) == 1


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
        return Evaluation([Scenario(sum(blocks), hops, {"mode": "explicit", "rates_nats": rates},
                                    "manual", blocks)])[0].latency

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


def _unmix(x):
    """The inverse of `_splitmix64` on a 64-bit int: each multiplier is odd,
    so it has an inverse mod 2**64, and y = x ^ x >> s is undone by
    x = y ^ y >> s ^ y >> 2s ^ ... (Steele, Lea & Flood, 2014)."""
    x = x ^ (x >> 31) ^ (x >> 62)
    x = (x * pow(_MIX2, -1, 1 << 64)) & _MASK64
    x = x ^ (x >> 27) ^ (x >> 54)
    x = (x * pow(_MIX1, -1, 1 << 64)) & _MASK64
    return x ^ (x >> 30) ^ (x >> 60)


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

    def test_seed_construction_draws_the_chosen_hash(self):
        for x, trial, n, hop in [(0, 0, 1, 0), (2047, 12345, 3, 2), (4095, 2 ** 40, 16, 7)]:
            key = _splitmix64((_seed_drawing(x, trial, n, hop) + _GOLDEN) & _MASK64)
            assert _splitmix64((key + (trial * n + hop + 1) * _GOLDEN) & _MASK64) == x


class TestInvertedCandidates:
    """Retransmissions forced on chosen trials by seeds built with `_unmix`."""

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
        assert x <= _candidate_cap(p) < 4096
        chain = ArqChain([1e-300, p, 0.0], [13, 700, 11])
        seed = _seed_drawing(x, trial, 3, 1)
        start, stop = _block_of(trial, self.TRIALS)
        got = _table_kernels([chain], seed, _BLOCK)[0](start, stop)
        ref = _ref_trial_latencies(chain, seed, start, stop)
        assert got.tobytes() == ref.tobytes()
        assert got[trial - start] == (724.0 + 700.0 if stderr else 724.0)
        est = simulate_latency(chain, self.TRIALS, seed)
        assert (est.mc_mean, est.mc_stderr) == (mean, stderr)
        _assert_matches_reference(est, chain, self.TRIALS, seed)

    @pytest.mark.parametrize("cost,constant", [(2 ** 37 - 2, True), (2 ** 37 - 1, False),
                                               (2 ** 40, False)])
    def test_constant_block_only_while_its_sum_is_exact(self, monkeypatch, cost, constant):
        # 2**16 trials of latency S: the block's sum m S passes 2**53 at S = 2**37;
        # below it the block's moments are written down without `_moments`' passes
        chain = ArqChain([1e-300, 5e-324], [cost, 1])
        got = _table_kernels([chain], 9, _BLOCK)[0](0, _BLOCK)
        assert got.tobytes() == _ref_trial_latencies(chain, 9, 0, _BLOCK).tobytes()
        filled = _moments(np.array(got))
        reduced = []
        monkeypatch.setattr(arq, "_moments", lambda x: reduced.append(len(x)) or _moments(x))
        assert _table_kernels([chain], 9, _BLOCK, moments=True)[0](0, _BLOCK) == filled
        assert (not reduced) == constant
        _assert_matches_reference(simulate_latency(chain, _BLOCK, 9), chain, _BLOCK, 9)
        _assert_matches_reference(simulate_latency(chain, 2 * _BLOCK + 5, 9), chain,
                                  2 * _BLOCK + 5, 9)

    def test_blocks_whose_counters_wrap(self):
        # with N = 3, trial 2**64 // 3 is the first whose counters pass 2**64;
        # trial t = 2**64 // 3 + 5 on hop 1 has counter 16 mod 2**64, the same
        # as trial 5 on hop 0, so both draw the forced hash
        chain = ArqChain([1e-300, 1.1e-16, 0.0], [13, 700, 11])
        edge = 2 ** 64 // 3

        def block(seed, start, stop):
            got = _table_kernels([chain], seed, 64)[0](start, stop)
            assert got.tobytes() == _ref_trial_latencies(chain, seed, start, stop).tobytes()
            return got

        seed = _seed_drawing(0, edge + 5, 3, 1)
        assert block(seed, edge, edge + 40)[5] == 724.0 + 700.0
        assert block(seed, edge - 20, edge + 20)[25] == 724.0 + 700.0
        assert block(seed, 0, 40)[5] == 724.0  # the 1e-300 hop makes one attempt
        block(seed, edge - 40, edge)
        # the last trial before the edge
        seed = _seed_drawing(0, edge - 1, 3, 1)
        assert block(seed, edge - 40, edge)[-1] == 724.0 + 700.0

    def test_either_side_of_the_cutoff(self):
        # the three least caps; the last two P_e are adjacent floats, either side
        # of the step from 4095 to 6143
        probs = [1e-300, 2.2204439316699642e-16, 2.2204439316699644e-16]
        assert [_candidate_cap(p) for p in probs] == [2047, 4095, 6143]
        for p in probs:
            chain = ArqChain([p, 0.3], [700, 11])
            for x in (0, 4095, _candidate_cap(p), _candidate_cap(p) + 1):
                for trial in (3, _BLOCK + 2):
                    seed = _seed_drawing(x, trial, 2, 0)
                    start, stop = _block_of(trial, 2 * _BLOCK)
                    got = _table_kernels([chain], seed, _BLOCK)[0](start, stop)
                    ref = _ref_trial_latencies(chain, seed, start, stop)
                    assert got.tobytes() == ref.tobytes()
                    _assert_matches_reference(simulate_latency(chain, 2 * _BLOCK, seed),
                                              chain, 2 * _BLOCK, seed)

    def test_a_block_near_trial_2_to_60_needs_memory_of_the_block_alone(self):
        # no memory grows with the trial index: a block near trial 2**60 costs no more
        kernel, = _table_kernels([ArqChain([1e-300, 1e-20, 0.0], [13, 700, 11])], 1, 64)
        tracemalloc.start()
        try:
            kernel(2 ** 60, 2 ** 60 + 64)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 18

    @settings(max_examples=60, deadline=None)
    @given(n=st.sampled_from([1, 2, 3, 7]), start=st.integers(0, 2 ** 63),
           data=st.data())
    def test_streams_take_each_forced_candidate(self, n, start, data):
        # the two least caps share one hop; a block may start past the
        # trial whose counters wrap 2**64
        hop = data.draw(st.integers(0, n - 1))
        trial = start + data.draw(st.integers(0, 63))
        x = data.draw(st.sampled_from([0, 2047, 2048, 4095]))
        seed = _seed_drawing(x, trial, n, hop)
        key = _splitmix64((seed + _GOLDEN) & _MASK64)
        # P_e with caps 2047 and 4095 on the hop
        chains = [ArqChain([p if h == hop else 0.0 for h in range(n)], [5] * n)
                  for p in (1e-300, 2.2204439316699642e-16)]
        streams = arq._HashStreams(key, n, 64, arq._Workspace(64), chains)
        hashes = np.array([_splitmix64((key + ((start + i) * n + hop + 1) * _GOLDEN) & _MASK64)
                           for i in range(64)], dtype=np.uint64)
        assert hashes[trial - start] == x
        log_u = np.log(((hashes >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0 ** -53)
        for cap in (2047, 4095):
            idx, got = streams.candidates(start, start + 64, hop, cap)
            assert np.array_equal(np.sort(idx), np.flatnonzero(hashes <= np.uint64(cap)))
            assert (trial - start in idx) == (x <= cap)
            assert got.tobytes() == log_u[idx].tobytes()


# P_e of zero, subnormal, tiny, sparse, full-block and clamped
_TABLE_PE = [0.0, 5e-324, 1e-20, 0.01, 0.6, PE_CLAMP]


def _table_chains(k, n):
    """k chains of n hops whose P_e cycle through `_TABLE_PE`, offset per chain."""
    return [ArqChain([_TABLE_PE[(c + 2 * h) % 6] for h in range(n)],
                     [10 + 7 * h + c for h in range(n)]) for c in range(k)]


class TestLatencyTable:
    """One Monte Carlo call over a table of chains gives each chain's own
    `simulate_latency` bit for bit, hashing each block's hop once."""

    @pytest.mark.parametrize("trials", [1, _BLOCK - 1, _BLOCK + 1, 2 * _BLOCK + 7])
    @pytest.mark.parametrize("k", range(1, 7))
    def test_equals_per_chain_calls(self, k, trials):
        for n in (1, 3):
            chains = _table_chains(k, n)
            assert (simulate_latencies(chains, trials, 17)
                    == [simulate_latency(chain, trials, 17) for chain in chains])

    def test_tiny_pe_candidates_in_a_table(self):
        # trial 5 draws the raw hash 0 on hop 1, so each chain, with P_e 1e-16
        # there, takes it as a retransmission
        chains = [ArqChain([p, 1e-16], [13, 700]) for p in (0.3, 1e-20, 0.0, 0.01)]
        seed = _seed_drawing(0, 5, 2, 1)
        table = simulate_latencies(chains, 1000, seed)
        assert table == [simulate_latency(chain, 1000, seed) for chain in chains]
        assert all(est.mc_stderr > 0 for est in table)

    def test_each_block_and_hop_hashed_once(self, monkeypatch):
        calls = []
        hashes = arq._splitmix64_inplace
        monkeypatch.setattr(arq, "_splitmix64_inplace",
                            lambda x, scratch: calls.append(len(x)) or hashes(x, scratch))
        chains = [ArqChain([0.6, 0.01, 0.3], [5, 7, 9]), ArqChain([0.01, 0.3, 0.6], [5, 7, 9]),
                  ArqChain([0.3, 0.0, 0.01], [5, 7, 9])]
        simulate_latencies(chains, 2 * _BLOCK + 7, 3)
        assert calls == [_BLOCK] * 3 + [_BLOCK] * 3 + [7] * 3

    def test_each_sparse_pe_capped_once_per_call(self, monkeypatch):
        # the kernels read the streams' caps; zero and dense P_e take none
        calls = []
        cap = arq._candidate_cap
        monkeypatch.setattr(arq, "_candidate_cap", lambda p: calls.append(p) or cap(p))
        chains = [ArqChain([0.01, 1e-20, 0.6], [5, 7, 9]), ArqChain([1e-20, 0.01, 0.0], [5, 7, 9]),
                  ArqChain([0.01, 0.2, 1e-20], [5, 7, 9])]
        table = simulate_latencies(chains, 2 * _BLOCK + 7, 3)
        assert sorted(calls) == [1e-20, 0.01, 0.2]
        calls.clear()
        assert simulate_latency(chains[0], 2 * _BLOCK + 7, 3) == table[0]
        assert sorted(calls) == [1e-20, 0.01]

    def test_chains_of_unequal_length_rejected(self):
        with pytest.raises(ValueError, match="one hop count"):
            simulate_latencies([ArqChain([0.1], [5]), ArqChain([0.1, 0.2], [5, 7])], 10, 1)

    def test_empty_table(self):
        assert simulate_latencies([], 10, 1) == []

    def test_stream_buffers_only_with_more_than_one_chain(self):
        # a stream buffer holds _BLOCK 8-byte words; the thread's workspace is
        # built before tracing starts
        simulate_latency(ArqChain([0.6], [5]), 10, 1)
        buffer = 8 * _BLOCK
        peaks = {}
        for k in (1, 2, 5):  # chains whose two hops both hash
            chains = [ArqChain([(0.6, 0.01, 0.3)[(c + h) % 3] for h in range(2)], [5, 7])
                      for c in range(k)]
            tracemalloc.start()
            try:
                simulate_latencies(chains, _BLOCK, 3)
                peaks[k] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[1] < buffer
        # one buffer per hop position, whatever the chain count; the first
        # position's stream takes the workspace's own
        assert buffer <= peaks[2] < 2 * buffer
        assert buffer <= peaks[5] < 2 * buffer


def _assert_reference_moments(got, chain, seed, start, stop):
    """A block's (n, sum, M2) equals `_moments` of its full-array latencies by .hex()."""
    n, total, m2 = _moments(_ref_trial_latencies(chain, seed, start, stop))
    assert (got[0], got[1].hex(), got[2].hex()) == (n, total.hex(), m2.hex())


# every kind of hop: error-free, tiny, sparse, either side of
# the candidate cutoff, dense and clamped
_EXACT_PE = [0.0, 5e-324, 1e-20, 1e-6, 0.01, math.nextafter(_SPARSE_PE, 0.0), _SPARSE_PE,
             math.nextafter(_SPARSE_PE, 1.0), 0.6, PE_CLAMP]


class TestExactIntegerBlocks:
    """A chain without a dense hop reduces a block whose sums stay below
    2**53 from S = sum Q_n in at most two passes; its (n, sum, M2) equal the
    full-array reference's bit for bit on both sides of the guard."""

    @pytest.mark.parametrize("p", _EXACT_PE)
    @pytest.mark.parametrize("start,stop", [(0, _BLOCK), (5 * _BLOCK, 5 * _BLOCK + 777)])
    def test_each_kind_of_hop(self, p, start, stop):
        for chain in (ArqChain([p], [1000]), ArqChain([p, 1e-6, 0.0, 0.01], [13, 700, 11, 2])):
            got = _table_kernels([chain], 21, _BLOCK, moments=True)[0](start, stop)
            _assert_reference_moments(got, chain, 21, start, stop)

    def test_a_trial_that_retransmits_on_two_hops(self):
        # Q = (1, 1000): a latency below 1000 k is k - 1 retransmissions on hop 1 and
        # the rest on hop 0, as a hop of P_e < 0.25 makes fewer than 1000 attempts
        chain = ArqChain([0.2, 0.01], [1, 1000])
        latencies = _ref_trial_latencies(chain, 4, 0, _BLOCK)
        both = latencies[(latencies > 2000) & (latencies % 1000 > 1)]
        assert len(both)
        for chains in ([chain], [chain, ArqChain([0.01, 0.2], [1, 1000])]):
            kernel = _table_kernels(chains, 4, _BLOCK, moments=True)[0]
            _assert_reference_moments(kernel(0, _BLOCK), chain, 4, 0, _BLOCK)

    def test_more_candidates_than_trials(self):
        # six hops at P_e 0.24 have more candidates than the block has trials, and
        # many trials are candidates on several hops
        chain = ArqChain([0.24] * 6, [1, 2, 3, 4, 5, 6])
        streams = arq._HashStreams(_splitmix64((2 + _GOLDEN) & _MASK64), 6, _BLOCK,
                                   arq._Workspace(), [chain])
        assert sum(len(streams.candidates(0, _BLOCK, hop, _candidate_cap(0.24))[0])
                   for hop in range(6)) > _BLOCK
        got = _table_kernels([chain], 2, _BLOCK, moments=True)[0](0, _BLOCK)
        _assert_reference_moments(got, chain, 2, 0, _BLOCK)
        latencies = _table_kernels([chain], 2, _BLOCK)[0](0, _BLOCK)
        assert latencies.tobytes() == _ref_trial_latencies(chain, 2, 0, _BLOCK).tobytes()

    def test_each_cap_takes_exactly_its_candidates(self):
        # a table's chains share one hop's candidates, each chain a prefix: the
        # trials whose hash is at most its cap, with their ln u
        probs = [1e-3, 0.01, 0.05, 0.2, 0.24, 0.6]
        chains = [ArqChain([p, 0.3], [5, 7]) for p in probs]
        key = _splitmix64((23 + _GOLDEN) & _MASK64)
        streams = arq._HashStreams(key, 2, _BLOCK, arq._Workspace(), chains)
        hashes = np.array([_splitmix64((key + (i * 2 + 1) * _GOLDEN) & _MASK64)
                           for i in range(_BLOCK)], dtype=np.uint64)
        log_u = np.log(((hashes >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0 ** -53)
        for p in probs[:-1]:
            idx, got = streams.candidates(0, _BLOCK, 0, _candidate_cap(p))
            want = np.flatnonzero(hashes <= np.uint64(_candidate_cap(p)))
            assert np.array_equal(np.sort(idx), want)
            assert got.tobytes() == log_u[idx].tobytes()
        assert streams.log_uniforms(0, _BLOCK, 0).tobytes() == log_u.tobytes()

    @pytest.mark.parametrize("p", [0.2, 0.6])
    def test_either_side_of_the_guard(self, monkeypatch, p):
        # the guard is m S + E < 2**53, with E the hop's extra channel uses; the
        # exact block adds the extra uses alone (first = 0), the hop-order path
        # whole costs, as a chain with a dense hop does on either side
        retransmissions = (_ref_trial_latencies(ArqChain([p], [1]), 8, 0, _BLOCK) - 1).sum()
        limit = (2 ** 53 - 1) // (_BLOCK + int(retransmissions))
        firsts = []
        costs = arq._attempt_costs
        monkeypatch.setattr(arq, "_attempt_costs",
                            lambda *args: firsts.append(args[-1]) or costs(*args))
        for q, exact in ((limit, p < _SPARSE_PE), (limit + 1, False)):
            firsts.clear()
            chain = ArqChain([p], [q])
            got = _table_kernels([chain], 8, _BLOCK, moments=True)[0](0, _BLOCK)
            _assert_reference_moments(got, chain, 8, 0, _BLOCK)
            assert firsts and (1.0 not in firsts) == exact
            latencies = _table_kernels([chain], 8, _BLOCK)[0](0, _BLOCK)
            assert latencies.tobytes() == _ref_trial_latencies(chain, 8, 0, _BLOCK).tobytes()

    @pytest.mark.parametrize("n", [1, 3])
    def test_tables_that_mix_every_kind_of_chain(self, n):
        # dense (first, so its ln u is asked for before any candidates), tiny-P_e-only,
        # sparse-only (several caps on one hop), clamped and past-the-guard chains,
        # each block's moments in the table's call order
        kinds = [[0.6, 1e-6, 0.0], [1e-20, 0.0, 5e-324], [0.01, 0.2, 1e-6], [0.2, 0.01, 0.24],
                 [0.0, 0.9, 0.01], [PE_CLAMP, 0.01, 1e-20], [1e-6, 1e-3, 0.1]]
        chains = [ArqChain(probs[:n], [10 + 7 * h + c for h in range(n)])
                  for c, probs in enumerate(kinds)]
        chains.append(ArqChain(kinds[2][:n], [2 ** 40] * n))
        trials = 2 * _BLOCK + 7
        kernels = _table_kernels(chains, 17, _BLOCK, moments=True)
        for start in range(0, trials, _BLOCK):
            stop = min(start + _BLOCK, trials)
            for chain, kernel in zip(chains, kernels):
                _assert_reference_moments(kernel(start, stop), chain, 17, start, stop)
        assert (simulate_latencies(chains, trials, 17)
                == [simulate_latency(chain, trials, 17) for chain in chains])


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
        single = [HopChannel.awgn(snr_db_to_linear(db)) for db in cli.REPRODUCE_SINGLE_SNR_DB]
        two = [HopChannel.awgn(snr_db_to_linear(db)) for db in cli.REPRODUCE_TWO_SNR_DB]
        chains = [*cli._sweep_rows(single, [cli.Method.MANUAL], lambda row: row.chains[0])[0],
                  *cli._sweep_rows(two, [cli.Method.RELIABILITY_OPTIMAL_RC],
                                   lambda row: row.chains[0])[0]]
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
