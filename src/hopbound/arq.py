"""Expected end-to-end latency under per-hop stop-and-wait ARQ.

The chain is a Markov chain with one transient state per hop and an
absorbing terminal state; each attempt on hop n costs Q_n channel uses
and fails with a constant probability P_e,n, so attempt counts are
geometric and the expected latency is sum Q_n / (1 - P_e,n).

The (RC, SP) chains of an allocation take their P_e,n from its
`SystemBounds`, clamped below 1 in `arq_chains` alone.

`simulate_latency` checks the closed form by Monte Carlo.  It streams the
trials through fixed blocks of `_BLOCK`, each reduced to its moments, which
merge in block order on the calling thread, so its memory is O(`_BLOCK`),
not O(trials).  A call of at least eight blocks splits them into contiguous
runs of at least four, one per thread, up to the usable CPUs and
`_MAX_WORKERS`; the calling thread runs the first on the workspace it keeps
between its calls, each other thread a lean one of its own.  Each block's
moments are the same on any thread, so every estimate is the same for any
worker count.  Attempt costs are integers, so while a block's sums stay
below 2**53 they are exact in any order: only trials that can retransmit add
to S = sum Q_n.  `simulate_latencies` runs a table of chains of one hop count
in one pass: a trial's hashes do not depend on P_e or Q, so each block's
hashes, candidates and ln u on a hop are made once for every chain;
`simulate_latency` is its one-chain case.  `latency_variance` is the exact
variance.
"""

from __future__ import annotations

import math
import numbers
import os
import threading
from dataclasses import dataclass
from functools import cache, reduce

import numpy as np

from .system import SystemBounds

__all__ = [
    "LatencyError",
    "ArqChain",
    "LatencyEstimate",
    "expected_latency",
    "latency_variance",
    "simulate_latency",
    "simulate_latencies",
    "arq_chains",
    "latency_bounds",
]

# per-hop error probabilities are kept strictly below 1 by this margin
PE_CLAMP = 1.0 - 1e-12


class LatencyError(ValueError):
    """Infinite or undefined expected latency (some P_e >= 1)."""

    def __init__(self, message: str, hop: int | None = None):
        super().__init__(message)
        self.hop = hop


@dataclass(frozen=True)
class ArqChain:
    self_loop_probs: list[float]  # P_e,n, failure probability per attempt
    costs: list[int]  # Q_n channel uses per attempt

    def __post_init__(self):
        if len(self.self_loop_probs) != len(self.costs):
            raise ValueError("self_loop_probs and costs lengths differ")
        for i, p in enumerate(self.self_loop_probs):
            if not 0.0 <= p < 1.0:
                raise LatencyError(f"P_e on hop {i} must be in [0, 1), got {p}", hop=i)
        for i, q in enumerate(self.costs):
            # the cap of total_q: every reader turns a cost into a double
            if isinstance(q, bool) or not isinstance(q, numbers.Integral) or not 1 <= q <= 2 ** 53:
                raise LatencyError(f"cost on hop {i} must be an integer in [1, 2**53], got {q!r}",
                                   hop=i)


@dataclass(frozen=True)
class LatencyEstimate:
    analytic: float  # channel uses
    mc_mean: float
    mc_stderr: float
    trials: int
    seed: int


def expected_latency(chain: ArqChain) -> float:
    """Closed-form expected latency sum Q_n / (1 - P_e,n)."""
    closed = 0.0
    for q, p in zip(chain.costs, chain.self_loop_probs):
        closed += q / (1.0 - p)
    return closed


def latency_variance(chain: ArqChain) -> float:
    """Closed-form latency variance sum Q_n^2 P_e,n / (1 - P_e,n)^2.

    Hop n's attempt count is geometric with variance P_e,n / (1 - P_e,n)^2,
    and the hops' counts are independent, so this is exact.
    """
    var = 0.0
    for q, p in zip(chain.costs, chain.self_loop_probs):
        var += int(q) ** 2 * p / ((1.0 - p) * (1.0 - p))
    return var


# Trials per block.  A kernel's buffers of this many 8-byte words (at
# most 2.5 MiB) and its byte mask stay in cache; blocks start at multiples
# of this from trial 0, so the block order and each block's sums are fixed.
_BLOCK = 1 << 16
# Hops with 0 < P_e below this take the log only for their candidate
# trials; at or above it, where most trials are candidates, gathering them
# costs more than the log it saves.
_SPARSE_PE = 0.25
# At most this many threads run a call's blocks, each a run of at least
# _MIN_RUN whole blocks: on shorter runs two threads ran slower than one.
_MAX_WORKERS = 4
_MIN_RUN = 4
# Blocks split among the threads at a time: the calling thread holds one
# round's block moments until it merges them, never more.
_ROUND = 1024
_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def _splitmix64(x: int) -> int:
    """splitmix64's output function on a 64-bit Python int."""
    x = ((x ^ (x >> 30)) * _MIX1) & _MASK64
    x = ((x ^ (x >> 27)) * _MIX2) & _MASK64
    return x ^ (x >> 31)


def _splitmix64_inplace(x: np.ndarray, scratch: np.ndarray) -> None:
    """`_splitmix64` on a uint64 array in place; uint64 arrays wrap silently."""
    np.right_shift(x, np.uint64(30), out=scratch)
    x ^= scratch
    x *= np.uint64(_MIX1)
    np.right_shift(x, np.uint64(27), out=scratch)
    x ^= scratch
    x *= np.uint64(_MIX2)
    np.right_shift(x, np.uint64(31), out=scratch)
    x ^= scratch


@cache
def _counter() -> np.ndarray:
    """The trial counters 0, ..., `_BLOCK` - 1, read-only and shared by every thread."""
    counter = np.arange(_BLOCK, dtype=np.uint64)
    counter.flags.writeable = False
    return counter


class _Workspace:
    """One kernel's buffers of `size` entries: two hash buffers, the
    latencies and the candidate mask, and unless lean, the counters'
    hop-count ramp and a table's attempt costs.  A worker thread's lean
    workspace reads its caller's ramp, and takes the attempt costs' buffer
    only for a table: one chain's costs go over its spent hashes."""

    def __init__(self, size: int = _BLOCK, lean: bool = False, table: bool = False):
        self.bits, self.scratch = np.empty(size, np.uint64), np.empty(size, np.uint64)
        self.totals, self.marks = np.empty(size), np.empty(size, bool)
        if not lean:
            self.ramp = np.empty(size, np.uint64)
        if table or not lean:
            self.uniforms = np.empty(size)


# Each calling thread's workspace, kept between its calls as `.workspace`.
_per_thread = threading.local()


def _candidate_cap(p: float) -> int:
    """The largest raw splitmix64 hash x whose 53-bit draw j = x >> 11 is at
    most floor(p (1 + 2**-20) 2**53), computed exactly from p's ratio."""
    num, den = float(p).as_integer_ratio()
    j_max = num * (2 ** 20 + 1) * 2 ** 33 // den
    return (j_max << 11) | 2047


def _log_uniforms(x: np.ndarray, out: np.ndarray, shifted: np.ndarray) -> np.ndarray:
    """out = ln u, u = ((x >> 11) + 1/2) 2**-53, from the raw hashes x, read
    once and shifted into `shifted` (x itself where x may be clobbered)."""
    np.right_shift(x, np.uint64(11), out=shifted)
    np.copyto(out, shifted)
    out += 0.5
    out *= 2.0 ** -53
    return np.log(out, out=out)


def _attempt_costs(log_u: np.ndarray, out: np.ndarray, q: int, log_p: float,
                   first: float) -> np.ndarray:
    """out = q (first + floor(ln u / ln p)): the attempt costs with first = 1,
    the channel uses past the first attempt with first = 0."""
    np.divide(log_u, log_p, out=out)
    np.floor(out, out=out)
    out += first
    out *= q
    return out


class _HashStreams:
    """A block of trials' hashes on one hop for the kernels of one call over
    `chains` (n hops, one seed), which read a hop's candidates or every
    trial's ln u.  One chain's streams go to the workspace's `bits`, hashed
    as its hops read them.  More chains share each (block, hop)'s hashes, in
    one buffer per hop position (`bits` the first), the candidates of the
    table's largest cap there with their ln u, and every trial's ln u,
    written over the hashes once the candidates are taken.  `cap_of` maps
    each sparse P_e (0 < P_e < `_SPARSE_PE`) of the chains to its cap.  A
    worker thread's streams on a lean workspace take the caps and the
    counters' ramp, j N GOLDEN for trial start + j, from its caller's,
    `parent`."""

    def __init__(self, key: int, n: int, size: int, ws: _Workspace, chains: list[ArqChain],
                 parent: _HashStreams | None = None):
        self.key, self.n, self.size, self.ws, self.shared = key, n, size, ws, len(chains) > 1
        probs = [chain.self_loop_probs for chain in chains]
        if parent is None:
            self.cap_of = {p: _candidate_cap(p) for p in set().union(*probs)
                           if 0.0 < p < _SPARSE_PE}
            self.ramp = np.multiply(_counter()[:size], np.uint64(n * _GOLDEN & _MASK64),
                                    out=ws.ramp[:size])
        else:
            self.cap_of, self.ramp = parent.cap_of, parent.ramp
        # each hop's distinct candidate caps, ascending
        self.caps = [sorted({self.cap_of[p] for p in hop if p in self.cap_of})
                     for hop in zip(*probs)]
        self.buffers, self.start, self.made = {}, None, {}

    def _once(self, start: int, what, make):
        """make(), made once per block and `what` if the streams are shared."""
        if self.start != start or not self.shared:
            self.start, self.made = start, {}
        if what not in self.made:
            self.made[what] = make()
        return self.made[what]

    def _hashes(self, start: int, stop: int, hop: int) -> np.ndarray:
        return self._once(start, (hop, "hashes"), lambda: self._hash(start, stop, hop))

    def _hash(self, start: int, stop: int, hop: int) -> np.ndarray:
        m, ws = stop - start, self.ws
        x = self.buffers.get(hop)
        if x is None:
            x = np.empty(self.size, np.uint64) if self.buffers else ws.bits
            if self.shared:
                self.buffers[hop] = x
        x = x[:m]
        base = self.key + (start * self.n + hop + 1) * _GOLDEN
        np.add(self.ramp[:m], np.uint64(base & _MASK64), out=x)
        _splitmix64_inplace(x, ws.scratch[:m])
        return x

    def _superset(self, start: int, stop: int, hop: int) -> tuple[dict, np.ndarray, np.ndarray]:
        """({cap: count}, trials, ln u) for the hop's largest cap, by least cap passed."""
        caps, scratch, x = self.caps[hop], self.ws.scratch, self._hashes(start, stop, hop)
        idx = np.flatnonzero(np.less_equal(x, np.uint64(caps[-1]), out=self.ws.marks[:len(x)]))
        counts = [len(idx)]
        if len(caps) > 1:  # sort (least cap's rank, trial) keys; trials < _BLOCK = 2**16
            keys = np.searchsorted(np.array(caps, np.uint64),
                                   np.take(x, idx, out=scratch[:len(idx)], mode="clip"))
            keys <<= 16
            keys |= idx
            keys.sort()
            counts = np.searchsorted(keys, np.arange(1, len(caps) + 1) << 16).tolist()
            idx = np.bitwise_and(keys, 0xFFFF, out=keys)
        hashes = np.take(x, idx, out=scratch[:len(idx)], mode="clip")
        return dict(zip(caps, counts)), idx, _log_uniforms(hashes, np.empty(len(idx)), hashes)

    def candidates(self, start: int, stop: int, hop: int,
                   cap: int) -> tuple[np.ndarray, np.ndarray]:
        """(trials less start, ln u) of the trials in [start, stop) whose hash
        on `hop` is at most cap, one of the hop's caps; readers must not write
        them."""
        counts, idx, log_u = self._once(start, hop, lambda: self._superset(start, stop, hop))
        return idx[:counts[cap]], log_u[:counts[cap]]

    def log_uniforms(self, start: int, stop: int, hop: int) -> np.ndarray:
        """ln u of trials [start, stop) on `hop`; readers must not write it."""
        def make():
            x = self._hashes(start, stop, hop)
            if self.caps[hop]:
                # the candidates, before ln u overwrites their hashes
                self._once(start, hop, lambda: self._superset(start, stop, hop))
            return _log_uniforms(x, x.view(np.float64), self.ws.scratch[:len(x)])
        return self._once(start, (hop, None), make)


def _latency_kernel(chain: ArqChain, streams: _HashStreams, moments: bool = False):
    """A function (start, stop) -> latencies of trials [start, stop), for
    stop - start <= `streams.size`, or with `moments` their (n, sum, M2) as
    `_moments` gives them, computed in place in the buffers of the streams'
    workspace from `streams`, which must be built over a list of chains
    that holds this one.

    The returned latencies are a view of the workspace's buffer, which the
    next call overwrites, so two concurrent kernels must not share a
    workspace; each thread of a `simulate_latency` call runs its blocks on
    its own.  A one-chain kernel writes its attempt costs into the hash
    buffer `bits`, whose hashes and ln u it has read by then; the
    candidates' ln u stay in their own arrays, which the exact sum's
    fallback past 2**53 reads again.
    Trial i draws on hop h (of N) the uniform
    u = ((splitmix64(key + (i N + h + 1) GOLDEN mod 2**64) >> 11) + 1/2) 2**-53,
    with key = splitmix64(seed + GOLDEN mod 2**64), and makes
    1 + floor(ln u / ln P_e,h) attempts of Q_h channel uses each.

    On a hop with 0 < P_e < `_SPARSE_PE` only the candidates, the trials
    whose hash is at most `_candidate_cap(P_e)` (53-bit draw at most
    P_e (1 + 2**-20) 2**53), take the log; every other trial makes exactly
    one attempt.  Its ln u - ln p >= ~2**-20 and |ln p| <= 745, so
    ln u / ln p <= 1 - 1.2e-9, far beyond the few-ulp error of the log and
    the divide.

    With `moments`, a chain without a dense hop (P_e >= `_SPARSE_PE`) reduces
    a block of m trials with m S + E < 2**53, for S = sum Q_n and E the
    candidates' extra uses, without adding its hops: attempt costs are
    integers, so its sum is exactly m S + E in any order, and its M2 is one
    sum over `_moments`' squares, (S - mean)**2 but (t_i - mean)**2 on the
    candidates' trials; 0 with none.  Other blocks add each hop's costs in
    hop order.  Every latency and moment is the full-array formula's.
    """
    ws = streams.ws
    uniforms, totals = ws.uniforms if streams.shared else ws.bits.view(np.float64), ws.totals
    hops = [(int(q), math.log(p) if p > 0.0 else None, streams.cap_of.get(p))
            for q, p in zip(chain.costs, chain.self_loop_probs)]
    sparse = [(hop, cap) for hop, (_, _, cap) in enumerate(hops) if cap is not None]
    exact = moments and all(log_p is None or cap is not None for _, log_p, cap in hops)
    budget = sum(q for q, _, _ in hops)

    def latencies(start: int, stop: int):
        m = stop - start
        u, total = uniforms[:m], totals[:m]
        found = [(hop, *streams.candidates(start, stop, hop, cap)) for hop, cap in sparse]
        found = {hop: (idx, log_u) for hop, idx, log_u in found if len(idx)}
        if exact:  # each candidate's extra uses, and the block's exact sum
            extras, used = [], 0  # in the idle buffer u while they fit
            for hop, (idx, log_u) in found.items():
                used += len(idx)
                out = u[used - len(idx):used] if used <= m else np.empty(len(idx))
                extras.append((idx, _attempt_costs(log_u, out, *hops[hop][:2], 0.0)))
            block_sum = m * budget + sum(int(extra.sum()) for _, extra in extras)
        if exact and block_sum < 2 ** 53:
            if not extras:
                return m, float(block_sum), 0.0
            for idx, _ in extras:
                total[idx] = budget
            for idx, extra in extras:
                np.add.at(total, idx, extra)
            for idx, extra in extras:  # each candidate's total, then its square
                np.take(total, idx, out=extra, mode="clip")
            mean = block_sum / m
            total.fill((budget - mean) * (budget - mean))
            for idx, extra in extras:
                total[idx] = np.square(np.subtract(extra, mean, out=extra), out=extra)
            return m, float(block_sum), float(total.sum())
        # each step is the full-array formula's, in its order
        total.fill(0.0)
        for hop, (q, log_p, cap) in enumerate(hops):
            if hop in found:  # saved before every total takes q
                idx, log_u = found[hop]
                cost = _attempt_costs(log_u, u[:len(idx)], q, log_p, 1.0)
                cost += total[idx]
                total += q
                total[idx] = cost
            elif log_p is None or cap is not None:
                total += q
            else:
                total += _attempt_costs(streams.log_uniforms(start, stop, hop), u,
                                        q, log_p, 1.0)
        return _moments(total) if moments else total

    return latencies


def _moments(x: np.ndarray) -> tuple[int, float, float]:
    """(n, sum, M2) of the samples x, overwriting x; M2 is numpy's two-pass
    sum of squared deviations, so M2 / (n - 1) is its var(ddof=1)."""
    s = float(x.sum())
    x -= s / len(x)
    x *= x
    return len(x), s, float(x.sum())


def _merge_moments(a: tuple[int, float, float], b: tuple[int, float, float]):
    """(n, sum, M2) of the union of two sample sets (Chan, Golub & LeVeque 1979)."""
    n_a, s_a, m2_a = a
    n_b, s_b, m2_b = b
    delta = s_b / n_b - s_a / n_a
    return n_a + n_b, s_a + s_b, m2_a + m2_b + delta * delta * (n_a * n_b / (n_a + n_b))


def _usable_cpus() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity on this platform
        return os.cpu_count() or 1


def _worker_count(workers: int | None, blocks: int) -> int:
    """Threads for `blocks` blocks: `workers`, or the usable CPUs if None,
    capped at the usable CPUs, `_MAX_WORKERS` and a `_MIN_RUN` blocks each."""
    cpus = _usable_cpus()
    return max(1, min(workers or cpus, cpus, _MAX_WORKERS, blocks // _MIN_RUN))


def _on_threads(run, parts: list) -> list:
    """[run(part, k) for k, part in enumerate(parts)], run(parts[0], 0) on the
    calling thread and each other on a thread of its own.  Every thread is
    joined before this returns or raises; the first part's exception is raised."""
    results, errors, threads = [None] * len(parts), [None] * len(parts), []

    def work(k):
        try:
            results[k] = run(parts[k], k)
        except BaseException as exc:  # raised on the calling thread
            errors[k] = exc

    try:
        for k in range(1, len(parts)):
            thread = threading.Thread(target=work, args=(k,))
            thread.start()
            threads.append(thread)
        results[0] = run(parts[0], 0)
    finally:
        for thread in threads:
            thread.join()
    for error in errors:
        if error is not None:
            raise error
    return results


def simulate_latencies(chains: list[ArqChain], trials: int, seed: int,
                       workers: int | None = None) -> list[LatencyEstimate]:
    """`simulate_latency` of each chain of a table, bit for bit, in one pass
    over the trials; the chains must have one hop count.  Each block's hashes,
    candidates and ln u on a hop are made once for every chain
    (`_HashStreams`), a chain without a dense hop sums a block as m S + E
    while that stays below 2**53 (`_latency_kernel`), and each chain's block
    moments merge in block order, as its own call's do, whatever thread ran
    the block.
    """
    if isinstance(trials, bool) or not isinstance(trials, numbers.Integral) or trials < 1:
        raise ValueError(f"trials must be an integer >= 1, got {trials!r}")
    if isinstance(seed, bool) or not isinstance(seed, numbers.Integral):
        raise ValueError(f"seed must be an integer, got {seed!r}")
    if workers is not None and (isinstance(workers, bool)
                                or not isinstance(workers, numbers.Integral) or workers < 1):
        raise ValueError(f"workers must be None or an integer >= 1, got {workers!r}")
    if len({len(chain.costs) for chain in chains}) > 1:
        raise ValueError("the chains of one table must have one hop count")
    if not chains:
        return []
    if not hasattr(_per_thread, "workspace"):
        _per_thread.workspace = _Workspace()
    key, n = _splitmix64((int(seed) + _GOLDEN) & _MASK64), len(chains[0].costs)
    size = min(trials, _BLOCK)
    streams = _HashStreams(key, n, size, _per_thread.workspace, chains)

    def run(starts: range, k: int) -> list:
        own = streams if k == 0 else _HashStreams(
            key, n, size, _Workspace(size, lean=True, table=streams.shared), chains, streams)
        kernels = [_latency_kernel(chain, own, True) for chain in chains]
        return [[kernel(s, min(s + _BLOCK, trials)) for kernel in kernels] for s in starts]

    def rounds():  # each round's blocks in contiguous runs, one per thread
        starts = range(0, trials, _BLOCK)
        for first in range(0, len(starts), _ROUND):
            part = starts[first:first + _ROUND]
            w = _worker_count(workers, len(part))
            ends = [len(part) * k // w for k in range(w + 1)]
            yield _on_threads(run, [part[a:b] for a, b in zip(ends, ends[1:])])

    blocks = (block for results in rounds() for result in results for block in result)
    merged = reduce(lambda acc, block: list(map(_merge_moments, acc, block)), blocks)
    return [LatencyEstimate(
        analytic=expected_latency(chain),
        mc_mean=total / trials,
        mc_stderr=math.sqrt(m2 / (trials - 1)) / math.sqrt(trials) if trials > 1 else 0.0,
        trials=trials,
        seed=seed,
    ) for chain, (_, total, m2) in zip(chains, merged)]


def simulate_latency(chain: ArqChain, trials: int, seed: int,
                     workers: int | None = None) -> LatencyEstimate:
    """Monte Carlo latency estimate; bit-identical for fixed (chain, trials, seed).

    Trial i's randomness comes from (seed, i, hop) by a counter-based
    generator (after Salmon et al., SC'11), so the trials split into blocks
    of `_BLOCK` from trial 0 that need nothing of each other.  Each block is
    reduced in place to (n, sum, M2), and the calling thread merges them in
    block order, whatever thread ran them: the estimate is the same for any
    `workers`.  The blocks run on `workers` threads, or the usable CPUs' if
    None, capped at the usable CPUs, at `_MAX_WORKERS` and at one thread
    per `_MIN_RUN` blocks, so a call of fewer than 8 blocks stays on the
    calling thread.  Each thread takes a contiguous run of whole blocks;
    the calling thread runs the first on the O(`_BLOCK`) workspace it keeps
    between its calls, so concurrent calls never share one, and each other
    thread, joined before the call returns or raises, runs on a lean
    workspace of its own.  `workers` must be None or an integer >= 1.  This
    is the one-chain case of `simulate_latencies`, which hashes each block
    into the workspace as the chain's hops read it.

    A chain without a dense hop reduces a block whose sums stay below 2**53
    from its candidates' extra channel uses; see `_latency_kernel` for why
    that gives the same bits as the full-array formula.

    Every trial's latency equals the full-array formula's bit for bit.  The
    mean, the left-to-right sum of the block sums over `trials`, is exact
    while the sums are integers below 2**53.  The stderr,
    sqrt(M2 / (trials - 1) / trials), is numpy's std(ddof=1) / sqrt(trials)
    bit for bit up to `_BLOCK` trials; above that the merge can move it by a
    few ulps.
    """
    return simulate_latencies([chain], trials, seed, workers)[0]


def arq_chains(bounds: SystemBounds, blocks: list[int]) -> tuple[ArqChain, ArqChain]:
    """(RC, SP) ARQ chains from the per-hop error bounds, each P_e clamped below 1.

    Raises LatencyError with the offending hop index when a hop has a zero
    exponent (rate at/above capacity), where the expected latency is unbounded.
    """
    if bounds.degenerate_hops:
        raise LatencyError(
            f"hop {bounds.degenerate_hops[0]} has zero exponent (rate at/above capacity); "
            "expected latency is unbounded", hop=bounds.degenerate_hops[0])
    return tuple(ArqChain([min(p, PE_CLAMP) for p in pe], list(blocks))
                 for pe in (bounds.per_hop_pe_upper, bounds.per_hop_pe_lower))


def latency_bounds(chains: tuple[ArqChain, ArqChain]) -> tuple[float, float]:
    """(upper, lower) expected latency of the (RC, SP) chains from `arq_chains`."""
    rc, sp = chains
    return expected_latency(rc), expected_latency(sp)
