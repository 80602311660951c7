"""Expected end-to-end latency under per-hop stop-and-wait ARQ.

The chain is a Markov chain with one transient state per hop and an
absorbing terminal state; each attempt on hop n costs Q_n channel uses
and fails with a constant probability P_e,n, so attempt counts are
geometric and the expected latency is sum Q_n / (1 - P_e,n).

The (RC, SP) chains of an allocation take their P_e,n from its
`SystemBounds`, clamped below 1 in `arq_chains` alone.

`simulate_latency` checks the closed form by Monte Carlo.  It streams the
trials through fixed blocks of `_BLOCK` on the calling thread and merges
their moments in block order, so its memory is O(`_BLOCK`), not O(trials).
Each calling thread keeps one workspace between its calls.  Hops with P_e
below ~2.2e-16 hash no trial: the generator is invertible, so the few
hashes that can cause a retransmission are mapped back to their trials
(see `_latency_kernel`).  `latency_variance` is the exact variance.
"""

from __future__ import annotations

import math
import numbers
import threading
from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

from .system import SystemBounds

__all__ = [
    "LatencyError",
    "ArqChain",
    "LatencyEstimate",
    "expected_latency",
    "latency_variance",
    "simulate_latency",
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
            if isinstance(q, bool) or not isinstance(q, numbers.Integral) or q < 1:
                raise LatencyError(f"cost on hop {i} must be an integer >= 1, got {q!r}",
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


# Trials per block.  A kernel's six buffers of this many 8-byte words
# (3 MiB) and its byte mask stay in cache; blocks start at multiples of
# this from trial 0, so the block order and each block's sums are fixed.
_BLOCK = 1 << 16
# Hops with 0 < P_e below this take the log only for their candidate
# trials; at or above it, where most trials are candidates, gathering them
# costs more than the log it saves.
_SPARSE_PE = 0.25
_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_GOLDEN_INV, _MIX1_INV, _MIX2_INV = (pow(c, -1, 1 << 64) for c in (_GOLDEN, _MIX1, _MIX2))


def _splitmix64(x: int) -> int:
    """splitmix64's output function on a 64-bit Python int."""
    x = ((x ^ (x >> 30)) * _MIX1) & _MASK64
    x = ((x ^ (x >> 27)) * _MIX2) & _MASK64
    return x ^ (x >> 31)


def _unmix(x):
    """The inverse of `_splitmix64`, on a 64-bit Python int or a uint64 array:
    each multiplier is odd, so it has an inverse mod 2**64, and y = x ^ x >> s
    is undone by x = y ^ y >> s ^ y >> 2s ^ ... (Steele, Lea & Flood, 2014)."""
    x = x ^ (x >> 31) ^ (x >> 62)
    x = (x * _MIX2_INV) & _MASK64
    x = x ^ (x >> 27) ^ (x >> 54)
    x = (x * _MIX1_INV) & _MASK64
    return x ^ (x >> 30) ^ (x >> 60)


# Hops whose candidate cap lies below this (every P_e below ~2.2e-16) list
# their candidates by inverting the hash instead of hashing every trial.
# Raising it to 2**20 adds 5 of fig4's 240 hops, at 256 times the table.
_INVERTED = 1 << 12
# unmix(x) for every raw hash x below `_INVERTED`
_UNMIXED = _unmix(np.arange(_INVERTED, dtype=np.uint64))


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


class _Workspace:
    """One kernel's buffers of `_BLOCK` entries: the trial counters, their
    hop-count ramp, four block buffers and the candidate mask."""

    def __init__(self, size: int = _BLOCK):
        self.counter = np.arange(size, dtype=np.uint64)
        self.ramp, self.bits, self.scratch = (np.empty(size, np.uint64) for _ in range(3))
        self.uniforms, self.totals = np.empty(size), np.empty(size)
        self.marks = np.empty(size, bool)


# Each calling thread's workspace, kept between its calls as `.workspace`.
_per_thread = threading.local()


def _candidate_cap(p: float) -> int:
    """The largest raw splitmix64 hash x whose 53-bit draw j = x >> 11 is at
    most floor(p (1 + 2**-20) 2**53), computed exactly from p's ratio."""
    num, den = float(p).as_integer_ratio()
    j_max = num * (2 ** 20 + 1) * 2 ** 33 // den
    return (j_max << 11) | 2047


def _attempt_costs(x: np.ndarray, u: np.ndarray, log_p: float, q: int) -> None:
    """u = q (1 + floor(ln u / ln p)) from the raw hashes x, which it clobbers."""
    x >>= np.uint64(11)
    np.copyto(u, x)
    u += 0.5
    u *= 2.0 ** -53
    np.log(u, out=u)
    u /= log_p
    np.floor(u, out=u)
    u += 1.0
    u *= q


def _add_candidates(total: np.ndarray, idx: np.ndarray, x: np.ndarray, u: np.ndarray,
                    log_p: float, q: int) -> None:
    """total += q, except that the candidates total[idx], whose raw hashes x
    it clobbers, add their own attempt costs, computed in u's buffer."""
    if not len(idx):
        total += q
        return
    cost = u[:len(idx)]
    _attempt_costs(x, cost, log_p, q)
    cost += total[idx]
    total += q
    total[idx] = cost


def _listed_candidates(counters: np.ndarray, cap: int, hop: int,
                       n: int) -> tuple[np.ndarray, np.ndarray]:
    """(trials, hashes): every trial i, in order, whose raw hash x on hop
    `hop` (of n) is at most cap < `_INVERTED`, with that x.  counters[x] is
    the counter c whose state key + c GOLDEN hashes to x; this hop's are the
    c = i n + hop + 1."""
    offsets = counters[:cap + 1] - np.uint64(hop + 1)
    hashes = np.flatnonzero(offsets % np.uint64(n) == 0)
    trials = offsets[hashes] // np.uint64(n)
    order = np.argsort(trials)
    return trials[order], hashes[order].astype(np.uint64)


@lru_cache(maxsize=32)
def _inverted_candidates(key: int, n: int, hop: int,
                         cap: int) -> tuple[np.ndarray, np.ndarray]:
    """`_listed_candidates` for the counters of generator key `key`, as
    read-only arrays.  Only two caps lie below `_INVERTED` (2047 and 4095),
    so a sweep that reruns one seed on one chain length maps the table back
    once per hop and cap; each of the at most 32 cached pairs holds at most
    64 KiB / n."""
    counters = (_UNMIXED - np.uint64(key)) * np.uint64(_GOLDEN_INV)
    listed = _listed_candidates(counters, cap, hop, n)
    for a in listed:
        a.setflags(write=False)
    return listed


def _latency_kernel(chain: ArqChain, seed: int, size: int,
                    workspace: _Workspace | None = None):
    """A function (start, stop) -> latencies of trials [start, stop), for
    stop - start <= size, computed in place in `workspace`'s buffers (a new
    one of `size` entries if None).

    The returned array is a view of the workspace's buffer, which the next
    call overwrites, or a read-only broadcast of one value (a constant block,
    below), so two concurrent kernels must not share a workspace;
    `simulate_latency` runs its blocks on the calling thread with that
    thread's own.
    Trial i draws on hop h (of N) the uniform
    u = ((splitmix64(key + (i N + h + 1) GOLDEN mod 2**64) >> 11) + 1/2) 2**-53,
    with key = splitmix64(seed + GOLDEN mod 2**64), and makes
    1 + floor(ln u / ln P_e,h) attempts of Q_h channel uses each.

    On a hop with 0 < P_e < `_SPARSE_PE` only the candidates, the trials
    whose hash is at most `_candidate_cap(P_e)` (53-bit draw at most
    P_e (1 + 2**-20) 2**53), take the log; every other trial makes exactly
    one attempt.  Its ln u - ln p >= ~2**-20 and |ln p| <= 745, so
    ln u / ln p <= 1 - 1.2e-9, far beyond the few-ulp error of the log and
    the divide.  The candidates' addends go back onto their saved totals
    after every total takes Q_h, so each trial's total gets the same
    addends in the same order either way.

    A hop whose cap lies below `_INVERTED` (P_e below ~2.2e-16) hashes no
    trial.  splitmix64 and the counter are bijections on 64-bit words, so
    each hash x < `_INVERTED` maps back to its counter c; the c = i N + h + 1
    of this hop list the trials i that draw one, in O(`_INVERTED`) memory
    whatever the trial count.  That list depends on (key, N, h, cap) alone,
    and cap takes two values there, so it is kept in a small cache
    (`_inverted_candidates`) that kernels of one seed and chain length
    share.  A block whose counters pass 2**64, where the listed c (taken
    mod 2**64) are not its own, hashes those hops instead.  When no hop hashes and a block of
    m trials lists no candidate, its latencies all equal S = sum Q_n; while
    m S < 2**53 it returns a broadcast of S, which `_moments` reduces
    without a pass: the same numbers the filled block gives.
    """
    n = len(chain.costs)
    key = _splitmix64((seed + _GOLDEN) & _MASK64)
    ws = _Workspace(size) if workspace is None else workspace
    bits, scratch, uniforms, totals, marks = ws.bits, ws.scratch, ws.uniforms, ws.totals, ws.marks
    hops = []
    for hop, (q, p) in enumerate(zip(chain.costs, chain.self_loop_probs)):
        cap = _candidate_cap(p) if 0.0 < p < _SPARSE_PE else None
        listed = (_inverted_candidates(key, n, hop, cap)
                  if cap is not None and cap < _INVERTED else None)
        hops.append((q, math.log(p) if p > 0.0 else None,
                     None if cap is None else np.uint64(cap), listed))
    constant = (sum(int(q) for q in chain.costs)
                if all(log_p is None or listed is not None for _, log_p, _, listed in hops)
                else None)
    ramp = None

    def latencies(start: int, stop: int) -> np.ndarray:
        nonlocal ramp
        m = stop - start
        x, tmp, u, total, hit = bits[:m], scratch[:m], uniforms[:m], totals[:m], marks[:m]
        # the block's largest counter is stop N
        inverted = stop * n < 1 << 64
        found = {}
        if inverted:
            span = np.array((start, stop), dtype=np.uint64)
            for hop, (_, _, _, listed) in enumerate(hops):
                if listed is not None:
                    trials, hashes = listed
                    lo, hi = np.searchsorted(trials, span)
                    found[hop] = (trials[lo:hi] - span[0]).astype(np.intp), hashes[lo:hi].copy()
        if (constant is not None and inverted and m * constant < 2 ** 53
                and not any(len(idx) for idx, _ in found.values())):
            return np.broadcast_to(np.float64(constant), (m,))
        base = key + (start * n + 1) * _GOLDEN
        total.fill(0.0)
        # each step is the full-array formula's, in its order, so every
        # latency is bit-identical to it
        for hop, (q, log_p, cap, _) in enumerate(hops):
            if log_p is None:
                total += q
                continue
            if hop in found:
                _add_candidates(total, *found[hop], u, log_p, q)
                continue
            if ramp is None:  # j N GOLDEN: trial start + j's counter offset
                ramp = np.multiply(ws.counter[:size], np.uint64(n * _GOLDEN & _MASK64),
                                   out=ws.ramp[:size])
            np.add(ramp[:m], np.uint64((base + hop * _GOLDEN) & _MASK64), out=x)
            _splitmix64_inplace(x, tmp)
            if cap is None:
                _attempt_costs(x, u, log_p, q)
                total += u
            else:
                idx = np.flatnonzero(np.less_equal(x, cap, out=hit))
                _add_candidates(total, idx, x[idx], u, log_p, q)
        return total

    return latencies


def _moments(x: np.ndarray) -> tuple[int, float, float]:
    """(n, sum, M2) of the samples x, overwriting x; M2 is numpy's two-pass
    sum of squared deviations, so M2 / (n - 1) is its var(ddof=1).

    A constant block of `_latency_kernel`, a read-only broadcast of one
    integer S with n S < 2**53, gives (n, n S, 0.0) without a pass: the
    pairwise sums of exact integers below 2**53 are exact, so the two
    passes give the same.
    """
    if not x.strides[0]:
        return len(x), float(len(x) * x[0]), 0.0
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


def simulate_latency(chain: ArqChain, trials: int, seed: int,
                     workers: int | None = None) -> LatencyEstimate:
    """Monte Carlo latency estimate; bit-identical for fixed (chain, trials, seed).

    Trial i's randomness comes from (seed, i, hop) by a counter-based
    generator (after Salmon et al., SC'11).  Trials run on the calling
    thread in blocks of `_BLOCK` from trial 0; each block is reduced in
    place to (n, sum, M2) and merged in block order.  The O(`_BLOCK`)
    workspace is the calling thread's own, kept between its calls, so
    concurrent calls never share one.  `workers` is accepted and has no
    effect.

    Hops with P_e below ~2.2e-16 list the trials that can retransmit by
    inverting the generator, and a block with none of them on a chain of
    such hops (or error-free ones) is reduced without a pass; see
    `_latency_kernel` for why both give the same bits as hashing.

    Every trial's latency equals the full-array formula's bit for bit.  The
    mean, the left-to-right sum of the block sums over `trials`, is exact
    while the sums are integers below 2**53.  The stderr,
    sqrt(M2 / (trials - 1) / trials), is numpy's std(ddof=1) / sqrt(trials)
    bit for bit up to `_BLOCK` trials; above that the merge can move it by a
    few ulps.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not hasattr(_per_thread, "workspace"):
        _per_thread.workspace = _Workspace()
    kernel = _latency_kernel(chain, seed, min(trials, _BLOCK), _per_thread.workspace)
    _, total, m2 = reduce(_merge_moments, (_moments(kernel(s, min(s + _BLOCK, trials)))
                                           for s in range(0, trials, _BLOCK)))
    return LatencyEstimate(
        analytic=expected_latency(chain),
        mc_mean=total / trials,
        mc_stderr=math.sqrt(m2 / (trials - 1)) / math.sqrt(trials) if trials > 1 else 0.0,
        trials=trials,
        seed=seed,
    )


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
