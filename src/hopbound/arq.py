"""Expected end-to-end latency under per-hop stop-and-wait ARQ.

The chain is a Markov chain with one transient state per hop and an
absorbing terminal state; each attempt on hop n costs Q_n channel uses
and fails with a constant probability P_e,n, so attempt counts are
geometric and the expected latency is sum Q_n / (1 - P_e,n).
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .allocation import Allocation
from .channel import HopChannel
from .system import system_error_bounds

__all__ = [
    "LatencyError",
    "ArqChain",
    "LatencyEstimate",
    "expected_latency",
    "simulate_latency",
    "latency_bounds",
    "default_workers",
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


@dataclass(frozen=True)
class LatencyEstimate:
    analytic: float  # channel uses
    mc_mean: float
    mc_stderr: float
    trials: int
    seed: int


def _recursion_latency(chain: ArqChain) -> float:
    """First-step recursion T_n = Q_n + T_n P_e,n + T_{n+1}(1 - P_e,n), T_{N+1} = 0."""
    t_next = 0.0
    for q, p in zip(reversed(chain.costs), reversed(chain.self_loop_probs)):
        t_next = (q + t_next * (1.0 - p)) / (1.0 - p)
    return t_next


def expected_latency(chain: ArqChain) -> float:
    """Closed-form expected latency, cross-checked against the recursion."""
    closed = 0.0
    for q, p in zip(chain.costs, chain.self_loop_probs):
        closed += q / (1.0 - p)
    recursed = _recursion_latency(chain)
    assert abs(closed - recursed) <= 1e-9 * max(abs(closed), 1.0), \
        "closed form and first-step recursion disagree"
    return closed


_SM64_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_SM64_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_SM64_MIX2 = np.uint64(0x94D049BB133111EB)


def _splitmix64(x: np.ndarray) -> np.ndarray:
    x = (x ^ (x >> np.uint64(30))) * _SM64_MIX1
    x = (x ^ (x >> np.uint64(27))) * _SM64_MIX2
    return x ^ (x >> np.uint64(31))


def _mix64(x: int) -> int:
    x &= 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return x ^ (x >> 31)


def _counter_uniforms(seed: int, indices: np.ndarray) -> np.ndarray:
    """Uniforms in (0, 1) keyed by (seed, index); schedule-independent."""
    key = np.uint64(_mix64(seed + 0x9E3779B97F4A7C15))
    state = key + (indices.astype(np.uint64) + np.uint64(1)) * _SM64_GOLDEN
    bits = _splitmix64(state)
    return ((bits >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0 ** -53


def default_workers() -> int:
    """Worker count from HOPBOUND_THREADS, capped at the CPU count; 1 when unset."""
    raw = os.environ.get("HOPBOUND_THREADS", "")
    try:
        return min(max(1, int(raw)), os.cpu_count() or 1)
    except ValueError:
        return 1


def _trial_latencies(chain: ArqChain, seed: int, start: int, stop: int) -> np.ndarray:
    """Latencies of trials [start, stop); randomness depends only on (seed, trial, hop)."""
    n = len(chain.costs)
    trials = np.arange(start, stop, dtype=np.uint64)
    total = np.zeros(stop - start, dtype=np.float64)
    for hop, (q, p) in enumerate(zip(chain.costs, chain.self_loop_probs)):
        if p == 0.0:
            total += q
            continue
        u = _counter_uniforms(seed, trials * np.uint64(n) + np.uint64(hop))
        attempts = 1.0 + np.floor(np.log(u) / math.log(p))
        total += attempts * q
    return total


def simulate_latency(chain: ArqChain, trials: int, seed: int,
                     workers: int | None = None) -> LatencyEstimate:
    """Monte Carlo latency estimate; bit-identical for fixed (chain, trials, seed).

    Each trial's randomness is derived from (seed, trial index) with a
    counter-based generator, so the result does not depend on the worker
    count or schedule.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    workers = default_workers() if workers is None else max(1, workers)
    latencies = np.empty(trials, dtype=np.float64)
    if workers == 1 or trials < 2 * workers:
        latencies[:] = _trial_latencies(chain, seed, 0, trials)
    else:
        bounds = np.linspace(0, trials, workers + 1, dtype=int)
        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures = [
                (a, pool.submit(_trial_latencies, chain, seed, int(a), int(b)))
                for a, b in zip(bounds[:-1], bounds[1:])
            ]
            for a, fut in futures:
                chunk = fut.result()
                latencies[a:a + len(chunk)] = chunk
    mean = float(np.mean(latencies))
    stderr = float(np.std(latencies, ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
    return LatencyEstimate(
        analytic=expected_latency(chain),
        mc_mean=mean,
        mc_stderr=stderr,
        trials=trials,
        seed=seed,
    )


def latency_bounds(alloc: Allocation, hops: list[HopChannel]) -> tuple[float, float]:
    """(upper, lower) expected latency from the RC / SP per-hop error bounds.

    Raises LatencyError with the offending hop index when a per-hop error
    bound reaches 1 (zero exponent, rate at/above capacity).
    """
    bounds = system_error_bounds(alloc, hops)
    for i, (er, esp) in enumerate(zip(bounds.per_hop_e_r, bounds.per_hop_e_sp)):
        if er <= 0.0 or esp <= 0.0:
            raise LatencyError(
                f"hop {i} has zero exponent (rate at/above capacity); "
                "expected latency is unbounded", hop=i)
    pe_rc = [min(p, PE_CLAMP) for p in bounds.per_hop_pe_upper]
    pe_sp = [min(p, PE_CLAMP) for p in bounds.per_hop_pe_lower]
    upper = expected_latency(ArqChain(pe_rc, list(alloc.blocklengths)))
    lower = expected_latency(ArqChain(pe_sp, list(alloc.blocklengths)))
    return upper, lower
