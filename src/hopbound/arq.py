"""Expected end-to-end latency under per-hop stop-and-wait ARQ.

The chain is a Markov chain with one transient state per hop and an
absorbing terminal state; each attempt on hop n costs Q_n channel uses
and fails with a constant probability P_e,n, so attempt counts are
geometric and the expected latency is sum Q_n / (1 - P_e,n).

The (RC, SP) chains of an allocation take their P_e,n from its
`SystemBounds`, clamped below 1 in `arq_chains` alone.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .system import SystemBounds

__all__ = [
    "LatencyError",
    "ArqChain",
    "LatencyEstimate",
    "expected_latency",
    "simulate_latency",
    "arq_chains",
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


def expected_latency(chain: ArqChain) -> float:
    """Closed-form expected latency sum Q_n / (1 - P_e,n)."""
    closed = 0.0
    for q, p in zip(chain.costs, chain.self_loop_probs):
        closed += q / (1.0 - p)
    return closed


_SM64_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_SM64_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_SM64_MIX2 = np.uint64(0x94D049BB133111EB)


def _splitmix64(x: np.ndarray) -> np.ndarray:
    x = (x ^ (x >> np.uint64(30))) * _SM64_MIX1
    x = (x ^ (x >> np.uint64(27))) * _SM64_MIX2
    return x ^ (x >> np.uint64(31))


def _counter_uniforms(seed: int, indices: np.ndarray) -> np.ndarray:
    """Uniforms in (0, 1) keyed by (seed, index); schedule-independent."""
    # a one-element array: uint64 arrays wrap on overflow without a warning
    key = _splitmix64(np.array([(seed + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF],
                               dtype=np.uint64))[0]
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
