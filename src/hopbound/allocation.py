"""Blocklength allocation across the hops of a linear chain.

Two rules split the budget sum(Q_n) = Q into integer blocklengths:
reliability-optimal (error balancing), the greedy marginal allocation in
the log domain from the real Lagrange optimum, and information-continuous
(common codeword count M), which at rates R_n = I_n recovers the
capacity-optimal time sharing of `network_capacity`.

Sums over hops are accumulated left-to-right with plain floats so the
distributed protocol can reproduce them bit-exactly.
"""

from __future__ import annotations

import heapq
import math

__all__ = [
    "AllocationError",
    "Method",
    "end_to_end_rate",
    "network_capacity",
    "reliability_lagrange",
    "reliability_real_blocks",
    "reliability_optimal_blocks",
    "info_continuous_log_m",
    "information_continuous_blocks",
    "rate_policy_scale",
]


class AllocationError(ValueError):
    """Infeasible or invalid allocation request."""


class Method:
    RELIABILITY_OPTIMAL_RC = "reliability_optimal_rc"
    RELIABILITY_OPTIMAL_SP = "reliability_optimal_sp"
    INFO_CONTINUOUS = "info_continuous"
    MANUAL = "manual"


def end_to_end_rate(blocks: list[int], rates: list[float]) -> float:
    """R = (1/Q) min_n Q_n R_n, the bottleneck end-to-end rate."""
    return min(b * r for b, r in zip(blocks, rates)) / sum(blocks)


def network_capacity(capacities: list[float]) -> float:
    """Rate of minimax-optimal time sharing (fractions proportional to 1/I_n): 1/sum(1/I_n)."""
    if not capacities:
        raise AllocationError("need at least one hop")
    if any(c <= 0 for c in capacities):
        raise AllocationError("all capacities must be positive")
    inv_sum = 0.0
    for c in capacities:
        inv_sum += 1.0 / c
    return 1.0 / inv_sum


def _largest_remainder_repair(real_values: list[float], total: int) -> list[int]:
    """Round real allocations summing to `total` to integers summing to `total`.

    Floors first, then hands the leftover (at most one unit per hop) out in
    descending order of fractional remainder (ties to the lowest index).
    A larger leftover means the real values lost their sum to rounding.
    """
    if not all(math.isfinite(v) for v in real_values):
        raise AllocationError("real-valued allocation is not finite")
    blocks = [math.floor(v) for v in real_values]
    leftover = total - sum(blocks)
    if leftover < 0:
        raise AllocationError("real-valued allocation exceeds the budget")
    if leftover > len(blocks):
        raise AllocationError(f"real-valued allocation leaves {leftover} of {total} unplaced")
    by_remainder = sorted(range(len(blocks)), key=lambda i: (blocks[i] - real_values[i], i))
    for i in by_remainder[:leftover]:
        blocks[i] += 1
    return blocks


def _greedy_integer_blocks(blocks: list[int], exponents: list[float],
                           total: int) -> list[int]:
    """Integer minimizer of sum(exp(-Q_n E_n)) with sum(Q_n) = total, Q_n >= 1.

    step(b, E) = -b E + log(1 - exp(-E)) is the log of the objective drop
    from Q_n = b to b + 1.  From `blocks` (updated in place), fill (or
    drain) one unit at a time at the largest gain (smallest loss), then move
    a unit from the smallest loss to the largest gain while that strictly
    improves.
    """
    log_gap = [math.log(-math.expm1(-e)) for e in exponents]
    # lazy heaps keyed by -step(Q_i) and step(Q_i - 1), ties to the lowest
    # index; an entry is live while its hop still holds the count it carries
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

    for i in range(len(blocks)):
        move(i, 0)
    placed = sum(blocks)
    for _ in range(placed, total):
        move(top(gains)[1], 1)
    for _ in range(total, placed):
        move(top(losses)[1], -1)  # placed > total >= N, so some hop holds > 1
    while True:
        gain, loss = top(gains), top(losses)
        # one hop on both tops: no exchange between two hops can improve
        if loss is None or gain[1] == loss[1] or -gain[0] <= loss[0]:
            return blocks
        move(gain[1], 1)
        move(loss[1], -1)


def reliability_lagrange(exponents: list[float], q_total: int) -> float:
    """Lagrange multiplier of the error-balancing allocation."""
    if any(e <= 0 for e in exponents):
        raise AllocationError("all exponents must be positive (rate below capacity)")
    inv_sum = 0.0
    logexp_sum = 0.0
    for e in exponents:
        inv_sum += 1.0 / e
    for e in exponents:
        logexp_sum += math.log(e) / e
    return (logexp_sum - q_total) / inv_sum


def reliability_real_blocks(exponents: list[float], q_total: int) -> list[float]:
    """Real-valued error-balancing optimum: Q_n = (ln E_n - lambda) / E_n.

    At this point Q_n*E_n - ln(E_n) is the same on every hop.
    """
    lam = reliability_lagrange(exponents, q_total)
    return [(math.log(e) - lam) / e for e in exponents]


def reliability_optimal_blocks(exponents: list[float], q_total: int) -> list[int]:
    """Integer blocklengths minimizing sum(exp(-Q_n E_n)) under sum(Q_n) = Q, Q_n >= 1.

    Starts from the floored real Lagrange optimum under Q_n >= 1 and runs
    the greedy marginal allocation.  It stops only when no one-unit
    exchange lowers the objective (compared in the log domain), which for
    this separable convex objective makes the result exactly optimal among
    integer splits; only strict improvements move, so splits of equal cost
    keep the starting rounding.  Feasible whenever Q >= N.
    """
    n = len(exponents)
    if q_total < n:
        raise AllocationError(f"budget {q_total} cannot give every one of {n} hops a block")
    # pin hops whose real share is below 1 at 1 and re-balance the rest (each
    # pass raises lambda), so the floors do not overshoot Q by a wide margin;
    # the cap bounds the drain where tiny exponents leave the shares inexact
    free, shares = list(range(n)), reliability_real_blocks(exponents, q_total)
    while any(v < 1.0 for v in shares) and any(v >= 1.0 for v in shares):
        free = [i for i, v in zip(free, shares) if v >= 1.0]
        shares = reliability_real_blocks([exponents[i] for i in free], q_total - n + len(free))
    start = [1] * n
    for i, v in zip(free, shares):
        start[i] = min(max(math.floor(v), 1), q_total - n + 1)
    return _greedy_integer_blocks(start, exponents, q_total)


def info_continuous_log_m(rates: list[float], q_total: int) -> float:
    """ln M for the common-codeword-count allocation: Q / sum(1/R_n)."""
    if any(r <= 0 for r in rates):
        raise AllocationError("all rates must be positive")
    inv_sum = 0.0
    for r in rates:
        inv_sum += 1.0 / r
    return q_total / inv_sum


def information_continuous_blocks(rates: list[float], q_total: int) -> list[int]:
    """Common-M allocation: Q_n = floor(ln M / R_n), leftovers by remainder."""
    n = len(rates)
    if q_total < n:
        raise AllocationError(f"budget {q_total} cannot give every one of {n} hops a block")
    ln_m = info_continuous_log_m(rates, q_total)
    blocks = _largest_remainder_repair([ln_m / r for r in rates], q_total)
    for i in range(n):
        if blocks[i] < 1:
            raise AllocationError("cannot keep every hop at blocklength >= 1")
    return blocks


def rate_policy_scale(capacities: list[float], target_rate: float) -> list[float]:
    """Capacity-proportional per-hop rates hitting a target end-to-end rate.

    R_n = beta * I_n with beta = target / network capacity; requires the
    target not to exceed the network capacity 1/sum(1/I_n).
    """
    if target_rate <= 0:
        raise AllocationError("target rate must be positive")
    network = network_capacity(capacities)
    if target_rate > network:
        raise AllocationError(f"target rate {target_rate} exceeds network capacity {network}")
    beta = target_rate / network
    return [beta * c for c in capacities]
