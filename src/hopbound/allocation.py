"""Blocklength allocation across the hops of a linear chain.

Two rules split the budget sum(Q_n) = Q into integer blocklengths:
reliability-optimal (error balancing), the greedy marginal allocation in
the log domain from the real optimum, and information-continuous
(common codeword count M), which at rates R_n = I_n recovers the
capacity-optimal time sharing of `network_capacity`.

Both rules are one left-to-right fold of `balance_step`: over the
exponents for the real error-balancing optimum, over the rates for ln M.
The distributed protocol runs the same folds node by node, so it
reproduces the central results bit for bit.
"""

from __future__ import annotations

import functools
import heapq
import math

__all__ = [
    "AllocationError",
    "Method",
    "end_to_end_rate",
    "network_capacity",
    "balance_lagrange",
    "balance_log_m",
    "balance_share",
    "balance_step",
    "reliability_real_blocks",
    "balanced_blocks",
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
    """Rate of minimax-optimal time sharing (fractions proportional to 1/I_n): 1/sum(1/I_n).

    Not `balance_log_m`'s frame form, which differs in the last bit on ~42% of
    capacity lists: this feeds the `reproduce` grid and `rate_policy_scale`."""
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


_NO_HOPS = (math.inf, 0.0, 0.0, 0.0, 1.0)  # sums of 0, and any hop becomes the pivot


def balance_step(frame: tuple | None, e: float) -> tuple:
    """The error-balancing frame of the hops so far (`None` if none) plus a hop
    of exponent (or rate) `e`.

    A frame is (E_p, ln E_p, W, D, s): the smallest value so far, its log,
    W = sum_m w_m and D = sum_m w_m g_m, with weights w_m = s / E_m and gaps
    g_m = ln E_m - ln E_p >= 0, and s = E_p 2^k, which the least k >= 0 makes
    a normal double, so W and D are exactly 2^k times their unscaled sums.
    A smaller `e` becomes the pivot: each gap grows by ln E_p - ln e.  No sum
    cancels or overflows: W <= N 2^k, D <= N 2^k exp(-1) and k <= 52.
    """
    pivot, log_pivot, weight, gap, scaled = frame or _NO_HOPS
    log_e = math.log(e)
    if e < pivot:
        new = math.ldexp(e, max(0, -1021 - math.frexp(e)[1]))
        shrink = new / scaled
        return (e, log_e, weight * shrink + new / e,
                (gap + (log_pivot - log_e) * weight) * shrink, new)
    w = scaled / e
    return (pivot, log_pivot, weight + w, gap + w * (log_e - log_pivot), scaled)


def balance_share(e: float, frame: tuple, q_total: int) -> float:
    """Real error-balancing share of Q of the hop of exponent `e` in `frame`.

    Q_n = g_n / E_n + w_n Q_p with the pivot's share Q_p = (Q - D / E_p) / W:
    Q_n = (ln E_n - lambda) / E_n without its cancellation, so the shares keep
    their sum Q at any exponent.  Where D / E_p overflows, Q_p is below -1e308
    and the pivot's hops, the ones to pin, get -inf and every other hop +inf.
    """
    pivot, log_pivot, weight, gap, scaled = frame
    excess = gap / scaled
    if excess == math.inf:
        return -math.inf if e == pivot else math.inf
    return (math.log(e) - log_pivot) / e + (scaled / e) * ((q_total - excess) / weight)


def balance_lagrange(frame: tuple, q_total: int) -> float:
    """lambda = ln E_p - (E_p Q - D) / W, with Q_n E_n - ln E_n = -lambda on every
    hop at the shares of `balance_share`; finite where those overflow."""
    _, log_pivot, weight, gap, scaled = frame
    return log_pivot - (scaled * q_total - gap) / weight


def balance_log_m(frame: tuple, q_total: int) -> float:
    """ln M = Q R_p / W of the common-codeword-count split, from the frame of
    the rates; each hop's share is ln M / R_n."""
    _, _, weight, _, scaled = frame
    return q_total / weight * scaled


def _balance_frame(values: list[float], what: str) -> tuple:
    if not values or not all(0 < v < math.inf for v in values):
        raise AllocationError(f"need one or more {what}, all positive and finite")
    return functools.reduce(balance_step, values, None)


def reliability_real_blocks(exponents: list[float], q_total: int) -> list[float]:
    """Real-valued error-balancing optimum: Q_n*E_n - ln(E_n) is the same on every hop."""
    frame = _balance_frame(exponents, "exponents (rates below capacity)")
    return [balance_share(e, frame, q_total) for e in exponents]


def reliability_optimal_blocks(exponents: list[float], q_total: int) -> list[int]:
    """Integer blocklengths minimizing sum(exp(-Q_n E_n)) under sum(Q_n) = Q, Q_n >= 1.

    Starts from the floored real optimum under Q_n >= 1, whose shares keep
    their sum Q, so the floors sum to within N of Q for any Q up to 2**53,
    and runs the greedy marginal allocation.  It stops only when no one-unit
    exchange lowers the objective (compared in the log domain), which for
    this separable convex objective makes the split optimal among integer
    splits up to float rounding: no one-unit exchange lowers the
    log-objective by more than 1e-12 of its log terms.  Above Q ~ 1e15 the
    split may be the worse of two neighbours less than 4e-31 apart in
    log-objective.  Only strict improvements move, so splits of equal cost
    keep the starting rounding.  Feasible whenever Q >= N.
    """
    return balanced_blocks(exponents, q_total, reliability_real_blocks(exponents, q_total))


def balanced_blocks(exponents: list[float], q_total: int, shares: list[float]) -> list[int]:
    """The split of `reliability_optimal_blocks`, from the real optimum `shares`
    = reliability_real_blocks(exponents, q_total) that the caller holds."""
    n = len(exponents)
    if q_total < n:
        raise AllocationError(f"budget {q_total} cannot give every one of {n} hops a block")
    # pin hops whose real share is below 1 at 1 and re-balance the rest (each
    # pass raises the common level), so the floors do not overshoot Q; the
    # cap leaves one unit for every other hop
    free = list(range(n))
    while any(v < 1.0 for v in shares) and any(v >= 1.0 for v in shares):
        free = [i for i, v in zip(free, shares) if v >= 1.0]
        shares = reliability_real_blocks([exponents[i] for i in free], q_total - n + len(free))
    blocks = [1] * n
    for i, v in zip(free, shares):
        blocks[i] = min(max(math.floor(v), 1), q_total - n + 1)
    # step(b, E) = -b E + log(1 - exp(-E)) is the log of the objective drop
    # from Q_n = b to b + 1: fill (or drain) one unit at a time at the largest
    # gain (smallest loss), then move a unit from the smallest loss to the
    # largest gain while that strictly improves
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

    for i in range(n):
        move(i, 0)
    placed = sum(blocks)
    for _ in range(placed, q_total):
        move(top(gains)[1], 1)
    for _ in range(q_total, placed):
        move(top(losses)[1], -1)  # placed > Q >= N, so some hop holds > 1
    while True:
        gain, loss = top(gains), top(losses)
        # one hop on both tops: no exchange between two hops can improve
        if loss is None or gain[1] == loss[1] or -gain[0] <= loss[0]:
            return blocks
        move(gain[1], 1)
        move(loss[1], -1)


def info_continuous_log_m(rates: list[float], q_total: int) -> float:
    """ln M for the common-codeword-count allocation: Q / sum(1/R_n)."""
    return balance_log_m(_balance_frame(rates, "rates"), q_total)


def information_continuous_blocks(rates: list[float], q_total: int,
                                  ln_m: float | None = None) -> list[int]:
    """Common-M allocation: Q_n = floor(ln M / R_n), leftovers by remainder;
    `ln_m` is info_continuous_log_m(rates, q_total) where the caller holds it."""
    n = len(rates)
    if q_total < n:
        raise AllocationError(f"budget {q_total} cannot give every one of {n} hops a block")
    ln_m = info_continuous_log_m(rates, q_total) if ln_m is None else ln_m
    blocks = _largest_remainder_repair([ln_m / r for r in rates], q_total)
    if min(blocks) < 1:
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
