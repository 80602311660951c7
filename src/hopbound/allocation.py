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

from . import _doubles, _is_integer

__all__ = [
    "AllocationError",
    "Method",
    "end_to_end_rate",
    "network_capacity",
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
    if not (blocks and len(blocks) == len(rates) and min(blocks) >= 1 and (q := sum(blocks)) >= 1
            and all(0 < r < math.inf for r in rates)):  # a NaN fails a rate's test or the sum's
        raise AllocationError("need one block >= 1 and one positive finite rate per hop")
    products = [b * r for b, r in zip(_doubles(blocks, AllocationError, "blocks"),
                                      _doubles(rates, AllocationError, "rates"))]
    return min(products) / _doubles([q], AllocationError, "blocks")[0]


def network_capacity(capacities: list[float]) -> float:
    """Rate of minimax-optimal time sharing (fractions proportional to 1/I_n): 1/sum(1/I_n).

    Not `balance_log_m`'s frame form, which differs in the last bit on ~42% of
    capacity lists: this feeds the `reproduce` grid and `rate_policy_scale`."""
    if not capacities:
        raise AllocationError("need at least one hop")
    if not all(0 < c < math.inf for c in capacities):
        raise AllocationError("all capacities must be positive and finite")
    inv_sum = 0.0
    for c in _doubles(capacities, AllocationError, "capacities"):
        inv_sum += 1.0 / c
    return 1.0 / inv_sum


def _exact_common_m_split(rates: list[float], q_total: int) -> tuple[list[int], list[int]]:
    """(floors, order) of the exact shares x_n = Q (1/R_n) / sum_m 1/R_m: their
    floors, and the hops by descending remainder, ties by index, in O(N) memory.

    With R_n = num_n / den_n, sum_m den_m / num_m is one fraction top / bottom
    (a product tree) and x_n = Q den_n bottom / (num_n top).  Dividing by top
    once per distinct den_n, then by num_n, gives floor(x_n 2**64), since
    floor(floor(a / b) / c) = floor(a / (b c)): the floor and the remainder's
    first 64 bits.  Distinct rates whose first bits tie compare their
    remainders, over num_n top, by cross-multiplication."""
    ratios = [r.as_integer_ratio() for r in rates]
    terms = [(den, num) for num, den in ratios]
    while len(terms) > 1:
        terms = [(a * d + c * b, b * d) for (a, b), (c, d) in zip(terms[::2], terms[1::2])
                 ] + terms[len(terms) & ~1:]
    top, bottom = terms[0]
    scaled = {den: (q_total * den * bottom << 64) // top for den in {d for _, d in ratios}}
    floors, leading = zip(*(divmod(scaled[den] // num, 1 << 64) for num, den in ratios))

    def first(i: int, j: int) -> int:
        a, b = leading[i], leading[j]
        if a == b and ratios[i] != ratios[j]:  # remainders over num top, cross-multiplied
            (num_i, den_i), (num_j, den_j) = ratios[i], ratios[j]
            a = q_total * den_i * bottom % (num_i * top) * num_j
            b = q_total * den_j * bottom % (num_j * top) * num_i
        return -1 if (a, -i) > (b, -j) else 1

    return list(floors), sorted(range(len(rates)), key=functools.cmp_to_key(first))


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
    the rates; each hop's share is ln M / R_n.  AllocationError where it overflows."""
    _, _, weight, _, scaled = frame
    if (ln_m := q_total / weight * scaled) < math.inf:
        return ln_m
    raise AllocationError(f"ln M = Q / sum(1/R_n) is not finite at Q = {q_total}")


def _check_budget(q_total) -> None:
    """AllocationError unless Q is an integer in [1, 2**53] and not a bool, as total_q."""
    if not _is_integer(q_total, 1, 2 ** 53):
        raise AllocationError(f"budget must be an integer in [1, 2**53], got {q_total!r}")


def _positive_doubles(values, what: str) -> list[float]:
    """`_doubles` of one or more values, all positive and finite, else AllocationError."""
    if not values or not all(0 < v < math.inf for v in values):
        raise AllocationError(f"need one or more {what}, all positive and finite")
    return _doubles(values, AllocationError, what)


def _balance_frame(values, what: str) -> tuple[list[float], tuple]:
    """(the values as doubles, their frame), for values as `_positive_doubles` takes them."""
    values = _positive_doubles(values, what)
    return values, functools.reduce(balance_step, values, None)


def reliability_real_blocks(exponents: list[float], q_total: int) -> list[float]:
    """Real-valued error-balancing optimum: Q_n*E_n - ln(E_n) is the same on every hop;
    AllocationError naming the first hop (from 0) whose finite exponent is <= 0."""
    _check_budget(q_total)
    if zero := [k for k, e in enumerate(exponents) if -math.inf < e <= 0]:
        raise AllocationError(f"hop {zero[0]}: rate at/above capacity, zero exponent")
    exponents, frame = _balance_frame(exponents, "exponents (rates below capacity)")
    return [balance_share(e, frame, q_total) for e in exponents]


def reliability_optimal_blocks(exponents: list[float], q_total: int) -> list[int]:
    """Integer blocklengths minimizing sum(exp(-Q_n E_n)) under sum(Q_n) = Q, Q_n >= 1.

    Starts from the floored real optimum under Q_n >= 1, whose shares keep
    their sum Q, so the floors sum to within N of Q for any Q up to 2**53,
    and runs the greedy marginal allocation.  Its fill takes the missing units
    from one sort of the hops' next-unit gains, which is the greedy's order
    unless a hop's second unit would come before the last pick; then, and
    where an exchange remains, the greedy runs on lazy heaps.  It stops only
    when no one-unit exchange lowers the objective (compared in the log
    domain), which for this separable convex objective makes the split optimal
    among integer splits up to float rounding: no one-unit exchange lowers the
    log-objective by more than 1e-12 of its log terms.  Above Q ~ 1e15 the
    split may be the worse of two neighbours less than 4e-31 apart in
    log-objective.  Only strict improvements move, so splits of equal cost
    keep the starting rounding.  Feasible whenever Q >= N.
    """
    return _balanced_blocks(exponents, q_total, reliability_real_blocks(exponents, q_total))


def _balanced_blocks(exponents: list[float], q_total: int, shares: list[float]) -> list[int]:
    """The split of `reliability_optimal_blocks`, from the real optimum `shares`
    = reliability_real_blocks(exponents, q_total) that the caller holds."""
    _check_budget(q_total)
    n = len(exponents)
    if q_total < n:
        raise AllocationError(f"budget {q_total} cannot give every one of {n} hops a block")
    # pin hops whose real share is below 1 at 1 and re-balance the rest (each
    # pass raises the common level), so the floors do not overshoot Q; the
    # cap leaves one unit for every other hop
    free = list(range(n))
    while min(shares) < 1.0 <= max(shares):
        free = [i for i, v in zip(free, shares) if v >= 1.0]
        shares = reliability_real_blocks([exponents[i] for i in free], q_total - n + len(free))
    floors, cap = list(map(math.floor, shares)), q_total - n + 1
    if not 1 <= min(floors) <= max(floors) <= cap:
        floors = [min(max(b, 1), cap) for b in floors]
    blocks = floors
    if len(free) < n:  # a pinned hop holds 1
        blocks = [1] * n
        for i, b in zip(free, floors):
            blocks[i] = b
    # step(b, E) = -b E + log(1 - exp(-E)) is the log of the objective drop
    # from Q_n = b to b + 1: fill (or drain) one unit at a time at the largest
    # gain (smallest loss), then move a unit from the smallest loss to the
    # largest gain while that strictly improves
    log_gap = [math.log(-math.expm1(-e)) for e in exponents]
    placed = sum(blocks)
    if placed < q_total and (filled := _sorted_fill(blocks, exponents, log_gap, q_total - placed)):
        blocks, placed = filled, q_total
    if placed == q_total and _no_exchange(blocks, exponents, log_gap):
        return blocks
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


def _sorted_fill(blocks: list[int], exponents: list[float], log_gap: list[float],
                 units: int) -> list[int] | None:
    """`blocks` after the heap greedy's fill of `units` units, from one sort of each
    hop's next-unit key b E - log_gap, ties to the lowest index; None where that
    is not the heap's pop order: more units than hops, or a picked hop's
    following unit would come before the last pick."""
    if units > len(blocks):
        return None
    keys = [b * e - g for b, e, g in zip(blocks, exponents, log_gap)]
    picks = sorted(range(len(blocks)), key=keys.__getitem__)[:units]
    last = picks[-1]
    if min(((blocks[i] + 1) * exponents[i] - log_gap[i], i) for i in picks) < (keys[last], last):
        return None
    filled = blocks.copy()
    for i in picks:
        filled[i] += 1
    return filled


def _no_exchange(blocks: list[int], exponents: list[float], log_gap: list[float]) -> bool:
    """The heap greedy's stop test on `blocks`: the largest gain of one more unit is
    no more than the smallest loss of one less on another hop (ties to the lowest
    index), or no hop holds more than one unit."""
    gains = [b * e - g for b, e, g in zip(blocks, exponents, log_gap)]
    # a loss g - (b - 1) E is at most 0, so +inf marks a hop at one unit
    losses = [g - (b - 1) * e if b > 1 else math.inf
              for b, e, g in zip(blocks, exponents, log_gap)]
    gain, loss = min(gains), min(losses)
    return loss == math.inf or gains.index(gain) == losses.index(loss) or -gain <= loss


def info_continuous_log_m(rates: list[float], q_total: int) -> float:
    """ln M for the common-codeword-count allocation: Q / sum(1/R_n)."""
    _check_budget(q_total)
    return balance_log_m(_balance_frame(rates, "rates")[1], q_total)


def information_continuous_blocks(rates: list[float], q_total: int,
                                  ln_m: float | None = None) -> list[int]:
    """Common-M allocation: Q_n = floor(ln M / R_n), leftovers by remainder;
    `ln_m` is info_continuous_log_m(rates, q_total) where the caller holds it.

    The floors and remainders are those of the exact shares Q (1/R_n) /
    sum_m 1/R_m: the float shares ln M / R_n give them where their error
    bound certifies every floor and the cut between the remainders that get
    the leftover and the rest; otherwise integer arithmetic does."""
    _check_budget(q_total)
    n = len(rates)
    if q_total < n:
        raise AllocationError(f"budget {q_total} cannot give every one of {n} hops a block")
    if ln_m is None:
        rates, frame = _balance_frame(rates, "rates")
        ln_m = balance_log_m(frame, q_total)
    else:
        rates = _positive_doubles(rates, "rates")
        ln_m = _doubles([ln_m], AllocationError, "ln M")[0]
    shares = [ln_m / r for r in rates]
    if not all(math.isfinite(v) for v in shares):
        raise AllocationError("real-valued allocation is not finite")
    blocks = [math.floor(v) for v in shares]
    remainders = [v - b for v, b in zip(shares, blocks)]
    by_remainder = sorted(range(n), key=lambda i: (-remainders[i], i))
    leftover = q_total - sum(blocks)
    # ln M's fold and the divides round at most ~3N + 3 times, so while ln M is
    # a normal double each float share is within `slack` of its exact share
    slack = (8 * n + 16) * 2.0 ** -53 * q_total
    if not (ln_m >= 2.0 ** -1022 and all(2 * slack < f < 1 - 2 * slack for f in remainders)
            and (leftover == 0 or 0 < leftover < n and remainders[by_remainder[leftover - 1]]
                 - remainders[by_remainder[leftover]] > 2 * slack)):
        # a floor or the cut between the remainders is not certain
        blocks, by_remainder = _exact_common_m_split(rates, q_total)
        leftover = q_total - sum(blocks)
    for i in by_remainder[:leftover]:
        blocks[i] += 1
    if min(blocks) < 1:
        raise AllocationError("cannot keep every hop at blocklength >= 1")
    return blocks


def rate_policy_scale(capacities: list[float], target_rate: float) -> list[float]:
    """Capacity-proportional per-hop rates hitting a target end-to-end rate.

    R_n = beta * I_n with beta = target / network capacity; requires the
    target not to exceed the network capacity 1/sum(1/I_n).
    """
    if not target_rate > 0:
        raise AllocationError(f"target rate must be positive, got {target_rate}")
    network = network_capacity(capacities)
    if target_rate > network:
        raise AllocationError(f"target rate {target_rate} exceeds network capacity {network}")
    beta = target_rate / network
    return [beta * c for c in capacities]
