"""Random-coding and sphere-packing exponents as functions of rate.

Both exponents maximize -rho*R + E0(rho); the random-coding exponent over
rho in [0, 1], the sphere-packing exponent over rho > 0.  Since E0 is
concave in rho, the interior maximizer solves dE0/drho = R; it is found by
Newton's method on that equation, on Python floats, with every step kept
inside a bisection bracket.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .channel import ChannelError, HopChannel, capacity, e0_derivative, e0_terms

__all__ = [
    "Regime",
    "ExponentResult",
    "RHO_MAX",
    "random_coding_exponent",
    "sphere_packing_exponent",
    "critical_rate",
]

# sphere-packing maximizer diverges as R -> 0; cap it and flag the regime
RHO_MAX = 1e6

# Newton's stopping distance in ulps (of rho for the step, of the rate for the slope)
_ULPS = 4


class Regime:
    PARAMETRIC_INTERIOR = "parametric_interior"
    RHO_CLAMPED_AT_ONE = "rho_clamped_at_one"
    ZERO_ABOVE_CAPACITY = "zero_above_capacity"
    RHO_CAPPED = "rho_capped"


@dataclass(frozen=True)
class ExponentResult:
    exponent: float  # nats per channel use
    rho_star: float
    regime: str


def _maximize(rate: float, ch: HopChannel, rho_cap: float,
              capped_regime: str) -> ExponentResult:
    """max of E0(rho) - rho*rate over 0 <= rho <= rho_cap, for 0 <= rate.

    Doubles the bracket from [0, 1] until dE0/drho falls to the rate; a root
    past rho_cap gives the value at the cap with `capped_regime`.  Then runs
    Newton on dE0/drho = rate from the bracket's secant point; a step that
    leaves the bracket is replaced by its midpoint.  Stops when the step or
    the slope error is within a few ulps, or the bracket ends are adjacent.
    """
    rate = float(rate)
    lo_slope = capacity(ch)  # dE0/drho at rho = 0
    if rate >= lo_slope:
        return ExponentResult(0.0, 0.0, Regime.ZERO_ABOVE_CAPACITY)
    terms = e0_terms(ch)
    lo, hi = 0.0, 1.0
    value, slope, curve = terms(hi)
    while slope > rate:
        if hi >= rho_cap:
            return ExponentResult(value - hi * rate, hi, capped_regime)
        lo, lo_slope, hi = hi, slope, min(2.0 * hi, rho_cap)
        value, slope, curve = terms(hi)
    rho, nxt = hi, lo + (hi - lo) * (lo_slope - rate) / (lo_slope - slope)
    while True:
        if not lo < nxt < hi:
            nxt = 0.5 * (lo + hi)
            if not lo < nxt < hi:
                break
        rho = nxt
        value, slope, curve = terms(rho)
        if slope > rate:
            lo = rho
        else:
            hi = rho
        step = (slope - rate) / curve if curve < 0 else math.nan
        if abs(step) <= _ULPS * math.ulp(rho) or abs(slope - rate) <= _ULPS * math.ulp(rate):
            break
        nxt = rho - step
    return ExponentResult(max(value - rho * rate, 0.0), rho, Regime.PARAMETRIC_INTERIOR)


def random_coding_exponent(rate: float, ch: HopChannel) -> ExponentResult:
    """Random-coding exponent E_r(rate) with its maximizing rho.

    Returns 0 at/above capacity; below the critical rate the maximizer
    clamps at rho = 1 and E_r = E0(1) - rate.
    """
    if not rate >= 0:
        raise ChannelError(f"rate must be nonnegative, got {rate}")
    return _maximize(rate, ch, 1.0, Regime.RHO_CLAMPED_AT_ONE)


def sphere_packing_exponent(rate: float, ch: HopChannel) -> ExponentResult:
    """Sphere-packing exponent E_sp(rate); rho unbounded above.

    Requires rate > 0 (the maximizer diverges as rate -> 0); if the root
    exceeds RHO_MAX the value at the cap is returned with regime
    RHO_CAPPED.
    """
    if not rate > 0:
        raise ChannelError(f"rate must be positive for sphere packing, got {rate}")
    return _maximize(rate, ch, RHO_MAX, Regime.RHO_CAPPED)


def critical_rate(ch: HopChannel) -> float:
    """Smallest rate where the two exponents coincide: dE0/drho at rho = 1."""
    return float(e0_derivative(1.0, ch))
