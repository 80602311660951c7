"""Random-coding and sphere-packing exponents as functions of rate.

Both exponents maximize -rho*R + E0(rho); the random-coding exponent over
rho in [0, 1], the sphere-packing exponent over rho > 0.  Since dE0/drho
is strictly decreasing, the interior maximizer solves dE0/drho = R and is
found by bisection.
"""

from __future__ import annotations

from dataclasses import dataclass

from .channel import ChannelError, HopChannel, capacity, e0, e0_derivative

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

_RHO_TOL = 1e-12


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


def _bisect_rate(rate: float, ch: HopChannel, lo: float, hi: float) -> float:
    """Solve dE0/drho = rate on [lo, hi] (derivative is decreasing in rho).

    Stops at width _RHO_TOL, or at adjacent doubles where that is below an ulp.
    """
    while hi - lo > _RHO_TOL:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if e0_derivative(mid, ch) > rate:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _maximize(rate: float, ch: HopChannel, rho_cap: float,
              capped_regime: str) -> ExponentResult:
    """max of E0(rho) - rho*rate over 0 <= rho <= rho_cap, for 0 <= rate.

    Doubles the bracket from [0, 1] until dE0/drho falls to the rate, then
    bisects; if the root lies beyond rho_cap the value at the cap is
    returned with `capped_regime`.
    """
    if rate >= capacity(ch):
        return ExponentResult(0.0, 0.0, Regime.ZERO_ABOVE_CAPACITY)
    lo, hi = 0.0, 1.0
    while e0_derivative(hi, ch) > rate:
        if hi >= rho_cap:
            return ExponentResult(e0(hi, ch) - hi * rate, hi, capped_regime)
        lo, hi = hi, min(2.0 * hi, rho_cap)
    rho = _bisect_rate(rate, ch, lo, hi)
    return ExponentResult(max(e0(rho, ch) - rho * rate, 0.0), rho,
                          Regime.PARAMETRIC_INTERIOR)


def random_coding_exponent(rate: float, ch: HopChannel) -> ExponentResult:
    """Random-coding exponent E_r(rate) with its maximizing rho.

    Returns 0 at/above capacity; below the critical rate the maximizer
    clamps at rho = 1 and E_r = E0(1) - rate.
    """
    if rate < 0:
        raise ChannelError(f"rate must be nonnegative, got {rate}")
    return _maximize(rate, ch, 1.0, Regime.RHO_CLAMPED_AT_ONE)


def sphere_packing_exponent(rate: float, ch: HopChannel) -> ExponentResult:
    """Sphere-packing exponent E_sp(rate); rho unbounded above.

    Requires rate > 0 (the maximizer diverges as rate -> 0); if the root
    exceeds RHO_MAX the value at the cap is returned with regime
    RHO_CAPPED.
    """
    if rate <= 0:
        raise ChannelError(f"rate must be positive for sphere packing, got {rate}")
    return _maximize(rate, ch, RHO_MAX, Regime.RHO_CAPPED)


def critical_rate(ch: HopChannel) -> float:
    """Smallest rate where the two exponents coincide: dE0/drho at rho = 1."""
    return float(e0_derivative(1.0, ch))
