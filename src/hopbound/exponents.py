"""Random-coding and sphere-packing exponents as functions of rate.

Both exponents maximize -rho*R + E0(rho); the random-coding exponent over
rho in [0, 1], the sphere-packing exponent over rho > 0.  Since E0 is
concave in rho, the interior maximizer solves dE0/drho = R; it is found by
Newton's method on that equation, on Python floats, with every step kept
inside a bisection bracket.

`hop_exponents` solves a list of hops.  ARRAY_MIN_HOPS or more AWGN hops, and
the hops on each DMC channel object, take one array pass: each element takes
the scalar solve's IEEE-754 operations in the same order, so the results are
bit-identical.  Those solves bypass `random_coding_exponent`
and `sphere_packing_exponent`, so wrappers of those two do not see them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import (ChannelError, HopChannel, capacity, e0_derivative, e0_dmc_terms,
                      e0_terms)

__all__ = [
    "Regime",
    "ExponentResult",
    "RHO_MAX",
    "random_coding_exponent",
    "sphere_packing_exponent",
    "hop_exponents",
    "critical_rate",
    "ARRAY_MIN_HOPS",
]

# sphere-packing maximizer diverges as R -> 0; cap it and flag the regime
RHO_MAX = 1e6

# AWGN hops from which one `_array_exponents` call beats per-hop solves: its
# ~0.25 ms against 3-4 (RC) or 6-8 us (SP) per hop; RC's break-even, SP's is ~50
ARRAY_MIN_HOPS = 80

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


def _awgn_terms(rho: np.ndarray, snr: np.ndarray):
    """`e0_terms`'s AWGN step over arrays: the same operations, element for element
    (math.log1p per element, as np.log1p may differ in the last bit)."""
    a = 1.0 + rho
    log_term = np.fromiter(map(math.log1p, (snr / a).tolist()), float, rho.size)
    u, v = snr / (a + snr), rho / a
    vu = v * u
    return rho * log_term, log_term - vu, -(u / a) * (2.0 / a + vu)


# regime codes of `_array_exponents`
_ABOVE, _CAPPED, _INTERIOR = 0, 1, 2


def _array_exponents(rates, caps, params, terms, rho_cap: float, capped_regime: str):
    """(exponent, rho_star, regime) arrays of `_maximize` at valid rates on hops
    of capacities `caps`, bit for bit, given terms(rho, par): the step's
    (E0, dE0/drho, d2E0/drho2) arrays, element for element its floats, where
    `par` holds the active hops' entries of `params` (an AWGN hop's SNR).  Runs
    the bracket doubling and safeguarded Newton steps on float64 arrays, dropping
    each element, and its entry of `params`, from the active set when it stops
    (np.spacing equals math.ulp on these non-negative values)."""
    rate = np.array(rates, dtype=float)
    n = rate.size
    rho_star, e0_star = np.zeros(n), np.zeros(n)
    code = np.zeros(n, dtype=np.int8)

    cap = np.array(caps, dtype=float)
    idx = np.flatnonzero(rate < cap)  # the rest are zero above capacity
    r, par, lo_slope = rate[idx], np.asarray(params)[idx], cap[idx]
    lo, hi = np.zeros(idx.size), np.ones(idx.size)
    e0, slope, _ = terms(hi, par)
    # double the bracket until dE0/drho falls to the rate, stopping at the cap
    up = np.flatnonzero(slope > r)
    while up.size:
        at_cap = hi[up] >= rho_cap
        done = up[at_cap]
        rho_star[idx[done]], e0_star[idx[done]], code[idx[done]] = hi[done], e0[done], _CAPPED
        up = up[~at_cap]
        lo[up], lo_slope[up] = hi[up], slope[up]
        hi[up] = np.minimum(2.0 * hi[up], rho_cap)
        e0[up], slope[up], _ = terms(hi[up], par[up])
        up = up[slope[up] > r[up]]
    live = code[idx] != _CAPPED
    idx, r, par, lo, lo_slope, hi, e0, slope = (
        a[live] for a in (idx, r, par, lo, lo_slope, hi, e0, slope))

    # Newton on dE0/drho = rate from the secant point, kept inside [lo, hi]
    rho, nxt = hi, lo + (hi - lo) * (lo_slope - r) / (lo_slope - slope)
    tol = _ULPS * np.spacing(r)

    def finish(stop):
        """Record the stopped elements' rho and E0; return the others' state."""
        rho_star[idx[stop]], e0_star[idx[stop]], code[idx[stop]] = rho[stop], e0[stop], _INTERIOR
        keep = ~stop
        return [a[keep] for a in (idx, r, par, tol, lo, hi, rho, e0, nxt)]

    while idx.size:
        inside = (lo < nxt) & (nxt < hi)
        if not inside.all():
            nxt = np.where(inside, nxt, 0.5 * (lo + hi))
            inside = (lo < nxt) & (nxt < hi)
            if not inside.all():  # adjacent bracket ends: stop at the last rho
                idx, r, par, tol, lo, hi, rho, e0, nxt = finish(~inside)
        rho = nxt
        e0, slope, curve = terms(rho, par)
        above = slope > r
        lo, hi = np.where(above, rho, lo), np.where(above, hi, rho)
        diff = slope - r
        step = np.divide(diff, curve, out=np.full(rho.size, math.nan), where=curve < 0)
        nxt = rho - step
        stop = (np.abs(step) <= _ULPS * np.spacing(rho)) | (np.abs(diff) <= tol)
        if stop.any():
            idx, r, par, tol, lo, hi, rho, e0, nxt = finish(stop)

    solved = np.flatnonzero(code)
    value = e0_star[solved] - rho_star[solved] * rate[solved]
    exponent = np.zeros(n)
    exponent[solved] = np.where((code[solved] == _INTERIOR) & (0.0 > value), 0.0, value)
    regimes = np.array([Regime.ZERO_ABOVE_CAPACITY, capped_regime, Regime.PARAMETRIC_INTERIOR],
                       dtype=object)
    return exponent, rho_star, regimes[code]


# RC regimes whose solve SP repeats float for float (see hop_exponents)
_SHARED_REGIMES = (Regime.PARAMETRIC_INTERIOR, Regime.ZERO_ABOVE_CAPACITY)


def hop_exponents(rates, hops, family: str, rc=None) -> list[list]:
    """[exponents, rho_stars, regimes] of `family` ("r" or "sp") of each hop at
    its rate, bit for bit those of `random_coding_exponent` or
    `sphere_packing_exponent` on each hop in hop order, errors included.  A hop
    whose regime in `rc`, the "r" result on the same hops and rates, is
    parametric_interior or zero_above_capacity takes that result: there the SP
    solve makes RC's Newton steps on the same floats (E_sp = E_r, Gallager 1968)."""
    if family == "r":
        solve, rho_cap, capped = random_coding_exponent, 1.0, Regime.RHO_CLAMPED_AT_ONE
    elif family == "sp":
        solve, rho_cap, capped = sphere_packing_exponent, RHO_MAX, Regime.RHO_CAPPED
    else:
        raise ValueError(f"family must be 'r' or 'sp', got {family!r}")
    for rate, ch in zip(rates, hops):
        if not (rate > 0 or rate == 0 and family == "r"):
            solve(rate, ch)  # raises the per-hop solver's ChannelError
    out = [list(column) for column in rc] if rc else [[None] * len(rates) for _ in range(3)]
    todo = [i for i, regime in enumerate(out[2]) if regime not in _SHARED_REGIMES]
    groups = {}
    for i in todo:  # the AWGN hops, and the hops on each DMC channel object
        groups.setdefault("awgn" if hops[i].kind == "awgn" else id(hops[i]), []).append(i)
    for key, group in groups.items():
        if key != "awgn":
            dmc_terms = e0_dmc_terms(hops[group[0]])
            params, terms = np.zeros(len(group)), lambda rho, _: dmc_terms(rho)
        elif len(group) >= ARRAY_MIN_HOPS:
            params, terms = [hops[i].snr for i in group], _awgn_terms
        else:
            for i in group:
                res = solve(rates[i], hops[i])
                out[0][i], out[1][i], out[2][i] = res.exponent, res.rho_star, res.regime
            continue
        solved = _array_exponents([rates[i] for i in group], [capacity(hops[i]) for i in group],
                                  params, terms, rho_cap, capped)
        for column, values in zip(out, solved):
            for i, value in zip(group, values.tolist()):
                column[i] = value
    return out


def critical_rate(ch: HopChannel) -> float:
    """Smallest rate where the two exponents coincide: dE0/drho at rho = 1."""
    return float(e0_derivative(1.0, ch))
