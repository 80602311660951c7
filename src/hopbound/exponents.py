"""Random-coding and sphere-packing exponents as functions of rate.

Both exponents maximize -rho*R + E0(rho); the random-coding exponent over
rho in [0, 1], the sphere-packing exponent over rho > 0 (+inf below a DMC's
R_inf).  Since E0 is concave in rho, the interior maximizer solves dE0/drho =
R; it is found by Newton's method on that equation, on Python floats, with
every step kept inside a bisection bracket.

`hop_exponents` solves a list of hops.  ARRAY_MIN_HOPS or more AWGN hops, and
the hops on equal DMC channels, take one array pass: each element takes
the scalar solve's IEEE-754 operations in the same order, so the results are
bit-identical.  Both steps, the scalar `channel.e0_terms` and the array
`channel._awgn_terms` or `channel.e0_dmc_terms`, are `channel`'s.  Those solves
bypass `random_coding_exponent` and `sphere_packing_exponent`, so wrappers of
those two do not see them.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .channel import (_RHO_LIMIT, ChannelError, HopChannel, _awgn_terms, capacity,
                      e0_derivative, e0_dmc_terms, e0_terms)

__all__ = [
    "Regime",
    "ExponentResult",
    "random_coding_exponent",
    "sphere_packing_exponent",
    "hop_exponents",
    "critical_rate",
]

# AWGN hops from which one `_array_exponents` call beats per-hop solves: its
# ~0.25 ms against 3-4 (RC) or 6-8 us (SP) per hop; RC's break-even, SP's is ~50
ARRAY_MIN_HOPS = 80

# Newton's stopping distance in ulps (of rho for the step, of the rate for the slope)
_ULPS = 4
_OVERFLOW = f"the sphere-packing maximizer rho* exceeds {_RHO_LIMIT:.4g}"


class Regime:
    PARAMETRIC_INTERIOR = "parametric_interior"
    RHO_CLAMPED_AT_ONE = "rho_clamped_at_one"
    ZERO_ABOVE_CAPACITY = "zero_above_capacity"
    INFINITE_BELOW_R_INF = "infinite_below_r_inf"


@dataclass(frozen=True)
class ExponentResult:
    exponent: float  # nats per channel use
    rho_star: float
    regime: str


def _maximize(rate: float, ch: HopChannel, rho_cap: float) -> ExponentResult:
    """max of E0(rho) - rho*rate over 0 <= rho <= rho_cap (1 or inf), for 0 <= rate.

    Doubles the bracket from [0, 1] until dE0/drho falls to the rate; a root past
    rho_cap = 1 clamps there, and a root past _RHO_LIMIT raises ChannelError.
    Then runs Newton on dE0/drho = rate from the bracket's secant point; a step
    that leaves the bracket is replaced by its midpoint.  Stops when the step or
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
            return ExponentResult(value - hi * rate, hi, Regime.RHO_CLAMPED_AT_ONE)
        lo, lo_slope, hi = hi, slope, 2.0 * hi
        if hi > _RHO_LIMIT:
            raise ChannelError(_OVERFLOW)
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
    return _maximize(rate, ch, 1.0)


def sphere_packing_exponent(rate: float, ch: HopChannel) -> ExponentResult:
    """Sphere-packing exponent E_sp(rate) = sup over rho > 0 of E0(rho) - rho*rate.

    Requires rate > 0; +inf below R_inf (`HopChannel`): (inf, inf, infinite_below_r_inf).  At
    R_inf > 0 the sup, R_inf - ln sum_{y: phi_y max} exp(sum_x q(x) ln p(y|x) / phi_y), phi_y =
    sum_x q(x) [p(y|x) > 0], is not attained: the solve stops where the float slope does.  Past
    2**1014 it raises ChannelError.  A DMC's step loses ~eps*rho of its slope: past ~1e7, few
    digits of its rho* hold, while E_sp keeps ~1e-8.
    """
    if not rate > 0:
        raise ChannelError(f"rate must be positive for sphere packing, got {rate}")
    if rate < ch._r_inf:
        return ExponentResult(math.inf, math.inf, Regime.INFINITE_BELOW_R_INF)
    return _maximize(rate, ch, math.inf)


# regime codes of `_array_exponents`
_ABOVE, _CLAMPED, _INTERIOR = 0, 1, 2


def _array_exponents(rates, caps, params, terms, rho_cap: float):
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
    # double the bracket until dE0/drho falls to the rate; `up` shares its end `end`
    up, end = np.flatnonzero(slope > r), 1.0
    while up.size:
        if end >= rho_cap:
            rho_star[idx[up]], e0_star[idx[up]], code[idx[up]] = end, e0[up], _CLAMPED
            break
        end *= 2.0
        if end > _RHO_LIMIT:
            raise ChannelError(_OVERFLOW)
        lo[up], lo_slope[up], hi[up] = hi[up], slope[up], end
        e0[up], slope[up], _ = terms(hi[up], par[up])
        up = up[slope[up] > r[up]]
    live = code[idx] != _CLAMPED
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
    regimes = np.array([Regime.ZERO_ABOVE_CAPACITY, Regime.RHO_CLAMPED_AT_ONE,
                        Regime.PARAMETRIC_INTERIOR], dtype=object)
    return exponent, rho_star, regimes[code]


# the regimes of the hops that a hop_exponents call solves: none yet, or RC's clamped
# at rho = 1, the one RC result that SP does not repeat float for float
_UNSOLVED = frozenset((None, Regime.RHO_CLAMPED_AT_ONE))
# the rates that each family's per-hop solver takes (NaN fails both)
_VALID_RATE = {"r": functools.partial(operator.le, 0.0), "sp": functools.partial(operator.lt, 0.0)}
_KIND, _SNR, _CAPACITY = map(operator.attrgetter, ("kind", "snr", "_capacity"))


def hop_exponents(rates, hops, family: str, rc=None) -> list[list]:
    """[exponents, rho_stars, regimes] of `family` ("r" or "sp") of each hop at
    its rate, bit for bit those of `random_coding_exponent` or
    `sphere_packing_exponent` on each hop in hop order, errors included.  A hop
    at or above its R_inf whose regime in `rc`, the "r" result on the same hops
    and rates, is parametric_interior or zero_above_capacity takes that result:
    there SP makes RC's Newton steps on the same floats (E_sp = E_r, Gallager 1968)."""
    if family not in ("r", "sp"):
        raise ValueError(f"family must be 'r' or 'sp', got {family!r}")
    solve, rho_cap = ((random_coding_exponent, 1.0) if family == "r"
                      else (sphere_packing_exponent, math.inf))
    if len(rates) != len(hops):
        raise ValueError(f"rates and hops differ in length ({len(rates)} and {len(hops)})")
    if rc and any(len(column) != len(hops) for column in rc):
        raise ValueError(f"each column of rc must hold one entry per hop ({len(hops)})")
    valid = _VALID_RATE[family]
    if not all(map(valid, rates)):
        for rate, ch in zip(rates, hops):
            if not valid(rate):
                solve(rate, ch)  # raises the per-hop solver's ChannelError
    n, kinds = len(hops), list(map(_KIND, hops))
    awgn_only = kinds.count("awgn") == n  # no DMC: no R_inf, and one group
    out = [list(column) for column in rc] if rc else [[None] * n, [None] * n, [None] * n]
    for i, ch in enumerate(hops) if family == "sp" and not awgn_only else ():
        if rates[i] < ch._r_inf:  # E_sp = +inf below a DMC's R_inf, with no solve
            out[0][i], out[1][i], out[2][i] = math.inf, math.inf, Regime.INFINITE_BELOW_R_INF
    todo = itertools.compress(range(n), map(_UNSOLVED.__contains__, out[2]))
    groups = {}
    if awgn_only:
        groups["awgn"] = list(todo)
    else:
        for i in todo:  # the AWGN hops, and the hops on each DMC object
            groups.setdefault("awgn" if kinds[i] == "awgn" else id(hops[i]), []).append(i)
    by_channel = {}
    for key, group in groups.items():  # equal DMCs merge, each object hashed once
        by_channel.setdefault(key if key == "awgn" else hops[group[0]], []).extend(group)
    for key, group in by_channel.items():
        if key == "awgn" and len(group) < ARRAY_MIN_HOPS:
            for i in group:
                res = solve(rates[i], hops[i])
                out[0][i], out[1][i], out[2][i] = res.exponent, res.rho_star, res.regime
            continue
        group.sort()  # merged groups interleave
        members = hops if len(group) == n else [hops[i] for i in group]
        if key == "awgn":
            params, terms = list(map(_SNR, members)), _awgn_terms
        else:
            dmc_terms = e0_dmc_terms(members[0])
            params, terms = np.zeros(len(group)), lambda rho, _: dmc_terms(rho)
        solved = _array_exponents(rates if len(group) == n else [rates[i] for i in group],
                                  list(map(_CAPACITY, members)), params, terms, rho_cap)
        if len(group) == n:  # every hop in one pass: its arrays are the columns
            out = [values.tolist() for values in solved]
            continue
        for column, values in zip(out, solved):
            for i, value in zip(group, values.tolist()):
                column[i] = value
    return out


def critical_rate(ch: HopChannel) -> float:
    """Smallest rate where the two exponents coincide: dE0/drho at rho = 1."""
    return float(e0_derivative(1.0, ch))
