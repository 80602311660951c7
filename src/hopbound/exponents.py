"""Random-coding and sphere-packing exponents as functions of rate.

Both exponents maximize -rho*R + E0(rho); the random-coding exponent over
rho in [0, 1], the sphere-packing exponent over rho > 0 (+inf below a DMC's
R_inf).  Since E0 is concave in rho, the interior maximizer solves dE0/drho =
R; it is found by Newton's method on that equation, on Python floats, with
every step kept inside a bisection bracket.  One solve gives both: RC's result
is read at its first step, rho = 1 (Gallager 1968, sec. 5.6).

`hop_exponents` solves a list of hops in one array pass per group: the AWGN
hops, and the hops on each set of equal DMC channels.  Each element takes the
scalar solve's IEEE-754 operations in the same order, so the results are
bit-identical.  Both steps, the scalar `channel.e0_terms` and the array
`channel._awgn_terms` or `channel.e0_dmc_terms`, are `channel`'s.  The array
passes bypass `random_coding_exponent` and `sphere_packing_exponent`, so wrappers
of those two do not see them.
"""

from __future__ import annotations

import functools
import math
import numbers
import operator
from dataclasses import dataclass

import numpy as np

from . import _doubles
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


def _maximize(rate: float, ch: HopChannel, rho_cap: float) -> tuple[ExponentResult, ...]:
    """(RC, SP): max of E0(rho) - rho*rate over rho in [0, 1] and [0, rho_cap], for 0 <= rate.

    Doubles the bracket from [0, 1] until dE0/drho falls to the rate; RC clamps at
    rho = 1 if it doubles, and there stops at rho_cap = 1.  A root past _RHO_LIMIT
    raises ChannelError.  Then runs Newton on dE0/drho = rate from the bracket's
    secant point; a step that leaves the bracket is replaced by its midpoint.  Stops
    when the step or the slope error is within a few ulps, or the bracket ends are
    adjacent."""
    rate = float(rate)
    lo_slope = capacity(ch)  # dE0/drho at rho = 0
    if rate >= lo_slope:
        return (ExponentResult(0.0, 0.0, Regime.ZERO_ABOVE_CAPACITY),) * 2
    terms = e0_terms(ch)
    lo, hi = 0.0, 1.0
    value, slope, curve = terms(hi)
    rc = ExponentResult(value - rate, hi, Regime.RHO_CLAMPED_AT_ONE) if slope > rate else None
    while slope > rate:
        if hi >= rho_cap:
            return rc, rc
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
    res = ExponentResult(max(value - rho * rate, 0.0), rho, Regime.PARAMETRIC_INTERIOR)
    return rc or res, res


def _check_rate(rate, sp: bool) -> None:
    """ChannelError unless rate is a real number, not a bool (as in a scenario), that
    converts to a double, in the family's domain: > 0 for sphere packing (sp), >= 0 for
    random coding."""
    if isinstance(rate, bool) or not isinstance(rate, numbers.Real):
        raise ChannelError(f"rate must be a real number, got {rate!r}")
    _doubles([rate], ChannelError, "rate")
    if not (rate > 0 if sp else rate >= 0):
        raise ChannelError(f"rate must be positive for sphere packing, got {rate}" if sp
                           else f"rate must be nonnegative, got {rate}")


def random_coding_exponent(rate: float, ch: HopChannel) -> ExponentResult:
    """Random-coding exponent E_r(rate) with its maximizing rho.

    Returns 0 at/above capacity; below the critical rate the maximizer
    clamps at rho = 1 and E_r = E0(1) - rate.
    """
    _check_rate(rate, sp=False)
    return _maximize(rate, ch, 1.0)[0]


def sphere_packing_exponent(rate: float, ch: HopChannel) -> ExponentResult:
    """Sphere-packing exponent E_sp(rate) = sup over rho > 0 of E0(rho) - rho*rate.

    Requires rate > 0; +inf below R_inf (`HopChannel`): (inf, inf, infinite_below_r_inf).  At
    R_inf > 0 the sup, R_inf - ln sum_{y: phi_y max} exp(sum_x q(x) ln p(y|x) / phi_y), phi_y =
    sum_x q(x) [p(y|x) > 0], is not attained: the solve stops where the float slope does.  Past
    2**1014 it raises ChannelError.  A DMC's step loses ~eps*rho of its slope: past ~1e7, few
    digits of its rho* hold, while E_sp keeps ~1e-8.
    """
    _check_rate(rate, sp=True)
    if rate < ch._r_inf:
        return ExponentResult(math.inf, math.inf, Regime.INFINITE_BELOW_R_INF)
    return _maximize(rate, ch, math.inf)[1]


# regime codes of `_array_exponents`, indices of their names
_ABOVE, _CLAMPED, _INTERIOR, _INFINITE = range(4)
_REGIMES = np.array([Regime.ZERO_ABOVE_CAPACITY, Regime.RHO_CLAMPED_AT_ONE,
                     Regime.PARAMETRIC_INTERIOR, Regime.INFINITE_BELOW_R_INF], dtype=object)


def _array_exponents(rates, caps, params, terms, r_inf: float):
    """RC's and SP's (exponent, rho_star, regime) arrays, `_maximize`'s at rates > 0 on
    hops of capacities `caps`, bit for bit (SP +inf below `r_inf`), given terms(rho, par):
    the step's (E0, dE0/drho, d2E0/drho2) arrays, element for element its floats, where
    `par` holds the active hops' entries of `params` (an AWGN hop's SNR).  Runs the
    bracket doubling and safeguarded Newton steps on float64 arrays, dropping each
    element, and its entry of `params`, from the active set when it stops (np.spacing
    equals math.ulp on these non-negative values)."""
    rate = np.array(rates, dtype=float)
    n = rate.size
    rho_star, e0_star = np.zeros(n), np.zeros(n)
    code = np.zeros(n, dtype=np.int8)

    cap = np.array(caps, dtype=float)
    idx = np.flatnonzero(rate < cap)  # the rest are zero above capacity
    r, par, lo_slope = rate[idx], np.asarray(params)[idx], cap[idx]
    lo, hi = np.zeros(idx.size), np.ones(idx.size)
    e0, slope, _ = terms(hi, par)
    up = np.flatnonzero(slope > r)
    clamped, clamped_e0 = idx[up], e0[up]  # RC's, at rho = 1
    below = r < r_inf  # E_sp = +inf: no doubling
    # double the bracket until dE0/drho falls to the rate; `up` shares its end `end`
    up, end = up[~below[up]], 1.0
    while up.size:
        end *= 2.0
        if end > _RHO_LIMIT:
            raise ChannelError(_OVERFLOW)
        lo[up], lo_slope[up], hi[up] = hi[up], slope[up], end
        e0[up], slope[up], _ = terms(hi[up], par[up])
        up = up[slope[up] > r[up]]
    below, live = idx[below], ~below | (slope <= r)
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
                if not idx.size:
                    break
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
    exponent[solved] = np.where(0.0 > value, 0.0, value)
    rc = exponent.copy(), rho_star.copy(), code.copy()
    rc[0][clamped], rc[1][clamped], rc[2][clamped] = clamped_e0 - rate[clamped], 1.0, _CLAMPED
    exponent[below], rho_star[below], code[below] = math.inf, math.inf, _INFINITE
    return [(e, rho, _REGIMES[c]) for e, rho, c in (rc, (exponent, rho_star, code))]


_KIND, _SNR, _CAPACITY = map(operator.attrgetter, ("kind", "snr", "_capacity"))
_POSITIVE = functools.partial(operator.lt, 0.0)


def hop_exponents(rates, hops) -> tuple[list, list]:
    """(rc, sp): the [exponents, rho_stars, regimes] lists of `random_coding_exponent`
    and of `sphere_packing_exponent` on each hop at its rate, in hop order, bit for
    bit, from one solve per hop.  Every rate must be in sphere packing's domain: the
    first that is not raises its ChannelError, as does an SP root past 2**1014.  Where
    SP fails, solve RC alone with `random_coding_exponent`."""
    if len(rates) != len(hops):
        raise ValueError(f"rates and hops differ in length ({len(rates)} and {len(hops)})")
    if not (set(map(type, rates)) <= {float} and all(map(_POSITIVE, rates))):
        for rate in rates:
            _check_rate(rate, sp=True)
    n, kinds = len(hops), list(map(_KIND, hops))
    if n and kinds.count("awgn") == n:  # no DMC, and one group
        by_channel = {"awgn": list(range(n))}
    else:
        groups, by_channel = {}, {}
        for i, kind in enumerate(kinds):  # the AWGN hops, and the hops on each DMC object
            groups.setdefault("awgn" if kind == "awgn" else id(hops[i]), []).append(i)
        for key, group in groups.items():  # equal DMCs merge, each object hashed once
            by_channel.setdefault(key if key == "awgn" else hops[group[0]], []).extend(group)
    out = ([[None] * n, [None] * n, [None] * n], [[None] * n, [None] * n, [None] * n])
    for key, group in by_channel.items():
        group.sort()  # merged groups interleave
        members = hops if len(group) == n else [hops[i] for i in group]
        if key == "awgn":
            params, terms = list(map(_SNR, members)), _awgn_terms
        else:
            dmc_terms = e0_dmc_terms(members[0])
            params, terms = np.zeros(len(group)), lambda rho, _: dmc_terms(rho)
        solved = _array_exponents(rates if len(group) == n else [rates[i] for i in group],
                                  list(map(_CAPACITY, members)), params, terms,
                                  members[0]._r_inf)
        if len(group) == n:  # every hop in one pass: its arrays are the columns
            return tuple([values.tolist() for values in family] for family in solved)
        for columns, family in zip(out, solved):
            for column, values in zip(columns, family):
                for i, value in zip(group, values.tolist()):
                    column[i] = value
    return out


def critical_rate(ch: HopChannel) -> float:
    """Smallest rate where the two exponents coincide: dE0/drho at rho = 1."""
    return float(e0_derivative(1.0, ch))
