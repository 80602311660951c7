"""Per-hop channel models and the Gallager E0 function.

Two channel kinds are supported: a complex AWGN channel with an i.i.d.
Gaussian input (closed-form E0) and a finite discrete memoryless channel
given by its transition matrix and a fixed input distribution.  All rates
and exponents are in nats per channel use; SNR is stored linear.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "ChannelError",
    "HopChannel",
    "e0_awgn",
    "e0_dmc",
    "e0",
    "e0_derivative",
    "capacity",
    "snr_db_to_linear",
]

_ATOL_STOCHASTIC = 1e-12
_SLICE_ELEMENTS = 2 ** 16  # per slice of a DMC pass's (K, S, Y) arrays (`_sliced`)
_SERIES_U = 1e-4  # u = SNR/(1+rho+SNR) below which an AWGN step's slope is `_series_slope`
_RHO_LIMIT = 2.0 ** 1014  # the largest rho read: past it a DMC's (1 + rho) ln a_y may overflow


class ChannelError(ValueError):
    """Invalid channel parameters or out-of-domain arguments."""


@contextmanager
def _doubles(what: str):
    """Converts `what` to doubles, once, in its body; ChannelError for a value
    past the doubles' range, such as the int 10**400."""
    try:
        yield
    except OverflowError:
        raise ChannelError(f"{what} must convert to doubles, got one past their range") from None


@dataclass(frozen=True)
class HopChannel:
    """Channel state of a single hop.

    Either an AWGN channel with Gaussian input (``snr`` set, linear scale)
    or a finite DMC (``transition`` row-stochastic |S|x|Y| matrix plus an
    ``input_dist`` probability vector over the |S| inputs).

    The constants every solve reads are derived once, at construction, and
    kept outside the dataclass fields (so ``==``, hash, repr and
    ``dataclasses.replace`` see only the four fields, ``==`` and hash a DMC's
    arrays by shape and bytes): the capacity as a float and, for a DMC, the
    transition matrix without its unreached outputs and its log table, as
    read-only arrays, and R_inf = -ln max_y sum_x q(x) [p(y|x) > 0], below which
    E_sp = +inf (0 for AWGN).  A DMC keeps its matrix and input distribution
    read-only too (copies of writeable arrays), so none of them can drift.
    """

    kind: str  # "awgn" or "dmc"
    snr: float | None = None
    transition: np.ndarray | None = field(default=None, repr=False)
    input_dist: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.kind == "awgn":
            object.__setattr__(self, "_r_inf", 0.0)
            object.__setattr__(self, "_capacity", _awgn_capacities([self.snr])[0])
        elif self.kind == "dmc":
            if self.transition is None:
                raise ChannelError("DMC channel requires a transition matrix")
            p = np.asarray(self.transition, dtype=float)
            if p.ndim != 2:
                raise ChannelError("transition matrix must be 2-D")
            # written so that NaN entries fail the checks
            if not np.all(p >= 0):
                raise ChannelError("transition matrix entries must be nonnegative")
            if not np.all(np.abs(p.sum(axis=1) - 1.0) <= _ATOL_STOCHASTIC):
                raise ChannelError("transition matrix rows must sum to 1")
            if self.input_dist is None:
                q = np.full(p.shape[0], 1.0 / p.shape[0])
            else:
                q = np.asarray(self.input_dist, dtype=float)
            if q.shape != (p.shape[0],):
                raise ChannelError("input_dist length must match the number of inputs")
            if not (np.all(q >= 0) and abs(q.sum() - 1.0) <= _ATOL_STOCHASTIC):
                raise ChannelError("input_dist must be a probability vector")
            object.__setattr__(self, "transition", _read_only(p))
            object.__setattr__(self, "input_dist", _read_only(q))
            # the outputs no input reaches have a_y = 0 at every rho and drop out of E0
            reached = p[:, (q[:, None] * p).sum(axis=0) > 0]
            # ln p := 0 where p = 0, as w = 0 there
            log_reached = np.log(np.where(reached > 0, reached, 1.0))
            for name, table in (("_reached", reached), ("_log_reached", log_reached)):
                table.setflags(write=False)
                object.__setattr__(self, name, table)
            object.__setattr__(self, "_r_inf", -math.log1p(-float((q @ (reached == 0)).min())))
            object.__setattr__(self, "_capacity", _mutual_information(p, q))
        else:
            raise ChannelError(f"unknown channel kind {self.kind!r}")

    def __eq__(self, other):
        return self._key() == other._key() if isinstance(other, HopChannel) else NotImplemented

    def __hash__(self):
        return hash(self._key())

    def _key(self) -> tuple:
        return self.kind, self.snr, *(a if a is None else (a.shape, a.tobytes())
                                      for a in (self.transition, self.input_dist))

    @classmethod
    def awgn(cls, snr: float) -> "HopChannel":
        """AWGN hop with linear SNR (convert from dB at the boundary)."""
        return cls.awgn_hops([snr])[0]

    @classmethod
    def awgn_hops(cls, snrs) -> list["HopChannel"]:
        """`awgn` of each linear SNR, in one pass: the constructor's check and
        derived constants, each capacity from one np.log1p call over the list."""
        with _doubles("snr"):
            snrs = list(map(float, snrs))
        new, assign = object.__new__, object.__setattr__
        hops = []
        for snr, cap in zip(snrs, _awgn_capacities(snrs)):
            ch = new(cls)
            assign(ch, "__dict__", {"kind": "awgn", "snr": snr, "transition": None,
                                    "input_dist": None, "_r_inf": 0.0, "_capacity": cap})
            hops.append(ch)
        return hops

    @classmethod
    def dmc(cls, transition, input_dist=None) -> "HopChannel":
        return cls(kind="dmc", transition=np.asarray(transition, dtype=float),
                   input_dist=None if input_dist is None else np.asarray(input_dist, dtype=float))

    @classmethod
    def bsc(cls, crossover: float, input_dist=None) -> "HopChannel":
        """Binary symmetric channel with the given crossover probability."""
        p = float(crossover)
        if not 0.0 <= p <= 1.0:
            raise ChannelError(f"crossover must be in [0, 1], got {p}")
        return cls.dmc([[1.0 - p, p], [p, 1.0 - p]], input_dist)


def _awgn_capacities(snrs: list) -> list[float]:
    """ln(1 + SNR) of each SNR, from one np.log1p call, which equals the 0-d call
    bit for bit; ChannelError at the first SNR that is not finite and > 0."""
    for snr in snrs:
        if snr is None or not 0 < snr < math.inf:  # NaN fails it too
            raise ChannelError(f"AWGN channel requires a finite snr > 0, got {snr}")
    return np.log1p(np.array(snrs, dtype=float)).tolist()


def _read_only(a: np.ndarray) -> np.ndarray:
    """`a` if it is read-only already, else a read-only copy."""
    if a.flags.writeable:
        a = a.copy()
        a.setflags(write=False)
    return a


def e0_awgn(rho, snr: float):
    """E0(rho) = rho * ln(1 + SNR/(1+rho)) for a Gaussian-input AWGN hop.

    Accepts a scalar or ndarray rho; returns the same shape.  np.log1p may differ from
    the step's math.log1p in the last bit, but keeps the grid oracle's 2e6 rhos fast.
    """
    if not 0 < snr < math.inf:  # NaN fails it too
        raise ChannelError(f"snr must be positive and finite, got {snr}")
    with _doubles("snr"):
        snr = float(snr)
    return _column(lambda rho: (rho * np.log1p(snr / (1.0 + rho)),), rho, 0)


def e0_dmc(rho, ch: HopChannel):
    """E0(rho) for a finite DMC hop, vectorized over rho: the value column of
    `e0_dmc_terms`, so within rounding of 0 at rho = 0, and finite where every
    a_y^(1+rho) underflows.  Zero transition entries contribute zero."""
    if ch.kind != "dmc":
        raise ChannelError("e0_dmc requires a DMC channel")
    return _column(e0_dmc_terms(ch), rho, 0)


def _sliced(fn, elements: int):
    """fn on a 1-D array of K rhos in slices of `_SLICE_ELEMENTS` // `elements` rhos,
    at least one, so that the (K, S, Y) arrays of a DMC pass stay a few MB at any K;
    the slices' outputs are joined, bit for bit fn(rho) as each element of fn's
    output arrays depends on its own rho alone."""
    step = max(1, _SLICE_ELEMENTS // elements)
    return lambda rho: fn(rho) if rho.size <= step else tuple(map(np.concatenate, zip(
        *(fn(rho[k:k + step]) for k in range(0, rho.size, step)))))


def e0(rho, ch: HopChannel):
    """Dispatch E0 on the channel kind."""
    return e0_awgn(rho, ch.snr) if ch.kind == "awgn" else e0_dmc(rho, ch)


def e0_derivative(rho, ch: HopChannel):
    """Analytic dE0/drho, the slope column of the kind's array step, element for
    element that of `e0_terms`; at rho = 0 the mutual information."""
    terms = e0_dmc_terms(ch) if ch.kind == "dmc" else lambda rho: _awgn_terms(rho, ch.snr)
    return _column(terms, rho, 1)


def _column(terms, rho, k: int):
    """Column k of the array step `terms` on rho's elements, in rho's shape (a float
    for a scalar); ChannelError unless each is in [0, `_RHO_LIMIT`]."""
    with _doubles("rho"):
        rho = np.asarray(rho, dtype=float)
    if not np.all((rho >= 0) & (rho <= _RHO_LIMIT)):  # NaN fails it too
        raise ChannelError(f"rho must be nonnegative and finite, at most {_RHO_LIMIT:.4g}")
    out = terms(rho.ravel())[k].reshape(rho.shape)
    return float(out) if out.ndim == 0 else out


def e0_terms(ch: HopChannel):
    """The exponent solver's step: rho -> (E0, dE0/drho, d2E0/drho2) as floats.

    rho >= 0 is not validated; a DMC's step reads the reached-output matrix
    and its log table that the channel derived once, at construction.  AWGN,
    with a = 1+rho, b = a+SNR and u = SNR/b: d2E0/drho2 = -SNR (2b + rho SNR) / (ab)^2,
    in bounded ratios, and dE0/drho = ln(1 + SNR/a) - rho u/a, or `_series_slope`
    where that cancels.  DMC, with t = 1/(1+rho), a_y = sum_x q(x) p(y|x)^t,
    w(x|y) = q(x) p(y|x)^t / a_y, pi_y proportional to a_y^(1+rho) and
    g_y = ln a_y - t E_w[ln p | y] (Gallager 1968, sec. 5.6): dE0/drho = -E_pi[g]
    and d2E0/drho2 = -Var_pi(g) - t^3 E_pi[Var_w(ln p | y)].
    """
    if ch.kind == "awgn":
        def awgn_terms(rho, snr=ch.snr):
            a = 1.0 + rho
            log_term = math.log1p(snr / a)
            u, v = snr / (a + snr), rho / a
            slope = log_term - v * u if u >= _SERIES_U else _series_slope(u, a)
            return rho * log_term, slope, -(u / a) * (2.0 / a + v * u)
        return awgn_terms
    dmc_terms = e0_dmc_terms(ch)

    def one_rho(rho):
        value, slope, curve = dmc_terms(np.array([rho]))
        return float(value[0]), float(slope[0]), float(curve[0])
    return one_rho


def _awgn_terms(rho: np.ndarray, snr):
    """`e0_terms`'s AWGN step over arrays: the same operations, element for element
    (math.log1p per element, as np.log1p may differ in the last bit); `snr` is
    each rho's SNR, or one SNR for all."""
    a = 1.0 + rho
    log_term = np.fromiter(map(math.log1p, (snr / a).tolist()), float, rho.size)
    u, v = snr / (a + snr), rho / a
    vu = v * u
    slope = log_term - vu if u.min(initial=1.0) >= _SERIES_U else np.where(
        u < _SERIES_U, _series_slope(u, a), log_term - vu)
    return rho * log_term, slope, -(u / a) * (2.0 / a + vu)


def _series_slope(u, a):
    """An AWGN step's dE0/drho = h(u) + u/a, h(u) = -ln(1-u) - u = sum_{k>=2} u^k/k to u^5."""
    return u * u * (0.5 + u * (1.0 / 3.0 + u * (0.25 + u * 0.2))) + u / a


def e0_dmc_terms(ch: HopChannel):
    """The DMC step of `e0_terms` over an array of K rhos, on (K, S, Y) arrays (`_sliced`).

    Each element's floats are those of the step on one rho in Python floats,
    whatever K: where numpy's array forms may round otherwise, it takes np.sqrt
    at t = 0.5 (numpy's path for p ** 0.5), math.log and t ** 3 per element.
    """
    q = ch.input_dist[:, None]
    p, log_p = ch._reached, ch._log_reached

    def dmc_terms(rho):
        a1 = 1.0 + rho
        t = 1.0 / a1
        ts = t.tolist()
        powered = p ** t[:, None, None]
        if 0.5 in ts:
            powered[t == 0.5] = np.sqrt(p)
        weighted = q * powered
        a = weighted.sum(axis=1)
        log_a = np.log(a)
        # pi_y = e_y / total, scaled by the largest a_y^(1+rho) against underflow
        z = a1[:, None] * log_a
        top = z.max(axis=1)
        e = np.exp(z - top[:, None])[:, None, :]  # (K, 1, Y): matmul makes e @ g's ddot per row
        total = e.sum(axis=2)[:, 0]
        w = weighted / a[:, None, :]
        mean_w = (w * log_p).sum(axis=1)
        var_w = (w * (log_p - mean_w[:, None, :]) ** 2).sum(axis=1)
        g = log_a - t[:, None] * mean_w
        d1 = -np.matmul(e, g[:, :, None])[:, 0, 0] / total
        cube = np.array([x ** 3 for x in ts])[:, None]
        d2 = -np.matmul(e, ((g + d1[:, None]) ** 2 + cube * var_w)[:, :, None])[:, 0, 0] / total
        return -(top + np.fromiter(map(math.log, total.tolist()), float, rho.size)), d1, d2
    return _sliced(dmc_terms, p.size)


def capacity(ch: HopChannel) -> float:
    """Mutual information of the hop at its fixed input distribution (nats/use).

    Derived once, when the channel is built; this reads the stored float.
    """
    return ch._capacity


def snr_db_to_linear(db: float) -> float:
    """The linear SNR of `db` decibels; ChannelError if it overflows a double, is 0
    or is not finite (`db` inf or NaN)."""
    try:
        snr = 10.0 ** (db / 10.0)
    except OverflowError:
        raise ChannelError(f"SNR of {db} dB overflows a double") from None
    if not 0.0 < snr < math.inf:
        raise ChannelError(f"SNR of {db} dB underflows to 0" if snr == 0.0
                           else f"SNR of {db} dB is not finite")
    return snr


def _mutual_information(p: np.ndarray, q: np.ndarray) -> float:
    """I(X; Y) of a DMC's transition matrix `p` at input distribution `q`."""
    marginal = q @ p  # output distribution, (Y,)
    joint = q[:, None] * p
    with np.errstate(divide="ignore", invalid="ignore"):
        logratio = np.where(joint > 0, np.log(p / marginal[None, :]), 0.0)
    return float(np.sum(joint * logratio))
