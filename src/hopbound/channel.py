"""Per-hop channel models and the Gallager E0 function.

Two channel kinds are supported: a complex AWGN channel with an i.i.d.
Gaussian input (closed-form E0) and a finite discrete memoryless channel
given by its transition matrix and a fixed input distribution.  All rates
and exponents are in nats per channel use; SNR is stored linear.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "ChannelError",
    "HopChannel",
    "e0_awgn",
    "e0_dmc",
    "e0",
    "e0_derivative",
    "e0_terms",
    "e0_dmc_terms",
    "capacity",
]

_ATOL_STOCHASTIC = 1e-12


class ChannelError(ValueError):
    """Invalid channel parameters or out-of-domain arguments."""


@dataclass(frozen=True)
class HopChannel:
    """Channel state of a single hop.

    Either an AWGN channel with Gaussian input (``snr`` set, linear scale)
    or a finite DMC (``transition`` row-stochastic |S|x|Y| matrix plus an
    ``input_dist`` probability vector over the |S| inputs).

    The constants every solve reads are derived once, at construction, and
    kept outside the dataclass fields (so ``==``, hash, repr and
    ``dataclasses.replace`` see only the four fields): the capacity as a
    float and, for a DMC, the transition matrix without its unreached
    outputs and its log table, as read-only arrays.  A DMC keeps its matrix
    and input distribution read-only too (copies of writeable arrays), so
    they cannot drift from those constants.
    """

    kind: str  # "awgn" or "dmc"
    snr: float | None = None
    transition: np.ndarray | None = field(default=None, repr=False)
    input_dist: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.kind == "awgn":
            if self.snr is None or not 0 < self.snr < math.inf:
                raise ChannelError(f"AWGN channel requires a finite snr > 0, got {self.snr}")
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
        else:
            raise ChannelError(f"unknown channel kind {self.kind!r}")
        object.__setattr__(self, "_capacity", _mutual_information(self))

    @classmethod
    def awgn(cls, snr: float) -> "HopChannel":
        """AWGN hop with linear SNR (convert from dB at the boundary)."""
        return cls(kind="awgn", snr=float(snr))

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


def _read_only(a: np.ndarray) -> np.ndarray:
    """`a` if it is read-only already, else a read-only copy."""
    if a.flags.writeable:
        a = a.copy()
        a.setflags(write=False)
    return a


def e0_awgn(rho, snr: float):
    """E0(rho) = rho * ln(1 + SNR/(1+rho)) for a Gaussian-input AWGN hop.

    Accepts a scalar or ndarray rho; returns the same shape.
    """
    rho = np.asarray(rho, dtype=float)
    if np.any(rho < 0):
        raise ChannelError("rho must be nonnegative")
    if not snr > 0:
        raise ChannelError(f"snr must be positive, got {snr}")
    out = rho * np.log1p(snr / (1.0 + rho))
    return float(out) if out.ndim == 0 else out


def e0_dmc(rho, ch: HopChannel):
    """E0(rho) for a finite DMC hop, vectorized over rho; 0 at rho = 0.

    Zero transition entries contribute zero (measure-zero convention).
    Computed in the log domain as in `e0_terms`, so it stays finite where
    every a_y^(1+rho) underflows.
    """
    if ch.kind != "dmc":
        raise ChannelError("e0_dmc requires a DMC channel")
    rho = np.asarray(rho, dtype=float)
    if np.any(rho < 0):
        raise ChannelError("rho must be nonnegative")
    p = ch._reached
    r = np.atleast_1d(rho)[:, None]  # (K, 1)
    a = np.einsum("s,ksy->ky", ch.input_dist, p[None, :, :] ** (1.0 / (1.0 + r))[:, :, None])
    z = (1.0 + r) * np.log(a)
    top = z.max(axis=1)
    vals = -(top + np.log(np.exp(z - top[:, None]).sum(axis=1)))
    return float(vals[0]) if rho.ndim == 0 else vals


def e0(rho, ch: HopChannel):
    """Dispatch E0 on the channel kind."""
    if ch.kind == "awgn":
        return e0_awgn(rho, ch.snr)
    return e0_dmc(rho, ch)


def e0_derivative(rho, ch: HopChannel):
    """Analytic dE0/drho (see e0_terms); at rho = 0 the mutual information."""
    rho = np.asarray(rho, dtype=float)
    if np.any(rho < 0):
        raise ChannelError("rho must be nonnegative")
    terms = e0_terms(ch)
    out = np.array([terms(r)[1] for r in rho.ravel().tolist()]).reshape(rho.shape)
    return float(out) if rho.ndim == 0 else out


def e0_terms(ch: HopChannel):
    """The exponent solver's step: rho -> (E0, dE0/drho, d2E0/drho2) as floats.

    rho >= 0 is not validated; a DMC's step reads the reached-output matrix
    and its log table that the channel derived once, at construction.  AWGN,
    with a = 1+rho and b = a+SNR: d2E0/drho2 = -SNR (2b + rho SNR) / (ab)^2,
    in bounded ratios.  DMC, with
    t = 1/(1+rho), a_y = sum_x q(x) p(y|x)^t, w(x|y) = q(x) p(y|x)^t / a_y,
    pi_y proportional to a_y^(1+rho) and g_y = ln a_y - t E_w[ln p | y]
    (Gallager 1968, sec. 5.6): dE0/drho = -E_pi[g] and
    d2E0/drho2 = -Var_pi(g) - t^3 E_pi[Var_w(ln p | y)].
    """
    if ch.kind == "awgn":
        def awgn_terms(rho, snr=ch.snr):
            a = 1.0 + rho
            log_term = math.log1p(snr / a)
            u, v = snr / (a + snr), rho / a
            return rho * log_term, log_term - v * u, -(u / a) * (2.0 / a + v * u)
        return awgn_terms
    dmc_terms = e0_dmc_terms(ch)

    def one_rho(rho):
        value, slope, curve = dmc_terms(np.array([rho]))
        return float(value[0]), float(slope[0]), float(curve[0])
    return one_rho


def e0_dmc_terms(ch: HopChannel):
    """The DMC step of `e0_terms` over an array of K rhos, on (K, S, Y) arrays.

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
    return dmc_terms


def capacity(ch: HopChannel) -> float:
    """Mutual information of the hop at its fixed input distribution (nats/use).

    Derived once, when the channel is built; this reads the stored float.
    """
    return ch._capacity


def _mutual_information(ch: HopChannel) -> float:
    if ch.kind == "awgn":
        return float(np.log1p(ch.snr))
    p = ch.transition
    q = ch.input_dist
    marginal = q @ p  # output distribution, (Y,)
    joint = q[:, None] * p
    with np.errstate(divide="ignore", invalid="ignore"):
        logratio = np.where(joint > 0, np.log(p / marginal[None, :]), 0.0)
    return float(np.sum(joint * logratio))
