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
    "e0_awgn_derivative",
    "e0_dmc",
    "e0",
    "e0_derivative",
    "e0_terms",
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
            object.__setattr__(self, "transition", p)
            object.__setattr__(self, "input_dist", q)
        else:
            raise ChannelError(f"unknown channel kind {self.kind!r}")

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


def e0_awgn_derivative(rho, snr: float):
    """Analytic dE0/drho for the Gaussian-input AWGN hop."""
    return e0_derivative(rho, HopChannel.awgn(snr))


def e0_dmc(rho, ch: HopChannel):
    """E0(rho) for a finite DMC hop, vectorized over rho; 0 at rho = 0.

    Zero transition entries contribute zero (measure-zero convention).
    """
    if ch.kind != "dmc":
        raise ChannelError("e0_dmc requires a DMC channel")
    rho = np.asarray(rho, dtype=float)
    if np.any(rho < 0):
        raise ChannelError("rho must be nonnegative")
    r = np.atleast_1d(rho)[:, None]  # (K, 1)
    tilted = ch.transition[None, :, :] ** (1.0 / (1.0 + r))[:, :, None]  # 0^t = 0
    inner = np.einsum("s,ksy->ky", ch.input_dist, tilted)
    vals = -np.log(np.sum(inner ** (1.0 + r), axis=1))
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

    rho >= 0 is not validated.  AWGN, with a = 1+rho and b = a+SNR:
    d2E0/drho2 = -SNR (2b + rho SNR) / (ab)^2, in bounded ratios.  DMC, with
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
    # outputs no input reaches have a_y = 0 at every rho and drop out;
    # ln p := 0 where p = 0, as w = 0 there
    q = ch.input_dist[:, None]
    p = ch.transition[:, (q * ch.transition).sum(axis=0) > 0]
    log_p = np.log(np.where(p > 0, p, 1.0))

    def dmc_terms(rho):
        t = 1.0 / (1.0 + rho)
        weighted = q * p ** t
        a = weighted.sum(axis=0)
        log_a = np.log(a)
        # pi_y = e_y / total, scaled by the largest a_y^(1+rho) against underflow
        z = (1.0 + rho) * log_a
        top = float(z.max())
        e = np.exp(z - top)
        total = float(e.sum())
        w = weighted / a
        mean_w = (w * log_p).sum(axis=0)
        var_w = (w * (log_p - mean_w) ** 2).sum(axis=0)
        g = log_a - t * mean_w
        d1 = -float(e @ g) / total
        d2 = -float(e @ ((g + d1) ** 2 + t ** 3 * var_w)) / total
        return -(top + math.log(total)), d1, d2
    return dmc_terms


def capacity(ch: HopChannel) -> float:
    """Mutual information of the hop at its fixed input distribution (nats/use)."""
    if ch.kind == "awgn":
        return float(np.log1p(ch.snr))
    p = ch.transition
    q = ch.input_dist
    marginal = q @ p  # output distribution, (Y,)
    joint = q[:, None] * p
    with np.errstate(divide="ignore", invalid="ignore"):
        logratio = np.where(joint > 0, np.log(p / marginal[None, :]), 0.0)
    return float(np.sum(joint * logratio))
