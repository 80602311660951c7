"""Per-hop channel models and the Gallager E0 function.

Two channel kinds are supported: a complex AWGN channel with an i.i.d.
Gaussian input (closed-form E0) and a finite discrete memoryless channel
given by its transition matrix and a fixed input distribution.  All rates
and exponents are in nats per channel use; SNR is stored linear.
"""

from __future__ import annotations

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
    "capacity",
]

# central-difference step for the DMC dE0/drho (no closed form available)
_DMC_DIFF_STEP = 1e-6

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
            if self.snr is None or not self.snr > 0:
                raise ChannelError(f"AWGN channel requires snr > 0, got {self.snr}")
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
    rho = np.asarray(rho, dtype=float)
    if np.any(rho < 0):
        raise ChannelError("rho must be nonnegative")
    if not snr > 0:
        raise ChannelError(f"snr must be positive, got {snr}")
    out = np.log1p(snr / (1.0 + rho)) - rho * snr / ((1.0 + rho) * (1.0 + rho + snr))
    return float(out) if out.ndim == 0 else out


def _e0_dmc_raw(rho, transition: np.ndarray, input_dist: np.ndarray):
    """Gallager E0 for a finite DMC at fixed input distribution.

    Valid for rho > -1; used with slightly negative rho only inside the
    central difference at rho = 0.  Zero transition entries contribute
    zero to the inner sum (measure-zero convention).
    """
    rho = np.asarray(rho, dtype=float)
    scalar = rho.ndim == 0
    r = np.atleast_1d(rho)[:, None, None]  # (K, 1, 1)
    p = transition[None, :, :]  # (1, S, Y)
    with np.errstate(divide="ignore"):
        tilted = np.where(p > 0, p ** (1.0 / (1.0 + r)), 0.0)
    inner = np.einsum("s,ksy->ky", input_dist, tilted)
    vals = -np.log(np.sum(inner ** (1.0 + np.atleast_1d(rho)[:, None]), axis=1))
    return float(vals[0]) if scalar else vals


def e0_dmc(rho, ch: HopChannel):
    """E0(rho) for a finite DMC hop; 0 at rho = 0."""
    if ch.kind != "dmc":
        raise ChannelError("e0_dmc requires a DMC channel")
    rho = np.asarray(rho, dtype=float)
    if np.any(rho < 0):
        raise ChannelError("rho must be nonnegative")
    return _e0_dmc_raw(rho, ch.transition, ch.input_dist)


def e0(rho, ch: HopChannel):
    """Dispatch E0 on the channel kind."""
    if ch.kind == "awgn":
        return e0_awgn(rho, ch.snr)
    return e0_dmc(rho, ch)


def e0_derivative(rho, ch: HopChannel):
    """dE0/drho: analytic for AWGN, central difference for a DMC.

    At rho = 0 the value is the channel mutual information.
    """
    if ch.kind == "awgn":
        return e0_awgn_derivative(rho, ch.snr)
    rho = np.asarray(rho, dtype=float)
    if np.any(rho < 0):
        raise ChannelError("rho must be nonnegative")
    h = _DMC_DIFF_STEP * np.maximum(1.0, rho)
    # _e0_dmc_raw is analytic on rho > -1, so the centered stencil is fine
    # even when rho - h dips slightly below zero.
    lo = _e0_dmc_raw(rho - h, ch.transition, ch.input_dist)
    hi = _e0_dmc_raw(rho + h, ch.transition, ch.input_dist)
    out = (hi - lo) / (2.0 * h)
    return float(out) if np.asarray(out).ndim == 0 else out


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
