"""System-level error-probability sandwich and finite-Q reliability function.

The end-to-end error measure is the sum of per-hop error probabilities;
random-coding exponents give the upper bound on it (hence the lower
reliability exponent) and sphere-packing exponents the lower bound
(hence the upper reliability exponent).  The per-hop exponents come in
already solved (see `scenario.Evaluation`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["SystemBounds", "system_error_bounds"]


@dataclass(frozen=True)
class SystemBounds:
    pe_upper: float  # sum of per-hop RC bounds (union bound, may exceed 1)
    pe_lower: float  # sum of per-hop SP bounds, exponent-only (asymptotic)
    esys_lower: float  # -(1/Q) ln sum exp(-Q_n E_r,n), nats/use
    esys_upper: float  # -(1/Q) ln sum exp(-Q_n E_sp,n), nats/use
    per_hop_pe_upper: list[float]
    per_hop_pe_lower: list[float]
    degenerate_hops: list[int]  # hops with a zero exponent (rate at/above capacity)


def _logsumexp(a: np.ndarray) -> float:
    """ln sum exp(a) of a 1-D float array, by scipy.special.logsumexp's steps.

    The maxima leave the sum and are counted as m, so the result is
    log1p(sum exp(a - max) / m) + log(m) + max; a non-finite result falls back
    to log(sum exp(a)).  Each step is the same numpy ufunc on the same
    one-element arrays, so the result is scipy's bit for bit.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        a_max = np.max(a, keepdims=True)
        is_max = a == a_max
        m = np.sum(is_max, keepdims=True, dtype=float)
        s = np.sum(np.exp(np.where(is_max, -np.inf, a) - a_max), keepdims=True)
        if s[0] != 0.0:
            s /= m
        out = np.log1p(s) + np.log(m) + a_max
        if not np.isfinite(out[0]):
            out = np.log(np.sum(np.exp(a), keepdims=True))
    return float(out[0])


def system_error_bounds(blocks: list[int], e_r: list[float],
                        e_sp: list[float]) -> SystemBounds:
    """Sandwich bounds on system error probability and reliability exponent.

    `blocks` is the integer split of Q and `e_r`, `e_sp` the per-hop
    random-coding and sphere-packing exponents at the hops' rates.  The
    sphere-packing side drops the sub-exponential correction, so pe_lower
    is an asymptotic (exponent-only) lower bound.
    """
    if not len(blocks) == len(e_r) == len(e_sp):
        raise ValueError("allocation and exponent list lengths differ")
    if not blocks:
        raise ValueError("need at least one hop")
    q_total = sum(blocks)
    q_n = np.asarray(blocks, dtype=float)
    log_terms_r = -q_n * np.asarray(e_r)
    log_terms_sp = -q_n * np.asarray(e_sp)
    lse_r = _logsumexp(log_terms_r)
    lse_sp = _logsumexp(log_terms_sp)
    return SystemBounds(
        pe_upper=float(np.exp(lse_r)),
        pe_lower=float(np.exp(lse_sp)),
        esys_lower=-lse_r / q_total,
        esys_upper=-lse_sp / q_total,
        per_hop_pe_upper=np.exp(log_terms_r).tolist(),
        per_hop_pe_lower=np.exp(log_terms_sp).tolist(),
        degenerate_hops=[i for i, (er, esp) in enumerate(zip(e_r, e_sp))
                         if er <= 0.0 or esp <= 0.0],
    )
