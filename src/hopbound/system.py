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
from scipy.special import logsumexp

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
    q_total = sum(blocks)
    q_n = np.asarray(blocks, dtype=float)
    log_terms_r = -q_n * np.asarray(e_r)
    log_terms_sp = -q_n * np.asarray(e_sp)
    lse_r = float(logsumexp(log_terms_r))
    lse_sp = float(logsumexp(log_terms_sp))
    return SystemBounds(
        pe_upper=float(np.exp(lse_r)),
        pe_lower=float(np.exp(lse_sp)),
        esys_lower=-lse_r / q_total,
        esys_upper=-lse_sp / q_total,
        per_hop_pe_upper=[float(np.exp(t)) for t in log_terms_r],
        per_hop_pe_lower=[float(np.exp(t)) for t in log_terms_sp],
        degenerate_hops=[i for i, (er, esp) in enumerate(zip(e_r, e_sp))
                         if er <= 0.0 or esp <= 0.0],
    )
