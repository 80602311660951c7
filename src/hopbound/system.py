"""System-level error-probability sandwich and finite-Q reliability function.

The end-to-end error measure is the sum of per-hop error probabilities;
random-coding exponents give the upper bound on it (hence the lower
reliability exponent) and sphere-packing exponents the lower bound
(hence the upper reliability exponent).  The per-hop exponents come in
already solved, once per row of a `scenario.Evaluation` table.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["SystemBounds", "stacked_error_bounds", "system_error_bounds"]


@dataclass(frozen=True)
class SystemBounds:
    pe_upper: float  # sum of per-hop RC bounds (union bound, may exceed 1)
    pe_lower: float  # sum of per-hop SP bounds, exponent-only (asymptotic)
    esys_lower: float  # -(1/Q) ln sum exp(-Q_n E_r,n), nats/use
    esys_upper: float  # -(1/Q) ln sum exp(-Q_n E_sp,n), nats/use
    per_hop_pe_upper: list[float]
    per_hop_pe_lower: list[float]
    degenerate_hops: list[int]  # hops with a zero exponent (rate at/above capacity)


def _logsumexp(a: np.ndarray) -> float | np.ndarray:
    """ln sum exp(a) along the last axis, by scipy.special.logsumexp's steps:
    a float for a 1-D float array, an array of one value per row for a 2-D one.

    In each row the maxima leave the sum and are counted as m, so the result
    is log1p(sum exp(a - max) / m) + log(m) + max; a non-finite result falls
    back to log(sum exp(a)).  Each step is the same numpy ufunc, reducing
    each contiguous row as scipy reduces it, so every value is scipy's bit
    for bit.
    """
    rows = np.atleast_2d(a)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        a_max = np.max(rows, axis=-1, keepdims=True)
        is_max = rows == a_max
        m = np.sum(is_max, axis=-1, keepdims=True, dtype=float)
        s = np.sum(np.exp(np.where(is_max, -np.inf, rows) - a_max), axis=-1, keepdims=True)
        np.divide(s, m, out=s, where=s != 0.0)
        out = (np.log1p(s) + np.log(m) + a_max)[:, 0]
        bad = ~np.isfinite(out)
        if bad.any():
            out[bad] = np.log(np.sum(np.exp(rows[bad]), axis=-1))
    return float(out[0]) if np.ndim(a) == 1 else out


def stacked_error_bounds(blocks: list[list[int]], e_r: list[list[float]],
                         e_sp: list[list[float]]) -> list[SystemBounds]:
    """`system_error_bounds` of each row of a table whose rows share one hop
    count.  The log-terms -Q_n E_n of every row and family form one 2R x N
    array, reduced by one `_logsumexp` pass whose rows equal the per-row,
    per-family results bit for bit.
    """
    if not len(blocks) == len(e_r) == len(e_sp) or any(
            not len(b) == len(r) == len(sp) for b, r, sp in zip(blocks, e_r, e_sp)):
        raise ValueError("allocation and exponent list lengths differ")
    try:  # each value converted once; NaN fails the check, +inf (E_sp below R_inf) passes
        exps = np.array([e_r, e_sp], dtype=float)
        q = np.asarray(blocks, dtype=float)
    except OverflowError:
        raise ValueError("blocks and exponents must convert to doubles, got one past their range"
                         ) from None
    if not (all(b and min(b) >= 1 for b in blocks) and (exps >= 0).all()):
        raise ValueError("need at least one hop, every block at least 1 and exponents >= 0")
    if not blocks:
        return []
    with np.errstate(over="ignore"):  # Q_n E_n past the doubles is +inf, its term exactly 0
        log_terms = -q[:, None, :] * exps.transpose(1, 0, 2)
    lse = _logsumexp(log_terms.reshape(2 * len(blocks), -1)).reshape(-1, 2)
    return [SystemBounds(pe_upper=pe_upper, pe_lower=pe_lower,
                         esys_lower=-lse_r / sum(row), esys_upper=-lse_sp / sum(row),
                         per_hop_pe_upper=per_hop_upper, per_hop_pe_lower=per_hop_lower,
                         degenerate_hops=[i for i, (er, esp) in enumerate(zip(row_r, row_sp))
                                          if er <= 0.0 or esp <= 0.0])
            for row, row_r, row_sp, (pe_upper, pe_lower), (lse_r, lse_sp),
            (per_hop_upper, per_hop_lower) in zip(blocks, e_r, e_sp, np.exp(lse).tolist(),
                                                  lse.tolist(), np.exp(log_terms).tolist())]


def system_error_bounds(blocks: list[int], e_r: list[float],
                        e_sp: list[float]) -> SystemBounds:
    """Sandwich bounds on system error probability and reliability exponent.

    `blocks` is the integer split of Q and `e_r`, `e_sp` the per-hop
    random-coding and sphere-packing exponents at the hops' rates.  The
    sphere-packing side drops the sub-exponential correction, so pe_lower
    is an asymptotic (exponent-only) lower bound.  This is the one-row case
    of `stacked_error_bounds`.
    """
    return stacked_error_bounds([blocks], [e_r], [e_sp])[0]
