"""Distributed computation of allocation constants over the linear chain.

A single metric message, the dict of `allocation.balance_step` frames `frame_rate`,
`frame_rc` and `frame_sp` (each `None` at first), walks the chain: `fold_into` adds
each hop's rate and (E_r, E_sp), which the table solved once, to it in place.  The
end node takes ln M from the rate frame and broadcasts it with Q and the exponent
frames; `derive_blocks` then gives a hop its blocklengths from its own rate and
(E_r, E_sp) and the broadcast alone, with `allocation.balance_share`.  The central
results are the same folds and functions, so both agree bit for bit.

This is an in-process simulation with a deterministic schedule; its point is
verifying information locality and message complexity, not networking.  Its
messages can be traced into a list, which the caller writes; a forward message is
recorded by a shallow copy, exact since a fold makes new frames.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

from . import _doubles, _is_integer
from .allocation import (AllocationError, _check_budget, balance_lagrange, balance_log_m,
                         balance_share, balance_step)

__all__ = [
    "BroadcastConstants",
    "fold_into",
    "derive_blocks",
    "forward_pass",
    "compute_and_broadcast",
    "run_distributed_allocation",
]


@dataclass(frozen=True)
class BroadcastConstants:
    ln_m: float
    lambda_r: float
    lambda_sp: float
    q_total: int
    frame_rc: tuple
    frame_sp: tuple


def _checked(rate: float, exponents: tuple[float, float], hop: int | None) -> list[float]:
    """[rate, E_r, E_sp] as doubles; AllocationError, naming the hop, unless all
    three values are positive and finite."""
    e_r, e_sp = exponents
    if not (0.0 < rate < math.inf and 0.0 < e_r < math.inf and 0.0 < e_sp < math.inf):
        what = "zero exponent (rate at/above capacity)" if 0.0 in (e_r, e_sp) else (
            f"rate {rate}, exponents ({e_r}, {e_sp}): not all positive and finite")
        raise AllocationError(f"hop {hop} has {what}" if hop is not None else f"hop has {what}")
    try:
        return [float(rate), float(e_r), float(e_sp)]
    except OverflowError:  # an int past the doubles' range: `_doubles` names the hop
        return _doubles((rate, e_r, e_sp), AllocationError, f"hop {hop}'s rate and exponents"
                        if hop is not None else "the hop's rate and exponents")


def fold_into(msg: dict, hop: int, rate: float, exponents: tuple[float, float]) -> None:
    """Add hop `hop`'s rate and (E_r, E_sp) to the message, in place."""
    rate, e_r, e_sp = _checked(rate, exponents, hop)
    msg["frame_rate"] = balance_step(msg["frame_rate"], rate)
    msg["frame_rc"] = balance_step(msg["frame_rc"], e_r)
    msg["frame_sp"] = balance_step(msg["frame_sp"], e_sp)


def derive_blocks(rate: float, exponents: tuple[float, float],
                  broadcast: BroadcastConstants) -> dict[str, float]:
    """A hop's blocklengths from its own rate and (E_r, E_sp) and the broadcast only.

    Returns the real-valued reliability-optimal values (RC and SP) and
    the floored information-continuous value.
    """
    rate, e_r, e_sp = _checked(rate, exponents, None)
    q_info = broadcast.ln_m / rate
    if not math.isfinite(q_info):
        raise AllocationError(f"hop has rate {rate}: ln M / rate = {q_info} is not finite")
    q_rc = balance_share(e_r, broadcast.frame_rc, broadcast.q_total)
    q_sp = balance_share(e_sp, broadcast.frame_sp, broadcast.q_total)
    if q_rc != q_rc or q_sp != q_sp:  # NaN, from an exponent below the smallest broadcast
        raise AllocationError(f"hop has exponents ({e_r}, {e_sp}): its shares are undefined")
    return {"q_reliability_rc": q_rc, "q_reliability_sp": q_sp,
            "q_info_continuous": math.floor(q_info)}


def forward_pass(rates: list[float], exponents: list[tuple[float, float]],
                 trace: list[dict] | None = None) -> dict:
    """Walk the chain hop 1 -> N, each hop folding in its rate and (E_r, E_sp).

    The fold is strictly left-to-right so the message is bit-identical to a
    centralized loop over the same hops.
    """
    if len(rates) != len(exponents):
        raise AllocationError(f"{len(rates)} rates but {len(exponents)} exponent pairs")
    if not rates:
        raise AllocationError("need at least one node")
    msg = {"frame_rate": None, "frame_rc": None, "frame_sp": None}
    for hop, (rate, pair) in enumerate(zip(rates, exponents), 1):
        fold_into(msg, hop, rate, pair)
        if trace is not None and hop < len(rates):
            trace.append({"step": len(trace) + 1, "from": hop, "to": hop + 1,
                          "message": dict(msg)})
    return msg


def compute_and_broadcast(final_msg: dict, q_total: int, n_nodes: int,
                          trace: list[dict] | None = None) -> BroadcastConstants:
    """End node (node `n_nodes`, an integer in [1, 2**53]) computes ln M, lambda_r,
    lambda_sp and delivers them, with Q and the two exponent frames, to all nodes;
    a trace gets one broadcast record per node."""
    _check_budget(q_total)
    if not _is_integer(n_nodes, 1, 2 ** 53):
        raise AllocationError(f"n_nodes must be an integer in [1, 2**53], got {n_nodes!r}")
    constants = BroadcastConstants(
        ln_m=balance_log_m(final_msg["frame_rate"], q_total),
        lambda_r=balance_lagrange(final_msg["frame_rc"], q_total),
        lambda_sp=balance_lagrange(final_msg["frame_sp"], q_total),
        q_total=q_total,
        frame_rc=final_msg["frame_rc"],
        frame_sp=final_msg["frame_sp"],
    )
    if trace is not None:
        record, first = asdict(constants), len(trace) + 1
        trace.extend({"step": first + i, "from": n_nodes, "to": i + 1, "broadcast": record}
                     for i in range(n_nodes))
    return constants


def run_distributed_allocation(rates: list[float], exponents: list[tuple[float, float]],
                               q_total: int, trace: list[dict] | None = None):
    """Full protocol run: forward pass, broadcast, per-node derivation.

    Node n holds only rates[n] and exponents[n], its hop's (E_r, E_sp) at that
    rate as the caller's table solved it once, so the run stays local.  Each
    message is appended to `trace`, if given, as a dict; the caller writes it.

    Returns (constants, per_node_blocks) where per_node_blocks is the list
    of each node's locally derived blocklength dict.
    """
    constants = compute_and_broadcast(forward_pass(rates, exponents, trace), q_total,
                                      len(rates), trace)
    return constants, [derive_blocks(r, e, constants) for r, e in zip(rates, exponents)]
