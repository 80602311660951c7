"""Distributed computation of allocation constants over the linear chain.

A single metric message, the dict of `allocation.balance_step` frames `frame_rate`,
`frame_rc` and `frame_sp` (each `None` at first), walks the chain: each node folds its
rate and its (E_r, E_sp), which the table solved once, into it in place.
The end node takes ln M from the rate frame and broadcasts it with Q and the
exponent frames, after which every node derives its own blocklengths from
the broadcast and local state only, with `allocation.balance_share`.  The
central results are the same folds and functions, so both agree bit for bit.

This is an in-process simulation with a deterministic schedule; its point is
verifying information locality and message complexity, not networking.  Its
messages can be traced into a list, which the caller writes; a forward message is
recorded by a shallow copy, exact since a fold makes new frames.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

from .allocation import (AllocationError, _check_budget, balance_lagrange, balance_log_m,
                         balance_share, balance_step)

__all__ = [
    "BroadcastConstants",
    "NodeState",
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


@dataclass
class NodeState:
    """One transmit terminal: holds only its hop's rate and (E_r, E_sp), then the broadcast."""

    local_rate: float
    local_exponents: tuple[float, float]
    received_broadcast: BroadcastConstants | None = None

    def fold_into(self, msg: dict, hop_index: int) -> None:
        """Add this hop's costs to the message, in place."""
        e_r, e_sp = self.local_exponents
        if not all(0.0 < v < math.inf for v in (self.local_rate, e_r, e_sp)):
            what = "zero exponent (rate at/above capacity)" if 0.0 in (e_r, e_sp) else (
                f"rate {self.local_rate}, exponents ({e_r}, {e_sp}): not all positive and finite")
            raise AllocationError(f"hop {hop_index} has {what}")
        msg["frame_rate"] = balance_step(msg["frame_rate"], self.local_rate)
        msg["frame_rc"] = balance_step(msg["frame_rc"], e_r)
        msg["frame_sp"] = balance_step(msg["frame_sp"], e_sp)

    def derive_blocks(self) -> dict[str, float]:
        """Per-node blocklengths from the broadcast constants and local state only.

        Returns the real-valued reliability-optimal values (RC and SP) and
        the floored information-continuous value.
        """
        if self.received_broadcast is None:
            raise AllocationError("node has not received the broadcast")
        bc = self.received_broadcast
        e_r, e_sp = self.local_exponents
        return {
            "q_reliability_rc": balance_share(e_r, bc.frame_rc, bc.q_total),
            "q_reliability_sp": balance_share(e_sp, bc.frame_sp, bc.q_total),
            "q_info_continuous": math.floor(bc.ln_m / self.local_rate),
        }


def forward_pass(nodes: list[NodeState], trace: list[dict] | None = None) -> dict:
    """Walk the chain hop 1 -> N, each node adding its local costs.

    The fold is strictly left-to-right so the message is bit-identical to a
    centralized loop over the same hops.
    """
    if not nodes:
        raise AllocationError("need at least one node")
    msg = {"frame_rate": None, "frame_rc": None, "frame_sp": None}
    for i, node in enumerate(nodes):
        node.fold_into(msg, i + 1)
        if trace is not None and i + 1 < len(nodes):
            trace.append({
                "step": len(trace) + 1,
                "from": i + 1,
                "to": i + 2,
                "message": dict(msg),
            })
    return msg


def compute_and_broadcast(final_msg: dict, q_total: int,
                          nodes: list[NodeState],
                          trace: list[dict] | None = None) -> BroadcastConstants:
    """End node computes ln M, lambda_r, lambda_sp and delivers them, with Q and
    the two exponent frames, to all nodes."""
    constants = BroadcastConstants(
        ln_m=balance_log_m(final_msg["frame_rate"], q_total),
        lambda_r=balance_lagrange(final_msg["frame_rc"], q_total),
        lambda_sp=balance_lagrange(final_msg["frame_sp"], q_total),
        q_total=q_total,
        frame_rc=final_msg["frame_rc"],
        frame_sp=final_msg["frame_sp"],
    )
    record = asdict(constants)
    for i, node in enumerate(nodes):
        node.received_broadcast = constants
        if trace is not None:
            trace.append({
                "step": len(trace) + 1,
                "from": len(nodes),
                "to": i + 1,
                "broadcast": record,
            })
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
    if len(rates) != len(exponents):
        raise AllocationError(f"{len(rates)} rates but {len(exponents)} exponent pairs")
    _check_budget(q_total)
    nodes = [NodeState(r, e) for r, e in zip(rates, exponents)]
    constants = compute_and_broadcast(forward_pass(nodes, trace), q_total, nodes, trace)
    return constants, [node.derive_blocks() for node in nodes]
