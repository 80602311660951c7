"""Distributed computation of allocation constants over the linear chain.

A single metric message walks the chain, each node adding its local link
costs (1/R_n plus the exponent-based metrics); one end node computes ln M
and the Lagrange constants and broadcasts them back, after which every
node derives its own blocklength from local state only.

This is an in-process simulation with a deterministic schedule; its point
is verifying information locality and message complexity, not networking.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .allocation import AllocationError
from .channel import HopChannel
from .exponents import random_coding_exponent, sphere_packing_exponent

__all__ = [
    "MetricMessage",
    "BroadcastConstants",
    "NodeState",
    "METRIC_NAMES",
    "forward_pass",
    "compute_and_broadcast",
    "run_distributed_allocation",
]

METRIC_NAMES = (
    "inv_rate",
    "inv_exp_rc",
    "inv_exp_sp",
    "logexp_over_exp_rc",
    "logexp_over_exp_sp",
)


@dataclass
class MetricMessage:
    hop_index: int  # highest hop whose costs are accumulated (1-based)
    accumulators: dict[str, float]

    @classmethod
    def empty(cls) -> "MetricMessage":
        return cls(hop_index=0, accumulators={name: 0.0 for name in METRIC_NAMES})


@dataclass(frozen=True)
class BroadcastConstants:
    ln_m: float
    lambda_r: float
    lambda_sp: float


@dataclass
class NodeState:
    """One transmit terminal: sees only its own hop's channel and rate."""

    local_channel: HopChannel
    local_rate: float
    received_broadcast: BroadcastConstants | None = None
    # (E_r, E_sp) at the local rate; the forward pass solves them if not given
    local_exponents: tuple[float, float] | None = None

    def local_metrics(self, hop_index: int) -> dict[str, float]:
        if self.local_exponents is None:
            self.local_exponents = (
                random_coding_exponent(self.local_rate, self.local_channel).exponent,
                sphere_packing_exponent(self.local_rate, self.local_channel).exponent)
        e_r, e_sp = self.local_exponents
        if e_r <= 0.0 or e_sp <= 0.0:
            raise AllocationError(f"hop {hop_index} has zero exponent (rate at/above capacity)")
        return {
            "inv_rate": 1.0 / self.local_rate,
            "inv_exp_rc": 1.0 / e_r,
            "inv_exp_sp": 1.0 / e_sp,
            "logexp_over_exp_rc": math.log(e_r) / e_r,
            "logexp_over_exp_sp": math.log(e_sp) / e_sp,
        }

    def derive_blocks(self) -> dict[str, float]:
        """Per-node blocklengths from the broadcast constants and local state only.

        Returns the real-valued reliability-optimal values (RC and SP) and
        the floored information-continuous value.
        """
        if self.received_broadcast is None or self.local_exponents is None:
            raise AllocationError("node has not taken part in the forward pass and broadcast")
        bc = self.received_broadcast
        e_r, e_sp = self.local_exponents
        return {
            "q_reliability_rc": (math.log(e_r) - bc.lambda_r) / e_r,
            "q_reliability_sp": (math.log(e_sp) - bc.lambda_sp) / e_sp,
            "q_info_continuous": math.floor(bc.ln_m / self.local_rate),
        }


def forward_pass(nodes: list[NodeState], trace: list[dict] | None = None) -> MetricMessage:
    """Walk the chain hop 1 -> N, each node adding its local costs.

    Summation is strictly left-to-right so totals are bit-identical to a
    centralized loop over the same hops.
    """
    if not nodes:
        raise AllocationError("need at least one node")
    msg = MetricMessage.empty()
    for i, node in enumerate(nodes):
        local = node.local_metrics(i + 1)
        for name in METRIC_NAMES:
            msg.accumulators[name] += local[name]
        msg.hop_index = i + 1
        if trace is not None and i + 1 < len(nodes):
            trace.append({
                "step": len(trace) + 1,
                "from": i + 1,
                "to": i + 2,
                "accumulators": dict(msg.accumulators),
            })
    return msg


def compute_and_broadcast(final_msg: MetricMessage, q_total: int,
                          nodes: list[NodeState],
                          trace: list[dict] | None = None) -> BroadcastConstants:
    """End node computes ln M, lambda_r, lambda_sp and delivers them to all nodes."""
    acc = final_msg.accumulators
    constants = BroadcastConstants(
        ln_m=q_total / acc["inv_rate"],
        lambda_r=(acc["logexp_over_exp_rc"] - q_total) / acc["inv_exp_rc"],
        lambda_sp=(acc["logexp_over_exp_sp"] - q_total) / acc["inv_exp_sp"],
    )
    for i, node in enumerate(nodes):
        node.received_broadcast = constants
        if trace is not None:
            trace.append({
                "step": len(trace) + 1,
                "from": len(nodes),
                "to": i + 1,
                "broadcast": {
                    "ln_m": constants.ln_m,
                    "lambda_r": constants.lambda_r,
                    "lambda_sp": constants.lambda_sp,
                },
            })
    return constants


def run_distributed_allocation(hops: list[HopChannel], rates: list[float],
                               q_total: int, trace_path: str | None = None,
                               exponents: list[tuple[float, float]] | None = None):
    """Full protocol run: forward pass, broadcast, per-node derivation.

    `exponents`, if given, holds each hop's (E_r, E_sp) at its rate, already
    solved by the caller; node n receives only its own pair, so the run
    stays local, and no node solves again.

    Returns (constants, per_node_blocks) where per_node_blocks is the list
    of each node's locally derived blocklength dict.
    """
    nodes = [NodeState(ch, r, local_exponents=e)
             for ch, r, e in zip(hops, rates, exponents or [None] * len(hops))]
    trace: list[dict] | None = [] if trace_path is not None else None
    msg = forward_pass(nodes, trace)
    constants = compute_and_broadcast(msg, q_total, nodes, trace)
    per_node = [node.derive_blocks() for node in nodes]
    if trace_path is not None:
        with open(trace_path, "w") as fh:
            for rec in trace:
                fh.write(json.dumps(rec) + "\n")
    return constants, per_node
