"""Scenario JSON ingestion and allocation dispatch.

A scenario file fixes the hop channels, the total channel-use budget Q,
a per-hop rate policy, and the allocation method.  SNR is given in dB in
the file and converted to linear exactly once, here.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .allocation import (Allocation, AllocationError, Method,
                         information_continuous_blocks, rate_policy_scale,
                         reliability_optimal_blocks)
from .channel import ChannelError, HopChannel, capacity
from .exponents import random_coding_exponent, sphere_packing_exponent
from .system import end_to_end_rate

__all__ = ["ScenarioError", "Scenario", "load_scenario", "build_allocation"]

SCHEMA_VERSION = 1

_METHODS = (Method.RELIABILITY_OPTIMAL_RC, Method.RELIABILITY_OPTIMAL_SP,
            Method.INFO_CONTINUOUS, Method.MANUAL)


class ScenarioError(ValueError):
    """Malformed or inconsistent scenario document."""


@dataclass(frozen=True)
class Scenario:
    total_q: int
    hops: list[HopChannel]
    rate_policy: dict
    allocation_method: str
    manual_blocks: list[int] | None = None

    @property
    def capacities(self) -> list[float]:
        return [capacity(ch) for ch in self.hops]

    def resolve_rates(self) -> list[float]:
        """Per-hop rates in nats/use from the rate policy."""
        mode = self.rate_policy["mode"]
        if mode == "explicit":
            rates = [float(r) for r in self.rate_policy["rates_nats"]]
            if len(rates) != len(self.hops):
                raise ScenarioError("rates_nats length must match hop count")
            if not all(0.0 < r < float("inf") for r in rates):  # also rejects NaN
                raise ScenarioError(f"rates_nats must be finite and positive, got {rates}")
            return rates
        if mode == "capacity_fraction":
            beta = float(self.rate_policy["beta"])
            if not 0.0 < beta < 1.0:
                raise ScenarioError(f"beta must be in (0, 1), got {beta}")
            return [beta * c for c in self.capacities]
        if mode == "target_rate":
            return rate_policy_scale(self.capacities,
                                     float(self.rate_policy["rate_nats"]))
        raise ScenarioError(f"unknown rate policy mode {mode!r}")


def _parse_hop(spec: dict, index: int) -> HopChannel:
    try:
        kind = spec["type"]
        if kind == "awgn":
            return HopChannel.awgn(10.0 ** (float(spec["snr_db"]) / 10.0))
        if kind == "dmc":
            return HopChannel.dmc(spec["transition"], spec.get("input_dist"))
    except (KeyError, ChannelError) as exc:
        raise ScenarioError(f"hop {index}: {exc}") from exc
    raise ScenarioError(f"hop {index}: unknown type {spec.get('type')!r}")


def load_scenario(path: str) -> Scenario:
    with open(path) as fh:
        doc = json.load(fh)
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise ScenarioError(f"unsupported schema_version {doc.get('schema_version')!r}")
    hops_spec = doc.get("hops") or []
    if not hops_spec:
        raise ScenarioError("scenario needs at least one hop")
    total_q = doc.get("total_q")
    if not isinstance(total_q, int) or isinstance(total_q, bool) or total_q < 1:
        raise ScenarioError("total_q must be a positive integer")
    policy = doc.get("rate_policy")
    if not isinstance(policy, dict) or "mode" not in policy:
        raise ScenarioError("rate_policy with a mode is required")
    method = doc.get("allocation_method")
    if method not in _METHODS:
        raise ScenarioError(f"allocation_method must be one of {_METHODS}, got {method!r}")
    manual = doc.get("manual_blocks")
    if method == Method.MANUAL:
        if not manual:
            raise ScenarioError("manual allocation requires manual_blocks")
        manual = [int(b) for b in manual]
        if sum(manual) != total_q or any(b < 1 for b in manual):
            raise ScenarioError("manual_blocks must be positive and sum to total_q")
        if len(manual) != len(hops_spec):
            raise ScenarioError("manual_blocks length must match hop count")
    elif manual is not None:
        raise ScenarioError("manual_blocks only allowed with the manual method")
    hops = [_parse_hop(h, i) for i, h in enumerate(hops_spec)]
    return Scenario(total_q=total_q, hops=hops, rate_policy=policy,
                    allocation_method=method, manual_blocks=manual)


def build_allocation(sc: Scenario) -> tuple[Allocation, int | None]:
    """Allocation for a scenario; second element is M when info-continuous."""
    rates = sc.resolve_rates()
    method = sc.allocation_method
    if method == Method.MANUAL:
        blocks = list(sc.manual_blocks)
        alloc = Allocation(blocks, rates, 0.0, Method.MANUAL)
        alloc = Allocation(blocks, rates, end_to_end_rate(alloc), Method.MANUAL)
        return alloc, None
    if method == Method.INFO_CONTINUOUS:
        m, alloc = information_continuous_blocks(rates, sc.total_q)
        return alloc, m
    solver = (random_coding_exponent if method == Method.RELIABILITY_OPTIMAL_RC
              else sphere_packing_exponent)
    exps = [solver(r, ch).exponent for r, ch in zip(rates, sc.hops)]
    if any(e <= 0 for e in exps):
        bad = next(i for i, e in enumerate(exps) if e <= 0)
        raise AllocationError(f"hop {bad}: rate at/above capacity, zero exponent")
    return reliability_optimal_blocks(exps, sc.total_q, rates=rates, method=method), None
