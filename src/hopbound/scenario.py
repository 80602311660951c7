"""Scenario JSON ingestion and the one evaluation pipeline over a scenario.

A scenario file fixes the hop channels, the total channel-use budget Q,
a per-hop rate policy, and the allocation method; SNR in dB is converted
to linear exactly once, here.  An `Evaluation` computes each derived
quantity once, on first use: rates, each hop's RC and SP exponents, the
split and its end-to-end rate, the system error bounds, the ARQ chains and
latency bounds.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property

from .allocation import (AllocationError, Method, end_to_end_rate,
                         information_continuous_blocks, rate_policy_scale,
                         reliability_optimal_blocks)
from .arq import ArqChain, arq_chains, latency_bounds
from .channel import HopChannel, capacity
from .exponents import random_coding_exponent, sphere_packing_exponent
from .system import SystemBounds, system_error_bounds

__all__ = ["ScenarioError", "Scenario", "Evaluation", "load_scenario", "build_allocation"]

SCHEMA_VERSION = 1

_METHODS = (Method.RELIABILITY_OPTIMAL_RC, Method.RELIABILITY_OPTIMAL_SP,
            Method.INFO_CONTINUOUS, Method.MANUAL)


class ScenarioError(ValueError):
    """Malformed or inconsistent scenario document."""


def _finite(value, name: str) -> float:
    """A scenario field as a finite float; ScenarioError otherwise."""
    try:
        x = float(value)
    except (TypeError, ValueError, OverflowError):
        x = math.nan
    if not math.isfinite(x):
        raise ScenarioError(f"{name} must be a finite number, got {value!r}")
    return x


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
            given = self.rate_policy.get("rates_nats")
            if not isinstance(given, list) or len(given) != len(self.hops):
                raise ScenarioError("rates_nats must be a list with one rate per hop")
            rates = [_finite(r, "rates_nats") for r in given]
            if not all(r > 0.0 for r in rates):
                raise ScenarioError(f"rates_nats must be finite and positive, got {rates}")
            return rates
        if mode == "capacity_fraction":
            beta = _finite(self.rate_policy.get("beta"), "beta")
            if not 0.0 < beta < 1.0:
                raise ScenarioError(f"beta must be in (0, 1), got {beta}")
            return [beta * c for c in self.capacities]
        if mode == "target_rate":
            return rate_policy_scale(self.capacities,
                                     _finite(self.rate_policy.get("rate_nats"), "rate_nats"))
        raise ScenarioError(f"unknown rate policy mode {mode!r}")


class Evaluation:
    """Every derived quantity of one scenario, each computed once on first use.

    The cached lists are shared by all readers and must not be mutated.
    """

    def __init__(self, scenario: Scenario):
        self.scenario = scenario

    @cached_property
    def rates(self) -> list[float]:
        return self.scenario.resolve_rates()

    @cached_property
    def e_r(self) -> list[float]:
        """Random-coding exponent of each hop at its rate."""
        return [random_coding_exponent(r, ch).exponent
                for r, ch in zip(self.rates, self.scenario.hops)]

    @cached_property
    def e_sp(self) -> list[float]:
        """Sphere-packing exponent of each hop at its rate."""
        return [sphere_packing_exponent(r, ch).exponent
                for r, ch in zip(self.rates, self.scenario.hops)]

    @property
    def balanced_exponents(self) -> list[float] | None:
        """The exponents a reliability-optimal method balances; None for the others."""
        method = self.scenario.allocation_method
        if method == Method.RELIABILITY_OPTIMAL_RC:
            return self.e_r
        if method == Method.RELIABILITY_OPTIMAL_SP:
            return self.e_sp
        return None

    @cached_property
    def blocks(self) -> list[int]:
        """The integer split of Q by the scenario's allocation method."""
        return build_allocation(self)

    @cached_property
    def end_to_end_rate(self) -> float:
        """min(Q_n R_n) / Q, nats per channel use."""
        return end_to_end_rate(self.blocks, self.rates)

    @cached_property
    def bounds(self) -> SystemBounds:
        return system_error_bounds(self.blocks, self.e_r, self.e_sp)

    @cached_property
    def chains(self) -> tuple[ArqChain, ArqChain]:
        """(RC, SP) ARQ chains of the split; the RC chain drives the Monte Carlo."""
        return arq_chains(self.bounds, self.blocks)

    @cached_property
    def latency(self) -> tuple[float, float]:
        """(upper, lower) expected latency in channel uses."""
        return latency_bounds(self.chains)


def _parse_hop(spec, index: int) -> HopChannel:
    if not isinstance(spec, dict):
        raise ScenarioError(f"hop {index}: expected an object, got {spec!r}")
    try:
        kind = spec["type"]
        if kind == "awgn":
            return HopChannel.awgn(10.0 ** (_finite(spec["snr_db"], "snr_db") / 10.0))
        if kind == "dmc":
            return HopChannel.dmc(spec["transition"], spec.get("input_dist"))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ScenarioError(f"hop {index}: {exc}") from exc
    raise ScenarioError(f"hop {index}: unknown type {kind!r}")


def load_scenario(path: str) -> Scenario:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario: {exc}") from exc
    except ValueError as exc:
        raise ScenarioError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ScenarioError("scenario must be a JSON object")
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise ScenarioError(f"unsupported schema_version {doc.get('schema_version')!r}")
    hops_spec = doc.get("hops")
    if not isinstance(hops_spec, list) or not hops_spec:
        raise ScenarioError("scenario needs a list of at least one hop")
    total_q = doc.get("total_q")
    # bool is an int subclass; doubles hold every integer only up to 2**53
    if type(total_q) is not int or not 1 <= total_q <= 2 ** 53:
        raise ScenarioError("total_q must be an integer in [1, 2**53]")
    policy = doc.get("rate_policy")
    if not isinstance(policy, dict) or "mode" not in policy:
        raise ScenarioError("rate_policy with a mode is required")
    method = doc.get("allocation_method")
    if method not in _METHODS:
        raise ScenarioError(f"allocation_method must be one of {_METHODS}, got {method!r}")
    manual = doc.get("manual_blocks")
    if method == Method.MANUAL:
        if not isinstance(manual, list) or not all(type(b) is int for b in manual):
            raise ScenarioError("manual allocation requires integer manual_blocks")
        if sum(manual) != total_q or any(b < 1 for b in manual):
            raise ScenarioError("manual_blocks must be positive and sum to total_q")
        if len(manual) != len(hops_spec):
            raise ScenarioError("manual_blocks length must match hop count")
    elif manual is not None:
        raise ScenarioError("manual_blocks only allowed with the manual method")
    hops = [_parse_hop(h, i) for i, h in enumerate(hops_spec)]
    return Scenario(total_q=total_q, hops=hops, rate_policy=policy,
                    allocation_method=method, manual_blocks=manual)


def build_allocation(ev: Evaluation) -> list[int]:
    """Integer split of Q for an evaluated scenario.

    A reliability-optimal split reads only the exponent family it balances.
    """
    sc = ev.scenario
    if sc.allocation_method == Method.MANUAL:
        return list(sc.manual_blocks)
    if sc.allocation_method == Method.INFO_CONTINUOUS:
        return information_continuous_blocks(ev.rates, sc.total_q)
    exps = ev.balanced_exponents
    if any(e <= 0 for e in exps):
        bad = next(i for i, e in enumerate(exps) if e <= 0)
        raise AllocationError(f"hop {bad}: rate at/above capacity, zero exponent")
    return reliability_optimal_blocks(exps, sc.total_q)
