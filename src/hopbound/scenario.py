"""Scenario JSON ingestion and the one evaluation pipeline over a scenario.

A scenario file fixes the hop channels, the total channel-use budget Q,
a per-hop rate policy, and the allocation method; SNR in dB is converted
to linear exactly once, here.  An `Evaluation` computes each derived
quantity once, on first use: rates, each hop's RC and SP exponents, the
split and its end-to-end rate, the real-valued optima the CLI reports, the
system error bounds, the ARQ chains and latency bounds.  `e_sp` takes the
RC results above the critical rate from `exponents.hop_exponents`.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from functools import cached_property

from .allocation import (AllocationError, Method, balanced_blocks, end_to_end_rate,
                         info_continuous_log_m, information_continuous_blocks,
                         rate_policy_scale, reliability_real_blocks)
from .arq import ArqChain, arq_chains, latency_bounds
from .channel import HopChannel, capacity
from .exponents import hop_exponents
from .system import SystemBounds, system_error_bounds

__all__ = ["ScenarioError", "Scenario", "Evaluation", "load_scenario", "build_allocation"]

SCHEMA_VERSION = 1

_METHODS = (Method.RELIABILITY_OPTIMAL_RC, Method.RELIABILITY_OPTIMAL_SP,
            Method.INFO_CONTINUOUS, Method.MANUAL)

# the exponent family ("r" or "sp") each reliability-optimal method balances
_BALANCED_FAMILY = {Method.RELIABILITY_OPTIMAL_RC: "r", Method.RELIABILITY_OPTIMAL_SP: "sp"}


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

    _SHARED = ("rates", "rc", "e_r", "e_sp")

    def __init__(self, scenario: Scenario):
        self.scenario = scenario

    def for_method(self, method: str) -> Evaluation:
        """An evaluation of the same scenario under another allocation method.

        It shares the rates and exponents this one has solved so far, so a
        second method on the same hops and rates solves nothing again.
        """
        ev = Evaluation(replace(self.scenario, allocation_method=method))
        ev.__dict__.update((k, v) for k, v in vars(self).items() if k in self._SHARED)
        return ev

    @cached_property
    def rates(self) -> list[float]:
        return self.scenario.resolve_rates()

    @cached_property
    def rc(self) -> list[list]:
        """[exponents, rho_stars, regimes] of the random-coding family at each hop's rate."""
        return hop_exponents(self.rates, self.scenario.hops, "r")

    @cached_property
    def e_r(self) -> list[float]:
        """Random-coding exponent of each hop at its rate."""
        return self.rc[0]

    @cached_property
    def e_sp(self) -> list[float]:
        """Sphere-packing exponent of each hop at its rate; reuses `rc` if solved."""
        return hop_exponents(self.rates, self.scenario.hops, "sp", vars(self).get("rc"))[0]

    @property
    def balanced_exponents(self) -> list[float] | None:
        """The exponents a reliability-optimal method balances; None for the others."""
        family = _BALANCED_FAMILY.get(self.scenario.allocation_method)
        return None if family is None else getattr(self, f"e_{family}")

    @cached_property
    def ln_m(self) -> float:
        """ln M of the common-codeword-count split, Q / sum(1/R_n)."""
        return info_continuous_log_m(self.rates, self.scenario.total_q)

    @cached_property
    def shares_r(self) -> list[float]:
        """Real error-balancing shares of Q on e_r."""
        return reliability_real_blocks(self.e_r, self.scenario.total_q)

    @cached_property
    def shares_sp(self) -> list[float]:
        """Real error-balancing shares of Q on e_sp."""
        return reliability_real_blocks(self.e_sp, self.scenario.total_q)

    @property
    def balanced_shares(self) -> list[float] | None:
        """The real shares of the family the method balances; None for the others."""
        family = _BALANCED_FAMILY.get(self.scenario.allocation_method)
        return None if family is None else getattr(self, f"shares_{family}")

    @cached_property
    def stationarity_residual(self) -> float | None:
        """Spread (max - min) over hops of Q_n E_n - ln E_n at the balanced real
        shares, which is 0 at the exact optimum; None unless a family is balanced."""
        exps, shares = self.balanced_exponents, self.balanced_shares
        if exps is None:
            return None
        balance = [q * e - math.log(e) for q, e in zip(shares, exps)]
        return max(balance) - min(balance)

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

    A reliability-optimal split reads only the family it balances: its exponents and shares.
    """
    sc = ev.scenario
    if sc.allocation_method == Method.MANUAL:
        return list(sc.manual_blocks)
    if sc.allocation_method == Method.INFO_CONTINUOUS:
        return information_continuous_blocks(ev.rates, sc.total_q, ev.ln_m)
    exps = ev.balanced_exponents
    if any(e <= 0 for e in exps):
        bad = next(i for i, e in enumerate(exps) if e <= 0)
        raise AllocationError(f"hop {bad}: rate at/above capacity, zero exponent")
    return balanced_blocks(exps, sc.total_q, ev.balanced_shares)
