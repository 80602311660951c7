"""Reliability bounds, blocklength allocation, and ARQ latency for
delay-constrained linear multi-hop networks."""

from .allocation import (AllocationError, Method, end_to_end_rate,
                         information_continuous_blocks, network_capacity,
                         rate_policy_scale, reliability_optimal_blocks,
                         reliability_real_blocks)
from .arq import (ArqChain, LatencyError, LatencyEstimate, expected_latency,
                  latency_bounds, latency_variance, simulate_latency)
from .channel import (ChannelError, HopChannel, capacity, e0,
                      e0_awgn, e0_derivative, e0_dmc)
from .exponents import (ExponentResult, Regime, critical_rate,
                        random_coding_exponent, sphere_packing_exponent)
from .oracle import (GridSpec, bsc_ensemble_error, exhaustive_allocation,
                     grid_max_exponent)
from .scenario import (Evaluation, Scenario, ScenarioError, build_allocation,
                       load_scenario)
from .system import SystemBounds, system_error_bounds

__version__ = "0.1.0"

__all__ = [
    "AllocationError", "Method", "end_to_end_rate", "information_continuous_blocks",
    "network_capacity", "rate_policy_scale", "reliability_optimal_blocks",
    "reliability_real_blocks",
    "ArqChain", "LatencyError", "LatencyEstimate", "expected_latency",
    "latency_bounds", "latency_variance", "simulate_latency",
    "ChannelError", "HopChannel", "capacity", "e0", "e0_awgn",
    "e0_derivative", "e0_dmc",
    "ExponentResult", "Regime", "critical_rate",
    "random_coding_exponent", "sphere_packing_exponent",
    "GridSpec", "bsc_ensemble_error", "exhaustive_allocation", "grid_max_exponent",
    "Evaluation", "Scenario", "ScenarioError", "build_allocation", "load_scenario",
    "SystemBounds", "system_error_bounds",
]
