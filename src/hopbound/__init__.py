"""Reliability bounds, blocklength allocation, and ARQ latency for
delay-constrained linear multi-hop networks.

``import hopbound`` loads none of the package's modules: each public name, and
each submodule such as ``hopbound.channel``, loads its module on first access
(PEP 562), so ``hopbound.simulate_latency`` loads ``hopbound.arq`` alone.
Importing ``hopbound.cli`` loads every module a command may need.  Every module
reads the domain's number rules from here: `_doubles` and `_is_integer`.
"""

import importlib
import numbers

__version__ = "0.1.0"

_EXPORTS = {
    "allocation": ("AllocationError", "Method", "end_to_end_rate",
                   "information_continuous_blocks", "network_capacity", "rate_policy_scale",
                   "reliability_optimal_blocks", "reliability_real_blocks"),
    "arq": ("ArqChain", "LatencyError", "LatencyEstimate", "expected_latency",
            "latency_bounds", "latency_variance", "simulate_latency"),
    "channel": ("ChannelError", "HopChannel", "capacity", "e0", "e0_awgn", "e0_derivative",
                "e0_dmc"),
    "exponents": ("ExponentResult", "Regime", "critical_rate", "random_coding_exponent",
                  "sphere_packing_exponent"),
    "oracle": ("GridSpec", "bsc_ensemble_error", "exhaustive_allocation", "grid_max_exponent"),
    "scenario": ("Evaluation", "Scenario", "ScenarioError", "build_allocation", "load_scenario"),
    "system": ("SystemBounds", "system_error_bounds"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name, name)
    try:
        value = importlib.import_module(f"{__name__}.{module}")
    except ModuleNotFoundError as exc:
        if exc.name != f"{__name__}.{name}":
            raise
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    if module != name:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})


def _doubles(values, error: type, what: str, convert=None):
    """`values`, which the caller has checked, as a list of doubles, or as convert(values)
    (np.asarray(values, dtype=float), say); `error` naming `what` for a value past the
    doubles' range, such as the int 10**400."""
    try:
        return [float(v) for v in values] if convert is None else convert(values)
    except OverflowError:
        raise error(f"{what} must convert to a double, got one past the doubles' range") from None


def _is_integer(x, low=-float("inf"), high=float("inf")) -> bool:
    """Whether `x` is a numbers.Integral (numpy's too), not a bool, in [low, high]."""
    return isinstance(x, numbers.Integral) and not isinstance(x, bool) and low <= x <= high
