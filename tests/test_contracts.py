"""One domain contract for every public name: with any one numeric argument set to
an adversarial value, each callable in each module's `__all__` returns finite
values, or a documented inf, or raises a ValueError subclass, within 5 s."""

import dataclasses
import importlib
import json
import math
import numbers
import pkgutil
import signal
import warnings

import numpy as np
import pytest

import hopbound
from hopbound.allocation import (end_to_end_rate, info_continuous_log_m,
                                 information_continuous_blocks, network_capacity,
                                 rate_policy_scale, reliability_optimal_blocks,
                                 reliability_real_blocks)
from hopbound.arq import (ArqChain, arq_chains, expected_latency, latency_bounds,
                          latency_variance, simulate_latencies, simulate_latency)
from hopbound.channel import (HopChannel, capacity, e0, e0_awgn, e0_derivative, e0_dmc,
                              snr_db_to_linear)
from hopbound.distproto import (compute_and_broadcast, derive_blocks, fold_into, forward_pass,
                                run_distributed_allocation)
from hopbound.exponents import (ARRAY_MIN_HOPS, critical_rate, hop_exponents,
                                random_coding_exponent, sphere_packing_exponent)
from hopbound.oracle import GridSpec, bsc_ensemble_error, exhaustive_allocation, grid_max_exponent
from hopbound.scenario import _COLUMNS, Evaluation, Row, Scenario, build_allocation, load_scenario
from hopbound.system import stacked_error_bounds, system_error_bounds

VALUES = [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, 1e308, -1, True, 10 ** 400]

AWGN, BSC = HopChannel.awgn(1.0), HopChannel.bsc(0.1)
# R_inf = ln 1.5: sphere packing's exponent is +inf below it (a documented inf)
DMC = HopChannel.dmc([[0.8, 0.2, 0.0], [0.0, 0.8, 0.2], [0.2, 0.0, 0.8]])
CHAIN = ArqChain([0.1, 0.2], [5, 7])
BROADCAST = run_distributed_allocation([0.5, 0.25], [(0.3, 0.4), (0.2, 0.5)], 20)[0]


def _message():
    return {"frame_rate": None, "frame_rc": None, "frame_sp": None}


def _chain(p=0.2, cost=7):
    return ArqChain([0.1, p], [5, cost])


def _bounds(e_sp=0.4, e_r=0.2, block=7):
    return system_error_bounds([5, block], [0.1, e_r], [0.3, e_sp])


def _scenario(total_q=20, rate=0.25, method="info_continuous"):
    return Scenario(total_q=total_q, hops=[AWGN, AWGN], allocation_method=method,
                    rate_policy={"mode": "explicit", "rates_nats": [0.1, rate]},
                    manual_blocks=[10, 10] if method == "manual" else None)


def _columns(row: Row) -> list:
    """Every column's value at `row`, or the ValueError reading it raises."""
    def cell(name):
        try:
            return row.value(name)
        except ValueError as exc:
            return exc
    return [cell(name) for name in _COLUMNS]


def _scenario_file(tmp_path, **fields):
    doc = {"schema_version": 1, "total_q": 20, "allocation_method": "info_continuous",
           "hops": [{"type": "awgn", "snr_db": 3.0},
                    {"type": "dmc", "transition": [[0.9, 0.1], [0.1, 0.9]]}],
           "rate_policy": {"mode": "explicit", "rates_nats": [0.1, 0.2]}}
    for path, value in fields.items():  # a dotted path into the document
        *keys, last = [int(k) if k.isdigit() else k for k in path.split(".")]
        target = doc
        for key in keys:
            target = target[key]
        target[last] = value
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))  # NaN and inf as NaN and Infinity, which json.load reads
    return str(path)


def _loaded(tmp_path, **fields) -> tuple:
    """A scenario file's checked fields, and its rates or the ValueError resolving them."""
    sc = load_scenario(_scenario_file(tmp_path, **fields))
    try:
        rates = sc.resolve_rates()
    except ValueError as exc:
        rates = exc
    return sc.total_q, sc.hops, sc.manual_blocks, rates


# public name -> (slots, inf): each slot builds a call from the one value it varies;
# `inf` names the documented inf the results may hold, else None
CONTRACTS = {
    "allocation.end_to_end_rate": ([
        lambda v, _: end_to_end_rate([3, v], [0.5, 0.25]),
        lambda v, _: end_to_end_rate([3, 4], [0.5, v])], None),
    "allocation.network_capacity": ([lambda v, _: network_capacity([1.0, v])], None),
    "allocation.reliability_real_blocks": ([
        lambda v, _: reliability_real_blocks([0.5, v], 10),
        lambda v, _: reliability_real_blocks([0.5, 0.25], v)], None),
    "allocation.reliability_optimal_blocks": ([
        lambda v, _: reliability_optimal_blocks([0.5, v], 10),
        lambda v, _: reliability_optimal_blocks([0.5, 0.25], v)], None),
    "allocation.info_continuous_log_m": ([
        lambda v, _: info_continuous_log_m([0.5, v], 10),
        lambda v, _: info_continuous_log_m([0.5, 0.25], v)], None),
    "allocation.information_continuous_blocks": ([
        lambda v, _: information_continuous_blocks([0.5, v], 10),
        lambda v, _: information_continuous_blocks([0.5, 0.25], v),
        lambda v, _: information_continuous_blocks([0.5, 0.25], 10, v)], None),
    "allocation.rate_policy_scale": ([
        lambda v, _: rate_policy_scale([1.0, v], 0.1),
        lambda v, _: rate_policy_scale([1.0, 2.0], v)], None),
    "arq.ArqChain": ([lambda v, _: _chain(p=v), lambda v, _: _chain(cost=v)], None),
    "arq.expected_latency": ([lambda v, _: expected_latency(_chain(p=v)),
                              lambda v, _: expected_latency(_chain(cost=v))], None),
    "arq.latency_variance": ([lambda v, _: latency_variance(_chain(p=v)),
                              lambda v, _: latency_variance(_chain(cost=v))], None),
    "arq.simulate_latency": ([
        lambda v, _: simulate_latency(_chain(p=v), 100, 1),
        lambda v, _: simulate_latency(_chain(cost=v), 100, 1),
        lambda v, _: simulate_latency(CHAIN, v, 1),
        lambda v, _: simulate_latency(CHAIN, 100, v),
        lambda v, _: simulate_latency(CHAIN, 100, 1, v)], None),
    "arq.simulate_latencies": ([
        lambda v, _: simulate_latencies([CHAIN, _chain(p=v)], 100, 1),
        lambda v, _: simulate_latencies([CHAIN, CHAIN], v, 1),
        lambda v, _: simulate_latencies([CHAIN, CHAIN], 100, v),
        lambda v, _: simulate_latencies([CHAIN, CHAIN], 100, 1, v)], None),
    "arq.arq_chains": ([lambda v, _: arq_chains(_bounds(e_r=v), [5, 7]),
                        lambda v, _: arq_chains(_bounds(), [5, v])], None),
    "arq.latency_bounds": ([lambda v, _: latency_bounds(arq_chains(_bounds(e_sp=v), [5, 7])),
                            lambda v, _: latency_bounds(arq_chains(_bounds(block=v), [5, v]))],
                           None),
    "channel.HopChannel": ([
        lambda v, _: HopChannel("awgn", v),
        lambda v, _: HopChannel("dmc", transition=[[v, 0.0], [0.0, 1.0]]),
        lambda v, _: HopChannel("dmc", transition=[[1.0, 0.0], [0.0, 1.0]], input_dist=[v, 0.5]),
        lambda v, _: HopChannel.awgn(v),
        lambda v, _: HopChannel.awgn_hops([1.0, v]),
        lambda v, _: HopChannel.bsc(v),
        lambda v, _: HopChannel.dmc([[0.5, 0.5], [0.5, v]])], None),
    "channel.e0_awgn": ([lambda v, _: e0_awgn(v, 1.0), lambda v, _: e0_awgn([0.5, v], 1.0),
                         lambda v, _: e0_awgn(0.5, v)], None),
    "channel.e0_dmc": ([lambda v, _: e0_dmc(v, BSC), lambda v, _: e0_dmc([0.5, v], DMC)], None),
    "channel.e0": ([lambda v, _: e0(v, AWGN), lambda v, _: e0(v, BSC)], None),
    "channel.e0_derivative": ([lambda v, _: e0_derivative(v, AWGN),
                               lambda v, _: e0_derivative([0.5, v], DMC)], None),
    "channel.capacity": ([lambda v, _: capacity(HopChannel.awgn(v)),
                          lambda v, _: capacity(HopChannel.bsc(v))], None),
    "channel.snr_db_to_linear": ([lambda v, _: snr_db_to_linear(v)], None),
    "distproto.fold_into": ([
        lambda v, _: fold_into(_message(), v, 0.5, (0.3, 0.4)),
        lambda v, _: fold_into(_message(), 1, v, (0.3, 0.4)),
        lambda v, _: fold_into(_message(), 1, 0.5, (v, 0.4)),
        lambda v, _: fold_into(_message(), 1, 0.5, (0.3, v))], None),
    "distproto.derive_blocks": ([
        lambda v, _: derive_blocks(v, (0.3, 0.4), BROADCAST),
        lambda v, _: derive_blocks(0.5, (v, 0.4), BROADCAST),
        lambda v, _: derive_blocks(0.5, (0.3, v), BROADCAST)], None),
    "distproto.forward_pass": ([
        lambda v, _: forward_pass([0.5, v], [(0.3, 0.4), (0.2, 0.5)], []),
        lambda v, _: forward_pass([0.5, 0.25], [(0.3, 0.4), (v, 0.5)])], None),
    # without a trace, which would hold n_nodes records
    "distproto.compute_and_broadcast": ([
        lambda v, _: compute_and_broadcast(forward_pass([0.5, 0.25], [(0.3, 0.4), (0.2, 0.5)]),
                                           v, 2)], None),
    "distproto.run_distributed_allocation": ([
        lambda v, _: run_distributed_allocation([0.5, v], [(0.3, 0.4), (0.2, 0.5)], 20, []),
        lambda v, _: run_distributed_allocation([0.5, 0.25], [(0.3, 0.4), (0.2, v)], 20),
        lambda v, _: run_distributed_allocation([0.5, 0.25], [(0.3, 0.4), (0.2, 0.5)], v)],
        None),
    "exponents.random_coding_exponent": ([lambda v, _: random_coding_exponent(v, AWGN),
                                          lambda v, _: random_coding_exponent(v, DMC)], None),
    "exponents.sphere_packing_exponent": ([lambda v, _: sphere_packing_exponent(v, AWGN),
                                           lambda v, _: sphere_packing_exponent(v, DMC)],
                                          "E_sp below R_inf"),
    "exponents.hop_exponents": ([
        lambda v, _: hop_exponents([0.2, v], [AWGN, DMC]),
        lambda v, _: hop_exponents([0.2] * (ARRAY_MIN_HOPS - 1) + [v], [AWGN] * ARRAY_MIN_HOPS),
        lambda v, _: hop_exponents([0.2, 0.2], [AWGN, HopChannel.awgn(v)])], "E_sp below R_inf"),
    "exponents.critical_rate": ([lambda v, _: critical_rate(HopChannel.awgn(v)),
                                 lambda v, _: critical_rate(HopChannel.bsc(v))], None),
    "oracle.GridSpec": ([lambda v, _: GridSpec(v, 1.0, 0.5), lambda v, _: GridSpec(0.0, v, 0.5),
                         lambda v, _: GridSpec(0.0, 1.0, v)], None),
    "oracle.grid_max_exponent": ([
        lambda v, _: grid_max_exponent(v, AWGN, GridSpec(0.0, 1.0, 0.25)),
        lambda v, _: grid_max_exponent(0.1, HopChannel.awgn(v), GridSpec(0.0, 1.0, 0.25))],
        None),
    "oracle.exhaustive_allocation": ([lambda v, _: exhaustive_allocation([1.0, v], 10),
                                      lambda v, _: exhaustive_allocation([1.0, 2.0], v)], None),
    "oracle.bsc_ensemble_error": ([
        lambda v, _: bsc_ensemble_error(v, 2, 0.1, 3, 1),
        lambda v, _: bsc_ensemble_error(4, v, 0.1, 3, 1),
        lambda v, _: bsc_ensemble_error(4, 2, v, 3, 1),
        lambda v, _: bsc_ensemble_error(4, 2, 0.1, v, 1),
        lambda v, _: bsc_ensemble_error(4, 2, 0.1, 3, v)], None),
    # a scenario keeps its rate policy as given, and resolving its rates checks it
    "scenario.load_scenario": ([
        lambda v, tmp: _loaded(tmp, total_q=v),
        lambda v, tmp: _loaded(tmp, **{"hops.0.snr_db": v}),
        lambda v, tmp: _loaded(tmp, **{"hops.1.transition.0.1": v}),
        lambda v, tmp: _loaded(tmp, **{"rate_policy.rates_nats.1": v}),
        lambda v, tmp: _loaded(tmp, rate_policy={"mode": "capacity_fraction", "beta": v}),
        lambda v, tmp: _loaded(tmp, rate_policy={"mode": "target_rate", "rate_nats": v}),
        lambda v, tmp: _loaded(tmp, allocation_method="manual", manual_blocks=[v, 20])], None),
    "scenario.Evaluation": ([
        lambda v, _: _columns(Evaluation([_scenario(rate=v)])[0]),
        lambda v, _: _columns(Evaluation([_scenario(total_q=v)])[0]),
        lambda v, _: _columns(Evaluation([_scenario(total_q=v, method="reliability_optimal_sp")
                                          ])[0])], "E_sp below R_inf"),
    "scenario.Row": ([lambda v, _: _columns(Row(Evaluation([_scenario(rate=v)]), 0)),
                      lambda v, _: _columns(Row(Evaluation([_scenario(
                          total_q=v, method="manual")]), 0))], "E_sp below R_inf"),
    "scenario.build_allocation": ([
        lambda v, _: build_allocation(_scenario(), [0.1, v], None),
        lambda v, _: build_allocation(_scenario(), [0.1, 0.2], v),
        lambda v, _: build_allocation(_scenario(total_q=v), [0.1, 0.2], None)], None),
    "system.system_error_bounds": ([
        lambda v, _: _bounds(block=v), lambda v, _: _bounds(e_r=v),
        lambda v, _: _bounds(e_sp=v)], "E_sp below R_inf"),
    "system.stacked_error_bounds": ([
        lambda v, _: stacked_error_bounds([[5, v]], [[0.1, 0.2]], [[0.3, 0.4]]),
        lambda v, _: stacked_error_bounds([[5, 7]], [[0.1, v]], [[0.3, 0.4]]),
        lambda v, _: stacked_error_bounds([[5, 7]], [[0.1, 0.2]], [[0.3, v]])],
        "E_sp below R_inf"),
}


def _public_names() -> dict[str, object]:
    """'module.name' -> object for every name in every module's __all__."""
    names = {}
    for info in pkgutil.iter_modules(hopbound.__path__):
        module = importlib.import_module(f"hopbound.{info.name}")
        for name in getattr(module, "__all__", ()):
            names[f"{info.name}.{name}"] = getattr(module, name)
    return names


def _is_record(obj) -> bool:
    """An error class, a class of constants, or a dataclass that checks nothing: no
    argument of theirs has a domain."""
    return isinstance(obj, type) and (
        issubclass(obj, Exception) or obj.__init__ is object.__init__
        or dataclasses.is_dataclass(obj) and not hasattr(obj, "__post_init__"))


def _finite(value, inf: bool) -> bool:
    """Whether every number in `value` is finite, or +inf where `inf` allows it."""
    if isinstance(value, (str, numbers.Integral, type(None), ValueError)):
        return True
    if isinstance(value, numbers.Real):
        return math.isfinite(value) or inf and value == math.inf
    if isinstance(value, np.ndarray):
        return bool(np.all(np.isfinite(value) | (inf & (value == np.inf))))
    if isinstance(value, dict):
        return _finite(list(value.values()), inf)
    if isinstance(value, (list, tuple)):
        return all(_finite(v, inf) for v in value)
    return _finite(vars(value), inf)


class _Hang(Exception):
    pass


def _on_alarm(signum, frame):
    raise _Hang


def test_every_public_callable_has_a_contract():
    names = _public_names()
    records = {name for name, obj in names.items() if _is_record(obj)}
    assert set(names) - records == set(CONTRACTS)


@pytest.mark.parametrize("name", sorted(CONTRACTS))
def test_adversarial_values_give_finite_results_or_domain_errors(name, tmp_path):
    slots, inf = CONTRACTS[name]
    faults = []
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    try:
        for k, call in enumerate(slots):
            for value in VALUES:
                signal.alarm(5)
                try:
                    with warnings.catch_warnings():
                        warnings.simplefilter("error")
                        result = call(value, tmp_path)
                    if not _finite(result, inf is not None):
                        faults.append((k, value, f"returned {result!r}"))
                except ValueError:
                    pass
                except _Hang:
                    faults.append((k, value, "ran past 5 s"))
                except Exception as exc:  # noqa: BLE001, every other class breaks the contract
                    faults.append((k, value, f"raised {exc!r}"))
                finally:
                    signal.alarm(0)
    finally:
        signal.signal(signal.SIGALRM, previous)
    assert not faults
