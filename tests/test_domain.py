"""Public names raise a domain error, not an ArithmeticError, on a value past
the doubles' range."""

from fractions import Fraction

import numpy as np
import pytest

from hopbound.allocation import (AllocationError, end_to_end_rate, info_continuous_log_m,
                                 information_continuous_blocks, network_capacity,
                                 rate_policy_scale, reliability_optimal_blocks,
                                 reliability_real_blocks)
from hopbound.arq import ArqChain, simulate_latencies, simulate_latency
from hopbound.channel import ChannelError, HopChannel, e0, e0_awgn, e0_derivative, e0_dmc
from hopbound.distproto import derive_blocks, fold_into, forward_pass, run_distributed_allocation
from hopbound.oracle import GridSpec, bsc_ensemble_error, exhaustive_allocation, grid_max_exponent
from hopbound.system import system_error_bounds

HUGE = 10 ** 400
_CHAIN = ArqChain([0.1, 0.01], [5, 7])
_BROADCAST = run_distributed_allocation([1.0], [(1.0, 1.0)], 10)[0]
_AWGN, _BSC = HopChannel.awgn(1.0), HopChannel.bsc(0.1)


def _message():
    return {"frame_rate": None, "frame_rc": None, "frame_sp": None}


@pytest.mark.parametrize("call, error, match", [
    (lambda h: network_capacity([1.0, h]), AllocationError, "capacities must convert"),
    (lambda h: rate_policy_scale([1.0, h], 0.1), AllocationError, "capacities must convert"),
    (lambda h: reliability_real_blocks([1.0, h], 10), AllocationError, "exponents .* convert"),
    (lambda h: reliability_optimal_blocks([1.0, h], 10), AllocationError, "exponents .* convert"),
    (lambda h: info_continuous_log_m([1.0, h], 10), AllocationError, "rates must convert"),
    (lambda h: information_continuous_blocks([1.0, h], 10), AllocationError,
     "rates must convert"),
    (lambda h: end_to_end_rate([1, h], [1.0, 1.0]), AllocationError, "blocks must convert"),
    (lambda h: end_to_end_rate([1, 1], [1.0, h]), AllocationError, "rates must convert"),
    (lambda h: fold_into(_message(), 3, h, (1.0, 1.0)), AllocationError, "^hop 3's rate"),
    (lambda h: fold_into(_message(), 3, 1.0, (1.0, h)), AllocationError, "^hop 3's rate"),
    (lambda h: forward_pass([1.0, 1.0], [(1.0, 1.0), (h, 1.0)]), AllocationError,
     "^hop 2's rate"),
    (lambda h: derive_blocks(h, (1.0, 1.0), _BROADCAST), AllocationError, "^the hop's rate"),
    (lambda h: derive_blocks(1.0, (h, 1.0), _BROADCAST), AllocationError, "^the hop's rate"),
    (lambda h: simulate_latency(_CHAIN, int(h), 1), ValueError, r"at most 2\*\*53"),
    (lambda h: simulate_latencies([_CHAIN] * 2, int(h), 1), ValueError, r"at most 2\*\*53"),
    (lambda h: e0_awgn(h, 1.0), ChannelError, "rho must convert"),
    (lambda h: e0_awgn(1.0, h), ChannelError, "snr must convert"),
    (lambda h: e0(h, _AWGN), ChannelError, "rho must convert"),
    (lambda h: e0(h, _BSC), ChannelError, "rho must convert"),
    (lambda h: e0_derivative([0.5, h], _AWGN), ChannelError, "rho must convert"),
    (lambda h: e0_derivative(h, _BSC), ChannelError, "rho must convert"),
    (lambda h: e0_dmc(h, _BSC), ChannelError, "rho must convert"),
    (lambda h: HopChannel.awgn(h), ChannelError, "snr must convert"),
    (lambda h: system_error_bounds([10, h], [0.1, 0.2], [0.3, 0.4]), ValueError,
     "blocks and exponents must convert"),
    (lambda h: system_error_bounds([10, 20], [0.1, h], [0.3, 0.4]), ValueError,
     "blocks and exponents must convert"),
    (lambda h: system_error_bounds([10, 20], [0.1, 0.2], [h, 0.4]), ValueError,
     "blocks and exponents must convert"),
    (lambda h: grid_max_exponent(h, _AWGN, GridSpec(0.0, 1.0, 0.5)), ValueError,
     "rate must convert"),
    (lambda h: exhaustive_allocation([1.0, h], 10), ValueError, "exponents must convert"),
    (lambda h: GridSpec(0, h, 1), ValueError, "rho_min, rho_max and step must convert"),
    (lambda h: GridSpec(h, 10 * h, 1), ValueError, "rho_min, rho_max and step must convert"),
    (lambda h: HopChannel("awgn", h), ChannelError, "snr must convert"),
    (lambda h: HopChannel.dmc([[h, 0.0], [0.0, 1.0]]), ChannelError, "transition must convert"),
    (lambda h: HopChannel.dmc([[1.0, 0.0], [0.0, 1.0]], [h, 0.0]), ChannelError,
     "input_dist must convert"),
], ids=["network_capacity", "rate_policy_scale", "reliability_real_blocks",
        "reliability_optimal_blocks", "info_continuous_log_m", "information_continuous_rates",
        "end_to_end_blocks", "end_to_end_rates", "fold_into_rate", "fold_into_exponent",
        "forward_pass", "derive_blocks_rate", "derive_blocks_exponent", "simulate_latency",
        "simulate_latencies", "e0_awgn_rho", "e0_awgn_snr", "e0_awgn_kind", "e0_dmc_kind",
        "e0_derivative_awgn", "e0_derivative_dmc", "e0_dmc", "awgn", "system_error_bounds_blocks",
        "system_error_bounds_e_r", "system_error_bounds_e_sp", "grid_max_exponent",
        "exhaustive_allocation", "grid_rho_max", "grid_rho_min_and_max", "awgn_constructor",
        "dmc_transition", "dmc_input_dist"])
@pytest.mark.parametrize("huge", [HUGE, Fraction(HUGE, 3)], ids=["10**400", "10**400/3"])
def test_values_past_the_doubles_range_raise_domain_errors(call, error, match, huge):
    # each raised OverflowError; trials are capped as ArqChain caps costs
    with pytest.raises(error, match=match):
        call(huge)


@pytest.mark.parametrize("call", [
    lambda b: reliability_optimal_blocks([1.0, 2.0], b(10)),
    lambda b: information_continuous_blocks([1.0, 2.0], b(10)),
    lambda b: information_continuous_blocks([1.0, 1.0], b(11)),
    lambda b: ArqChain([0.1], [b(5)]),
    lambda b: simulate_latency(_CHAIN, b(10), 1),
    lambda b: simulate_latency(_CHAIN, 10, b(1)),
    lambda b: simulate_latency(_CHAIN, 10, 1, b(1)),
    lambda b: exhaustive_allocation([1.0, 2.0], b(10)),
    lambda b: bsc_ensemble_error(b(4), 2, 0.1, 3, 1),
    lambda b: bsc_ensemble_error(4, 2, 0.1, b(3), 1),
    lambda b: bsc_ensemble_error(4, 2, 0.1, 3, b(1)),
], ids=["reliability_optimal_blocks", "information_continuous_blocks",
        "information_continuous_blocks_exact_tie", "ArqChain",
        "simulate_latency_trials", "simulate_latency_seed", "simulate_latency_workers",
        "exhaustive_allocation", "bsc_ensemble_error_blocklength", "bsc_ensemble_error_trials",
        "bsc_ensemble_error_seed"])
def test_an_integer_argument_takes_numpy_integers_and_no_bool(call):
    # exhaustive_allocation and bsc_ensemble_error once took Python ints alone, and the
    # exact common-M split of a tie overflowed a C long on NumPy ones
    assert call(np.int64) == call(int)
    with pytest.raises(ValueError):
        call(lambda k: True)
