"""End-to-end acceptance checks.

Each test prints a single PASS/FAIL line so the suite doubles as a
human-readable report when run with `pytest -s tests/test_acceptance.py`.
Tolerances and runtime budgets are part of the contract and are asserted.
"""

import functools
import math
import time

import numpy as np

from hopbound.allocation import (Method, balance_lagrange, balance_step,
                                 info_continuous_log_m,
                                 information_continuous_blocks,
                                 reliability_optimal_blocks,
                                 reliability_real_blocks)
from hopbound.arq import ArqChain, expected_latency, simulate_latency
from hopbound.channel import HopChannel, capacity
from hopbound.cli import REPRODUCE_Q, _sweep_targets, main
from hopbound.distproto import compute_and_broadcast, derive_blocks, forward_pass, \
    run_distributed_allocation
from hopbound.exponents import (critical_rate, hop_exponents, random_coding_exponent,
                                sphere_packing_exponent)
from hopbound.oracle import exhaustive_allocation
from hopbound.scenario import Evaluation, Scenario


def report(num: int, label: str, ok: bool) -> None:
    print(f"criterion {num:2d} [{label}]: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({label}) failed"


def elapsed_ok(start: float, budget: float) -> bool:
    return time.monotonic() - start < budget


def sweep_point(hops, method: str, target: float):
    """One swept point of `reproduce` as a one-row table: capacity-proportional
    rates at an end-to-end target."""
    manual = [REPRODUCE_Q] if method == Method.MANUAL else None
    return Evaluation([Scenario(REPRODUCE_Q, hops, {"mode": "target_rate", "rate_nats": target},
                                method, manual)])[0]


def test_criterion_01_critical_rate_closed_form_and_exponent_equality():
    start = time.monotonic()
    ch = HopChannel.awgn(1.0)
    r_cr = critical_rate(ch)
    ok = abs(r_cr - (math.log(1.5) - 1.0 / 6.0)) <= 1e-10
    cap = capacity(ch)
    for rate in np.linspace(r_cr, cap * (1 - 1e-9), 200):
        e_r = random_coding_exponent(float(rate), ch).exponent
        e_sp = sphere_packing_exponent(float(rate), ch).exponent
        ok = ok and abs(e_r - e_sp) <= 1e-9
    ok = ok and elapsed_ok(start, 1.0)
    report(1, "critical rate closed form, exponent equality above it", ok)


def test_criterion_02_grid_oracle_equivalence():
    start = time.monotonic()
    # 50 seeded AWGN instances, RC and SP within 1e-8 of a dense-grid maximum
    ok = main(["verify", "--suite", "grid", "--seed", "2"]) == 0
    ok = ok and elapsed_ok(start, 30.0)
    report(2, "parametric exponents match dense-grid maximization", ok)


def test_criterion_03_integer_allocation_matches_exhaustive_search():
    start = time.monotonic()
    rng = np.random.default_rng(3)
    ok = True
    for _ in range(20):
        n = int(rng.integers(2, 4))
        exps = [float(rng.uniform(0.05, 1.0)) for _ in range(n)]
        q = int(rng.integers(n, 61))
        got = reliability_optimal_blocks(exps, q)
        want = exhaustive_allocation(exps, q)
        got_val = sum(math.exp(-b * e) for b, e in zip(got, exps))
        want_val = sum(math.exp(-b * e) for b, e in zip(want, exps))
        ok = ok and got_val <= want_val * (1 + 1e-12)
    ok = ok and elapsed_ok(start, 60.0)
    report(3, "Lagrange plus integer repair equals exhaustive search", ok)


def test_criterion_04_error_balancing_stationarity():
    rng = np.random.default_rng(4)
    ok = True
    for _ in range(25):
        n = int(rng.integers(2, 6))
        exps = [float(rng.uniform(0.02, 2.0)) for _ in range(n)]
        q = int(rng.integers(50, 5000))
        blocks = reliability_real_blocks(exps, q)
        lam = balance_lagrange(functools.reduce(balance_step, exps, None), q)
        vals = [b * e - math.log(e) for b, e in zip(blocks, exps)]
        spread = max(vals) - min(vals)
        ok = ok and spread <= 1e-8 and abs(vals[0] - (-lam)) <= 1e-8
    report(4, "reliability-optimal split balances Q_n*E_n - ln E_n", ok)


def test_criterion_05_info_continuous_recovers_time_share():
    hops = [HopChannel.awgn(10 ** 0.9), HopChannel.awgn(10 ** 0.6)]
    caps = [capacity(h) for h in hops]
    q = 1000
    blocks = information_continuous_blocks(caps, q)
    inv = sum(1.0 / c for c in caps)
    ok = True
    for q_n, c in zip(blocks, caps):
        ok = ok and abs(q_n / q - (1.0 / c) / inv) <= 1.0 / q
    report(5, "info-continuous split at capacity rates tracks time sharing", ok)


def test_criterion_06_arq_closed_form_recursion_and_monte_carlo():
    start = time.monotonic()
    rng = np.random.default_rng(6)
    ok = True
    for _ in range(20):
        n = int(rng.integers(1, 8))
        chain = ArqChain(rng.uniform(0.0, 0.9, size=n).tolist(),
                         [int(c) for c in rng.integers(1, 1500, size=n)])
        closed = expected_latency(chain)
        # independent oracle: absorption cost of the restart chain via a
        # direct linear solve of (I - P) T = Q
        a = np.zeros((n, n))
        for i, p in enumerate(chain.self_loop_probs):
            a[i, i] = 1.0 - p
            if i + 1 < n:
                a[i, i + 1] = -(1.0 - p)
        t = np.linalg.solve(a, np.asarray(chain.costs, dtype=float))
        ok = ok and abs(closed - float(t[0])) <= 1e-12 * abs(closed)
        est = simulate_latency(chain, 100_000, int(rng.integers(0, 2 ** 62)))
        ok = ok and abs(est.mc_mean - closed) <= 4 * max(est.mc_stderr, 1e-12)
    ok = ok and elapsed_ok(start, 30.0)
    report(6, "ARQ latency closed form, recursion, Monte Carlo agree", ok)


def test_criterion_07_two_hop_reliability_dominates_single_hop():
    start = time.monotonic()
    single = HopChannel.awgn(1.0)
    two = [HopChannel.awgn(10 ** 0.9), HopChannel.awgn(10 ** 0.6)]
    caps = [capacity(h) for h in two]
    ncap = 1.0 / sum(1.0 / c for c in caps)
    single_cap = capacity(single)
    ok = True
    for target in _sweep_targets(ncap):
        target = float(target)
        relopt = sweep_point(two, Method.RELIABILITY_OPTIMAL_RC, target).bounds
        if target < single_cap:
            base = sweep_point([single], Method.MANUAL, target).bounds
            ok = ok and relopt.esys_lower > base.esys_lower
            ok = ok and relopt.esys_upper > base.esys_upper
        if target >= 0.7 * ncap:
            infocont = sweep_point(two, Method.INFO_CONTINUOUS, target).bounds
            for a, b in ((infocont.esys_lower, relopt.esys_lower),
                         (infocont.esys_upper, relopt.esys_upper)):
                # the curve ends where the exponent hits zero (the summed
                # error bound exceeds 1 there); relative closeness is only
                # defined on the positive part
                if a > 0 and b > 0:
                    ok = ok and abs(a - b) <= 0.10 * abs(b)
    ok = ok and elapsed_ok(start, 60.0)
    report(7, "two-hop reliability beats single hop; info-continuous close", ok)


def test_criterion_08_latency_bound_agreement_and_hop_ordering():
    start = time.monotonic()
    single = HopChannel.awgn(1.0)
    two = [HopChannel.awgn(10 ** 0.9), HopChannel.awgn(10 ** 0.6)]
    caps = [capacity(h) for h in two]
    ncap = 1.0 / sum(1.0 / c for c in caps)
    single_cap = capacity(single)
    ok = True
    checked_agreement = 0
    checked_ordering = 0
    for target in _sweep_targets(ncap):
        target = float(target)
        ev = sweep_point(two, Method.RELIABILITY_OPTIMAL_RC, target)
        upper, lower = ev.latency
        bounds = ev.bounds
        if all(p < 0.01 for p in bounds.per_hop_pe_upper) and \
                all(p < 0.01 for p in bounds.per_hop_pe_lower):
            ok = ok and abs(upper - lower) <= 0.02 * lower
            checked_agreement += 1
        if target < single_cap:
            s_ev = sweep_point([single], Method.MANUAL, target)
            if s_ev.exponents_r[0][0] > 0:
                s_upper, _ = s_ev.latency
                ok = ok and upper <= s_upper + 1e-9
                checked_ordering += 1
    ok = ok and checked_agreement > 0 and checked_ordering > 0
    ok = ok and elapsed_ok(start, 60.0)
    report(8, "latency bounds agree at low loss; two-hop not slower", ok)


def test_criterion_09_ensemble_error_respects_random_coding_bound():
    start = time.monotonic()
    # exact ML error of random codebooks (Q = 8, M = 4, BSC 0.05) on seeds 1-10
    ok = main(["verify", "--suite", "ensemble", "--seed", "1"]) == 0
    ok = ok and elapsed_ok(start, 120.0)
    report(9, "exact ML ensemble error stays under exp(-Q*E_r)", ok)


def test_criterion_10_distributed_protocol_equals_centralized():
    def exponent_pairs(rates, hops):  # each hop's (E_r, E_sp), as the table solves them
        rc, sp = hop_exponents(rates, hops)
        return list(zip(rc[0], sp[0]))

    rng = np.random.default_rng(10)
    ok = True
    for _ in range(100):
        n = int(rng.integers(1, 5))
        hops = [HopChannel.awgn(float(10 ** rng.uniform(-0.5, 1.5)))
                for _ in range(n)]
        beta = float(rng.uniform(0.1, 0.9))
        rates = [beta * capacity(h) for h in hops]
        q = int(rng.integers(10 * n, 5000))
        constants, per_node = run_distributed_allocation(rates, exponent_pairs(rates, hops), q)
        exps_rc = [random_coding_exponent(r, ch).exponent
                   for r, ch in zip(rates, hops)]
        exps_sp = [sphere_packing_exponent(r, ch).exponent
                   for r, ch in zip(rates, hops)]
        ok = ok and constants.ln_m == info_continuous_log_m(rates, q)
        ok = ok and constants.lambda_r == balance_lagrange(
            functools.reduce(balance_step, exps_rc, None), q)
        ok = ok and constants.lambda_sp == balance_lagrange(
            functools.reduce(balance_step, exps_sp, None), q)
        central_rc = reliability_real_blocks(exps_rc, q)
        central_sp = reliability_real_blocks(exps_sp, q)
        for i, node in enumerate(per_node):
            ok = ok and node["q_reliability_rc"] == central_rc[i]
            ok = ok and node["q_reliability_sp"] == central_sp[i]
            ok = ok and node["q_info_continuous"] == \
                math.floor(constants.ln_m / rates[i])

    # locality: after the broadcast, derive_blocks reads only the node's own
    # rate and (E_r, E_sp), so spoiling every other node's leaves it unchanged
    hops = [HopChannel.awgn(3.0), HopChannel.awgn(7.0), HopChannel.awgn(2.0)]
    rates = [0.5 * capacity(h) for h in hops]
    pairs = exponent_pairs(rates, hops)
    for i in range(len(hops)):
        local_rates, local_pairs = list(rates), list(pairs)
        constants = compute_and_broadcast(forward_pass(local_rates, local_pairs), 900, len(hops))
        derived = derive_blocks(local_rates[i], local_pairs[i], constants)
        for other in [*range(i), *range(i + 1, len(hops))]:
            local_rates[other], local_pairs[other] = math.nan, (math.nan, math.nan)
        ok = ok and derive_blocks(local_rates[i], local_pairs[i], constants) == derived
    report(10, "distributed allocation matches centralized bit-exactly", ok)


def test_criterion_11_latency_sweep_outputs_are_byte_deterministic(tmp_path):
    dirs = [str(tmp_path / "run1"), str(tmp_path / "run2")]
    for d in dirs:
        assert main(["reproduce", "--figure", "fig4", "--out-dir", d]) == 0
    ok = True
    for name in ("fig4_single_hop.csv", "fig4_two_hop.csv"):
        a = (tmp_path / "run1" / name).read_bytes()
        b = (tmp_path / "run2" / name).read_bytes()
        ok = ok and a == b and len(a) > 0
    report(11, "repeated latency sweep produces byte-identical CSVs", ok)
