"""The benchmark's checks must flag deliberately wrong outputs.

    python3 -m pytest hopbench
"""

import math
from types import SimpleNamespace

import numpy as np

import checks


def _awgn(snr):
    return lambda rho: checks.e0_awgn(rho, snr)


def _optimal_split(exponents, total_q):
    """Greedy marginal allocation; exact for the separable convex objective."""
    blocks = [1] * len(exponents)
    for _ in range(total_q - len(exponents)):
        gains = [-q * e + math.log(-math.expm1(-e)) for q, e in zip(blocks, exponents)]
        blocks[int(np.argmax(gains))] += 1
    return blocks


def _allocation_case():
    snr = 10.0 ** (np.array([0.0, 4.0, 9.0, 13.0, 15.0]) / 10.0)
    beta, total_q = 0.5, 3000
    rates = beta * np.log1p(snr)
    e_r, _ = checks.reference_exponents(_awgn(snr), rates)
    doc = {"blocklengths": _optimal_split(list(e_r), total_q), "rates_nats": list(rates),
           "method": "reliability_optimal_rc"}
    return doc, snr, beta, total_q


def test_optimal_split_passes_and_one_moved_block_is_flagged():
    doc, snr, beta, total_q = _allocation_case()
    assert checks.check_allocation(doc, snr, beta, total_q, "reliability_optimal_rc") == []
    blocks = list(doc["blocklengths"])
    blocks[1] += 1
    blocks[3] -= 1
    moved = dict(doc, blocklengths=blocks)
    problems = checks.check_allocation(moved, snr, beta, total_q, "reliability_optimal_rc")
    assert any("not optimal" in p for p in problems)


def test_split_at_large_q_is_judged_without_underflow():
    # Q_n E_n near 10^4: exp(-Q_n E_n) is 0 in doubles, the log-domain check is not
    snr = np.array([3.0, 30.0])
    rates = 0.5 * np.log1p(snr)
    e_r, _ = checks.reference_exponents(_awgn(snr), rates)
    best = _optimal_split(list(e_r), 60_000)
    assert checks.best_exchange_gain(best, e_r) <= checks.EXCHANGE_TOL
    assert checks.best_exchange_gain([best[0] - 1, best[1] + 1], e_r) > checks.EXCHANGE_TOL


def test_blocks_must_sum_to_q_and_stay_positive():
    assert checks.check_blocks([3, 0, 7], 10) != []
    assert checks.check_blocks([3, 2, 4], 10) != []
    assert checks.check_blocks([3, 1, 6], 10) == []


def _sweep_csv(snr, rates, shift_row=None, shift=0.0):
    e_r, e_sp = checks.reference_exponents(_awgn(snr), rates)
    lines = ["rate_nats,e_r,rho_r,regime_r,e_sp,rho_sp,regime_sp"]
    for i, rate in enumerate(rates):
        er = e_r[i] + (shift if i == shift_row else 0.0)
        lines.append(f"{rate:.12g},{er:.12g},0,x,{e_sp[i]:.12g},0,x")
    return "\n".join(lines) + "\n"


def test_exponent_off_by_1e_6_is_flagged():
    snr = 10.0 ** 0.3
    cap = math.log1p(snr)
    rates = np.linspace(0.01 * cap, 0.99 * cap, 40)
    r_crit = float(checks.e0_awgn_slope(1.0, snr))
    args = (_awgn(snr), r_crit, rates[0], rates[-1], 40)
    assert checks.check_exponent_sweep(_sweep_csv(snr, rates), *args) == []
    problems = checks.check_exponent_sweep(_sweep_csv(snr, rates, 7, 1e-6), *args)
    assert any("e_r" in p and "reference" in p for p in problems)


def test_dmc_reference_matches_bsc_closed_form_at_rho_one():
    p = 0.1
    transition = np.array([[1 - p, p], [p, 1 - p]])
    closed = math.log(2.0) - 2.0 * math.log(math.sqrt(1 - p) + math.sqrt(p))
    assert math.isclose(float(checks.e0_dmc(1.0, transition, np.full(2, 0.5))), closed,
                        rel_tol=1e-14)
    assert math.isclose(checks.dmc_capacity(transition, np.full(2, 0.5)),
                        math.log(2.0) + p * math.log(p) + (1 - p) * math.log(1 - p),
                        rel_tol=1e-14)


def test_mc_mean_shifted_by_6_sigma_is_flagged():
    probs, costs, trials, seed = [0.3, 1e-4, 0.8], [120, 40, 900], 1_000_000, 7
    mean, var = checks.latency_moments(probs, costs)
    sigma = math.sqrt(var / trials)

    def estimate(mc_mean):
        return SimpleNamespace(analytic=mean, mc_mean=mc_mean, mc_stderr=sigma,
                               trials=trials, seed=seed)
    assert checks.check_latency(estimate(mean + sigma), probs, costs, trials, seed) == []
    problems = checks.check_latency(estimate(mean + 6 * sigma), probs, costs, trials, seed)
    assert any("sigma" in p for p in problems)


def test_fig4_row_shifted_by_6_stderr_is_flagged():
    header = "end_to_end_rate_nats,latency_upper,latency_lower,latency_mc_mean,latency_mc_stderr\n"
    good = header + "0.5,1200,1100,1201,2\n0.1,1000.00001,1000.00001,1000,0\n"
    assert checks.check_fig4(good, 1000, 100_000) == []
    assert checks.check_fig4(header + "0.5,1200,1100,1212,2\n", 1000, 100_000) != []
    assert checks.check_fig4(header + "0.5,1200,1250,1201,2\n", 1000, 100_000) != []


def test_fig3_row_with_esys_rc_above_esys_sp_is_flagged():
    snr = 1.0
    rates = np.array([0.05, 0.2, 0.4])
    e_r, e_sp = checks.reference_exponents(_awgn(snr), rates)
    rows = [f"{r:.12g},{a:.12g},{b:.12g}" for r, a, b in zip(rates, e_r, e_sp)]
    text = "end_to_end_rate_nats,esys_rc,esys_sp\n" + "\n".join(rows) + "\n"
    assert checks.check_fig3(text, _awgn(snr)) == []
    rows[1] = f"{rates[1]:.12g},{e_sp[1] + 0.01:.12g},{e_sp[1]:.12g}"
    bad = "end_to_end_rate_nats,esys_rc,esys_sp\n" + "\n".join(rows) + "\n"
    assert any("esys_rc" in p for p in checks.check_fig3(bad))


def test_distributed_blocks_must_sum_to_q():
    nodes = [{"q_reliability_rc": 400.25, "q_reliability_sp": 300.5},
             {"q_reliability_rc": 599.75, "q_reliability_sp": 699.5}]
    doc = {"matches_centralized": True, "per_node_blocks": nodes}
    assert checks.check_distributed(doc, 1000, 2) == []
    assert checks.check_distributed(dict(doc, matches_centralized=False), 1000, 2) != []
    assert checks.check_distributed(doc, 1001, 2) != []
