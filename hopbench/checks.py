"""Output checks for the benchmark, computed apart from the program.

Nothing here imports ``hopbound``.  The exponents are the benchmark's own
bounded maximization of E0(rho) - rho*R, with E0 in closed form for an AWGN
hop and as the Gallager sum for a DMC hop.  Every check returns a list of
problems; an empty list means the output passed.
"""

from __future__ import annotations

import csv
import io
import math

import numpy as np

# Largest gap allowed between a program exponent and the reference (nats);
# the relative part covers the 12 significant digits of the CSV files.
EXPONENT_TOL = 1e-9
# A single-unit exchange must not lower log sum exp(-Q_n E_n) by more than this.
EXCHANGE_TOL = 1e-9
# Monte Carlo means must lie within this many standard errors.
MC_SIGMAS = 5.0

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_GOLDEN_STEPS = 160
_RHO_CAP = 2.0 ** 20


def e0_awgn(rho, snr):
    """Gaussian-input AWGN E0(rho) = rho ln(1 + snr/(1 + rho)), elementwise."""
    return rho * np.log1p(snr / (1.0 + rho))


def e0_awgn_slope(rho, snr):
    """d E0 / d rho for the AWGN hop."""
    return np.log1p(snr / (1.0 + rho)) - rho * snr / ((1.0 + rho) * (1.0 + rho + snr))


def e0_dmc(rho, transition, input_dist):
    """Gallager sum -ln sum_y (sum_x q(x) P(y|x)^(1/(1+rho)))^(1+rho) for each rho."""
    rho = np.asarray(rho, dtype=float)
    flat = rho.reshape(-1)
    vals = np.empty_like(flat)
    for k, r in enumerate(flat):
        inner = input_dist @ transition ** (1.0 / (1.0 + r))
        vals[k] = -math.log(float(np.sum(inner ** (1.0 + r))))
    return vals.reshape(rho.shape)


def e0_dmc_slope(rho, transition, input_dist):
    """d E0 / d rho of the Gallager sum, from the tilted distribution."""
    s = 1.0 / (1.0 + rho)
    powered = transition ** s
    log_p = np.log(np.where(transition > 0, transition, 1.0))  # zero entries add nothing
    inner = input_dist @ powered
    d_inner = -(s * s) * (input_dist @ (powered * log_p))
    terms = inner ** (1.0 + rho)
    d_terms = terms * (np.log(inner) + (1.0 + rho) * d_inner / inner)
    return -float(np.sum(d_terms)) / float(np.sum(terms))


def dmc_capacity(transition, input_dist) -> float:
    """Mutual information at the fixed input distribution (nats/use)."""
    joint = input_dist[:, None] * transition
    marginal = input_dist @ transition
    ratio = np.where(joint > 0, transition / np.where(marginal > 0, marginal, 1.0)[None, :], 1.0)
    return float(np.sum(np.where(joint > 0, joint * np.log(ratio), 0.0)))


def _golden_max(f, lo, hi):
    """Maximum of a concave f on [lo, hi], elementwise over arrays of brackets."""
    lo, hi = np.array(lo, dtype=float), np.array(hi, dtype=float)
    a, b = lo, hi
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(_GOLDEN_STEPS):
        # the maximum lies in [a, d] when f(c) >= f(d), else in [c, b]
        left = fc >= fd
        a = np.where(left, a, c)
        b = np.where(left, d, b)
        probe = np.where(left, b - _INV_PHI * (b - a), a + _INV_PHI * (b - a))
        f_probe = f(probe)
        c, fc, d, fd = (np.where(left, probe, d), np.where(left, f_probe, fd),
                        np.where(left, c, probe), np.where(left, fc, f_probe))
    return np.maximum.reduce([fc, fd, f(a), f(b), f(lo), f(hi)])


def reference_exponents(e0, rates):
    """(E_r, E_sp) at each rate by bounded maximization of e0(rho) - rho*R.

    ``e0`` maps an array of rho shaped like ``rates`` to E0 values.  E_r
    maximizes over [0, 1].  For E_sp the bracket [0, 2h] is found by
    doubling h until the concave objective stops rising.
    """
    rates = np.asarray(rates, dtype=float)

    def objective(rho):
        return e0(rho) - rho * rates

    e_r = _golden_max(objective, np.zeros_like(rates), np.ones_like(rates))
    h = np.ones_like(rates)
    while True:
        rising = objective(2.0 * h) > objective(h)
        if not rising.any():
            break
        if h.max() >= _RHO_CAP:
            raise ValueError("sphere-packing maximizer beyond the reference bracket")
        h = np.where(rising, 2.0 * h, h)
    e_sp = _golden_max(objective, np.zeros_like(rates), 2.0 * h)
    return np.maximum(e_r, 0.0), np.maximum(e_sp, 0.0)


def _close(got: float, want: float) -> bool:
    return abs(got - want) <= EXPONENT_TOL * max(1.0, abs(want))


def read_csv(text: str) -> list[dict[str, str]]:
    return list(csv.DictReader(io.StringIO(text)))


def check_exponent_sweep(text: str, e0, r_crit: float, rate_min: float,
                         rate_max: float, steps: int) -> list[str]:
    """Exponent sweep CSV against the reference maximization.

    Also checks e_sp >= e_r everywhere, with equality above the critical
    rate ``r_crit`` computed by the caller from its own dE0/drho at rho = 1.
    """
    rows = read_csv(text)
    if len(rows) != steps:
        return [f"expected {steps} rows, got {len(rows)}"]
    rates = np.array([float(r["rate_nats"]) for r in rows])
    e_r = np.array([float(r["e_r"]) for r in rows])
    e_sp = np.array([float(r["e_sp"]) for r in rows])
    problems = []
    if not (np.isclose(rates[0], rate_min, rtol=1e-11, atol=0)
            and np.isclose(rates[-1], rate_max, rtol=1e-11, atol=0)):
        problems.append(f"rate grid {rates[0]}..{rates[-1]} is not {rate_min}..{rate_max}")
    ref_r, ref_sp = reference_exponents(e0, rates)
    for i, rate in enumerate(rates):
        if not _close(e_r[i], ref_r[i]):
            problems.append(f"rate {rate}: e_r {e_r[i]!r} != reference {ref_r[i]!r}")
        if not _close(e_sp[i], ref_sp[i]):
            problems.append(f"rate {rate}: e_sp {e_sp[i]!r} != reference {ref_sp[i]!r}")
        if e_sp[i] < e_r[i] - EXPONENT_TOL:
            problems.append(f"rate {rate}: e_sp {e_sp[i]!r} < e_r {e_r[i]!r}")
        if rate > r_crit * (1.0 + 1e-9) and not _close(e_sp[i], e_r[i]):
            problems.append(f"rate {rate} above critical {r_crit}: e_sp != e_r")
    return problems


def check_fig3(text: str, single_hop_e0=None) -> list[str]:
    """esys_rc <= esys_sp on every row; for a single hop, esys_rc = E_r(rate)."""
    rows = read_csv(text)
    if not rows:
        return ["no rows"]
    problems = []
    rates = np.array([float(r["end_to_end_rate_nats"]) for r in rows])
    rc = np.array([float(r["esys_rc"]) for r in rows])
    sp = np.array([float(r["esys_sp"]) for r in rows])
    for i in np.flatnonzero(rc > sp):
        problems.append(f"rate {rates[i]}: esys_rc {rc[i]!r} > esys_sp {sp[i]!r}")
    if single_hop_e0 is not None:
        ref_r, _ = reference_exponents(single_hop_e0, rates)
        for i in range(len(rows)):
            if not _close(rc[i], ref_r[i]):
                problems.append(f"rate {rates[i]}: single-hop esys_rc {rc[i]!r} "
                                f"!= E_r {ref_r[i]!r}")
    return problems


def check_fig4(text: str, total_q: int, trials: int) -> list[str]:
    """latency_lower <= latency_upper; the MC mean is within 5 stderr of the upper.

    A zero stderr means every trial took one attempt per hop, so the sample
    gives no spread: the mean must then be exactly ``total_q`` and the
    excess d = upper - Q must be within 5 sigma of it, where sigma^2 <=
    Q d (1 + d) bounds the per-trial variance sum Q_n^2 P_n / (1 - P_n)^2.
    """
    rows = read_csv(text)
    if not rows:
        return ["no rows"]
    problems = []
    for r in rows:
        upper, lower = float(r["latency_upper"]), float(r["latency_lower"])
        mean, stderr = float(r["latency_mc_mean"]), float(r["latency_mc_stderr"])
        where = f"rate {r['end_to_end_rate_nats']}"
        if lower > upper:
            problems.append(f"{where}: latency_lower {lower!r} > latency_upper {upper!r}")
        if stderr > 0:
            if abs(mean - upper) > MC_SIGMAS * stderr:
                problems.append(f"{where}: mc mean {mean!r} is "
                                f"{abs(mean - upper) / stderr:.2f} stderr from {upper!r}")
        else:
            excess = upper - total_q
            sigma = math.sqrt(total_q * max(excess, 0.0) * (1.0 + max(excess, 0.0)))
            if mean != total_q or abs(excess) > MC_SIGMAS * sigma / math.sqrt(trials):
                problems.append(f"{where}: zero stderr but mean {mean!r}, upper {upper!r}")
    return problems


def check_blocks(blocks, total_q: int) -> list[str]:
    problems = []
    if sum(blocks) != total_q:
        problems.append(f"blocks sum to {sum(blocks)}, not {total_q}")
    if min(blocks) < 1:
        problems.append(f"a block is below 1: {min(blocks)}")
    return problems


def best_exchange_gain(blocks, exponents) -> float:
    """Largest relative drop of sum exp(-Q_n E_n) from one single-unit exchange.

    Works in the log domain: adding a unit to hop i changes the sum by
    -exp(-Q_i E_i) (1 - exp(-E_i)), removing one from hop j (Q_j > 1) by
    +exp(-Q_j E_j) (exp(E_j) - 1).  Both are taken relative to the sum, so
    nothing underflows at large Q_n E_n.  A positive return value is an
    improving exchange; log(1 - gain) is the change in the log-objective.
    """
    q = np.asarray(blocks, dtype=float)
    e = np.asarray(exponents, dtype=float)
    log_terms = -q * e
    top = log_terms.max()
    log_sum = top + math.log(float(np.sum(np.exp(log_terms - top))))
    log_add = log_terms + np.log(-np.expm1(-e)) - log_sum
    log_sub = np.where(q > 1, log_terms + np.log(np.expm1(e)) - log_sum, np.inf)
    adds = np.argsort(-log_add)[:2]
    subs = np.argsort(log_sub)[:2]
    best = -math.inf
    for i in adds:
        for j in subs:
            if i != j and math.isfinite(log_sub[j]):
                best = max(best, math.exp(log_add[i]) - math.exp(log_sub[j]))
    return best


def check_allocation(doc: dict, snr, beta: float, total_q: int, method: str) -> list[str]:
    """An ``allocate`` result on an AWGN chain with capacity-fraction rates."""
    blocks = doc["blocklengths"]
    if len(blocks) != len(snr):
        return [f"{len(blocks)} blocks for {len(snr)} hops"]
    problems = check_blocks(blocks, total_q)
    rates = beta * np.log1p(np.asarray(snr, dtype=float))
    if not np.allclose(doc["rates_nats"], rates, rtol=1e-12, atol=0):
        problems.append("rates differ from beta * capacity")
    if doc["method"] != method:
        problems.append(f"method {doc['method']!r}, expected {method!r}")
    e_r, e_sp = reference_exponents(lambda rho: e0_awgn(rho, snr), rates)
    gain = best_exchange_gain(blocks, e_r if method.endswith("_rc") else e_sp)
    if gain > EXCHANGE_TOL:
        problems.append(f"a single exchange lowers the objective by {-math.log1p(-gain):.3e} "
                        "nats: the split is not optimal")
    return problems


def check_distributed(doc: dict, total_q: int, n_hops: int) -> list[str]:
    problems = []
    if doc["matches_centralized"] is not True:
        problems.append("matches_centralized is not true")
    nodes = doc["per_node_blocks"]
    if len(nodes) != n_hops:
        return problems + [f"{len(nodes)} nodes for {n_hops} hops"]
    for key in ("q_reliability_rc", "q_reliability_sp"):
        total = math.fsum(node[key] for node in nodes)
        if abs(total - total_q) > 1e-9 * total_q:
            problems.append(f"{key} sums to {total!r}, not {total_q}")
    return problems


def latency_moments(probs, costs) -> tuple[float, float]:
    """Mean sum Q_n/(1-P_n) and per-trial variance sum Q_n^2 P_n/(1-P_n)^2."""
    mean = 0.0
    var = 0.0
    for p, q in zip(probs, costs):
        mean += q / (1.0 - p)
        var += q * q * p / ((1.0 - p) * (1.0 - p))
    return mean, var


def check_latency(est, probs, costs, trials: int, seed: int) -> list[str]:
    mean, var = latency_moments(probs, costs)
    problems = []
    if abs(est.analytic - mean) > 1e-12 * mean:
        problems.append(f"analytic {est.analytic!r} != sum Q/(1-P) {mean!r}")
    sigma = math.sqrt(var / trials)
    if abs(est.mc_mean - mean) > MC_SIGMAS * sigma:
        problems.append(f"mc mean {est.mc_mean!r} is {abs(est.mc_mean - mean) / sigma:.2f} "
                        f"sigma from {mean!r}")
    if est.trials != trials or est.seed != seed:
        problems.append("trials or seed not echoed back")
    return problems
