"""The three workloads: their seeded inputs, operations and output checks.

A workload builds one round of operations from the seed.  Every round of a
run repeats the same operations on the same inputs, so the amount of work
and the share of failed operations do not depend on the run length.  The
program receives only the generated inputs: scenario files and command
lines for ``hopbound.cli.main``, or ``ArqChain`` objects for
``hopbound.simulate_latency``.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

import checks

# Fixed inputs of the long_chain fault probes; they must not depend on --seed.
PROBE_SEED = 20081031


class CliOp:
    """One ``hopbound.cli.main`` call whose output files are checked.

    ``argv`` may hold ``{out}``, replaced by the directory the call writes
    to, so a cold-start copy can write elsewhere.
    """

    def __init__(self, name, argv, files, check, fault_probe=False):
        self.name = name
        self.argv = argv
        self.files = files
        self._check = check
        self.fault_probe = fault_probe
        self.out_dir = None

    def run(self, cli):
        return cli.main([a.replace("{out}", self.out_dir) for a in self.argv])

    def output(self, code):
        blobs = []
        for rel in self.files:
            path = os.path.join(self.out_dir, rel)
            try:
                with open(path, "rb") as fh:
                    blobs.append(fh.read())
            except FileNotFoundError:
                blobs.append(None)
                continue
            os.remove(path)  # a later call must write it afresh
        return code, tuple(blobs)

    def check(self, output):
        code, blobs = output
        if code != 0 or None in blobs:
            written = sum(b is not None for b in blobs)
            return [f"exit code {code}, wrote {written} of {len(blobs)} files"]
        return self._check({rel: blob.decode() for rel, blob in zip(self.files, blobs)})

    def cold_start_source(self, out_dir):
        argv = [a.replace("{out}", out_dir) for a in self.argv]
        return (f"from hopbound import cli\nif cli.main({argv!r}) != 0:\n"
                "    raise SystemExit('first operation failed')\n")


class McOp:
    """One ``hopbound.simulate_latency`` call with the default worker count."""

    fault_probe = False

    def __init__(self, name, probs, costs, trials, seed):
        self.name = name
        self.probs = probs
        self.costs = costs
        self.trials = trials
        self.seed = seed
        self.out_dir = None

    def run(self, hopbound, workers=None):
        chain = hopbound.ArqChain(list(self.probs), list(self.costs))
        return hopbound.simulate_latency(chain, self.trials, self.seed, workers=workers)

    def output(self, est):
        return est

    def check(self, est):
        return checks.check_latency(est, self.probs, self.costs, self.trials, self.seed)

    def cold_start_source(self, out_dir):
        return ("import hopbound\n"
                f"chain = hopbound.ArqChain({list(self.probs)!r}, {list(self.costs)!r})\n"
                f"hopbound.simulate_latency(chain, {self.trials}, {self.seed})\n")


def _write_json(path, doc):
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return path


def _rng(seed, stream):
    return np.random.default_rng([seed, stream])


# ---------------------------------------------------------------- curve_sweep

AWGN_STEPS = 200
DMC_STEPS = {"bsc": 80, "ternary": 80, "octal": 60}
# rate grids span these shares of capacity; the low end keeps the
# sphere-packing maximizer far below where exponents._bisect_rate hangs
GRID_LO, GRID_HI = 0.01, 0.99


def _sweep_op(name, source_args, capacity, e0, r_crit):
    rate_min, rate_max = GRID_LO * capacity, GRID_HI * capacity
    steps = AWGN_STEPS if source_args[0] == "--snr-db" else DMC_STEPS[name]
    argv = ["exponent", *source_args, "--rate-min", repr(rate_min),
            "--rate-max", repr(rate_max), "--rate-steps", str(steps),
            "--out", f"{{out}}/{name}.csv"]

    def check(texts):
        return checks.check_exponent_sweep(texts[f"{name}.csv"], e0, r_crit,
                                           rate_min, rate_max, steps)
    return CliOp(name, argv, [f"{name}.csv"], check)


def _check_fig3(texts):
    meta = json.loads(texts["fig3/fig3_meta.json"])
    [snr_db] = meta["single_hop_snr_db"]
    snr = 10.0 ** (snr_db / 10.0)
    problems = checks.check_fig3(texts["fig3/fig3_single_hop.csv"],
                                 lambda rho: checks.e0_awgn(rho, snr))
    for name in ("fig3_two_hop_relopt.csv", "fig3_two_hop_infocont.csv"):
        problems += [f"{name}: {p}" for p in checks.check_fig3(texts[f"fig3/{name}"])]
    return problems


def _check_fig4(texts):
    meta = json.loads(texts["fig4/fig4_meta.json"])
    problems = []
    for name in ("fig4_single_hop.csv", "fig4_two_hop.csv"):
        problems += [f"{name}: {p}" for p in checks.check_fig4(
            texts[f"fig4/{name}"], meta["total_q"], meta["mc"]["trials"])]
    return problems


def curve_sweep(seed, input_dir):
    """Exponent sweeps on seeded AWGN and DMC hops, then both reproduce figures."""
    rng = _rng(seed, 1)
    ops = []
    for name, lo, hi in (("awgn_low", -3.0, 3.0), ("awgn_high", 15.0, 20.0)):
        snr_db = float(rng.uniform(lo, hi))
        snr = 10.0 ** (snr_db / 10.0)
        ops.append(_sweep_op(name, ["--snr-db", repr(snr_db)], math.log1p(snr),
                             lambda rho, snr=snr: checks.e0_awgn(rho, snr),
                             float(checks.e0_awgn_slope(1.0, snr))))
    crossover = float(rng.uniform(0.02, 0.2))
    eps = float(rng.uniform(0.05, 0.3))
    channels = {
        "bsc": (np.array([[1 - crossover, crossover], [crossover, 1 - crossover]]),
                np.full(2, 0.5)),
        "ternary": ((1 - 1.5 * eps) * np.eye(3) + eps / 2, np.full(3, 1 / 3)),
        "octal": (np.array([rng.dirichlet(1.0 + 6.0 * row) for row in np.eye(8)]),
                  rng.dirichlet(np.full(8, 4.0))),
    }
    path = _write_json(os.path.join(input_dir, "dmc_hops.json"), {
        "schema_version": 1, "total_q": 1000,
        "hops": [{"type": "dmc", "transition": p.tolist(), "input_dist": q.tolist()}
                 for p, q in channels.values()],
        "rate_policy": {"mode": "capacity_fraction", "beta": 0.5},
        "allocation_method": "reliability_optimal_rc",
    })
    for hop, (name, (p, q)) in enumerate(channels.items()):
        ops.append(_sweep_op(name, ["--scenario", path, "--hop", str(hop)],
                             checks.dmc_capacity(p, q),
                             lambda rho, p=p, q=q: checks.e0_dmc(rho, p, q),
                             checks.e0_dmc_slope(1.0, p, q)))
    fig3 = ["fig3/fig3_single_hop.csv", "fig3/fig3_two_hop_relopt.csv",
            "fig3/fig3_two_hop_infocont.csv", "fig3/fig3_meta.json"]
    fig4 = ["fig4/fig4_single_hop.csv", "fig4/fig4_two_hop.csv", "fig4/fig4_meta.json"]
    ops.append(CliOp("fig3", ["reproduce", "--figure", "fig3", "--out-dir", "{out}/fig3"],
                     fig3, _check_fig3))
    ops.append(CliOp("fig4", ["reproduce", "--figure", "fig4", "--out-dir", "{out}/fig4"],
                     fig4, _check_fig4))
    return ops


# ----------------------------------------------------------------- long_chain

# Seeded chains, (hops, Q per hop, beta, method).  Sizes are fixed so
# every seed does about the same work; the seed draws the SNRs.  Many
# mid-size chains average out how many exchange sweeps each one needs,
# which varies from 3 to 8 between draws.  Q per hop keeps Q_n E_n below
# ~550 (exp(-Q_n E_n) stays a normal double), where _exchange_polish is
# exact for any seed.
CHAINS = [(200 + 10 * k, (1000, 1600, 2200)[k % 3], (0.45, 0.5, 0.55)[k % 3],
           ("reliability_optimal_rc", "reliability_optimal_sp")[k % 2]) for k in range(22)]
# `distributed` runs on the last allocate chain and on a 1000-hop chain.
DIST_HOPS = 1000
# Fault probes on fixed inputs: Q_n E_n is above 1000, where _exchange_polish
# compares exp() deltas that underflow to 0 and so leaves an improving exchange.
PROBES = [(200, 4000, 0.5, "reliability_optimal_rc"),
          (200, 4000, 0.5, "reliability_optimal_rc"),
          (1000, 4000, 0.5, "reliability_optimal_rc")]


def _chain_doc(snr_db, q_per_hop, beta, method):
    return {
        "schema_version": 1,
        "total_q": int(len(snr_db) * q_per_hop),
        "hops": [{"type": "awgn", "snr_db": float(s)} for s in snr_db],
        "rate_policy": {"mode": "capacity_fraction", "beta": beta},
        "allocation_method": method,
    }


def _allocate_op(name, path, doc, fault_probe=False):
    snr = 10.0 ** (np.array([h["snr_db"] for h in doc["hops"]]) / 10.0)
    beta = doc["rate_policy"]["beta"]

    def check(texts):
        return checks.check_allocation(json.loads(texts[f"{name}.json"]), snr, beta,
                                       doc["total_q"], doc["allocation_method"])
    return CliOp(name, ["allocate", "--scenario", path, "--out", f"{{out}}/{name}.json"],
                 [f"{name}.json"], check, fault_probe)


def _distributed_op(name, path, doc):
    def check(texts):
        return checks.check_distributed(json.loads(texts[f"{name}.json"]),
                                        doc["total_q"], len(doc["hops"]))
    return CliOp(name, ["distributed", "--scenario", path, "--out", f"{{out}}/{name}.json"],
                 [f"{name}.json"], check)


def long_chain(seed, input_dir):
    """allocate on long seeded AWGN chains, two distributed runs and fault probes."""
    rng = _rng(seed, 2)
    ops = []
    for n, q_per_hop, beta, method in CHAINS:
        name = f"c{n}_{method[-2:]}"
        doc = _chain_doc(rng.uniform(0.0, 15.0, n), q_per_hop, beta, method)
        path = _write_json(os.path.join(input_dir, f"{name}.json"), doc)
        ops.append(_allocate_op(name, path, doc))
    dist_ops = [_distributed_op(f"{name}_dist", path, doc)]
    doc = _chain_doc(rng.uniform(0.0, 15.0, DIST_HOPS), 1000, 0.5, "reliability_optimal_rc")
    name = f"c{DIST_HOPS}_dist"
    dist_ops.append(_distributed_op(name, _write_json(os.path.join(input_dir, f"{name}.json"),
                                                      doc), doc))
    probe_rng = np.random.default_rng(PROBE_SEED)
    for k, (n, q_per_hop, beta, method) in enumerate(PROBES):
        name = f"probe{k}_{n}"
        doc = _chain_doc(probe_rng.uniform(0.0, 15.0, n), q_per_hop, beta, method)
        path = _write_json(os.path.join(input_dir, f"{name}.json"), doc)
        ops.append(_allocate_op(name, path, doc, fault_probe=True))
    return ops + dist_ops


# ----------------------------------------------------------------- mc_latency

# (hops, trials) per call; fixed so the work does not depend on the seed.
MC_CALLS = [(2, 2_000_000), (3, 2_000_000), (5, 2_000_000),
            (8, 1_500_000), (12, 1_000_000), (16, 1_000_000)]


def mc_latency(seed, input_dir):
    """simulate_latency on seeded ARQ chains with P_e in [1e-6, 0.9]."""
    rng = _rng(seed, 3)
    ops = []
    for i, (hops, trials) in enumerate(MC_CALLS):
        probs = [float(p) for p in 10.0 ** rng.uniform(-6.0, math.log10(0.9), hops)]
        costs = [int(c) for c in np.round(10.0 ** rng.uniform(1.0, 3.0, hops))]
        ops.append(McOp(f"mc{i}_{hops}hops", probs, costs, trials,
                        int(rng.integers(0, 2**31))))
    return ops


WORKLOADS = {"curve_sweep": curve_sweep, "long_chain": long_chain, "mc_latency": mc_latency}
