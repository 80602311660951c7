"""Command-line interface: exponent sweeps, allocation, latency, the
distributed protocol, brute-force verification, and reproduction of the
single-hop vs. two-hop rate-reliability-delay comparison data.

Exit codes: 0 success, 2 usage error, 3 domain infeasibility or an output
that cannot be written.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import os
import sys
from collections.abc import Iterable
from contextlib import nullcontext

import numpy as np

from .allocation import AllocationError, Method, network_capacity, reliability_optimal_blocks
from .arq import LatencyError, simulate_latencies, simulate_latency
from .channel import ChannelError, HopChannel, capacity, e0_derivative, snr_db_to_linear
from .distproto import run_distributed_allocation
from .exponents import hop_exponents, random_coding_exponent, sphere_packing_exponent
from .oracle import GridSpec, bsc_ensemble_error, exhaustive_allocation, grid_max_exponent
from .scenario import Evaluation, Row, Scenario, ScenarioError, load_scenario

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INFEASIBLE = 3

NATS_PER_BIT = math.log(2.0)

# hard-coded comparison scenarios: Q = 1000 channel uses, single hop at
# 0 dB vs. two hops at 9 dB and 6 dB
REPRODUCE_Q = 1000
REPRODUCE_SINGLE_SNR_DB = [0.0]
REPRODUCE_TWO_SNR_DB = [9.0, 6.0]
REPRODUCE_SWEEP_POINTS = 80
REPRODUCE_SWEEP_RATE_MIN = 0.02
REPRODUCE_SWEEP_CAP_FRACTION = 0.98
REPRODUCE_MC_TRIALS = 100_000
REPRODUCE_MC_SEED = 20240101

# rows of the `exponent` grid solved and written at a time: its memory is bounded
_GRID_CHUNK = 4096

# the most rates `exponent` sweeps: its time and output file grow with them
MAX_RATE_STEPS = 10 ** 7
# the most Monte Carlo trials `latency` runs: its time grows with them
MAX_TRIALS = 10 ** 9

# exp() overflows doubles near 709; above this `allocate` reports M as null
_LN_M_MATERIALIZE_LIMIT = 700.0

_DOMAIN_ERRORS = (AllocationError, ChannelError, LatencyError, ScenarioError)


def _check_writable(*paths: str | None) -> None:
    """Raise the OSError that opening a path to write would raise, leaving it as it
    was: a file or directory is opened to append, a new path created and removed;
    a pipe, a device or a dangling link is left to the write, and None (stdout) skipped."""
    for path in filter(None, paths):
        if os.path.isfile(path) or os.path.isdir(path):
            open(path, "a").close()
        elif not os.path.lexists(path):
            open(path, "x").close()
            os.remove(path)


def _write(path: str | None, texts: Iterable[str]) -> None:
    """Write each text, whole lines, straight to `path` as it comes, or to stdout for None."""
    with open(path, "w", newline="") if path is not None else nullcontext(sys.stdout) as fh:
        fh.writelines(texts)


def _write_csv(path: str | None, header: str, rows: Iterable) -> None:
    """The header and a line per row, each written as it comes: one str.format
    template writes a `regime_*` column's text as it is and every other
    column's float as {:.12g}."""
    template = ",".join("{}" if name.startswith("regime_") else "{:.12g}"
                        for name in header.split(",")) + "\n"
    _write(path, itertools.chain([header + "\n"], itertools.starmap(template.format, rows)))


def _write_json(path: str | None, payload: dict) -> None:
    _write(path or None, [_json_text(payload, "") + "\n"])


# the types that the C encoder writes as one token with no comma in it
_TOKENS = {int, float, bool, type(None)}
_compact = json.JSONEncoder(separators=(",", ":")).encode


def _json_text(obj, indent: str) -> str:
    """json.dumps(obj, indent=2) for obj whose lines start at `indent`: the C
    encoder writes each list of numbers whole, and the values of each list of
    flat number dicts, and the text is indented around them."""
    inner = indent + "  "
    if isinstance(obj, dict) and obj:
        # _compact({key: 0}) is "{", json's text of the key and ":0}"
        body = (",\n" + inner).join(f"{_compact({key: 0})[1:-3]}: {_json_text(value, inner)}"
                                    for key, value in obj.items())
        return "{\n" + inner + body + "\n" + indent + "}"
    if isinstance(obj, (list, tuple)) and obj:
        if set(map(type, obj)) <= _TOKENS:
            body = _compact(obj)[1:-1].replace(",", ",\n" + inner)
        else:
            body = _flat_dicts(obj, inner) or (",\n" + inner).join(
                _json_text(value, inner) for value in obj)
        return "[\n" + inner + body + "\n" + indent + "]"
    return _compact(obj)  # a scalar, [] or {}


def _flat_dicts(items: list, indent: str) -> str | None:
    """The items of json.dumps(indent=2)'s text of `items` at `indent`, joined,
    where all are dicts with the same str keys and number values: one template
    filled in from one C encoding of all the values; None otherwise."""
    if set(map(type, items)) != {dict} or len(keys := set(map(tuple, items))) != 1:
        return None
    keys, values = keys.pop(), list(itertools.chain.from_iterable(map(dict.values, items)))
    if not keys or set(map(type, keys)) != {str} or not set(map(type, values)) <= _TOKENS:
        return None
    inner = indent + "  "
    entry = "{\n" + inner + (",\n" + inner).join(
        _compact(key).replace("%", "%%") + ": %s" for key in keys) + "\n" + indent + "}"
    return (",\n" + indent).join([entry] * len(items)) % tuple(_compact(values)[1:-1].split(","))


def _grid_chunks(start: float, stop: float, num: int):
    """np.linspace(start, stop, num) in lists of at most _GRID_CHUNK floats, element for
    element: i * step + start (i / div * delta + start if step is 0), stop last."""
    div, delta = max(num - 1, 1), stop - start
    step = delta / div
    for lo in range(0, num, _GRID_CHUNK):
        chunk = [(i / div * delta if step == 0 else i * step) + start
                 for i in range(lo, min(lo + _GRID_CHUNK, num))]
        if num > 1 and lo + len(chunk) == num:
            chunk[-1] = stop
        yield chunk


def cmd_exponent(args) -> int:
    if args.snr_db is not None:
        ch = HopChannel.awgn(snr_db_to_linear(args.snr_db))
    else:
        sc = load_scenario(args.scenario)
        if not 0 <= args.hop < len(sc.hops):
            raise ScenarioError(f"hop index {args.hop} out of range")
        ch = sc.hops[args.hop]
    _check_writable(args.out)
    grid = functools.partial(_grid_chunks, args.rate_min, args.rate_max, args.rate_steps)
    if min((args.rate_min, args.rate_max)[:args.rate_steps]) <= 0:  # exact ends, monotone grid
        rate = next(r for rates in grid() for r in rates if not r > 0)  # its first rate <= 0
        (sphere_packing_exponent if rate >= 0 else random_coding_exponent)(rate, ch)  # its error

    def rows():
        for rates in grid():
            rc, sp = hop_exponents(rates, [ch] * len(rates))
            yield from zip(rates, *rc, *sp)

    _write_csv(args.out, "rate_nats,e_r,rho_r,regime_r,e_sp,rho_sp,regime_sp", rows())
    if args.bits:
        lo, hi = args.rate_min / NATS_PER_BIT, args.rate_max / NATS_PER_BIT
        print(f"swept rates {lo:.12g} to {hi:.12g} bits/use "
              f"({args.rate_steps} points) -> {args.out}")
    return EXIT_OK


def _sweep_targets(network_cap: float) -> np.ndarray:
    return np.linspace(REPRODUCE_SWEEP_RATE_MIN,
                       REPRODUCE_SWEEP_CAP_FRACTION * network_cap,
                       REPRODUCE_SWEEP_POINTS)


def _sweep_rows(hops, methods: list[str], row) -> list[list]:
    """row(r) of each swept target's row r of each method, one table per method:
    each target's capacity-proportional rates, in one `Evaluation` that solves
    every row's exponents and bounds in table passes.  A point with a domain
    error is skipped."""
    targets = _sweep_targets(network_capacity([capacity(ch) for ch in hops])).tolist()
    rows = iter(Evaluation([Scenario(REPRODUCE_Q, hops, {"mode": "target_rate", "rate_nats": t},
                                     method, [REPRODUCE_Q] if method == Method.MANUAL else None)
                            for t in targets for method in methods]))
    tables = [[] for _ in methods]
    for target in targets:
        for table in tables:
            try:
                table.append(row(next(rows)))
            except _DOMAIN_ERRORS as exc:
                print(f"skipping rate {target:.12g}: {exc}", file=sys.stderr)
    return tables


def _fig4_rows(hops, method: str) -> list[list]:
    """fig4's rows on `hops`: one Monte Carlo call simulates every row's RC chain."""
    rows, = _sweep_rows(hops, [method], lambda r: [r.end_to_end_rate, *r.latency, r.chains[0]])
    estimates = simulate_latencies([row.pop() for row in rows], REPRODUCE_MC_TRIALS,
                                   REPRODUCE_MC_SEED)
    return [[*row, est.mc_mean, est.mc_stderr] for row, est in zip(rows, estimates)]


def cmd_reproduce(args) -> int:
    os.makedirs(args.out_dir, exist_ok=True)
    names = ["single_hop.csv", "two_hop_relopt.csv", "two_hop_infocont.csv", "meta.json"]
    if args.figure == "fig4":
        names = ["single_hop.csv", "two_hop.csv", "meta.json"]
    paths = [os.path.join(args.out_dir, f"{args.figure}_{name}") for name in names]
    _check_writable(*paths)
    single = [HopChannel.awgn(snr_db_to_linear(db)) for db in REPRODUCE_SINGLE_SNR_DB]
    two = [HopChannel.awgn(snr_db_to_linear(db)) for db in REPRODUCE_TWO_SNR_DB]
    meta = {
        "total_q": REPRODUCE_Q,
        "single_hop_snr_db": REPRODUCE_SINGLE_SNR_DB,
        "two_hop_snr_db": REPRODUCE_TWO_SNR_DB,
        "sweep": {
            "rate_min_nats": REPRODUCE_SWEEP_RATE_MIN,
            "rate_max": f"{REPRODUCE_SWEEP_CAP_FRACTION} * network capacity",
            "points": REPRODUCE_SWEEP_POINTS,
            "note": "sweep grid is an implementation choice",
        },
        "sphere_packing_note": ("sphere-packing error bounds are exponent-only "
                                "(asymptotic); the sub-exponential factor is dropped"),
    }
    if args.figure == "fig3":
        header = "end_to_end_rate_nats,esys_rc,esys_sp"
        def row(r):
            return [r.end_to_end_rate, r.bounds.esys_lower, r.bounds.esys_upper]
        for path, rows in zip(paths, [*_sweep_rows(single, [Method.MANUAL], row), *_sweep_rows(
                two, [Method.RELIABILITY_OPTIMAL_RC, Method.INFO_CONTINUOUS], row)]):
            _write_csv(path, header, rows)
    else:
        meta["mc"] = {"trials": REPRODUCE_MC_TRIALS, "seed": REPRODUCE_MC_SEED}
        header = ("end_to_end_rate_nats,latency_upper,latency_lower,"
                  "latency_mc_mean,latency_mc_stderr")
        _write_csv(paths[0], header, _fig4_rows(single, Method.MANUAL))
        _write_csv(paths[1], header, _fig4_rows(two, Method.RELIABILITY_OPTIMAL_RC))
    _write_json(paths[-1], meta)
    return EXIT_OK


def _evaluate(args, *outputs: str | None) -> Row:
    """The one-row evaluation of --scenario, once its output paths are checked."""
    sc = load_scenario(args.scenario)
    _check_writable(*outputs)
    return Evaluation([sc])[0]


def cmd_allocate(args) -> int:
    ev = _evaluate(args, args.out)
    sc = ev.scenario
    payload = {
        "method": sc.allocation_method,
        "blocklengths": ev.blocks,
        "rates_nats": ev.rates,
        "end_to_end_rate_nats": ev.end_to_end_rate,
        "stationarity_residual": ev.stationarity_residual,
        "ln_m": None,
    }
    if sc.allocation_method == Method.INFO_CONTINUOUS:
        payload["ln_m"] = ev.ln_m
        payload["m"] = (int(math.floor(math.exp(ev.ln_m)))
                        if ev.ln_m <= _LN_M_MATERIALIZE_LIMIT else None)
    _write_json(args.out, payload)
    if args.bits:
        bits = [r / NATS_PER_BIT for r in ev.rates]
        print("rates in bits/use:", ", ".join(f"{b:.12g}" for b in bits))
    return EXIT_OK


def cmd_latency(args) -> int:
    ev = _evaluate(args, args.out)
    upper, lower = ev.latency
    est = simulate_latency(ev.chains[0], args.trials, args.seed)
    _write_json(args.out, {
        "latency_upper": upper,
        "latency_lower": lower,
        "mc": {
            "mean": est.mc_mean,
            "stderr": est.mc_stderr,
            "trials": est.trials,
            "seed": est.seed,
        },
    })
    return EXIT_OK


def cmd_distributed(args) -> int:
    ev = _evaluate(args, args.out, args.trace)
    # the central results first: a domain error is the table's, as in allocate and latency
    shares_r, shares_sp, ln_m = ev.shares_r, ev.shares_sp, ev.ln_m
    trace = None if args.trace is None else []
    constants, per_node = run_distributed_allocation(
        ev.rates, list(zip(ev.exponents_r[0], ev.exponents_sp[0])), ev.scenario.total_q, trace)
    if trace is not None:
        _write(args.trace, _trace_lines(trace))
    matches = constants.ln_m == ln_m and all(
        node["q_reliability_rc"] == share_r and node["q_reliability_sp"] == share_sp
        for node, share_r, share_sp in zip(per_node, shares_r, shares_sp))
    _write_json(args.out, {
        "ln_m": constants.ln_m,
        "lambda_r": constants.lambda_r,
        "lambda_sp": constants.lambda_sp,
        "per_node_blocks": per_node,
        "matches_centralized": matches,
    })
    return EXIT_OK if matches else EXIT_INFEASIBLE


def _trace_lines(trace: list[dict]):
    """json.dumps of each trace record, as a line; a broadcast record that many
    nodes share, their records' last field, is encoded once and spliced in."""
    shared = {}  # id of a broadcast record -> its text
    for record in trace:
        body = record.get("broadcast")
        if body is None or next(reversed(record)) != "broadcast":
            yield json.dumps(record) + "\n"
            continue
        if (text := shared.get(id(body))) is None:
            text = shared[id(body)] = json.dumps(body) + "}\n"
        yield json.dumps({**record, "broadcast": 0})[:-2] + text


def _verify_grid(seed: int, report) -> bool:
    rng = np.random.default_rng(seed)
    ok = True
    for i in range(50):
        snr = float(10.0 ** rng.uniform(-1.0, 2.0))
        ch = HopChannel.awgn(snr)
        cap = capacity(ch)
        rate = float(rng.uniform(0.05, 0.95)) * cap
        rc = random_coding_exponent(rate, ch)
        g_rc, _ = grid_max_exponent(rate, ch, GridSpec(0.0, 1.0, 1e-5))
        sp = sphere_packing_exponent(rate, ch)
        # E0 is concave in rho, so a slope at most R puts rho* at or below rho_hi
        rho_hi = 2.0 + 2.0 * math.sqrt(snr / rate)
        while e0_derivative(rho_hi, ch) > rate:
            rho_hi *= 2.0
        g_sp, _ = grid_max_exponent(rate, ch,
                                    GridSpec(0.0, rho_hi, max(1e-5, rho_hi / 2e6)))
        ok_rc = abs(rc.exponent - g_rc) <= 1e-8
        ok_sp = abs(sp.exponent - g_sp) <= 1e-8
        if not (ok_rc and ok_sp):
            report(False, f"grid instance {i}: snr={snr:.4g} rate={rate:.4g} "
                          f"rc_err={abs(rc.exponent - g_rc):.2e} "
                          f"sp_err={abs(sp.exponent - g_sp):.2e}")
            ok = False
    report(ok, "parametric exponents match dense-grid maximization (50 instances)")
    return ok


def _verify_alloc(seed: int, report) -> bool:
    rng = np.random.default_rng(seed)
    ok = True
    for i in range(20):
        n = int(rng.integers(2, 4))
        q = int(rng.integers(n, 61))
        exps = [float(e) for e in rng.uniform(0.05, 1.0, size=n)]
        best = exhaustive_allocation(exps, q)
        got = reliability_optimal_blocks(exps, q)
        if got != best:
            report(False, f"alloc instance {i}: Q={q} E={exps} got {got} expected {best}")
            ok = False
    report(ok, "greedy integer allocation matches exhaustive enumeration (20 instances)")
    return ok


def _verify_ensemble(seed: int, report) -> bool:
    q, m, p = 8, 4, 0.05
    rate = math.log(m) / q
    bound = math.exp(-q * random_coding_exponent(rate, HopChannel.bsc(p)).exponent)
    ok = True
    for s in range(seed, seed + 10):
        mean, stderr = bsc_ensemble_error(q, m, p, trials=2000, seed=s)
        if mean > bound + 3.0 * stderr:
            report(False, f"ensemble seed {s}: mean={mean:.6f} exceeds "
                          f"bound={bound:.6f} + 3*stderr={3 * stderr:.6f}")
            ok = False
    report(ok, f"random-coding bound exp(-Q*E_r)={bound:.6f} holds over 10 seeds")
    return ok


def cmd_verify(args) -> int:
    def report(passed: bool, detail: str):
        print(("PASS" if passed else "FAIL") + f" [{args.suite}] {detail}")

    runner = {"grid": _verify_grid, "alloc": _verify_alloc,
              "ensemble": _verify_ensemble}[args.suite]
    return EXIT_OK if runner(args.seed, report) else EXIT_INFEASIBLE


def _int_in(low: int, high: float = math.inf):
    """An argparse type: an integer from `low` to `high`."""
    bounds = f">= {low}" if high == math.inf else f"from {low} to {high}"

    def integer(text: str) -> int:
        value = int(text)
        if not low <= value <= high:
            raise argparse.ArgumentTypeError(f"must be an integer {bounds}, got {text}")
        return value
    return integer


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hopbound",
        description="Reliability bounds and ARQ latency for linear multi-hop networks")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("exponent", help="sweep RC/SP exponents over rate to CSV")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--snr-db", type=float, default=None,
                     help="AWGN hop SNR in dB")
    src.add_argument("--scenario", help="scenario JSON; select a hop with --hop")
    p.add_argument("--hop", type=int, default=0, help="hop index in the scenario")
    p.add_argument("--rate-min", type=_finite_float, required=True)
    p.add_argument("--rate-max", type=_finite_float, required=True)
    p.add_argument("--rate-steps", type=_int_in(1, MAX_RATE_STEPS), required=True,
                   help=f"number of rates, 1 to {MAX_RATE_STEPS:,}")
    p.add_argument("--out", required=True)
    p.add_argument("--bits", action="store_true",
                   help="echo rates in bits/use on stdout (files stay in nats)")
    p.set_defaults(func=cmd_exponent)

    p = sub.add_parser("reproduce",
                       help="emit the single-hop vs. two-hop comparison data")
    p.add_argument("--figure", choices=["fig3", "fig4"], required=True)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_reproduce)

    p = sub.add_parser("allocate", help="compute a blocklength allocation")
    p.add_argument("--scenario", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--bits", action="store_true",
                   help="echo rates in bits/use on stdout (files stay in nats)")
    p.set_defaults(func=cmd_allocate)

    p = sub.add_parser("latency", help="ARQ latency bounds and Monte Carlo estimate")
    p.add_argument("--scenario", required=True)
    p.add_argument("--trials", type=_int_in(1, MAX_TRIALS), default=100_000,
                   help=f"Monte Carlo trials, 1 to {MAX_TRIALS:,}")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_latency)

    p = sub.add_parser("distributed",
                       help="run the neighbor-to-neighbor metric accumulation")
    p.add_argument("--scenario", required=True)
    p.add_argument("--trace", default=None, help="write per-message JSONL trace")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_distributed)

    p = sub.add_parser("verify", help="run a brute-force validation suite")
    p.add_argument("--suite", choices=["grid", "alloc", "ensemble"], required=True)
    p.add_argument("--seed", type=_int_in(0), default=1)
    p.set_defaults(func=cmd_verify)

    return parser


# main's parser, built on its first call; parsing leaves a parser unchanged
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (*_DOMAIN_ERRORS, OSError) as exc:  # OSError: a file that cannot be written
        hop = getattr(exc, "hop", None)
        payload = {"error": str(exc)}
        if hop is not None:
            payload["hop"] = hop
        print(json.dumps(payload), file=sys.stderr)
        return EXIT_INFEASIBLE


if __name__ == "__main__":
    sys.exit(main())
