"""Time each layer of hopbound on fixed inputs; print one JSON result line.

    PYTHONPATH=src python3 tools/bench_layers.py

The line is shaped like hopbench's; each metric's name starts with the stage it
times.  Rows call public names only, except the `channel.e0_terms.*` rows, which
time the solver's internal E0 step.  A row whose function is missing or raises
records null values and its error.  A timed row is the least of a fixed number
of timeit calls (garbage collector off), after one untimed call.
"""

from __future__ import annotations

import inspect
import json
import math
import os
import subprocess
import sys
import tempfile
import timeit
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from functools import partial

import numpy as np

from hopbound import allocation, arq, channel, cli, distproto, exponents, scenario, system

# AWGN hops at 15 (k phi mod 1) dB; an N-hop case takes the first N
CHAIN_DB = [15.0 * (k * 0.6180339887498949 % 1.0) for k in range(1000)]


def peak_rss_mb() -> float:
    """This process's peak RSS in MB: VmHWM, as a vfork child inherits its parent's ru_maxrss."""
    with open("/proc/self/status") as fh:
        return int(fh.read().split("VmHWM:")[1].split()[0]) / 1024


# a fresh process: the ms its `import hopbound.cli` takes, 1 if that loads scipy,
# and for a command, its seconds in main and peak_rss_mb()
_FRESH = inspect.getsource(peak_rss_mb) + """import sys, time
start = time.perf_counter()
from hopbound.cli import main
print((time.perf_counter() - start) * 1e3, int("scipy" in sys.modules))
if sys.argv[1:]:
    start = time.perf_counter()
    assert main(sys.argv[1:]) == 0
    print(time.perf_counter() - start, peak_rss_mb())
"""


def record(metrics: dict, units: dict, fn) -> None:
    """Add a row's metrics ({name: unit}) to `metrics`, valued by the tuple fn()
    returns; if it raises, each is null, with the error."""
    try:
        values, error = fn(), {}
    except (Exception, SystemExit) as exc:  # a missing name, a failing call, a usage exit
        values, error = (None,) * len(units), {"error": f"{type(exc).__name__}: {exc}"}
    metrics.update((name, {"value": value, "unit": unit, **error})
                   for (name, unit), value in zip(units.items(), values))


def _fresh(*argv: str) -> tuple[float, ...]:
    """What `_FRESH` prints, run on `argv` in a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-c", _FRESH, *argv], capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(proc.stderr.strip()[-500:])
    return tuple(map(float, proc.stdout.split()))


def _peak_alloc_mb(fn) -> float:
    """The tracemalloc peak of fn() in MB, called on a fresh thread, so that it
    counts the per-thread buffers a thread's first call builds."""
    tracemalloc.start()
    try:
        with ThreadPoolExecutor(1) as pool:
            pool.submit(fn).result()
        return tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()


def _main(argv: list[str]) -> None:
    if cli.main(argv) != 0:
        raise RuntimeError(f"hopbound {argv[0]} failed")


def _solve(hops: list):
    """A `hop_exponents` call at 0.1 to 0.9 of capacity: both families in one pass."""
    rates = [f * channel.capacity(ch) for f, ch in zip(np.linspace(0.1, 0.9, len(hops)), hops)]
    return partial(exponents.hop_exponents, rates, hops)


def _fig4(two_hop: bool, *columns: str) -> list[list]:
    """`columns` of a table of `reproduce --figure fig4`, as the CLI builds it."""
    db = cli.REPRODUCE_TWO_SNR_DB if two_hop else cli.REPRODUCE_SINGLE_SNR_DB
    hops = [channel.HopChannel.awgn(10.0 ** (x / 10.0)) for x in db]
    top = cli.REPRODUCE_SWEEP_CAP_FRACTION * allocation.network_capacity(
        [channel.capacity(ch) for ch in hops])
    table = scenario.Evaluation([scenario.Scenario(
        cli.REPRODUCE_Q, hops, {"mode": "target_rate", "rate_nats": t},
        *(("reliability_optimal_rc", None) if two_hop else ("manual", [cli.REPRODUCE_Q])))
        for t in np.linspace(cli.REPRODUCE_SWEEP_RATE_MIN, top, cli.REPRODUCE_SWEEP_POINTS)])
    return [table.column(name) for name in columns]


def run(row, out: str) -> None:
    """Every row, in order, as row({metric: unit}, fn), which must call fn before it
    returns (fn reads the loop's variables); input files go under `out`."""
    def timed(name: str, calls: int, make, number: int = 1) -> None:
        """Time `number` calls in a row of what make() returns, `calls` times: the
        least, per call, in the us or ms that `name` ends in."""
        unit = name.split(".")[-1][:2]
        row({name: unit}, lambda: (min(timeit.repeat(make(), number=number, repeat=calls + 1)[1:])
                                   / number * {"us": 1e6, "ms": 1e3}[unit],))

    awgn = [channel.HopChannel.awgn(10.0 ** (db / 10.0)) for db in CHAIN_DB]
    dmc = channel.HopChannel.dmc([[0.8, 0.15, 0.05], [0.1, 0.7, 0.2], [0.0, 0.3, 0.7]],
                                 [0.5, 0.3, 0.2])
    rng = np.random.default_rng(8)
    dmc8 = channel.HopChannel.dmc([rng.dirichlet(1.0 + 6.0 * r) for r in np.eye(8)],
                                  rng.dirichlet(np.full(8, 4.0)))
    docs = {f"awgn_{n}": [{"type": "awgn", "snr_db": db} for db in CHAIN_DB[:n]]
            for n in (2, 400, 1000)}
    docs["dmc_8x8"] = [{"type": "dmc", "transition": dmc8.transition.tolist(),
                        "input_dist": dmc8.input_dist.tolist()}]
    for name, hops in docs.items():  # at beta 0.5, Q = 1000 N
        with open(os.path.join(out, name), "w") as fh:
            json.dump({"schema_version": 1, "total_q": 1000 * len(hops), "hops": hops,
                       "rate_policy": {"mode": "capacity_fraction", "beta": 0.5},
                       "allocation_method": "reliability_optimal_rc"}, fh)
    timed("scenario.load_scenario.awgn_1000.ms_per_call", 20,
          lambda: partial(scenario.load_scenario, os.path.join(out, "awgn_1000")))
    for name, ch in (("awgn", awgn[0]), ("dmc_3x3", dmc)):  # at rho = 2
        timed(f"channel.e0_terms.{name}.us_per_call", 20,
              lambda: partial(channel.e0_terms(ch), 2.0), 200)
    # the public readers: E0 on a grid oracle's rhos, and dE0/drho
    timed("channel.e0.dmc_3x3_grid_100000.ms_per_call", 10,
          lambda: partial(channel.e0, np.linspace(0.0, 10.0, 100_000), dmc))
    timed("channel.e0_derivative.dmc_3x3_2000.ms_per_call", 10,
          lambda: partial(channel.e0_derivative, np.linspace(0.0, 10.0, 2000), dmc))
    for name, hops, calls in (("awgn_1", awgn[:1], 200), ("awgn_300", awgn[:300], 50),
                              ("dmc_3x3_1", [dmc], 100), ("dmc_3x3_80", [dmc] * 80, 30)):
        timed(f"exponents.hop_exponents.{name}.us_per_call", calls, lambda: _solve(hops))
    # at the least positive rate: ~550 AWGN steps to rho* = 3e165, ~80 BSC steps to 2.7e8
    for name, ch, calls in (("awgn_40db", channel.HopChannel.awgn(1e4), 50),
                            ("bsc", channel.HopChannel.bsc(0.1), 10)):
        timed(f"exponents.sphere_packing_exponent.min_rate_{name}.ms_per_call", calls,
              lambda: partial(exponents.sphere_packing_exponent, 5e-324, ch))
    for n, calls in ((2, 200), (100, 50), (1000, 20)):
        timed(f"allocation.reliability_optimal_blocks.n_{n}.ms_per_call", calls, lambda: partial(
            allocation.reliability_optimal_blocks, _solve(awgn[:n])()[0][0], 1000 * n))

    def protocol(traced: bool):  # on the 1000-hop chain's rates and table-solved (E_r, E_sp)
        chain = scenario.Evaluation([scenario.load_scenario(os.path.join(out, "awgn_1000"))])[0]
        args = (chain.rates, list(zip(chain.exponents_r[0], chain.exponents_sp[0])),
                chain.scenario.total_q)
        return lambda: distproto.run_distributed_allocation(*args, [] if traced else None)
    for name, traced in (("awgn_1000", False), ("awgn_1000_trace", True)):
        timed(f"distproto.run_distributed_allocation.{name}.ms_per_call", 20,
              lambda: protocol(traced))

    def stacked_error_bounds():  # on the blocks and exponents of fig4's two-hop rows
        blocks, e_r, e_sp = _fig4(True, "blocks", "exponents_r", "exponents_sp")
        return partial(system.stacked_error_bounds, blocks, [e[0] for e in e_r],
                       [e[0] for e in e_sp])
    timed("system.stacked_error_bounds.rows_80.ms_per_call", 50, stacked_error_bounds)
    for name, probs in (("sparse", [1e-3, 1e-4]), ("dense", [0.3, 0.4]),
                        ("tiny_pe", [1e-20, 1e-18])):
        def simulate():
            return partial(arq.simulate_latency, arq.ArqChain(probs, [500, 500]), 100_000, 1)
        timed(f"arq.simulate_latency.{name}.ms_per_1e5_trials", 20, simulate)
        row({f"arq.simulate_latency.{name}.peak_alloc_mb": "MB"},
            lambda: (_peak_alloc_mb(simulate()),))
    # 2e6 trials (31 blocks) of a five-hop chain at P_e 0, 1e-6, 0.01, 0.3 and 0.9, on
    # the default worker count and on the calling thread alone
    mixed = arq.ArqChain([0.0, 1e-6, 0.01, 0.3, 0.9], [10, 17, 24, 31, 38])
    for name, workers in (("parallel", None), ("serial", 1)):
        timed(f"arq.simulate_latency.{name}_2e6.ms_per_call", 10, lambda: partial(
            arq.simulate_latency, mixed, 2_000_000, 1, workers=workers))
    for name, two_hop in (("single_hop", False), ("two_hop", True)):
        timed(f"arq.simulate_latencies.fig4_{name}.ms_per_call", 10, lambda: partial(
            arq.simulate_latencies, [chains[0] for chains in _fig4(two_hop, "chains")[0]],
            cli.REPRODUCE_MC_TRIALS, cli.REPRODUCE_MC_SEED))
    fields = {"out": out, "result": os.path.join(out, "result"),
              "lo": 0.01 * channel.capacity(dmc8), "hi": 0.99 * channel.capacity(dmc8)}
    for name, calls, command in (  # paths without spaces
            ("reproduce_fig3", 10, "reproduce --figure fig3 --out-dir {out}"),
            ("reproduce_fig4", 10, "reproduce --figure fig4 --out-dir {out}"),
            ("allocate_awgn_2", 50, "allocate --scenario {out}/awgn_2 --out {result}"),
            ("allocate_awgn_400", 20, "allocate --scenario {out}/awgn_400 --out {result}"),
            ("allocate_awgn_1000", 10, "allocate --scenario {out}/awgn_1000 --out {result}"),
            ("latency_awgn_2", 20, "latency --scenario {out}/awgn_2 --out {result}"),
            ("exponent_dmc_8x8_80", 20, "exponent --scenario {out}/dmc_8x8 --rate-min {lo!r} "
                                        "--rate-max {hi!r} --rate-steps 80 --out {result}"),
            ("exponent_awgn_200", 20, "exponent --snr-db 0 --rate-min 0.01 --rate-max 0.69 "
                                      "--rate-steps 200 --out {result}"),
            ("distributed_awgn_1000_trace", 5, "distributed --scenario {out}/awgn_1000 "
                                               "--trace {out}/trace --out {result}"),
            ("distributed_awgn_1000", 5, "distributed --scenario {out}/awgn_1000 --out {result}")):
        timed(f"cli.main.{name}.ms_per_call", calls,
              lambda: partial(_main, command.format(**fields).split()))

    def share_sum_error() -> tuple[float]:  # in distributed's last output, against Q
        with open(fields["result"]) as fh:
            nodes = json.load(fh)["per_node_blocks"]
        return max(abs(math.fsum(node[key] for node in nodes) - 1e6) / 1e6
                   for key in ("q_reliability_rc", "q_reliability_sp")),
    row({"cli.main.distributed_awgn_1000.share_sum_rel_error": "ratio"}, share_sum_error)
    row({"cli.import.cold_ms": "ms", "cli.import.loads_scipy": "0/1"}, _fresh)
    for name, command in (
            ("reproduce_fig4", "reproduce --figure fig4 --out-dir {out}"),
            *((f"exponent_awgn_{steps}", "exponent --snr-db 0 --rate-min 0.01 --rate-max 0.69 "
               f"--rate-steps {steps} --out {{result}}") for steps in (10, 200_000))):
        row({f"cli.main.{name}.fresh_main_s": "s", f"cli.main.{name}.peak_rss_mb": "MB"},
            lambda: _fresh(*command.format(**fields).split())[2:])
    row({"process.peak_rss_mb": "MB"}, lambda: (peak_rss_mb(),))


def main() -> int:
    metrics = {}
    with tempfile.TemporaryDirectory() as out:
        run(partial(record, metrics), out)
    print(json.dumps({"correct": all("error" not in m for m in metrics.values()),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
