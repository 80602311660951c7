"""hopbound benchmark: one workload per process, fixed work, checked outputs.

    python3 hopbench/run.py --workload curve_sweep --seed 1 --seconds 20 --trace 0

Run from the repository root.  ``--seconds`` fixes the number of whole
rounds (seconds / the round's nominal time on the reference host), never
a deadline, so every run of a workload does the same work.  The last line
on stdout is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics of a traced run with ``--trace 1``.  The line before it gives
run details that are not metrics, among them the time of a fixed
reference loop that calls no hopbound code.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

# Timed operations are single-threaded; keep numeric libraries to one thread.
os.environ.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
os.environ.pop("HOPBOUND_THREADS", None)  # simulate_latency runs its default worker count

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")

# Nominal seconds of one round on a 2-vCPU Xeon VM (Python 3.11, numpy 2.4)
# in a middling phase of its speed; rounds per run = round(--seconds / this).
ROUND_SECONDS = {"curve_sweep": 3.7, "long_chain": 18.0, "mc_latency": 1.7}
COLD_STARTS = 5
REFERENCE_LOOP_N = 400_000
PROBLEMS_SHOWN = 5


def reference_loop_ms() -> float:
    """A fixed pure-Python loop; its time shows how fast the host runs now."""
    start = time.perf_counter()
    acc = 0
    for i in range(REFERENCE_LOOP_N):
        acc = (acc + i * i) % 1_000_003
    return (time.perf_counter() - start) * 1e3


def cold_start(op, out_dir) -> tuple[float, float]:
    """Fresh interpreter, ``import hopbound``, the workload's first operation.

    Returns (wall seconds of the whole child, seconds of its import).
    """
    source = ("import time\nt0 = time.perf_counter()\nimport hopbound\n"
              "t1 = time.perf_counter()\n" + op.cold_start_source(out_dir)
              + "print(t1 - t0)\n")
    env = dict(os.environ, PYTHONPATH=SRC)
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", source], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"cold start failed: {proc.stderr.strip()[-500:]}")
    return wall, float(proc.stdout.strip().splitlines()[-1])


class Run:
    def __init__(self, out_dir):
        self.out_dir = out_dir
        self.first = {}  # op name -> (output, problems) of its first call
        self.attempted = 0
        self.failed = 0
        self.unexpected = []

    def call(self, op, target):
        """Run one operation; returns its wall time. Checks happen outside it."""
        op.out_dir = self.out_dir
        start = time.perf_counter()
        try:
            raw = op.run(target)
        except Exception as exc:  # a crash is a failed operation, not a crashed run
            elapsed = time.perf_counter() - start
            self._count(op, [f"raised {exc!r}"], op.fault_probe)
            return elapsed
        elapsed = time.perf_counter() - start
        output = op.output(raw)
        seen = self.first.get(op.name)
        if seen is None:
            try:
                problems = op.check(output)
            except Exception as exc:  # malformed output fails the operation
                problems = [f"output could not be checked: {exc!r}"]
            self.first[op.name] = (output, problems)
            self._count(op, problems, op.fault_probe)
        elif output != seen[0]:
            self._count(op, ["output differs from the first call of this operation"], False)
        else:
            self._count(op, seen[1], op.fault_probe)
        return elapsed

    def _count(self, op, problems, expected):
        """Tally one attempt; failures outside the fault probes make the run incorrect."""
        self.attempted += 1
        if problems:
            self.failed += 1
            if not expected:
                self.unexpected += [f"{op.name}: {p}" for p in problems]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(ROUND_SECONDS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "hopbound", "__init__.py")):
        print(f"hopbound sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import hopbound
    from hopbound import cli

    import workloads
    from tracing import Tracer

    out_root = os.path.join(BENCH_DIR, "out")
    run_dir = os.path.join(out_root, f"{args.workload}-{args.seed}-{os.getpid()}")
    for sub in ("inputs", "ops", "cold"):
        os.makedirs(os.path.join(run_dir, sub), exist_ok=True)
    try:
        ops = workloads.WORKLOADS[args.workload](args.seed, os.path.join(run_dir, "inputs"))
        target = hopbound if args.workload == "mc_latency" else cli
        rounds = max(1, round(args.seconds / ROUND_SECONDS[args.workload]))
        total = rounds * len(ops)
        cold_at = {int((k + 0.5) * total / COLD_STARTS) for k in range(COLD_STARTS)}
        run = Run(os.path.join(run_dir, "ops"))
        tracer = Tracer() if args.trace else None
        timed = traced_timed = 0.0
        op_seconds = dict.fromkeys((op.name for op in ops), 0.0)
        setup, imports, ref_ms = [], [], []
        index = 0
        for _ in range(rounds):
            for op in ops:
                if index in cold_at:
                    wall, imp = cold_start(ops[0], os.path.join(run_dir, "cold"))
                    setup.append(wall)
                    imports.append(imp)
                    ref_ms.append(reference_loop_ms())
                elapsed = run.call(op, target)
                op_seconds[op.name] += elapsed
                timed += elapsed
                index += 1
                if tracer is not None:
                    # the same operation again, traced, right after the untraced call
                    tracer.install()
                    try:
                        traced_timed += run.call(op, target)
                    finally:
                        tracer.uninstall()
                    tracer.end_op()
        if args.workload == "mc_latency":
            # bit-identical results for any worker count, outside the timed phase
            if ops[0].run(hopbound, workers=2) != run.first[ops[0].name][0]:
                run.unexpected.append(f"{ops[0].name}: workers=2 result differs")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    if tracer is not None:
        tracer.write(os.path.join(out_root, f"trace-{args.workload}-{args.seed}.csv"))
        metrics = {name: {"value": value, "unit": unit}
                   for name, unit, value in _layer_rows(tracer, total, imports,
                                                        traced_timed, timed)}
    else:
        metrics = {
            "ops_per_s": {"value": total / timed, "unit": "1/s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "unit": "MB"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
        }
    print(json.dumps({
        "rounds": rounds, "ops_per_round": len(ops), "timed_s": timed,
        "setup_runs_s": setup, "reference_loop_ms": ref_ms, "op_seconds": op_seconds,
        "problems": run.unexpected[:PROBLEMS_SHOWN],
    }))
    print(json.dumps({"correct": not run.unexpected, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


LAYER_UNITS = {
    "calls": "count/op", "self_ms": "ms/op", "solves": "count/op", "distinct_ratio": "ratio",
    "us_per_solve": "us", "ns_per_trial": "ns", "peak_alloc_mb": "MB",
}


def _layer_rows(tracer, ops, imports, traced_timed, timed):
    for name, value in tracer.metrics(ops).items():
        yield name, LAYER_UNITS[name.rsplit(".", 1)[1]], value
    yield "setup.import_ms", "ms", statistics.median(imports) * 1e3
    yield "trace.overhead_pct", "%", (traced_timed / timed - 1.0) * 100.0


if __name__ == "__main__":
    sys.exit(main())
