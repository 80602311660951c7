"""Span tracing of ``hopbound`` layers from outside the package.

Each traced public function is wrapped, and the wrapper is bound in place
of the original under every name any ``hopbound`` module holds it by
(modules import each other's functions by name, so patching the defining
module alone would miss callers such as ``exponents.e0_derivative`` or
``cli.system_error_bounds``).  Spans are (name, start, end, parent) and are
kept in memory in flat arrays; ``write`` saves them when the run ends.
Self time is a span's duration minus the durations of its child spans.
"""

from __future__ import annotations

import sys
import time
import tracemalloc
from array import array

# (module, function, layer name); layer names are module-qualified so
# tracing added inside the program later can keep them.
TARGETS = [
    ("hopbound.channel", "e0", "channel.e0"),
    ("hopbound.channel", "e0_derivative", "channel.e0_derivative"),
    ("hopbound.exponents", "random_coding_exponent", "exponents.rc"),
    ("hopbound.exponents", "sphere_packing_exponent", "exponents.sp"),
    ("hopbound.allocation", "reliability_optimal_blocks",
     "allocation.reliability_optimal_blocks"),
    ("hopbound.allocation", "information_continuous_blocks",
     "allocation.information_continuous_blocks"),
    ("hopbound.system", "system_error_bounds", "system.system_error_bounds"),
    ("hopbound.arq", "simulate_latency", "arq.simulate_latency"),
    ("hopbound.arq", "latency_bounds", "arq.latency_bounds"),
    ("hopbound.scenario", "load_scenario", "scenario.load_scenario"),
    ("hopbound.scenario", "build_allocation", "scenario.build_allocation"),
    ("hopbound.distproto", "run_distributed_allocation",
     "distproto.run_distributed_allocation"),
    ("hopbound.cli", "main", "cli.main"),
]

_SOLVERS = {"exponents.rc": "rc", "exponents.sp": "sp"}


def _hop_key(ch):
    if ch.kind == "awgn":
        return ("awgn", ch.snr)
    return ("dmc", ch.transition.tobytes(), ch.input_dist.tobytes())


class Tracer:
    """Collects spans and per-layer totals while installed."""

    def __init__(self):
        self.names = [layer for _, _, layer in TARGETS]
        self.name_ids = {name: i for i, name in enumerate(self.names)}
        self.span_name = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("q")
        self.calls = dict.fromkeys(self.names, 0)
        self.self_ns = dict.fromkeys(self.names, 0)
        self.solve_ns = {}  # (solver, channel kind) -> [solves, inclusive ns]
        self.distinct = 0  # distinct (hop, rate, solver) triples, summed per op
        self.trials = 0
        self.peak_alloc = 0
        self._op_keys = set()
        self._stack = []  # [span index, child ns]
        self._patched = []

    def end_op(self):
        """Close one traced operation: count its distinct exponent solves."""
        self.distinct += len(self._op_keys)
        self._op_keys = set()

    def _wrap(self, layer, fn):
        tracer = self
        name_id = self.name_ids[layer]
        solver = _SOLVERS.get(layer)
        is_mc = layer == "arq.simulate_latency"

        def traced(*args, **kwargs):
            stack = tracer._stack
            idx = len(tracer.span_start)
            tracer.span_name.append(name_id)
            tracer.span_parent.append(stack[-1][0] if stack else -1)
            tracer.span_end.append(0)
            frame = [idx, 0]
            stack.append(frame)
            if is_mc:
                tracemalloc.start()
            start = time.perf_counter_ns()
            tracer.span_start.append(start)
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                if is_mc:
                    tracer.peak_alloc = max(tracer.peak_alloc, tracemalloc.get_traced_memory()[1])
                    tracemalloc.stop()
                    trials = kwargs.get("trials", args[1] if len(args) > 1 else 0)
                    tracer.trials += trials
                stack.pop()
                dur = end - start
                tracer.span_end[idx] = end
                tracer.calls[layer] += 1
                tracer.self_ns[layer] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                if solver is not None:
                    rate, ch = args[0], args[1]
                    tracer._op_keys.add((_hop_key(ch), float(rate), solver))
                    slot = tracer.solve_ns.setdefault((solver, ch.kind), [0, 0])
                    slot[0] += 1
                    slot[1] += dur

        traced.__wrapped__ = fn
        return traced

    def install(self):
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "hopbound" or name.startswith("hopbound."))]
        for mod_name, func_name, layer in TARGETS:
            original = getattr(sys.modules[mod_name], func_name)
            wrapper = self._wrap(layer, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, original))

    def uninstall(self):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched = []

    def write(self, path: str):
        with open(path, "w") as fh:
            fh.write("name,start_ns,end_ns,parent\n")
            for i in range(len(self.span_start)):
                fh.write(f"{self.names[self.span_name[i]]},{self.span_start[i]},"
                         f"{self.span_end[i]},{self.span_parent[i]}\n")

    def metrics(self, ops: int) -> dict[str, float]:
        """Per-operation layer figures over ``ops`` traced operations."""
        def per_op_ms(layer):
            return self.self_ns[layer] / 1e6 / ops

        def us_per_solve(solver, kind):
            solves, ns = self.solve_ns.get((solver, kind), (0, 0))
            return ns / 1e3 / solves if solves else 0.0

        solves = self.calls["exponents.rc"] + self.calls["exponents.sp"]
        mc_ns = self.self_ns["arq.simulate_latency"]
        out = {
            "channel.e0_derivative.calls": self.calls["channel.e0_derivative"] / ops,
            "channel.e0_derivative.self_ms": per_op_ms("channel.e0_derivative"),
            "channel.e0.self_ms": per_op_ms("channel.e0"),
            "exponents.solves": solves / ops,
            "exponents.distinct_ratio": self.distinct / solves if solves else 0.0,
            "exponents.rc.self_ms": per_op_ms("exponents.rc"),
            "exponents.sp.self_ms": per_op_ms("exponents.sp"),
        }
        for solver in ("rc", "sp"):
            for kind in ("awgn", "dmc"):
                out[f"exponents.{solver}_{kind}.us_per_solve"] = us_per_solve(solver, kind)
        out.update({
            "allocation.reliability_optimal_blocks.self_ms":
                per_op_ms("allocation.reliability_optimal_blocks"),
            "allocation.information_continuous_blocks.self_ms":
                per_op_ms("allocation.information_continuous_blocks"),
            "system.system_error_bounds.calls": self.calls["system.system_error_bounds"] / ops,
            "system.system_error_bounds.self_ms": per_op_ms("system.system_error_bounds"),
            "arq.simulate_latency.self_ms": per_op_ms("arq.simulate_latency"),
            "arq.simulate_latency.ns_per_trial": mc_ns / self.trials if self.trials else 0.0,
            "arq.simulate_latency.peak_alloc_mb": self.peak_alloc / 2**20,
            "arq.latency_bounds.self_ms": per_op_ms("arq.latency_bounds"),
            "scenario.load_scenario.self_ms": per_op_ms("scenario.load_scenario"),
            "scenario.build_allocation.self_ms": per_op_ms("scenario.build_allocation"),
            "distproto.run_distributed_allocation.self_ms":
                per_op_ms("distproto.run_distributed_allocation"),
            "cli.main.self_ms": per_op_ms("cli.main"),
        })
        return out
