"""Record the benchmark's result lines for one or more source trees in BENCH_<n>.json.

    python3 tools/bench_record.py --out BENCH_13.json --seconds 20 --repeats 10 \
        parent=../hopbound-parent change=.

Each ``LABEL=ROOT`` names a checkout (a ``git worktree`` of the parent, say)
whose own ``hopbench/run.py`` is run from that root, so each tree is
measured with its sources and nothing is built here.  For every workload
the script runs each root ``--repeats`` times untraced (``--trace 0``),
alternating which root goes first in each pair; ``layers`` runs this
directory's ``bench_layers.py``, the record's one source of per-layer numbers,
on each root's ``src`` the same way.  Every run's last stdout line, the result
line, is kept whole; the file adds the machine, the settings and the
per-label medians of every metric.  ``--tier1`` adds one run of each root's
tier-1 suite (``python -m pytest`` with its ``src``), whose wall time is
reported as ``tier1.wall_s`` and gates nothing: a failing suite is recorded
with ``correct`` false.  ``--table`` prints those medians as a
Markdown table, with the last label over the first as a ratio, and per
workload how many pairs the last label won on ops_per_s and how many of
those wins it ran first.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

WORKLOADS = ("curve_sweep", "long_chain", "mc_latency")
LAYERS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "bench_layers.py")


def _git(root: str, *args: str) -> str | None:
    try:
        proc = subprocess.run(["git", "-C", root, *args], capture_output=True, text=True,
                              timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _tree(label: str, root: str) -> dict:
    """A label, its commit and whether its tracked files differ from it; the
    root itself is not recorded, as it names a directory of one machine."""
    if not os.path.isfile(os.path.join(root, "hopbench", "run.py")):
        raise SystemExit(f"{label}: no hopbench/run.py under {root}")
    status = _git(root, "status", "--porcelain", "--untracked-files=no")
    return {"label": label, "commit": _git(root, "rev-parse", "HEAD"),
            "uncommitted_changes": bool(status) if status is not None else None}


def _run(label: str, root: str, workload: str, seed: int, seconds: float) -> dict:
    """One untraced run of ``root``'s benchmark, of LAYERS on its ``src`` or of its
    tier-1 suite: its result line, kept whole (a tier-1 run's is built here), with
    the run's wall time and the CPU time (user and system) of the process and the
    children it waited for."""
    cmd = [sys.executable, os.path.join("hopbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    env = None
    if workload == "layers":
        cmd, env = [sys.executable, LAYERS], dict(os.environ, PYTHONPATH="src")
    elif workload == "tier1":
        cmd = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
               "--continue-on-collection-errors"]
        env = dict(os.environ, PYTHONPATH="src")
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True)
    wall = time.perf_counter() - start
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    run = {"label": label, "workload": workload, "wall_s": wall,
           "cpu_s": after.ru_utime + after.ru_stime - before.ru_utime - before.ru_stime}
    if workload == "tier1":
        return {**run, "result": {"correct": proc.returncode == 0, "metrics": {
            "tier1.wall_s": {"value": wall, "unit": "s"}}}}
    if proc.returncode != 0:
        raise SystemExit(f"{label} {workload}: exit {proc.returncode}\n"
                         f"{proc.stderr[-2000:]}")
    return {**run, "result": json.loads(proc.stdout.strip().splitlines()[-1])}


def _medians(rows: list[dict]) -> list[dict]:
    """Median, quartiles and count of every metric per workload and label, over its
    values that are not null."""
    values = {}
    for r in rows:
        for metric, m in r["result"]["metrics"].items():
            if m["value"] is not None:
                values.setdefault((r["workload"], metric, r["label"]), []).append(m["value"])
    out = []
    for (workload, metric, label), v in values.items():
        quartiles = statistics.quantiles(v, n=4) if len(v) > 1 else v * 3
        out.append({"workload": workload, "metric": metric, "label": label, "runs": len(v),
                    "median": statistics.median(v), "q1": quartiles[0], "q3": quartiles[2]})
    return out


def table(doc: dict) -> str:
    """The medians as Markdown: one row per workload and metric, one column per label."""
    labels = [t["label"] for t in doc["trees"]]
    cells = {(m["workload"], m["metric"], m["label"]): m for m in doc["medians"]}
    ratio = len(labels) > 1
    head = ["workload", "metric", *labels] + [f"{labels[-1]} / {labels[0]}"] * ratio
    lines = ["| " + " | ".join(head) + " |", "|" + "---|" * len(head)]
    for workload, metric in dict.fromkeys((m["workload"], m["metric"])
                                          for m in doc["medians"]):
        row = [workload, metric]
        for label in labels:
            m = cells.get((workload, metric, label))
            row.append(f"{m['median']:.4g} [{m['q1']:.4g}, {m['q3']:.4g}] n={m['runs']}"
                       if m else "")
        if ratio:
            first, last = (cells.get((workload, metric, lb)) for lb in (labels[0], labels[-1]))
            row.append(f"{last['median'] / first['median']:.3f}"
                       if first and last and first["median"] else "")
        lines.append("| " + " | ".join(row) + " |")
    return "\n".join(lines)


def pair_wins(doc: dict) -> list[str]:
    """Per workload, how many pairs of runs the last label won on ops_per_s and
    how many of those wins it ran first, skipping the runs without ops_per_s.  A
    pair runs each label once, in the order its runs are recorded, so a lead that
    follows whichever tree runs first shows as wins that are mostly first runs."""
    labels = [t["label"] for t in doc["trees"]]
    lines = []
    for workload in dict.fromkeys(r["workload"] for r in doc.get("runs", [])):
        runs = [r for r in doc["runs"] if r["workload"] == workload
                and "ops_per_s" in r["result"]["metrics"]]
        if not runs:
            continue
        pairs = [runs[k:k + len(labels)] for k in range(0, len(runs), len(labels))]
        wins = first = 0
        for pair in pairs:
            order = [r["label"] for r in pair]
            ops = {r["label"]: r["result"]["metrics"]["ops_per_s"]["value"] for r in pair}
            if ops[labels[-1]] > ops[labels[0]]:
                wins += 1
                first += order.index(labels[-1]) < order.index(labels[0])
        lines.append(f"{workload}: {labels[-1]} won {wins} of {len(pairs)} pairs on ops_per_s, "
                     f"{first} of those wins running first")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("trees", nargs="+", metavar="LABEL=ROOT")
    parser.add_argument("--out", required=True, help="the BENCH_<n>.json to write")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--seed", type=int, default=901)
    parser.add_argument("--repeats", type=int, default=1)
    parser.add_argument("--table", action="store_true", help="print the medians as Markdown")
    parser.add_argument("--tier1", action="store_true",
                        help="also time one run of each tree's tier-1 suite (not gated)")
    args = parser.parse_args(argv)

    roots = {}
    for spec in args.trees:
        label, sep, root = spec.partition("=")
        if not sep or not label or label in roots:
            parser.error(f"expected LABEL=ROOT with a new label, got {spec!r}")
        roots[label] = root
    trees = [_tree(label, root) for label, root in roots.items()]
    rows = []
    for workload in (*WORKLOADS, "layers"):
        for k in range(args.repeats):
            order = list(roots.items()) if k % 2 == 0 else list(roots.items())[::-1]
            rows += [_run(lb, r, workload, args.seed, args.seconds) for lb, r in order]
    if args.tier1:
        rows += [_run(lb, r, "tier1", args.seed, args.seconds) for lb, r in roots.items()]
    doc = {
        "machine": {"platform": platform.platform(), "processor": platform.machine(),
                    "cpus": os.cpu_count(), "python": platform.python_version(),
                    "numpy": importlib.metadata.version("numpy")},
        "settings": {"seconds": args.seconds, "seed": args.seed, "repeats": args.repeats},
        "trees": trees,
        "medians": _medians(rows),
        "runs": rows,
    }
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    if args.table:
        print(table(doc))
        if len(trees) > 1:
            print("\n".join(["", *pair_wins(doc)]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
