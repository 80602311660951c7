"""Record the benchmark's result lines for one or more source trees in BENCH_<n>.json.

    python3 tools/bench_record.py --out BENCH_13.json --seconds 20 --repeats 10 \
        parent=../hopbound-parent change=.

Each ``LABEL=ROOT`` names a checkout (a ``git worktree`` of the parent, say)
whose own ``hopbench/run.py`` is run from that root, so each tree is
measured with its sources and nothing is built here.  For every workload
the script runs each root ``--repeats`` times untraced (``--trace 0``),
alternating which root goes first in each pair, then once traced
(``--trace 1``).  Every run's last stdout line, the result line, is kept
whole; the file adds the machine, the settings and the per-label medians.
``--table`` prints those medians as a Markdown table, with the last label
over the first as a ratio.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time

WORKLOADS = ("curve_sweep", "long_chain", "mc_latency")
END_TO_END = ("ops_per_s", "peak_rss_mb", "setup_s")


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


def _run(label: str, root: str, workload: str, seed: int, seconds: float,
         trace: int) -> dict:
    """One run of ``root``'s benchmark; its result line, kept whole."""
    cmd = [sys.executable, os.path.join("hopbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise SystemExit(f"{label} {workload}: exit {proc.returncode}\n"
                         f"{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return {"label": label, "workload": workload, "trace": trace, "wall_s": wall,
            "result": result}


def _medians(rows: list[dict]) -> list[dict]:
    """Median, quartiles and count of each untraced end-to-end metric per label."""
    out = []
    for workload in dict.fromkeys(r["workload"] for r in rows):
        for metric in END_TO_END:
            for label in dict.fromkeys(r["label"] for r in rows):
                values = [r["result"]["metrics"][metric]["value"] for r in rows
                          if r["workload"] == workload and r["label"] == label
                          and r["trace"] == 0 and metric in r["result"]["metrics"]]
                if not values:
                    continue
                quartiles = (statistics.quantiles(values, n=4) if len(values) > 1
                             else [values[0]] * 3)
                out.append({"workload": workload, "metric": metric, "label": label,
                            "runs": len(values), "median": statistics.median(values),
                            "q1": quartiles[0], "q3": quartiles[2]})
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
            row.append(f"{last['median'] / first['median']:.3f}" if first and last else "")
        lines.append("| " + " | ".join(row) + " |")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("trees", nargs="+", metavar="LABEL=ROOT")
    parser.add_argument("--out", required=True, help="the BENCH_<n>.json to write")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--seed", type=int, default=901)
    parser.add_argument("--repeats", type=int, default=1)
    parser.add_argument("--table", action="store_true", help="print the medians as Markdown")
    args = parser.parse_args(argv)

    roots = {}
    for spec in args.trees:
        label, sep, root = spec.partition("=")
        if not sep or not label or label in roots:
            parser.error(f"expected LABEL=ROOT with a new label, got {spec!r}")
        roots[label] = root
    trees = [_tree(label, root) for label, root in roots.items()]
    rows = []
    for workload in WORKLOADS:
        for k in range(args.repeats):
            order = list(roots.items()) if k % 2 == 0 else list(roots.items())[::-1]
            rows += [_run(lb, r, workload, args.seed, args.seconds, 0) for lb, r in order]
        rows += [_run(lb, r, workload, args.seed, args.seconds, 1) for lb, r in roots.items()]
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
    return 0


if __name__ == "__main__":
    sys.exit(main())
