import importlib.util
import json
import types
from pathlib import Path

import pytest

_TOOLS = Path(__file__).resolve().parents[1] / "tools"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, _TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench_record = _load("bench_record")
bench_layers = _load("bench_layers")

LAYER_ROWS = [
    "scenario.load_scenario.awgn_1000.ms_per_call",
    "channel.e0_terms.awgn.us_per_call",
    "channel.e0_terms.dmc_3x3.us_per_call",
    "channel.e0.dmc_3x3_grid_100000.ms_per_call",
    "channel.e0_derivative.dmc_3x3_2000.ms_per_call",
    *(f"exponents.hop_exponents.{case}.us_per_call"
      for case in ("awgn_1", "awgn_300", "dmc_3x3_1", "dmc_3x3_80")),
    "exponents.sphere_packing_exponent.min_rate_awgn_40db.ms_per_call",
    "exponents.sphere_packing_exponent.min_rate_bsc.ms_per_call",
    *(f"allocation.reliability_optimal_blocks.n_{n}.ms_per_call" for n in (2, 100, 1000)),
    "distproto.run_distributed_allocation.awgn_1000.ms_per_call",
    "distproto.run_distributed_allocation.awgn_1000_trace.ms_per_call",
    "system.stacked_error_bounds.rows_80.ms_per_call",
    *(f"arq.simulate_latency.{chain}.{metric}" for chain in ("sparse", "dense", "tiny_pe")
      for metric in ("ms_per_1e5_trials", "peak_alloc_mb")),
    "arq.simulate_latency.parallel_2e6.ms_per_call",
    "arq.simulate_latency.serial_2e6.ms_per_call",
    "arq.simulate_latency.mc16_1e6.ms_per_call",
    "arq.simulate_latencies.fig4_single_hop.ms_per_call",
    "arq.simulate_latencies.fig4_two_hop.ms_per_call",
    *(f"cli.main.{command}.ms_per_call" for command in (
        "reproduce_fig3", "reproduce_fig4", "allocate_awgn_2", "allocate_awgn_400",
        "allocate_awgn_1000", "latency_awgn_2", "exponent_dmc_8x8_80", "exponent_awgn_200",
        "distributed_awgn_1000_trace", "distributed_awgn_1000")),
    "cli.main.distributed_awgn_1000.share_sum_rel_error",
    "cli.import.cold_ms",
    "cli.import.loads_scipy",
    *(f"cli.main.{command}.{metric}" for command in (
        "reproduce_fig4", "exponent_awgn_10", "exponent_awgn_200000")
      for metric in ("fresh_main_s", "peak_rss_mb")),
    "process.peak_rss_mb",
]


def _row(label, workload, ops, metric="ops_per_s"):
    return {"label": label, "workload": workload, "wall_s": 1.0,
            "result": {"correct": True, "attempted": 1, "failed": 0,
                       "metrics": {metric: {"value": ops, "unit": "1/s"}}}}


def test_medians_and_table_read_every_metric_of_every_run():
    # a metric only one label's runs carry gets an empty cell for the other
    rows = ([_row("parent", "curve_sweep", v) for v in (20.0, 22.0, 24.0, 26.0)]
            + [_row("change", "curve_sweep", v) for v in (30.0, 32.0, 34.0, 36.0)]
            + [_row("change", "curve_sweep", 0.0, "setup_s")])
    medians = bench_record._medians(rows)
    assert [(m["metric"], m["label"], m["median"], m["runs"]) for m in medians] == [
        ("ops_per_s", "parent", 23.0, 4), ("ops_per_s", "change", 33.0, 4),
        ("setup_s", "change", 0.0, 1)]
    doc = {"trees": [{"label": "parent"}, {"label": "change"}], "medians": medians}
    lines = bench_record.table(doc).splitlines()
    assert lines[0] == "| workload | metric | parent | change | change / parent |"
    assert lines[2].startswith("| curve_sweep | ops_per_s | 23 [") and lines[2].endswith(
        "| 1.435 |")
    assert lines[3] == "| curve_sweep | setup_s |  | 0 [0, 0] n=1 |  |"


def test_medians_and_table_of_layer_lines_skip_null_values():
    def layers(label, values):
        return {"label": label, "workload": "layers", "wall_s": 5.0, "result": {
            "correct": None not in values, "metrics": {
                name: {"value": v, "unit": "ms", **({"error": "AttributeError: x"} if v is None
                                                     else {})}
                for name, v in zip(("system.stacked_error_bounds.rows_80.ms_per_call",
                                    "cli.main.latency_awgn_2.ms_per_call"), values)}}}
    rows = [layers("parent", (None, 2.0)), layers("change", (0.4, 1.0)),
            layers("change", (0.6, 3.0)), layers("parent", (None, 4.0))]
    medians = bench_record._medians(rows)
    assert [(m["metric"].split(".")[0], m["label"], m["median"], m["runs"])
            for m in medians] == [("cli", "parent", 3.0, 2), ("system", "change", 0.5, 2),
                                  ("cli", "change", 2.0, 2)]
    doc = {"trees": [{"label": "parent"}, {"label": "change"}], "medians": medians}
    assert bench_record.table(doc).splitlines()[2:] == [
        "| layers | cli.main.latency_awgn_2.ms_per_call | 3 [1.5, 4.5] n=2 | 2 [0.5, 3.5] n=2 "
        "| 0.667 |",
        "| layers | system.stacked_error_bounds.rows_80.ms_per_call |  | 0.5 [0.35, 0.65] n=2 "
        "|  |"]


def test_rejects_a_tree_without_the_benchmark(tmp_path):
    with pytest.raises(SystemExit):
        bench_record.main(["--out", str(tmp_path / "b.json"), f"x={tmp_path}"])


def test_record_runs_each_tree_untraced_in_alternating_pairs(tmp_path, monkeypatch):
    # every run is one untraced hopbench or layer run: _run takes no trace setting
    calls = []

    def run(label, root, workload, seed, seconds):
        calls.append((workload, label))
        return _row(label, workload, 1.0)
    monkeypatch.setattr(bench_record, "_run", run)
    for label in ("parent", "change"):
        (tmp_path / label / "hopbench").mkdir(parents=True)
        (tmp_path / label / "hopbench" / "run.py").touch()
    out = tmp_path / "b.json"
    assert bench_record.main(["--out", str(out), "--repeats", "2",
                              *(f"{lb}={tmp_path / lb}" for lb in ("parent", "change"))]) == 0
    assert calls == [(workload, label) for workload in (*bench_record.WORKLOADS, "layers")
                     for label in ("parent", "change", "change", "parent")]
    doc = json.loads(out.read_text())
    assert [(r["workload"], r["label"]) for r in doc["runs"]] == calls
    assert all(set(r) == {"label", "workload", "wall_s", "result"} for r in doc["runs"])


def test_pair_wins_count_the_last_labels_wins_and_its_first_runs():
    # pairs alternate which label runs first; the change wins pairs 0, 1 and 3,
    # running first in pair 1 and pair 3
    order = [("parent", "change"), ("change", "parent")] * 2
    ops = [{"parent": 20.0, "change": 21.0}, {"parent": 20.0, "change": 22.0},
           {"parent": 23.0, "change": 22.0}, {"parent": 20.0, "change": 25.0}]
    rows = [_row(label, "curve_sweep", values[label])
            for labels, values in zip(order, ops) for label in labels]
    doc = {"trees": [{"label": "parent"}, {"label": "change"}], "runs": rows}
    assert bench_record.pair_wins(doc) == [
        "curve_sweep: change won 3 of 4 pairs on ops_per_s, 2 of those wins running first"]
    assert bench_record.pair_wins({**doc, "runs": []}) == []
    # the layer runs carry no ops_per_s: they are skipped, and give no line
    layers = [_row(label, "layers", 1.0, "process.peak_rss_mb") for label in order[0]]
    assert bench_record.pair_wins({**doc, "runs": layers + rows}) == bench_record.pair_wins(doc)


def test_layer_rows_are_pinned(tmp_path):
    names = []
    bench_layers.run(lambda units, fn: names.extend(units), str(tmp_path))
    assert names == LAYER_ROWS


def _layer_rows(out, *prefixes):
    """The metrics of the layer rows whose first name starts with one of `prefixes`."""
    metrics = {}

    def row(units, fn):
        if next(iter(units)).startswith(prefixes):
            bench_layers.record(metrics, units, fn)
    bench_layers.run(row, str(out))
    return metrics


def test_a_layer_row_gives_a_value_and_unit(tmp_path):
    metrics = _layer_rows(tmp_path, "allocation.reliability_optimal_blocks.n_2.")
    [(name, entry)] = metrics.items()
    assert name == "allocation.reliability_optimal_blocks.n_2.ms_per_call"
    assert set(entry) == {"value", "unit"} and entry["unit"] == "ms" and entry["value"] > 0
    line = json.loads(json.dumps({"correct": True, "metrics": metrics}))
    assert bench_record._medians([{"label": "this", "workload": "layers",
                                   "result": line}])[0]["median"] == entry["value"]


def test_a_layer_row_whose_function_is_missing_records_null_and_the_error(tmp_path,
                                                                           monkeypatch):
    monkeypatch.delattr(bench_layers.system, "stacked_error_bounds")
    metrics = _layer_rows(tmp_path, "system.", "allocation.reliability_optimal_blocks.n_2.")
    assert metrics["system.stacked_error_bounds.rows_80.ms_per_call"] == {
        "value": None, "unit": "ms",
        "error": "AttributeError: module 'hopbound.system' has no attribute "
                 "'stacked_error_bounds'"}
    assert metrics["allocation.reliability_optimal_blocks.n_2.ms_per_call"]["value"] > 0


def test_a_command_this_tree_rejects_records_null_and_its_exit(tmp_path, monkeypatch):
    # an option a tree lacks makes argparse exit: that row records it, the next still runs
    def usage_error(argv):
        raise SystemExit(2)
    monkeypatch.setattr(bench_layers.cli, "main", usage_error)
    metrics = _layer_rows(tmp_path, "cli.main.allocate_awgn_2.", "process.")
    assert metrics["cli.main.allocate_awgn_2.ms_per_call"] == {
        "value": None, "unit": "ms", "error": "SystemExit: 2"}
    assert metrics["process.peak_rss_mb"]["value"] > 0


def test_peak_rss_reads_this_process_vmhwm():
    peak = bench_layers.peak_rss_mb()
    assert isinstance(peak, float) and peak > 0


def test_tier1_runs_once_per_tree_and_reports_its_wall_time(tmp_path, monkeypatch):
    calls = []
    monkeypatch.setattr(bench_record, "_run", lambda label, root, workload, *_: calls.append(
        (workload, label)) or _row(label, workload, 1.0))
    for label in ("parent", "change"):
        (tmp_path / label / "hopbench").mkdir(parents=True)
        (tmp_path / label / "hopbench" / "run.py").touch()
    trees = [f"{lb}={tmp_path / lb}" for lb in ("parent", "change")]
    assert bench_record.main(["--out", str(tmp_path / "b.json"), "--tier1", *trees]) == 0
    assert calls[-2:] == [("tier1", "parent"), ("tier1", "change")]
    assert [c for c in calls if c[0] == "tier1"] == calls[-2:]


def test_a_tier1_run_is_reported_not_gated(tmp_path, monkeypatch):
    # a failing suite gives a row with correct false, where a failing benchmark run exits
    monkeypatch.setattr(bench_record.subprocess, "run",
                        lambda *args, **kwargs: types.SimpleNamespace(returncode=1))
    row = bench_record._run("change", str(tmp_path), "tier1", 1, 1.0)
    assert set(row) == {"label", "workload", "wall_s", "cpu_s", "result"}
    assert row["result"]["correct"] is False
    assert set(row["result"]["metrics"]) == {"tier1.wall_s"}
    assert row["result"]["metrics"]["tier1.wall_s"]["unit"] == "s"
