import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_record.py"
_spec = importlib.util.spec_from_file_location("bench_record", _PATH)
bench_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_record)


def _row(label, workload, trace, ops):
    return {"label": label, "workload": workload, "trace": trace, "wall_s": 1.0,
            "result": {"correct": True, "attempted": 1, "failed": 0,
                       "metrics": {"ops_per_s": {"value": ops, "unit": "1/s"}}}}


def test_medians_and_table_read_only_untraced_runs():
    rows = ([_row("parent", "curve_sweep", 0, v) for v in (20.0, 22.0, 24.0, 26.0)]
            + [_row("change", "curve_sweep", 0, v) for v in (30.0, 32.0, 34.0, 36.0)]
            + [_row("change", "curve_sweep", 1, 1.0)])
    medians = bench_record._medians(rows)
    assert [(m["label"], m["median"], m["runs"]) for m in medians] == [
        ("parent", 23.0, 4), ("change", 33.0, 4)]
    doc = {"trees": [{"label": "parent"}, {"label": "change"}], "medians": medians}
    lines = bench_record.table(doc).splitlines()
    assert lines[0] == "| workload | metric | parent | change | change / parent |"
    assert lines[2].startswith("| curve_sweep | ops_per_s | 23 [") and lines[2].endswith(
        "| 1.435 |")


def test_rejects_a_tree_without_the_benchmark(tmp_path):
    with pytest.raises(SystemExit):
        bench_record.main(["--out", str(tmp_path / "b.json"), f"x={tmp_path}"])
