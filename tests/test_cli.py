import collections
import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopbound.allocation import info_continuous_log_m, reliability_real_blocks
from hopbound import allocation, cli, exponents, scenario
from hopbound.channel import ChannelError, HopChannel, capacity
from hopbound.cli import main
from hopbound.exponents import (ARRAY_MIN_HOPS, RHO_MAX, random_coding_exponent,
                                sphere_packing_exponent)
from hopbound.scenario import Evaluation, ScenarioError, load_scenario


BASE_DOC = {
    "schema_version": 1,
    "total_q": 1000,
    "hops": [{"type": "awgn", "snr_db": 9.0}, {"type": "awgn", "snr_db": 6.0}],
    "rate_policy": {"mode": "capacity_fraction", "beta": 0.5},
    "allocation_method": "reliability_optimal_rc",
}


def write_scenario(tmp_path, name="scenario.json", **overrides):
    doc = dict(BASE_DOC, **overrides)
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


class TestScenario:
    def test_round_trip(self, tmp_path):
        sc = load_scenario(write_scenario(tmp_path))
        assert sc.total_q == 1000
        assert len(sc.hops) == 2
        assert sc.hops[0].snr == pytest.approx(10 ** 0.9)
        rates = sc.resolve_rates()
        assert rates[0] == pytest.approx(0.5 * math.log(1 + 10 ** 0.9))

    def test_explicit_rates(self, tmp_path):
        path = write_scenario(tmp_path, rate_policy={
            "mode": "explicit", "rates_nats": [0.9, 0.7]})
        assert load_scenario(path).resolve_rates() == [0.9, 0.7]

    def test_target_rate_policy(self, tmp_path):
        path = write_scenario(tmp_path, rate_policy={
            "mode": "target_rate", "rate_nats": 0.4633})
        rates = load_scenario(path).resolve_rates()
        assert 1.0 / sum(1.0 / r for r in rates) == pytest.approx(0.4633, rel=1e-12)

    def test_manual_blocks(self, tmp_path):
        path = write_scenario(tmp_path, allocation_method="manual",
                              manual_blocks=[400, 600])
        assert Evaluation(load_scenario(path)).blocks == [400, 600]

    def test_manual_single_hop_passthrough(self, tmp_path):
        path = write_scenario(
            tmp_path, hops=[{"type": "awgn", "snr_db": 0.0}],
            allocation_method="manual", manual_blocks=[1000],
            rate_policy={"mode": "explicit", "rates_nats": [0.5]})
        ev = Evaluation(load_scenario(path))
        assert ev.blocks == [1000]
        assert ev.end_to_end_rate == pytest.approx(0.5)

    def test_dmc_hop(self, tmp_path):
        path = write_scenario(tmp_path, hops=[{
            "type": "dmc",
            "transition": [[0.9, 0.1], [0.1, 0.9]],
            "input_dist": [0.5, 0.5]}],
            rate_policy={"mode": "capacity_fraction", "beta": 0.5})
        sc = load_scenario(path)
        assert sc.hops[0].kind == "dmc"

    def test_rejects_bad_schema_version(self, tmp_path):
        path = write_scenario(tmp_path, schema_version=2)
        with pytest.raises(ScenarioError):
            load_scenario(path)

    def test_rejects_manual_blocks_mismatch(self, tmp_path):
        path = write_scenario(tmp_path, allocation_method="manual",
                              manual_blocks=[400, 500])
        with pytest.raises(ScenarioError):
            load_scenario(path)

    def test_rejects_unknown_method(self, tmp_path):
        path = write_scenario(tmp_path, allocation_method="magic")
        with pytest.raises(ScenarioError):
            load_scenario(path)

    def test_rejects_empty_hops(self, tmp_path):
        path = write_scenario(tmp_path, hops=[])
        with pytest.raises(ScenarioError):
            load_scenario(path)

    def test_rejects_boolean_total_q(self, tmp_path, capsys):
        path = write_scenario(tmp_path, total_q=True)
        with pytest.raises(ScenarioError):
            load_scenario(path)
        assert main(["allocate", "--scenario", path]) == 3
        assert "total_q" in json.loads(capsys.readouterr().err.splitlines()[-1])["error"]

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), 0.0, -0.5])
    @pytest.mark.parametrize("method", ["reliability_optimal_rc", "info_continuous"])
    def test_rejects_nonfinite_or_nonpositive_explicit_rates(self, tmp_path, capsys,
                                                            bad, method):
        path = write_scenario(tmp_path, allocation_method=method, rate_policy={
            "mode": "explicit", "rates_nats": [0.9, bad]})
        assert main(["allocate", "--scenario", path]) == 3
        assert "rates_nats" in json.loads(capsys.readouterr().err.splitlines()[-1])["error"]

    @pytest.mark.parametrize("content", [
        pytest.param(json.dumps(dict(BASE_DOC, **fields)), id=name) for name, fields in (
            ("snr_db_string", {"hops": [{"type": "awgn", "snr_db": "x"}]}),
            ("beta_string", {"rate_policy": {"mode": "capacity_fraction", "beta": "half"}}),
            ("rates_nats_string", {"rate_policy": {"mode": "explicit",
                                                   "rates_nats": ["abc", 0.5]}}),
            ("rate_nats_string", {"rate_policy": {"mode": "target_rate", "rate_nats": "z"}}),
            ("transition_strings", {"hops": [{"type": "dmc",
                                              "transition": [["a", "b"], [0.5, 0.5]]}]}),
            ("transition_null", {"hops": [{"type": "dmc",
                                           "transition": [[None, 1.0], [0.5, 0.5]]}]}),
            ("rates_nats_missing", {"rate_policy": {"mode": "explicit"}}),
            ("hop_string", {"hops": ["awgn"]}),
            ("total_q_beyond_doubles", {"total_q": 10 ** 400}),
            ("manual_blocks_fraction", {"total_q": 100, "hops": [{"type": "awgn", "snr_db": 0.0}],
                                        "allocation_method": "manual",
                                        "manual_blocks": [100.7]}))
    ] + [pytest.param("[1, 2]", id="top_level_array"),
         pytest.param("{not json", id="invalid_json"),
         # a callable content makes the path: nothing there, or a directory
         pytest.param(lambda path: None, id="missing_file"),
         pytest.param(Path.mkdir, id="directory")])
    def test_malformed_document_exits_3(self, tmp_path, capsys, content):
        path = tmp_path / "bad.json"
        if callable(content):
            content(path)
        else:
            path.write_text(content)
        assert main(["allocate", "--scenario", str(path)]) == 3
        assert "error" in json.loads(capsys.readouterr().err.splitlines()[-1])
        if callable(content):
            assert main(["exponent", "--scenario", str(path), "--rate-min", "0.1",
                         "--rate-max", "0.2", "--rate-steps", "2",
                         "--out", str(tmp_path / "never.csv")]) == 3
            assert "error" in json.loads(capsys.readouterr().err.splitlines()[-1])


# Generated scenario documents: a well-formed document sized so that no
# example does heavy work (N <= 6, Q <= 1e4, DMCs of at most 3x3), then, in
# half of the examples, one value anywhere in it (or the whole document)
# replaced by junk.
_JUNK = st.one_of(st.none(), st.booleans(), st.text(max_size=3), st.integers(-3, 3),
                  st.sampled_from([float("nan"), float("inf"), -1.0, 1e308, 10 ** 400, [], {}]))


def _stochastic(k):
    return st.lists(st.floats(0.01, 1.0), min_size=k, max_size=k).map(
        lambda row: [x / sum(row) for x in row])


_AWGN = st.fixed_dictionaries({"type": st.just("awgn"), "snr_db": st.floats(-30.0, 40.0)})
_DMC = st.tuples(st.integers(1, 3), st.integers(1, 3)).flatmap(lambda shape: st.fixed_dictionaries(
    {"type": st.just("dmc"),
     "transition": st.lists(_stochastic(shape[1]), min_size=shape[0], max_size=shape[0])},
    optional={"input_dist": _stochastic(shape[0])}))


@st.composite
def _scenario_documents(draw):
    n = draw(st.integers(1, 6))
    doc = {
        "schema_version": 1,
        "total_q": draw(st.integers(1, 10_000)),
        "hops": draw(st.lists(st.one_of(_AWGN, _DMC), min_size=n, max_size=n)),
        "rate_policy": draw(st.one_of(
            st.fixed_dictionaries({"mode": st.just("explicit"), "rates_nats": st.lists(
                st.floats(1e-3, 3.0), min_size=n, max_size=n)}),
            st.fixed_dictionaries({"mode": st.just("capacity_fraction"),
                                   "beta": st.floats(0.01, 0.99)}),
            st.fixed_dictionaries({"mode": st.just("target_rate"),
                                   "rate_nats": st.floats(1e-3, 3.0)}))),
        "allocation_method": draw(st.sampled_from([
            "reliability_optimal_rc", "reliability_optimal_sp", "info_continuous", "manual"])),
    }
    if doc["allocation_method"] == "manual":
        doc["manual_blocks"] = draw(st.lists(st.integers(1, 1500), min_size=n, max_size=n))
        doc["total_q"] = sum(doc["manual_blocks"])
    if not draw(st.booleans()):
        return doc
    paths, stack = [], [((), doc)]
    while stack:
        path, node = stack.pop()
        paths.append(path)
        items = node.items() if isinstance(node, dict) else enumerate(node) \
            if isinstance(node, list) else ()
        stack.extend((path + (key,), value) for key, value in items)
    path = draw(st.sampled_from(paths))
    if not path:
        return draw(_JUNK)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = draw(_JUNK)
    return doc


@settings(max_examples=300, deadline=None)
@given(doc=_scenario_documents())
def test_fuzzed_scenario_documents_exit_0_or_3(doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/scenario.json"
        with open(path, "w") as fh:
            json.dump(doc, fh)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert main(["allocate", "--scenario", path]) in (0, 3)


class TestExponentCommand:
    def test_csv_format(self, tmp_path):
        out = tmp_path / "sweep.csv"
        rc = main(["exponent", "--snr-db", "0", "--rate-min", "0.01",
                   "--rate-max", "0.69", "--rate-steps", "100",
                   "--out", str(out)])
        assert rc == 0
        lines = out.read_text().split("\n")
        assert lines[0] == "rate_nats,e_r,rho_r,regime_r,e_sp,rho_sp,regime_sp"
        rows = [line.split(",") for line in lines[1:] if line]
        assert len(rows) == 100
        e_r = [float(r[1]) for r in rows]
        assert all(a >= b - 1e-12 for a, b in zip(e_r, e_r[1:]))

    def test_capacity_edge(self, tmp_path):
        out = tmp_path / "edge.csv"
        main(["exponent", "--snr-db", "0", "--rate-min", "0.69314",
              "--rate-max", "0.69314", "--rate-steps", "2", "--out", str(out)])
        rows = [line.split(",") for line in out.read_text().split("\n")[1:] if line]
        for row in rows:
            assert float(row[1]) == pytest.approx(0.0, abs=1e-4)

    def test_equality_above_critical_rate(self, tmp_path):
        out = tmp_path / "crit.csv"
        r_cr = math.log(1.5) - 1.0 / 6.0
        main(["exponent", "--snr-db", "0", "--rate-min", f"{r_cr + 1e-6}",
              "--rate-max", "0.69", "--rate-steps", "50", "--out", str(out)])
        for line in out.read_text().split("\n")[1:]:
            if not line:
                continue
            cols = line.split(",")
            assert abs(float(cols[1]) - float(cols[4])) <= 1e-9

    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["exponent", "--snr-db", "3", "--rate-min", "0.05",
                "--rate-max", "0.9", "--rate-steps", "40"]
        main(argv + ["--out", str(a)])
        main(argv + ["--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("argv", [
        pytest.param(["exponent", "--rate-min", "0.1"], id="missing_arguments"),
        pytest.param(["exponent", "--snr-db", "0", "--rate-min", "0.1", "--rate-max", "0.5",
                      "--rate-steps", "-1", "--out", "never.csv"], id="negative_rate_steps"),
        pytest.param(["latency", "--scenario", "never.json", "--trials", "0"],
                     id="zero_trials"),
        pytest.param(["exponent", "--snr-db", "0", "--rate-min", "nan", "--rate-max", "0.5",
                      "--rate-steps", "3", "--out", "never.csv"], id="nan_rate_min"),
        pytest.param(["exponent", "--snr-db", "0", "--rate-min", "0.1", "--rate-max", "inf",
                      "--rate-steps", "3", "--out", "never.csv"], id="inf_rate_max"),
        pytest.param(["verify", "--suite", "grid", "--seed", "-1"], id="negative_verify_seed")])
    def test_usage_error_exit_code(self, capsys, argv):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2

    @pytest.mark.parametrize("argv,message", [
        (["latency", "--scenario", "never.json", "--trials", "0"],
         "--trials: must be an integer >= 1, got 0"),
        (["verify", "--suite", "grid", "--seed", "-1"],
         "--seed: must be an integer >= 0, got -1")], ids=["zero_trials", "negative_seed"])
    def test_unbounded_integer_messages(self, capsys, argv, message):
        with pytest.raises(SystemExit):
            main(argv)
        assert message in capsys.readouterr().err

    def test_rate_steps_limit(self, capsys):
        argv = ["exponent", "--snr-db", "0", "--rate-min", "0.1", "--rate-max", "0.5",
                "--out", "never.csv", "--rate-steps"]
        limit = cli.MAX_RATE_STEPS
        assert cli.build_parser().parse_args(argv + [str(limit)]).rate_steps == limit
        with pytest.raises(SystemExit) as err:
            main(argv + [str(limit + 1)])
        assert err.value.code == 2
        assert f"must be an integer from 1 to {limit}, got {limit + 1}" in capsys.readouterr().err

    @pytest.mark.parametrize("snr_db", ["inf", "5000"], ids=["inf_snr", "overflowing_snr"])
    def test_nonfinite_snr_exits_3(self, tmp_path, capsys, snr_db):
        out = tmp_path / "sweep.csv"
        assert main(["exponent", "--snr-db", snr_db, "--rate-min", "0.1", "--rate-max", "0.5",
                     "--rate-steps", "3", "--out", str(out)]) == 3
        assert "snr" in json.loads(capsys.readouterr().err.splitlines()[-1])["error"].lower()
        assert not out.exists()


class TestUnwritableOutput:
    """`exponent` and `reproduce` open their outputs before solving: one that
    cannot be written exits 3 with the JSON error and changes no file."""

    @pytest.fixture(autouse=True)
    def no_solves(self, monkeypatch):
        def solve(*args):
            raise AssertionError("solved before the output was checked")
        monkeypatch.setattr(cli, "hop_exponents", solve)
        monkeypatch.setattr(cli, "_sweep_rows", solve)

    @staticmethod
    def assert_fails_unchanged(tmp_path, capsys, argv):
        before = {p: p.is_dir() or p.read_bytes() for p in tmp_path.rglob("*")}
        assert main(argv) == 3
        assert json.loads(capsys.readouterr().err.splitlines()[-1])["error"]
        assert {p: p.is_dir() or p.read_bytes() for p in tmp_path.rglob("*")} == before

    @pytest.mark.parametrize("out", ["missing_dir/x.csv", "a_dir", "a_file/x.csv"])
    def test_exponent(self, tmp_path, capsys, out):
        (tmp_path / "a_dir").mkdir()
        (tmp_path / "a_dir" / "kept.csv").write_text("kept\n")
        (tmp_path / "a_file").write_text("kept\n")
        self.assert_fails_unchanged(tmp_path, capsys, [
            "exponent", "--snr-db", "0", "--rate-min", "0.1", "--rate-max", "0.5",
            "--rate-steps", "3", "--out", str(tmp_path / out)])

    @pytest.mark.parametrize("figure", ["fig3", "fig4"])
    @pytest.mark.parametrize("blocked", ["out_dir", "meta"])
    def test_reproduce(self, tmp_path, capsys, figure, blocked):
        (tmp_path / "a_file").write_text("kept\n")
        out = tmp_path / "out"
        if blocked == "out_dir":  # under a file: cannot be created
            out = tmp_path / "a_file" / "out"
        else:  # a directory where the last file goes
            (out / f"{figure}_meta.json").mkdir(parents=True)
        self.assert_fails_unchanged(tmp_path, capsys,
                                    ["reproduce", "--figure", figure, "--out-dir", str(out)])


def linspace_csv(ch, lo, hi, steps):
    """The `exponent` CSV from np.linspace's grid and one scalar solve per rate
    and family."""
    lines = ["rate_nats,e_r,rho_r,regime_r,e_sp,rho_sp,regime_sp"]
    for rate in np.linspace(lo, hi, steps).tolist():
        rc, sp = random_coding_exponent(rate, ch), sphere_packing_exponent(rate, ch)
        lines.append(",".join(f"{v:.12g}" if isinstance(v, float) else v for v in (
            rate, rc.exponent, rc.rho_star, rc.regime, sp.exponent, sp.rho_star, sp.regime)))
    return "\n".join(lines) + "\n"


class TestExponentGrid:
    """`exponent` solves and writes its grid in chunks of cli._GRID_CHUNK rows."""

    CHUNK = cli._GRID_CHUNK

    @pytest.mark.parametrize("lo,hi,steps", [
        (0.01, 1.0, 1), (0.01, 1.0, 2), (0.01, 1.0, CHUNK - 1), (0.01, 1.0, CHUNK),
        (0.01, 1.0, CHUNK + 1), (0.01, 1.0, 2 * CHUNK + 3), (1.0, 0.01, CHUNK + 1)])
    def test_csv_equals_the_linspace_csv(self, tmp_path, lo, hi, steps):
        out = tmp_path / "sweep.csv"
        assert main(["exponent", "--snr-db", "0", f"--rate-min={lo}", f"--rate-max={hi}",
                     "--rate-steps", str(steps), "--out", str(out)]) == 0
        assert out.read_text() == linspace_csv(HopChannel.awgn(1.0), lo, hi, steps)

    @pytest.mark.parametrize("lo,hi,steps", [
        (0.0, 5e-324, 5), (0.0, 1e-310, 2 * CHUNK + 3), (-1e308, 1e308, 3), (0.3, 0.3, 1),
        (0.5, -0.0, 2), (-0.0, 0.0, 3), (0.7, 0.1, CHUNK + 1), (1e-300, 2.0, 3 * CHUNK)])
    def test_grid_equals_linspace(self, lo, hi, steps):
        with np.errstate(all="ignore"):  # linspace warns where the step overflows
            expected = np.linspace(lo, hi, steps)
        got = [x for chunk in cli._grid_chunks(lo, hi, steps) for x in chunk]
        assert np.array(got).tobytes() == expected.tobytes()

    def test_invalid_row_leaves_out_untouched(self, tmp_path, capsys):
        # a descending grid past 0: the row at 0 fails the SP solve before the
        # negative rows fail RC, and --out keeps what it held
        out = tmp_path / "sweep.csv"
        out.write_text("kept\n")
        assert main(["exponent", "--snr-db", "0", "--rate-min", "0.5", "--rate-max=-0.5",
                     "--rate-steps", str(2 * self.CHUNK + 1), "--out", str(out)]) == 3
        error = json.loads(capsys.readouterr().err.splitlines()[-1])["error"]
        assert error == "rate must be positive for sphere packing, got 0.0"
        assert out.read_text() == "kept\n"
        assert os.listdir(tmp_path) == ["sweep.csv"]

    @pytest.mark.parametrize("steps", [1, 2, CHUNK + 1])
    def test_dmc_scenario_csv_equals_the_linspace_csv(self, tmp_path, monkeypatch, steps):
        # one channel object on every row: each chunk takes one array call per family
        calls = []
        solve = exponents._array_exponents
        monkeypatch.setattr(exponents, "_array_exponents",
                            lambda rates, *args: calls.append(len(rates)) or solve(rates, *args))
        transition = [[0.8, 0.15, 0.05], [0.1, 0.7, 0.2], [0.0, 0.3, 0.7]]
        input_dist = [0.5, 0.3, 0.2]
        ch = HopChannel.dmc(transition, input_dist)
        path = write_scenario(tmp_path, hops=[
            {"type": "awgn", "snr_db": 3.0},
            {"type": "dmc", "transition": transition, "input_dist": input_dist}])
        lo, hi = 1e-3 * capacity(ch), 1.05 * capacity(ch)
        out = tmp_path / "sweep.csv"
        assert main(["exponent", "--scenario", path, "--hop", "1", f"--rate-min={lo!r}",
                     f"--rate-max={hi!r}", "--rate-steps", str(steps), "--out", str(out)]) == 0
        assert out.read_text() == linspace_csv(ch, lo, hi, steps)
        assert max(calls) == min(steps, self.CHUNK)

    def test_out_through_a_symlink(self, tmp_path):
        # the rows reach the link's target, and the link stays a link
        target, link = tmp_path / "target.csv", tmp_path / "link.csv"
        target.write_text("")
        link.symlink_to(target)
        assert main(["exponent", "--snr-db", "0", "--rate-min", "0.1", "--rate-max", "0.5",
                     "--rate-steps", "3", "--out", str(link)]) == 0
        assert link.is_symlink()
        assert target.read_text() == linspace_csv(HopChannel.awgn(1.0), 0.1, 0.5, 3)

    def test_out_through_a_dangling_symlink(self, tmp_path):
        # the output check leaves the link to the write, which creates its target
        target, link = tmp_path / "target.csv", tmp_path / "link.csv"
        link.symlink_to(target)
        assert main(["exponent", "--snr-db", "0", "--rate-min", "0.1", "--rate-max", "0.5",
                     "--rate-steps", "3", "--out", str(link)]) == 0
        assert target.read_text() == linspace_csv(HopChannel.awgn(1.0), 0.1, 0.5, 3)

    def test_memory_does_not_grow_with_the_grid(self, tmp_path):
        code = ("import resource, sys\n"
                "from hopbound.cli import main\n"
                "assert main(sys.argv[1:]) == 0\n"
                "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n")
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
        peak = {}
        for steps in (10, 200_000):
            proc = subprocess.run([sys.executable, "-c", code, "exponent", "--snr-db", "0",
                                   "--rate-min", "0.01", "--rate-max", "0.69",
                                   "--rate-steps", str(steps), "--out", str(tmp_path / "g.csv")],
                                  env=env, capture_output=True, text=True, timeout=120)
            assert proc.returncode == 0, proc.stderr
            peak[steps] = int(proc.stdout)
        kib_per_unit = 1 / 1024 if sys.platform == "darwin" else 1  # ru_maxrss units
        assert (peak[200_000] - peak[10]) * kib_per_unit < 10 * 1024


class TestAllocateCommand:
    def test_json_fields(self, tmp_path):
        out = tmp_path / "alloc.json"
        rc = main(["allocate", "--scenario", write_scenario(tmp_path),
                   "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["method"] == "reliability_optimal_rc"
        assert sum(doc["blocklengths"]) == 1000
        assert doc["stationarity_residual"] == pytest.approx(0.0, abs=1e-8)
        assert doc["ln_m"] is None

    @pytest.mark.parametrize("method,solver", [
        ("reliability_optimal_rc", random_coding_exponent),
        ("reliability_optimal_sp", sphere_packing_exponent)])
    def test_stationarity_residual_matches_resolved_exponents(self, tmp_path, method,
                                                              solver):
        # the residual comes from the exponents the allocation balanced; it must
        # equal the one computed from freshly solved exponents, bit for bit
        path = write_scenario(tmp_path, allocation_method=method, hops=[
            {"type": "awgn", "snr_db": db} for db in (9.0, 6.0, 12.0, 3.0)])
        out = tmp_path / "alloc.json"
        assert main(["allocate", "--scenario", path, "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        sc = load_scenario(path)
        exps = [solver(r, ch).exponent for r, ch in zip(sc.resolve_rates(), sc.hops)]
        balance = [q * e - math.log(e)
                   for q, e in zip(reliability_real_blocks(exps, sc.total_q), exps)]
        assert doc["stationarity_residual"] == max(balance) - min(balance)

    def test_info_continuous_ln_m(self, tmp_path):
        path = write_scenario(tmp_path, allocation_method="info_continuous",
                              rate_policy={"mode": "explicit",
                                           "rates_nats": [2.0, 1.0]},
                              total_q=30)
        out = tmp_path / "alloc.json"
        main(["allocate", "--scenario", path, "--out", str(out)])
        doc = json.loads(out.read_text())
        assert doc["ln_m"] == pytest.approx(20.0, abs=1e-12)
        assert doc["blocklengths"] == [10, 20]
        assert doc["m"] == int(math.floor(math.exp(20.0)))

    def test_info_continuous_m_null_above_overflow(self, tmp_path):
        # ln M = 1000: M overflows a double, so only ln M is reported
        path = write_scenario(tmp_path, allocation_method="info_continuous",
                              rate_policy={"mode": "explicit", "rates_nats": [1.0, 1.0]},
                              total_q=2000)
        out = tmp_path / "alloc.json"
        assert main(["allocate", "--scenario", path, "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["ln_m"] == 1000.0
        assert doc["m"] is None
        assert doc["blocklengths"] == [1000, 1000]

    @pytest.mark.parametrize("rates", [[1e-310, 1e-310], [1e-308, 1e-308]],
                             ids=["both_subnormal", "both_1e-308"])
    def test_info_continuous_overflowing_inverse_rate(self, tmp_path, rates):
        # sum(1/R_n) overflows a double: ln M used to become 0, and the floors
        # left all of Q unplaced (exit 3)
        path = write_scenario(tmp_path, allocation_method="info_continuous",
                              rate_policy={"mode": "explicit", "rates_nats": rates})
        out = tmp_path / "alloc.json"
        assert main(["allocate", "--scenario", path, "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["blocklengths"] == [500, 500]
        assert doc["ln_m"] == pytest.approx(500 * rates[0], rel=1e-15)

    def test_info_continuous_subnormal_next_to_unit_rate_exits_3(self, tmp_path, capsys):
        # the hop at rate 1 has an exact share of ~1e-307 units: no split gives it a block
        path = write_scenario(tmp_path, allocation_method="info_continuous",
                              rate_policy={"mode": "explicit", "rates_nats": [1e-310, 1.0]})
        assert main(["allocate", "--scenario", path]) == 3
        assert "blocklength >= 1" in json.loads(capsys.readouterr().err.splitlines()[-1])["error"]

    def test_info_continuous_infinite_share_exits_3(self, tmp_path, capsys):
        # ln M = Q / (1/R) overflows to inf, and so does the one real share
        path = write_scenario(tmp_path, allocation_method="info_continuous", total_q=2,
                              hops=[{"type": "awgn", "snr_db": 9.0}],
                              rate_policy={"mode": "explicit", "rates_nats": [1e308]})
        assert main(["allocate", "--scenario", path]) == 3
        assert "not finite" in json.loads(capsys.readouterr().err.splitlines()[-1])["error"]

    def test_time_share_equivalence(self, tmp_path):
        path = write_scenario(tmp_path, allocation_method="info_continuous",
                              rate_policy={"mode": "capacity_fraction",
                                           "beta": 0.999999999999})
        out = tmp_path / "alloc.json"
        main(["allocate", "--scenario", path, "--out", str(out)])
        doc = json.loads(out.read_text())
        caps = [math.log(1 + 10 ** 0.9), math.log(1 + 10 ** 0.6)]
        inv = sum(1 / c for c in caps)
        for q_n, c in zip(doc["blocklengths"], caps):
            assert abs(q_n / 1000 - (1 / c) / inv) <= 1 / 1000

    def test_infeasible_exit_code(self, tmp_path, capsys):
        path = write_scenario(tmp_path, rate_policy={
            "mode": "explicit", "rates_nats": [5.0, 5.0]})  # above capacity
        rc = main(["allocate", "--scenario", path])
        assert rc == 3
        err = capsys.readouterr().err
        assert "hop" in json.loads(err.splitlines()[-1])["error"] or \
            "hop" in json.loads(err.splitlines()[-1])


class TestLatencyCommand:
    def test_json_output(self, tmp_path):
        out = tmp_path / "latency.json"
        rc = main(["latency", "--scenario", write_scenario(tmp_path),
                   "--trials", "20000", "--seed", "11", "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["latency_upper"] >= doc["latency_lower"] >= 1000.0
        assert doc["mc"]["trials"] == 20000
        assert doc["mc"]["seed"] == 11
        assert abs(doc["mc"]["mean"] - doc["latency_upper"]) <= \
            4 * max(doc["mc"]["stderr"], 1e-9)

    def test_rate_at_capacity_exit_code(self, tmp_path):
        path = write_scenario(
            tmp_path, allocation_method="manual", manual_blocks=[500, 500],
            rate_policy={"mode": "explicit",
                         "rates_nats": [0.4, math.log(1 + 10 ** 0.6)]})
        rc = main(["latency", "--scenario", path, "--trials", "10"])
        assert rc == 3


class TestReproduceCommand:
    # SHA-256 of every file `reproduce` writes, from the streaming Monte Carlo
    # before the candidate-only tail; a speed-up must not move a byte
    PINNED = {
        "fig3": {
            "fig3_single_hop.csv":
                "aea902b85605df0e8a9d86a237c9444780843e6f8a78545766b1ad235d8ca732",
            "fig3_two_hop_relopt.csv":
                "001b3e01af89f93578bd0c524e40a71b0dfbaeb577a37c93a03106dcc68b81a0",
            "fig3_two_hop_infocont.csv":
                "c248d9c1f490775e49fffc3e3b047f192767f06c389c16af5dadc59c65462219",
            "fig3_meta.json":
                "d550095f1c2aeb6baee2852779cfc4e81d7eefdaf4d59c588f7acce233323030",
        },
        "fig4": {
            "fig4_single_hop.csv":
                "3a93f213d228200cc8f3cb6b1425082d276c226cadd916fb71fd3cd53b4ac558",
            "fig4_two_hop.csv":
                "438d486925ceaf0111c817e2e671f210a5ab9a1402b778e4904bc561406e76a1",
            "fig4_meta.json":
                "49b4053b8143f0b4c783be990adcd5088dc0cf04744ce146c6b8a82b9c5ae2e8",
        },
    }

    @pytest.mark.parametrize("figure", sorted(PINNED))
    def test_output_bytes_pinned(self, tmp_path, figure):
        assert main(["reproduce", "--figure", figure, "--out-dir", str(tmp_path)]) == 0
        written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                   for p in tmp_path.iterdir()}
        assert written == self.PINNED[figure]


    def test_runs_without_scipy(self, tmp_path):
        # a fresh interpreter in which any scipy import fails
        code = ("import sys\n"
                "sys.modules['scipy'] = None\n"
                "from hopbound.cli import main\n"
                "out, scenario = sys.argv[1:]\n"
                "print([main(['reproduce', '--figure', f, '--out-dir', out])\n"
                "       for f in ('fig3', 'fig4')]\n"
                "      + [main(['latency', '--scenario', scenario, '--trials', '1000'])])\n")
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", code, str(tmp_path / "out"),
                               write_scenario(tmp_path)],
                              env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "[0, 0, 0]"
        written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                   for p in (tmp_path / "out").iterdir()}
        assert written == {**self.PINNED["fig3"], **self.PINNED["fig4"]}


GOLDEN = 0.6180339887498949


def chain_doc(kinds, method="reliability_optimal_rc"):
    """A chain with one hop per entry of `kinds` ("awgn" or "dmc"), at SNRs in
    [0, 15) dB or BSC crossovers in [0.01, 0.11) from the golden-ratio
    sequence k * 0.618... mod 1, so it needs no random stream."""
    hops = []
    for k, kind in enumerate(kinds):
        frac = k * GOLDEN % 1.0
        if kind == "awgn":
            hops.append({"type": "awgn", "snr_db": 15.0 * frac})
        else:
            p = 0.01 + 0.1 * frac
            hops.append({"type": "dmc", "transition": [[1.0 - p, p], [p, 1.0 - p]]})
    return dict(BASE_DOC, total_q=1000 * len(kinds), hops=hops, allocation_method=method)


LONG_CHAINS = {"awgn300": ["awgn"] * 300,
               # 96 AWGN hops, at least ARRAY_MIN_HOPS, and a BSC every fifth hop
               "mixed120": ["dmc" if k % 5 == 4 else "awgn" for k in range(120)]}


class TestLongChainPins:
    # SHA-256 of what each command writes on chains whose AWGN hops take the
    # array solve, recorded when every hop took the per-hop solve; the
    # allocate and distributed files were re-pinned when the real shares
    # moved to the pivot frame (stationarity_residual, lambda_* and
    # q_reliability_* changed in their last digits), and the distributed files
    # again when ln M moved to the rates' frame (ln_m changed in its last digits)
    PINNED = {
        ("awgn300", "allocate_rc"):
            "a635158283b4047f7ddcfe0f4d7ab0c5ade86d2f2e4335b1ae1488ec9042c874",
        ("awgn300", "allocate_sp"):
            "8373c689c576cac3f8fa5b69d5c4ba4eaee6f0d230d0b2429de0df160aca3f95",
        ("awgn300", "distributed"):
            "c9866609e26eae1d24b2a44572cdcec2ff9a0ed378de46f7e99d313f90b75868",
        ("awgn300", "latency"):
            "dec8745770b5e4835dab11c1f986ee2efd2e907225b745a48947fd59aee6d9e6",
        ("mixed120", "allocate_rc"):
            "7d6c3a4a62de0b9a5776963fdd4bfa8285dcae6759a108ba9b27a170444d9ea8",
        ("mixed120", "allocate_sp"):
            "f68a7098670b605d41fe4bb623e5cd78cf58d2ee7434e6b313ad1e108ac7bc28",
        ("mixed120", "distributed"):
            "c2a0919970003263392f047d101a9301bcef84eda336ee0613220647b0d08dce",
        ("mixed120", "latency"):
            "5e69f86db1c95b34ec0dc83543a27eccdae65b5a85c203e0c3e9f1502c236b63",
    }

    @pytest.mark.parametrize("chain,command", sorted(PINNED))
    def test_output_bytes_pinned(self, tmp_path, chain, command):
        method = "reliability_optimal_sp" if command == "allocate_sp" else "reliability_optimal_rc"
        path = tmp_path / "chain.json"
        path.write_text(json.dumps(chain_doc(LONG_CHAINS[chain], method)))
        argv = {"allocate_rc": ["allocate"], "allocate_sp": ["allocate"],
                "distributed": ["distributed"],
                "latency": ["latency", "--trials", "10000"]}[command]
        out = tmp_path / "out.json"
        assert main(argv + ["--scenario", str(path), "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == self.PINNED[chain, command]

    # SHA-256 of json.dumps of each split, recorded with the Lagrange-frame
    # shares, apart from the digits of the other fields
    BLOCKLENGTHS = {
        ("awgn300", "rc"): "f6bcf82baf2cbdb3cd688f88d9354ee321e3233416327f719f6bedbd5a4e057c",
        ("awgn300", "sp"): "0db4b4dce78d5dea2a71821380b9762eac5f5c7e14a343bfada88a0e92c744c2",
        ("mixed120", "rc"): "f825f52fa2957bedd05ffc095d557221a6d0b9b9e990df28e486c9b47a520675",
        ("mixed120", "sp"): "c062e6c1eb2166725b86121b23c392b4efce89426d1be502fe6733ec40441dab",
    }

    @pytest.mark.parametrize("chain,family", sorted(BLOCKLENGTHS))
    def test_blocklengths_pinned(self, tmp_path, chain, family):
        path = tmp_path / "chain.json"
        path.write_text(json.dumps(chain_doc(LONG_CHAINS[chain], f"reliability_optimal_{family}")))
        out = tmp_path / "out.json"
        assert main(["allocate", "--scenario", str(path), "--out", str(out)]) == 0
        blocks = json.loads(out.read_text())["blocklengths"]
        assert hashlib.sha256(json.dumps(blocks).encode()).hexdigest() == \
            self.BLOCKLENGTHS[chain, family]


class TestEvaluationExponentPaths:
    """Evaluation.e_r / e_sp equal the per-hop solves on both sides of ARRAY_MIN_HOPS."""

    @staticmethod
    def evaluate(tmp_path, kinds, monkeypatch):
        path = tmp_path / "chain.json"
        path.write_text(json.dumps(chain_doc(kinds)))
        ev = Evaluation(load_scenario(str(path)))
        array_calls = []
        solve = exponents._array_exponents

        def counted(rates, caps, params, terms, rho_cap, capped_regime):
            kind = "awgn" if terms is exponents._awgn_terms else "dmc"
            array_calls.append((len(rates), {1.0: "r", RHO_MAX: "sp"}[rho_cap], kind))
            return solve(rates, caps, params, terms, rho_cap, capped_regime)
        monkeypatch.setattr(exponents, "_array_exponents", counted)
        return ev, array_calls

    @pytest.mark.parametrize("first", ["e_r", "e_sp"])
    @pytest.mark.parametrize("kinds,array_hops", [
        (["awgn"] * (ARRAY_MIN_HOPS - 1), None),
        (["awgn"] * ARRAY_MIN_HOPS, ARRAY_MIN_HOPS),
        (LONG_CHAINS["mixed120"], 96)])
    def test_equal_to_per_hop_solves(self, tmp_path, monkeypatch, kinds, array_hops, first):
        ev, array_calls = self.evaluate(tmp_path, kinds, monkeypatch)
        hops, rates = ev.scenario.hops, ev.rates
        getattr(ev, first)
        assert ev.e_r == [random_coding_exponent(r, ch).exponent for r, ch in zip(rates, hops)]
        assert ev.e_sp == [sphere_packing_exponent(r, ch).exponent
                           for r, ch in zip(rates, hops)]
        # solved after RC, SP takes RC's results above the critical rate, which
        # leaves fewer than ARRAY_MIN_HOPS AWGN hops to solve on these chains
        expected = ([] if array_hops is None else [(array_hops, "r")] if first == "e_r"
                    else [(array_hops, "sp"), (array_hops, "r")])
        assert [call[:2] for call in array_calls if call[2] == "awgn"] == expected
        # each DMC hop is its own channel object, so its own array call; SP after
        # RC solves only the hops RC left clamped at rho = 1
        dmc = [i for i, ch in enumerate(hops) if ch.kind == "dmc"]
        sp = [i for i in dmc if first == "e_sp" or ev.rc[2][i] == "rho_clamped_at_one"]
        assert collections.Counter(call[:2] for call in array_calls if call[2] == "dmc") == (
            collections.Counter({(1, "r"): len(dmc), (1, "sp"): len(sp)}))

    def test_invalid_rate_raises_the_first_hops_error(self, tmp_path, monkeypatch):
        # SP rejects the zero rate on the BSC at hop 4 first; RC accepts it and
        # rejects the negative rate on AWGN hop 50, which the array solve sees first
        ev, _ = self.evaluate(tmp_path, LONG_CHAINS["mixed120"], monkeypatch)
        ev.rates = list(ev.rates)
        ev.rates[4], ev.rates[50] = 0.0, -1.0
        with pytest.raises(ChannelError, match="got 0.0$"):
            ev.e_sp
        with pytest.raises(ChannelError, match="got -1.0$"):
            ev.e_r


class TestDistributedCommand:
    def test_matches_centralized(self, tmp_path):
        out = tmp_path / "dist.json"
        trace = tmp_path / "trace.jsonl"
        rc = main(["distributed", "--scenario", write_scenario(tmp_path),
                   "--trace", str(trace), "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["matches_centralized"] is True
        assert len(doc["per_node_blocks"]) == 2
        assert trace.exists()


def near_capacity_scenario(tmp_path):
    """AWGN hops at 9 and 6 dB, hop 2 at (1 - 1e-9) C: E = [0.508, 8.06e-19]."""
    caps = [capacity(HopChannel.awgn(10.0 ** (db / 10.0))) for db in (9.0, 6.0)]
    return write_scenario(tmp_path, rate_policy={
        "mode": "explicit", "rates_nats": [0.5 * caps[0], (1.0 - 1e-9) * caps[1]]})


class TestSharesNextToATinyExponent:
    """ln E_n - lambda cancelled here: the shares were [80.68, 0.0]."""

    def test_allocate_residual_comes_from_shares_summing_to_q(self, tmp_path):
        path = near_capacity_scenario(tmp_path)
        out = tmp_path / "alloc.json"
        assert main(["allocate", "--scenario", path, "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        ev = Evaluation(load_scenario(path))
        assert abs(math.fsum(ev.shares_r) - 1000) <= 1e-9 * 1000
        assert ev.shares_r[1] == pytest.approx(919.37, abs=0.01)
        assert doc["stationarity_residual"] == ev.stationarity_residual
        assert doc["stationarity_residual"] <= 1e-12
        assert sum(doc["blocklengths"]) == 1000

    def test_distributed_shares_sum_to_q(self, tmp_path):
        out = tmp_path / "dist.json"
        assert main(["distributed", "--scenario", near_capacity_scenario(tmp_path),
                     "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["matches_centralized"] is True
        nodes = doc["per_node_blocks"]
        for key in ("q_reliability_rc", "q_reliability_sp"):
            assert abs(math.fsum(node[key] for node in nodes) - 1000) <= 1e-9 * 1000
        assert nodes[1]["q_reliability_rc"] == pytest.approx(919.37, abs=0.01)


def subnormal_rate_scenario(tmp_path):
    """Three AWGN hops at rate 1e-310, where 1/R_n overflows a double; Q = 3000."""
    return write_scenario(tmp_path, allocation_method="info_continuous", total_q=3000,
                          hops=[{"type": "awgn", "snr_db": db} for db in (9.0, 6.0, 3.0)],
                          rate_policy={"mode": "explicit", "rates_nats": [1e-310] * 3})


class TestInfoContinuousAtSubnormalRates:
    """ln M = Q / sum(1/R_n) was 0 here: allocate exited 3, and distributed
    reported ln_m 0 and 0 blocks on every node as matching the central result."""

    def test_allocate_splits_evenly(self, tmp_path):
        out = tmp_path / "alloc.json"
        assert main(["allocate", "--scenario", subnormal_rate_scenario(tmp_path),
                     "--out", str(out)]) == 0
        assert json.loads(out.read_text())["blocklengths"] == [1000, 1000, 1000]

    def test_distributed_gives_each_node_its_share(self, tmp_path):
        out = tmp_path / "dist.json"
        assert main(["distributed", "--scenario", subnormal_rate_scenario(tmp_path),
                     "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["ln_m"] > 0
        assert [node["q_info_continuous"] for node in doc["per_node_blocks"]] == [1000] * 3
        assert doc["matches_centralized"] is True


class TestVerifyCommand:
    def test_alloc_suite_passes(self, capsys):
        rc = main(["verify", "--suite", "alloc", "--seed", "1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "PASS" in out
        assert "FAIL" not in out


@pytest.fixture
def solves(monkeypatch):
    """Exponent solves counted by (family, hop channel, rate), wherever they are
    called; in an array solve the hop is known by its capacity."""
    counts = collections.Counter()
    for family, solver in (("rc", random_coding_exponent), ("sp", sphere_packing_exponent)):
        def counted(rate, ch, family=family, solver=solver):
            counts[family, id(ch), rate] += 1
            return solver(rate, ch)
        for name, mod in list(sys.modules.items()):
            if name.startswith("hopbound"):
                for attr, value in list(vars(mod).items()):
                    if value is solver:
                        monkeypatch.setattr(mod, attr, counted)
    array_solve = exponents._array_exponents

    def counted_array(rates, caps, *args):
        family = {1.0: "rc", RHO_MAX: "sp"}[args[-2]]
        counts.update((family, cap, rate) for rate, cap in zip(rates, caps))
        return array_solve(rates, caps, *args)
    monkeypatch.setattr(exponents, "_array_exponents", counted_array)
    return counts


def family_totals(counts):
    return tuple(sum(n for (family, _, _), n in counts.items() if family == f)
                 for f in ("rc", "sp"))


MIXED_HOPS = [{"type": "awgn", "snr_db": 9.0},
              {"type": "dmc", "transition": [[0.9, 0.1], [0.1, 0.9]]},
              {"type": "awgn", "snr_db": 3.0}]


class TestSolveCounts:
    def test_reproduce_fig3_solves_each_hop_and_rate_once(self, tmp_path, solves):
        assert main(["reproduce", "--figure", "fig3", "--out-dir", str(tmp_path)]) == 0
        # the relopt and info-continuous sweeps share each target's two-hop
        # solves; SP takes the RC result above the critical rate
        assert family_totals(solves) == (240, 109)
        assert set(solves.values()) == {1}

    def test_reproduce_fig4_solves_each_hop_and_rate_once(self, tmp_path, solves):
        assert main(["reproduce", "--figure", "fig4", "--out-dir", str(tmp_path)]) == 0
        # 80 swept targets on one single-hop and two two-hop channels
        assert family_totals(solves) == (240, 109)
        assert set(solves.values()) == {1}

    @pytest.mark.parametrize("method,expected", [
        ("reliability_optimal_rc", (3, 0)), ("reliability_optimal_sp", (0, 3)),
        ("info_continuous", (0, 0))])
    def test_allocate_solves_only_the_balanced_family(self, tmp_path, solves, method,
                                                      expected):
        path = write_scenario(tmp_path, hops=MIXED_HOPS, allocation_method=method)
        assert main(["allocate", "--scenario", path]) == 0
        assert family_totals(solves) == expected

    def test_latency_solves_each_hop_once_per_family(self, tmp_path, solves):
        path = write_scenario(tmp_path, hops=MIXED_HOPS)
        assert main(["latency", "--scenario", path, "--trials", "100"]) == 0
        # only the 9 dB hop's rate lies below its critical rate
        assert family_totals(solves) == (3, 1)
        assert set(solves.values()) == {1}

    def test_distributed_solves_each_hop_once_per_family(self, tmp_path, solves):
        # the nodes take their exponents from the evaluation the comparison uses
        path = write_scenario(tmp_path, hops=MIXED_HOPS)
        out = tmp_path / "dist.json"
        assert main(["distributed", "--scenario", path, "--out", str(out)]) == 0
        assert json.loads(out.read_text())["matches_centralized"] is True
        assert family_totals(solves) == (3, 1)
        assert set(solves.values()) == {1}


class TestInterleavedMain:
    """main() keeps no state between calls that changes what a call writes."""

    @staticmethod
    def argvs(tmp_path, out):
        rc = write_scenario(tmp_path, "rc.json", hops=MIXED_HOPS)
        sp = write_scenario(tmp_path, "sp.json", allocation_method="reliability_optimal_sp")
        info = write_scenario(tmp_path, "info.json", allocation_method="info_continuous")
        sweep = ["--rate-min", "0.01", "--rate-max", "0.6", "--rate-steps", "30"]
        return [
            ["exponent", "--snr-db", "3", *sweep, "--out", f"{out}/awgn.csv"],
            ["allocate", "--scenario", rc, "--out", f"{out}/rc.json"],
            ["latency", "--scenario", rc, "--trials", "3000", "--out", f"{out}/lat.json"],
            ["exponent", "--snr-db", "3", "--rate-steps", "2"],  # usage error: exit 2
            ["distributed", "--scenario", rc, "--out", f"{out}/dist.json"],
            ["reproduce", "--figure", "fig3", "--out-dir", f"{out}/fig3"],
            ["allocate", "--scenario", sp, "--out", f"{out}/sp.json"],
            ["exponent", "--scenario", rc, "--hop", "1", *sweep, "--out", f"{out}/dmc.csv"],
            ["allocate", "--scenario", info, "--out", f"{out}/info.json"],
        ]

    @staticmethod
    def written(out):
        return {str(p.relative_to(out)): p.read_bytes() for p in out.rglob("*") if p.is_file()}

    def test_one_process_matches_separate_runs(self, tmp_path, capsys):
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
        separate = tmp_path / "separate"
        separate.mkdir()
        codes = []
        for argv in self.argvs(tmp_path, separate):
            proc = subprocess.run([sys.executable, "-c",
                                   "import sys\nfrom hopbound.cli import main\n"
                                   "sys.exit(main(sys.argv[1:]))\n", *argv],
                                  env=env, capture_output=True, timeout=120)
            codes.append(proc.returncode)
        assert codes == [0, 0, 0, 2, 0, 0, 0, 0, 0]
        expected = self.written(separate)
        for run in ("first", "second"):  # twice, so every call follows every other
            out = tmp_path / run
            out.mkdir()
            got = []
            for argv in self.argvs(tmp_path, out):
                try:
                    got.append(main(argv))
                except SystemExit as exc:
                    got.append(exc.code)
            assert got == codes
            assert self.written(out) == expected


class TestEvaluationShares:
    """The real optima the CLI reports, as cached Evaluation properties."""

    def test_properties_equal_the_allocation_formulas(self, tmp_path):
        ev = Evaluation(load_scenario(write_scenario(tmp_path, hops=MIXED_HOPS)))
        q = ev.scenario.total_q
        assert ev.ln_m == info_continuous_log_m(ev.rates, q)
        assert ev.shares_r == reliability_real_blocks(ev.e_r, q)
        assert ev.shares_sp == reliability_real_blocks(ev.e_sp, q)
        assert ev.balanced_shares is ev.shares_r
        balance = [b * e - math.log(e) for b, e in zip(ev.shares_r, ev.e_r)]
        assert ev.stationarity_residual == max(balance) - min(balance)

    @pytest.mark.parametrize("method,family", [("reliability_optimal_sp", "sp"),
                                               ("info_continuous", None),
                                               ("manual", None)])
    def test_balanced_family_follows_the_method(self, tmp_path, method, family):
        manual = {"manual_blocks": [400, 600]} if method == "manual" else {}
        ev = Evaluation(load_scenario(write_scenario(tmp_path, allocation_method=method,
                                                     **manual)))
        if family is None:
            assert ev.balanced_shares is None and ev.stationarity_residual is None
        else:
            assert ev.balanced_shares is ev.shares_sp
            assert "e_r" not in vars(ev)  # the other family is never solved


class TestSharesComputedOnce:
    """`allocate` computes the balanced family's real shares once: the
    evaluation's shares seed the greedy and give the stationarity residual."""

    @pytest.mark.parametrize("family", ["rc", "sp"])
    def test_allocate_makes_one_share_pass(self, tmp_path, monkeypatch, family):
        calls = []

        def counted(exponents, q_total):
            calls.append(len(exponents))
            return reliability_real_blocks(exponents, q_total)

        monkeypatch.setattr(allocation, "reliability_real_blocks", counted)
        monkeypatch.setattr(scenario, "reliability_real_blocks", counted)
        path = tmp_path / "chain.json"
        path.write_text(json.dumps(chain_doc(LONG_CHAINS["awgn300"],
                                             f"reliability_optimal_{family}")))
        assert main(["allocate", "--scenario", str(path)]) == 0
        assert calls == [300]


def test_info_continuous_allocate_folds_its_rates_once(tmp_path, monkeypatch):
    # the split takes the evaluation's ln M, which the output reports
    folds = []
    balance_frame = allocation._balance_frame

    def counted(values, what):
        folds.append((len(values), what))
        return balance_frame(values, what)

    monkeypatch.setattr(allocation, "_balance_frame", counted)
    path = write_scenario(tmp_path, allocation_method="info_continuous")
    assert main(["allocate", "--scenario", path]) == 0
    assert folds == [(2, "rates")]


class TestVerifyGrid:
    PASS_LINE = "PASS [grid] parametric exponents match dense-grid maximization (50 instances)\n"

    @pytest.mark.parametrize("seed", [1, 2, 10 ** 30])
    def test_grid_suite_passes(self, capsys, seed):
        # seed 10**30 draws an instance whose sphere-packing rho* (26.58) lies
        # past 2 + 2 sqrt(snr / rate) (24.26), where the grid now starts
        assert main(["verify", "--suite", "grid", "--seed", str(seed)]) == 0
        assert capsys.readouterr().out == self.PASS_LINE
