import collections
import contextlib
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hopbound.allocation import (info_continuous_log_m, reliability_optimal_blocks,
                                 reliability_real_blocks)
from hopbound import allocation, arq, cli, exponents, scenario
from hopbound.channel import ChannelError, HopChannel, capacity, snr_db_to_linear
from hopbound.arq import simulate_latency
from hopbound.cli import main
from hopbound.exponents import (ARRAY_MIN_HOPS, Regime, random_coding_exponent,
                                sphere_packing_exponent)
from hopbound.scenario import Evaluation, Scenario, ScenarioError, load_scenario


BASE_DOC = {
    "schema_version": 1,
    "total_q": 1000,
    "hops": [{"type": "awgn", "snr_db": 9.0}, {"type": "awgn", "snr_db": 6.0}],
    "rate_policy": {"mode": "capacity_fraction", "beta": 0.5},
    "allocation_method": "reliability_optimal_rc",
}


def per_cell(x) -> str:
    """A CSV cell in the per-cell form: a float as {:.12g}, anything else as str."""
    return f"{x:.12g}" if isinstance(x, float) else str(x)


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
        assert Evaluation([load_scenario(path)])[0].blocks == [400, 600]

    def test_manual_single_hop_passthrough(self, tmp_path):
        path = write_scenario(
            tmp_path, hops=[{"type": "awgn", "snr_db": 0.0}],
            allocation_method="manual", manual_blocks=[1000],
            rate_policy={"mode": "explicit", "rates_nats": [0.5]})
        ev = Evaluation([load_scenario(path)])[0]
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

    @pytest.mark.parametrize("version", [2, True, 1.0, "1", None])
    def test_rejects_bad_schema_version(self, tmp_path, capsys, version):
        # only the JSON integer 1: true and 1.0 compare equal to it in Python
        path = write_scenario(tmp_path, schema_version=version)
        with pytest.raises(ScenarioError):
            load_scenario(path)
        assert main(["allocate", "--scenario", path]) == 3
        assert json.loads(capsys.readouterr().err.splitlines()[-1])["error"] == (
            f"unsupported schema_version {version!r}")

    @pytest.mark.parametrize("field, transition, input_dist, got", [
        # numpy reads these as the identity channel and a BSC
        ("transition", [[True, False], [False, True]], None, "True"),
        ("transition", [["0.9", "0.1"], ["0.1", "0.9"]], None, "'0.9'"),
        ("transition", [[0.9, 0.1], [0.1, {"p": 0.9}]], None, "{'p': 0.9}"),
        ("input_dist", [[0.9, 0.1], [0.1, 0.9]], [True, False], "True"),
        ("input_dist", [[0.9, 0.1], [0.1, 0.9]], ["0.5", 0.5], "'0.5'")])
    def test_dmc_fields_take_json_numbers_only(self, tmp_path, capsys, field, transition,
                                               input_dist, got):
        dmc = {"type": "dmc", "transition": transition}
        if input_dist is not None:
            dmc["input_dist"] = input_dist
        path = write_scenario(tmp_path, hops=[BASE_DOC["hops"][0], dmc])
        assert main(["allocate", "--scenario", path]) == 3
        assert json.loads(capsys.readouterr().err.splitlines()[-1])["error"] == (
            f"hop 1: {field} must hold JSON numbers only, got {got}")

    def test_dmc_fields_take_json_integers(self, tmp_path):
        path = write_scenario(tmp_path, hops=[{"type": "dmc", "transition": [[1, 0], [0, 1]],
                                               "input_dist": [0.5, 0.5]}])
        assert load_scenario(path).hops[0] == HopChannel.dmc([[1.0, 0.0], [0.0, 1.0]])

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

    @pytest.mark.parametrize("fields, message", [
        ({"rate_policy": {"mode": "halves"}}, "unknown rate policy mode 'halves'"),
        ({"rate_policy": {"beta": 0.5}}, "rate_policy with a mode is required"),
        ({"hops": [{"type": "dmc", "transition": [[0.9, 0.1], [0.2, 0.8]], "input_dist": [1.0]}]},
         "input_dist length must match the number of inputs")],
        ids=["unknown_mode", "no_mode", "input_dist_length"])
    def test_error_names_its_check(self, tmp_path, capsys, fields, message):
        assert main(["allocate", "--scenario", write_scenario(tmp_path, **fields)]) == 3
        assert message in json.loads(capsys.readouterr().err.splitlines()[-1])["error"]

    def test_rejects_boolean_total_q(self, tmp_path, capsys):
        path = write_scenario(tmp_path, total_q=True)
        with pytest.raises(ScenarioError):
            load_scenario(path)
        assert main(["allocate", "--scenario", path]) == 3
        assert "total_q" in json.loads(capsys.readouterr().err.splitlines()[-1])["error"]

    @pytest.mark.parametrize("field, fields", [
        ("rates_nats", {"rate_policy": {"mode": "explicit", "rates_nats": [True, 0.5]}}),
        ("beta", {"rate_policy": {"mode": "capacity_fraction", "beta": True}}),
        ("rate_nats", {"rate_policy": {"mode": "target_rate", "rate_nats": True}}),
        ("snr_db", {"hops": [{"type": "awgn", "snr_db": True}]})])
    def test_rejects_boolean_numbers(self, tmp_path, capsys, field, fields):
        # float(true) is 1.0: a rate of 1 nat or a 1 dB hop, where the document means no number
        assert main(["allocate", "--scenario", write_scenario(tmp_path, **fields)]) == 3
        error = json.loads(capsys.readouterr().err.splitlines()[-1])["error"]
        assert f"{field} must be a finite number, got True" in error

    @pytest.mark.parametrize("snr_db, end", [(4000.0, "overflows a double"),
                                             (-4000.0, "underflows to 0")])
    def test_snr_db_beyond_doubles_names_its_end(self, tmp_path, capsys, snr_db, end):
        path = write_scenario(tmp_path, hops=[{"type": "awgn", "snr_db": snr_db}])
        assert main(["allocate", "--scenario", path]) == 3
        error = json.loads(capsys.readouterr().err.splitlines()[-1])["error"]
        assert error == f"hop 0: SNR of {snr_db} dB {end}"

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
                                        "manual_blocks": [100.7]}),
            ("manual_blocks_length", {"allocation_method": "manual", "manual_blocks": [1000]}),
            ("manual_blocks_other_method", {"manual_blocks": [500, 500]}))
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


# rate policies that give hop 0 a zero rate: explicitly; beta = 5e-324 on a
# -3 dB hop (rates [0.0, 1e-323]); a 5e-324 target on two 20 dB hops ([0.0, 0.0])
ZERO_RATE_POLICIES = {
    "explicit": ({"mode": "explicit", "rates_nats": [0.0, 1.0]}, (-3.0, 9.0), "rates_nats"),
    "capacity_fraction": ({"mode": "capacity_fraction", "beta": 5e-324}, (-3.0, 9.0), "beta"),
    "target_rate": ({"mode": "target_rate", "rate_nats": 5e-324}, (20.0, 20.0), "rate_nats"),
}


def zero_rate_scenario(tmp_path, policy, method="reliability_optimal_rc"):
    rate_policy, snrs_db, _ = ZERO_RATE_POLICIES[policy]
    manual = {"manual_blocks": [500, 500]} if method == "manual" else {}
    return write_scenario(tmp_path, hops=[{"type": "awgn", "snr_db": db} for db in snrs_db],
                          rate_policy=rate_policy, allocation_method=method, **manual)


class TestRatesMustBePositive:
    """Every rate policy gives positive rates or a ScenarioError naming its field,
    which every command reports before it solves anything."""

    @pytest.mark.parametrize("policy", sorted(ZERO_RATE_POLICIES))
    @pytest.mark.parametrize("argv,method", [
        *((["allocate"], method) for method in scenario._METHODS),
        (["latency", "--trials", "10"], "reliability_optimal_rc"),
        (["distributed"], "reliability_optimal_rc")],
        ids=[*scenario._METHODS, "latency", "distributed"])
    def test_every_command_exits_3(self, tmp_path, capsys, solves, policy, argv, method):
        path = zero_rate_scenario(tmp_path, policy, method)
        message = f"{ZERO_RATE_POLICIES[policy][2]} gives hop 0 rate 0.0, not > 0"
        with pytest.raises(ScenarioError, match=f"^{message}$"):
            load_scenario(path).resolve_rates()
        assert main([*argv, "--scenario", path]) == 3
        assert json.loads(capsys.readouterr().err.splitlines()[-1]) == {"error": message}
        assert family_totals(solves) == (0, 0)

    def test_a_zero_rate_row_fails_at_rates_and_both_families_are_one_call(self, tmp_path,
                                                                           monkeypatch):
        calls = []

        def counted(rates, hops):
            calls.append(len(rates))
            return exponents.hop_exponents(rates, hops)

        monkeypatch.setattr(scenario, "hop_exponents", counted)
        scenarios = [load_scenario(write_scenario(tmp_path)),
                     load_scenario(zero_rate_scenario(tmp_path, "capacity_fraction")),
                     load_scenario(write_scenario(tmp_path, hops=MIXED_HOPS))]
        table = Evaluation(scenarios)
        got = [{name: outcome(row, name) for name in ("exponents_sp", "exponents_r", "rates")}
               for row in table]
        assert calls == [5]
        error = (ScenarioError, "beta gives hop 0 rate 0.0, not > 0")
        assert got[1] == dict.fromkeys(got[1], error)
        monkeypatch.undo()
        assert got == [{name: outcome(Evaluation([sc])[0], name) for name in got[0]}
                       for sc in scenarios]


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

    def test_bits_line(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        assert main(["exponent", "--snr-db", "0", "--rate-min", "0.1", "--rate-max", "0.5",
                     "--rate-steps", "3", "--out", str(out), "--bits"]) == 0
        assert capsys.readouterr().out == (f"swept rates {0.1 / math.log(2):.12g} to "
                                           f"{0.5 / math.log(2):.12g} bits/use (3 points) "
                                           f"-> {out}\n")

    def test_hop_out_of_range_exits_3(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        assert main(["exponent", "--scenario", write_scenario(tmp_path), "--hop", "5",
                     "--rate-min", "0.1", "--rate-max", "0.5", "--rate-steps", "3",
                     "--out", str(out)]) == 3
        assert json.loads(capsys.readouterr().err.splitlines()[-1]) == {
            "error": "hop index 5 out of range"}
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        pytest.param(["exponent", "--rate-min", "0.1"], id="missing_arguments"),
        pytest.param(["exponent", "--snr-db", "0", "--rate-min", "0.1", "--rate-max", "0.5",
                      "--rate-steps", "-1", "--out", "never.csv"], id="negative_rate_steps"),
        pytest.param(["latency", "--scenario", "never.json", "--trials", "0"],
                     id="zero_trials"),
        pytest.param(["latency", "--scenario", "never.json", "--trials", str(10 ** 9 + 1)],
                     id="too_many_trials"),
        pytest.param(["exponent", "--snr-db", "0", "--rate-min", "nan", "--rate-max", "0.5",
                      "--rate-steps", "3", "--out", "never.csv"], id="nan_rate_min"),
        pytest.param(["exponent", "--snr-db", "0", "--rate-min", "0.1", "--rate-max", "inf",
                      "--rate-steps", "3", "--out", "never.csv"], id="inf_rate_max"),
        # a rate past the doubles' range parses as inf, so it never reaches the solver
        pytest.param(["exponent", "--snr-db", "0", "--rate-min", str(10 ** 400), "--rate-max",
                      "0.5", "--rate-steps", "3", "--out", "never.csv"],
                     id="rate_min_past_the_doubles"),
        pytest.param(["verify", "--suite", "grid", "--seed", "-1"], id="negative_verify_seed")])
    def test_usage_error_exit_code(self, capsys, argv):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2

    @pytest.mark.parametrize("argv,message", [
        (["latency", "--scenario", "never.json", "--trials", "0"],
         "--trials: must be an integer from 1 to 1000000000, got 0"),
        (["latency", "--scenario", "never.json", "--trials", "1000000001"],
         "--trials: must be an integer from 1 to 1000000000, got 1000000001"),
        (["verify", "--suite", "grid", "--seed", "-1"],
         "--seed: must be an integer >= 0, got -1")],
        ids=["zero_trials", "too_many_trials", "negative_seed"])
    def test_integer_bound_messages(self, capsys, argv, message):
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
    """Every command that writes files opens its outputs before it solves or
    simulates: one that cannot be written exits 3 with the JSON error and
    changes no file."""

    @pytest.fixture(autouse=True)
    def no_solves(self, monkeypatch):
        def solve(*args, **kwargs):
            raise AssertionError("solved before the output was checked")
        for module, name in ((cli, "hop_exponents"), (cli, "_sweep_rows"),
                             (cli, "simulate_latency"), (cli, "run_distributed_allocation"),
                             (scenario, "hop_exponents")):
            monkeypatch.setattr(module, name, solve)

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

    @pytest.mark.parametrize("out", ["missing_dir/x.json", "a_dir", "a_file/x.json"])
    @pytest.mark.parametrize("argv", [["allocate"], ["latency", "--trials", "100000000"],
                                      ["distributed"]], ids=["allocate", "latency", "distributed"])
    def test_scenario_commands(self, tmp_path, capsys, argv, out):
        (tmp_path / "a_dir").mkdir()
        (tmp_path / "a_file").write_text("kept\n")
        self.assert_fails_unchanged(tmp_path, capsys, [
            *argv, "--scenario", write_scenario(tmp_path), "--out", str(tmp_path / out)])

    @pytest.mark.parametrize("out", [None, "dist.json"])
    def test_distributed_trace(self, tmp_path, capsys, out):
        (tmp_path / "a_file").write_text("kept\n")
        self.assert_fails_unchanged(tmp_path, capsys, [
            "distributed", "--scenario", write_scenario(tmp_path),
            "--trace", str(tmp_path / "a_file" / "trace.jsonl"),
            *(["--out", str(tmp_path / out)] if out else [])])


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
        (0.01, 1.0, CHUNK + 1), (0.01, 1.0, 2 * CHUNK + 3), (1.0, 0.01, CHUNK + 1),
        # one row is --rate-min alone, whatever --rate-max is
        (0.5, 0.0, 1), (0.5, -0.5, 1)])
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

    @pytest.mark.parametrize("lo,hi,steps,error", [
        (-0.5, 0.5, 2 * CHUNK + 1, "rate must be nonnegative, got -0.5"),
        (0.0, 0.5, 2 * CHUNK + 1, "rate must be positive for sphere packing, got 0.0"),
        (0.5, -0.5, 3, "rate must be positive for sphere packing, got 0.0")])
    def test_invalid_grid_leaves_out_untouched(self, tmp_path, capsys, lo, hi, steps, error):
        # the first row not > 0 gives its solver's error before --out is opened:
        # RC's below 0, else SP's
        out = tmp_path / "sweep.csv"
        out.write_text("kept\n")
        assert main(["exponent", "--snr-db", "0", f"--rate-min={lo}", f"--rate-max={hi}",
                     "--rate-steps", str(steps), "--out", str(out)]) == 3
        assert json.loads(capsys.readouterr().err.splitlines()[-1])["error"] == error
        assert out.read_text() == "kept\n"
        assert os.listdir(tmp_path) == ["sweep.csv"]

    def test_outputs_need_no_temporary_file(self, tmp_path, monkeypatch):
        # every row goes straight to its output file
        def refuse(*args, **kwargs):
            raise OSError("no temporary file")
        for name in ("TemporaryFile", "NamedTemporaryFile", "mkstemp"):
            monkeypatch.setattr(tempfile, name, refuse)
        out = tmp_path / "sweep.csv"
        assert main(["exponent", "--snr-db", "0", "--rate-min", "0.01", "--rate-max", "1",
                     "--rate-steps", str(self.CHUNK + 1), "--out", str(out)]) == 0
        assert out.read_text() == linspace_csv(HopChannel.awgn(1.0), 0.01, 1.0, self.CHUNK + 1)
        out.unlink()
        assert main(["reproduce", "--figure", "fig3", "--out-dir", str(tmp_path)]) == 0
        assert {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()
                } == TestReproduceCommand.PINNED["fig3"]

    @pytest.mark.parametrize("steps", [1, 2, CHUNK + 1])
    def test_dmc_scenario_csv_equals_the_linspace_csv(self, tmp_path, monkeypatch, steps):
        # one channel object on every row: each chunk takes one array call
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
        assert calls == [min(steps, self.CHUNK)] + [steps - self.CHUNK] * (steps > self.CHUNK)

    def test_dmc_sweep_across_r_inf_writes_infinite_cells(self, tmp_path):
        # R_inf = ln 1.5 under the uniform input: below it E_sp is +inf at rho +inf
        transition = [[0.8, 0.2, 0.0], [0.0, 0.8, 0.2], [0.2, 0.0, 0.8]]
        ch = HopChannel.dmc(transition)
        path = write_scenario(tmp_path, hops=[{"type": "dmc", "transition": transition}])
        lo, hi, steps = 0.05, 0.55, 26
        assert lo < math.log(1.5) < hi < capacity(ch)
        out = tmp_path / "sweep.csv"
        assert main(["exponent", "--scenario", path, f"--rate-min={lo}", f"--rate-max={hi}",
                     "--rate-steps", str(steps), "--out", str(out)]) == 0
        text = out.read_text()
        assert text == linspace_csv(ch, lo, hi, steps)
        sp = {tuple(line.split(",")[4:]) for line in text.splitlines()[1:]}
        assert ("inf", "inf", Regime.INFINITE_BELOW_R_INF) in sp
        assert {regime for *_, regime in sp} == {Regime.INFINITE_BELOW_R_INF,
                                                 Regime.PARAMETRIC_INTERIOR}

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

    def test_bits_line(self, tmp_path, capsys):
        path = write_scenario(tmp_path, rate_policy={
            "mode": "explicit", "rates_nats": [0.9, 0.7]})
        assert main(["allocate", "--scenario", path, "--bits"]) == 0
        *payload, bits = capsys.readouterr().out.splitlines()
        assert json.loads("\n".join(payload))["rates_nats"] == [0.9, 0.7]
        assert bits == (f"rates in bits/use: {0.9 / math.log(2):.12g}, "
                        f"{0.7 / math.log(2):.12g}")

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


class TestSweepSkippedRows:
    """A swept target with a domain error prints its `skipping rate` line in
    target, then method order, as evaluating each target and method alone
    does, and every other row is that evaluation's row."""

    # the lines as per-row evaluation printed them before tables existed
    LINES = {
        "fig3": ["skipping rate 1.03972077084: target rate 1.0397207708399179 exceeds "
                 "network capacity 0.6931471805599453",
                 "skipping rate 0.926581809267: hop 0: rate at/above capacity, zero exponent",
                 *["skipping rate 1.3898727139: target rate 1.3898727139003013 exceeds "
                   "network capacity 0.9265818092668675"] * 2],
        "fig4": ["skipping rate 0.69314718056: hop 0 has zero exponent (rate at/above "
                 "capacity); expected latency is unbounded",
                 "skipping rate 1.03972077084: target rate 1.0397207708399179 exceeds "
                 "network capacity 0.6931471805599453",
                 "skipping rate 0.926581809267: hop 0: rate at/above capacity, zero exponent",
                 "skipping rate 1.3898727139: target rate 1.3898727139003013 exceeds "
                 "network capacity 0.9265818092668675"],
    }

    @staticmethod
    def per_row(hops, methods, row):
        """The tables and stderr lines of a one-row table per target and method."""
        tables, lines = [[] for _ in methods], []
        cap = allocation.network_capacity([capacity(ch) for ch in hops])
        for target in cli._sweep_targets(cap).tolist():
            for method, rows in zip(methods, tables):
                manual = [cli.REPRODUCE_Q] if method == cli.Method.MANUAL else None
                sc = Scenario(cli.REPRODUCE_Q, hops, {"mode": "target_rate", "rate_nats": target},
                              method, manual)
                try:
                    rows.append(row(Evaluation([sc])[0]))
                except cli._DOMAIN_ERRORS as exc:
                    lines.append(f"skipping rate {per_cell(target)}: {exc}")
        return tables, lines

    @staticmethod
    def fig3_row(row):
        return [row.end_to_end_rate, row.bounds.esys_lower, row.bounds.esys_upper]

    @staticmethod
    def fig4_row(row):
        upper, lower = row.latency
        est = simulate_latency(row.chains[0], cli.REPRODUCE_MC_TRIALS, cli.REPRODUCE_MC_SEED)
        return [row.end_to_end_rate, upper, lower, est.mc_mean, est.mc_stderr]

    @pytest.mark.parametrize("figure", ["fig3", "fig4"])
    def test_lines_and_rows_equal_per_row_evaluation(self, tmp_path, capsys, monkeypatch,
                                                     figure):
        # at the network capacity every hop's exponent is zero, which the
        # two-hop split and the single-hop latency reject; above it no rates exist
        targets = cli._sweep_targets
        monkeypatch.setattr(cli, "_sweep_targets",
                            lambda cap: np.insert(targets(cap), [5, 40], [cap, 1.5 * cap]))
        assert main(["reproduce", "--figure", figure, "--out-dir", str(tmp_path)]) == 0
        single = [HopChannel.awgn(snr_db_to_linear(db))
                  for db in cli.REPRODUCE_SINGLE_SNR_DB]
        two = [HopChannel.awgn(snr_db_to_linear(db)) for db in cli.REPRODUCE_TWO_SNR_DB]
        m = cli.Method
        sweeps = {"fig3": [(single, [m.MANUAL], ["single_hop"]),
                           (two, [m.RELIABILITY_OPTIMAL_RC, m.INFO_CONTINUOUS],
                            ["two_hop_relopt", "two_hop_infocont"])],
                  "fig4": [(single, [m.MANUAL], ["single_hop"]),
                           (two, [m.RELIABILITY_OPTIMAL_RC], ["two_hop"])]}[figure]
        row = self.fig3_row if figure == "fig3" else self.fig4_row
        expected = []
        for hops, methods, names in sweeps:
            tables, lines = self.per_row(hops, methods, row)
            expected += lines
            for name, rows in zip(names, tables):
                written = (tmp_path / f"{figure}_{name}.csv").read_text().splitlines()[1:]
                assert written == [",".join(map(per_cell, r)) for r in rows]
        assert expected == self.LINES[figure]
        assert capsys.readouterr().err.splitlines() == expected


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

    # SHA-256 of the JSONL distributed --trace writes on mixed120, recorded when
    # each node could still solve its own exponents
    TRACE_PINNED = "73261b0230ca08adf44d9182a907b4a3e9ff58c802a601f9b3284c3859abee47"

    def test_trace_bytes_pinned(self, tmp_path):
        path = tmp_path / "chain.json"
        path.write_text(json.dumps(chain_doc(LONG_CHAINS["mixed120"])))
        trace = tmp_path / "trace.jsonl"
        assert main(["distributed", "--scenario", str(path), "--out", str(tmp_path / "out.json"),
                     "--trace", str(trace)]) == 0
        assert hashlib.sha256(trace.read_bytes()).hexdigest() == self.TRACE_PINNED

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


def test_trace_file_is_jsonl(tmp_path):
    # distributed --trace writes one JSON line per protocol message
    path = write_scenario(tmp_path)
    out, trace = tmp_path / "out.json", tmp_path / "trace.jsonl"
    assert main(["distributed", "--scenario", path, "--out", str(out),
                 "--trace", str(trace)]) == 0
    lines = trace.read_text().splitlines()
    assert len(lines) == 3  # 1 forward pass + 2 broadcast deliveries
    first = json.loads(lines[0])
    assert first["from"] == 1 and first["to"] == 2
    assert set(first["message"]) == {"frame_rate", "frame_rc", "frame_sp"}
    broadcast = json.loads(lines[-1])["broadcast"]
    assert set(broadcast) == {"ln_m", "lambda_r", "lambda_sp", "q_total", "frame_rc", "frame_sp"}
    # the traced frames hold every float exactly: they give each node's share again
    sc = load_scenario(path)
    e_r = exponents.hop_exponents(sc.resolve_rates(), sc.hops)[0][0][1]
    per_node = json.loads(out.read_text())["per_node_blocks"]
    assert allocation.balance_share(e_r, tuple(broadcast["frame_rc"]), sc.total_q) == \
        per_node[1]["q_reliability_rc"]


def test_trace_lines_equal_json_dumps():
    # a shared broadcast record is encoded once; one that is not its record's
    # last field, or not a dict, goes through json.dumps whole
    shared = {"ln_m": 1.5, "frame_rc": (-0.0, 1e-310, math.inf), "q_total": 10}
    trace = [{"step": 1, "from": 1, "to": 2, "message": {"frame_rate": (1.0, math.nan)}},
             *({"step": k, "from": 3, "to": k - 1, "broadcast": shared} for k in (2, 3, 4)),
             {"broadcast": shared, "step": 5}, {"step": 6, "broadcast": None},
             {"step": 7, "broadcast": {"a%s": "x\u2603"}}]
    assert list(cli._trace_lines(trace)) == [json.dumps(record) + "\n" for record in trace]


# JSON leaves: numbers with the floats json spells out, None, and strings with escapes
_NUMBER = st.one_of(st.integers(-2 ** 70, 2 ** 70), st.floats(), st.booleans(), st.none(),
                    st.sampled_from([-0.0, 1e-310, math.nan, math.inf, -math.inf]))
_LEAF = st.one_of(_NUMBER, st.text(alphabet=st.sampled_from('a,%"\\\n\x00\u2603{}:['),
                                   max_size=5))
_KEY = st.one_of(st.text(alphabet=st.sampled_from('k,%"\\\u2603: '), max_size=4),
                 st.integers(-3, 3), st.floats(), st.booleans(), st.none())


@st.composite
def _flat_dict_lists(draw):
    """Lists of dicts with the same str keys and number values, as per_node_blocks."""
    keys = draw(st.lists(_KEY.filter(lambda key: isinstance(key, str)), unique=True,
                         max_size=3))
    rows = draw(st.lists(st.lists(_NUMBER, min_size=len(keys), max_size=len(keys)), max_size=4))
    return [dict(zip(keys, row)) for row in rows]


_PAYLOADS = st.recursive(_LEAF, lambda children: st.one_of(
    st.lists(children, max_size=4), st.lists(children, max_size=3).map(tuple),
    st.dictionaries(_KEY, children, max_size=4), st.lists(_NUMBER, max_size=5),
    _flat_dict_lists()), max_leaves=30)


@settings(max_examples=300, deadline=None)
@given(_PAYLOADS)
@example({"blocklengths": [1, 2], "e": [], "d": {}, "z": [{}], 1.5: None,
          "per_node_blocks": [{"a%s": -0.0, "b": 1e-310}, {"a%s": math.nan, "b": -math.inf}]})
@example([{"k": 1}, {"k": "1"}])  # the same keys, a value that is not a number
@example([{1: 2}, {True: 3}])  # equal keys that json spells apart
def test_json_writer_equals_json_dumps_indent_2(payload):
    assert cli._json_text(payload, "") == json.dumps(payload, indent=2)


# each CSV the CLI writes: `exponent`'s sweep, reproduce's fig3 and fig4 tables
_CSV_HEADERS = ["rate_nats,e_r,rho_r,regime_r,e_sp,rho_sp,regime_sp",
                "end_to_end_rate_nats,esys_rc,esys_sp",
                "end_to_end_rate_nats,latency_upper,latency_lower,latency_mc_mean,"
                "latency_mc_stderr"]
_REGIMES = st.sampled_from([Regime.PARAMETRIC_INTERIOR, Regime.RHO_CLAMPED_AT_ONE,
                            Regime.ZERO_ABOVE_CAPACITY, Regime.INFINITE_BELOW_R_INF])


@st.composite
def _csv_tables(draw):
    """A header the CLI writes and rows of the cells it sends: text in a `regime_*`
    column, a float (a Python or a numpy one) in every other."""
    header = draw(st.sampled_from(_CSV_HEADERS))
    row = st.tuples(*(_REGIMES if name.startswith("regime_")
                      else st.one_of(st.floats(), st.floats().map(np.float64))
                      for name in header.split(",")))
    return header, draw(st.lists(row, max_size=6))


@settings(max_examples=200, deadline=None)
@given(_csv_tables())
@example((_CSV_HEADERS[0], [(5e-324, math.inf, math.inf, Regime.INFINITE_BELOW_R_INF, -0.0,
                             math.nan, Regime.ZERO_ABOVE_CAPACITY),
                            (np.float64(0.1), 1e308, -1e-310, Regime.RHO_CLAMPED_AT_ONE,
                             np.float64(-math.inf), 2.0 ** 60, Regime.PARAMETRIC_INTERIOR)]))
def test_csv_writer_equals_the_per_cell_form(table):
    header, rows = table
    written = io.StringIO()
    with contextlib.redirect_stdout(written):
        cli._write_csv(None, header, rows)
    assert written.getvalue() == "".join(
        f"{line}\n" for line in [header, *(",".join(map(per_cell, row)) for row in rows)])


def test_a_failing_sweep_keeps_every_row_before_the_failing_chunk(tmp_path, monkeypatch):
    # the last rate, 1e-300 nats at 3000 dB, puts the SP maximizer past 2**1014; the
    # writer writes each row as it comes, so the rows before its chunk are written
    monkeypatch.setattr(cli, "_GRID_CHUNK", 64)
    out = tmp_path / "sweep.csv"
    assert main(["exponent", "--snr-db", "3000", "--rate-min", "5", "--rate-max", "1e-300",
                 "--rate-steps", "129", "--out", str(out)]) == 3
    assert len(out.read_text().splitlines()) == 1 + 128


_HOP_SPECS = st.one_of(
    _AWGN, _DMC, st.just({"type": "awgn"}), st.just([]), st.just({"type": "bec"}),
    st.fixed_dictionaries({"type": st.just("awgn"), "snr_db": st.one_of(
        st.integers(-400, 400), st.floats(), st.sampled_from(
            [True, "3", None, 4000.0, -4000.0, 10 ** 400, -(10 ** 400), 3090.0]))}))


@settings(max_examples=300, deadline=None)
@given(st.lists(_HOP_SPECS, min_size=1, max_size=6), st.integers(1, 200))
def test_hop_list_parses_as_hop_by_hop(specs, awgn_hops):
    # an all-AWGN list takes the one-pass build; a bad hop among many names itself
    specs = specs + [{"type": "awgn", "snr_db": 0.25 * k} for k in range(awgn_hops)]
    try:
        expected = [scenario._parse_hop(spec, i) for i, spec in enumerate(specs)]
    except ScenarioError as exc:
        with pytest.raises(ScenarioError) as raised:
            scenario._parse_hops(specs)
        assert str(raised.value) == str(exc)
        return
    got = scenario._parse_hops(specs)
    assert got == expected and [ch.snr for ch in got] == [ch.snr for ch in expected]
    assert np.array([capacity(ch) for ch in got]).tobytes() == np.array(
        [capacity(ch) for ch in expected]).tobytes()


class TestPeakMemory:
    """A command's tracemalloc peak at two sizes of an option that must not
    multiply it: the peak is bounded by a constant, or linearly in the hops."""

    @staticmethod
    def traced_peak(argv) -> int:
        """The tracemalloc peak of main(argv) on a fresh thread, so that a
        Monte Carlo run counts its thread's new workspace."""
        codes = []
        tracemalloc.start()
        try:
            thread = threading.Thread(target=lambda: codes.append(main(argv)))
            thread.start()
            thread.join()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert codes == [0]
        return peak

    # measured: exponent 1.4 and 1.8 MiB (the grid is solved _GRID_CHUNK rates
    # at a time), on a 32x32 DMC 2.4 and 3.3 MiB (its E0 arrays take the rhos in
    # slices), latency on two usable CPUs 4.15 MiB at both (the calling thread's
    # workspace of _BLOCK trials, 2.6 MiB, and a second thread's lean one; one
    # workspace with its own counters was 3.1 MiB), distributed 0.2 and 1.9 MiB
    # (its trace holds a message per hop), allocate on equal BSC hops 0.18 and
    # 1.6 MiB (one array call over every hop)
    @pytest.mark.parametrize("command,small,large,growth", [
        ("exponent", 4096, 40960, 2.0),
        ("latency", 10 ** 6, 4 * 10 ** 6, 1.5),
        ("distributed", 100, 1000, 1.25 * 1000 / 100),
        ("exponent_dmc_32x32", 512, 4096, 2.0),
        ("allocate_equal_bsc", 100, 1000, 1.25 * 1000 / 100)])
    def test_option_does_not_multiply_the_peak(self, tmp_path, monkeypatch, command, small,
                                               large, growth):
        out = str(tmp_path / "out")
        if command == "latency":  # two Monte Carlo threads at both sizes, whatever the host
            monkeypatch.setattr(arq, "_usable_cpus", lambda: 2)

        def argv(size):
            if command == "exponent":
                return ["exponent", "--snr-db", "3", "--rate-min", "0.01", "--rate-max", "0.6",
                        "--rate-steps", str(size), "--out", out]
            path = tmp_path / f"{size}.json"
            if command == "exponent_dmc_32x32":
                rng = np.random.default_rng(32)
                ch = HopChannel.dmc(rng.dirichlet(np.full(32, 0.5), size=32),
                                    rng.dirichlet(np.ones(32)))
                path.write_text(json.dumps(dict(BASE_DOC, hops=[{
                    "type": "dmc", "transition": ch.transition.tolist(),
                    "input_dist": ch.input_dist.tolist()}])))
                return ["exponent", "--scenario", str(path), f"--rate-min={0.01 * capacity(ch)!r}",
                        f"--rate-max={0.99 * capacity(ch)!r}", "--rate-steps", str(size),
                        "--out", out]
            if command == "allocate_equal_bsc":
                bsc = {"type": "dmc", "transition": [[0.9, 0.1], [0.1, 0.9]]}
                path.write_text(json.dumps(dict(BASE_DOC, total_q=1000 * size, hops=[bsc] * size)))
                return ["allocate", "--scenario", str(path), "--out", out]
            if command == "latency":
                path.write_text(json.dumps(BASE_DOC))
                return ["latency", "--scenario", str(path), "--trials", str(size), "--out", out]
            path.write_text(json.dumps(chain_doc(["awgn"] * size)))
            return ["distributed", "--scenario", str(path), "--out", out,
                    "--trace", out + ".jsonl"]

        assert main(argv(small)) == 0  # the first call's one-time imports and caches
        peak_small, peak_large = self.traced_peak(argv(small)), self.traced_peak(argv(large))
        assert peak_large <= growth * peak_small, (peak_small, peak_large)
        if command == "latency":  # 1.5 times the one-workspace peak
            assert peak_small <= 4.65 * 2 ** 20, peak_small

    # measured: fig3 0.37 MiB, fig4 4.1 MiB (the Monte Carlo's workspace of _BLOCK trials)
    @pytest.mark.parametrize("figure,bound_mib", [("fig3", 1.0), ("fig4", 8.0)])
    def test_reproduce_peak_is_bounded(self, tmp_path, figure, bound_mib):
        argv = ["reproduce", "--figure", figure, "--out-dir", str(tmp_path)]
        assert main(argv) == 0  # the first call's one-time imports and caches
        assert self.traced_peak(argv) <= bound_mib * 2 ** 20


class FixedRates(Scenario):
    """A scenario whose rates are given as they are, unchecked."""

    def resolve_rates(self):
        return list(self.rate_policy["rates"])


class TestEvaluationExponentPaths:
    """An evaluation's exponents equal the per-hop solves on both sides of ARRAY_MIN_HOPS."""

    @staticmethod
    def evaluate(tmp_path, kinds, monkeypatch):
        path = tmp_path / "chain.json"
        path.write_text(json.dumps(chain_doc(kinds)))
        ev = Evaluation([load_scenario(str(path))])[0]
        array_calls = []
        solve = exponents._array_exponents

        def counted(rates, caps, params, terms, r_inf):
            array_calls.append((len(rates), "awgn" if terms is exponents._awgn_terms else "dmc"))
            return solve(rates, caps, params, terms, r_inf)
        monkeypatch.setattr(exponents, "_array_exponents", counted)
        return ev, array_calls

    @pytest.mark.parametrize("first", ["exponents_r", "exponents_sp"])
    @pytest.mark.parametrize("kinds,array_hops", [
        (["awgn"] * (ARRAY_MIN_HOPS - 1), None),
        (["awgn"] * ARRAY_MIN_HOPS, ARRAY_MIN_HOPS),
        (LONG_CHAINS["mixed120"], 96)])
    def test_equal_to_per_hop_solves(self, tmp_path, monkeypatch, kinds, array_hops, first):
        ev, array_calls = self.evaluate(tmp_path, kinds, monkeypatch)
        hops, rates = ev.scenario.hops, ev.rates
        getattr(ev, first)
        for family, solver in (("r", random_coding_exponent), ("sp", sphere_packing_exponent)):
            solved = [solver(r, ch) for r, ch in zip(rates, hops)]
            assert getattr(ev, f"exponents_{family}") == [
                [res.exponent for res in solved], [res.rho_star for res in solved],
                [res.regime for res in solved]]
        # whichever family is read first, one pass solves both: one array call for
        # the AWGN hops if they are at least ARRAY_MIN_HOPS, and one per DMC hop,
        # each of which is its own channel object
        dmc = [i for i, ch in enumerate(hops) if ch.kind == "dmc"]
        assert array_calls == ([] if array_hops is None else
                               [(array_hops, "awgn")] + [(1, "dmc")] * len(dmc))

    def test_invalid_rate_raises_the_first_hops_error(self, tmp_path, monkeypatch):
        # SP rejects the zero rate on the BSC at hop 4 first; RC, solved alone where
        # SP fails, accepts it and rejects the negative rate on AWGN hop 50
        ev, _ = self.evaluate(tmp_path, LONG_CHAINS["mixed120"], monkeypatch)
        rates = list(ev.rates)
        rates[4], rates[50] = 0.0, -1.0
        sc = ev.scenario
        row = Evaluation([FixedRates(sc.total_q, sc.hops, {"rates": rates},
                                     sc.allocation_method)])[0]
        with pytest.raises(ChannelError, match="^rate must be positive for sphere packing, "
                                               "got 0.0$"):
            row.exponents_sp
        with pytest.raises(ChannelError, match="got -1.0$"):
            row.exponents_r


class TestRcNeverFailsBecauseSpDoes:
    """A DMC hop at 1e-300 nats whose SP root passes 2**1014 (its q does not sum to 1
    exactly in doubles): an RC split still allocates, from RC solved alone where the one
    pass fails; the commands that read SP exit 3 with its error."""

    HOPS = [{"type": "dmc", "input_dist": [0.37525486086141113, 0.5114899253720673,
                                           0.11325521376652149],
             "transition": [[0.15880448167679984, 0.04564996889225682, 0.7955455494309432],
                            [0.1606019123236171, 0.05056220852076873, 0.788835879155614],
                            [0.4617995398572841, 0.5106822533177862, 0.027518206824929756]]},
            {"type": "awgn", "snr_db": 3.0}]
    MESSAGE = "the sphere-packing maximizer rho* exceeds 1.756e+305"

    @pytest.fixture
    def path(self, tmp_path):
        return write_scenario(tmp_path, hops=self.HOPS, total_q=100, rate_policy={
            "mode": "explicit", "rates_nats": [1e-300, 0.2]})

    def test_an_rc_split_allocates(self, tmp_path, path):
        sc = load_scenario(path)
        with pytest.raises(ChannelError, match=re.escape(self.MESSAGE)):
            sphere_packing_exponent(1e-300, sc.hops[0])
        rc = [random_coding_exponent(r, ch).exponent for r, ch in zip([1e-300, 0.2], sc.hops)]
        out = tmp_path / "alloc.json"
        assert main(["allocate", "--scenario", path, "--out", str(out)]) == 0
        assert json.loads(out.read_text())["blocklengths"] == reliability_optimal_blocks(rc, 100)

    @pytest.mark.parametrize("argv", [
        ["latency", "--trials", "10"],
        ["exponent", "--hop", "0", "--rate-min", "1e-300", "--rate-max", "2e-300",
         "--rate-steps", "2"]], ids=["latency", "exponent"])
    def test_the_commands_that_read_sp_exit_3(self, tmp_path, capsys, path, argv):
        assert main([*argv, "--scenario", path, "--out", str(tmp_path / "out")]) == 3
        assert json.loads(capsys.readouterr().err.splitlines()[-1]) == {"error": self.MESSAGE}


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


@pytest.mark.parametrize("at_capacity", [0, 1])
def test_commands_name_the_zero_exponent_hop_alike(tmp_path, capsys, at_capacity):
    # explicit rates [C(9 dB), 0.5 C(6 dB)] or [0.5 C(9 dB), C(6 dB)]
    caps = [capacity(HopChannel.awgn(10.0 ** (db / 10.0))) for db in (9.0, 6.0)]
    rates = [c if k == at_capacity else 0.5 * c for k, c in enumerate(caps)]
    path = write_scenario(tmp_path, rate_policy={"mode": "explicit", "rates_nats": rates})
    errors = []
    for argv in (["allocate"], ["latency", "--trials", "10"], ["distributed"]):
        assert main([*argv, "--scenario", path]) == 3
        errors.append(capsys.readouterr().err.splitlines()[-1])
    assert errors == [json.dumps(
        {"error": f"hop {at_capacity}: rate at/above capacity, zero exponent"})] * 3


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
        ev = Evaluation([load_scenario(path)])[0]
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

    @pytest.mark.parametrize("suite, oracle, fake, instances, detail, summary", [
        ("grid", "grid_max_exponent", lambda rate, ch, grid: (-1.0, 0.0), 50,
         r"grid instance 0: snr=\S+ rate=\S+ rc_err=\S+ sp_err=\S+",
         r"parametric exponents match dense-grid maximization \(50 instances\)"),
        ("alloc", "exhaustive_allocation", lambda exps, q: [0] * len(exps), 20,
         r"alloc instance 0: Q=\d+ E=\[.*\] got \[.*\] expected \[0, 0.*\]",
         r"greedy integer allocation matches exhaustive enumeration \(20 instances\)"),
        ("ensemble", "bsc_ensemble_error", lambda q, m, p, trials, seed: (1.0, 0.0), 10,
         r"ensemble seed 1: mean=1.000000 exceeds bound=\S+ \+ 3\*stderr=0.000000",
         r"random-coding bound exp\(-Q\*E_r\)=\S+ holds over 10 seeds")])
    def test_a_disagreeing_oracle_fails_the_suite(self, monkeypatch, capsys, suite, oracle,
                                                  fake, instances, detail, summary):
        monkeypatch.setattr(cli, oracle, fake)
        assert main(["verify", "--suite", suite, "--seed", "1"]) == 3
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == instances + 1
        assert all(line.startswith(f"FAIL [{suite}] ") for line in lines)
        assert re.fullmatch(rf"FAIL \[{suite}\] {detail}", lines[0])
        assert re.fullmatch(rf"FAIL \[{suite}\] {summary}", lines[-1])


@pytest.fixture
def solves(monkeypatch):
    """Exponent solves counted by (kind, hop channel, rate), wherever they are
    called: "rc" for a solve of RC alone, "both" for one that gives both families;
    in an array solve, which gives both, the hop is known by its capacity."""
    counts = collections.Counter()
    maximize = exponents._maximize

    def counted(rate, ch, rho_cap):
        counts["rc" if rho_cap == 1.0 else "both", id(ch), rate] += 1
        return maximize(rate, ch, rho_cap)
    monkeypatch.setattr(exponents, "_maximize", counted)
    array_solve = exponents._array_exponents

    def counted_array(rates, caps, *args):
        counts.update(("both", cap, rate) for rate, cap in zip(rates, caps))
        return array_solve(rates, caps, *args)
    monkeypatch.setattr(exponents, "_array_exponents", counted_array)
    return counts


def family_totals(counts):
    """(solves of RC alone, solves of both families)."""
    return tuple(sum(n for (kind, _, _), n in counts.items() if kind == k)
                 for k in ("rc", "both"))


MIXED_HOPS = [{"type": "awgn", "snr_db": 9.0},
              {"type": "dmc", "transition": [[0.9, 0.1], [0.1, 0.9]]},
              {"type": "awgn", "snr_db": 3.0}]


class TestSolveCounts:
    @pytest.fixture
    def passes(self, monkeypatch):
        """Each array pass as (its step's kind, its number of rates), and each scalar
        solve as ("scalar", its rho cap: inf for both families, 1 for RC alone)."""
        calls = []
        array_solve, maximize = exponents._array_exponents, exponents._maximize

        def counted_array(rates, caps, params, terms, r_inf):
            calls.append(("awgn" if terms is exponents._awgn_terms else "dmc", len(rates)))
            return array_solve(rates, caps, params, terms, r_inf)

        def counted(rate, ch, rho_cap):
            calls.append(("scalar", rho_cap))
            return maximize(rate, ch, rho_cap)
        monkeypatch.setattr(exponents, "_array_exponents", counted_array)
        monkeypatch.setattr(exponents, "_maximize", counted)
        return calls

    # ARRAY_MIN_HOPS AWGN hops and two hops on equal BSCs, at beta = 0.5
    CHAIN = [{"type": "awgn", "snr_db": 0.1 * k} for k in range(ARRAY_MIN_HOPS)] + [
        {"type": "dmc", "transition": [[0.9, 0.1], [0.1, 0.9]]}] * 2

    @pytest.mark.parametrize("command,expected", [
        (["exponent", "--snr-db", "3", "--rate-min", "0.01", "--rate-max", "0.9",
          "--rate-steps", str(cli._GRID_CHUNK + 1)],
         [("awgn", cli._GRID_CHUNK), ("scalar", math.inf)]),
        (["exponent", "--hop", str(ARRAY_MIN_HOPS), "--rate-min", "0.01", "--rate-max", "0.9",
          "--rate-steps", str(cli._GRID_CHUNK + 1)], [("dmc", cli._GRID_CHUNK), ("dmc", 1)]),
        (["reproduce", "--figure", "fig3"], [("awgn", 80), ("awgn", 160)]),
        (["reproduce", "--figure", "fig4"], [("awgn", 80), ("awgn", 160)]),
        (["latency", "--trials", "10"], [("awgn", ARRAY_MIN_HOPS), ("dmc", 2)]),
        (["distributed"], [("awgn", ARRAY_MIN_HOPS), ("dmc", 2)])],
        ids=["exponent_awgn", "exponent_dmc", "fig3", "fig4", "latency", "distributed"])
    def test_one_pass_per_group_and_no_rc_pass(self, tmp_path, passes, command, expected):
        # each exponent chunk, reproduce table and scenario makes one array pass per
        # AWGN group of at least ARRAY_MIN_HOPS hops and per DMC group
        out = ["--out-dir", str(tmp_path)] if command[0] == "reproduce" else [
            "--out", str(tmp_path / "out")]
        if command[0] != "reproduce" and "--snr-db" not in command:
            out += ["--scenario", write_scenario(tmp_path, hops=self.CHAIN)]
        assert main([*command, *out]) == 0
        assert passes == expected

    def test_reproduce_fig3_solves_each_hop_and_rate_once(self, tmp_path, solves):
        assert main(["reproduce", "--figure", "fig3", "--out-dir", str(tmp_path)]) == 0
        # the relopt and info-continuous sweeps share each target's two-hop
        # solves, each of which gives both families
        assert family_totals(solves) == (0, 240)
        assert set(solves.values()) == {1}

    def test_reproduce_fig4_solves_each_hop_and_rate_once(self, tmp_path, solves):
        assert main(["reproduce", "--figure", "fig4", "--out-dir", str(tmp_path)]) == 0
        # 80 swept targets on one single-hop and two two-hop channels
        assert family_totals(solves) == (0, 240)
        assert set(solves.values()) == {1}

    @pytest.mark.parametrize("method,expected", [
        ("reliability_optimal_rc", (0, 3)), ("reliability_optimal_sp", (0, 3)),
        ("info_continuous", (0, 0))])
    def test_allocate_solves_each_hop_once_if_it_balances_a_family(self, tmp_path, solves,
                                                                   method, expected):
        path = write_scenario(tmp_path, hops=MIXED_HOPS, allocation_method=method)
        assert main(["allocate", "--scenario", path]) == 0
        assert family_totals(solves) == expected

    def test_latency_solves_each_hop_once(self, tmp_path, solves):
        path = write_scenario(tmp_path, hops=MIXED_HOPS)
        assert main(["latency", "--scenario", path, "--trials", "100"]) == 0
        assert family_totals(solves) == (0, 3)
        assert set(solves.values()) == {1}

    def test_distributed_solves_each_hop_once(self, tmp_path, solves):
        # the nodes take their exponents from the evaluation the comparison uses
        path = write_scenario(tmp_path, hops=MIXED_HOPS)
        out = tmp_path / "dist.json"
        assert main(["distributed", "--scenario", path, "--out", str(out)]) == 0
        assert json.loads(out.read_text())["matches_centralized"] is True
        assert family_totals(solves) == (0, 3)
        assert set(solves.values()) == {1}


# hops shared by the rows of a drawn table: a 0 dB hop (capacity below 1 nat,
# so beta = 5e-324 gives it a zero rate), a 40 dB hop (at rate 1e-7 its SP
# solve ends at rho* = 2.2e7) and three DMC hops, the last with E_sp = +inf
# below its R_inf = ln 1.5 (0.68 of its capacity)
TABLE_HOPS = [HopChannel.awgn(10 ** 0.9), HopChannel.awgn(1.0), HopChannel.awgn(1e4),
              HopChannel.bsc(0.1), HopChannel.dmc([[0.8, 0.1, 0.1], [0.1, 0.8, 0.1],
                                                   [0.1, 0.1, 0.8]]),
              HopChannel.dmc([[0.8, 0.2, 0.0], [0.0, 0.8, 0.2], [0.2, 0.0, 0.8]])]
COLUMNS = ["rates", "exponents", "exponents_r", "exponents_sp", "ln_m", "shares_r", "shares_sp",
           "stationarity_residual", "blocks", "end_to_end_rate", "bounds", "chains", "latency"]


@st.composite
def table_scenarios(draw):
    """A scenario on 1-3 of TABLE_HOPS, some of them invalid: a rate above
    capacity, beta = 2, a zero rate, a target at or above the network capacity,
    an infinite SP exponent."""
    hops = [TABLE_HOPS[k] for k in draw(st.lists(st.integers(0, len(TABLE_HOPS) - 1),
                                                 min_size=1, max_size=3))]
    caps = [capacity(ch) for ch in hops]
    policy = draw(st.one_of(
        st.sampled_from([0.3, 0.5, 0.9, 2.0, 5e-324]).map(
            lambda beta: {"mode": "capacity_fraction", "beta": beta}),
        st.sampled_from([0.2, 0.6, 1.0, 1.5]).map(lambda f: {
            "mode": "target_rate", "rate_nats": f * allocation.network_capacity(caps)}),
        st.lists(st.sampled_from([0.3, 0.8, 1.2, None]), min_size=len(hops),
                 max_size=len(hops)).map(lambda fs: {
                     "mode": "explicit",
                     "rates_nats": [1e-7 if f is None else f * c for f, c in zip(fs, caps)]})))
    method = draw(st.sampled_from(scenario._METHODS))
    q = draw(st.sampled_from([len(hops), 40, 1000]))
    manual = [q - len(hops) + 1] + [1] * (len(hops) - 1) if method == "manual" else None
    return Scenario(q, hops, policy, method, manual)


def outcome(row, name):
    """repr of the row's value, or its error's type and message."""
    try:
        return repr(getattr(row, name))
    except ValueError as exc:
        return type(exc), str(exc)


class TestEvaluationTable:
    """Each row of a table equals its own one-row table: every value bit for
    bit, and every error by type and message, whichever column is read first."""

    @settings(max_examples=40, deadline=None)
    @given(scenarios=st.lists(table_scenarios(), min_size=1, max_size=12),
           order=st.permutations(COLUMNS))
    @example(scenarios=[  # a capped hop in the second row once left an empty bounds group
        Scenario(1, TABLE_HOPS[:1], {"mode": "capacity_fraction", "beta": 0.3},
                 "reliability_optimal_rc"),
        Scenario(2, [TABLE_HOPS[0], TABLE_HOPS[2]],
                 {"mode": "explicit", "rates_nats": [0.6572708024210144, 1e-7]},
                 "reliability_optimal_rc")], order=COLUMNS)
    def test_each_row_equals_its_one_row_table(self, scenarios, order):
        table = Evaluation(scenarios)
        got = [{name: outcome(row, name) for name in order} for row in table]
        assert got == [{name: outcome(Evaluation([sc])[0], name) for name in COLUMNS}
                       for sc in scenarios]


    def test_method_columns_fill_only_the_rows_that_read_them(self, solves):
        # fig3's two-hop table: the RC and info-continuous rows of each target
        # share their exponent solves; ln M and the shares are their own method's
        hops = [HopChannel.awgn(10 ** 0.9), HopChannel.awgn(10 ** 0.6)]
        table = Evaluation([Scenario(1000, hops, {"mode": "target_rate", "rate_nats": target},
                                     method)
                            for target in (0.1, 0.3, 0.5)
                            for method in ("reliability_optimal_rc", "info_continuous")])
        assert [row.bounds.esys_lower > 0 for row in table] == [True] * 6
        assert sorted(table.cells["shares_r"]) == [0, 2, 4]
        assert sorted(table.cells["ln_m"]) == [1, 3, 5]
        assert "shares_sp" not in table.cells and "latency" not in table.cells
        assert family_totals(solves) == (0, 6) and set(solves.values()) == {1}


class TestTinyRateSpherePacking:
    """A 40 dB hop at 1e-7 nats solves to E_sp = 9995.53 at rho* = 2.2e7, which the
    bounds and the SP split take; a DMC hop below its R_inf has E_sp = +inf, which
    the bounds take and an SP split or the protocol refuses."""

    @staticmethod
    def scenario(tmp_path, method, hops=({"type": "awgn", "snr_db": 40.0},), rates=(1e-7,)):
        return write_scenario(tmp_path, f"{method}.json", allocation_method=method,
                              hops=list(hops),
                              rate_policy={"mode": "explicit", "rates_nats": list(rates)})

    @pytest.mark.parametrize("argv,method", [
        (["allocate"], "reliability_optimal_rc"), (["allocate"], "reliability_optimal_sp"),
        (["latency", "--trials", "100"], "reliability_optimal_sp"),
        (["distributed"], "reliability_optimal_rc")],
        ids=["allocate_rc", "allocate_sp", "latency", "distributed"])
    def test_exit_codes(self, tmp_path, argv, method):
        out = tmp_path / "out.json"
        assert main([*argv, "--scenario", self.scenario(tmp_path, method),
                     "--out", str(out)]) == 0
        assert out.exists()

    def test_exponent_writes_the_uncapped_row(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main(["exponent", "--snr-db", "40", "--rate-min", "1e-7", "--rate-max", "1e-7",
                     "--rate-steps", "1", "--out", str(out)]) == 0
        assert out.read_text().splitlines()[1].endswith(
            ",9995.52808356,22356248.7705,parametric_interior")

    @pytest.mark.parametrize("argv,method,code", [
        (["allocate"], "reliability_optimal_rc", 0), (["allocate"], "reliability_optimal_sp", 3),
        (["latency", "--trials", "100"], "reliability_optimal_rc", 0),
        (["distributed"], "reliability_optimal_rc", 3)],
        ids=["allocate_rc", "allocate_sp", "latency", "distributed"])
    def test_infinite_exponent_below_r_inf(self, tmp_path, capsys, argv, method, code):
        hops = [{"type": "dmc", "transition": [[0.8, 0.2, 0], [0, 0.8, 0.2], [0.2, 0, 0.8]]},
                {"type": "awgn", "snr_db": 3.0}]
        out = tmp_path / "out.json"
        assert main([*argv, "--scenario", self.scenario(tmp_path, method, hops, (0.1, 0.2)),
                     "--out", str(out)]) == code
        assert out.exists() == (code == 0)
        if code == 3:
            error = json.loads(capsys.readouterr().err.splitlines()[-1])["error"]
            assert "positive and finite" in error

    def test_exponent_overflow_exits_3(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        assert main(["exponent", "--snr-db", "3000", "--rate-min", "1e-300",
                     "--rate-max", "1e-300", "--rate-steps", "1", "--out", str(out)]) == 3
        error = json.loads(capsys.readouterr().err.splitlines()[-1])["error"]
        assert error == "the sphere-packing maximizer rho* exceeds 1.756e+305"


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
    """The real optima the CLI reports, as columns of an evaluation."""

    def test_columns_equal_the_allocation_formulas(self, tmp_path):
        ev = Evaluation([load_scenario(write_scenario(tmp_path, hops=MIXED_HOPS))])[0]
        q = ev.scenario.total_q
        assert ev.ln_m == info_continuous_log_m(ev.rates, q)
        assert ev.shares_r == reliability_real_blocks(ev.exponents_r[0], q)
        assert ev.shares_sp == reliability_real_blocks(ev.exponents_sp[0], q)
        balance = [b * e - math.log(e) for b, e in zip(ev.shares_r, ev.exponents_r[0])]
        assert ev.stationarity_residual == max(balance) - min(balance)

    @pytest.mark.parametrize("method,family", [("reliability_optimal_sp", "sp"),
                                               ("info_continuous", None),
                                               ("manual", None)])
    def test_balanced_family_follows_the_method(self, tmp_path, solves, method, family):
        manual = {"manual_blocks": [400, 600]} if method == "manual" else {}
        ev = Evaluation([load_scenario(write_scenario(tmp_path, allocation_method=method,
                                                      **manual))])[0]
        residual = ev.stationarity_residual
        if family is None:
            assert residual is None
            assert family_totals(solves) == (0, 0)
        else:
            balance = [b * e - math.log(e) for b, e in zip(ev.shares_sp, ev.exponents_sp[0])]
            assert residual == max(balance) - min(balance)
            assert family_totals(solves) == (0, 2)  # one pass per hop gives both


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
