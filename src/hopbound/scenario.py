"""Scenario JSON ingestion and the one evaluation pipeline, over a table of scenarios.

A scenario file fixes the hop channels (SNRs in dB, made linear by
`channel.snr_db_to_linear`, as the CLI's), the budget Q, a per-hop rate policy
and the allocation method.  An `Evaluation` of a table of scenarios computes each
derived quantity once, as a column filled in one pass over the rows that read it.
"""

from __future__ import annotations

import json
import math
from array import array
from dataclasses import dataclass
from itertools import accumulate, chain, compress

import numpy as np

from . import _doubles, _is_integer
from .allocation import (Method, _balanced_blocks, end_to_end_rate, info_continuous_log_m,
                         information_continuous_blocks, rate_policy_scale, reliability_real_blocks)
from .arq import arq_chains, latency_bounds
from .channel import HopChannel, capacity, snr_db_to_linear
from .exponents import hop_exponents, random_coding_exponent
from .system import stacked_error_bounds

__all__ = ["ScenarioError", "Scenario", "Evaluation", "Row", "load_scenario",
           "build_allocation"]

SCHEMA_VERSION = 1

# the columns a split reads, by method: a reliability-optimal one, the family it balances
_BALANCED = {Method.RELIABILITY_OPTIMAL_RC: ("exponents_r", "shares_r"),
             Method.RELIABILITY_OPTIMAL_SP: ("exponents_sp", "shares_sp")}
_SPLIT_INPUTS = {**_BALANCED, Method.INFO_CONTINUOUS: ("rates", "ln_m"), Method.MANUAL: ()}
_METHODS = tuple(_SPLIT_INPUTS)


class ScenarioError(ValueError):
    """Malformed or inconsistent scenario document."""


def _finite(value, name: str) -> float:
    """A scenario field as a finite float, not a JSON boolean; ScenarioError otherwise."""
    try:  # a value past the doubles' range is not finite either
        x = math.nan if isinstance(value, bool) else _doubles([value], ScenarioError, name)[0]
    except (TypeError, ValueError):
        x = math.nan
    if not math.isfinite(x):
        raise ScenarioError(f"{name} must be a finite number, got {value!r}")
    return x


@dataclass(frozen=True)
class Scenario:
    total_q: int
    hops: list[HopChannel]
    rate_policy: dict
    allocation_method: str
    manual_blocks: list[int] | None = None

    @property
    def capacities(self) -> list[float]:
        return [capacity(ch) for ch in self.hops]

    def resolve_rates(self) -> list[float]:
        """Per-hop rates in nats/use from the rate policy; ScenarioError unless all > 0."""
        mode = self.rate_policy["mode"]
        if mode == "explicit":
            field, given = "rates_nats", self.rate_policy.get("rates_nats")
            if not isinstance(given, list) or len(given) != len(self.hops):
                raise ScenarioError("rates_nats must be a list with one rate per hop")
            rates = [_finite(r, field) for r in given]
        elif mode == "capacity_fraction":
            field, beta = "beta", _finite(self.rate_policy.get("beta"), "beta")
            if not 0.0 < beta < 1.0:
                raise ScenarioError(f"beta must be in (0, 1), got {beta}")
            rates = [beta * c for c in self.capacities]
        elif mode == "target_rate":
            field = "rate_nats"
            rates = rate_policy_scale(self.capacities, _finite(self.rate_policy.get(field), field))
        else:
            raise ScenarioError(f"unknown rate policy mode {mode!r}")
        if bad := [k for k, r in enumerate(rates) if not r > 0.0]:
            raise ScenarioError(f"{field} gives hop {bad[0]} rate {rates[bad[0]]!r}, not > 0")
        return rates


class Evaluation:
    """A table of scenarios and every quantity derived from them, one column per
    quantity (`_COLUMNS`); a single scenario is the one-row case.

    Reading a value of row `evaluation[i]` fills its column on every row in one
    pass.  A column reads its inputs in order, each only on the rows that use it
    and that the inputs before left without a domain error.  A row keeps the
    error of its value or first failing input, which reading the value raises,
    as the row alone does.  Values are shared; do not mutate them."""

    def __init__(self, scenarios: list[Scenario]):
        self.scenarios = list(scenarios)
        self.cells = {}  # column -> {row: value, or the domain error computing it raised}
        self.solved = {}  # row key (_solve) -> [rc, sp], each exponents or an error

    def __getitem__(self, row: int) -> Row:
        return Row(self, range(len(self.scenarios))[row])

    def column(self, name: str, rows=None) -> list:
        """Column `name` at `rows` (all if None), values or errors, filled in one pass."""
        rows = range(len(self.scenarios)) if rows is None else rows
        cells, (inputs, fill) = self.cells.setdefault(name, {}), _COLUMNS[name]
        todo = [i for i in rows if i not in cells]
        groups = {inputs: todo} if isinstance(inputs, tuple) and todo else {}
        for i in todo if isinstance(inputs, dict) else ():  # inputs by allocation method
            groups.setdefault(inputs.get(self.scenarios[i].allocation_method, ()), []).append(i)
        for names, live in groups.items():
            values = []  # each input's cells on the live rows
            for input_name in names:
                column = self.column(input_name, live)
                ok = [not isinstance(cell, ValueError) for cell in column]
                if not all(ok):  # a row with an error keeps it and reads no further
                    cells.update((i, c) for i, c in zip(live, column) if isinstance(c, ValueError))
                    live, column, *values = ([*compress(c, ok)] for c in (live, column, *values))
                values.append(column)
            cells.update(zip(live, fill(self, live, *values)))
        return [cells[i] for i in rows]


class Row:
    """Row `index` of an `Evaluation`: its scenario, and each column's value as
    a property, which raises the row's domain error where it holds one."""

    def __init__(self, table: Evaluation, index: int):
        self.table, self.index, self.scenario = table, index, table.scenarios[index]

    def value(self, name: str):
        """Column `name`'s value at this row; raises the row's domain error."""
        try:
            cell = self.table.cells[name][self.index]
        except KeyError:
            cell = self.table.column(name)[self.index]
        if isinstance(cell, ValueError):
            raise cell
        return cell


def _per_row(fn):
    """A fill computing fn(scenario, *inputs) row by row, keeping each row's domain error."""
    def cell(sc, args):
        try:
            return fn(sc, *args)
        except ValueError as exc:
            return exc
    return lambda ev, rows, *inputs: [cell(ev.scenarios[i], args)
                                      for i, *args in zip(rows, *inputs)]


def _solve(ev, rows, rates_column):
    """The exponents column, [rc, sp] per row: one hop_exponents call over the rows whose
    hop list and rates are unsolved, all of which keep its error if it raises (resolve_rates
    passes no rate it rejects).  There RC is solved alone, hop by hop, so it never fails
    because SP does."""
    def flat(lists):  # the lists joined, or the one list itself
        return lists[0] if len(lists) == 1 else list(chain.from_iterable(lists))

    keys = [(id(ev.scenarios[i].hops), array("d", rates).tobytes())
            for i, rates in zip(rows, rates_column)]
    todo = {key: (rates, ev.scenarios[i].hops)  # (hop list id, rate bits) -> (rates, hops)
            for key, i, rates in zip(keys, rows, rates_column) if key not in ev.solved}
    if todo:
        rates, hops = map(flat, zip(*todo.values()))
        try:
            families = hop_exponents(rates, hops)
        except ValueError as sp_error:
            try:
                rc = [random_coding_exponent(rate, ch) for rate, ch in zip(rates, hops)]
                families = ([[res.exponent for res in rc], [res.rho_star for res in rc],
                             [res.regime for res in rc]], sp_error)
            except ValueError as rc_error:
                families = (rc_error, sp_error)
        ends = accumulate(len(part_rates) for part_rates, _ in todo.values())
        for key, end, (part_rates, _) in zip(todo, ends, todo.values()):
            ev.solved[key] = [family if isinstance(family, ValueError) else
                              [column[end - len(part_rates):end] for column in family]
                              for family in families]
    return [ev.solved[key] for key in keys]


def _spread(sc: Scenario, exps=None, shares=None) -> float | None:
    """Spread over hops of Q_n E_n - ln E_n at the balanced shares (0 at the optimum),
    None for a method that balances no family (no inputs)."""
    balance = [q * e - math.log(e) for q, e in zip(shares or (), exps[0] if exps else ())]
    return max(balance) - min(balance) if balance else None


def _bounds(ev, rows, *inputs):
    """System bounds, one stacked_error_bounds pass per hop count."""
    cells, by_hops = {}, {}
    for i, blocks, rc, sp in zip(rows, *inputs):
        by_hops.setdefault(len(blocks), []).append((i, blocks, rc[0], sp[0]))
    for group in by_hops.values():
        index, *table = zip(*group)
        cells.update(zip(index, stacked_error_bounds(*map(list, table))))
    return [cells[i] for i in rows]


# column -> (its inputs, in order, or a dict of them by allocation method; fill(evaluation,
# rows, *inputs) -> the rows' cells); exponents_* are [exponents, rho_stars, regimes] lists
_COLUMNS = {
    "rates": ((), _per_row(lambda sc: sc.resolve_rates())),
    "exponents": (("rates",), _solve),
    "exponents_r": (("exponents",), _per_row(lambda sc, pair: pair[0])),
    "exponents_sp": (("exponents",), _per_row(lambda sc, pair: pair[1])),
    "ln_m": (("rates",), _per_row(lambda sc, rates: info_continuous_log_m(rates, sc.total_q))),
    **{f"shares_{family}": ((f"exponents_{family}",), _per_row(
        lambda sc, exps: reliability_real_blocks(exps[0], sc.total_q))) for family in ("r", "sp")},
    "stationarity_residual": (_BALANCED, _per_row(_spread)),
    "blocks": (_SPLIT_INPUTS, _per_row(lambda sc, *inputs: build_allocation(sc, *inputs))),
    "end_to_end_rate": (("blocks", "rates"), _per_row(lambda sc, *q_r: end_to_end_rate(*q_r))),
    "bounds": (("blocks", "exponents_r", "exponents_sp"), _bounds),
    "chains": (("bounds", "blocks"), _per_row(lambda sc, *bounds_q: arq_chains(*bounds_q))),
    "latency": (("chains",), _per_row(lambda sc, chains: latency_bounds(chains))),
}
for _name in _COLUMNS:
    setattr(Row, _name, property(lambda row, name=_name: row.value(name)))


def _parse_hop(spec, index: int) -> HopChannel:
    if not isinstance(spec, dict):
        raise ScenarioError(f"hop {index}: expected an object, got {spec!r}")
    try:
        kind = spec["type"]
        if kind == "awgn":
            return HopChannel.awgn(snr_db_to_linear(_finite(spec["snr_db"], "snr_db")))
        if kind == "dmc":
            fields = {"transition": spec["transition"], "input_dist": spec.get("input_dist")}
            for name, value in fields.items():  # numpy reads JSON booleans and strings as numbers
                cells = () if value is None else np.asarray(value, dtype=object).flat
                if bad := [x for x in cells if type(x) not in (int, float)]:
                    raise ScenarioError(f"{name} must hold JSON numbers only, got {bad[0]!r}")
            return HopChannel.dmc(*fields.values())
    except (KeyError, TypeError, ValueError) as exc:
        raise ScenarioError(f"hop {index}: {exc}") from exc
    raise ScenarioError(f"hop {index}: unknown type {kind!r}")


def _parse_hops(specs: list) -> list[HopChannel]:
    """The hops of a scenario's list; an all-AWGN list whose snr_db are JSON numbers
    is built in one pass (`HopChannel.awgn_hops`), with snr_db_to_linear's SNRs.
    Any other list, or one that fails, is parsed hop by hop, which names the
    first bad hop."""
    try:
        dbs = [spec["snr_db"] for spec in specs if spec["type"] == "awgn"]
        if len(dbs) == len(specs) and set(map(type, dbs)) <= {int, float}:
            return HopChannel.awgn_hops(list(map(snr_db_to_linear, dbs)))
    except (KeyError, TypeError, ValueError):
        pass
    return [_parse_hop(spec, i) for i, spec in enumerate(specs)]


def load_scenario(path: str) -> Scenario:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario: {exc}") from exc
    except ValueError as exc:
        raise ScenarioError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ScenarioError("scenario must be a JSON object")
    if type(version := doc.get("schema_version")) is not int or version != SCHEMA_VERSION:
        raise ScenarioError(f"unsupported schema_version {version!r}")
    hops_spec = doc.get("hops")
    if not isinstance(hops_spec, list) or not hops_spec:
        raise ScenarioError("scenario needs a list of at least one hop")
    total_q = doc.get("total_q")
    # doubles hold every integer only up to 2**53
    if not _is_integer(total_q, 1, 2 ** 53):
        raise ScenarioError("total_q must be an integer in [1, 2**53]")
    policy = doc.get("rate_policy")
    if not isinstance(policy, dict) or "mode" not in policy:
        raise ScenarioError("rate_policy with a mode is required")
    method = doc.get("allocation_method")
    if method not in _METHODS:
        raise ScenarioError(f"allocation_method must be one of {_METHODS}, got {method!r}")
    manual = doc.get("manual_blocks")
    if method == Method.MANUAL:
        if not isinstance(manual, list) or not all(map(_is_integer, manual)):
            raise ScenarioError("manual allocation requires integer manual_blocks")
        if sum(manual) != total_q or any(b < 1 for b in manual):
            raise ScenarioError("manual_blocks must be positive and sum to total_q")
        if len(manual) != len(hops_spec):
            raise ScenarioError("manual_blocks length must match hop count")
    elif manual is not None:
        raise ScenarioError("manual_blocks only allowed with the manual method")
    return Scenario(total_q=total_q, hops=_parse_hops(hops_spec), rate_policy=policy,
                    allocation_method=method, manual_blocks=manual)


def build_allocation(sc: Scenario, *inputs) -> list[int]:
    """Integer split of Q by the scenario's allocation method, from the columns
    its method reads (`_SPLIT_INPUTS`): a reliability-optimal split's exponents
    and shares, an info-continuous split's rates and ln M, a manual split's none."""
    if sc.allocation_method == Method.MANUAL:
        return list(sc.manual_blocks)
    if sc.allocation_method == Method.INFO_CONTINUOUS:
        return information_continuous_blocks(inputs[0], sc.total_q, inputs[1])
    exps, shares = inputs
    return _balanced_blocks(exps[0], sc.total_q, shares)
