import contextlib
import fractions
import math
import os
import re
import subprocess
import sys
import tracemalloc
import types

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hopbound

from hopbound.channel import (ChannelError, HopChannel, capacity, e0_derivative, e0_dmc,
                              e0_dmc_terms, e0_terms)
from hopbound import channel, exponents
from hopbound.exponents import (ARRAY_MIN_HOPS, ExponentResult, Regime, critical_rate,
                                hop_exponents, random_coding_exponent,
                                sphere_packing_exponent)
from hopbound.oracle import GridSpec, grid_max_exponent
from hopbound.scenario import _solve

SNR1 = HopChannel.awgn(1.0)
R_CR = math.log(1.5) - 1.0 / 6.0


class TestRandomCoding:
    def test_zero_at_capacity(self):
        res = random_coding_exponent(math.log(2.0), SNR1)
        assert res.exponent == 0.0
        assert res.regime == Regime.ZERO_ABOVE_CAPACITY

    def test_clamped_regime(self):
        res = random_coding_exponent(0.1, SNR1)
        assert res.exponent == pytest.approx(math.log(1.5) - 0.1, abs=1e-12)
        assert res.rho_star == 1.0
        assert res.regime == Regime.RHO_CLAMPED_AT_ONE

    def test_interior_matches_grid_oracle(self):
        # frozen from the dense-grid oracle (step 1e-6 over [0, 1])
        res = random_coding_exponent(0.5, SNR1)
        assert res.exponent == pytest.approx(0.021947676659766, abs=1e-8)
        g_val, _ = grid_max_exponent(0.5, SNR1, GridSpec(0.0, 1.0, 1e-6))
        assert res.exponent == pytest.approx(g_val, abs=1e-8)

    def test_interior_matches_awgn_closed_form(self):
        res = random_coding_exponent(0.5, SNR1)
        rho = res.rho_star
        closed = rho ** 2 * 1.0 / ((1 + rho) * (2 + rho))
        assert res.exponent == pytest.approx(closed, abs=1e-10)

    def test_negative_rate_rejected(self):
        with pytest.raises(ChannelError):
            random_coding_exponent(-0.1, SNR1)

    @pytest.mark.parametrize("solver", [random_coding_exponent, sphere_packing_exponent])
    def test_nan_rate_rejected(self, solver):
        with pytest.raises(ChannelError):
            solver(math.nan, SNR1)

    def test_low_rate_limit_is_e0_at_one(self):
        res = random_coding_exponent(1e-12, SNR1)
        assert res.exponent == pytest.approx(math.log(1.5), abs=1e-9)


class TestSpherePacking:
    def test_equals_rc_at_critical_rate(self):
        rc = random_coding_exponent(R_CR, SNR1)
        sp = sphere_packing_exponent(R_CR, SNR1)
        assert sp.exponent == pytest.approx(rc.exponent, abs=1e-9)

    def test_equals_rc_above_critical_rate(self):
        for rate in np.linspace(R_CR, 0.999 * math.log(2.0), 25):
            rc = random_coding_exponent(float(rate), SNR1)
            sp = sphere_packing_exponent(float(rate), SNR1)
            assert abs(rc.exponent - sp.exponent) <= 1e-9

    def test_exceeds_rc_below_critical_rate(self):
        rc = random_coding_exponent(0.05, SNR1)
        sp = sphere_packing_exponent(0.05, SNR1)
        assert sp.exponent > rc.exponent
        g_val, _ = grid_max_exponent(0.05, SNR1, GridSpec(0.0, 100.0, 1e-4))
        assert sp.exponent == pytest.approx(g_val, abs=1e-7)

    def test_nonpositive_rate_rejected(self):
        with pytest.raises(ChannelError):
            sphere_packing_exponent(0.0, SNR1)
        with pytest.raises(ChannelError):
            sphere_packing_exponent(-1.0, SNR1)

    def test_tiny_rates_are_not_capped(self):
        res = sphere_packing_exponent(1e-15, SNR1)
        assert res.regime == Regime.PARAMETRIC_INTERIOR
        assert res.rho_star > 1e6
        assert e0_derivative(res.rho_star, SNR1) == pytest.approx(1e-15, rel=1e-9)
        assert 0.0 < res.exponent < SNR1.snr  # E0(rho) -> snr as rho -> inf

    def test_forty_db_at_1e_7(self):
        res = sphere_packing_exponent(1e-7, HopChannel.awgn(1e4))
        assert res.exponent == pytest.approx(9995.52808356, rel=1e-11)
        assert res.rho_star == pytest.approx(2.2356248770e7, rel=1e-9)
        assert res.regime == Regime.PARAMETRIC_INTERIOR

    @pytest.mark.parametrize("hops", [1, ARRAY_MIN_HOPS - 1, ARRAY_MIN_HOPS])
    def test_a_root_past_the_last_bracket_end_raises(self, hops):
        # rho* ~ 1e450 at SNR 1e300 and 1e-300 nats, on the scalar and the array path;
        # RC does not fail there, and an Evaluation row solves it alone
        ch = HopChannel.awgn(1e300)
        with pytest.raises(ChannelError, match=r"rho\* exceeds 1.756e\+305"):
            sphere_packing_exponent(1e-300, ch)
        with pytest.raises(ChannelError, match=r"rho\* exceeds 1.756e\+305"):
            hop_exponents([1e-300] * hops, [ch] * hops)
        rc = random_coding_exponent(1e-300, ch)
        assert rc.regime == Regime.RHO_CLAMPED_AT_ONE
        assert TestHopExponents.assert_equals_per_hop_solves([1e-300] * hops, [ch] * hops) == (
            {Regime.RHO_CLAMPED_AT_ONE},)

    def test_zero_at_capacity(self):
        res = sphere_packing_exponent(math.log(2.0), SNR1)
        assert res.exponent == 0.0


def _outcome(solve, rate, ch):
    try:
        return solve(rate, ch)
    except ChannelError as exc:
        return str(exc)


def _separate_solves(rate, ch):
    return random_coding_exponent(rate, ch), sphere_packing_exponent(rate, ch)


def _hop_pairs(rates, chs):
    """(RC, SP) results per hop from one `hop_exponents` call."""
    rc, sp = hop_exponents(rates, chs)
    return [(ExponentResult(*r), ExponentResult(*p)) for r, p in zip(zip(*rc), zip(*sp))]


def _hop_pair(rate, ch):
    return _hop_pairs([rate], [ch])[0]


def _pair_rates(ch, fractions):
    """0, R_crit and its neighbouring doubles, C, 1.01 C and fractions of C."""
    cap, r_crit = capacity(ch), critical_rate(ch)
    return [0.0, r_crit, math.nextafter(r_crit, -math.inf), math.nextafter(r_crit, math.inf),
            cap, 1.01 * cap] + [f * cap for f in fractions]


_FRACTIONS = st.lists(st.floats(1e-6, 1.0), max_size=6)


class TestOnePass:
    """hop_exponents' one pass gives the two solvers' results (or SP's error), in
    the steps of the SP solve alone."""

    @settings(max_examples=60, deadline=None)
    @given(snr_db=st.floats(-10.0, 40.0), fractions=_FRACTIONS)
    def test_awgn_equals_separate_solves(self, snr_db, fractions):
        ch = HopChannel.awgn(10.0 ** (snr_db / 10.0))
        rates = _pair_rates(ch, fractions)
        for rate in rates:
            assert _outcome(_hop_pair, rate, ch) == _outcome(_separate_solves, rate, ch)
        # the valid rates in one call
        assert _hop_pairs(rates[1:], [ch] * (len(rates) - 1)) == [
            _separate_solves(r, ch) for r in rates[1:]]

    @settings(max_examples=40, deadline=None)
    @given(size=st.integers(2, 4), seed=st.integers(0, 2 ** 32 - 1),
           fractions=_FRACTIONS)
    def test_dmc_equals_separate_solves(self, size, seed, fractions):
        rng = np.random.default_rng(seed)
        transition = rng.dirichlet(np.full(size, 0.5), size=size)
        ch = HopChannel.dmc(transition, rng.dirichlet(np.ones(size)))
        rates = _pair_rates(ch, fractions)
        for rate in rates:
            assert _outcome(_hop_pair, rate, ch) == _outcome(_separate_solves, rate, ch)
        assert _hop_pairs(rates[1:], [ch] * (len(rates) - 1)) == [
            _separate_solves(r, ch) for r in rates[1:]]

    def test_a_nonpositive_rate_raises_the_sphere_packing_error(self):
        for rate in (0.0, -1.0):
            with pytest.raises(ChannelError,
                               match=f"^rate must be positive for sphere packing, got {rate}$"):
                _hop_pair(rate, SNR1)

    @pytest.mark.parametrize("copies", [1, ARRAY_MIN_HOPS])
    def test_takes_the_steps_of_the_sphere_packing_solves_alone(self, monkeypatch, copies):
        # RC's result is read at SP's first step, rho = 1, on the scalar path (6 hops)
        # and the array path (6 * ARRAY_MIN_HOPS); steps count per rho
        steps = []

        def counted_terms(ch):
            terms = e0_terms(ch)
            return lambda rho: steps.append(1) or terms(rho)
        monkeypatch.setattr(exponents, "e0_terms", counted_terms)
        array_step = exponents._awgn_terms
        monkeypatch.setattr(exponents, "_awgn_terms",
                            lambda rho, snr: steps.append(rho.size) or array_step(rho, snr))
        r_crit = critical_rate(SNR1)
        rates = [0.05, math.nextafter(r_crit, 0.0), r_crit, 0.3, math.log(2.0), 1.0]
        counts = []
        for solver in (random_coding_exponent, sphere_packing_exponent):
            steps.clear()
            for rate in rates:
                solver(rate, SNR1)
            counts.append(sum(steps))
        steps.clear()
        pairs = _hop_pairs(rates * copies, [SNR1] * (len(rates) * copies))
        assert counts[0] > 0 and sum(steps) == copies * counts[1]
        assert [rc.regime for rc, _ in pairs[:6]] == [Regime.RHO_CLAMPED_AT_ONE] * 2 + [
            Regime.PARAMETRIC_INTERIOR] * 2 + [Regime.ZERO_ABOVE_CAPACITY] * 2


def _batch_rates(rng, chs):
    """Per hop, one of 5e-324, 1e-300, 1e-9 C, R_crit and its neighbouring
    doubles, (1 - 1e-12) C, C, 1.01 C, or a uniform fraction of C."""
    rates = []
    for kind, ch in zip(rng.integers(0, 10, len(chs)).tolist(), chs):
        cap = capacity(ch)
        if 3 <= kind <= 5:
            r_crit = critical_rate(ch)
            rates.append([math.nextafter(r_crit, 0.0), r_crit,
                          math.nextafter(r_crit, math.inf)][kind - 3])
        else:
            rates.append({0: 5e-324, 1: 1e-300, 2: 1e-9 * cap, 6: (1.0 - 1e-12) * cap,
                          7: cap, 8: 1.01 * cap}.get(kind, float(rng.uniform()) * cap))
    return rates


_INVALID_RATES = (math.nan, -math.inf, -1.0, -5e-324, -0.0, 0.0)


def _mixed_chain(size):
    """AWGN hops from -10 to 40 dB with a BSC every fifth hop."""
    return [HopChannel.bsc(0.01 + 0.1 * (k * 0.618 % 1.0)) if k % 5 == 4
            else HopChannel.awgn(10.0 ** ((k * 0.618 % 1.0) * 5.0 - 1.0)) for k in range(size)]


@contextlib.contextmanager
def _counted_array_calls():
    """Patch `exponents._array_exponents` to record each call's number of rates."""
    calls = []
    solve = exponents._array_exponents

    def counted(rates, *args):
        calls.append(len(rates))
        return solve(rates, *args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(exponents, "_array_exponents", counted)
        yield calls


class TestHopExponents:
    """hop_exponents equals the per-hop solves of both families bit for bit, SP's
    errors included."""

    @staticmethod
    def assert_equals_per_hop_solves(rates, chs):
        """Returns the sets of RC's and SP's regimes, or of RC's alone where SP fails
        (an Evaluation row then solves RC alone and keeps SP's error); None where RC
        fails too."""
        def same_error(got, exc):
            return type(got) is type(exc) and str(got) == str(exc)

        expected = []
        for solve in (random_coding_exponent, sphere_packing_exponent):
            try:
                expected.append([solve(r, ch) for r, ch in zip(rates, chs)])
            except ChannelError as exc:
                expected.append(exc)
        if isinstance(expected[1], ChannelError):
            # the Evaluation's solve: hop_exponents' error is sp, and RC is solved alone
            ev = types.SimpleNamespace(scenarios=[types.SimpleNamespace(hops=chs)], solved={})
            [[rc, sp]] = _solve(ev, [0], [rates])
            assert same_error(sp, expected.pop())
            if isinstance(expected[0], ChannelError):
                assert same_error(rc, expected[0])
                return None
            got = [rc]
        else:
            got = hop_exponents(rates, chs)
        for (exponent, rho_star, regime), results in zip(got, expected):
            # bitwise, so NaN payloads and signed zeros count too
            assert np.array(exponent).tobytes() == np.array(
                [r.exponent for r in results]).tobytes()
            assert np.array(rho_star).tobytes() == np.array(
                [r.rho_star for r in results]).tobytes()
            assert regime == [r.regime for r in results]
        return tuple(set(regime) for _, _, regime in got)

    @settings(max_examples=60, deadline=None)
    @given(size=st.sampled_from([1, ARRAY_MIN_HOPS - 1, ARRAY_MIN_HOPS, 1000]),
           seed=st.integers(0, 2 ** 32 - 1),
           invalid=st.lists(st.tuples(st.floats(0.0, 1.0, exclude_max=True),
                                      st.sampled_from(_INVALID_RATES)), max_size=2))
    def test_equals_per_hop_solves(self, size, seed, invalid):
        rng = np.random.default_rng(seed)
        chs = [HopChannel.awgn(10.0 ** (x / 10.0)) for x in rng.uniform(-10.0, 40.0, size)]
        rates = _batch_rates(rng, chs)
        for where, bad in invalid:
            rates[int(where * size)] = bad
        self.assert_equals_per_hop_solves(rates, chs)

    @pytest.mark.parametrize("ch", [HopChannel.awgn(10.0), HopChannel.bsc(0.05)],
                             ids=["awgn", "dmc"])
    @pytest.mark.parametrize("rates,n_hops,match", [
        ([0.3], 2, r"rates and hops differ in length \(1 and 2\)"),
        ([0.3, 0.2], 1, r"rates and hops differ in length \(2 and 1\)")],
        ids=["fewer_rates", "fewer_hops"])
    def test_list_lengths_must_agree(self, ch, rates, n_hops, match):
        with pytest.raises(ValueError, match=match):
            hop_exponents(rates, [ch] * n_hops)

    @pytest.mark.parametrize("bad", [{4: 0.0, 50: -1.0}, {50: 0.0, 4: -1.0}, {49: math.nan},
                                     {}])
    def test_mixed_chain_keeps_the_hop_order(self, bad):
        # 96 AWGN hops take the array pass, so an array error must not come
        # before a BSC hop's: SP fails first at the lower of the two hops
        chs = _mixed_chain(120)
        rates = [f * capacity(ch) for f, ch in zip(np.linspace(0.05, 1.01, 120), chs)]
        for hop, rate in bad.items():
            rates[hop] = rate
        with _counted_array_calls() as array_hops:
            self.assert_equals_per_hop_solves(rates, chs)
        assert array_hops == ([] if bad else [96] + [1] * 24)  # one pass per group

    def test_reaches_every_regime(self):
        rng = np.random.default_rng(0)
        chs = [HopChannel.awgn(10.0 ** (x / 10.0)) for x in np.linspace(-10.0, 40.0, 400)]
        rates = _batch_rates(rng, chs)
        assert self.assert_equals_per_hop_solves(rates, chs) == (
            {Regime.ZERO_ABOVE_CAPACITY, Regime.RHO_CLAMPED_AT_ONE, Regime.PARAMETRIC_INTERIOR},
            {Regime.ZERO_ABOVE_CAPACITY, Regime.PARAMETRIC_INTERIOR})
        # E_sp = +inf below a DMC's R_inf = ln 1.5 (capacity 0.598)
        chs = [HopChannel.dmc([[0.8, 0.2, 0.0], [0.0, 0.8, 0.2], [0.2, 0.0, 0.8]])] * 4
        rates = [0.1, 0.5, 0.59, 0.6]
        assert self.assert_equals_per_hop_solves(rates, chs) == (
            {Regime.ZERO_ABOVE_CAPACITY, Regime.RHO_CLAMPED_AT_ONE, Regime.PARAMETRIC_INTERIOR},
            {Regime.ZERO_ABOVE_CAPACITY, Regime.INFINITE_BELOW_R_INF, Regime.PARAMETRIC_INTERIOR})

    def test_empty_batch(self):
        assert hop_exponents([], []) == ([[], [], []], [[], [], []])

    @pytest.mark.parametrize("rate", [True, False, np.True_, "0.1", None, 1j, [0.1]])
    def test_a_bool_or_non_real_rate_raises(self, rate):
        # as the scenario loader and the allocation budget reject a bool
        match = f"^rate must be a real number, got {re.escape(repr(rate))}$"
        for solver in (random_coding_exponent, sphere_packing_exponent):
            with pytest.raises(ChannelError, match=match):
                solver(rate, SNR1)
        for n in (1, ARRAY_MIN_HOPS):
            with pytest.raises(ChannelError, match=match):
                hop_exponents([0.1] * (n - 1) + [rate], [SNR1] * n)

    @pytest.mark.parametrize("rate", [10 ** 400, -(10 ** 400), fractions.Fraction(10 ** 400, 3)],
                             ids=["int", "negative_int", "fraction"])
    @pytest.mark.parametrize("entry", ["random_coding_exponent", "sphere_packing_exponent",
                                       "hop_exponents", "hop_exponents_array"])
    def test_a_rate_past_the_doubles_range_raises(self, entry, rate):
        # float(rate) raised OverflowError, not a domain error
        run = {"random_coding_exponent": lambda: random_coding_exponent(rate, SNR1),
               "sphere_packing_exponent": lambda: sphere_packing_exponent(rate, SNR1),
               "hop_exponents": lambda: hop_exponents([rate], [SNR1]),
               "hop_exponents_array": lambda: hop_exponents(
                   [0.1] * (ARRAY_MIN_HOPS - 1) + [rate], [SNR1] * ARRAY_MIN_HOPS)}[entry]
        with pytest.raises(ChannelError, match="^rate must convert to a double, got one past"):
            run()

    @pytest.mark.parametrize("rate", [np.float64(0.1), np.float32(0.1), np.int64(1), 1,
                                      fractions.Fraction(1, 10)])
    def test_numpy_floats_ints_and_other_reals_pass(self, rate):
        expected = [solver(float(rate), SNR1)
                    for solver in (random_coding_exponent, sphere_packing_exponent)]
        assert [solver(rate, SNR1)
                for solver in (random_coding_exponent, sphere_packing_exponent)] == expected
        for n in (1, ARRAY_MIN_HOPS):
            assert [ExponentResult(*(column[-1] for column in family))
                    for family in hop_exponents([rate] * n, [SNR1] * n)] == expected


def _random_dmc(inputs: int, outputs: int, seed: int) -> HopChannel:
    """A DMC with zero entries, outputs no input reaches and non-uniform
    inputs, some of which are never sent."""
    rng = np.random.default_rng(seed)
    p = rng.dirichlet(np.full(outputs, 0.5), size=inputs)
    p[rng.random(p.shape) < 0.3] = 0.0
    p[:, rng.random(outputs) < 0.2] = 0.0
    p[np.arange(inputs), rng.integers(0, outputs, inputs)] += 0.1  # no empty row
    q = rng.dirichlet(np.ones(inputs))
    q[rng.random(inputs) < 0.2] = 0.0
    q[rng.integers(0, inputs)] += 0.1
    return HopChannel.dmc(p / p.sum(axis=1, keepdims=True), q / q.sum())


@st.composite
def _dmcs(draw):
    """`_random_dmc`s of 2x2 to 8x8."""
    return _random_dmc(draw(st.integers(2, 8)), draw(st.integers(2, 8)),
                       draw(st.integers(0, 2 ** 32 - 1)))


def _dmc_rates(ch, fractions):
    """0, tiny rates, R_crit and its neighbouring doubles, C and its lower
    neighbour, 1.01 C, fractions of C and, if it is positive, R_inf, its
    neighbouring doubles and R_inf (1 + 1e-12)."""
    cap, r_inf = capacity(ch), ch._r_inf
    return _pair_rates(ch, fractions) + [5e-324, 1e-300, 1e-9 * cap, math.nextafter(cap, 0.0)] + (
        [math.nextafter(r_inf, 0.0), r_inf, math.nextafter(r_inf, 1.0), r_inf * (1 + 1e-12)]
        if r_inf else [])


def _dmc_step(ch, rho: float):
    """The DMC step (`e0_terms`'s formulas) at one rho, on (S, Y) arrays and Python
    floats: numpy's p ** 0.5 path, the float cube and libm's log of the total."""
    q, p, log_p = ch.input_dist[:, None], ch._reached, ch._log_reached
    t = 1.0 / (1.0 + rho)
    weighted = q * p ** t
    a = weighted.sum(axis=0)
    log_a = np.log(a)
    z = (1.0 + rho) * log_a
    top = float(z.max())
    e = np.exp(z - top)
    total = float(e.sum())
    w = weighted / a
    mean_w = (w * log_p).sum(axis=0)
    var_w = (w * (log_p - mean_w) ** 2).sum(axis=0)
    g = log_a - t * mean_w
    d1 = -float(e @ g) / total
    d2 = -float(e @ ((g + d1) ** 2 + t ** 3 * var_w)) / total
    return -(top + math.log(total)), d1, d2


class TestDmcArrayPath:
    """The hops of equal DMC channels are solved in one `_array_exponents`
    call on `e0_dmc_terms`, bit for bit the per-hop solves."""

    @settings(max_examples=60, deadline=None)
    @given(ch=_dmcs(), rhos=st.lists(st.floats(0.0, 50.0), max_size=8))
    @example(ch=HopChannel.dmc(np.random.default_rng(2024).dirichlet(np.ones(8), size=8)),
             rhos=[])
    def test_array_terms_equal_the_step_on_python_floats(self, ch, rhos):
        # e0_terms takes the array step at one rho: both equal the reference per rho
        rhos = [0.0, 1.0, 1e6] + rhos + np.geomspace(1e-4, 1e4, 100).tolist()
        expected = np.array([_dmc_step(ch, rho) for rho in rhos]).T
        terms = e0_terms(ch)
        for got in (e0_dmc_terms(ch)(np.array(rhos)), np.array([terms(r) for r in rhos]).T):
            for column, want in zip(got, expected):
                assert column.tobytes() == want.tobytes()

    @settings(max_examples=40, deadline=None)
    @given(ch=_dmcs(), step=st.integers(1, 5), slices=st.integers(1, 4),
           rhos=st.lists(st.floats(0.0, 50.0), min_size=1, max_size=8))
    # e0_dmc once took numpy's sqrt path for p ** 0.5 on a one-rho slice only
    @example(ch=_random_dmc(4, 6, 71), step=1, slices=2, rhos=[1.0])
    def test_slices_change_no_bit(self, ch, step, slices, rhos):
        # `step` rhos a slice, `slices` full slices and a last slice of one rho
        rho = np.resize(np.array(rhos), step * slices + 1)
        outputs = []
        for elements in (step * ch._reached.size, 2 ** 62):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(channel, "_SLICE_ELEMENTS", elements)
                outputs.append([a.tobytes() for a in (*e0_dmc_terms(ch)(rho), e0_dmc(rho, ch),
                                                      e0_derivative(rho, ch))])
        assert outputs[0] == outputs[1]
        # e0_derivative is the scalar step's slope per rho, whatever the slices
        terms = e0_terms(ch)
        assert outputs[0][4] == np.array([terms(r)[1] for r in rho.tolist()]).tobytes()

    @settings(max_examples=40, deadline=None)
    @given(ch=_dmcs(), fractions=st.lists(st.floats(1e-6, 1.0)))
    def test_equals_per_hop_solves(self, ch, fractions):
        rates = _dmc_rates(ch, fractions)
        chs = [ch] * len(rates)
        with _counted_array_calls() as calls:
            # rate 0 fails SP, so the whole call, before any pass
            TestHopExponents.assert_equals_per_hop_solves(rates, chs)
            TestHopExponents.assert_equals_per_hop_solves(rates[1:], chs[1:])
        if min(rates[1:]) > 0:  # not a channel of capacity 0, where R_crit = 0
            assert calls == [len(rates) - 1]

    @pytest.mark.parametrize("size", [1, 2, 50])
    def test_one_call_per_channel_object(self, size):
        ch = HopChannel.dmc([[0.8, 0.15, 0.05], [0.1, 0.7, 0.2], [0.0, 0.3, 0.7]],
                            [0.5, 0.3, 0.2])
        rates = np.linspace(0.01, 1.1, size).tolist()
        rates = [f * capacity(ch) for f in rates]
        with _counted_array_calls() as calls:
            TestHopExponents.assert_equals_per_hop_solves(rates, [ch] * size)
        assert calls == [size]
        # equal channels that are distinct objects share one call too
        with _counted_array_calls() as calls:
            TestHopExponents.assert_equals_per_hop_solves(
                rates, [HopChannel.dmc(ch.transition, ch.input_dist) for _ in rates])
        assert calls == [size]

    def test_interleaved_equal_objects_share_a_call_in_hop_order(self):
        # hops alternate between two equal objects, with a third, unequal channel and
        # AWGN hops between them: the equal objects' hops, out of order, take one call
        kinds = [HopChannel.bsc(0.1), HopChannel.bsc(0.1), HopChannel.bsc(0.2),
                 HopChannel.awgn(2.0)]
        chs = [kinds[k % 4] for k in range(24)]
        rates = [f * capacity(ch) for f, ch in zip(np.linspace(0.01, 0.95, 24), chs)]
        with _counted_array_calls() as calls:
            TestHopExponents.assert_equals_per_hop_solves(rates, chs)
        assert calls == [12, 6]

    @pytest.mark.parametrize("ch", [
        HopChannel.bsc(0.1), HopChannel.bsc(0.05),
        HopChannel.dmc(0.7 * np.eye(3) + 0.1, [1 / 3] * 3)], ids=["bsc_0.1", "bsc_0.05", "ternary"])
    def test_no_step_on_an_empty_set(self, monkeypatch, ch):
        # these sweeps, as curve_sweep's, end with a round whose bracket ends meet on every
        # element left: the pass stops there, before a step on zero rhos
        sizes = []
        step = exponents.e0_dmc_terms

        def counted(dmc):
            terms = step(dmc)
            return lambda rho: sizes.append(rho.size) or terms(rho)
        monkeypatch.setattr(exponents, "e0_dmc_terms", counted)
        rates = (np.linspace(0.01, 0.99, 80) * capacity(ch)).tolist()
        hop_exponents(rates, [ch] * 80)
        assert len(sizes) > 10 and 0 not in sizes

    @pytest.mark.parametrize("bad", [{3: 0.0, 20: -1.0}, {20: 0.0, 3: -1.0}, {16: math.nan},
                                     {}])
    def test_shared_objects_in_a_mixed_chain_keep_the_hop_order(self, bad):
        # two BSC objects on 10 hops each, between AWGN hops: each takes one array
        # call, and the first failing hop's error wins over both
        shared = [HopChannel.bsc(0.05), HopChannel.bsc(0.11, [0.3, 0.7])]
        chs = [shared[k % 3] if k % 3 < 2 else HopChannel.awgn(1.0 + k) for k in range(30)]
        rates = [f * capacity(ch) for f, ch in zip(np.linspace(0.005, 1.05, 30), chs)]
        for hop, rate in bad.items():
            rates[hop] = rate
        with _counted_array_calls() as calls:
            TestHopExponents.assert_equals_per_hop_solves(rates, chs)
        assert calls == ([] if bad else [10, 10])


@settings(max_examples=30, deadline=None)
@given(awgn_hops=st.sampled_from([ARRAY_MIN_HOPS - 1, ARRAY_MIN_HOPS]),
       snr_db=st.lists(st.floats(-10.0, 40.0), min_size=1, max_size=8),
       dmcs=st.lists(_dmcs(), max_size=2), seed=st.integers(0, 2 ** 32 - 1))
@example(awgn_hops=ARRAY_MIN_HOPS, snr_db=[-10.0, 40.0],
         dmcs=[HopChannel.dmc([[0.8, 0.2, 0.0], [0.0, 0.8, 0.2], [0.2, 0.0, 0.8]])], seed=0)
def test_one_pass_equals_per_hop_solves(awgn_hops, snr_db, dmcs, seed):
    # a shuffled chain: AWGN hops from -10 to 40 dB on both sides of ARRAY_MIN_HOPS, and
    # random DMCs (R_inf > 0 where an output misses an input), each at 1e-300, its
    # capacity, R_inf and its next double and fractions of capacity (if positive)
    rng = np.random.default_rng(seed)
    chs = [HopChannel.awgn(10.0 ** (snr_db[k % len(snr_db)] / 10.0)) for k in range(awgn_hops)]
    rates = [float(f) * capacity(ch) for f, ch in zip(rng.uniform(1e-6, 1.0, awgn_hops), chs)]
    rates[:2] = [1e-300, capacity(chs[1])]
    for ch in dmcs:
        cap, r_inf = capacity(ch), ch._r_inf
        dmc_rates = [1e-300] + [r for r in [cap, 0.5 * cap, 0.99 * cap] if r > 0] + (
            [r_inf, math.nextafter(r_inf, math.inf)] if r_inf else [])
        chs += [ch] * len(dmc_rates)
        rates += dmc_rates
    order = rng.permutation(len(chs)).tolist()
    got = TestHopExponents.assert_equals_per_hop_solves([rates[i] for i in order],
                                                         [chs[i] for i in order])
    assert got is not None


def _traced_peak_mib(fn) -> float:
    """The tracemalloc peak of fn() in MiB."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()


def _dmc_of_size(size: int) -> HopChannel:
    rng = np.random.default_rng(size)
    return HopChannel.dmc(rng.dirichlet(np.full(size, 0.5), size=size),
                          rng.dirichlet(np.ones(size)))


class TestDmcMemory:
    """The DMC array passes take their rhos in slices, so their (K, S, Y) arrays do
    not grow with the number K of rates or grid points."""

    def test_solve_peak_does_not_grow_with_the_rates(self):
        ch = _dmc_of_size(32)

        def solve(n):
            rates = (np.linspace(0.01, 0.99, n) * capacity(ch)).tolist()
            hop_exponents(rates, [ch] * n)
        few, many = (_traced_peak_mib(lambda: solve(n)) for n in (1024, 4096))
        assert many < 16 and many - few < 1, (few, many)

    def test_grid_peak_does_not_grow_with_the_alphabet(self):
        def grid(size):
            ch = _dmc_of_size(size)
            grid_max_exponent(0.3 * capacity(ch), ch, GridSpec(0.0, 1.0, 1.0 / 199_999))
        small, large = (_traced_peak_mib(lambda: grid(size)) for size in (3, 8))
        assert large < 1.1 * small, (small, large)


def _run_python(args, timeout):
    """Run the interpreter on `args` against this package; a hang fails the test."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(hopbound.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    try:
        return subprocess.run([sys.executable] + args, env=env, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        pytest.fail(f"still running after {timeout} s: {args}")


class TestLowRateBisection:
    """At large rho* the solver's bracket narrows to a few ulps of rho*."""

    def test_sphere_packing_returns_at_large_rho(self):
        code = ("from hopbound.channel import HopChannel\n"
                "from hopbound.exponents import sphere_packing_exponent\n"
                "r = sphere_packing_exponent(1e-5, HopChannel.awgn(100.0))\n"
                "print(r.rho_star, r.exponent, r.regime)\n")
        proc = _run_python(["-c", code], timeout=60)
        assert proc.returncode == 0, proc.stderr
        rho, exponent, regime = proc.stdout.split()
        assert float(rho) == pytest.approx(22516, rel=1e-3)
        assert regime == Regime.PARAMETRIC_INTERIOR
        ch = HopChannel.awgn(100.0)
        assert e0_derivative(float(rho), ch) == pytest.approx(1e-5, rel=1e-6)
        assert 0.0 < float(exponent) < ch.snr  # E0(rho) -> snr as rho -> inf

    def test_exponent_command_returns_at_large_rho(self, tmp_path):
        out = tmp_path / "sweep.csv"
        proc = _run_python(["-m", "hopbound.cli", "exponent", "--snr-db", "20",
                            "--rate-min", "1e-5", "--rate-max", "1e-4",
                            "--rate-steps", "4", "--out", str(out)], timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert len(out.read_text().splitlines()) == 5


_TERMINATION_CODE = """
import math, sys
import numpy as np
from hopbound.channel import HopChannel, capacity
from hopbound.exponents import random_coding_exponent, sphere_packing_exponent
ch = (HopChannel.awgn(1e4) if sys.argv[1] == "awgn"
      else HopChannel.dmc(0.7 * np.eye(3) + 0.1, [0.5, 0.3, 0.2]))
rate = {"tiny": 1e-300, "near_capacity": math.nextafter(capacity(ch), 0.0),
        "low": 1e-5}[sys.argv[2]]
for solver in (random_coding_exponent, sphere_packing_exponent):
    r = solver(rate, ch)
    print(r.exponent, r.rho_star, r.regime)
"""


@pytest.mark.parametrize("kind", ["awgn", "dmc"])
@pytest.mark.parametrize("rate", ["tiny", "near_capacity", "low"])
def test_solver_terminates_at_extreme_rates(kind, rate):
    # AWGN at 40 dB; a 3-ary symmetric DMC with a non-uniform input
    proc = _run_python(["-c", _TERMINATION_CODE, kind, rate], timeout=60)
    assert proc.returncode == 0, proc.stderr
    (e_rc, rho_rc, regime_rc), (e_sp, rho_sp, regime_sp) = (
        line.split() for line in proc.stdout.splitlines())
    assert all(math.isfinite(float(v)) and float(v) >= 0.0
               for v in (e_rc, rho_rc, e_sp, rho_sp))
    assert float(e_sp) >= float(e_rc)
    if rate == "tiny":
        assert (regime_rc, regime_sp) == (Regime.RHO_CLAMPED_AT_ONE, Regime.PARAMETRIC_INTERIOR)
    if rate == "near_capacity":
        assert regime_rc == regime_sp == Regime.PARAMETRIC_INTERIOR
        assert float(rho_rc) < 1e-12


def _mp_awgn_maximizer(rate: float, snr: float):
    """(E, rho*) for an AWGN hop by bisection on dE0/drho = rate, on 60 digits and
    the slope on 40 more than log10(1 + rho): its difference cancels about that many."""
    with mpmath.workdps(60):
        s, r = mpmath.mpf(snr), mpmath.mpf(rate)

        def slope(rho):
            with mpmath.workdps(40 + int(mpmath.log10(1 + rho))):
                return mpmath.log1p(s / (1 + rho)) - rho * s / ((1 + rho) * (1 + rho + s))
        lo, hi = mpmath.mpf(0), mpmath.mpf(1)
        while slope(hi) > r:
            lo, hi = hi, 2 * hi
        for _ in range(220):
            mid = (lo + hi) / 2
            if slope(mid) > r:
                lo = mid
            else:
                hi = mid
        rho = (lo + hi) / 2
        return rho * mpmath.log1p(s / (1 + rho)) - rho * r, rho


class TestAwgnMpmathReference:
    """Interior solves against references at the same double rate, from 1e-300
    nats, where rho* reaches 7e153, to 1 - 1e-9 of capacity.

    At 1 - 1e-9 of capacity E0(rho*) - rho* R cancels about 10 digits in
    double arithmetic, so only 1e-6 (E) and 1e-5 (rho*) are attainable there.
    """

    @pytest.mark.parametrize("solver,rate_of,tol_e,tol_rho", [
        pytest.param(solver, lambda cap, f=fraction: f * cap, tol_e, tol_rho,
                     id=f"{name}-{fraction:.9g}")
        for fraction, tol_e, tol_rho in [(1e-5, 1e-12, 1e-12), (1e-3, 1e-12, 1e-12),
                                         (0.5, 1e-12, 1e-12), (1 - 1e-9, 1e-6, 1e-5)]
        for name, solver in [("rc", random_coding_exponent), ("sp", sphere_packing_exponent)]
        # the random-coding maximizer is clamped at rho = 1 at the two low rates
        if name == "sp" or fraction >= 0.5] + [
        # rates in nats, where RC is clamped at every SNR
        pytest.param(sphere_packing_exponent, lambda cap, r=rate: r, 1e-12, 1e-9,
                     id=f"sp-{rate:g}-nats") for rate in (1e-300, 1e-100, 1e-40, 1e-16, 1e-7)])
    def test_matches_mpmath(self, solver, rate_of, tol_e, tol_rho):
        checked = 0
        for snr_db in range(-10, 45, 5):
            ch = HopChannel.awgn(10.0 ** (snr_db / 10.0))
            rate = rate_of(capacity(ch))
            res = solver(rate, ch)
            if res.regime != Regime.PARAMETRIC_INTERIOR:
                continue
            e_ref, rho_ref = _mp_awgn_maximizer(rate, ch.snr)
            assert abs(res.exponent - e_ref) <= tol_e * e_ref, (snr_db, res)
            assert abs(res.rho_star - rho_ref) <= tol_rho * rho_ref, (snr_db, res)
            checked += 1
        assert checked > 0


# R_inf = ln 1.5, 0.68 of the capacity; and R_inf = C = ln 2
SPARSE3 = HopChannel.dmc([[0.8, 0.2, 0.0], [0.0, 0.8, 0.2], [0.2, 0.0, 0.8]])
TWO_OF_FOUR = HopChannel.dmc([[0.5, 0.5, 0.0, 0.0], [0.0, 0.5, 0.5, 0.0],
                              [0.0, 0.0, 0.5, 0.5], [0.5, 0.0, 0.0, 0.5]])


def _mp_dmc(ch):
    """(q(x), p(.|x)) of the sent inputs and the reached outputs, as 80-digit numbers."""
    with mpmath.workdps(80):
        rows = [(mpmath.mpf(qx), [mpmath.mpf(v) for v in row])
                for qx, row in zip(ch.input_dist.tolist(), ch.transition.tolist()) if qx > 0]
    outputs = [y for y in range(ch.transition.shape[1]) if any(row[y] > 0 for _, row in rows)]
    return rows, outputs


def _mp_dmc_maximizer(rate: float, ch: HopChannel):
    """(E, rho*) for a DMC hop by an 80-digit bisection on dE0/drho = rate, with
    dE0/drho = -E_pi[ln a_y - t E_w[ln p | y]] (`e0_terms`)."""
    rows, outputs = _mp_dmc(ch)
    with mpmath.workdps(80):
        r = mpmath.mpf(rate)

        def e0_slope(rho):
            t, a, g = 1 / (1 + rho), [], []
            for y in outputs:
                terms = [(qx * row[y] ** t, mpmath.log(row[y])) for qx, row in rows if row[y] > 0]
                a.append(mpmath.fsum(w for w, _ in terms))
                g.append(mpmath.log(a[-1]) - t * mpmath.fsum(w * lp for w, lp in terms) / a[-1])
            z = [(1 + rho) * mpmath.log(a_y) for a_y in a]
            e = [mpmath.exp(z_y - max(z)) for z_y in z]
            return (-(max(z) + mpmath.log(mpmath.fsum(e))),
                    -mpmath.fsum(e_y * g_y for e_y, g_y in zip(e, g)) / mpmath.fsum(e))
        lo, hi = mpmath.mpf(0), mpmath.mpf(1)
        while e0_slope(hi)[1] > r:
            lo, hi = hi, 2 * hi
        for _ in range(200):
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if e0_slope(mid)[1] > r else (lo, mid)
        rho = (lo + hi) / 2
        return e0_slope(rho)[0] - rho * r, rho


def _mp_sup_at_r_inf(ch: HopChannel):
    """sup of E0(rho) - rho R_inf: R_inf - ln sum over the outputs y of largest
    phi_y = sum_x q(x) [p(y|x) > 0] of exp(sum_x q(x) ln p(y|x) / phi_y)."""
    rows, outputs = _mp_dmc(ch)
    with mpmath.workdps(80):
        phi = {y: mpmath.fsum(qx for qx, row in rows if row[y] > 0) for y in outputs}
        top = max(phi.values())
        return -mpmath.log(top) - mpmath.log(mpmath.fsum(
            mpmath.exp(mpmath.fsum(qx * mpmath.log(row[y]) for qx, row in rows if row[y] > 0)
                       / top) for y in outputs if phi[y] == top))


class TestDmcMpmathReference:
    """The sphere-packing exponent of DMCs whose every output some input misses:
    +inf below R_inf, and finite, against 80-digit references, above it."""

    def test_r_inf(self):
        assert SPARSE3._r_inf == pytest.approx(math.log(1.5), rel=1e-15)
        assert TWO_OF_FOUR._r_inf == pytest.approx(math.log(2.0), rel=1e-15)
        assert HopChannel.bsc(0.1)._r_inf == HopChannel.awgn(1.0)._r_inf == 0.0

    @pytest.mark.parametrize("ch,rates", [
        (SPARSE3, [1e-300, 0.1, math.nextafter(math.log(1.5), 0.0)]),
        (TWO_OF_FOUR, [1e-300, 0.3, math.nextafter(capacity(TWO_OF_FOUR), 0.0)])],
        ids=["sparse3", "two_of_four"])
    def test_infinite_below_r_inf(self, ch, rates):
        for rate in rates:
            assert sphere_packing_exponent(rate, ch) == ExponentResult(
                math.inf, math.inf, Regime.INFINITE_BELOW_R_INF)
        TestHopExponents.assert_equals_per_hop_solves(rates, [ch] * len(rates))
        assert sphere_packing_exponent(capacity(ch), ch).regime == Regime.ZERO_ABOVE_CAPACITY

    @pytest.mark.parametrize("k", range(1, 13))
    def test_matches_mpmath_above_r_inf(self, k):
        rate = SPARSE3._r_inf * (1 + 10.0 ** -k)
        res = sphere_packing_exponent(rate, SPARSE3)
        e_ref, rho_ref = _mp_dmc_maximizer(rate, SPARSE3)
        assert res.regime == Regime.PARAMETRIC_INTERIOR
        assert abs(res.exponent - e_ref) <= 1e-9 * e_ref, (res, e_ref)
        assert abs(res.rho_star - rho_ref) <= 1e-3 * rho_ref, (res, rho_ref)

    def test_value_at_r_inf(self):
        # the supremum, ln 1.25 = 0.22314355..., is approached as rho -> inf; the
        # solve stops where the float slope reaches R_inf, at rho* = 8.1e8, with
        # E0 - rho R = 0.2231435776, as E0 ~ 3e8 leaves ~eps * 3e8 of its difference
        res = sphere_packing_exponent(SPARSE3._r_inf, SPARSE3)
        assert float(_mp_sup_at_r_inf(SPARSE3)) == pytest.approx(math.log(1.25), rel=1e-15)
        assert res.regime == Regime.PARAMETRIC_INTERIOR
        assert res.exponent == pytest.approx(math.log(1.25), abs=1e-7)

    @pytest.mark.parametrize("rate", [1e-20, 1e-100, 5e-324])
    def test_bsc_at_vanishing_rates(self, rate):
        # E_sp(0+) = -ln 2 - ln(p(1 - p)) / 2 on BSC(p) with a uniform input
        res = sphere_packing_exponent(rate, HopChannel.bsc(0.1))
        assert res.regime == Regime.PARAMETRIC_INTERIOR
        assert abs(res.exponent - (-math.log(2.0) - 0.5 * math.log(0.1 * 0.9))) <= 1e-7


class TestCriticalRate:
    def test_awgn_closed_form(self):
        assert critical_rate(SNR1) == pytest.approx(R_CR, abs=1e-12)

    def test_vanishing_channel(self):
        assert critical_rate(HopChannel.awgn(1e-9)) < 1e-9

    def test_bsc_matches_derivative(self):
        ch = HopChannel.bsc(0.1)
        assert critical_rate(ch) == pytest.approx(e0_derivative(1.0, ch), abs=1e-12)

    def test_below_capacity(self):
        for snr in (0.1, 1.0, 10.0, 100.0):
            ch = HopChannel.awgn(snr)
            assert 0.0 <= critical_rate(ch) <= capacity(ch)


class TestProperties:
    def test_sp_dominates_rc(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            snr = float(10.0 ** rng.uniform(-1, 2))
            ch = HopChannel.awgn(snr)
            rate = float(rng.uniform(0.01, 0.99)) * capacity(ch)
            rc = random_coding_exponent(rate, ch)
            sp = sphere_packing_exponent(rate, ch)
            assert sp.exponent >= rc.exponent - 1e-10

    def test_nonincreasing_convex_in_rate(self):
        ch = HopChannel.awgn(2.0)
        rates = np.linspace(0.01, 0.99 * capacity(ch), 200)
        for solver in (random_coding_exponent, sphere_packing_exponent):
            vals = [solver(float(r), ch).exponent for r in rates]
            diffs = np.diff(vals)
            assert np.all(diffs <= 1e-9)
            slopes = diffs / np.diff(rates)
            assert np.all(np.diff(slopes) >= -1e-9)

    def test_parametric_consistency(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            snr = float(10.0 ** rng.uniform(-1, 2))
            ch = HopChannel.awgn(snr)
            rate = float(rng.uniform(0.3, 0.95)) * capacity(ch)
            res = random_coding_exponent(rate, ch)
            if res.regime == Regime.PARAMETRIC_INTERIOR:
                assert e0_derivative(res.rho_star, ch) == pytest.approx(rate, abs=1e-9)

    def test_grid_oracle_equivalence_sample(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            snr = float(10.0 ** rng.uniform(-1, 2))
            ch = HopChannel.awgn(snr)
            rate = float(rng.uniform(0.05, 0.95)) * capacity(ch)
            rc = random_coding_exponent(rate, ch)
            g_val, _ = grid_max_exponent(rate, ch, GridSpec(0.0, 1.0, 1e-5))
            assert rc.exponent == pytest.approx(g_val, abs=1e-8)

    def test_dmc_channels_supported(self):
        ch = HopChannel.bsc(0.05)
        rate = 0.5 * capacity(ch)
        rc = random_coding_exponent(rate, ch)
        sp = sphere_packing_exponent(rate, ch)
        assert 0 < rc.exponent <= sp.exponent + 1e-10
