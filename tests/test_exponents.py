import contextlib
import math
import os
import subprocess
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hopbound

from hopbound.channel import (ChannelError, HopChannel, capacity, e0_derivative,
                              e0_dmc_terms, e0_terms)
from hopbound import exponents
from hopbound.exponents import (ARRAY_MIN_HOPS, ExponentResult, Regime, critical_rate,
                                hop_exponents, random_coding_exponent,
                                sphere_packing_exponent)
from hopbound.oracle import GridSpec, grid_max_exponent

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

    def test_rho_cap_for_tiny_rates(self):
        res = sphere_packing_exponent(1e-15, SNR1)
        assert res.regime == Regime.RHO_CAPPED
        assert res.rho_star == 1e6
        assert math.isfinite(res.exponent)

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
    """(RC, SP) results per hop from one `hop_exponents` call per family, SP
    taking the RC results."""
    rc = hop_exponents(rates, chs, "r")
    sp = hop_exponents(rates, chs, "sp", rc)
    return [(ExponentResult(*r), ExponentResult(*p)) for r, p in zip(zip(*rc), zip(*sp))]


def _hop_pair(rate, ch):
    return _hop_pairs([rate], [ch])[0]


def _pair_rates(ch, fractions):
    """0, R_crit and its neighbouring doubles, C, 1.01 C and fractions of C."""
    cap, r_crit = capacity(ch), critical_rate(ch)
    return [0.0, r_crit, math.nextafter(r_crit, -math.inf), math.nextafter(r_crit, math.inf),
            cap, 1.01 * cap] + [f * cap for f in fractions]


_FRACTIONS = st.lists(st.floats(1e-6, 1.0), max_size=6)


class TestSpherePackingReuse:
    """hop_exponents' SP solve given the RC results gives the two solvers'
    results (or errors), solving SP only below the critical rate."""

    @settings(max_examples=60, deadline=None)
    @given(snr_db=st.floats(-10.0, 40.0), fractions=_FRACTIONS)
    def test_awgn_equals_separate_solves(self, snr_db, fractions):
        ch = HopChannel.awgn(10.0 ** (snr_db / 10.0))
        rates = _pair_rates(ch, fractions)
        for rate in rates:
            assert _outcome(_hop_pair, rate, ch) == _outcome(_separate_solves, rate, ch)
        # the valid rates in one call per family
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

    def test_rate_zero_raises_the_sphere_packing_error(self):
        with pytest.raises(ChannelError, match="rate must be positive for sphere packing"):
            _hop_pair(0.0, SNR1)
        with pytest.raises(ChannelError, match="rate must be nonnegative"):
            _hop_pair(-1.0, SNR1)

    def test_solves_sphere_packing_only_below_the_critical_rate(self, monkeypatch):
        sp_rates = []

        def counted(rate, ch):
            sp_rates.append(rate)
            return sphere_packing_exponent(rate, ch)

        monkeypatch.setattr(exponents, "sphere_packing_exponent", counted)
        r_crit = critical_rate(SNR1)
        rates = [0.05, math.nextafter(r_crit, 0.0), r_crit, 0.3, math.log(2.0), 1.0]
        pairs = _hop_pairs(rates, [SNR1] * len(rates))
        assert sp_rates == rates[:2]
        assert [rc.regime for rc, _ in pairs] == [Regime.RHO_CLAMPED_AT_ONE] * 2 + [
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
    """hop_exponents equals the per-hop solves bit for bit, errors included,
    with and without the RC results for SP."""

    @staticmethod
    def assert_equals_per_hop_solves(rates, chs, family):
        solve = random_coding_exponent if family == "r" else sphere_packing_exponent
        try:
            rc = [hop_exponents(rates, chs, "r")] if family == "sp" else []
        except ChannelError:
            rc = []
        try:
            expected = [solve(r, ch) for r, ch in zip(rates, chs)]
        except ChannelError as exc:
            for given_rc in [None] + rc:
                with pytest.raises(ChannelError) as raised:
                    hop_exponents(rates, chs, family, given_rc)
                assert type(raised.value) is type(exc) and str(raised.value) == str(exc)
            return None
        for given_rc in [None] + rc:
            exponent, rho_star, regime = hop_exponents(rates, chs, family, given_rc)
            # bitwise, so NaN payloads and signed zeros count too
            assert np.array(exponent).tobytes() == np.array(
                [r.exponent for r in expected]).tobytes()
            assert np.array(rho_star).tobytes() == np.array(
                [r.rho_star for r in expected]).tobytes()
            assert regime == [r.regime for r in expected]
        return set(regime)

    @settings(max_examples=60, deadline=None)
    @given(size=st.sampled_from([1, ARRAY_MIN_HOPS - 1, ARRAY_MIN_HOPS, 1000]),
           seed=st.integers(0, 2 ** 32 - 1), family=st.sampled_from(["r", "sp"]),
           invalid=st.lists(st.tuples(st.floats(0.0, 1.0, exclude_max=True),
                                      st.sampled_from(_INVALID_RATES)), max_size=2))
    def test_equals_per_hop_solves(self, size, seed, family, invalid):
        rng = np.random.default_rng(seed)
        chs = [HopChannel.awgn(10.0 ** (x / 10.0)) for x in rng.uniform(-10.0, 40.0, size)]
        rates = _batch_rates(rng, chs)
        for where, bad in invalid:
            rates[int(where * size)] = bad
        self.assert_equals_per_hop_solves(rates, chs, family)

    @pytest.mark.parametrize("bad", [{4: 0.0, 50: -1.0}, {50: 0.0, 4: -1.0}, {49: math.nan},
                                     {}])
    def test_mixed_chain_keeps_the_hop_order(self, bad):
        # 96 AWGN hops take the array pass, so an array error must not come
        # before a BSC hop's: SP fails first at the lower of the two hops, RC
        # at the negative rate
        chs = _mixed_chain(120)
        rates = [f * capacity(ch) for f, ch in zip(np.linspace(0.05, 1.01, 120), chs)]
        for hop, rate in bad.items():
            rates[hop] = rate
        with _counted_array_calls() as array_hops:
            for family in ("r", "sp"):
                self.assert_equals_per_hop_solves(rates, chs, family)
        if not bad:
            assert 96 in array_hops

    def test_reaches_every_regime(self):
        rng = np.random.default_rng(0)
        chs = [HopChannel.awgn(10.0 ** (x / 10.0)) for x in np.linspace(-10.0, 40.0, 400)]
        rates = _batch_rates(rng, chs)
        assert self.assert_equals_per_hop_solves(rates, chs, "r") == {
            Regime.ZERO_ABOVE_CAPACITY, Regime.RHO_CLAMPED_AT_ONE, Regime.PARAMETRIC_INTERIOR}
        assert self.assert_equals_per_hop_solves(rates, chs, "sp") == {
            Regime.ZERO_ABOVE_CAPACITY, Regime.RHO_CAPPED, Regime.PARAMETRIC_INTERIOR}

    def test_empty_batch(self):
        assert hop_exponents([], [], "sp") == [[], [], []]

    def test_rejects_unknown_families(self):
        with pytest.raises(ValueError, match="family"):
            hop_exponents([0.1], [SNR1], "rc")


@st.composite
def _dmcs(draw):
    """DMCs of 2x2 to 8x8 with zero entries, outputs no input reaches and
    non-uniform inputs, some of which are never sent."""
    inputs, outputs = draw(st.integers(2, 8)), draw(st.integers(2, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    p = rng.dirichlet(np.full(outputs, 0.5), size=inputs)
    p[rng.random(p.shape) < 0.3] = 0.0
    p[:, rng.random(outputs) < 0.2] = 0.0
    p[np.arange(inputs), rng.integers(0, outputs, inputs)] += 0.1  # no empty row
    q = rng.dirichlet(np.ones(inputs))
    q[rng.random(inputs) < 0.2] = 0.0
    q[rng.integers(0, inputs)] += 0.1
    return HopChannel.dmc(p / p.sum(axis=1, keepdims=True), q / q.sum())


def _dmc_rates(ch, fractions):
    """0, tiny rates, R_crit and its neighbouring doubles, C and its lower
    neighbour, 1.01 C and fractions of C."""
    cap = capacity(ch)
    return _pair_rates(ch, fractions) + [5e-324, 1e-300, 1e-9 * cap, math.nextafter(cap, 0.0)]


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
    """The hops of one DMC channel object are solved in one `_array_exponents`
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
    @given(ch=_dmcs(), fractions=st.lists(st.floats(1e-6, 1.0)))
    def test_equals_per_hop_solves(self, ch, fractions):
        rates = _dmc_rates(ch, fractions)
        chs = [ch] * len(rates)
        with _counted_array_calls() as calls:
            TestHopExponents.assert_equals_per_hop_solves(rates, chs, "r")
            # SP without and with the RC results (rate 0 fails SP)
            TestHopExponents.assert_equals_per_hop_solves(rates[1:], chs[1:], "sp")
        if min(rates[1:]) > 0:  # not a channel of capacity 0, where R_crit = 0
            assert len(rates) in calls and len(rates) - 1 in calls

    @pytest.mark.parametrize("size", [1, 2, 50])
    def test_one_call_per_channel_object(self, size):
        ch = HopChannel.dmc([[0.8, 0.15, 0.05], [0.1, 0.7, 0.2], [0.0, 0.3, 0.7]],
                            [0.5, 0.3, 0.2])
        rates = np.linspace(0.01, 1.1, size).tolist()
        rates = [f * capacity(ch) for f in rates]
        with _counted_array_calls() as calls:
            for family in ("r", "sp"):
                TestHopExponents.assert_equals_per_hop_solves(rates, [ch] * size, family)
        assert size in calls and max(calls) == size
        # equal channels that are distinct objects take one call each
        with _counted_array_calls() as calls:
            TestHopExponents.assert_equals_per_hop_solves(
                rates, [HopChannel.dmc(ch.transition, ch.input_dist) for _ in rates], "r")
        assert calls == [1] * size

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
            TestHopExponents.assert_equals_per_hop_solves(rates, chs, "r")
        assert calls == ([] if bad else [10, 10])
        TestHopExponents.assert_equals_per_hop_solves(rates, chs, "sp")

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
        assert (regime_rc, regime_sp) == (Regime.RHO_CLAMPED_AT_ONE, Regime.RHO_CAPPED)
    if rate == "near_capacity":
        assert regime_rc == regime_sp == Regime.PARAMETRIC_INTERIOR
        assert float(rho_rc) < 1e-12


def _mp_awgn_maximizer(rate: float, snr: float):
    """(E, rho*) for an AWGN hop by a 60-digit bisection on dE0/drho = rate."""
    with mpmath.workdps(60):
        s, r = mpmath.mpf(snr), mpmath.mpf(rate)

        def slope(rho):
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
    """Interior solves against 60-digit references at the same double rate.

    At 1 - 1e-9 of capacity E0(rho*) - rho* R cancels about 10 digits in
    double arithmetic, so only 1e-6 (E) and 1e-5 (rho*) are attainable there.
    """

    @pytest.mark.parametrize("solver,fraction,tol_e,tol_rho", [
        pytest.param(solver, fraction, tol_e, tol_rho, id=f"{name}-{fraction:.9g}")
        for fraction, tol_e, tol_rho in [(1e-5, 1e-12, 1e-12), (1e-3, 1e-12, 1e-12),
                                         (0.5, 1e-12, 1e-12), (1 - 1e-9, 1e-6, 1e-5)]
        for name, solver in [("rc", random_coding_exponent), ("sp", sphere_packing_exponent)]
        # the random-coding maximizer is clamped at rho = 1 at the two low rates
        if name == "sp" or fraction >= 0.5])
    def test_matches_mpmath(self, solver, fraction, tol_e, tol_rho):
        checked = 0
        for snr_db in range(-10, 45, 5):
            ch = HopChannel.awgn(10.0 ** (snr_db / 10.0))
            rate = fraction * capacity(ch)
            res = solver(rate, ch)
            if res.regime != Regime.PARAMETRIC_INTERIOR:
                continue
            e_ref, rho_ref = _mp_awgn_maximizer(rate, ch.snr)
            assert abs(res.exponent - e_ref) <= tol_e * e_ref, (snr_db, res)
            assert abs(res.rho_star - rho_ref) <= tol_rho * rho_ref, (snr_db, res)
            checked += 1
        assert checked > 0


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
