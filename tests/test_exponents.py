import math
import os
import subprocess
import sys

import mpmath
import numpy as np
import pytest

import hopbound

from hopbound.channel import ChannelError, HopChannel, capacity, e0_derivative
from hopbound.exponents import (Regime, critical_rate, random_coding_exponent,
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
