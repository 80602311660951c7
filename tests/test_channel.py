import math
import warnings

import mpmath
import numpy as np
import pytest

from hopbound.channel import (ChannelError, HopChannel, capacity, e0,
                              e0_awgn, e0_derivative, e0_dmc,
                              e0_terms)


def bsc_e0_closed_form(rho, p):
    # binary symmetric channel with uniform input
    s = 1.0 / (1.0 + rho)
    return rho * math.log(2.0) - (1.0 + rho) * math.log(p ** s + (1.0 - p) ** s)


class TestE0Awgn:
    def test_zero_rho(self):
        assert e0_awgn(0.0, 1.0) == 0.0
        assert e0_awgn(0.0, 123.4) == 0.0

    def test_closed_form_values(self):
        assert e0_awgn(1.0, 1.0) == pytest.approx(math.log(1.5), abs=1e-12)
        assert e0_awgn(2.0, 3.0) == pytest.approx(2.0 * math.log(2.0), abs=1e-12)

    def test_domain_errors(self):
        with pytest.raises(ChannelError):
            e0_awgn(-0.1, 1.0)
        with pytest.raises(ChannelError):
            e0_awgn(1.0, 0.0)

    def test_bounded_by_snr(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            snr = float(10.0 ** rng.uniform(-2, 2))
            rho = float(rng.uniform(0, 10))
            assert e0_awgn(rho, snr) < snr

    def test_concave_nondecreasing(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            snr = float(10.0 ** rng.uniform(-1, 2))
            r1, r2, r3 = sorted(rng.uniform(0, 10, size=3))
            if r2 - r1 < 1e-6 or r3 - r2 < 1e-6:
                continue
            v1, v2, v3 = (e0_awgn(r, snr) for r in (r1, r2, r3))
            assert v1 <= v2 + 1e-12 <= v3 + 2e-12
            slope_a = (v2 - v1) / (r2 - r1)
            slope_b = (v3 - v2) / (r3 - r2)
            assert slope_b <= slope_a + 1e-9


class TestE0Dmc:
    def test_useless_channel(self):
        assert e0_dmc(1.0, HopChannel.bsc(0.5)) == pytest.approx(0.0, abs=1e-12)

    def test_noiseless_channel(self):
        assert e0_dmc(1.0, HopChannel.bsc(0.0)) == pytest.approx(math.log(2.0), abs=1e-12)

    def test_matches_bsc_closed_form(self):
        ch = HopChannel.bsc(0.1)
        for rho in (0.25, 0.5, 1.0, 2.0):
            assert e0_dmc(rho, ch) == pytest.approx(bsc_e0_closed_form(rho, 0.1), abs=1e-12)

    def test_zero_rho_is_zero(self):
        for p in (0.0, 0.1, 0.3, 0.5):
            assert e0_dmc(0.0, HopChannel.bsc(p)) == pytest.approx(0.0, abs=1e-12)

    def test_requires_dmc(self):
        with pytest.raises(ChannelError):
            e0_dmc(1.0, HopChannel.awgn(1.0))


class TestDerivative:
    def test_awgn_at_zero_is_mutual_information(self):
        assert e0_derivative(0.0, HopChannel.awgn(1.0)) == pytest.approx(
            math.log(2.0), abs=1e-12)

    def test_awgn_at_one(self):
        expected = math.log(1.5) - 1.0 / 6.0
        assert e0_derivative(1.0, HopChannel.awgn(1.0)) == pytest.approx(expected, abs=1e-12)

    def test_awgn_matches_finite_difference(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            snr = float(10.0 ** rng.uniform(-1, 2))
            rho = float(rng.uniform(0.01, 5))
            h = 1e-6
            fd = (e0_awgn(rho + h, snr) - e0_awgn(rho - h, snr)) / (2 * h)
            assert e0_derivative(rho, HopChannel.awgn(snr)) == pytest.approx(fd, abs=1e-6)

    def test_dmc_matches_finite_difference(self):
        ch = HopChannel.bsc(0.1)
        rho = 0.5
        h = 1e-4
        fd = (e0_dmc(rho + h, ch) - e0_dmc(rho - h, ch)) / (2 * h)
        assert e0_derivative(rho, ch) == pytest.approx(fd, abs=1e-6)

    def test_dmc_at_zero_is_capacity(self):
        for p in (0.05, 0.1, 0.25):
            ch = HopChannel.bsc(p)
            assert e0_derivative(0.0, ch) == pytest.approx(capacity(ch), abs=1e-12)

    def test_dmc_array_input(self):
        ch = HopChannel.bsc(0.1)
        rhos = np.array([[0.0, 0.5], [1.0, 2.0]])
        out = e0_derivative(rhos, ch)
        assert out.shape == (2, 2)
        assert out[1, 0] == e0_derivative(1.0, ch)


_DMC_CHANNELS = {
    "bsc": HopChannel.bsc(0.1),
    "ternary_symmetric": HopChannel.dmc(0.7 * np.eye(3) + 0.1),
    "dirichlet_8x8": HopChannel.dmc(np.random.default_rng(2024).dirichlet(np.ones(8), size=8)),
    "zero_entry": HopChannel.dmc([[1.0, 0.0], [0.3, 0.7]], [0.4, 0.6]),
}


def _mp_e0_dmc(rho, ch):
    p, q = ch.transition.tolist(), ch.input_dist.tolist()
    t = 1 / (1 + rho)
    inner = (mpmath.fsum(mpmath.mpf(q[x]) * mpmath.mpf(p[x][y]) ** t for x in range(len(q)))
             for y in range(len(p[0])))
    return -mpmath.log(mpmath.fsum(a ** (1 + rho) for a in inner))


@pytest.mark.parametrize("name", list(_DMC_CHANNELS))
@pytest.mark.parametrize("rho", [0.0, 0.3, 1.0, 7.0])
def test_dmc_terms_match_mpmath_derivatives(name, rho):
    """Tilted-distribution dE0/drho and d2E0/drho2 against 40-digit differentiation."""
    ch = _DMC_CHANNELS[name]
    value, slope, curve = e0_terms(ch)(rho)
    with mpmath.workdps(40):
        ref = [mpmath.diff(lambda r: _mp_e0_dmc(r, ch), rho, n) for n in (0, 1, 2)]
    assert value == pytest.approx(float(ref[0]), rel=1e-12, abs=1e-15)
    assert slope == pytest.approx(float(ref[1]), rel=1e-10)
    assert curve == pytest.approx(float(ref[2]), rel=1e-10)
    assert e0_derivative(rho, ch) == slope


def test_e0_dmc_noiseless_bsc_at_large_rho():
    # every a_y^(1+rho) underflows here; the log domain keeps E0 = rho ln 2
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value = e0_dmc(2000.0, HopChannel.bsc(0.0))
    assert value == pytest.approx(2000.0 * math.log(2.0), rel=1e-12)


@pytest.mark.parametrize("name", ["bsc", "ternary_symmetric", "zero_entry", "noiseless_bsc"])
def test_e0_dmc_matches_e0_terms(name):
    ch = HopChannel.bsc(0.0) if name == "noiseless_bsc" else _DMC_CHANNELS[name]
    rhos = np.array([0.0, 1e-3, 0.3, 1.0, 7.0, 50.0, 300.0, 2000.0])
    terms = e0_terms(ch)
    for rho, value in zip(rhos, e0_dmc(rhos, ch)):
        assert value == pytest.approx(terms(float(rho))[0], rel=1e-12, abs=1e-15)


def test_awgn_terms_match_closed_forms():
    rng = np.random.default_rng(4)
    for _ in range(50):
        snr = float(10.0 ** rng.uniform(-1, 4))
        rho = float(rng.uniform(0, 50))
        value, slope, curve = e0_terms(HopChannel.awgn(snr))(rho)
        assert value == pytest.approx(e0_awgn(rho, snr), rel=1e-15)
        assert slope == pytest.approx(e0_derivative(rho, HopChannel.awgn(snr)), rel=1e-13,
                                       abs=1e-16)
        with mpmath.workdps(40):
            ref = mpmath.diff(lambda r: r * mpmath.log1p(snr / (1 + r)), rho, 2)
        assert curve == pytest.approx(float(ref), rel=1e-12)


class TestCapacity:
    def test_awgn_zero_db(self):
        assert capacity(HopChannel.awgn(1.0)) == pytest.approx(math.log(2.0), abs=1e-12)

    def test_awgn_nine_db(self):
        snr = 10.0 ** 0.9
        assert capacity(HopChannel.awgn(snr)) == pytest.approx(math.log(1 + snr), abs=1e-12)
        assert capacity(HopChannel.awgn(snr)) == pytest.approx(2.1909, abs=1e-4)

    def test_noiseless_bsc(self):
        assert capacity(HopChannel.bsc(0.0)) == pytest.approx(math.log(2.0), abs=1e-12)

    def test_bsc_closed_form(self):
        p = 0.11
        expected = math.log(2.0) + p * math.log(p) + (1 - p) * math.log(1 - p)
        assert capacity(HopChannel.bsc(p)) == pytest.approx(expected, abs=1e-12)


class TestValidation:
    def test_awgn_needs_positive_snr(self):
        with pytest.raises(ChannelError):
            HopChannel.awgn(-1.0)

    @pytest.mark.parametrize("snr", [math.inf, math.nan])
    def test_awgn_needs_finite_snr(self, snr):
        with pytest.raises(ChannelError):
            HopChannel.awgn(snr)

    def test_rows_must_be_stochastic(self):
        with pytest.raises(ChannelError):
            HopChannel.dmc([[0.9, 0.2], [0.5, 0.5]])

    def test_negative_transition_rejected(self):
        with pytest.raises(ChannelError):
            HopChannel.dmc([[1.1, -0.1], [0.5, 0.5]])

    def test_input_dist_must_be_probability(self):
        with pytest.raises(ChannelError):
            HopChannel.dmc([[0.5, 0.5], [0.5, 0.5]], input_dist=[0.7, 0.7])

    def test_default_input_is_uniform(self):
        ch = HopChannel.dmc([[0.8, 0.2], [0.3, 0.7]])
        np.testing.assert_allclose(ch.input_dist, [0.5, 0.5])


def test_e0_dispatch_matches_kind():
    assert e0(1.0, HopChannel.awgn(1.0)) == e0_awgn(1.0, 1.0)
    ch = HopChannel.bsc(0.1)
    assert e0(1.0, ch) == e0_dmc(1.0, ch)
