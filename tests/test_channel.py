import dataclasses
import math
import pickle
import warnings

import mpmath
import numpy as np
import pytest

from hopbound.channel import (ChannelError, HopChannel, capacity, e0,
                              e0_awgn, e0_derivative, e0_dmc,
                              e0_terms)

# each hop's last output is unreached where its column is zero
CACHE_DMCS = [
    ([[0.9, 0.1], [0.2, 0.8]], None),
    ([[0.7, 0.3, 0.0], [0.1, 0.9, 0.0]], [0.25, 0.75]),
    ([[1.0, 0.0, 0.0], [0.0, 0.5, 0.5], [0.0, 0.0, 1.0]], [0.5, 0.0, 0.5]),
]


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


class TestDerivedConstants:
    """The capacity and DMC tables a channel derives once equal a fresh
    computation, and the dataclass behaves as one without them."""

    @staticmethod
    def fresh(ch):
        if ch.kind == "awgn":
            return float(np.log1p(ch.snr)), None, None
        p, q = ch.transition, ch.input_dist
        joint = q[:, None] * p
        with np.errstate(divide="ignore", invalid="ignore"):
            logratio = np.where(joint > 0, np.log(p / (q @ p)[None, :]), 0.0)
        reached = p[:, joint.sum(axis=0) > 0]
        return (float(np.sum(joint * logratio)), reached,
                np.log(np.where(reached > 0, reached, 1.0)))

    @pytest.mark.parametrize("transition,input_dist", CACHE_DMCS)
    def test_dmc_constants_equal_a_fresh_computation(self, transition, input_dist):
        ch = HopChannel.dmc(transition, input_dist)
        cap, reached, log_reached = self.fresh(ch)
        assert capacity(ch).hex() == cap.hex()
        for cached, expected in ((ch._reached, reached), (ch._log_reached, log_reached)):
            assert cached.tobytes() == expected.tobytes() and cached.shape == expected.shape
            assert not cached.flags.writeable

    def test_caller_arrays_cannot_drift_from_the_constants(self):
        transition, input_dist = np.array([[0.9, 0.1], [0.2, 0.8]]), np.array([0.3, 0.7])
        ch = HopChannel.dmc(transition, input_dist)
        transition[0], input_dist[:] = [0.5, 0.5], [0.5, 0.5]
        assert ch.transition[0, 0] == 0.9 and ch.input_dist[0] == 0.3
        assert capacity(ch) == self.fresh(ch)[0]
        assert not (ch.transition.flags.writeable or ch.input_dist.flags.writeable)

    @pytest.mark.parametrize("snr", [1e-3, 1.0, 10.0 ** 0.9, 1e4])
    def test_awgn_capacity_equals_a_fresh_computation(self, snr):
        assert capacity(HopChannel.awgn(snr)).hex() == float(np.log1p(snr)).hex()

    def test_fields_repr_eq_and_hash_see_only_the_four_fields(self):
        ch = HopChannel.awgn(2.0)
        assert [f.name for f in dataclasses.fields(HopChannel)] == [
            "kind", "snr", "transition", "input_dist"]
        assert repr(ch) == "HopChannel(kind='awgn', snr=2.0)"
        assert ch == HopChannel.awgn(2.0) and hash(ch) == hash(HopChannel.awgn(2.0))
        assert ch != HopChannel.awgn(3.0)
        dmc = HopChannel.dmc(*CACHE_DMCS[1])
        assert repr(dmc) == "HopChannel(kind='dmc', snr=None)"
        assert dmc == dmc
        with pytest.raises(TypeError):
            hash(dmc)  # the matrix fields are unhashable arrays

    @pytest.mark.parametrize("ch", [HopChannel.awgn(10.0 ** 0.6),
                                    HopChannel.dmc(*CACHE_DMCS[2])])
    def test_pickle_round_trip_keeps_the_constants(self, ch):
        back = pickle.loads(pickle.dumps(ch))
        assert back.kind == ch.kind and back.snr == ch.snr
        if ch.kind == "awgn":
            assert back == ch and hash(back) == hash(ch)
        else:
            assert np.array_equal(back.transition, ch.transition)
            assert np.array_equal(back.input_dist, ch.input_dist)
        assert capacity(back) == capacity(ch) == self.fresh(back)[0]
        assert e0_terms(back)(0.7) == e0_terms(ch)(0.7)

    def test_replace_derives_the_constants_again(self):
        ch = HopChannel.awgn(2.0)
        assert capacity(dataclasses.replace(ch, snr=5.0)) == float(np.log1p(5.0))
        assert dataclasses.replace(ch) == ch
        dmc = HopChannel.dmc(*CACHE_DMCS[1])
        assert dataclasses.replace(dmc) == dmc
        other = dataclasses.replace(dmc, input_dist=np.array([0.5, 0.5]))
        assert capacity(other) == self.fresh(other)[0] != capacity(dmc)
        with pytest.raises(ChannelError):
            dataclasses.replace(ch, snr=-1.0)


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
