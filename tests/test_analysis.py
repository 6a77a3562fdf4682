"""Tests for the closed-form outage machinery: thresholds, the exact
product form, the high-SNR asymptote, diversity order and coding gain."""

import contextlib
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from keyhole_harq import _array_path, analysis
from keyhole_harq.analysis import (
    asymptotic_outage,
    coding_gain,
    diversity_order,
    exact_outage,
    outage_curve,
    outage_threshold,
)
from keyhole_harq.errors import DomainError, UnsupportedConfigError
from keyhole_harq.keyhole import SystemConfig
from keyhole_harq.specfun import meijer_g_log_cdf

from _reference import outage_exact, square_bracket

# frozen single-round CDF value F(x=1) for n_t = n_r = 2 (50-digit oracle)
CDF_22_AT_1 = 0.21274872723484341956
SQRT2_OVER_14 = 0.10101525445522107491


def rel_err(got: float, want: float) -> float:
    return abs(got - want) / abs(want)


class TestOutageThreshold:
    def test_hand_value(self):
        config = SystemConfig.equal_snr(2, 3, 1, 3.0, 10.0)
        # n_t (2^R - 1) / snr = 2 * 7 / 10
        assert outage_threshold(config, 1) == pytest.approx(1.4, rel=1e-15)

    def test_per_round_snrs(self):
        config = SystemConfig(1, 1, 2, 1.0, (2.0, 8.0))
        assert outage_threshold(config, 1) == pytest.approx(0.5, rel=1e-15)
        assert outage_threshold(config, 2) == pytest.approx(0.125, rel=1e-15)

    def test_round_index_bounds(self):
        config = SystemConfig.equal_snr(2, 2, 2, 1.0, 1.0)
        for bad in (0, 3, -1):
            with pytest.raises(ValueError):
                outage_threshold(config, bad)

    def test_overflow_in_product_raises(self):
        # 2^R - 1 is finite at R = 1023.9 but n_t times it is not
        config = SystemConfig.equal_snr(16, 3, 1, 1023.9, 10.0)
        with pytest.raises(DomainError, match="outage threshold"):
            outage_threshold(config, 1)
        with pytest.raises(DomainError, match="outage threshold"):
            asymptotic_outage(config)


class TestExactOutage:
    def test_single_round_frozen_value(self):
        # threshold 2 (2^1 - 1) / 2 = 1
        config = SystemConfig.equal_snr(2, 2, 1, 1.0, 2.0)
        assert rel_err(exact_outage(config).value, CDF_22_AT_1) < 1e-13

    def test_equal_rounds_power(self):
        config = SystemConfig.equal_snr(2, 2, 3, 1.0, 2.0)
        assert rel_err(exact_outage(config).value, CDF_22_AT_1 ** 3) < 1e-12

    def test_product_structure(self):
        config = SystemConfig(2, 3, 2, 2.5, (3.0, 11.0))
        want = sum(
            meijer_g_log_cdf(2, 3, outage_threshold(config, k)) for k in (1, 2)
        )
        assert exact_outage(config).log_value == pytest.approx(want, rel=1e-14)

    @pytest.fixture
    def cdf_calls(self, monkeypatch):
        calls = []

        def counted(n_t, n_r, x):
            calls.append(x)
            return meijer_g_log_cdf(n_t, n_r, x)

        monkeypatch.setattr(analysis, "meijer_g_log_cdf", counted)
        return calls

    @pytest.mark.parametrize("n_t,n_r,snrs", [
        (2, 2, (10.0,) * 4),
        (16, 9, (3.0,) * 4),
        (2, 2, (2.0, 10.0, 31.6, 1e3)),
        (3, 5, (1.5, 7.0, 40.0, 1e4)),
    ])
    def test_one_cdf_per_distinct_threshold(self, cdf_calls, n_t, n_r, snrs):
        config = SystemConfig(n_t, n_r, len(snrs), 3.0, snrs)
        got = exact_outage(config).log_value
        assert len(cdf_calls) == len(set(snrs))
        want = 0.0
        for k in range(1, len(snrs) + 1):
            want += meijer_g_log_cdf(n_t, n_r, outage_threshold(config, k))
        assert got == want  # bitwise: same values, same round order

    def test_repeated_threshold_keeps_round_order(self, cdf_calls):
        config = SystemConfig(2, 3, 3, 2.5, (3.0, 11.0, 3.0))
        v1, v2 = (meijer_g_log_cdf(2, 3, outage_threshold(config, k))
                  for k in (1, 2))
        assert exact_outage(config).log_value == 0.0 + v1 + v2 + v1
        assert len(cdf_calls) == 2

    def test_against_independent_oracle(self):
        config = SystemConfig(2, 3, 2, 3.0, (3.1622776601683795, 3.1622776601683795))
        want = outage_exact(2, 3, [(3.0, g) for g in config.snr_per_round])
        assert rel_err(exact_outage(config).value, want) < 1e-10

    def test_zero_rate(self):
        config = SystemConfig.equal_snr(2, 2, 2, 0.0, 5.0)
        p = exact_outage(config)
        assert p.value == 0.0 and p.log_value == -math.inf

    def test_log_carrier_survives_underflow(self):
        # 3 rounds deep in the high-SNR regime: the linear value underflows
        # float64 but the log field keeps the full information
        config = SystemConfig.equal_snr(4, 4, 3, 1.0, 1e30)
        p = exact_outage(config)
        assert p.value == 0.0
        assert math.isfinite(p.log_value)
        assert p.log_value < -700.0


def _bits(v):
    return None if v is None else struct.pack("<d", v)


def _one_point_logs(n_t, n_r, k, rate, snrs):
    config = SystemConfig(n_t, n_r, k, rate, snrs)
    exact = exact_outage(config).log_value
    try:
        asy = asymptotic_outage(config).log_value
    except DomainError:
        asy = None
    return _bits(exact), _bits(asy)


@contextlib.contextmanager
def _dispatch_at(size):
    """``outage_curve`` with its array-path size set to ``size``."""
    saved = analysis._ARRAY_THRESHOLDS
    analysis._ARRAY_THRESHOLDS = size
    try:
        yield
    finally:
        analysis._ARRAY_THRESHOLDS = saved


def _on_both_paths(*args):
    """``outage_curve(*args)`` as dispatched, checked against the same call
    with every curve sent to the array path and with every curve sent to
    the one-point path: all three return the same bits, or raise errors of
    one type and message. Returns or raises the first."""
    results = []
    for size in (analysis._ARRAY_THRESHOLDS, 0, math.inf):
        with _dispatch_at(size):
            try:
                results.append(outage_curve(*args))
            except Exception as exc:  # compared below, then re-raised
                results.append(exc)
    got, *forced = results
    for other in forced:
        if isinstance(got, Exception):
            assert type(other) is type(got), (other, got)
            assert str(other) == str(got)
        else:
            assert not isinstance(other, Exception), other
            assert [list(map(_bits, c)) for c in other] == \
                [list(map(_bits, c)) for c in got]
    if isinstance(got, Exception):
        raise got
    return got


def _curve(n_t, n_r, k, points):
    """``outage_curve`` over (rate, snr_per_round) points, passed as
    columns: one rate column and one SNR column per round, on both paths
    (``_on_both_paths``). Returns the (log_exact, log_asymptotic) pair of
    each point."""
    rates = [rate for rate, _ in points]
    k_given = len(points[0][1])
    rounds = [[snrs[j] for _, snrs in points] for j in range(k_given)]
    return list(zip(*_on_both_paths(n_t, n_r, k, rates, rounds)))


def _assert_curve_matches_one_point(n_t, n_r, k, points):
    got = [(_bits(e), _bits(a)) for e, a in _curve(n_t, n_r, k, points)]
    want = [_one_point_logs(n_t, n_r, k, rate, snrs) for rate, snrs in points]
    assert got == want, (n_t, n_r, k)


def _assert_same_error(n_t, n_r, k, points):
    """outage_curve raises what the one-point calls in axis order raise."""
    with pytest.raises(ValueError) as want:
        for rate, snrs in points:
            exact_outage(SystemConfig(n_t, n_r, k, rate, snrs))
    with pytest.raises(ValueError) as got:
        _curve(n_t, n_r, k, points)
    assert type(got.value) is type(want.value)
    assert str(got.value) == str(want.value)


# -3 dB and 0 dB give square arrays a blank asymptote
SNR_DB = [-3.0] + [0.5 * i for i in range(141)]


class TestOutageCurve:
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_snr_axis_equals_one_point_calls(self, k):
        for n_t in range(1, 17):
            for n_r in range(1, 17):
                rate = 0.5 * ((3 * n_t + 5 * n_r + k) % 12)  # 0 included
                points = [(rate, (10.0 ** (db / 10.0),) * k) for db in SNR_DB]
                _assert_curve_matches_one_point(n_t, n_r, k, points)

    @pytest.mark.parametrize("n_t,n_r,gammas_db", [
        (2, 2, (3.0, 9.0)),
        (2, 2, (-1.0, 7.5, 7.5, 12.0)),
        (3, 5, (0.0, 4.0, 11.0)),
        (16, 9, (2.0, 6.0, 2.0, 20.0)),
        (1, 1, (30.0,)),
    ])
    def test_rate_axis_with_mixed_snrs(self, n_t, n_r, gammas_db):
        # as sweep-rate passes them: the rate changes at every point, the
        # per-round SNRs stay fixed
        snrs = tuple(10.0 ** (g / 10.0) for g in gammas_db)
        points = [(0.25 * i, snrs) for i in range(25)]
        _assert_curve_matches_one_point(n_t, n_r, len(snrs), points)

    @pytest.mark.parametrize("n,rate", [(2, 515.0), (2, 683.0), (4, 259.0)])
    def test_overflowing_asymptote_is_none(self, n, rate):
        points = [(rate, (10.0,))]
        (_, asy), = _curve(n, n, 1, points)
        assert asy is None
        _assert_curve_matches_one_point(n, n, 1, points)

    @pytest.mark.parametrize("n_t,n_r,k,points", [
        (0, 2, 1, [(3.0, (10.0,))]),
        (2, 2.5, 1, [(3.0, (10.0,))]),
        (2, 2, 0, [(3.0, ())]),
        (2, 2, 2, [(3.0, (10.0,))]),
        (2, 2, 1, [(-1.0, (10.0,))]),
        (2, 2, 1, [(3.0, (10.0,)), (math.nan, (10.0,))]),
        (2, 2, 1, [(3.0, (10.0,)), (3.0, (0.0,))]),
        (2, 2, 1, [(3.0, (10.0,)), (3.0, (math.inf,))]),
    ])
    def test_rejects_with_system_config_messages(self, n_t, n_r, k, points):
        with pytest.raises(ValueError) as want:
            for rate, snrs in points:
                SystemConfig(n_t, n_r, k, rate, snrs)
        with pytest.raises(ValueError) as got:
            _curve(n_t, n_r, k, points)
        assert str(got.value) == str(want.value)

    # A column is a float, or a sequence of n values that float() takes
    # (numpy arrays included); a str is one value. The curve answers with
    # the one-point calls' bits on the columns as given.
    @pytest.mark.parametrize("rate,rounds", [
        ([1, 2, 3], (10.0, 100.0)),
        (2.5, (np.array([2.0, 10.0, 1e3]), 50.0)),
        ("3.0", ([5.0, 50.0], [5.0, 50.0])),
    ], ids=["int-rate-list", "numpy-snr-column", "str-rate"])
    def test_accepted_columns(self, rate, rounds):
        def at(c, i):
            return c if isinstance(c, (float, str)) else c[i]

        got = _on_both_paths(2, 3, 2, rate, rounds)
        want = [_one_point_logs(2, 3, 2, at(rate, i),
                                [at(s, i) for s in rounds])
                for i in range(len(got[0]))]
        assert len(want) in (2, 3)
        assert [(_bits(e), _bits(a)) for e, a in zip(*got)] == want

    SHAPES = ("rate and each per-round SNR must be a float or a sequence of "
              "one common length; got shapes ")

    @pytest.mark.parametrize("rate,rounds,message", [
        ([[1.0], [2.0]], (10.0,), SHAPES + "[(2, 1)]"),
        (3.0, (np.full((2, 1), 10.0),), SHAPES + "[(2, 1)]"),
        (np.zeros((0, 3)), (10.0,), SHAPES + "[(0, 3)]"),
        ([1.0, 2.0], ([10.0, 20.0, 30.0],), SHAPES + "[(2,), (3,)]"),
        ([1.0, "abc"], (10.0,), "could not convert string to float: 'abc'"),
        # SystemConfig quotes a refused rate as given
        ([1, -1], (10.0,), "rate must be finite and >= 0, got -1"),
    ], ids=["2-d-rate", "2-d-snr", "empty-2-d-rate", "lengths-2-3", "abc",
            "int-rate"])
    def test_refused_columns(self, rate, rounds, message):
        with pytest.raises(ValueError) as got:
            _on_both_paths(2, 2, 1, rate, rounds)
        assert type(got.value) is ValueError
        assert str(got.value) == message

    @pytest.mark.parametrize("k", [1, 2])
    def test_empty_curve(self, k):
        # no points, nothing to raise: also where the SNR count would fail
        # SystemConfig at every point
        assert _on_both_paths(2, 2, k, 3.0, ([],)) == ([], [])
        assert _on_both_paths(2, 2, k, [], (10.0,)) == ([], [])
        assert _on_both_paths(2, 2, k, [], ()) == ([], [])

    def test_no_snr_column(self):
        with pytest.raises(ValueError, match=r"^snr_per_round has 0 entries "
                                             r"for 1 rounds$"):
            _on_both_paths(2, 2, 1, 3.0, ())

    def test_invalid_rate_between_valid_points(self):
        with pytest.raises(ValueError, match=r"^rate must be finite and >= 0, "
                                             r"got -1\.0$"):
            _on_both_paths(2, 2, 1, [3.0, -1.0, 3.0], (10.0,))

    @pytest.mark.parametrize("bad", [(-1.0, (10.0,)), (3.0, (0.0,))])
    def test_invalid_input_wins_over_later_cdf_error(self, bad):
        # at 16x16, rate 68 and 10 dB the gain CDF is beyond float64; the
        # invalid input one point earlier raises first
        points = [(3.0, (10.0,)), bad, (68.0, (10.0,))]
        with pytest.raises(DomainError):
            _curve(16, 16, 1, points[2:])
        with pytest.raises(ValueError) as got:
            _curve(16, 16, 1, points)
        assert type(got.value) is ValueError
        _assert_same_error(16, 16, 1, points)

    def test_asymptote_keeps_one_point_grouping(self):
        # the pre-curve per-point expressions, evaluated in full at each
        # point: hoisting the shape constants must not move a bit
        for n_t in range(1, 17):
            for n_r in range(1, 17):
                tau, m = abs(n_t - n_r), min(n_t, n_r)
                for snr in (1.5, 10.0, 1e3, 1e7):
                    t = n_t * (2.0 ** 2.5 - 1.0) / snr
                    if tau == 0:
                        want = (n_t * math.log(t) + math.log(math.log(snr))
                                - math.log(n_t) - 2.0 * math.lgamma(n_t))
                    else:
                        want = (math.lgamma(tau) - math.lgamma(n_t)
                                - math.lgamma(n_r) + m * math.log(t)
                                - math.log(m))
                    config = SystemConfig.equal_snr(n_t, n_r, 1, 2.5, snr)
                    got = asymptotic_outage(config).log_value
                    assert _bits(got) == _bits(0.0 + want), (n_t, n_r, snr)

    def test_exact_errors_propagate(self):
        # an outage threshold past float64 is an error of the exact column
        with pytest.raises(DomainError, match="outage threshold"):
            _curve(2, 2, 1, [(3.0, (10.0,)), (1024.0, (10.0,))])

    # point 3 (0-based) and point 5 each fail; the one-point loop in axis
    # order meets point 3 first, whichever kind of error it is
    CDF_EDGE = (68.0, (10.0,))            # 16x16: gain CDF beyond float64
    THRESHOLD_EDGE = (1024.0, (10.0,))    # 2^R overflows
    BAD_SNR = (3.0, (0.0,))
    BAD_RATE = (-1.0, (10.0,))

    @pytest.mark.parametrize("third,fifth", [
        (CDF_EDGE, BAD_SNR), (BAD_SNR, CDF_EDGE),
        (THRESHOLD_EDGE, BAD_RATE), (BAD_RATE, THRESHOLD_EDGE),
        (CDF_EDGE, THRESHOLD_EDGE), (BAD_SNR, BAD_RATE),
    ])
    def test_first_failing_point_wins(self, third, fifth):
        ok = (3.0, (10.0,))
        points = [ok, ok, ok, third, ok, fifth, ok]
        _assert_same_error(16, 16, 1, points)

    @pytest.mark.parametrize("snrs", [(10.0, 0.5), (0.5, 10.0), (0.5, 0.5)])
    def test_first_failing_round_wins(self, snrs):
        # at 16x16, rate 1019 the threshold overflows at snr 0.5 and the
        # CDF is beyond float64 at snr 10
        _assert_same_error(16, 16, 2, [(3.0, (10.0, 10.0)), (1019.0, snrs)])

    def test_cancellation_refusal_on_a_long_curve(self):
        # 32x32, rate 3 from 0 to 10 dB: thresholds 224/snr cross the range
        # the cancellation guard refuses (x from about 51 to the switch,
        # 136.6), and the curve is long enough to take the array path
        points = [(3.0, (10.0 ** (0.01 * i),)) for i in range(101)]
        assert len(points) >= analysis._ARRAY_THRESHOLDS
        with pytest.raises(DomainError, match="cancellation"):
            _curve(32, 32, 1, points)
        _assert_same_error(32, 32, 1, points)

    def test_shape_past_lgamma_reach(self):
        # lgamma(tau) overflows exp for tau = 199: every x > 0 is refused
        _assert_same_error(200, 1, 1, [(3.0, (10.0,))])
        (exact, asy), = _curve(200, 1, 1, [(0.0, (10.0,))])
        assert exact == -math.inf

    @pytest.mark.parametrize("n_t,n_r", [(2, 3), (2, 2)])
    def test_underflowed_threshold(self, n_t, n_r):
        # 2^R - 1 rounds to 0 for R = 1e-17: every threshold is 0, as at
        # rate 0, so both logs are -inf
        config = SystemConfig(n_t, n_r, 2, 1e-17, (10.0, 100.0))
        assert asymptotic_outage(config).log_value == -math.inf
        assert exact_outage(config).log_value == -math.inf
        points = [(1e-17, (10.0, 100.0)), (1e-17, (1e300, 1e300))]
        _assert_curve_matches_one_point(n_t, n_r, 2, points)

    @pytest.mark.parametrize("n_t,n_r,k", [(2, 2, 3), (3, 5, 4), (16, 9, 2)])
    def test_shared_round_column(self, n_t, n_r, k):
        # one column object for every round, as sweep-snr passes it, gives
        # the bits of K distinct equal columns and of the one-point calls
        snr = [10.0 ** (db / 10.0) for db in SNR_DB]
        shared = _on_both_paths(n_t, n_r, k, 2.5, (snr,) * k)
        distinct = _on_both_paths(n_t, n_r, k, 2.5,
                                [list(snr) for _ in range(k)])
        want = [_one_point_logs(n_t, n_r, k, 2.5, (g,) * k) for g in snr]
        for got in (shared, distinct):
            assert [(_bits(e), _bits(a)) for e, a in zip(*got)] == want

    @pytest.mark.parametrize("gammas", [(10.0, 10.0), (0.5, 10.0, 3.0)])
    def test_rate_column_with_per_round_floats(self, gammas):
        # as sweep-rate passes them: a rate column, one float per round
        rates = [0.25 * i for i in range(25)]
        for n_t, n_r in [(2, 2), (4, 1), (3, 5)]:
            got = _on_both_paths(n_t, n_r, len(gammas), rates, gammas)
            want = [_one_point_logs(n_t, n_r, len(gammas), r, gammas)
                    for r in rates]
            assert [(_bits(e), _bits(a)) for e, a in zip(*got)] == want

    def test_no_per_element_fallback_from_0_db(self, monkeypatch):
        # 0 dB blanks a square array's asymptote; its ln ln snr must not be
        # taken, or the whole column falls back to element-by-element math
        def fallback(*args):
            raise AssertionError("per-element fallback ran")

        snr = [10.0 ** (0.25 * i / 10.0) for i in range(281)]
        want = [_one_point_logs(4, 4, 2, 3.0, (g, g)) for g in snr]
        monkeypatch.setattr(_array_path, "_or", fallback)
        got = outage_curve(4, 4, 2, 3.0, (snr, snr))
        assert [(_bits(e), _bits(a)) for e, a in zip(*got)] == want
        assert got[1][0] is None

    def test_no_per_element_fallback_at_rate_0(self, monkeypatch):
        # rate 0 makes every threshold 0, whose log is -inf: it must not
        # send the column through element-by-element math either
        def fallback(*args):
            raise AssertionError("per-element fallback ran")

        snr = [10.0 ** (0.25 * i / 10.0) for i in range(281)]
        want = [_one_point_logs(3, 2, 2, 0.0, (g, g)) for g in snr]
        monkeypatch.setattr(_array_path, "_or", fallback)
        got = outage_curve(3, 2, 2, 0.0, (snr, snr))
        assert [(_bits(e), _bits(a)) for e, a in zip(*got)] == want

    def test_nan_the_one_point_path_answers_raises(self, monkeypatch):
        # a nan of the array path that the one-point replay does not raise
        # for is an error, never a returned value; the curve is long enough
        # to take the array path
        monkeypatch.setattr(_array_path, "_log_cdf_many",
                            lambda n_t, n_r, x, logx: x * math.nan)
        snr = [10.0 * (i + 1) for i in range(analysis._ARRAY_THRESHOLDS)]
        with pytest.raises(RuntimeError, match="curve point 0"):
            outage_curve(2, 2, 1, 3.0, (snr,))

    # rates and SNRs that fail somewhere: rate 68 at 10 dB is a CDF beyond
    # float64 at 16x16, rates from 1024 overflow the threshold, and shape
    # (173, 1) refuses every x > 0. Valid values are drawn 8 times as
    # often as the others, so that a fair share of curves raise nothing.
    RATES = st.sampled_from([0.0, 0.5, 1.0, 3.0, 6.0, 68.0] * 8
                            + [1024.0, 1e4, -1.0, math.nan])
    SNRS = st.sampled_from([10.0, 1e3, 0.5, 2.0, 1e6] * 8 + [0.0, math.inf])

    @settings(max_examples=300, deadline=None)
    @given(shape=st.sampled_from([(2, 3), (4, 4), (16, 16), (173, 1)]),
           k=st.integers(1, 3), shared=st.booleans(),
           data=st.data())
    def test_matches_one_point_loop(self, shape, k, shared, data):
        # values bitwise the one-point values, or the error the one-point
        # loop in axis order raises first, type and message
        n_t, n_r = shape
        n = data.draw(st.integers(1, 12))
        rates = data.draw(st.lists(self.RATES, min_size=n, max_size=n))
        if shared:  # one column object for every round, as sweep-snr
            col = data.draw(st.lists(self.SNRS, min_size=n, max_size=n))
            rounds = (col,) * k
        else:
            rounds = [data.draw(st.lists(self.SNRS, min_size=n, max_size=n))
                      for _ in range(k)]
        points = [(rate, tuple(r[i] for r in rounds))
                  for i, rate in enumerate(rates)]
        try:
            want = [_one_point_logs(n_t, n_r, k, rate, snrs)
                    for rate, snrs in points]
        except ValueError as exc:
            with pytest.raises(type(exc)) as got:
                _on_both_paths(n_t, n_r, k, rates, rounds)
            assert type(got.value) is type(exc)
            assert str(got.value) == str(exc)
        else:
            got = _on_both_paths(n_t, n_r, k, rates, rounds)
            assert [(_bits(e), _bits(a)) for e, a in zip(*got)] == want


class TestArrayPathDispatch:
    # outage_curve maps the one-point functions below _ARRAY_THRESHOLDS
    # distinct thresholds (points x distinct SNR columns) and takes the
    # array path from there on: the same bits and the same first error on
    # both sides of the boundary.
    SIZE = analysis._ARRAY_THRESHOLDS

    @staticmethod
    def _spy(monkeypatch):
        """The list of array-path calls that ``outage_curve`` makes."""
        calls = []
        original = _array_path.curve

        def spied(*args):
            calls.append(args[:3])
            return original(*args)

        monkeypatch.setattr(_array_path, "curve", spied)
        return calls

    @pytest.mark.parametrize("n_t,n_r", [(2, 2), (8, 5), (16, 16)])
    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_bitwise_one_point_at_the_boundary(self, monkeypatch, n_t, n_r,
                                               offset):
        # from 0 dB, so a square array's first asymptote is blank
        n = self.SIZE + offset
        snr = [10.0 ** (7.0 * i / (n - 1)) for i in range(n)]
        calls = self._spy(monkeypatch)
        got = outage_curve(n_t, n_r, 3, 3.0, (snr,) * 3)
        assert len(calls) == (offset >= 0)
        want = [_one_point_logs(n_t, n_r, 3, 3.0, (g,) * 3) for g in snr]
        assert [(_bits(e), _bits(a)) for e, a in zip(*got)] == want

    @pytest.mark.parametrize("n_t,n_r", [(2, 2), (3, 5)])
    def test_distinct_columns_count_towards_the_size(self, monkeypatch, n_t,
                                                     n_r):
        # fewer points than the size, but K=3 distinct SNR columns take the
        # thresholds past it
        n = -(-self.SIZE // 3)
        assert n < self.SIZE <= 3 * n
        rounds = [[10.0 ** ((0.5 * i + 3 * j) / 10.0) for i in range(n)]
                  for j in range(3)]
        calls = self._spy(monkeypatch)
        got = outage_curve(n_t, n_r, 3, 2.5, rounds)
        assert len(calls) == 1
        want = [_one_point_logs(n_t, n_r, 3, 2.5, tuple(r[i] for r in rounds))
                for i in range(n)]
        assert [(_bits(e), _bits(a)) for e, a in zip(*got)] == want
        # one column fewer puts the same points below the size
        calls.clear()
        got = outage_curve(n_t, n_r, 3, 2.5, (rounds[0], rounds[1],
                                               rounds[0]))
        assert len(calls) == (2 * n >= self.SIZE)
        want = [_one_point_logs(n_t, n_r, 3, 2.5,
                                (rounds[0][i], rounds[1][i], rounds[0][i]))
                for i in range(n)]
        assert [(_bits(e), _bits(a)) for e, a in zip(*got)] == want

    # at 16x16, rate 68 and 10 dB the gain CDF is beyond float64
    @pytest.mark.parametrize("third,fifth", [
        ((68.0, 10.0), (3.0, 0.0)), ((3.0, 0.0), (68.0, 10.0)),
        ((-1.0, 10.0), (68.0, 10.0)), ((1024.0, 10.0), (-1.0, 10.0)),
    ])
    @pytest.mark.parametrize("offset", [-1, 0])
    def test_first_failing_point_on_both_sides(self, monkeypatch, third,
                                               fifth, offset):
        n = self.SIZE + offset
        rates, snrs = [3.0] * n, [10.0] * n
        rates[3], snrs[3] = third
        rates[5], snrs[5] = fifth
        with pytest.raises(ValueError) as want:
            for rate, snr in zip(rates, snrs):
                exact_outage(SystemConfig(16, 16, 1, rate, (snr,)))
        calls = self._spy(monkeypatch)
        with pytest.raises(ValueError) as got:
            outage_curve(16, 16, 1, rates, (snrs,))
        assert len(calls) == (offset >= 0)
        assert type(got.value) is type(want.value)
        assert str(got.value) == str(want.value)


class TestAsymptoticOutage:
    def test_hand_value_asymmetric(self):
        # t = 2(2-1)/100 per round; tau=1, m=2:
        # per round Gamma(1) t^2 / (Gamma(2) Gamma(3) 2) = 1e-4
        config = SystemConfig.equal_snr(2, 3, 2, 1.0, 100.0)
        assert rel_err(asymptotic_outage(config).value, 1e-8) < 1e-12

    def test_shape_swap_invariance(self):
        a = SystemConfig.equal_snr(2, 3, 1, 3.0, 50.0)
        b = SystemConfig.equal_snr(3, 2, 1, 3.0, 50.0)
        # t changes with n_t, so compare the configurations where both m
        # and the threshold agree: tau and the Gamma product are symmetric
        got_a = asymptotic_outage(a).value
        want_a = math.exp(
            0.0 - math.lgamma(2) - math.lgamma(3)
            + 2.0 * math.log(2.0 * 7.0 / 50.0) - math.log(2.0)
        )
        assert rel_err(got_a, want_a) < 1e-12
        want_b = math.exp(
            0.0 - math.lgamma(2) - math.lgamma(3)
            + 2.0 * math.log(3.0 * 7.0 / 50.0) - math.log(2.0)
        )
        assert rel_err(asymptotic_outage(b).value, want_b) < 1e-12

    def test_hand_value_square(self):
        # t = 0.02, n = 2: t^2 ln(100) / (2 Gamma(2)^2)
        config = SystemConfig.equal_snr(2, 2, 1, 1.0, 100.0)
        want = 0.02**2 * math.log(100.0) / 2.0
        assert rel_err(asymptotic_outage(config).value, want) < 1e-12

    def test_square_needs_snr_above_one(self):
        for g in (1.0, 0.5):
            config = SystemConfig.equal_snr(2, 2, 1, 1.0, g)
            with pytest.raises(DomainError):
                asymptotic_outage(config)

    def test_square_snr_check_precedes_rate_zero(self):
        config = SystemConfig.equal_snr(2, 2, 1, 0.0, 0.5)
        with pytest.raises(DomainError):
            asymptotic_outage(config)

    def test_zero_rate_asymmetric(self):
        config = SystemConfig.equal_snr(2, 3, 2, 0.0, 10.0)
        assert asymptotic_outage(config).value == 0.0

    def test_ratio_approaches_one(self):
        # the defining property of the leading term
        ratios = []
        for db in (30.0, 45.0, 60.0):
            c = SystemConfig.equal_snr(2, 3, 1, 3.0, 10.0 ** (db / 10.0))
            ratios.append(exact_outage(c).value / asymptotic_outage(c).value)
        assert abs(ratios[-1] - 1.0) < 0.01
        assert abs(ratios[0] - 1.0) > abs(ratios[1] - 1.0) > abs(ratios[2] - 1.0)

    @pytest.mark.parametrize("n_t,n_r", [(2, 3), (3, 3)])
    def test_per_round_terms_add_in_round_order(self, n_t, n_r):
        # one-round configurations give each round's term alone (0.0 + v)
        snrs = (30.0, 500.0, 30.0, 30.0)
        v = {g: asymptotic_outage(SystemConfig.equal_snr(n_t, n_r, 1, 3.0, g))
             .log_value for g in set(snrs)}
        want = 0.0
        for g in snrs:
            want += v[g]
        config = SystemConfig(n_t, n_r, len(snrs), 3.0, snrs)
        assert asymptotic_outage(config).log_value == want

    def test_log_slope_is_exact_for_asymmetric_arrays(self):
        # the tau > 0 asymptote is a pure power law: decade-per-decade slope
        # equals K * min(n_t, n_r) to roundoff
        k, m = 2, 2
        c50 = SystemConfig.equal_snr(2, 3, k, 3.0, 1e5)
        c60 = SystemConfig.equal_snr(2, 3, k, 3.0, 1e6)
        drop = (asymptotic_outage(c50).log_value - asymptotic_outage(c60).log_value)
        assert drop / math.log(10.0) == pytest.approx(k * m, rel=1e-12)


class TestDiversityAndCodingGain:
    def test_diversity_order(self):
        assert diversity_order(SystemConfig.equal_snr(2, 3, 2, 3.0, 1.0)) == 4
        assert diversity_order(SystemConfig.equal_snr(2, 2, 3, 3.0, 1.0)) == 6
        assert diversity_order(SystemConfig.equal_snr(4, 1, 5, 3.0, 1.0)) == 5

    def test_square_reference_value(self):
        config = SystemConfig.equal_snr(2, 2, 1, 3.0, 1.0)
        assert rel_err(coding_gain(config), SQRT2_OVER_14) < 1e-12

    def test_scalar_array_closed_form(self):
        # n = 1 collapses to 1 / (2^R - 1)
        config = SystemConfig.equal_snr(1, 1, 1, 1.0, 1.0)
        assert coding_gain(config) == pytest.approx(1.0, rel=1e-14)

    def test_strictly_decreasing_in_rate(self):
        rates = [0.5 + 0.25 * i for i in range(23)]
        gains = [
            coding_gain(SystemConfig.equal_snr(3, 3, 1, r, 1.0)) for r in rates
        ]
        assert all(a > b for a, b in zip(gains, gains[1:]))

    def test_rectangular_rejected(self):
        with pytest.raises(UnsupportedConfigError):
            coding_gain(SystemConfig.equal_snr(2, 3, 1, 3.0, 1.0))

    def test_zero_rate_rejected(self):
        with pytest.raises(DomainError):
            coding_gain(SystemConfig.equal_snr(2, 2, 1, 0.0, 1.0))

    @settings(max_examples=100, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=6),
        rate=st.floats(min_value=0.05, max_value=12.0),
        snr_db=st.floats(min_value=3.0, max_value=80.0),
    )
    def test_coding_gain_consistent_with_asymptote(self, n, rate, snr_db):
        # for square arrays the asymptote factors as
        # (C(R) gamma)^(-n K) (ln gamma)^K with K = 1 here
        snr = 10.0 ** (snr_db / 10.0)
        config = SystemConfig.equal_snr(n, n, 1, rate, snr)
        c = coding_gain(config)
        want = (c * snr) ** (-n) * math.log(snr)
        got = asymptotic_outage(config).value
        assert got == pytest.approx(want, rel=1e-10)


class TestRateProbe:
    def test_increasing_and_convex_at_high_snr(self):
        # the asymptote at 30 dB over R in [0.5, 8]: forward first
        # differences positive, second differences non-negative
        probs = [
            asymptotic_outage(
                SystemConfig.equal_snr(2, 2, 3, 0.5 + 0.25 * i, 1000.0)
            ).value
            for i in range(31)
        ]
        assert all(b - a > 0.0 for a, b in zip(probs, probs[1:]))
        assert all(
            probs[i + 2] - 2.0 * probs[i + 1] + probs[i] >= 0.0
            for i in range(len(probs) - 2)
        )


class TestShapeSwap:
    """The gain CDF is symmetric in the antenna counts but outage is not:
    the threshold carries the transmit count as a multiplicative factor."""

    def test_swap_moves_outage_but_not_cdf(self):
        a = SystemConfig.equal_snr(2, 3, 1, 3.0, 10.0)
        b = SystemConfig.equal_snr(3, 2, 1, 3.0, 10.0)
        assert exact_outage(a).value != exact_outage(b).value
        ta = outage_threshold(a, 1)
        tb = outage_threshold(b, 1)
        assert ta == 2.0 * 7.0 / 10.0
        assert tb == 3.0 * 7.0 / 10.0
        # each division rounds once, so in floats the 3/2 factor holds to
        # one ulp rather than bitwise here
        assert tb == pytest.approx(1.5 * ta, rel=1e-15)
        # equalize the thresholds and the per-round CDFs agree exactly
        assert meijer_g_log_cdf(2, 3, tb) == meijer_g_log_cdf(3, 2, tb)

    def test_threshold_ratio_is_exactly_three_halves(self):
        # a power-of-two SNR keeps both divisions exact and the factor
        # survives floating point untouched
        a = SystemConfig.equal_snr(2, 3, 1, 3.0, 4.0)
        b = SystemConfig.equal_snr(3, 2, 1, 3.0, 4.0)
        assert outage_threshold(b, 1) == 1.5 * outage_threshold(a, 1)


class TestAsymptoticStructure:
    def test_exponent_identity(self):
        # half the shape sum minus half the shape gap collapses to the
        # smaller count; storing the min avoids subtracting half-integers
        for n_t in range(1, 7):
            for n_r in range(1, 7):
                config = SystemConfig.equal_snr(n_t, n_r, 2, 1.0, 50.0)
                assert (n_t + n_r - config.tau) / 2 == min(n_t, n_r)
                assert diversity_order(config) == 2 * min(n_t, n_r)

    def test_rate_axis_slope_equals_diversity_order(self):
        # tau > 0: against log(2^R - 1) the asymptote is a straight line
        # of slope d, for any fixed SNR
        def config(rate):
            return SystemConfig.equal_snr(2, 3, 2, rate, 1000.0)

        rates = [1.0, 2.0, 3.0, 4.0, 5.0]
        logs = [asymptotic_outage(config(r)).log_value for r in rates]
        xs = [math.log(2.0 ** r - 1.0) for r in rates]
        d = diversity_order(config(1.0))
        for i in range(len(rates) - 1):
            slope = (logs[i + 1] - logs[i]) / (xs[i + 1] - xs[i])
            assert slope == pytest.approx(d, rel=1e-12)


class TestAsymptoticConvergence:
    """Ratio of exact to asymptotic outage as the SNR grows."""

    CELLS = [(2, 3, 1), (2, 3, 2), (3, 2, 1), (3, 2, 2)]

    @pytest.mark.parametrize("n_t,n_r,k", CELLS)
    def test_ratio_within_five_percent_at_50db(self, n_t, n_r, k):
        config = SystemConfig.equal_snr(n_t, n_r, k, 3.0, 1e5)
        ratio = math.exp(
            exact_outage(config).log_value - asymptotic_outage(config).log_value
        )
        assert 0.95 <= ratio <= 1.05

    @pytest.mark.parametrize("n_t,n_r,k", CELLS)
    def test_ratio_gap_shrinks_with_snr(self, n_t, n_r, k):
        gaps = []
        for db in (30.0, 40.0, 50.0, 60.0):
            config = SystemConfig.equal_snr(n_t, n_r, k, 3.0, 10.0 ** (db / 10.0))
            ratio = math.exp(
                exact_outage(config).log_value - asymptotic_outage(config).log_value
            )
            gaps.append(abs(ratio - 1.0))
        assert gaps == sorted(gaps, reverse=True)

    @pytest.mark.parametrize("snr_db", [60.0, 90.0, 120.0])
    @pytest.mark.parametrize("n,k", [(2, 1), (3, 2), (4, 1)])
    def test_tau_zero_ratio_follows_bracket(self, n, k, snr_db):
        snr = 10.0 ** (snr_db / 10.0)
        config = SystemConfig.equal_snr(n, n, k, 3.0, snr)
        ratio = math.exp(
            exact_outage(config).log_value - asymptotic_outage(config).log_value
        )
        want = (1.0 - square_bracket(n, 3.0) / math.log(snr)) ** k
        assert ratio == pytest.approx(want, rel=1e-3)

    @pytest.mark.xfail(
        strict=True,
        reason="the square-array asymptote replaces -ln(threshold) by "
        "ln(snr); the leftover ln(n_t(2^R-1))/ln(snr) is still ~19% at "
        "60 dB, measured ratio 0.7616",
    )
    def test_tau_zero_ratio_within_fifteen_percent_at_60db(self):
        config = SystemConfig.equal_snr(2, 2, 1, 3.0, 1e6)
        ratio = math.exp(
            exact_outage(config).log_value - asymptotic_outage(config).log_value
        )
        assert 0.85 <= ratio <= 1.15

    @pytest.mark.xfail(
        strict=True,
        reason="d(ln P)/d(ln snr) = -d + K/ln(snr) for square arrays, and "
        "K/ln(snr) ~= 0.2004 on the 60-70 dB grid: the 0.2 window is "
        "exhausted by the log correction itself, measured slope -5.79924",
    )
    def test_tau_zero_asymptote_slope_window(self):
        dbs = [60.0 + 2.0 * i for i in range(6)]
        xs = [db / 10.0 for db in dbs]
        ys = []
        for db in dbs:
            config = SystemConfig.equal_snr(2, 2, 3, 3.0, 10.0 ** (db / 10.0))
            ys.append(asymptotic_outage(config).log_value / math.log(10.0))
        x_bar = sum(xs) / len(xs)
        y_bar = sum(ys) / len(ys)
        slope = sum(
            (x - x_bar) * (y - y_bar) for x, y in zip(xs, ys)
        ) / sum((x - x_bar) ** 2 for x in xs)
        assert -6.0 - 0.2 <= slope <= -6.0 + 0.2
