import math

import numpy as np
import pytest

from oracles import off_prob_swing_discrete, off_probability_visibility
from qpskrx.bayes import QUARTER_TURN_COS, InferenceModel, TruthTables, truth_from_inference
from qpskrx.delay import (RAMP_COS, SETTLED_COS, STALE_COS, DelayParams,
                          delay_truth_tables)


def channel(eta, xi):
    """A channel for the helpers and oracles below, which read only its
    ``eta_total`` and ``xi`` and take the signal on its own."""
    return InferenceModel(0.0, 1, eta, xi)


DEFAULTS = DelayParams(20.0, 0.37, 0.63)
IDEAL = channel(1.0, 1.0)


def bin_off(m, prev, new, gamma_sq, p, ch, nu=0.0, dt=0.0, include_delay=True):
    """No-click probability of symbol ``m`` in a later bin, read off the table."""
    t = delay_truth_tables(InferenceModel(gamma_sq, 1, ch.eta_total, ch.xi, nu), p, dt,
                           include_delay)
    return t.trans[(m - prev) % 4, (new - prev) % 4]


def swing_sq(gamma_sq, p):
    """Intensity of the undiscarded swing segment."""
    return gamma_sq * p.t_swing / p.t_bin


def swing_off(m, prev, new, sq, ch):
    """No-click probability of the swing segment alone at intensity ``sq``: the
    fixed-phase formula at the ramp's mean cosine."""
    swing = InferenceModel(sq, 1, ch.eta_total, ch.xi)
    return math.exp(-swing.mean_count(((1.0, RAMP_COS[(m - prev) % 4, (new - prev) % 4]),)))


def random_case(rng):
    p = DelayParams(20.0, rng.uniform(0.2, 0.5), rng.uniform(0.4, 0.8))
    ch = channel(rng.uniform(0.3, 0.65), rng.uniform(0.95, 1.0))
    m = int(rng.integers(0, 4))
    prev = int(rng.integers(0, 4))
    new = (prev + int(rng.integers(1, 4))) % 4
    gamma_sq = rng.uniform(0.0, 0.5)
    return p, ch, m, prev, new, gamma_sq


class TestTimeShares:
    def test_reference_timing(self):
        hold, swing, settle = DEFAULTS.shares(0.0)
        assert hold == pytest.approx(0.37 / 20, rel=1e-12)
        assert swing == pytest.approx(0.63 / 20, rel=1e-12)
        assert settle == pytest.approx(19.0 / 20, rel=1e-12)

    def test_no_hold_segment(self):
        assert DelayParams(20.0, 0.0, 0.63).shares(0.0)[0] == 0.0

    def test_shares_sum_to_one(self):
        rng = np.random.default_rng(5)
        for p in [DEFAULTS, DelayParams(200 / 13, 0.37, 15.014615384615386)] + [
                random_case(rng)[0] for _ in range(50)]:
            shares = p.shares(0.0)
            assert sum(shares) == pytest.approx(1.0, abs=1e-15)
            assert shares[2] >= 0.0

    def test_shares_sum_to_the_time_outside_the_window(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            p = random_case(rng)[0]
            dt = rng.uniform(0, p.t_bin)
            shares = p.shares(dt)
            assert min(shares) >= 0.0
            assert sum(shares) == pytest.approx((p.t_bin - dt) / p.t_bin, abs=1e-15)

    def test_window_over_the_whole_bin_keeps_nothing(self):
        nu_bin = 9.1e-3 / 10
        for p in (DEFAULTS, DelayParams(20.0, 20.0, 0.0), DelayParams(20.0, 0.0, 20.0)):
            assert p.shares(p.t_bin) == (0.0, 0.0, 0.0)
            for include_delay in (True, False):
                t = delay_truth_tables(InferenceModel(3.3, 10, 0.65, 0.996, 9.1e-3), p,
                                       p.t_bin, include_delay)
                assert t.trans.tolist() == [[math.exp(-nu_bin)] * 4] * 4

    def test_window_outside_the_bin_rejected(self):
        for dt in (-0.1, 20.5, math.nan):
            with pytest.raises(ValueError, match="discard window"):
                DEFAULTS.shares(dt)

    def test_all_hold_bin_has_finite_table(self):
        p = DelayParams(20.0, 20.0, 0.0)
        assert p.shares(0.0) == (1.0, 0.0, 0.0)
        t = delay_truth_tables(InferenceModel(3.3, 10, 0.65, 0.996, 9.1e-3), p, 1.1, True)
        assert np.all(np.isfinite(t.trans))
        assert np.all((t.trans > 0.0) & (t.trans <= 1.0))


class TestValidation:
    @pytest.mark.parametrize("times", [(20.0, math.nan, 0.63), (math.inf, 0.37, 0.63),
                                       (20.0, 0.37, math.inf), (0.0, 0.0, 0.0),
                                       (-1.0, 0.0, 0.0)])
    def test_delay_params_reject_non_finite_or_empty_bin(self, times):
        with pytest.raises(ValueError, match="finite and t_bin > 0"):
            DelayParams(*times)

    @pytest.mark.parametrize("first, trans", [
        (np.full(4, 1.5), np.full((4, 4), 0.5)),
        (np.full(4, 0.5), np.full((4, 4), -0.2)),
        (np.full(4, math.nan), np.full((4, 4), 0.5)),
        (np.full(4, 0.5), np.full((4, 4), math.nan))])
    def test_truth_tables_reject_non_probabilities(self, first, trans):
        with pytest.raises(ValueError, match=r"probabilities in \[0, 1\]"):
            TruthTables(10, first, trans)

    @pytest.mark.parametrize("times", [(20.0, -0.1, 0.63), (20.0, 0.37, -0.1)])
    def test_delay_params_reject_a_negative_hold_or_swing(self, times):
        with pytest.raises(ValueError, match="^t_hold and t_swing must be >= 0$"):
            DelayParams(*times)

    def test_delay_params_reject_hold_plus_swing_past_the_bin(self):
        with pytest.raises(ValueError, match=r"^hold \+ swing \(21.0\) exceeds t_bin \(20.0\)$"):
            DelayParams(20.0, 20.0, 1.0)

    @pytest.mark.parametrize("first, trans", [
        (np.full(3, 0.5), np.full((4, 4), 0.5)),
        (np.full((4, 1), 0.5), np.full((4, 4), 0.5)),
        (np.full(4, 0.5), np.full(16, 0.5)),
        (np.full(4, 0.5), np.full((4, 4, 1), 0.5))])
    def test_truth_tables_reject_wrong_shapes(self, first, trans):
        with pytest.raises(ValueError, match=r"shapes \(4,\) and \(4, 4\)"):
            TruthTables(10, first, trans)

    def test_truth_tables_accept_the_closed_interval(self):
        TruthTables(10, np.array([0.0, 1.0, 0.5, 1.0]), np.eye(4))

    @pytest.mark.parametrize("stages, message", [(0, ">= 1, got 0"), (-3, ">= 1, got -3"),
                                                 (2.5, "an integer, got 2.5")])
    def test_truth_builders_reject_bad_stage_counts(self, stages, message):
        # each truth builder takes the point, so the error comes from building it
        def point():
            return InferenceModel(3.3, stages, 0.65, 0.996, 9.1e-3)
        builders = [lambda: truth_from_inference(point()),
                    lambda: delay_truth_tables(point(), DEFAULTS, 1.1, True),
                    lambda: TruthTables(stages, np.full(4, 0.5), np.full((4, 4), 0.5))]
        for build in builders:
            with pytest.raises(ValueError, match=f"stages must be {message}"):
                build()

    @pytest.mark.parametrize("alpha_sq, nu, message", [
        (-1.0, 9.1e-3, "alpha_sq must be finite and >= 0, got -1.0"),
        (math.inf, 9.1e-3, "alpha_sq must be finite and >= 0, got inf"),
        (math.nan, 9.1e-3, "alpha_sq must be finite and >= 0, got nan"),
        (3.3, -1.0, "nu_per_state must be >= 0, got -1.0"),
        (3.3, math.nan, "nu_per_state must be >= 0, got nan")])
    def test_truth_builders_name_bad_mean_counts(self, alpha_sq, nu, message):
        # each builder names the value the caller gave, not its per-bin quotient;
        # the truth builders take the point, so the error comes from building it
        def point():
            return InferenceModel(alpha_sq, 10, 0.65, 0.996, nu)
        builders = [lambda: truth_from_inference(point()),
                    lambda: delay_truth_tables(point(), DEFAULTS, 1.1, True),
                    point]
        for build in builders:
            with pytest.raises(ValueError, match=f"^{message}$"):
                build()

    def test_truth_tables_take_numpy_stage_counts(self):
        t = TruthTables(np.int64(10), np.full(4, 0.5), np.full((4, 4), 0.5))
        assert type(t.stages) is int and t.stages == 10


class TestHoldSegment:
    def test_matched_phase(self):
        # an all-hold bin nulls the previous target whatever the new one is
        t = delay_truth_tables(InferenceModel(1.0, 1), DelayParams(20.0, 20.0, 0.0), 0.0, True)
        assert t.trans[0].tolist() == [1.0] * 4

    def test_opposite_phase_value(self):
        # settle sits at the new target (exactly 1), so hold * swing is left
        hold, swing, _ = DEFAULTS.shares(0.0)
        p = bin_off(2, 0, 2, 1.0, DEFAULTS, IDEAL)
        p /= swing_off(2, 0, 2, 1.0 * swing, IDEAL)
        assert p == pytest.approx(math.exp(-2 * 0.0185 * 2), rel=1e-12)
        assert InferenceModel(hold * 1.0, 1).off_probs()[2] == pytest.approx(
            math.exp(-2 * 0.0185 * 2), rel=1e-12)

    def test_vacuum_signal(self):
        t = delay_truth_tables(InferenceModel(0.0, 1, 0.65, 0.996, 0.0), DEFAULTS, 0.0, True)
        assert t.trans.tolist() == [[1.0] * 4] * 4


class TestSwingSegment:
    def test_vacuum_signal(self):
        assert swing_off(1, 0, 2, swing_sq(0.0, DEFAULTS), IDEAL) == 1.0
        assert off_prob_swing_discrete(1, 0, 2, 0.0, DEFAULTS, IDEAL, 50) == pytest.approx(
            1.0, abs=1e-15)

    def test_zero_visibility_is_phase_independent(self):
        ch = channel(0.8, 0.0)
        vals = {swing_off(m, 0, 1, swing_sq(0.7, DEFAULTS), ch)
                for m in range(4)}
        ref = math.exp(-2 * 0.8 * (0.63 / 20) * 0.7)
        for v in vals:
            assert v == pytest.approx(ref, rel=1e-12)

    def test_unchanged_target_does_not_ramp(self):
        # step 0: the ramp's cosine is the settled one, the phase from the target
        assert RAMP_COS[:, 0].tolist() == SETTLED_COS[:, 0].tolist() == list(QUARTER_TURN_COS)
        assert swing_off(1, 2, 2, swing_sq(0.5, DEFAULTS), IDEAL) == InferenceModel(
            swing_sq(0.5, DEFAULTS), 1).off_probs()[3]

    def test_two_mode_product_by_hand(self):
        # L=2, m = prev_target: endpoints theta in {0, m2*pi/2}
        m2 = 1
        g = 0.6
        gp_sq = (0.63 / 20) * g / 2
        expected = math.exp(-2 * gp_sq * (1 - math.cos(0.0))) * math.exp(
            -2 * gp_sq * (1 - math.cos(m2 * math.pi / 2)))
        got = off_prob_swing_discrete(0, 0, m2, g, DEFAULTS, IDEAL, 2)
        assert got == pytest.approx(expected, rel=1e-12)

    def test_discrete_converges_to_analytic(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            p, ch, m, prev, new, g = random_case(rng)
            target = swing_off(m, prev, new, swing_sq(g, p), ch)
            errs = [abs(off_prob_swing_discrete(m, prev, new, g, p, ch, L) - target)
                    for L in (10, 100, 10**4)]
            assert errs[0] >= errs[1] >= errs[2]
            assert errs[2] <= 1e-6


class TestCosineTables:
    def test_ramp_cos_takes_the_three_mean_cosines(self):
        moving = RAMP_COS[:, 1:].ravel().tolist()
        assert set(moving) == {0.0, 2.0 / math.pi, -2.0 / math.pi}
        assert not any(math.copysign(1.0, c) < 0 for c in moving if c == 0.0)

    def test_ramp_cos_is_the_mean_over_the_ramp(self):
        # the phase from symbol m runs linearly from dprev to dprev - span quarter
        # turns, span = 1, 2, -1 at step 1, 2, 3 (a half turn ramps +2)
        s = np.linspace(0.0, 1.0, 100_001)
        for dprev in range(4):
            for step, span in zip((1, 2, 3), (1, 2, -1)):
                cos = np.cos((dprev - span * s) * math.pi / 2)
                mean = (cos[1:] + cos[:-1]).mean() / 2  # trapezoid rule
                assert RAMP_COS[dprev, step] == pytest.approx(mean, abs=1e-10)

    def test_stale_and_settled_cosines(self):
        for dprev in range(4):
            for step in range(4):
                assert STALE_COS[dprev, step] == QUARTER_TURN_COS[dprev]
                assert SETTLED_COS[dprev, step] == QUARTER_TURN_COS[(dprev - step) % 4]

    def test_tables_mirror_but_for_the_half_turn(self):
        for a in range(4):
            for b in range(4):
                for table in (STALE_COS, SETTLED_COS):
                    assert table[a, b] == table[-a % 4, -b % 4]
                assert (RAMP_COS[a, b] == RAMP_COS[-a % 4, -b % 4]) == (b != 2 or a % 2 == 0)


class TestFullBin:
    def test_target_unchanged_reduces_to_plain_formula(self):
        ch = channel(0.65, 0.996)
        for dt in (0.0, 0.5, 1.7):
            for m in range(4):
                a = bin_off(m, 1, 1, 0.4, DEFAULTS, ch, 9.1e-4, dt)
                b = bin_off(m, 1, 1, 0.4, DEFAULTS, ch, 9.1e-4, dt, include_delay=False)
                plain = off_probability_visibility(((m - 1) % 4) * math.pi / 2,
                                                   0.4 * (1 - dt / 20), ch, 9.1e-4)
                assert a == pytest.approx(b, abs=1e-14)
                assert b == pytest.approx(plain, abs=1e-14)

    def test_discard_beyond_ramp_equals_no_delay(self):
        ch = channel(0.65, 0.996)
        for dt in (1.0, 1.1, 2.5):
            for m in range(4):
                for prev in range(4):
                    for new in range(4):
                        a = bin_off(m, prev, new, 0.94, DEFAULTS, ch, 9.1e-4, dt)
                        b = bin_off(m, prev, new, 0.94, DEFAULTS, ch, 9.1e-4, dt,
                                    include_delay=False)
                        assert a == pytest.approx(b, abs=1e-12)

    def test_partial_swing_discard_fraction(self):
        # dt = 0.5 us: hold fully discarded, swing keeps 1 - (0.5-0.37)/0.63
        hold, swing, settle = DEFAULTS.shares(0.5)
        ret_swing = swing / DEFAULTS.shares(0.0)[1]
        assert hold == 0.0
        assert ret_swing == pytest.approx(1 - (0.5 - 0.37) / 0.63, rel=1e-12)
        assert ret_swing == pytest.approx(0.79365, abs=1e-5)
        assert settle == DEFAULTS.shares(0.0)[2]

    def test_covered_swing_share_stays_non_negative(self):
        # (0.1 + 0.2) - 0.1 exceeds 0.2 by an ulp, so the covered swing would
        # keep a share of -2.2e-16 without the outer max
        p = DelayParams(20.0, 0.1, 0.2)
        assert p.shares(0.5)[1] == 0.0
        for include_delay in (True, False):
            t = delay_truth_tables(InferenceModel(3.3, 10, 0.65, 0.996, 9.1e-3), p, 0.5,
                                   include_delay)
            assert np.all((t.trans > 0.0) & (t.trans <= 1.0))

    def test_zero_durations_reduce_to_delay_free(self):
        p = DelayParams(20.0, 0.0, 0.0)
        ch = channel(0.7, 0.98)
        for m in range(4):
            for new in range(4):
                a = bin_off(m, 2, new, 0.6, p, ch, 1e-3)
                b = off_probability_visibility(((m - new) % 4) * math.pi / 2, 0.6,
                                               ch, 1e-3)
                assert a == pytest.approx(b, abs=1e-12)

    def test_probability_range(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            p, ch, m, prev, new, g = random_case(rng)
            dt = rng.uniform(0, p.t_bin)
            v = bin_off(m, prev, new, g, p, ch, 1e-3, dt)
            assert 0.0 < v <= 1.0


class TestDelayTruthTables:
    def test_first_bin_has_no_discard_or_delay(self):
        ch = channel(0.65, 0.996)
        t = delay_truth_tables(InferenceModel(3.3, 10, 0.65, 0.996, 9.1e-3), DEFAULTS, 1.1, True)
        for d in range(4):
            expected = off_probability_visibility(d * math.pi / 2, 0.33, ch, 9.1e-4)
            assert t.first[d] == pytest.approx(expected, rel=1e-12)

    def test_delay_free_variant_matches_beyond_ramp(self):
        point = InferenceModel(9.4, 10, 0.65, 0.996, 9.1e-3)
        t1 = delay_truth_tables(point, DEFAULTS, 1.1, include_delay=True)
        t0 = delay_truth_tables(point, DEFAULTS, 1.1, include_delay=False)
        np.testing.assert_allclose(t1.trans, t0.trans, atol=1e-12)
        np.testing.assert_allclose(t1.first, t0.first, atol=1e-15)

    def test_variants_differ_without_discarding(self):
        point = InferenceModel(9.4, 10, 0.65, 0.996, 9.1e-3)
        t1 = delay_truth_tables(point, DEFAULTS, 0.0, include_delay=True)
        t0 = delay_truth_tables(point, DEFAULTS, 0.0, include_delay=False)
        assert np.abs(t1.trans - t0.trans).max() > 1e-3


def random_point(rng):
    """A grid point's channel and bin timing drawn over their whole ranges."""
    point = InferenceModel(rng.uniform(0.0, 12.0), int(rng.integers(1, 50)),
                           rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0), rng.uniform(0.0, 0.1))
    t_bin = rng.uniform(1.0, 40.0)
    hold = rng.uniform(0.0, t_bin)
    return point, DelayParams(t_bin, hold, rng.uniform(0.0, t_bin - hold))


class TestMatchedReductions:
    """Where the delay model has no transient to show, it is the matched truth bit for bit."""

    def test_first_bin_is_the_matched_truth(self):
        rng = np.random.default_rng(29)
        for _ in range(1000):
            point, p = random_point(rng)
            matched = truth_from_inference(point).first
            for dt in (0.0, rng.uniform(0.0, p.t_bin), p.t_bin):
                for include_delay in (True, False):
                    t = delay_truth_tables(point, p, dt, include_delay)
                    assert t.first.tobytes() == matched.tobytes()

    def test_zero_durations_without_a_window_are_the_matched_truth(self):
        rng = np.random.default_rng(31)
        for _ in range(1000):
            point, p = random_point(rng)
            matched = truth_from_inference(point)
            for include_delay in (True, False):
                t = delay_truth_tables(point, DelayParams(p.t_bin, 0.0, 0.0), 0.0, include_delay)
                assert t.first.tobytes() == matched.first.tobytes()
                assert t.trans.tobytes() == matched.trans.tobytes()
