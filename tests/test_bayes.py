import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import (brute_force_error, kernel_outcomes, lexsort_enumeration,
                     normalized, posterior_step, reference_trial,
                     truth_off_prob, walk_enumeration)
from qpskrx._kernels import step_rows
from qpskrx.bayes import (MAX_ENUM_STAGES, InferenceModel, _order_key,
                          enumerate_detail, enumerate_error_probability, point_tables,
                          truth_from_inference, uniform_truth_tables)
from qpskrx.bounds import helstrom_qpsk, sql_heterodyne
from qpskrx.delay import DelayParams, delay_truth_tables
from qpskrx.montecarlo import RngSpec
from qpskrx.physics import ChannelModel, off_probs


def ideal(alpha_sq, stages):
    return InferenceModel(alpha_sq, stages)


class TestInitialState:
    def test_uniform_prior_target_zero(self):
        # without signal the uniform prior never moves and symbol 0 is decided
        detail = enumerate_detail(ideal(0.0, 3))
        np.testing.assert_array_equal(detail.per_symbol_error, [0.0, 1.0, 1.0, 1.0])

    def test_posterior_normalized(self):
        assert normalized([0.0] * 4) == [0.25] * 4


class TestBinLikelihood:
    def test_matched_hypothesis_never_clicks_ideally(self):
        assert ideal(1.0, 3).off_probs()[0] == 1.0

    def test_opposite_phase(self):
        assert InferenceModel(0.5, 1).off_probs()[2] == pytest.approx(
            math.exp(-2), rel=1e-12)

    def test_complement(self):
        ll = InferenceModel(2.0, 4, 0.7, 0.99, 1e-3).log_likelihood_table()
        np.testing.assert_allclose(np.exp(ll[1]), 1.0 - np.exp(ll[0]),
                                   rtol=0, atol=1e-15)


class TestPosteriorUpdate:
    def test_zero_signal_is_uninformative(self):
        ll = ideal(0.0, 4).log_likelihood_table()
        assert ll[0].tolist() == [0.0] * 4
        assert ll[1].tolist() == [-math.inf] * 4

    def test_hand_value_single_stage_off(self):
        g = 0.8
        lp, _ = posterior_step([0.0] * 4, 0, 0, ideal(g, 1).log_likelihood_table())
        post = normalized(lp)
        assert post[0] == pytest.approx(1.0 / (1.0 + math.exp(-2 * g)) ** 2, rel=1e-12)
        assert post[1] == pytest.approx(post[3], rel=1e-12)

    def test_click_points_to_opposite_symbol(self):
        _, target = posterior_step([0.0] * 4, 0, 1, ideal(1.0, 4).log_likelihood_table())
        assert target == 2

    def test_normalization_chain(self):
        ll = InferenceModel(3.0, 8, 0.65, 0.996, 9.1e-3).log_likelihood_table()
        lp, target = [0.0] * 4, 0
        for e in (0, 1, 1, 0, 1, 0, 0, 1):
            lp, target = posterior_step(lp, target, e, ll)
            assert math.fsum(normalized(lp)) == pytest.approx(1.0, abs=1e-10)


class TestDecide:
    def test_clear_winner(self):
        _, target = posterior_step([0.0] * 4, 0, 0, ideal(5.0, 1).log_likelihood_table())
        assert target == 0

    def test_tie_breaks_to_lowest_index(self):
        # without signal all four hypotheses tie in every bin
        inference = ideal(0.0, 3)
        truth = truth_from_inference(inference)
        for symbol in range(4):
            mask = kernel_outcomes(inference, truth, symbol, 50, RngSpec(1))
            assert mask.tolist() == [symbol == 0] * 50


class TestEnumeration:
    def test_zero_signal(self):
        assert enumerate_error_probability(ideal(0.0, 6)) == pytest.approx(0.75, abs=1e-12)

    def test_monotone_in_stages(self):
        errs = [enumerate_error_probability(ideal(1.0, m)) for m in (3, 4, 10)]
        assert errs[2] <= errs[1] <= errs[0]

    def test_above_helstrom(self):
        for a2 in (0.5, 1.0, 2.0, 5.0):
            for m in (3, 6, 10):
                assert enumerate_error_probability(ideal(a2, m)) >= helstrom_qpsk(a2)

    @pytest.mark.parametrize("stages, alpha_sq",
                             [(3, 0.5), (3, 1.0), (3, 2.0), (3, 5.0), (4, 1.0)])
    def test_matches_amplitude_brute_force(self, stages, alpha_sq):
        exact = enumerate_error_probability(ideal(alpha_sq, stages))
        assert exact == pytest.approx(brute_force_error(alpha_sq, stages),
                                      abs=1e-12)

    def test_beats_sql_in_operating_range(self):
        # the crossing of the M=3 curve is near alpha_sq ~ 1
        for a2 in (2.0, 5.0):
            assert enumerate_error_probability(ideal(a2, 3)) < sql_heterodyne(a2)

    def test_branch_probabilities_complete(self):
        detail = enumerate_detail(InferenceModel(2.5, 7, 0.65, 0.996, 9.1e-3))
        np.testing.assert_allclose(detail.branch_totals, 1.0, atol=1e-10)

    def test_first_nulled_symbol_is_favored(self):
        # the receiver nulls symbol 0 in bin 1, so symbol 0 always fares best
        detail = enumerate_detail(InferenceModel(1.7, 6, 0.8, 0.99, 5e-3))
        assert detail.per_symbol_error.argmin() == 0

    def test_per_symbol_spread_shrinks_with_signal(self):
        spreads = []
        for a2 in (2.0, 6.0, 10.0):
            d = enumerate_detail(InferenceModel(a2, 8, 0.8, 0.99, 5e-3))
            spreads.append(d.per_symbol_error.max() - d.per_symbol_error.min())
        assert spreads[0] > spreads[1] > spreads[2]

    def test_error_prob_is_equal_prior_average(self):
        d = enumerate_detail(InferenceModel(1.7, 6, 0.8, 0.99, 5e-3))
        assert d.error_prob == pytest.approx(d.per_symbol_error.mean(), abs=1e-14)

    def test_stage_cap(self):
        enumerate_error_probability(ideal(1.0, MAX_ENUM_STAGES))
        with pytest.raises(ValueError, match="capped"):
            enumerate_error_probability(ideal(1.0, MAX_ENUM_STAGES + 1))

    def test_truth_stage_mismatch_rejected(self):
        truth = truth_from_inference(ideal(1.0, 4))
        with pytest.raises(ValueError):
            enumerate_error_probability(ideal(1.0, 5), truth=truth)

    def test_history_probability_factorizes(self):
        # the exact answer sums, over outcome histories, the product of the
        # per-bin truth probabilities along the receiver's target sequence
        model = InferenceModel(1.2, 3, 0.9, 0.98, 1e-3)
        truth = truth_from_inference(model)
        ll = model.log_likelihood_table()
        correct = np.zeros(4)
        for m in range(4):
            for bits in itertools.product((0, 1), repeat=3):
                lp, prev, target, prob = [0.0] * 4, 0, 0, 1.0
                for i, e in enumerate(bits):
                    p_off = truth_off_prob(truth.first, truth.trans, i, m, prev, target)
                    prob *= 1.0 - p_off if e else p_off
                    prev = target
                    lp, target = posterior_step(lp, target, e, ll)
                correct[m] += prob * (target == m)
        np.testing.assert_allclose(enumerate_detail(model).per_symbol_error,
                                   1.0 - correct, rtol=0, atol=1e-13)


# inference (eta, xi, nu per state) for the oracle grid
ORACLE_MODELS = {
    "ideal": (1.0, 1.0, 0.0),
    "experimental": (0.65, 0.996, 9.1e-3),
    "lossy": (0.8, 0.99, 5e-3),
}
ORACLE_ALPHA_SQ = (0.0, 0.25, 1.0, 3.0, 7.0, 12.0)
ORACLE_TOL = 1e-13


def oracle_truth(alpha_sq, stages, ch, nu, dt):
    """Uniform truth tables for ``dt=None``, else the delay model at ``dt``."""
    if dt is None:
        return uniform_truth_tables(alpha_sq, stages, ch, nu)
    return delay_truth_tables(alpha_sq, stages, ch, nu,
                              DelayParams(200.0 / stages), dt)


def assert_matches_walk(model, truth=None):
    detail = enumerate_detail(model, truth)
    per_symbol, totals = walk_enumeration(model, truth)
    np.testing.assert_allclose(detail.per_symbol_error, per_symbol,
                               rtol=0, atol=ORACLE_TOL)
    np.testing.assert_allclose(detail.branch_totals, totals,
                               rtol=0, atol=ORACLE_TOL)


class TestMergedStates:
    """The layered dynamic program against the 2^M walk oracle."""

    @pytest.mark.parametrize("dt", [None, 0.0, 1.1, 3.0],
                             ids=["uniform", "delay0", "delay1.1", "delay3"])
    @pytest.mark.parametrize("name", sorted(ORACLE_MODELS))
    def test_matches_walk_oracle(self, name, dt):
        eta, xi, nu = ORACLE_MODELS[name]
        for alpha_sq in ORACLE_ALPHA_SQ:
            for stages in range(1, 15):
                model = InferenceModel(alpha_sq, stages, eta, xi, nu)
                truth = oracle_truth(alpha_sq, stages, model.channel(), nu, dt)
                assert_matches_walk(model, truth)

    @pytest.mark.parametrize("alpha_sq", ORACLE_ALPHA_SQ)
    def test_zero_likelihood_mismatch(self, alpha_sq):
        # ideal inference assigns zero likelihood to clicks that the noisy
        # truth produces: -inf log-posteriors must merge and argmax as walked
        truth_ch = ChannelModel(1.0, 0.9)
        for stages in range(1, 15):
            truth = uniform_truth_tables(alpha_sq, stages, truth_ch, 0.3)
            assert_matches_walk(InferenceModel(alpha_sq, stages), truth)

    def test_per_symbol_ties_at_experimental_condition(self):
        # a merge keyed on the 8 (outcome, target) counts rebuilds lp in
        # another order, settles exact ties differently and moves these
        # per-symbol errors by 1e-4 or more while the average agrees to 1e-16
        model = InferenceModel(3.0, 10, 0.65, 0.996, 9.1e-3)
        detail = enumerate_detail(model)
        per_symbol, _ = walk_enumeration(model)
        np.testing.assert_allclose(detail.per_symbol_error, per_symbol,
                                   rtol=0, atol=ORACLE_TOL)
        assert detail.error_prob == pytest.approx(per_symbol.mean(), abs=ORACLE_TOL)

    def test_peak_states_below_history_count(self):
        detail = enumerate_detail(InferenceModel(3.0, 16, 0.65, 0.996, 9.1e-3))
        assert 1 <= detail.peak_states < 2 ** 15

    @pytest.mark.parametrize("dt", [None, 0.0, 1.1, 3.0],
                             ids=["uniform", "delay0", "delay1.1", "delay3"])
    @pytest.mark.parametrize("name", sorted(ORACLE_MODELS))
    def test_bitwise_equal_to_lexsort_merge(self, name, dt):
        eta, xi, nu = ORACLE_MODELS[name]
        for alpha_sq in ORACLE_ALPHA_SQ:
            for stages in range(1, 17):
                model = InferenceModel(alpha_sq, stages, eta, xi, nu)
                truth = oracle_truth(alpha_sq, stages, model.channel(), nu, dt)
                assert_bitwise_equal(enumerate_detail(model, truth),
                                     lexsort_enumeration(model, truth))

    @pytest.mark.parametrize("alpha_sq", [3.0, 9.4])
    def test_bitwise_equal_to_lexsort_merge_at_m20(self, alpha_sq):
        # the experimental condition's largest layers: 1.8e5 states at 3.0
        model = InferenceModel(alpha_sq, 20, 0.657 * 0.9505, 0.996, 9.1e-3)
        assert_bitwise_equal(enumerate_detail(model), lexsort_enumeration(model))


def assert_bitwise_equal(detail, oracle):
    assert detail.error_prob == oracle.error_prob
    assert detail.per_symbol_error.tobytes() == oracle.per_symbol_error.tobytes()
    assert detail.branch_totals.tobytes() == oracle.branch_totals.tobytes()
    assert detail.peak_states == oracle.peak_states


def assert_key_sorts_as_lexsort(lp, prev):
    key = _order_key(lp, prev)
    order = np.lexsort((prev, lp[:, 3], lp[:, 2], lp[:, 1], lp[:, 0]))
    np.testing.assert_array_equal(np.argsort(key, kind="stable"), order)
    rows = np.column_stack((lp, prev))[order]
    ties = np.all(rows[1:] == rows[:-1], axis=1)
    np.testing.assert_array_equal(key[order][1:] == key[order][:-1], ties)


class TestOrderKey:
    """The merge key against ``np.lexsort((prev, lp3, lp2, lp1, lp0))``."""

    def test_ties_and_minus_inf(self):
        rng = np.random.default_rng(7)
        lp = rng.choice([-np.inf, -3.5, -1.25, -0.5, 0.0], size=(5000, 4))
        lp[::7] = lp[1::7]  # exact duplicate rows, prev aside
        prev = rng.integers(0, 4, size=5000).astype(np.int8)
        assert_key_sorts_as_lexsort(lp, prev)

    def test_one_and_two_rows(self):
        assert _order_key(np.zeros((1, 4)), np.array([2], dtype=np.int8)).tolist() == [2]
        lp = np.array([[0.0, -np.inf, -1.0, -2.0], [0.0, -np.inf, -1.0, -2.0]])
        assert_key_sorts_as_lexsort(lp, np.array([3, 1], dtype=np.int8))
        assert_key_sorts_as_lexsort(lp[::-1] - [0, 0, 0, 1], np.array([1, 1], dtype=np.int8))

    def test_rerank_past_2_to_60(self):
        # 2^16+ distinct values per column: four radices multiply past 2^60,
        # so the partial key is re-ranked before the last column
        rng = np.random.default_rng(11)
        n = 70_000
        lp = -rng.random((n, 4)) * 50.0
        lp[rng.random((n, 4)) < 0.01] = -np.inf
        lp[n // 2:n // 2 + 500] = lp[:500]
        prev = rng.integers(0, 4, size=n).astype(np.int8)
        radices = [len(np.unique(col)) for col in lp.T]
        assert min(radices) >= 1 << 16 and math.prod(radices) > 1 << 60
        assert_key_sorts_as_lexsort(lp, prev)


class TestTruthTables:
    def test_uniform_tables_are_transition_independent(self):
        t = uniform_truth_tables(2.0, 5, ChannelModel(0.7, 0.99), 1e-3)
        for dprev in range(4):
            for step in range(4):
                dnew = (dprev - step) % 4
                assert t.trans[dprev, step] == pytest.approx(t.first[dnew], rel=1e-15)

    def test_matched_truth_equals_inference_off_probs(self):
        model = InferenceModel(1.5, 4, 0.65, 0.996, 9.1e-3)
        t = truth_from_inference(model)
        np.testing.assert_allclose(t.first, model.off_probs(), rtol=1e-15)


class TestPointTables:
    """The one table layout both estimators read, entry by entry against the oracles."""

    model = InferenceModel(3.0, 10, 0.65, 0.996, 9.1e-3)
    ch = ChannelModel(0.65, 0.996)
    # delay model, hold 0.37 us and swing 0.63 us in a 20 us bin
    truth = oracle_truth(3.0, 10, ch, 9.1e-3, 0.5)

    @pytest.mark.parametrize("dt", [0.0, 0.5, 1.1])
    def test_truth_entries(self, dt):
        truth = oracle_truth(3.0, 10, self.ch, 9.1e-3, dt)
        first, trans, _ = point_tables(self.model, truth)
        assert first.shape == (4, 4) and trans.shape == (4, 4, 4)
        # the previous target matters until the discard window covers the 1 us ramp
        assert (len(set(trans[0, :, 1].tolist())) > 1) == (dt < 1.0)
        args = (truth.first, truth.trans)
        for m, prev, cur in itertools.product(range(4), repeat=3):
            assert first[m, cur] == truth_off_prob(*args, 0, m, prev, cur)
            assert trans[m, prev, cur] == truth_off_prob(*args, 1, m, prev, cur)
            assert trans.reshape(4, 16).T[4 * prev + cur, m] == trans[m, prev, cur]

    def test_step_rows(self):
        *_, loglik = point_tables(self.model, self.truth)
        np.testing.assert_array_equal(loglik, self.model.log_likelihood_table())
        stacked = np.stack([loglik, 2.0 * loglik])  # two points, as run_chunk takes them
        for cur, e, h in itertools.product(range(4), (0, 1), range(4)):
            assert step_rows(loglik)[2 * cur + e, h] == loglik[e][(h - cur) % 4]
            for point in (0, 1):
                assert (step_rows(stacked)[2 * (4 * point + cur) + e, h]
                        == stacked[point, e, (h - cur) % 4])

    def test_matched_truth_by_default(self):
        for default, matched in zip(point_tables(self.model),
                                    point_tables(self.model, truth_from_inference(self.model))):
            np.testing.assert_array_equal(default, matched)

    def test_stage_mismatch_rejected(self):
        with pytest.raises(ValueError, match="stage count"):
            point_tables(InferenceModel(3.0, 9), self.truth)


class TestMirrorTies:
    """The model is symmetric under m -> -m: deltas 1 and 3 tie bitwise."""

    model = InferenceModel(2.5, 7, 0.65, 0.996, 9.1e-3)

    def test_off_probs(self):
        p = self.model.off_probs()
        assert p[1] == p[3]

    def test_log_likelihood_table(self):
        ll = self.model.log_likelihood_table()
        assert np.array_equal(ll[:, 1], ll[:, 3])

    def test_bin_likelihood(self):
        m = self.model
        p = [off_probs(m.gamma_sq, m.channel(), m.nu_per_bin)[d % 4] for d in (1, 3, -1)]
        assert p[0] == p[1] == p[2]

    def test_uniform_truth_tables(self):
        t = uniform_truth_tables(2.5, 7, ChannelModel(0.65, 0.996), 9.1e-3)
        assert t.first[1] == t.first[3]
        for a in range(4):
            for b in range(4):
                assert t.trans[a, b] == t.trans[-a % 4, -b % 4]

    def test_delay_truth_tables_first_row(self):
        t = delay_truth_tables(2.5, 7, ChannelModel(0.65, 0.996), 9.1e-3,
                               DelayParams(), 1.1)
        assert t.first[1] == t.first[3]


def assert_kernel_matches_reference(inference, truth, trials, rng):
    for symbol in range(4):
        draws = rng.draws(symbol, 0, trials, inference.stages)
        assert (kernel_outcomes(inference, truth, symbol, trials, rng).tolist()
                == [reference_trial(symbol, truth, inference, row) for row in draws])


class TestZeroLikelihoodRule:
    """Ideal inference against noisy truth: clicks that every hypothesis
    gives zero likelihood leave an all -inf log-posterior, decided as symbol 0
    by every estimator."""

    def test_reference_trial_matches_kernel(self):
        # 344 of these 800 trials reach an all -inf log-posterior
        truth = uniform_truth_tables(4.0, 10, ChannelModel(1.0, 0.9), 0.3)
        assert_kernel_matches_reference(ideal(4.0, 10), truth, 200, RngSpec(0))

    @settings(max_examples=25, deadline=None)
    @given(alpha_sq=st.floats(0.0, 12.0), stages=st.integers(1, 8),
           xi=st.floats(0.0, 1.0), nu=st.floats(0.0, 1.0),
           seed=st.integers(0, 2**32))
    def test_estimators_agree(self, alpha_sq, stages, xi, nu, seed):
        inference = ideal(alpha_sq, stages)
        truth = uniform_truth_tables(alpha_sq, stages, ChannelModel(1.0, xi), nu)
        assert_matches_walk(inference, truth)
        assert_kernel_matches_reference(inference, truth, 50, RngSpec(seed))
