import itertools
import math

import numpy as np
import pytest

from qpskrx.bayes import (MAX_ENUM_STAGES, InferenceModel, bin_likelihood,
                          decide, enumerate_detail,
                          enumerate_error_probability, initial_state,
                          posterior_update, truth_from_inference,
                          uniform_truth_tables)
from qpskrx.bounds import helstrom_qpsk, sql_heterodyne
from qpskrx.delay import DelayParams, delay_truth_tables
from qpskrx.physics import (ChannelModel, DetectorModel, QpskAlphabet,
                            off_probability, symbol_amplitude)


def ideal(alpha_sq, stages):
    return InferenceModel(alpha_sq, stages)


def _log(p):
    return math.log(p) if p > 0.0 else -math.inf


def walk_enumeration(model, truth=None):
    """Reference 2^M walk over every outcome history.

    The posterior is accumulated with the same IEEE adds as the receiver and
    the target is the first maximum, so ties are settled as in
    ``enumerate_detail``; each history's weight is exp of its summed
    log-probabilities, and the weights are summed with ``math.fsum``.
    Returns (per-symbol error, per-symbol branch total).
    """
    M = model.stages
    if truth is None:
        truth = truth_from_inference(model)
    ll = model.log_likelihood_table().tolist()
    first = truth.first.tolist()
    trans = truth.trans.tolist()
    correct = [[] for _ in range(4)]
    total = [[] for _ in range(4)]

    def argmax(values):
        return max(range(4), key=values.__getitem__)

    def walk(i, lp, prev, cur, lb):
        if i == M:
            d = argmax(lp)
            for m in range(4):
                w = math.exp(lb[m])
                total[m].append(w)
                if m == d:
                    correct[m].append(w)
            return
        if i == 0:
            p_t = [first[(m - cur) % 4] for m in range(4)]
        else:
            p_t = [trans[(m - prev) % 4][(cur - prev) % 4] for m in range(4)]
        for e in (0, 1):
            lb2 = [lb[m] + _log(p_t[m] if e == 0 else 1.0 - p_t[m])
                   for m in range(4)]
            lp2 = [lp[h] + ll[e][(h - cur) % 4] for h in range(4)]
            walk(i + 1, lp2, cur, argmax(lp2), lb2)

    walk(0, [0.0] * 4, 0, 0, [0.0] * 4)
    per_symbol = np.array([1.0 - math.fsum(c) for c in correct])
    return per_symbol, np.array([math.fsum(t) for t in total])


def brute_force_error(alpha_sq, stages):
    """Ideal nulling receiver from complex amplitudes, |gamma_m - gamma_t|^2.

    Shares no table or recursion with ``enumerate_detail``: every history is
    replayed with probability-space likelihoods and the MAP target refreshed
    after each bin.  Ties may be settled differently by roundoff, so only the
    average error is comparable.
    """
    alphabet = QpskAlphabet.from_mean_photons(alpha_sq)
    gammas = [symbol_amplitude(alphabet, m, stages) for m in range(4)]
    det = DetectorModel(1.0)
    error = 0.0
    for m_true in range(4):
        for bits in itertools.product((0, 1), repeat=stages):
            like = [1.0] * 4
            target = 0
            for e in bits:
                for h in range(4):
                    p_off = off_probability(gammas[h], gammas[target], det)
                    like[h] *= p_off if e == 0 else 1.0 - p_off
                target = max(range(4), key=like.__getitem__)
            if target != m_true:
                error += like[m_true] / 4
    return error


class TestInitialState:
    def test_uniform_prior_target_zero(self):
        s = initial_state()
        np.testing.assert_allclose(s.posterior, 0.25)
        assert s.target == 0

    def test_posterior_normalized(self):
        assert initial_state().posterior.sum() == pytest.approx(1.0, abs=1e-12)


class TestBinLikelihood:
    def test_matched_hypothesis_never_clicks_ideally(self):
        assert bin_likelihood(ideal(1.0, 3), m=1, target=1, e=0) == 1.0

    def test_opposite_phase(self):
        model = InferenceModel(0.5, 1)
        assert bin_likelihood(model, m=2, target=0, e=0) == pytest.approx(
            math.exp(-2), rel=1e-12)

    def test_complement(self):
        model = InferenceModel(2.0, 4, 0.7, 0.99, 1e-3)
        for m in range(4):
            on = bin_likelihood(model, m, 1, 1)
            off = bin_likelihood(model, m, 1, 0)
            assert on == pytest.approx(1.0 - off, abs=1e-15)


class TestPosteriorUpdate:
    def test_zero_signal_is_uninformative(self):
        s = posterior_update(initial_state(), 0, ideal(0.0, 4))
        np.testing.assert_allclose(s.posterior, 0.25, atol=1e-15)

    def test_hand_value_single_stage_off(self):
        g = 0.8
        s = posterior_update(initial_state(), 0, ideal(g, 1))
        expected0 = 1.0 / (1.0 + math.exp(-2 * g)) ** 2
        assert s.posterior[0] == pytest.approx(expected0, rel=1e-12)
        assert s.posterior[1] == pytest.approx(s.posterior[3], rel=1e-12)

    def test_click_points_to_opposite_symbol(self):
        s = posterior_update(initial_state(), 1, ideal(1.0, 4))
        assert np.argmax(s.posterior) == 2
        assert s.target == 2

    def test_normalization_chain(self):
        model = InferenceModel(3.0, 8, 0.65, 0.996, 9.1e-3)
        s = initial_state()
        for e in (0, 1, 1, 0, 1, 0, 0, 1):
            s = posterior_update(s, e, model)
            assert s.posterior.sum() == pytest.approx(1.0, abs=1e-10)


class TestDecide:
    def test_clear_winner(self):
        s = initial_state()
        s = posterior_update(s, 0, ideal(5.0, 1))
        assert decide(s) == 0

    def test_tie_breaks_to_lowest_index(self):
        assert decide(initial_state()) == 0


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
        # re-walk one concrete history and compare its weight against the
        # product of per-bin likelihoods along the realized target sequence
        model = InferenceModel(1.2, 3, 0.9, 0.98, 1e-3)
        truth = truth_from_inference(model)
        for bits in [(0, 0, 0), (1, 0, 1), (0, 1, 1), (1, 1, 1)]:
            m_true = 2
            state = initial_state()
            prob = 1.0
            targets = []
            for i, e in enumerate(bits):
                targets.append(state.target)
                prev = targets[-2] if len(targets) > 1 else 0
                prob *= (truth.off_prob(i, m_true, prev, state.target) if e == 0
                         else 1.0 - truth.off_prob(i, m_true, prev, state.target))
                state = posterior_update(state, e, model)
            # naive product straight from the recorded target sequence
            prob2 = 1.0
            for i, (e, t) in enumerate(zip(bits, targets)):
                prev = targets[i - 1] if i else 0
                p_off = truth.off_prob(i, m_true, prev, t)
                prob2 *= p_off if e == 0 else 1.0 - p_off
            assert prob == pytest.approx(prob2, rel=1e-12)
            assert 0.0 <= prob <= 1.0


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
        for e in (0, 1):
            assert (bin_likelihood(self.model, m=1, target=0, e=e)
                    == bin_likelihood(self.model, m=3, target=0, e=e))

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
