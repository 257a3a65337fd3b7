import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import (brute_force_error, decimal_enumeration, kernel_outcomes,
                     lexsort_enumeration, log, normalized, posterior_step,
                     reference_trial, truth_off_prob, walk_enumeration)
from qpskrx import bayes, montecarlo
from qpskrx._kernels import step_rows
from qpskrx.bayes import (InferenceModel, _dyadic, _first_argmax, _grid_exponent, _sort,
                          _value_key, enumerate_detail, enumerate_error_probability,
                          enumerate_points, grid_tables, truth_from_inference)
from qpskrx.bounds import helstrom_qpsk, sql_heterodyne
from qpskrx.cli import matched_inference
from qpskrx.config import load_config
from qpskrx.delay import DelayParams, delay_truth_tables
from qpskrx.montecarlo import RngSpec, estimate_errors


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
        # the logs that the dyadic table rounds; the table itself is checked
        # against them in TestDyadicTable
        p = InferenceModel(2.0, 4, 0.7, 0.99, 1e-3).off_probs()
        np.testing.assert_allclose(np.exp([log(1.0 - x) for x in p]),
                                   1.0 - np.exp([log(x) for x in p]), rtol=0, atol=1e-15)


# (alpha_sq, stages, eta, xi, nu per state), extreme inputs included: p_off(2)
# underflows to 0 at 500, every p_off(delta) does at 1e300 (ideal aside)
DYADIC_MODELS = [
    (2.0, 4, 0.7, 0.99, 1e-3), (3.0, 10, 0.65, 0.996, 9.1e-3), (2.5, 7, 0.65, 0.996, 9.1e-3),
    (1.0, 3, 1.0, 1.0, 0.0), (0.0, 4, 1.0, 1.0, 0.0), (0.0, 5, 0.65, 0.996, 9.1e-3),
    (9.4, 50, 0.657 * 0.9505, 0.996, 9.1e-3), (3.0, 100_000, 0.8, 0.99, 5e-3),
    (500.0, 1, 0.65, 0.996, 5e-324), (1e300, 1, 1.0, 1.0, 0.0),
    (1e300, 7, 0.65, 0.996, 9.1e-3), (1e300, 3, 0.8, 0.0, 1e300),
    (1e-300, 3, 0.65, 0.996, 5e-324), (7.0, 2, 0.3, 0.5, 1e-12),
]


@pytest.fixture(params=DYADIC_MODELS, ids=lambda p: "-".join(map(str, p)))
def dyadic(request):
    """A model, its table, the exact logs the table rounds and its grid exponent.

    The off logs are -mu, -inf where exp(-mu) is 0; the on logs log(1 - exp(-mu)).
    """
    model = InferenceModel(*request.param)
    mu = model.mean_count().tolist()
    p = [math.exp(-x) for x in mu]
    logs = [[-x if q > 0.0 else -math.inf for x, q in zip(mu, p)], [log(1.0 - q) for q in p]]
    return model, model.log_likelihood_table(), logs, _grid_exponent(logs, model.stages)


class TestDyadicTable:
    """``log_likelihood_table`` on its grid: exact sums, hence order-free ties."""

    def test_entries_on_the_grid(self, dyadic):
        _, ll, logs, k = dyadic
        finite = ll[np.isfinite(ll)]
        assert all(math.ldexp(x, k).is_integer() for x in finite.tolist())
        np.testing.assert_array_equal(np.isfinite(ll), np.isfinite(logs))
        assert not np.isnan(ll).any()
        assert not np.signbit(ll[ll == 0.0]).any()  # a rounded zero is +0.0

    def test_off_row_affine_and_mirror(self, dyadic):
        _, ll, *_ = dyadic
        off = ll[0]
        if np.isfinite(off).all():
            assert off[0] + off[2] == 2.0 * off[1]
        assert ll[0, 1] == ll[0, 3] and ll[1, 1] == ll[1, 3]

    def test_off_row_rounds_the_mean_counts(self, dyadic):
        # o = -mu(0) and t = mu(1) - mu(0), each rounded to the grid once
        model, ll, _, k = dyadic
        mu = model.mean_count().tolist()
        if np.isfinite(ll[0, :2]).all():
            assert ll[0, 0] == _dyadic(-mu[0], k)
            assert ll[0, 0] - ll[0, 1] == _dyadic(mu[1] - mu[0], k)

    def test_entries_near_the_logs(self, dyadic):
        # o and the on row round once (half a step); o - t and o - 2t carry
        # the rounding of o and of t and the roundoff of the logs
        _, ll, logs, k = dyadic
        finite, logs = np.isfinite(ll), np.array(logs)
        assert np.all(np.abs(ll[finite] - logs[finite]) <= math.ldexp(2.0, -k))
        on = finite[1]
        assert np.all(np.abs(ll[1, on] - logs[1, on]) <= math.ldexp(0.5, -k))
        if finite[0, 0]:
            assert abs(ll[0, 0] - logs[0, 0]) <= math.ldexp(0.5, -k)

    def test_sums_of_m_entries_exact(self, dyadic):
        model, ll, _, k = dyadic
        finite = np.abs(ll[np.isfinite(ll)])
        assert model.stages * math.ldexp(finite.max(initial=0.0), k) < 2.0 ** 53

    def test_sums_independent_of_order(self, dyadic):
        model, ll, *_ = dyadic
        rng = np.random.default_rng(5)
        rows = step_rows(ll)[rng.integers(0, 8, size=min(model.stages, 2000))]
        sums = []
        for _ in range(4):
            lp = np.zeros(4)
            for row in rng.permutation(rows):
                lp = lp + row
            sums.append(lp.tobytes())
        assert len(set(sums)) == 1


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

    def test_past_twenty_stages(self):
        detail = enumerate_detail(InferenceModel(3.0, 21, 0.657 * 0.9505, 0.996, 9.1e-3))
        assert detail.peak_states <= bayes.MAX_ENUM_STATES
        assert detail.error_prob == pytest.approx(detail.per_symbol_error.mean(), abs=1e-15)

    @staticmethod
    def experimental(stages):
        """The default config's experimental condition at |alpha|^2 = 3."""
        return matched_inference(load_config(None, {}, mode="enumerate"), 3.0, m=stages)

    def test_relative_merge_at_m50(self):
        # merged on absolute outcome counts it peaked at 170,308 states
        assert enumerate_detail(self.experimental(50)).peak_states <= 45_000

    def test_m100_within_budget_and_monte_carlo(self):
        # merged on absolute outcome counts, layer 60 held 267,613 states
        model = self.experimental(100)
        detail = enumerate_detail(model)
        assert detail.peak_states <= bayes.MAX_ENUM_STATES
        mc = estimate_errors([(model, None)], 40_000, RngSpec(23))[0]
        assert abs(mc.error_prob - detail.error_prob) < 5 * mc.stderr

    def test_state_budget(self, monkeypatch):
        model = InferenceModel(3.0, 10, 0.65, 0.996, 9.1e-3)
        peak = enumerate_detail(model).peak_states
        monkeypatch.setattr(bayes, "MAX_ENUM_STATES", peak)
        enumerate_detail(model)
        monkeypatch.setattr(bayes, "MAX_ENUM_STATES", peak - 1)
        with pytest.raises(ValueError, match=rf"layer \d+ of 10 holds {peak} merged states, "
                                             rf"over the budget of {peak - 1}"):
            enumerate_detail(model)

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
# inference for the tie-rule grid against the decimal walk; "sweep" is the
# sweep default at M=10 (eta_t * eta_spd times the discard multiplier)
TIE_MODELS = {
    "ideal": (1.0, 1.0, 0.0),
    "experimental": (0.65, 0.996, 9.1e-3),
    "sweep": (0.657 * 0.9505, 0.996, 9.1e-3),
    "lossy": (0.8, 0.99, 5e-3),
}
TIE_ALPHA_SQ = (0.25, 1.0, 3.0, 5.0, 9.4)


def oracle_truth(model, dt):
    """Matched truth tables of ``model`` for ``dt=None``, else the delay model at ``dt``."""
    if dt is None:
        return truth_from_inference(model)
    return delay_truth_tables(model, DelayParams(200.0 / model.stages, 0.37, 0.63), dt, True)


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
                truth = oracle_truth(model, dt)
                assert_matches_walk(model, truth)

    @pytest.mark.parametrize("alpha_sq", ORACLE_ALPHA_SQ)
    def test_zero_likelihood_mismatch(self, alpha_sq):
        # ideal inference assigns zero likelihood to clicks that the noisy
        # truth produces: -inf log-posteriors must merge and argmax as walked
        for stages in range(1, 15):
            truth = truth_from_inference(InferenceModel(alpha_sq, stages, 1.0, 0.9, 0.3))
            assert_matches_walk(InferenceModel(alpha_sq, stages), truth)

    def test_per_symbol_ties_at_experimental_condition(self):
        # hypotheses whose outcome counts tie in real arithmetic: a float lp
        # summed in time order split them by its last bit and moved these
        # per-symbol errors by 2e-4 against the decimal walk, while the
        # average agreed to 1e-16; the dyadic table's sums are exact
        model = InferenceModel(3.0, 10, 0.65, 0.996, 9.1e-3)
        detail = enumerate_detail(model)
        for per_symbol, _ in (walk_enumeration(model), decimal_enumeration(model)):
            np.testing.assert_allclose(detail.per_symbol_error, per_symbol,
                                       rtol=0, atol=ORACLE_TOL)
            assert detail.error_prob == pytest.approx(per_symbol.mean(), abs=ORACLE_TOL)

    @pytest.mark.parametrize("dt", [None, 0.0, 1.1], ids=["uniform", "delay0", "delay1.1"])
    @pytest.mark.parametrize("name", sorted(TIE_MODELS))
    def test_tie_rule_matches_decimal_walk(self, name, dt):
        eta, xi, nu = TIE_MODELS[name]
        for alpha_sq in TIE_ALPHA_SQ:
            for stages in range(1, 11):
                model = InferenceModel(alpha_sq, stages, eta, xi, nu)
                truth = oracle_truth(model, dt)
                per_symbol, totals = decimal_enumeration(model, truth)
                detail = enumerate_detail(model, truth)
                np.testing.assert_allclose(detail.per_symbol_error, per_symbol,
                                           rtol=0, atol=ORACLE_TOL)
                np.testing.assert_allclose(detail.branch_totals, totals,
                                           rtol=0, atol=ORACLE_TOL)

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
                truth = oracle_truth(model, dt)
                assert_bitwise_equal(enumerate_detail(model, truth),
                                     lexsort_enumeration(model, truth))

    @pytest.mark.parametrize("alpha_sq", [3.0, 9.4])
    def test_bitwise_equal_to_lexsort_merge_at_m20(self, alpha_sq):
        # the experimental condition's largest layers: 1.8e5 states at 3.0
        model = InferenceModel(alpha_sq, 20, 0.657 * 0.9505, 0.996, 9.1e-3)
        assert_bitwise_equal(enumerate_detail(model), lexsort_enumeration(model))

    @pytest.mark.parametrize("alpha_sq", np.linspace(0.25, 12.0, 5))
    def test_bitwise_equal_to_lexsort_merge_at_enumerate_m16(self, alpha_sq):
        # the five points of the enumerate-m16 benchmark workload
        cfg = load_config(None, {"m": 16, "alpha_sq_start": 0.25, "alpha_sq_stop": 12.0,
                                 "alpha_sq_points": 5, "alpha_sq_spacing": "linear"},
                          mode="enumerate")
        model = matched_inference(cfg, float(alpha_sq))
        assert_bitwise_equal(enumerate_detail(model), lexsort_enumeration(model))

    def test_bitwise_equal_to_lexsort_merge_with_delay_at_m20(self):
        # a truth table that reads the previous target, past the 1..16 loop
        eta, xi, nu = ORACLE_MODELS["experimental"]
        model = InferenceModel(3.0, 20, eta, xi, nu)
        truth = oracle_truth(model, 0.0)
        uniform = oracle_truth(model, None)
        assert not np.array_equal(truth.trans, uniform.trans)
        assert_bitwise_equal(enumerate_detail(model, truth),
                             lexsort_enumeration(model, truth))

    @pytest.mark.parametrize("alpha_sq, peak, error_prob", [
        (3.0, 4651, 0.005408237758829981), (9.4, 5423, 1.7204094759915023e-08)])
    def test_dead_columns_merge_by_value_at_m100(self, alpha_sq, peak, error_prob):
        # ideal inference: a click at target c leaves lp[c] = -inf.  Merged on
        # outcome counts alone, histories that differ only in a dead column's
        # counts stay apart (268,856 states at layer 92 at 3.0, over the
        # budget); peak and error_prob are those of a merge on lp values
        detail = enumerate_detail(InferenceModel(alpha_sq, 100))
        assert detail.peak_states == peak
        assert detail.error_prob == pytest.approx(error_prob, rel=0, abs=1e-15)

    def test_minus_inf_in_the_off_row(self):
        # p_off(2) = exp(-953) underflows, so no-clicks kill a column too
        model = InferenceModel(800.0, 3, 0.9, 0.99, 0.01)
        o, ot, dead, ot3 = model.log_likelihood_table()[0]
        assert dead == -np.inf and ot == ot3 and -np.inf < ot < o
        assert_matches_walk(model)
        assert_bitwise_equal(enumerate_detail(model), lexsort_enumeration(model))

    @pytest.mark.parametrize("model", [InferenceModel(3.0, 16, 0.657 * 0.9505, 0.996, 9.1e-3),
                                       InferenceModel(1.0, 12, 0.8, 0.99, 5e-3)],
                             ids=["experimental-m16", "lossy-m12"])
    def test_value_key_when_count_fields_do_not_fit(self, monkeypatch, model):
        # D_1, D_2 take (4M).bit_length() bits each, E_0..E_2 (2M).bit_length()
        # and prev 2; one bit short, every row merges on its lp values
        counts, values = lexsort_enumeration(model), lexsort_enumeration(model, counts=False)
        assert counts.branch_totals.tobytes() != values.branch_totals.tobytes()
        m = model.stages
        bits = 2 + 3 * (2 * m).bit_length() + 2 * (4 * m).bit_length()
        monkeypatch.setattr(bayes, "KEY_BITS", bits)
        assert_bitwise_equal(enumerate_detail(model), counts)
        monkeypatch.setattr(bayes, "KEY_BITS", bits - 1)
        assert_bitwise_equal(enumerate_detail(model), values)

    def test_count_fields_fit_below_m1024(self):
        assert bayes._count_steps(1023)[1] and not bayes._count_steps(1024)[1]


def field_rows(stages):
    """Rows (D_1, D_2, E_0, E_1, E_2, prev) of the count key at M = ``stages``."""
    d, e = 2 * stages, stages
    return st.tuples(*[st.integers(-d, d)] * 2, *[st.integers(-e, e)] * 3, st.integers(0, 3))


def field_corners(stages):
    """Every field at its least, zero or greatest value, prev 0 or 3."""
    d, e = 2 * stages, stages
    return list(itertools.product((-d, 0, d), (-d, 0, d), *[(-e, 0, e)] * 3, (0, 3)))


class TestCountKeyLayout:
    """The packed count key against ``np.lexsort`` of its signed fields."""

    @settings(max_examples=150, deadline=None)
    @given(stages=st.sampled_from([1, 1023]) | st.integers(1, 1023), data=st.data())
    def test_packs_injectively_in_lexicographic_order(self, stages, data):
        rows = data.draw(st.lists(field_rows(stages), min_size=1, max_size=40))
        fields = np.array(rows + rows[::3] + field_corners(stages), dtype=np.int64)
        shifts, bits = bayes._count_fields(stages)
        key = fields[:, :5] @ (np.int64(1) << np.array(shifts, dtype=np.int64)) + fields[:, 5]
        assert np.abs(key).max() < 1 << bits - 1 and bits <= bayes.KEY_BITS
        order = np.lexsort(fields.T[::-1])
        np.testing.assert_array_equal(np.argsort(key, kind="stable"), order)
        ties = np.all(fields[order][1:] == fields[order][:-1], axis=1)
        np.testing.assert_array_equal(key[order][1:] == key[order][:-1], ties)
        np.testing.assert_array_equal(key & 3, fields[:, 5])

    def test_steps_carry_the_fields(self):
        # after any outcomes, the key is the packed fields of the raw counts
        stages = 1023
        steps, fits = bayes._count_steps(stages)
        shifts, _ = bayes._count_fields(stages)
        rng = np.random.default_rng(3)
        for _ in range(20):
            outcomes = rng.integers(0, 8, size=stages)  # 2 * cur + e
            key, prev = 0, 0
            for outcome in outcomes.tolist():
                cur, e = divmod(outcome, 2)
                key += int(steps[e, 4 * prev + cur])
                prev = cur
            n = np.bincount(outcomes, minlength=8).reshape(4, 2)  # n[c, e]
            x = [sum(int(n[c, 0]) * bayes._W[(h - c) % 4] for c in range(4)) for h in range(3)]
            fields = (x[1] - x[0], x[2] - x[0], *(int(n[c, 1] - n[3, 1]) for c in range(3)))
            assert fits and key == sum(f << s for f, s in zip(fields, shifts)) + prev


def assert_bitwise_equal(detail, oracle):
    assert detail.error_prob == oracle.error_prob
    assert detail.per_symbol_error.tobytes() == oracle.per_symbol_error.tobytes()
    assert detail.branch_totals.tobytes() == oracle.branch_totals.tobytes()
    assert detail.peak_states == oracle.peak_states


def assert_key_sorts_as_lexsort(lp, prev):
    key = _value_key(lp, prev)
    order = np.lexsort((prev, lp[:, 3], lp[:, 2], lp[:, 1], lp[:, 0]))
    np.testing.assert_array_equal(np.argsort(key, kind="stable"), order)
    rows = np.column_stack((lp, prev))[order]
    ties = np.all(rows[1:] == rows[:-1], axis=1)
    np.testing.assert_array_equal(key[order][1:] == key[order][:-1], ties)


class TestValueKey:
    """The value key against ``np.lexsort((prev, lp3, lp2, lp1, lp0))``."""

    def test_ties_and_minus_inf(self):
        rng = np.random.default_rng(7)
        lp = rng.choice([-np.inf, -3.5, -1.25, -0.5, 0.0], size=(5000, 4))
        lp[::7] = lp[1::7]  # exact duplicate rows, prev aside
        prev = rng.integers(0, 4, size=5000).astype(np.int8)
        assert_key_sorts_as_lexsort(lp, prev)

    def test_one_and_two_rows(self):
        assert _value_key(np.zeros((1, 4)), np.array([2], dtype=np.int8)).tolist() == [2]
        lp = np.array([[0.0, -np.inf, -1.0, -2.0], [0.0, -np.inf, -1.0, -2.0]])
        assert_key_sorts_as_lexsort(lp, np.array([3, 1], dtype=np.int8))
        assert_key_sorts_as_lexsort(lp[::-1] - [0, 0, 0, 1], np.array([1, 1], dtype=np.int8))

    def test_many_distinct_values_per_column(self):
        # many distinct values: 2^16+ per column, their product past 2^60
        rng = np.random.default_rng(11)
        n = 70_000
        lp = -rng.random((n, 4)) * 50.0
        lp[rng.random((n, 4)) < 0.01] = -np.inf
        lp[n // 2:n // 2 + 500] = lp[:500]
        prev = rng.integers(0, 4, size=n).astype(np.int8)
        radices = [len(np.unique(col)) for col in lp.T]
        assert min(radices) >= 1 << 16 and math.prod(radices) > 1 << 60
        assert_key_sorts_as_lexsort(lp, prev)


GRID_STAGES = (16, 1, 9, 4, 13, 2, 7, 11, 3, 16, 6, 5, 8, 14, 10, 12, 15)


def grid_points():
    """A mixed grid: experimental and ideal inference, matched truths, delay
    truths and the ideal model's zero-likelihood mismatch, M from 1 to 16
    interleaved so that points drop off at most lengths, and one point twice."""
    points = []
    for i, stages in enumerate(GRID_STAGES):
        name = ("experimental", "ideal")[i % 2]
        model = InferenceModel((0.25, 1.0, 3.0, 7.0)[i % 4], stages, *ORACLE_MODELS[name])
        if i % 3 == 0:
            truth = None
        elif i % 3 == 1:
            truth = oracle_truth(model, 1.1)
        elif name == "ideal":
            truth = truth_from_inference(InferenceModel(model.alpha_sq, stages, 1.0, 0.9, 0.3))
        else:
            truth = oracle_truth(model, 3.0)
        points.append((model, truth))
    return points + [points[4]]


class TestGridPass:
    """``enumerate_points`` against one-point calls and the lexsort merge, bitwise."""

    def test_each_point_as_alone(self):
        points = grid_points()
        details = enumerate_points(points)
        assert len(details) == len(points)
        for (model, truth), detail in zip(points, details):
            assert detail.branch_totals.base is None  # holds no layer-sized array alive
            assert_bitwise_equal(detail, enumerate_detail(model, truth))
            assert_bitwise_equal(detail, lexsort_enumeration(model, truth))
        assert_bitwise_equal(details[-1], details[4])

    def test_empty_grid(self):
        assert enumerate_points([]) == []

    @pytest.mark.parametrize("extra", [0, 300])
    def test_split_over_budget_keeps_every_result(self, monkeypatch, extra):
        points = grid_points()
        details = enumerate_points(points)
        splits = []
        split = bayes._Pass.split

        def counted(self, at, cut):
            splits.append(at)
            return split(self, at, cut)

        monkeypatch.setattr(bayes._Pass, "split", counted)
        monkeypatch.setattr(bayes, "MAX_ENUM_STATES", max(d.peak_states for d in details) + extra)
        for detail, again in zip(details, enumerate_points(points), strict=True):
            assert_bitwise_equal(again, detail)
        assert splits  # the budget cut the pass at least once

    def test_point_over_budget_raises_its_own_message(self, monkeypatch):
        big = InferenceModel(3.0, 14, 0.65, 0.996, 9.1e-3)
        small = [(InferenceModel(a, m, 0.65, 0.996, 9.1e-3), None) for a, m in ((1.0, 6), (4.0, 8))]
        peak = enumerate_detail(big).peak_states
        assert all(d.peak_states < peak - 1 for d in enumerate_points(small))
        monkeypatch.setattr(bayes, "MAX_ENUM_STATES", peak - 1)
        with pytest.raises(ValueError) as alone:
            enumerate_detail(big)
        with pytest.raises(ValueError) as grid:
            enumerate_points([small[0], (big, None), small[1]])
        assert str(grid.value) == str(alone.value)
        assert f"of 14 holds {peak} merged states" in str(alone.value)

    def test_passes_split_where_point_and_key_bits_do_not_fit(self, monkeypatch):
        # M=16 count keys take 34 bits, 35 with value keys: with 36 bits for the
        # pass, a pass holds 4 points, or 2 once one takes value keys
        points = [(InferenceModel(a, 16, 0.65, 0.996, 9.1e-3), None) for a in (1, 2, 3, 4, 5, 6)]
        points.insert(4, (InferenceModel(2.0, 16), None))
        details = enumerate_points(points)
        monkeypatch.setattr(bayes, "PASS_BITS", 36)
        assert [len(group) for group in bayes._passes(grid_tables(points))] == [4, 2, 1]
        for detail, again in zip(details, enumerate_points(points), strict=True):
            assert_bitwise_equal(again, detail)

    def test_points_keep_their_keys_when_another_does_not_fit(self, monkeypatch):
        # the count fields take 29 bits at M = 8..15 and 24 at M = 4..7: with
        # 28, the M=12 point merges every row on its lp values, as alone, and
        # the shorter points keep their count keys
        long = InferenceModel(1.0, 12, 0.8, 0.99, 5e-3)
        short = [InferenceModel(a, m, 0.8, 0.99, 5e-3) for a, m in ((2.0, 7), (1.0, 5))]
        monkeypatch.setattr(bayes, "KEY_BITS", 28)
        details = enumerate_points([(short[0], None), (long, None), (short[1], None)])
        assert_bitwise_equal(details[1], lexsort_enumeration(long, counts=False))
        for model, detail in zip(short, details[::2]):
            assert_bitwise_equal(detail, lexsort_enumeration(model))


class TestLayerHelpers:
    @pytest.mark.parametrize("bits", [20, 62])  # a packed value sort; an argsort
    def test_sort(self, bits):
        rng = np.random.default_rng(3)
        keys = rng.integers(-(1 << (bits - 1)), 1 << (bits - 1), size=5000)
        keys[::3] = keys[1::3]  # ties
        order, got = _sort(keys.copy(), bits)
        np.testing.assert_array_equal(got, np.sort(keys))
        np.testing.assert_array_equal(keys[order], got)
        assert sorted(order.tolist()) == list(range(len(keys)))

    def test_first_argmax(self):
        values = (-np.inf, -1.5, 0.0, 0.25, 1.0)
        lp = np.array(list(itertools.product(values, repeat=4)))
        np.testing.assert_array_equal(_first_argmax(lp), lp.argmax(axis=1))


class TestTruthTables:
    def test_uniform_tables_are_transition_independent(self):
        t = truth_from_inference(InferenceModel(2.0, 5, 0.7, 0.99, 1e-3))
        for dprev in range(4):
            for step in range(4):
                dnew = (dprev - step) % 4
                assert t.trans[dprev, step] == pytest.approx(t.first[dnew], rel=1e-15)

    def test_matched_truth_equals_inference_off_probs(self):
        model = InferenceModel(1.5, 4, 0.65, 0.996, 9.1e-3)
        t = truth_from_inference(model)
        np.testing.assert_allclose(t.first, model.off_probs(), rtol=1e-15)


class TestPointTables:
    """One point's tables in ``grid_tables``' layout, which both estimators read,
    entry by entry against the oracles."""

    model = InferenceModel(3.0, 10, 0.65, 0.996, 9.1e-3)
    # delay model, hold 0.37 us and swing 0.63 us in a 20 us bin
    truth = oracle_truth(model, 0.5)

    @pytest.mark.parametrize("dt", [0.0, 0.5, 1.1])
    def test_truth_entries(self, dt):
        truth = oracle_truth(self.model, dt)
        order, stages, first, trans, _ = grid_tables([(self.model, truth)])
        assert order == [0] and stages.tolist() == [10]
        assert first.shape == (1, 4, 4) and trans.shape == (1, 4, 4, 4)
        first, trans = first[0], trans[0]
        # the previous target matters until the discard window covers the 1 us ramp
        assert (len(set(trans[0, :, 1].tolist())) > 1) == (dt < 1.0)
        args = (truth.first, truth.trans)
        for m, prev, cur in itertools.product(range(4), repeat=3):
            assert first[m, cur] == truth_off_prob(*args, 0, m, prev, cur)
            assert trans[m, prev, cur] == truth_off_prob(*args, 1, m, prev, cur)
            assert trans.reshape(4, 16).T[4 * prev + cur, m] == trans[m, prev, cur]

    def test_step_rows(self):
        *_, loglik = grid_tables([(self.model, self.truth)])
        np.testing.assert_array_equal(loglik, [self.model.log_likelihood_table()])
        loglik = loglik[0]
        stacked = np.stack([loglik, 2.0 * loglik])  # two points, as run_chunk takes them
        for cur, e, h in itertools.product(range(4), (0, 1), range(4)):
            assert step_rows(loglik)[2 * cur + e, h] == loglik[e][(h - cur) % 4]
            for point in (0, 1):
                assert (step_rows(stacked)[2 * (4 * point + cur) + e, h]
                        == stacked[point, e, (h - cur) % 4])

    def test_matched_truth_by_default(self):
        for default, matched in zip(grid_tables([(self.model, None)]),
                                    grid_tables([(self.model, truth_from_inference(self.model))])):
            np.testing.assert_array_equal(default, matched)

    def test_stage_mismatch_rejected(self):
        with pytest.raises(ValueError, match="stage count"):
            grid_tables([(InferenceModel(3.0, 9), self.truth)])


class TestGridTables:
    """The stack of a grid's tables, built once for both estimators."""

    def test_longest_first_ties_in_given_order(self):
        points = grid_points()
        order, stages, *_ = grid_tables(points)
        assert sorted(order) == list(range(len(points)))
        assert stages.tolist() == [points[j][0].stages for j in order]
        assert order == sorted(range(len(points)), key=lambda j: (-points[j][0].stages, j))
        assert order.index(4) < order.index(len(points) - 1)  # the repeated point

    def test_each_point_as_alone(self):
        points = grid_points()
        order, stages, *tables = grid_tables(points)
        for row, j in enumerate(order):
            alone = grid_tables([points[j]])
            assert alone[0] == [0] and alone[1].tolist() == [stages[row]]
            for table, single in zip(tables, alone[2:]):
                assert table[row].tobytes() == single[0].tobytes()

    def test_empty_grid(self):
        order, stages, first, trans, loglik = grid_tables([])
        assert order == [] and stages.shape == (0,)
        assert (first.shape, trans.shape, loglik.shape) == ((0, 4, 4), (0, 4, 4, 4), (0, 2, 4))

    def test_each_estimator_builds_once(self, monkeypatch):
        calls = []

        def counted(points):
            calls.append(len(points))
            return grid_tables(points)

        monkeypatch.setattr(bayes, "grid_tables", counted)
        monkeypatch.setattr(montecarlo, "grid_tables", counted)
        points = grid_points()
        enumerate_points(points)
        assert calls == [len(points)]
        estimate_errors(points, 400, RngSpec(5))
        assert calls == [len(points)] * 2


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
        p = [m.off_probs()[d % 4] for d in (1, 3, -1)]
        assert p[0] == p[1] == p[2]

    def test_uniform_truth_tables(self):
        t = truth_from_inference(InferenceModel(2.5, 7, 0.65, 0.996, 9.1e-3))
        assert t.first[1] == t.first[3]
        for a in range(4):
            for b in range(4):
                assert t.trans[a, b] == t.trans[-a % 4, -b % 4]

    @pytest.mark.parametrize("dt", np.linspace(0.0, 1.1, 12).tolist())
    def test_delay_truth_tables(self, dt):
        # a ramp by -1 quarter turn mirrors one by +1, and the hold and settle
        # segments sit at exact quarter turns, so steps 0, 1 and 3 tie bitwise
        t = delay_truth_tables(InferenceModel(4.0, 10, 0.65, 0.996, 9.1e-3),
                               DelayParams(20.0, 0.37, 0.63), dt, True)
        for a in range(4):
            for b in (0, 1, 3):
                assert t.trans[a, b] == t.trans[-a % 4, -b % 4]

    def test_delay_half_turn_is_not_mirrored(self):
        # a half turn ramps +2 quarter turns whatever the symbol, so column 2 of
        # trans is the one exception while the ramp is inside the bin
        t = delay_truth_tables(InferenceModel(4.0, 10, 0.65, 0.996, 9.1e-3),
                               DelayParams(20.0, 0.37, 0.63), 0.5, True)
        assert t.trans[1, 2] == pytest.approx(0.6067, abs=1e-4)
        assert t.trans[3, 2] == pytest.approx(0.5968, abs=1e-4)

    def test_delay_truth_tables_first_row(self):
        t = delay_truth_tables(InferenceModel(2.5, 7, 0.65, 0.996, 9.1e-3),
                               DelayParams(20.0, 0.37, 0.63), 1.1, True)
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
        truth = truth_from_inference(InferenceModel(4.0, 10, 1.0, 0.9, 0.3))
        assert_kernel_matches_reference(ideal(4.0, 10), truth, 200, RngSpec(0))

    @settings(max_examples=25, deadline=None)
    @given(alpha_sq=st.floats(0.0, 12.0), stages=st.integers(1, 8),
           xi=st.floats(0.0, 1.0), nu=st.floats(0.0, 1.0),
           seed=st.integers(0, 2**32))
    def test_estimators_agree(self, alpha_sq, stages, xi, nu, seed):
        inference = ideal(alpha_sq, stages)
        truth = truth_from_inference(InferenceModel(alpha_sq, stages, 1.0, xi, nu))
        assert_matches_walk(inference, truth)
        assert_kernel_matches_reference(inference, truth, 50, RngSpec(seed))
