import itertools
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from oracles import qpsk_amplitudes, run_point
from qpskrx.bayes import QUARTER_TURN_COS, InferenceModel, enumerate_detail


def point(gamma_sq, eta=1.0, xi=1.0, nu=0.0):
    """A one-bin grid point: its ``gamma_sq`` and ``nu_per_bin`` are the values given."""
    return InferenceModel(gamma_sq, 1, eta, xi, nu)


def kernel_clicks(u, p_off):
    """Whether the kernel's one-bin trial with uniform ``u`` clicks."""
    # ideal inference: an off keeps target 0 (correct), a click moves it to 2
    loglik = InferenceModel(1.0, 1).log_likelihood_table()
    mask = run_point(np.array([[u]]), np.full(4, p_off), np.full((4, 4), p_off), loglik, 0)
    return not mask[0]


class TestSymbolAmplitude:
    def test_zero_magnitude(self):
        m = InferenceModel(0.0, 5)
        assert m.off_probs().tolist() == [1.0] * 4

    def test_unit_magnitude_first_symbol(self):
        g = qpsk_amplitudes(1.0)[0]
        assert g.real == pytest.approx(math.cos(math.pi / 4), abs=1e-12)
        assert g.imag == pytest.approx(math.sin(math.pi / 4), abs=1e-12)

    def test_four_photon_split_four_ways(self):
        model = InferenceModel(4.0, 4)
        assert model.gamma_sq == 1.0
        g = qpsk_amplitudes(model.gamma_sq)[1]
        assert math.atan2(g.imag, g.real) == pytest.approx(3 * math.pi / 4, abs=1e-12)

    def test_per_bin_energy(self):
        model = InferenceModel(3.7, 7, nu_per_state=9.1e-3)
        assert model.gamma_sq == pytest.approx(3.7 / 7, rel=1e-15)
        assert model.nu_per_bin == pytest.approx(9.1e-3 / 7, rel=1e-15)

    def test_pairwise_distances_depend_only_on_index_difference(self):
        # the quarter-turn formula is exp(-|gamma_m - gamma_n|^2) for every pair
        gammas = qpsk_amplitudes(1.3 ** 2)
        for m in range(4):
            for n in range(4):
                assert point(1.3 ** 2).off_probs()[(m - n) % 4] == pytest.approx(
                    math.exp(-abs(gammas[m] - gammas[n]) ** 2), rel=1e-12)


class TestOffProbability:
    def test_perfectly_nulled(self):
        assert point(0.25, 0.7).off_probs()[0] == 1.0

    def test_unit_distance(self):
        # |gamma - (-gamma)|^2 = 4 * 0.25
        assert point(0.25).off_probs()[2] == pytest.approx(
            math.exp(-1), rel=1e-12)

    def test_dark_counts_only(self):
        # nu = 9.1e-3 per state over 10 bins
        p = point(0.25, nu=9.1e-4).off_probs()[0]
        assert p == pytest.approx(math.exp(-9.1e-4), rel=1e-12)
        assert p == pytest.approx(0.99909, abs=5e-6)


class TestMeanCount:
    """The formula's float order, pinned bitwise to the closed form typed here:
    gamma^2 times the share first, the segments summed left to right, and the
    dark counts added once at the end."""

    @given(alpha_sq=st.floats(0, 1e6), stages=st.integers(1, 64), eta=st.floats(0, 1),
           xi=st.floats(0, 1), nu=st.floats(0, 10.0))
    def test_whole_bin_closed_form(self, alpha_sq, stages, eta, xi, nu):
        model = InferenceModel(alpha_sq, stages, eta, xi, nu)
        gamma_sq, nu = model.gamma_sq, model.nu_per_bin
        expected = [nu + 2.0*eta*(1.0 - xi*cos)*gamma_sq for cos in QUARTER_TURN_COS]
        assert [x.hex() for x in model.mean_count().tolist()] == [x.hex() for x in expected]

    @given(alpha_sq=st.floats(0, 1e6), stages=st.integers(1, 64), eta=st.floats(0, 1),
           xi=st.floats(0, 1), nu=st.floats(0, 10.0),
           shares=st.tuples(*[st.floats(0, 1)] * 3), cosines=st.tuples(*[st.floats(-1, 1)] * 3))
    def test_three_segment_bin_closed_form(self, alpha_sq, stages, eta, xi, nu, shares, cosines):
        # a delay bin: hold, swing and settle, each at its share and mean cosine
        model = InferenceModel(alpha_sq, stages, eta, xi, nu)
        gamma_sq, nu = model.gamma_sq, model.nu_per_bin
        h, s, t = (2.0*eta*(1.0 - xi*cos)*(gamma_sq*share) for share, cos in zip(shares, cosines))
        got = model.mean_count(zip(shares, cosines))
        assert float(got).hex() == (((h + s) + t) + nu).hex()
        # an array of cosines per segment, as the delay tables pass them
        arrays = [np.full((4, 4), cos) for cos in cosines]
        assert {x.hex() for x in model.mean_count(zip(shares, arrays)).flat} == {float(got).hex()}

    @given(gamma_sq=st.floats(0, 1e6), eta=st.floats(0, 1), xi=st.floats(0, 1),
           nu=st.floats(0, 10.0))
    def test_off_probs_is_exp_of_minus_the_count(self, gamma_sq, eta, xi, nu):
        model = point(gamma_sq, eta, xi, nu)
        expected = [math.exp(-model.mean_count(((1.0, cos),))) for cos in QUARTER_TURN_COS]
        assert model.off_probs().tolist() == expected  # bitwise

    def test_array_of_cosines_matches_scalars(self):
        model = point(0.33, 0.65, 0.996, 9.1e-4)
        cos = np.array([1.0, 2.0 / math.pi, 0.0, -2.0 / math.pi, -1.0])
        counts = model.mean_count(((1.0, cos),))
        assert counts.tolist() == [model.mean_count(((1.0, c),)) for c in cos.tolist()]

    def test_hand_value(self):
        # nu + 2 eta (1 - xi cos) gamma^2 at the opposite phase
        assert point(0.5, 0.8, 0.9, 0.01).mean_count(((1.0, -1.0),)) == pytest.approx(
            0.01 + 2 * 0.8 * 1.9 * 0.5, rel=1e-15)


class TestOffProbabilityVisibility:
    def test_perfect_nulling(self):
        for eta in (0.3, 0.9, 1.0):
            assert point(0.8, eta, 1.0).off_probs()[0] == 1.0

    def test_opposite_phase(self):
        p = point(0.5).off_probs()[2]
        assert p == pytest.approx(math.exp(-2), rel=1e-12)

    def test_quadrature_phase_kills_visibility_term(self):
        p = point(0.4, 0.65, 0.996).off_probs()[1]
        assert p == pytest.approx(math.exp(-0.52), rel=1e-12)

    @given(delta=st.integers(-8, 8), gamma_sq=st.floats(0, 10.0), eta=st.floats(0, 1))
    def test_agrees_with_general_formula_at_unit_visibility(self, delta, gamma_sq, eta):
        gammas = qpsk_amplitudes(gamma_sq)
        p_gen = math.exp(-eta * abs(gammas[delta % 4] - gammas[0]) ** 2)
        p_vis = point(gamma_sq, eta, 1.0).off_probs()[delta % 4]
        assert p_vis == pytest.approx(p_gen, abs=1e-12)

    @given(delta=st.integers(-8, 8), gamma_sq=st.floats(0, 10.0),
           xi=st.floats(0, 1), eta=st.floats(0, 1), nu=st.floats(0, 0.1))
    def test_probability_range(self, delta, gamma_sq, xi, eta, nu):
        p = point(gamma_sq, eta, xi, nu).off_probs()[delta % 4]
        assert 0.0 < p <= 1.0


class TestMonotonicity:
    def test_decreasing_in_distance(self):
        probs = [point(g, 0.8).off_probs()[2] for g in np.linspace(0, 3, 20)]
        assert all(a >= b for a, b in zip(probs, probs[1:]))
        by_delta = point(0.7, 0.8).off_probs()[:3]
        assert by_delta[0] > by_delta[1] > by_delta[2]

    def test_decreasing_in_eta_and_nu(self):
        by_eta = [point(0.25, e).off_probs()[2] for e in np.linspace(0, 1, 11)]
        assert all(a >= b for a, b in zip(by_eta, by_eta[1:]))
        by_nu = [point(0.25, 0.5, nu=nu).off_probs()[2] for nu in np.linspace(0, 1, 11)]
        assert all(a >= b for a, b in zip(by_nu, by_nu[1:]))


class TestSampleClick:
    """The kernel's outcome rule: a bin clicks unless its uniform is below p_off."""

    def test_certain_off(self):
        assert not kernel_clicks(0.999999, 1.0)

    def test_certain_on(self):
        assert kernel_clicks(0.0, 0.0)

    def test_threshold_rule(self):
        assert kernel_clicks(0.75, 0.5)
        assert kernel_clicks(0.5, 0.5)
        assert not kernel_clicks(0.25, 0.5)


class TestValidation:
    def test_detector_ranges(self):
        with pytest.raises(ValueError):
            InferenceModel(1.0, 3, eta_total=1.2)
        with pytest.raises(ValueError):
            InferenceModel(1.0, 3, eta_total=0.5, nu_per_state=-1e-3)

    def test_off_probs_ranges(self):
        # the formula's signal and dark counts reach it only through the point
        with pytest.raises(ValueError, match="^alpha_sq must be finite and >= 0, got -0.001$"):
            InferenceModel(-1e-3, 1)
        with pytest.raises(ValueError, match="^nu_per_state must be >= 0, got -0.001$"):
            InferenceModel(0.5, 1, nu_per_state=-1e-3)

    def test_nan_noise_rejected(self):
        with pytest.raises(ValueError, match="nu_per_state"):
            InferenceModel(3.0, 10, 0.65, 0.996, float("nan"))
        with pytest.raises(ValueError, match="^alpha_sq must be finite and >= 0, got nan$"):
            InferenceModel(float("nan"), 1)
        with pytest.raises(ValueError, match="^nu_per_state must be >= 0, got nan$"):
            InferenceModel(0.5, 1, nu_per_state=float("nan"))

    def test_infinite_signal_rejected(self):
        # 0 * inf in the delta = 0 exponent would make p_off[0] nan
        with pytest.raises(ValueError, match="^alpha_sq must be finite and >= 0, got inf$"):
            InferenceModel(math.inf, 1)

    def test_numpy_stage_count_stored_as_int(self):
        model = InferenceModel(3.0, np.int64(10), 0.65, 0.996, 9.1e-3)
        assert type(model.stages) is int
        got = enumerate_detail(model)
        want = enumerate_detail(InferenceModel(3.0, 10, 0.65, 0.996, 9.1e-3))
        assert got.error_prob == want.error_prob
        assert got.per_symbol_error.tobytes() == want.per_symbol_error.tobytes()

    @pytest.mark.parametrize("stages", [10.0, np.float64(10.0), "10", None],
                             ids=["float", "float64", "str", "None"])
    def test_non_integer_stage_count_rejected(self, stages):
        with pytest.raises(ValueError, match="stages"):
            InferenceModel(3.0, stages)

    def test_channel_ranges(self):
        for name, bad in itertools.product(("eta_total", "xi"), (-0.1, 1.01, float("nan"))):
            with pytest.raises(ValueError, match=rf"^{name} must be in \[0, 1\], got {bad}$"):
                InferenceModel(1.0, 3, **{"eta_total": 0.5, "xi": 0.5, name: bad})

    def test_alphabet_magnitude(self):
        with pytest.raises(ValueError):
            InferenceModel(-1.0, 3)
        with pytest.raises(ValueError):
            InferenceModel(float("nan"), 3)
