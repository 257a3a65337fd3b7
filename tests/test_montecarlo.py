import inspect

import numpy as np
import pytest

from qpskrx import _kernels
from qpskrx.bayes import (InferenceModel, enumerate_error_probability,
                          truth_from_inference, uniform_truth_tables)
from qpskrx.delay import DelayParams, delay_truth_tables
from qpskrx.montecarlo import (RngSpec, estimate_error, estimate_errors,
                               simulate_trial, trial_outcomes)
from qpskrx.physics import ChannelModel

EXPERIMENTAL = dict(eta_total=0.65, xi=0.996, nu_per_state=9.1e-3)


def model(alpha_sq, stages, **kw):
    return InferenceModel(alpha_sq, stages, **kw)


def vector_recursion(draws, first, trans, loglik, m_true):
    """Reference kernel: the receiver's recursion run per trial, vectorized.

    Every trial carries its own log-posterior ``lp`` (one IEEE add per bin
    and hypothesis) and re-targets to the first maximum of ``lp``.
    """
    n, stages = draws.shape
    hyp = np.arange(4)
    lp = np.zeros((n, 4))
    cur = np.zeros(n, dtype=np.intp)
    prev = np.zeros(n, dtype=np.intp)
    for i in range(stages):
        if i == 0:
            p_off = first[(m_true - cur) % 4]
        else:
            p_off = trans[(m_true - prev) % 4, (cur - prev) % 4]
        e = (draws[:, i] >= p_off).astype(np.intp)
        delta = (hyp[None, :] - cur[:, None]) % 4
        lp += loglik[e[:, None], delta]
        prev = cur
        cur = np.argmax(lp, axis=1)
    return cur == m_true


def parity_case(name, alpha_sq, stages):
    """(inference model, truth tables) for one case of the kernel parity grid."""
    if name == "ideal":
        inference = model(alpha_sq, stages)
        return inference, truth_from_inference(inference)
    if name == "mismatch":
        # ideal inference gives zero likelihood to clicks the noisy truth makes
        truth = uniform_truth_tables(alpha_sq, stages, ChannelModel(1.0, 0.9), 0.3)
        return model(alpha_sq, stages), truth
    inference = model(alpha_sq, stages, **EXPERIMENTAL)
    if name == "experimental":
        return inference, truth_from_inference(inference)
    truth = delay_truth_tables(alpha_sq, stages, inference.channel(),
                               EXPERIMENTAL["nu_per_state"],
                               DelayParams(200.0 / stages), 1.1)
    return inference, truth


class TestRngSpec:
    def test_substreams_are_position_independent(self):
        rng = RngSpec(99)
        full = rng.draws(2, 0, 500, 10)
        part = rng.draws(2, 123, 200, 10)
        np.testing.assert_array_equal(full[123:323], part)

    def test_symbols_get_distinct_streams(self):
        rng = RngSpec(99)
        assert not np.array_equal(rng.draws(0, 0, 50, 8), rng.draws(1, 0, 50, 8))

    def test_seed_changes_stream(self):
        assert not np.array_equal(RngSpec(1).draws(0, 0, 50, 8),
                                  RngSpec(2).draws(0, 0, 50, 8))


class TestDeterminism:
    def test_worker_count_invariance(self):
        m = model(2.0, 10, **EXPERIMENTAL)
        results = [estimate_error(m, 40_000, RngSpec(5), n_workers=w, chunk_size=1024)
                   for w in (1, 2, 4)]
        for r in results[1:]:
            assert r.error_prob == results[0].error_prob
            assert r.per_symbol_error == results[0].per_symbol_error

    def test_chunk_size_invariance(self):
        m = model(1.5, 8, **EXPERIMENTAL)
        a = trial_outcomes(m, 3, 5000, RngSpec(17), chunk_size=512)
        b = trial_outcomes(m, 3, 5000, RngSpec(17), chunk_size=4096)
        np.testing.assert_array_equal(a, b)

    def test_rerun_is_bitwise_identical(self):
        m = model(3.0, 10, **EXPERIMENTAL)
        r1 = estimate_error(m, 20_000, RngSpec(3))
        r2 = estimate_error(m, 20_000, RngSpec(3))
        assert r1.error_prob == r2.error_prob
        assert r1.per_symbol_error == r2.per_symbol_error


class TestKernelParity:
    @pytest.mark.parametrize("stages", [1, 2, 3, 5, 8, 13, 21, 30])
    @pytest.mark.parametrize("name", ["ideal", "experimental", "mismatch", "delay"])
    def test_trie_walk_matches_vector_recursion(self, name, stages):
        for alpha_sq in (0.0, 0.25, 1.0, 4.0, 12.0):
            inference, truth = parity_case(name, alpha_sq, stages)
            loglik = inference.log_likelihood_table()
            for n in (0, 1, 3000):
                for symbol in range(4):
                    draws = RngSpec(21).draws(symbol, 0, n, stages)
                    args = (draws, truth.first, truth.trans, loglik, symbol)
                    assert np.array_equal(_kernels.run_chunk(*args),
                                          vector_recursion(*args))

    def test_kernel_matches_reference_path(self):
        # feed the kernel's own uniforms through the high-level per-trial walk
        m = model(1.8, 6, **EXPERIMENTAL)
        truth = truth_from_inference(m)
        loglik = m.log_likelihood_table()
        draws = RngSpec(8).draws(2, 0, 300, 6)
        kern = _kernels.run_chunk(draws, truth.first, truth.trans, loglik, 2)

        class Replay:
            def __init__(self, row):
                self.row = iter(row)

            def random(self):
                return next(self.row)

        ref = np.array([simulate_trial(2, truth, m, Replay(draws[t])) for t in range(300)])
        np.testing.assert_array_equal(kern, ref)


class TestEstimateError:
    def test_zero_signal(self):
        res = estimate_error(model(0.0, 5), 10_000, RngSpec(1))
        assert res.error_prob == pytest.approx(0.75, abs=1e-12)
        assert res.per_symbol_error == (0.0, 1.0, 1.0, 1.0)

    def test_matches_enumeration(self):
        m = model(1.0, 4, **EXPERIMENTAL)
        res = estimate_error(m, 200_000, RngSpec(12))
        exact = enumerate_error_probability(m)
        assert abs(res.error_prob - exact) <= 3 * res.stderr

    def test_stderr_formula(self):
        res = estimate_error(model(2.0, 4), 50_000, RngSpec(2))
        p = res.error_prob
        assert res.stderr == pytest.approx(np.sqrt(p * (1 - p) / res.trials), rel=1e-12)

    def test_per_symbol_average(self):
        res = estimate_error(model(2.0, 6, **EXPERIMENTAL), 40_000, RngSpec(9))
        assert res.error_prob == pytest.approx(np.mean(res.per_symbol_error), abs=1e-15)

    def test_per_symbol_consistency(self):
        # per-symbol rates match exact enumeration within sampling noise
        from qpskrx.bayes import enumerate_detail
        m = model(2.0, 8, **EXPERIMENTAL)
        res = estimate_error(m, 400_000, RngSpec(6))
        exact = enumerate_detail(m).per_symbol_error
        n = res.trials // 4
        for e_mc, e_ex in zip(res.per_symbol_error, exact):
            sig = np.sqrt(max(e_ex * (1 - e_ex), 1e-12) / n)
            assert abs(e_mc - e_ex) < 5 * sig

    def test_zero_trials_rejected(self):
        with pytest.raises(ValueError):
            estimate_error(model(1.0, 3), 0, RngSpec(0))


def grid_points():
    """Matched and delay-truth points of mixed M: pad groups 4, 8, 12 and 16."""
    out = []
    for stages in (1, 3, 4, 5, 8, 9, 13):
        inference, truth = parity_case("delay", 2.0, stages)
        out += [(inference, None), (inference, truth)]
    return out


class TestEstimateErrors:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_matches_per_point_estimates(self, workers):
        points = grid_points()
        rng = RngSpec(31)
        grid = estimate_errors(points, 5000, rng, n_workers=workers, chunk_size=1024)
        for (inference, truth), res in zip(points, grid):
            assert res == estimate_error(inference, 5000, rng, truth=truth,
                                         n_workers=workers, chunk_size=1024)
            # independent of the grouping: each point's own draws, per symbol
            if truth is None:
                truth = truth_from_inference(inference)
            per_symbol = tuple(
                1.0 - int(trial_outcomes(inference, s, 1250, rng, truth,
                                         chunk_size=1024).sum()) / 1250
                for s in range(4))
            assert res.per_symbol_error == per_symbol

    def test_one_draw_per_pad_group_symbol_and_chunk(self, monkeypatch):
        calls, kernel_calls = [], []
        draws, kernel = RngSpec.draws, _kernels.run_chunk

        def counting_draws(self, *args):
            calls.append(args)
            return draws(self, *args)

        def counting_kernel(*args):
            kernel_calls.append(args[0].shape)
            return kernel(*args)

        monkeypatch.setattr(RngSpec, "draws", counting_draws)
        monkeypatch.setattr(_kernels, "run_chunk", counting_kernel)
        points = grid_points()
        estimate_errors(points, 5000, RngSpec(31), chunk_size=1024)
        # 1250 trials per symbol: chunks of 1024 and 226; each group draws at its top M
        assert sorted(calls) == sorted(
            (symbol, start, n, top) for top in (4, 8, 9, 13) for symbol in range(4)
            for start, n in ((0, 1024), (1024, 226)))
        assert sorted(kernel_calls) == sorted(
            (n, inference.stages) for inference, _ in points for _symbol in range(4)
            for n in (1024, 226))

    def test_zero_trials_rejected(self):
        with pytest.raises(ValueError, match="trial count"):
            estimate_errors(grid_points(), 0, RngSpec(0))

    def test_stage_mismatch_rejected(self):
        inference = model(1.0, 5)
        wrong = truth_from_inference(model(1.0, 4))
        with pytest.raises(ValueError, match="stage count"):
            estimate_errors([(model(1.0, 4), None), (inference, wrong)], 100, RngSpec(0))


class TestTracerContract:
    """The per-layer benchmark trace wraps ``_kernels.run_chunk`` by name."""

    def test_signature(self):
        params = list(inspect.signature(_kernels.run_chunk).parameters)
        assert params == ["draws", "first", "trans", "loglik", "m_true"]

    def test_monte_carlo_calls_go_through_module_attribute(self, monkeypatch):
        calls = []
        kernel = _kernels.run_chunk

        def counting(*args):
            calls.append(len(args[0]))
            return kernel(*args)

        monkeypatch.setattr(_kernels, "run_chunk", counting)
        m = model(1.0, 4, **EXPERIMENTAL)
        estimate_error(m, 1000, RngSpec(1), chunk_size=100)
        assert sum(calls) == 1000
        calls.clear()
        trial_outcomes(m, 2, 300, RngSpec(1), chunk_size=100)
        assert calls == [100, 100, 100]
