import inspect

import numpy as np
import pytest

from qpskrx import _kernels
from qpskrx.bayes import (InferenceModel, enumerate_error_probability,
                          truth_from_inference, uniform_truth_tables)
from qpskrx.delay import DelayParams, delay_truth_tables
from qpskrx.montecarlo import (RngSpec, estimate_error, simulate_trial,
                               trial_outcomes)
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
