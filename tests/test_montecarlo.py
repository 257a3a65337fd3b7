import importlib.util
import inspect
import sys
from pathlib import Path

import numpy as np
import pytest

from oracles import (kernel_outcomes, reference_trial, run_point, stack_tables,
                     vector_recursion)
from qpskrx import _kernels, montecarlo
from qpskrx.bayes import InferenceModel, enumerate_error_probability, truth_from_inference
from qpskrx.delay import DelayParams, delay_truth_tables
from qpskrx.montecarlo import RngSpec, estimate_error, estimate_errors

EXPERIMENTAL = dict(eta_total=0.65, xi=0.996, nu_per_state=9.1e-3)


def model(alpha_sq, stages, **kw):
    return InferenceModel(alpha_sq, stages, **kw)


def parity_case(name, alpha_sq, stages):
    """(inference model, truth tables) for one case of the kernel parity grid."""
    if name == "ideal":
        inference = model(alpha_sq, stages)
        return inference, truth_from_inference(inference)
    if name == "mismatch":
        # ideal inference gives zero likelihood to clicks the noisy truth makes
        truth = truth_from_inference(InferenceModel(alpha_sq, stages, 1.0, 0.9, 0.3))
        return model(alpha_sq, stages), truth
    inference = model(alpha_sq, stages, **EXPERIMENTAL)
    if name == "experimental":
        return inference, truth_from_inference(inference)
    truth = delay_truth_tables(inference, DelayParams(200.0 / stages, 0.37, 0.63), 1.1, True)
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

    @pytest.mark.parametrize("stages", [1, 3, 4, 10, 13])
    def test_bin_major_pcg64dxsm_layout(self, stages):
        # bin i of trial t: the top 53 bits of output i * 2**64 + t of the
        # symbol's PCG64DXSM stream, seeded by SeedSequence(seed, spawn_key=(symbol,))
        seed, symbol, start, n = 7, 3, 1234, 3001
        got = RngSpec(seed).draws(symbol, start, n, stages)
        assert got.shape == (n, stages) and got.flags.f_contiguous
        for i in range(stages):
            bg = np.random.PCG64DXSM(np.random.SeedSequence(seed, spawn_key=(symbol,)))
            bg.advance(i * 2 ** 64 + start)
            expected = (bg.random_raw(n) >> np.uint64(11)) * 2.0 ** -53
            assert np.array_equal(got[:, i], expected)
        for m in range(1, stages + 1):
            assert got[:, :m].flags.f_contiguous

    def test_leading_bins_do_not_depend_on_stage_count(self):
        full = RngSpec(5).draws(2, 100, 700, 13)
        for m in range(1, 14):
            assert np.array_equal(full[:, :m], RngSpec(5).draws(2, 100, 700, m))

    @pytest.mark.parametrize("start", [1, 2, 3, 1235])
    def test_start_off_a_multiple_of_four_matches_a_draw_from_zero(self, start):
        full = RngSpec(11).draws(1, 0, 2000, 7)
        np.testing.assert_array_equal(full[start:start + 300],
                                      RngSpec(11).draws(1, start, 300, 7))


class TestDeterminism:
    def test_worker_count_invariance(self, monkeypatch):
        monkeypatch.setattr(montecarlo, "DEFAULT_CHUNK", 1024)
        m = model(2.0, 10, **EXPERIMENTAL)
        results = [estimate_error(m, 40_000, RngSpec(5), n_workers=w) for w in (1, 2, 4)]
        for r in results[1:]:
            assert r.error_prob == results[0].error_prob
            assert r.per_symbol_error == results[0].per_symbol_error

    def test_chunk_size_invariance(self):
        m = model(1.5, 8, **EXPERIMENTAL)
        truth = truth_from_inference(m)
        a = kernel_outcomes(m, truth, 3, 5000, RngSpec(17), chunk_size=512)
        b = kernel_outcomes(m, truth, 3, 5000, RngSpec(17), chunk_size=4096)
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
                    assert np.array_equal(run_point(*args), vector_recursion(*args))

    def test_draw_layout_does_not_change_outcomes(self):
        inference, truth = parity_case("experimental", 2.0, 13)
        draws = RngSpec(4).draws(1, 0, 5000, 13)
        args = (truth.first, truth.trans, inference.log_likelihood_table(), 1)
        assert np.array_equal(run_point(np.ascontiguousarray(draws), *args),
                              run_point(np.asfortranarray(draws), *args))

    @pytest.mark.parametrize("stages", [14, 21, 30])
    @pytest.mark.parametrize("name", ["experimental", "delay", "mismatch"])
    def test_node_renumbering_matches_vector_recursion(self, name, stages):
        # 20,000 trials take the node table past MAX_NODES with many live trials
        inference, truth = parity_case(name, 3.0, stages)
        loglik = inference.log_likelihood_table()
        for symbol in range(4):
            draws = RngSpec(33).draws(symbol, 0, 20_000, stages)
            args = (draws, truth.first, truth.trans, loglik, symbol)
            assert np.array_equal(run_point(*args), vector_recursion(*args))

    def test_kernel_matches_reference_path(self):
        # feed the kernel's own uniforms through the scalar reference trial
        m = model(1.8, 6, **EXPERIMENTAL)
        truth = truth_from_inference(m)
        draws = RngSpec(8).draws(2, 0, 300, 6)
        kern = run_point(draws, truth.first, truth.trans, m.log_likelihood_table(), 2)
        assert kern.tolist() == [reference_trial(2, truth, m, row) for row in draws]


def forest_cases(stage_counts, alpha_sq, names=("experimental", "mismatch", "delay")):
    """Interleaved stack of parity cases: every name at every stage count."""
    return [parity_case(name, alpha_sq, stages)
            for stages in stage_counts for name in names]


def assert_forest_matches_vector_recursion(cases, n, seed):
    """Each row of a stacked kernel call, longest first, equals the point's own recursion."""
    cases = sorted(cases, key=lambda case: -case[0].stages)
    top = cases[0][0].stages
    points = [(truth.first, truth.trans, inference.log_likelihood_table(),
               inference.stages) for inference, truth in cases]
    for symbol in range(4):
        draws = RngSpec(seed).draws(symbol, 0, n, top)
        targets = _kernels.run_chunk(draws, *stack_tables(points, symbol))
        assert targets.shape == (len(cases), n)
        for row, (first, trans, loglik, stages) in zip(targets, points):
            assert np.array_equal(row == symbol, vector_recursion(
                draws[:, :stages], first, trans, loglik, symbol))


class TestForestKernel:
    """One call walks a stack of points, one trie root each, over shared draws."""

    @pytest.mark.parametrize("stage_counts", [(3, 4), (9, 10, 11, 12), (29, 30)])
    @pytest.mark.parametrize("alpha_sq", [0.25, 4.0, 12.0])
    def test_mixed_pad_group_matches_vector_recursion(self, stage_counts, alpha_sq):
        cases = forest_cases(stage_counts, alpha_sq)
        cases += [parity_case("ideal", alpha_sq, stage_counts[0])]
        assert_forest_matches_vector_recursion(cases, 3000, 21)

    @pytest.mark.parametrize("max_nodes", [_kernels.MAX_NODES, 4])
    def test_node_renumbering_at_m30(self, monkeypatch, max_nodes):
        # 20,000 trials take the table past MAX_NODES per live point; with 4
        # the table is renumbered every bin, across the point that retires
        monkeypatch.setattr(_kernels, "MAX_NODES", max_nodes)
        assert_forest_matches_vector_recursion(forest_cases((29, 30), 3.0), 20_000, 33)

    def test_stack_at_stack_trials_edge(self):
        cases = forest_cases((3, 4), 2.0, names=("experimental", "delay"))
        n = _kernels.STACK_TRIALS // len(cases)
        assert n * len(cases) == _kernels.STACK_TRIALS
        assert_forest_matches_vector_recursion(cases, n, 5)

    def test_no_trials(self):
        cases = forest_cases((5, 8), 1.0)
        for n in (0, 1):
            assert_forest_matches_vector_recursion(cases, n, 3)

    def test_increasing_stages_rejected(self):
        inference, truth = parity_case("experimental", 1.0, 4)
        point = (truth.first, truth.trans, inference.log_likelihood_table())
        tables = stack_tables([(*point, 3), (*point, 4)], 0)
        with pytest.raises(ValueError, match="stages must not increase"):
            _kernels.run_chunk(RngSpec(1).draws(0, 0, 10, 4), *tables)


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
    """Matched and delay-truth points of mixed M, 1 to 13."""
    out = []
    for stages in (1, 3, 4, 5, 8, 9, 13):
        inference, truth = parity_case("delay", 2.0, stages)
        out += [(inference, None), (inference, truth)]
    return out


class TestEstimateErrors:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_matches_per_point_estimates(self, monkeypatch, workers):
        monkeypatch.setattr(montecarlo, "DEFAULT_CHUNK", 1024)
        points = grid_points()
        rng = RngSpec(31)
        grid = estimate_errors(points, 5000, rng, n_workers=workers)
        for (inference, truth), res in zip(points, grid):
            assert res == estimate_error(inference, 5000, rng, truth=truth, n_workers=workers)
            # independent of the grouping: each point's own draws, per symbol
            if truth is None:
                truth = truth_from_inference(inference)
            per_symbol = tuple(
                1.0 - int(kernel_outcomes(inference, truth, s, 1250, rng,
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
            kernel_calls.append((args[0].shape, tuple(args[4].tolist())))
            return kernel(*args)

        monkeypatch.setattr(RngSpec, "draws", counting_draws)
        monkeypatch.setattr(_kernels, "run_chunk", counting_kernel)
        monkeypatch.setattr(montecarlo, "DEFAULT_CHUNK", 1024)
        points = grid_points()
        estimate_errors(points, 5000, RngSpec(31))
        # 1250 trials per symbol: chunks of 1024 and 226, each drawn once, at the
        # grid's top M, for every point: no pad groups
        assert sorted(calls) == sorted(
            (symbol, start, n, 13) for symbol in range(4)
            for start, n in ((0, 1024), (1024, 226)))
        # one kernel call per task: the grid's 14 points, longest first, fit in
        # one stack of STACK_TRIALS rows, and every call gets the task's draws whole
        stages = (13, 13, 9, 9, 8, 8, 5, 5, 4, 4, 3, 3, 1, 1)
        assert sorted(kernel_calls) == sorted(
            ((n, 13), stages) for _symbol in range(4) for n in (1024, 226))

    def test_point_alone_in_a_mixed_grid_and_reordered(self, monkeypatch):
        # common random numbers: a point's result depends on no other point,
        # not even on the grid's largest M, at which the draws are made
        monkeypatch.setattr(montecarlo, "DEFAULT_CHUNK", 1024)
        points, rng = grid_points(), RngSpec(43)
        grid = estimate_errors(points, 5000, rng)
        order = [5, 12, 0, 9, 3, 13, 7, 1, 10, 4, 11, 2, 8, 6]
        reordered = estimate_errors([points[i] for i in order], 5000, rng)
        assert [reordered[order.index(i)] for i in range(len(points))] == grid
        for point, res in zip(points, grid):
            assert estimate_errors([point], 5000, rng) == [res]

    def test_empty_grid_draws_nothing(self, monkeypatch):
        calls = []
        monkeypatch.setattr(RngSpec, "draws", lambda self, *args: calls.append(args))
        monkeypatch.setattr(_kernels, "run_chunk", lambda *args: calls.append(args))
        assert estimate_errors([], 5000, RngSpec(0), n_workers=2) == []
        assert calls == []

    def test_zero_trials_rejected(self):
        with pytest.raises(ValueError, match="trials must be >= 4"):
            estimate_errors(grid_points(), 0, RngSpec(0))

    @pytest.mark.parametrize("trials", [1, 2, 3])
    def test_fewer_trials_than_symbols_rejected(self, trials):
        # a symbol without trials would drop out of the equal-prior mean
        with pytest.raises(ValueError, match="trials must be >= 4"):
            estimate_errors(grid_points(), trials, RngSpec(0))

    def test_four_trials_one_per_symbol(self):
        res = estimate_errors([(model(0.0, 1), None)], 4, RngSpec(0))[0]
        assert res.error_prob == 0.75 and res.per_symbol_error == (0.0, 1.0, 1.0, 1.0)

    @pytest.mark.parametrize("stack_trials", [3 * 1024, 1000])
    def test_stacks_split_at_stack_trials(self, monkeypatch, stack_trials):
        # 3 * 1024: full stacks of exactly 3 points of 1024 trials; 1000: a chunk
        # longer than a stack still runs, one point per call
        monkeypatch.setattr(montecarlo, "DEFAULT_CHUNK", 1024)
        points, rng = grid_points(), RngSpec(31)
        expected = estimate_errors(points, 5000, rng)
        rows, kernel = [], _kernels.run_chunk

        def recording(*args):
            rows.append((len(args[0]), len(args[4])))
            assert args[0].shape[1] == args[4][0]  # the draws up to the stack's top M
            return kernel(*args)

        monkeypatch.setattr(_kernels, "run_chunk", recording)
        monkeypatch.setattr(_kernels, "STACK_TRIALS", stack_trials)
        assert estimate_errors(points, 5000, rng) == expected
        per_call = max(1, stack_trials // 1024)
        assert sorted(p for n, p in rows if n == 1024) == sorted(
            min(per_call, len(points) - lo) for _symbol in range(4)
            for lo in range(0, len(points), per_call))
        assert all(n * p <= max(stack_trials, n) for n, p in rows)
        assert sum(p for n, p in rows if n == 226) == 4 * len(points)

    @pytest.mark.parametrize("cpus, n_workers, chunk_size, expected", [
        (8, 100_000, 256, 8),   # 20 tasks: capped by the cores
        (8, 100_000, 5000, 4),  # 4 tasks: capped by the tasks
        (8, 3, 256, 3),
        (None, 4, 256, None),   # cpu_count unknown: serial, no pool
        (8, 1, 256, None)])
    def test_pool_size_is_capped(self, monkeypatch, cpus, n_workers, chunk_size, expected):
        # a recording executor that runs serially: no thread is started
        sizes = []

        class RecordingPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(montecarlo, "DEFAULT_CHUNK", chunk_size)
        points = [(model(1.0, 4, **EXPERIMENTAL), None)]
        serial = estimate_errors(points, 5000, RngSpec(2))
        monkeypatch.setattr(montecarlo, "ThreadPoolExecutor", RecordingPool)
        monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: cpus)
        got = estimate_errors(points, 5000, RngSpec(2), n_workers=n_workers)
        assert got == serial
        assert sizes == ([] if expected is None else [expected])

    def test_stage_mismatch_rejected(self):
        inference = model(1.0, 5)
        wrong = truth_from_inference(model(1.0, 4))
        with pytest.raises(ValueError, match="stage count"):
            estimate_errors([(model(1.0, 4), None), (inference, wrong)], 100, RngSpec(0))


def load_spans():
    """``perfbench/spans.py``, the tracer of the per-layer benchmark, by path."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look the module up by name
    spec.loader.exec_module(module)
    return module


class TestTracerContract:
    """The per-layer trace wraps ``_kernels.run_chunk`` and ``RngSpec.draws`` by name,
    and reads the kernel's positional arguments."""

    def test_kernel_arguments_bind_to_tracer_attrs(self, monkeypatch):
        # spans._kernel_attrs(draws, first, trans, loglik, m_true) reads the
        # (n, top) draws and the nbytes of arguments 1-3
        spans = load_spans()
        calls, kernel = [], _kernels.run_chunk

        def recording(*args, **kwargs):
            calls.append((args, kwargs))
            return kernel(*args, **kwargs)

        monkeypatch.setattr(_kernels, "run_chunk", recording)
        monkeypatch.setattr(montecarlo, "DEFAULT_CHUNK", 100)
        estimate_errors(grid_points(), 1000, RngSpec(1))
        assert len(calls) == 4 * 3  # symbols x chunks: the whole grid in one stack
        for args, kwargs in calls:
            assert not kwargs and len(args) == 5
            inspect.signature(spans._kernel_attrs).bind(*args)
            assert args[0].ndim == 2
            assert all(isinstance(a, np.ndarray) for a in args[1:4])
            # per point, the per-point kernel's tables: first 4, trans 16 and loglik 8 float64
            assert sum(a.nbytes for a in args[1:4]) == (4 + 16 + 8) * 8 * len(args[4])
            assert spans._kernel_attrs(*args) == {
                "trial_stages": args[0].size,
                "bytes_in": sum(a.nbytes for a in args[:4])}

    def test_traced_stages_sweep(self):
        from qpskrx import cli
        from qpskrx.config import load_config

        spans = load_spans()
        cfg = load_config(None, {"alpha_sq": 2.0, "m_start": 3, "m_stop": 6,
                                 "trials": 400, "workers": 2}, mode="stages-sweep")
        untraced = cli.render_csv(cfg, *cli.run(cfg))
        tracer = spans.Tracer()
        with spans.instrument(tracer):
            traced = cli.render_csv(cfg, *cli.run(cfg))
        assert traced == untraced
        metrics = spans.layer_metrics(tracer.spans, workers=2)
        # M = 3 to 6, each point with and without discard: one draw and one
        # stack of all 8 points per symbol, 100 trials
        assert metrics["montecarlo.draws.calls"] == 4
        assert metrics["kernels.run_chunk.calls"] == 4
        assert metrics["bayes.truth_tables.calls"] > 0

    def test_traced_enumerate(self):
        # the bayes.enumerate span wraps cli's module-global enumerate_error_probability
        from qpskrx import cli
        from qpskrx.config import load_config

        spans = load_spans()
        cfg = load_config(None, {"alpha_sq_start": 1.0, "alpha_sq_stop": 5.0,
                                 "alpha_sq_points": 3, "m": 6}, mode="enumerate")
        untraced = cli.render_csv(cfg, *cli.run(cfg))
        tracer = spans.Tracer()
        with spans.instrument(tracer):
            traced = cli.render_csv(cfg, *cli.run(cfg))
        assert traced == untraced
        metrics = spans.layer_metrics(tracer.spans, workers=1)
        assert metrics["bayes.enumerate.calls"] == 3  # one per grid point
        assert metrics["bayes.enumerate.histories"] == 3 * 2 ** 6
        assert metrics["montecarlo.draws.calls"] == 0

    def test_monte_carlo_calls_go_through_module_attribute(self, monkeypatch):
        calls = []
        kernel = _kernels.run_chunk

        def counting(*args):
            calls.append(len(args[0]))
            return kernel(*args)

        monkeypatch.setattr(_kernels, "run_chunk", counting)
        monkeypatch.setattr(montecarlo, "DEFAULT_CHUNK", 100)
        m = model(1.0, 4, **EXPERIMENTAL)
        estimate_error(m, 1000, RngSpec(1))
        assert sum(calls) == 1000

    def test_draws_go_through_class_attribute(self, monkeypatch):
        calls = []
        draws = RngSpec.draws

        def counting(self, symbol, start, n, stages):
            calls.append(n)
            return draws(self, symbol, start, n, stages)

        monkeypatch.setattr(RngSpec, "draws", counting)
        monkeypatch.setattr(montecarlo, "DEFAULT_CHUNK", 100)
        estimate_errors([(model(1.0, 4, **EXPERIMENTAL), None), (model(2.0, 3), None)],
                        1000, RngSpec(1))
        assert sum(calls) == 1000  # one draw per (symbol, chunk), for both points
