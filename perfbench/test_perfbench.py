"""Tests of the benchmark's own arithmetic and plumbing.

    python3 -m pytest perfbench
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
from qpskrx import cli  # noqa: E402
from qpskrx.bayes import enumerate_error_probability  # noqa: E402
from qpskrx.bounds import helstrom_qpsk  # noqa: E402
from qpskrx.config import load_config  # noqa: E402
from spans import (Span, Tracer, children_of, instrument, layer_metrics,  # noqa: E402
                   self_time, union_length)
from workloads import (REFERENCE_FILE, WORKLOADS, Oracle,  # noqa: E402
                       make_config, zero_error_stderr)


def span(id, parent, name, start, end, thread=1, **attrs):
    return Span(id, parent, name, thread, start, end, attrs)


class TestIntervalArithmetic:
    def test_union_merges_overlaps_and_clips(self):
        assert union_length([(1, 4), (3, 6), (8, 12)], 0, 10) == 7
        assert union_length([(2, 3), (2, 3)], 0, 10) == 1
        assert union_length([(-5, -1), (11, 12)], 0, 10) == 0
        assert union_length([], 0, 10) == 0

    def test_self_time_with_overlapping_child_threads(self):
        spans = [
            span(1, None, "montecarlo.estimate_error", 0.0, 10.0),
            span(2, 1, "kernels.run_chunk", 1.0, 4.0, thread=2),
            span(3, 1, "kernels.run_chunk", 3.0, 6.0, thread=3),
            span(4, 1, "montecarlo.draws", 5.5, 7.0, thread=2),
            span(5, 4, "grandchild", 0.0, 10.0, thread=2),  # not a direct child
        ]
        assert self_time(spans[0], children_of(spans)) == pytest.approx(4.0)

    def test_parallel_eff_and_sums(self):
        spans = [
            span(1, None, "cli.run", 0.0, 11.0),
            span(2, 1, "montecarlo.estimate_error", 0.5, 10.5),
            span(3, 2, "kernels.run_chunk", 1.0, 9.0, thread=2,
                 trial_stages=800, bytes_in=64),
            span(4, 2, "kernels.run_chunk", 1.0, 7.0, thread=3,
                 trial_stages=600, bytes_in=48),
            span(5, 2, "montecarlo.draws", 9.0, 10.0, thread=2,
                 uniforms=100, bytes=800, seed=7),
        ]
        m = layer_metrics(spans, workers=2)
        assert m["kernels.run_chunk.calls"] == 2
        assert m["kernels.run_chunk.busy_s"] == pytest.approx(14.0)
        assert m["kernels.run_chunk.trial_stages_per_s"] == pytest.approx(1400 / 14.0)
        assert m["kernels.run_chunk.bytes_in"] == 112
        assert m["montecarlo.draws.bytes"] == 800
        # children busy 8 + 6 + 1 = 15 thread-s over 2 workers x 10 s
        assert m["montecarlo.parallel_eff"] == pytest.approx(0.75)
        # estimate_error [0.5, 10.5] minus children union [1, 10]
        assert m["montecarlo.estimate_error.self_s"] == pytest.approx(1.0)
        assert m["cli.run.self_s"] == pytest.approx(1.0)
        assert m["bayes.enumerate.calls"] == 0
        assert m["bayes.enumerate.busy_s"] == 0

    def test_no_monte_carlo_spans_gives_zero_ratios(self):
        m = layer_metrics([span(1, None, "bayes.enumerate", 0.0, 1.0,
                                histories=2 ** 16)], workers=1)
        assert m["montecarlo.parallel_eff"] == 0.0
        assert m["kernels.run_chunk.trial_stages_per_s"] == 0.0
        assert m["bayes.enumerate.histories"] == 65536


def traced_run(overrides, mode):
    batch = run.run_batch(load_config(None, overrides, mode=mode), traced=True)
    assert batch.rows is not None
    return batch.spans


class TestInstrument:
    def test_seed_reaches_rng_spec(self):
        for name in WORKLOADS:
            assert make_config(name, 987654321).seed == 987654321
        spans = traced_run({"seed": 424242, "m": 4, "trials": 400,
                            "alpha_sq_points": 2}, "sweep")
        seeds = {sp.attrs["seed"] for sp in spans if sp.name == "montecarlo.draws"}
        assert seeds == {424242}

    def test_computed_bytes_and_counts(self):
        trials, m = 1000, 6
        spans = traced_run({"seed": 3, "m": m, "trials": trials,
                            "alpha_sq_points": 1}, "sweep")
        pad = 8  # Philox blocks of 4 uniforms
        draws = [sp for sp in spans if sp.name == "montecarlo.draws"]
        kernels = [sp for sp in spans if sp.name == "kernels.run_chunk"]
        assert sum(sp.attrs["uniforms"] for sp in draws) == trials * pad
        assert sum(sp.attrs["bytes"] for sp in draws) == 8 * trials * pad
        tables = (4 + 16 + 8) * 8  # first, trans, loglik as float64
        assert sum(sp.attrs["bytes_in"] for sp in kernels) == \
            8 * trials * m + len(kernels) * tables
        assert sum(sp.attrs["trial_stages"] for sp in kernels) == trials * m

    def test_worker_spans_attributed_to_estimate_error(self):
        spans = traced_run({"seed": 1, "m": 5, "trials": 800, "workers": 2,
                            "alpha_sq_points": 1}, "sweep")
        est = [sp for sp in spans if sp.name == "montecarlo.estimate_error"]
        assert len(est) == 1
        for sp in spans:
            if sp.name in ("kernels.run_chunk", "montecarlo.draws"):
                assert sp.parent == est[0].id

    def test_instrument_restores_originals(self):
        import qpskrx._kernels
        import qpskrx.montecarlo

        before = (qpskrx._kernels.run_chunk, qpskrx.montecarlo.RngSpec.draws,
                  cli.estimate_error, cli.render_csv)
        with instrument(Tracer()):
            assert cli.estimate_error is not before[2]
        assert (qpskrx._kernels.run_chunk, qpskrx.montecarlo.RngSpec.draws,
                cli.estimate_error, cli.render_csv) == before


class TestOracle:
    def sweep(self):
        cfg = load_config(None, {"m": 4, "trials": 10_000, "alpha_sq_start": 2.0,
                                 "alpha_sq_stop": 2.0, "alpha_sq_points": 1},
                          mode="sweep")
        exact = enumerate_error_probability(cli.matched_inference(cfg, 2.0))
        return cfg, exact

    def test_monte_carlo_within_five_stderr(self):
        cfg, exact = self.sweep()
        oracle = Oracle(cfg)
        ok = [{"alpha_sq": 2.0, "error_prob": exact + 4.9e-3, "stderr": 1e-3}]
        bad = [{"alpha_sq": 2.0, "error_prob": exact + 5.1e-3, "stderr": 1e-3}]
        assert oracle.failures(ok) == []
        assert len(oracle.failures(bad)) == 1
        assert oracle.max_z == pytest.approx(5.1)

    def test_zero_error_point_uses_binomial_floor(self):
        cfg, exact = self.sweep()
        floor = zero_error_stderr(cfg.trials)
        assert 5 * floor < exact  # so p_hat = 0 at this point must fail
        assert len(Oracle(cfg).failures(
            [{"alpha_sq": 2.0, "error_prob": 0.0, "stderr": 0.0}])) == 1
        # at alpha^2 = 12, M = 10 the exact 6.3e-4 lies within 5 floor-stderr
        cfg = load_config(None, {"m": 10, "trials": 10_000}, mode="sweep")
        assert Oracle(cfg).failures(
            [{"alpha_sq": 12.0, "error_prob": 0.0, "stderr": 0.0}]) == []

    def test_below_helstrom_fails(self):
        cfg, _ = self.sweep()
        model = cli.matched_inference(cfg, 2.0)
        hel = helstrom_qpsk(model.eta_total * 2.0)
        msgs = Oracle(cfg).failures(
            [{"alpha_sq": 2.0, "error_prob": hel / 2, "stderr": hel / 100}])
        assert len(msgs) == 1 and "Helstrom" in msgs[0]

    def test_enumerate_reference(self):
        cfg = make_config("enumerate-m16", 1)
        ref = json.loads(REFERENCE_FILE.read_text())
        rows = [{"alpha_sq": a, "error_prob": p, "alpha_sq_detected": 0.0}
                for a, p in zip(ref["alpha_sq"], ref["error_prob"])]
        oracle = Oracle(cfg)
        assert oracle.failures(rows) == []
        rows[2]["error_prob"] += 2e-12
        assert len(oracle.failures(rows)) == 1

    def test_reference_grid_matches_workload(self):
        cfg = make_config("enumerate-m16", 1)
        ref = json.loads(REFERENCE_FILE.read_text())
        assert ref["alpha_sq"] == [float(a) for a in cli.alpha_grid(cfg)]


def test_benchmark_json_matches_emitted_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
    assert set(layer_metrics([], workers=1)) | {
        "process.cpu_s", "trace.wall_s", "trace.overhead_s"} == set(run.PER_LAYER_UNITS)


def test_kernel_view_bytes_count_only_used_columns():
    from spans import _kernel_attrs

    u = np.zeros((10, 12))[:, :10]
    attrs = _kernel_attrs(u, np.zeros(4), np.zeros((4, 4)), np.zeros((2, 4)), 0)
    assert attrs == {"trial_stages": 100, "bytes_in": 800 + 8 * (4 + 16 + 8)}
