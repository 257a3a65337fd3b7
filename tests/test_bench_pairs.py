"""Summary arithmetic of the BENCH writer, ``tools/bench_pairs.py``."""

import importlib.util
import json
from pathlib import Path

import pytest

spec = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)


def side(wall, sha="a", failed=0):
    return {"wall_s": wall, "setup_s": 0.1, "peak_rss_mb": 40.0 + wall,
            "batches": 3, "csv_sha256": sha, "points_failed": failed,
            "points_attempted": 5}


def pair(parent_wall, change_wall, change_sha="a", change_failed=0):
    return {"seed": 1, "first": "parent", "parent": side(parent_wall),
            "change": side(change_wall, change_sha, change_failed)}


class TestQuartiles:
    def test_inclusive_quartiles(self):
        # inclusive method: linear interpolation between order statistics
        assert bench_pairs.quartiles([4.0, 1.0, 3.0, 2.0, 5.0]) == {
            "median": 3.0, "q1": 2.0, "q3": 4.0}
        assert bench_pairs.quartiles([1.0, 2.0, 3.0, 4.0]) == {
            "median": 2.5, "q1": 1.75, "q3": 3.25}

    def test_single_value(self):
        assert bench_pairs.quartiles([0.5]) == {"median": 0.5, "q1": 0.5, "q3": 0.5}


class TestSummarize:
    def test_sides_and_lower_count(self):
        pairs = [pair(1.0, 0.6), pair(2.0, 0.7), pair(3.0, 3.5), pair(4.0, 0.5),
                 pair(5.0, 5.0)]
        summary = bench_pairs.summarize(pairs)
        wall = summary["wall_s"]
        assert wall["parent"] == {"median": 3.0, "q1": 2.0, "q3": 4.0}
        assert wall["change"] == {"median": 0.7, "q1": 0.6, "q3": 3.5}
        assert wall["change_lower_in"] == 3  # a tie is not lower
        assert wall["pairs"] == 5
        assert summary["setup_s"]["change_lower_in"] == 0
        assert summary["peak_rss_mb"]["change"]["median"] == pytest.approx(40.7)
        assert summary["csv_sha256_equal_in_every_pair"] is True
        assert summary["points_failed"] == {"parent": 0, "change": 0}
        assert summary["points_attempted"] == {"parent": 25, "change": 25}

    def test_csv_mismatch_and_failures_are_counted(self):
        summary = bench_pairs.summarize([pair(1.0, 0.5), pair(1.0, 0.5, "b", 2)])
        assert summary["csv_sha256_equal_in_every_pair"] is False
        assert summary["points_failed"] == {"parent": 0, "change": 2}


class TestSummarizeExact:
    def test_ratios_per_round(self):
        def probe(scale):
            return {**{f"M{m}": {"best_s": scale * m, "peak_states": m}
                       for m in bench_pairs.EXACT_STAGES},
                    "five_point_s": scale}

        rounds = [{"first": "parent", "parent": probe(1.0), "change": probe(0.5)},
                  {"first": "change", "parent": probe(2.0), "change": probe(1.5)},
                  {"first": "parent", "parent": probe(1.0), "change": probe(1.25)}]
        out = bench_pairs.summarize_exact(rounds)
        five = out["enumerate_m16_five_points"]
        assert five["ratio_per_round"] == [0.5, 0.75, 1.25]
        assert five["ratio_median"] == 0.75
        assert five["change_lower_in"] == 2 and five["rounds"] == 3
        assert five["parent"]["median"] == 1.0 and five["change"]["median"] == 1.25
        assert out["M16"]["parent"] == {"best_s": 16.0, "peak_states": 16}
        assert out["M16"]["change"]["best_s"] == 20.0
        assert out["M16"]["ratio_median"] == 0.75


def perfbench_stdout(metrics, untraced=3, traced=0, failed=0):
    """Lines as ``perfbench/run.py`` prints them: progress, record, metrics, result."""
    record = {"csv_sha256": "abc", "batch_walls_s": {"untraced": [0.1] * untraced,
                                                     "traced": [0.2] * traced}}
    result = {"correct": failed == 0, "attempted": 10, "failed": failed,
              "metrics": {m: {"value": v, "unit": "s"} for m, v in metrics.items()}}
    return (["batch 1 untraced 0.100 s", "record " + json.dumps(record)]
            + [f"{m} {v} s" for m, v in metrics.items()] + [json.dumps(result)])


class TestParseOutput:
    def test_end_to_end_entry(self):
        lines = perfbench_stdout({"wall_s": 0.2, "setup_s": 0.3, "peak_rss_mb": 44.0})
        assert bench_pairs.parse_output(lines, bench_pairs.METRICS, "untraced") == {
            "wall_s": 0.2, "setup_s": 0.3, "peak_rss_mb": 44.0, "batches": 3,
            "csv_sha256": "abc", "points_failed": 0, "points_attempted": 10}

    def test_layer_entry_counts_traced_batches(self):
        metrics = {m: float(i) for i, m in enumerate(bench_pairs.LAYER_METRICS)}
        lines = perfbench_stdout({**metrics, "trace.overhead_s": 0.01}, untraced=4,
                                 traced=5, failed=2)
        entry = bench_pairs.parse_output(lines, bench_pairs.LAYER_METRICS, "traced")
        assert entry == {**metrics, "batches": 5, "csv_sha256": "abc",
                         "points_failed": 2, "points_attempted": 10}

    def test_layer_metrics_cover_kernel_draws_and_cpu(self):
        assert {"kernels.run_chunk.calls", "kernels.run_chunk.busy_s",
                "montecarlo.draws.busy_s", "process.cpu_s"} <= set(bench_pairs.LAYER_METRICS)


class TestLayerRatios:
    def test_change_over_parent(self):
        parent = {m: 2.0 for m in bench_pairs.LAYER_METRICS}
        change = {m: 1.0 for m in bench_pairs.LAYER_METRICS}
        parent["bayes.enumerate.busy_s"] = change["bayes.enumerate.busy_s"] = 0.0
        ratios = bench_pairs.layer_ratios({"parent": parent, "change": change})
        assert ratios["kernels.run_chunk.calls"] == 0.5
        assert ratios["process.cpu_s"] == 0.5
        assert ratios["bayes.enumerate.busy_s"] is None  # layer idle on both sides


class TestSourceLines:
    def test_counts_each_package_file_and_the_total(self, tmp_path):
        package = tmp_path / "src" / "qpskrx"
        package.mkdir(parents=True)
        (package / "b.py").write_text("x = 1\n\ny = 2\n")
        (package / "a.py").write_text('"""One line."""\n')
        (package / "notes.txt").write_text("not counted\n")
        (tmp_path / "src" / "other.py").write_text("not counted\n")
        assert bench_pairs.source_lines(tmp_path) == {
            "files": {"a.py": 1, "b.py": 3}, "total": 4}
