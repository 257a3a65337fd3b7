"""Summary arithmetic of the BENCH writer, ``tools/bench_pairs.py``."""

import hashlib
import importlib.util
import json
import math
import os
import signal
import subprocess
import sys
import time
import types
from pathlib import Path

import numpy as np
import pytest

BENCH_PAIRS = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", BENCH_PAIRS)
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
            return {**{key: {"best_s": scale * int(key.rpartition("M")[2]),
                             "peak_states": int(key.rpartition("M")[2])}
                       for key in bench_pairs.EXACT_KEYS},
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
        assert out["ideal_M100"]["parent"] == {"best_s": 100.0, "peak_states": 100}
        assert out["ideal_M100"]["ratio_median"] == 0.75


    def test_grid_call_against_the_parents_per_point_calls(self):
        def probe(per_point, grid=None):
            out = {**{key: {"best_s": 1.0, "peak_states": 7} for key in bench_pairs.EXACT_KEYS},
                   "five_point_s": per_point, "five_point_traced_peak_mb": 0.5}
            if grid is not None:
                out.update(five_point_grid_s=grid, five_point_grid_traced_peak_mb=2.0)
            return out

        rounds = [{"first": "parent", "parent": probe(1.0), "change": probe(1.5, 0.8)},
                  {"first": "change", "parent": probe(2.0), "change": probe(2.5, 1.2)}]
        out = bench_pairs.summarize_exact(rounds)
        grid = out["enumerate_m16_five_point_grid"]
        assert grid["parent"]["timed"] == "five_point"
        assert grid["change"]["timed"] == "five_point_grid"
        assert grid["ratio_per_round"] == [0.8, 0.6] and grid["change_lower_in"] == 2
        assert grid["parent"]["traced_peak_mb"] == 0.5 and grid["change"]["traced_peak_mb"] == 2.0
        assert out["enumerate_m16_five_points"]["ratio_per_round"] == [1.5, 1.25]
        rounds[0]["parent"], rounds[1]["parent"] = probe(1.0, 1.0), probe(2.0, 1.0)
        grid = bench_pairs.summarize_exact(rounds)["enumerate_m16_five_point_grid"]
        assert grid["parent"]["timed"] == "five_point_grid"
        assert grid["ratio_per_round"] == [0.8, 1.2]

    def test_five_point_timing_and_traced_peak(self):
        calls = []

        def call():
            calls.append(bytearray(1_000_000))  # kept, so the traced peak holds it

        out = bench_pairs.time_five("x", call)
        assert len(calls) == bench_pairs.FIVE_POINT_REPS + 2
        assert out["x_s"] >= 0.0 and out["x_traced_peak_mb"] >= 1.0

    def test_refused_stage_count_kept_without_ratio(self):
        def probe(scale, refuse_from=None):
            def entry(m):
                if refuse_from and m >= refuse_from:
                    return {"refused": f"capped; got M={m}"}
                return {"best_s": scale * m, "peak_states": m}

            return {**{key: entry(int(key.rpartition("M")[2]))
                       for key in bench_pairs.EXACT_KEYS},
                    "five_point_s": scale}

        rounds = [{"first": "parent", "parent": probe(1.0, 21), "change": probe(0.5)},
                  {"first": "change", "parent": probe(2.0, 21), "change": probe(1.5)}]
        out = bench_pairs.summarize_exact(rounds)
        assert out["M50"]["parent"] == {"refused": "capped; got M=50"}
        assert out["M50"]["change"] == {"best_s": 50.0, "peak_states": 50}
        assert out["M50"]["ratio_median"] is None
        assert out["M30"]["ratio_median"] is None
        assert out["M20"]["ratio_median"] == 0.625
        assert out["ideal_M100"]["parent"] == {"refused": "capped; got M=100"}
        assert out["ideal_M100"]["ratio_median"] is None

    def test_experimental_condition_at_m100_refused_by_one_side(self):
        # a side whose layer at M=100 is over the state budget keeps its message
        message = "enumeration: layer 60 of 100 holds 267613 merged states"

        def probe(scale, refuse=False):
            out = {key: {"best_s": scale, "peak_states": 7} for key in bench_pairs.EXACT_KEYS}
            if refuse:
                out["M100"] = {"refused": message}
            return {**out, "five_point_s": scale}

        rounds = [{"first": "parent", "parent": probe(1.0, True), "change": probe(0.5)},
                  {"first": "change", "parent": probe(2.0, True), "change": probe(1.0)}]
        out = bench_pairs.summarize_exact(rounds)
        assert out["M100"]["parent"] == {"refused": message}
        assert out["M100"]["change"] == {"best_s": 0.75, "peak_states": 7}
        assert out["M100"]["ratio_median"] is None
        assert out["M50"]["ratio_median"] == 0.5

    def test_stages_probe_records_a_refusal(self):
        class Detail:
            peak_states = 7

        def refuse(model):
            raise ValueError(f"enumeration is capped at 20 stages; got M={model}")

        assert bench_pairs.probe_stages(lambda model: Detail(), 30)["peak_states"] == 7
        assert bench_pairs.probe_stages(refuse, 30) == {
            "refused": "enumeration is capped at 20 stages; got M=30"}

    def test_traced_peak_median_and_ratio(self):
        def probe(scale, mb):
            return {**{key: {"best_s": scale, "peak_states": 7} for key in bench_pairs.EXACT_KEYS},
                    "M50": {"best_s": scale, "peak_states": 7, "traced_peak_mb": mb},
                    "five_point_s": scale}

        rounds = [{"first": "parent", "parent": probe(1.0, 40.0), "change": probe(0.5, 44.0)},
                  {"first": "change", "parent": probe(2.0, 40.0), "change": probe(1.5, 44.0)},
                  {"first": "parent", "parent": probe(1.0, 40.0), "change": probe(0.7, 46.0)}]
        out = bench_pairs.summarize_exact(rounds)
        assert out["M50"]["parent"] == {"best_s": 1.0, "peak_states": 7, "traced_peak_mb": 40.0}
        assert out["M50"]["change"]["traced_peak_mb"] == 44.0
        assert out["M50"]["traced_peak_ratio"] == pytest.approx(1.1)
        assert "traced_peak_mb" not in out["M30"]["parent"]
        assert "traced_peak_ratio" not in out["M30"]

    def test_stages_probe_traces_one_more_call(self):
        class Detail:
            peak_states = 7

        calls = []

        def enumerate_detail(model):
            calls.append(bytearray(2_000_000))  # kept, so the traced peak holds it
            return Detail()

        out = bench_pairs.probe_stages(enumerate_detail, 30, traced=True)
        assert len(calls) == bench_pairs.EXACT_BEST_OF + 1
        assert out["traced_peak_mb"] >= 2.0
        assert "traced_peak_mb" not in bench_pairs.probe_stages(enumerate_detail, 30)

    def test_traced_stages_are_timed_stages(self):
        assert set(bench_pairs.TRACED_STAGES) == {30, 50} <= set(bench_pairs.EXACT_STAGES)

    def test_exact_layer_reaches_fifty_stages(self):
        assert {30, 50} <= set(bench_pairs.EXACT_STAGES)

    def test_exact_layer_times_the_ideal_model(self):
        # the ideal model's -inf log-posteriors take the DP's value-key merge
        assert bench_pairs.EXACT_KEYS[-2:] == ("ideal_M50", "ideal_M100")
        assert len(set(bench_pairs.EXACT_KEYS)) == len(bench_pairs.EXACT_KEYS)


def perfbench_stdout(metrics, untraced=3, traced=0, failed=0):
    """Lines as ``perfbench/run.py`` prints them: progress, record, metrics, result."""
    record = {"csv_sha256": "abc", "batch_walls_s": {"untraced": [0.1] * untraced,
                                                     "traced": [0.2] * traced}}
    result = {"correct": failed == 0, "attempted": 10, "failed": failed,
              "metrics": {m: {"value": v, "unit": "s"} for m, v in metrics.items()}}
    return (["batch 1 untraced 0.100 s", "record " + json.dumps(record)]
            + [f"{m} {v} s" for m, v in metrics.items()] + [json.dumps(result)])


class TestAlternate:
    @pytest.mark.parametrize("i, first", [(0, "parent"), (1, "change"), (2, "parent"),
                                          (3, "change")])
    def test_even_rounds_run_the_parent_first(self, i, first):
        calls = []
        record = bench_pairs.alternate(i, lambda side: calls.append(side) or side.upper())
        assert calls == [first, "change" if first == "parent" else "parent"]
        assert record == {"first": first, "parent": "PARENT", "change": "CHANGE"}
        assert list(record) == ["first", "parent", "change"]


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


    def test_medians_over_traced_pairs(self):
        def layer_pair(i, parent, change):
            return {"seed": 21 + i, "first": "parent" if i % 2 == 0 else "change",
                    "parent": {m: parent for m in bench_pairs.LAYER_METRICS},
                    "change": {m: change for m in bench_pairs.LAYER_METRICS}}

        pairs = [layer_pair(0, 2.0, 1.0), layer_pair(1, 4.0, 1.0), layer_pair(2, 1.0, 3.0)]
        for pair in pairs[1:]:  # the layer idles in the parent after the first pair
            pair["parent"]["bayes.enumerate.busy_s"] = 0.0
        out = bench_pairs.summarize_layers(pairs)
        assert out["pairs"] is pairs
        assert out["parent"]["kernels.run_chunk.calls"] == 2.0
        assert out["change"]["kernels.run_chunk.calls"] == 1.0
        # the median of the ratios 0.5, 0.25 and 3, not 1.0 / 2.0 of the medians
        assert out["change_over_parent"]["kernels.run_chunk.calls"] == 0.5
        assert out["change_over_parent"]["bayes.enumerate.busy_s"] == 0.5

    def test_ratio_none_where_every_parent_idles(self):
        sides = {m: 0.0 for m in bench_pairs.LAYER_METRICS}
        pairs = [{"seed": 21 + i, "first": "parent", "parent": sides, "change": sides}
                 for i in range(2)]
        out = bench_pairs.summarize_layers(pairs)
        assert set(out["change_over_parent"].values()) == {None}


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


class TestTier1Counts:
    @pytest.mark.parametrize("last_line, expected", [
        ("458 passed in 71.95s (0:01:11)", (458, 0, 0, 0)),
        ("3 failed, 120 passed, 1 skipped in 107.00s (0:01:47)", (120, 3, 1, 0)),
        ("2 failed, 418 passed, 5 skipped, 2 warnings, 1 error in 80.70s", (418, 2, 5, 1)),
        ("1 passed, 2 errors in 0.50s", (1, 0, 0, 2)),
        ("========= 7 skipped, 4 deselected in 0.12s =========", (0, 0, 7, 0)),
        ("no tests ran in 0.01s", (0, 0, 0, 0))])
    def test_summary_line(self, last_line, expected):
        stdout = "C01 zero-signal limit: PASS - 4 passed checks\n....s\n" + last_line + "\n"
        assert bench_pairs.tier1_counts(stdout) == dict(
            zip(("passed", "failed", "skipped", "errors"), expected))

    def test_no_output(self):
        assert bench_pairs.tier1_counts("") == {
            "passed": 0, "failed": 0, "skipped": 0, "errors": 0}

    def test_run_counts_a_tree(self, tmp_path):
        (tmp_path / "src").mkdir()
        (tmp_path / "src" / "helper.py").write_text("VALUE = 1\n")
        (tmp_path / "test_tree.py").write_text(
            "import pytest\nfrom helper import VALUE\n\n"
            "def test_pass():\n    assert VALUE == 1\n\n"
            "def test_fail():\n    assert VALUE == 2\n\n"
            "@pytest.mark.skip\ndef test_skip():\n    pass\n")
        run = bench_pairs.run_tier1(tmp_path)
        assert run["returncode"] == 1 and run["wall_s"] > 0
        assert {k: run[k] for k in ("passed", "failed", "skipped", "errors")} == {
            "passed": 1, "failed": 1, "skipped": 1, "errors": 0}


def table_probe(golden_sha="g", matched_sha="m", delay_sha="d", truth=(0.5, 0.25),
                breaks=0):
    return {"golden": {"sha256": golden_sha, "points": 3, "matched_sha256": matched_sha,
                       "matched_points": 2},
            "delay": {"sha256": delay_sha, "points": 1, "matched_sha256": "e",
                      "matched_points": 0, "mirror_breaks": breaks},
            "delay_truth": list(truth)}


class TestTables:
    def test_ulps(self):
        assert bench_pairs.ulps(1.0, 1.0) == 0
        assert bench_pairs.ulps(1.0, math.nextafter(1.0, 2.0)) == 1
        assert bench_pairs.ulps(math.nextafter(0.5, 0.0), math.nextafter(0.5, 1.0)) == 2
        assert bench_pairs.ulps(0.0, 5e-324) == 1

    def test_mirror_breaks_skip_the_half_turn_column(self):
        trans = [float(((a * a) % 4) + 10 * ((b * b) % 4)) for a in range(4) for b in range(4)]
        assert not bench_pairs.mirror_breaks(trans)  # even in a and in b
        half_turn = list(trans)
        half_turn[4 * 1 + 2] += 1.0
        assert not bench_pairs.mirror_breaks(half_turn)
        quarter_turn = list(trans)
        quarter_turn[4 * 1 + 3] += 1.0
        assert bench_pairs.mirror_breaks(quarter_turn)

    def test_delay_grid(self):
        grid = bench_pairs.delay_grid()
        assert len(grid) == 2 * len(bench_pairs.TABLE_ALPHA_SQ) * len(bench_pairs.TABLE_STAGES)
        assert {mode for mode, _ in grid} == {"delay-sweep"}
        assert len({json.dumps(config, sort_keys=True) for _, config in grid}) == len(grid)

    def test_summary_counts_moved_entries(self):
        nudged = math.nextafter(math.nextafter(0.25, 1.0), 1.0)
        out = bench_pairs.summarize_tables({
            "parent": table_probe(truth=(0.5, 0.25), breaks=2),
            "change": table_probe(golden_sha="h", delay_sha="d", truth=(0.5, nudged))})
        assert out["golden_sha256_equal"] is False
        assert out["golden_matched_sha256_equal"] is True
        assert out["delay_sha256_equal"] is True
        assert out["delay_entries"] == 2 and out["delay_entries_moved"] == 1
        assert out["delay_max_ulps"] == 2
        assert out["parent"]["delay"]["mirror_breaks"] == 2
        assert "delay_truth" not in out["parent"]

    def test_summary_of_grids_of_unequal_size(self):
        out = bench_pairs.summarize_tables({"parent": table_probe(truth=(0.5,)),
                                            "change": table_probe()})
        assert out["delay_entries_moved"] is None and out["delay_max_ulps"] is None

    def test_points_collected_through_the_exact_grid_call(self):
        from qpskrx import bayes, cli

        config = {"m": 5, "alpha_sq_start": 1.0, "alpha_sq_stop": 3.0, "alpha_sq_points": 3}
        points = bench_pairs.collect_points(cli, [("enumerate", config)])
        cfg = cli.load_config(overrides=config, mode="enumerate")
        assert points == [(cli.matched_inference(cfg, a), None) for a in (1.0, 2.0, 3.0)]
        assert cli.enumerate_points is bayes.enumerate_points  # restored
        assert cli.enumerate_error_probability is bayes.enumerate_error_probability

    def test_points_collected_through_the_one_point_call(self):
        # a tree whose cli calls the exact evaluator once per point, and has no grid call
        from qpskrx import cli

        def run(cfg):
            return [fake.enumerate_error_probability(cli.matched_inference(cfg, a))
                    for a in cli.alpha_grid(cfg)]

        fake = types.SimpleNamespace(run=run, load_config=cli.load_config,
                                     estimate_errors=None, enumerate_error_probability=None)
        config = {"m": 4, "alpha_sq_start": 1.0, "alpha_sq_stop": 2.0, "alpha_sq_points": 2}
        points = bench_pairs.collect_points(fake, [("enumerate", config)])
        cfg = cli.load_config(overrides=config, mode="enumerate")
        assert points == [(cli.matched_inference(cfg, a), None) for a in (1.0, 2.0)]
        assert not hasattr(fake, "enumerate_points")
        assert fake.enumerate_error_probability is None

    def test_point_tables_through_either_builder(self):
        # this tree's grid builder of one point, and a tree's one-point builder
        # from before it, with that builder's layout: the same bytes
        from qpskrx import bayes
        from qpskrx._kernels import ROLL
        from qpskrx.delay import DelayParams, delay_truth_tables

        def point_tables(model, truth=None):
            truth = truth or bayes.truth_from_inference(model)
            m, p, c = np.ix_(range(4), range(4), range(4))
            return (truth.first[ROLL.T], truth.trans[(m - p) % 4, (c - p) % 4],
                    model.log_likelihood_table())

        older = types.SimpleNamespace(point_tables=point_tables)
        model = bayes.InferenceModel(2.0, 6, 0.65, 0.996, 9.1e-3)
        delayed = (model, delay_truth_tables(model, DelayParams(20.0, 0.37, 0.63), 0.5, True))
        for point in ((model, None), delayed):
            tables = bench_pairs.point_tables_of(bayes, *point)
            assert [t.shape for t in tables] == [(4, 4), (4, 4, 4), (2, 4)]
            assert [t.tobytes() for t in tables] == [
                t.tobytes() for t in bench_pairs.point_tables_of(older, *point)]

    def test_probe_of_this_tree(self):
        tree = BENCH_PAIRS.parent.parent
        probe = json.loads(subprocess.run(
            [sys.executable, str(BENCH_PAIRS), "--table-probe", str(tree)],
            check=True, capture_output=True, text=True).stdout)
        points = 13 * len(bench_pairs.delay_grid())
        assert probe["delay"]["points"] == points
        assert len(probe["delay_truth"]) == 20 * points
        assert probe["delay"]["mirror_breaks"] == 0
        assert 0 < probe["golden"]["matched_points"] < probe["golden"]["points"] == 64
        same = bench_pairs.summarize_tables({"parent": probe, "change": probe})
        assert same["delay_entries_moved"] == 0 and same["delay_sha256_equal"]


def default_run(sha, wall=1.0, returncode=0, body=None, estimates=None):
    return {"wall_s": wall, "returncode": returncode, "csv_sha256": sha,
            "csv_body_sha256": body if body is not None else sha, "estimates": estimates}


HEADER = '# config={"seed": 1}\n'
STAGES_CSV = ("m,error_prob_no_discard,stderr_no_discard,error_prob_discard,stderr_discard\n"
              "3,0.25,0.03,0.5,0.04\n4,0.125,0.02,0.0,0.0\n")


class TestDefaults:
    def test_equal_bytes_per_mode(self):
        runs = {"sweep": {"first": "parent", "parent": default_run("a"),
                          "change": default_run("a", 0.8)},
                "bounds": {"first": "change", "parent": default_run("a"),
                           "change": default_run("b")},
                "enumerate": {"first": "parent", "parent": default_run(None, returncode=1),
                              "change": default_run(None, returncode=1)}}
        out = bench_pairs.summarize_defaults(runs)
        assert out["sweep"]["csv_sha256_equal"] is True
        assert out["sweep"]["change"] == default_run("a", 0.8)
        assert out["sweep"]["first"] == "parent"
        assert out["bounds"]["csv_sha256_equal"] is False
        assert out["enumerate"]["csv_sha256_equal"] is False  # no CSV on either side
        assert out["enumerate"]["csv_body_sha256_equal"] is False
        assert out["enumerate"]["max_abs_z"] is None

    def test_body_equal_under_another_header(self):
        runs = {"sweep": {"first": "parent", "parent": default_run("a", body="x"),
                          "change": default_run("b", body="x")}}
        out = bench_pairs.summarize_defaults(runs)["sweep"]
        assert out["csv_sha256_equal"] is False and out["csv_body_sha256_equal"] is True

    def test_largest_z_between_the_sides(self):
        parent = [[0.25, 0.03], [0.5, 0.04], [0.125, 0.02], [0.0, 0.0]]
        change = [[0.2, 0.04], [0.5, 0.01], [0.135, 0.02], [0.0, 0.0]]
        runs = {"stages-sweep": {"first": "change",
                                 "parent": default_run("a", estimates=parent),
                                 "change": default_run("b", estimates=change)}}
        out = bench_pairs.summarize_defaults(runs)["stages-sweep"]
        assert out["max_abs_z"] == pytest.approx(0.05 / 0.05)
        assert bench_pairs.max_abs_z([[0.0, 0.0]], [[1.0, 0.0]]) == math.inf
        assert bench_pairs.max_abs_z(parent, change[:3]) is None  # other points
        assert bench_pairs.max_abs_z(parent, None) is None  # an exact mode

    def test_csv_estimates_pair_each_error_with_its_stderr(self):
        assert bench_pairs.csv_body(HEADER + STAGES_CSV) == STAGES_CSV
        assert bench_pairs.csv_body(STAGES_CSV) == STAGES_CSV
        assert bench_pairs.csv_estimates(HEADER + STAGES_CSV) == [
            [0.25, 0.03], [0.5, 0.04], [0.125, 0.02], [0.0, 0.0]]
        assert bench_pairs.csv_estimates(
            HEADER + "alpha_sq,alpha_sq_detected,error_prob\n1.0,0.6,0.38\n") is None

    def test_run_in_a_tree(self, tmp_path):
        package = tmp_path / "src" / "qpskrx"
        package.mkdir(parents=True)
        (package / "__init__.py").write_text("")
        (package / "cli.py").write_text(
            "import sys\n"
            "mode, out = sys.argv[1], sys.argv[3]\n"
            "if mode == 'bad':\n    sys.exit(1)\n"
            "open(out, 'w').write(mode + '\\n')\n")
        run = bench_pairs.run_default(tmp_path, "sweep", tmp_path / "sweep.csv")
        assert run["returncode"] == 0 and run["wall_s"] > 0
        assert run["csv_sha256"] == hashlib.sha256(b"sweep\n").hexdigest()
        bad = bench_pairs.run_default(tmp_path, "bad", tmp_path / "bad.csv")
        assert bad["returncode"] == 1
        assert bad["csv_sha256"] is bad["csv_body_sha256"] is bad["estimates"] is None

    def test_run_hashes_the_body_and_reads_the_estimates(self, tmp_path):
        package = tmp_path / "src" / "qpskrx"
        package.mkdir(parents=True)
        (package / "__init__.py").write_text("")
        (package / "cli.py").write_text(
            f"import sys\nopen(sys.argv[3], 'w').write({HEADER + STAGES_CSV!r})\n")
        run = bench_pairs.run_default(tmp_path, "stages-sweep", tmp_path / "out.csv")
        assert run["csv_sha256"] == hashlib.sha256((HEADER + STAGES_CSV).encode()).hexdigest()
        assert run["csv_body_sha256"] == hashlib.sha256(STAGES_CSV.encode()).hexdigest()
        assert run["estimates"] == bench_pairs.csv_estimates(STAGES_CSV)


STOPPED_WRITER = """
import importlib.util, subprocess, sys, tempfile
spec = importlib.util.spec_from_file_location("bench_pairs", sys.argv[1])
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)
bench_pairs.stop_on_sigterm()
with tempfile.TemporaryDirectory(prefix="bench_pairs_", dir=sys.argv[2]) as tmp:
    child = ("import os, sys, time; p = sys.argv[1]; open(p + '.tmp', 'w').write("
             "str(os.getpid())); os.replace(p + '.tmp', p); time.sleep(60)")
    subprocess.run([sys.executable, "-c", child, sys.argv[3]])
"""


def pid_alive(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


class TestStop:
    def test_sigterm_kills_the_child_and_removes_the_exports(self, tmp_path):
        work, pid_file = tmp_path / "work", tmp_path / "child.pid"
        work.mkdir()
        writer = subprocess.Popen([sys.executable, "-c", STOPPED_WRITER, str(BENCH_PAIRS),
                                   str(work), str(pid_file)])
        child = None
        try:
            deadline = time.monotonic() + 30
            while not pid_file.exists() and time.monotonic() < deadline:
                time.sleep(0.02)
            child = int(pid_file.read_text())
            assert [p.name[:12] for p in work.iterdir()] == ["bench_pairs_"]
            writer.send_signal(signal.SIGTERM)
            code = writer.wait(timeout=30)
            assert not pid_alive(child)
            assert list(work.iterdir()) == []
            assert code == 128 + signal.SIGTERM
        finally:
            writer.kill()
            writer.wait()
            if child is not None and pid_alive(child):
                os.kill(child, signal.SIGKILL)
