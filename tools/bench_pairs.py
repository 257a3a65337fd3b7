"""Benchmark a change against its parent in alternating pairs; write a BENCH record.

    python3 tools/bench_pairs.py PARENT CHANGE [--pairs N] [--seconds S]
        [--first-seed K]

Run from the repository root.  Both revisions are exported with
``git archive`` into a temporary directory.  Per workload, N pairs of

    python3 perfbench/run.py --workload W --seed S --seconds S --trace 0

run from each export, unchanged, with seeds K..K+N-1; parent and change
alternate which runs first.  The end-to-end metrics are each run's reported
values; a pair also keeps the run's batch count, CSV sha256 and points.
Then ``LAYER_PAIRS`` alternating pairs run the workload with ``--trace 1``
at seeds K..K+LAYER_PAIRS-1.  Each traced run reports the medians over its
traced batches of the metrics in ``LAYER_METRICS`` (kernel calls and busy
time, draw busy time, process CPU time, ...).  The ``layers`` entry keeps
every traced pair, and per side the median of each metric over the pairs,
and the median over the pairs of each metric's change/parent ratio.

The ``exact_layer`` section times ``bayes.enumerate_detail`` alone in fresh
interpreters, 10 rounds alternating the two sides: per side and round, the
best of 5 walls and the peak states at M = 10, 16, 20, 30, 50 and 100
(experimental condition, |alpha|^2 = 3) and of the ideal model at M = 50 and
100 (|alpha|^2 = 3, where every click leaves a -inf in the log-posterior),
and the median of 15 repetitions of the five ``enumerate-m16`` points, one
``enumerate_detail`` call each; on a side with ``bayes.enumerate_points``,
also the median of 15 grid calls over the five, the one call its ``cli``
makes.  At M = 30 and 50, and after each five-point timing, the probe runs
one more DP (or loop, or grid call) under ``tracemalloc`` and keeps its peak
traced memory in MB, so that a change that trades memory for numpy calls
shows the trade.  A
side whose ``enumerate_detail`` raises ``ValueError`` at some M (a revision
that caps M, or whose layer there holds more than ``MAX_ENUM_STATES``
states) records that M as refused, with the message, and gets no ratio
there.  The summary also sets the change's grid call against the parent's,
or against the parent's per-point calls where it has no grid pass.

The ``tier1`` section runs the tier-1 test command ``TIER1`` once per side
in its export, parent first: the wall seconds, by this process's clock, and
the passed, failed, skipped and error counts of pytest's summary line.

The ``defaults`` section runs ``python -m qpskrx.cli MODE --out FILE`` at
the default config, once per side in its export for each mode of the
change's ``config.MODES``, alternating which side goes first: the wall
seconds, by this process's clock, the exit code, the CSV sha256, the sha256
of its body (the lines after the ``# config=`` header) and its Monte Carlo
estimates, whether the two sides wrote the same bytes and the same body,
and, for a Monte Carlo mode, the largest |p1 - p2| / sqrt(se1^2 + se2^2)
between the two sides' estimates of a point.

The ``size`` section counts the lines of each ``src/qpskrx/*.py`` file per
side, and their total.

The ``tables`` section hashes the tables the CLI feeds its estimators, from
each side's source in a fresh interpreter.  It takes every point that
``cli.run`` builds (estimators stubbed out, whichever entry the side's
``cli`` calls: ``collect_points``) over the golden configs of the side's
``tests/test_cli.py`` (``GOLDEN_CSV``), and over the delay grid,
``delay-sweep`` at its default 13 discard windows for every |alpha|^2 in
``TABLE_ALPHA_SQ``, M in ``TABLE_STAGES`` and ``truth_delay`` on and off.
It reads each point's tables through ``bayes.grid_tables`` of that point
alone where the side has it, and through ``bayes.point_tables`` otherwise,
which lays out the same bytes (``point_tables_of``).  Per side: the sha256 and point count of each set, and of its points with the
matched truth model (``truth_from_inference``), and the delay grid's tables
whose ``trans`` breaks the mirror symmetry ``trans[a, b] == trans[-a, -b]``
off the half-turn column.  Between the sides: how many of the delay grid's
truth entries (``first`` and ``trans``) moved, and by how many ulps at most.  The record, headed by the change's commit subject,
goes to ``BENCH_<change sha>.json`` in the current directory.

A SIGTERM stops the writer as an exit does: the running child is killed and
the exports are removed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import re
import signal
import statistics
import struct
import subprocess
import sys
import tempfile
import time
import tracemalloc
import types
from pathlib import Path

SIDES = ("parent", "change")
METRICS = ("wall_s", "setup_s", "peak_rss_mb")
WORKLOADS = ("sweep-m10", "stages-m3-30", "enumerate-m16")
LAYER_METRICS = ("kernels.run_chunk.calls", "kernels.run_chunk.busy_s",
                 "kernels.run_chunk.trial_stages", "montecarlo.draws.calls",
                 "montecarlo.draws.busy_s", "bayes.enumerate.busy_s", "process.cpu_s",
                 "trace.wall_s")
EXACT_STAGES = (10, 16, 20, 30, 50, 100)
IDEAL_STAGES = (50, 100)
LAYER_PAIRS = 5  # traced pairs per workload: one pair is a single sample of VM drift
TRACED_STAGES = (30, 50)  # one more DP per side and round under tracemalloc
# exact-layer entries: the experimental condition by M, then the ideal model
EXACT_KEYS = (*(f"M{m}" for m in EXACT_STAGES), *(f"ideal_M{m}" for m in IDEAL_STAGES))
EXACT_ALPHA_SQ = 3.0
EXACT_BEST_OF = 5
EXACT_ROUNDS = 10
FIVE_POINT_REPS = 15
# the delay grid of the tables section: delay-sweep at these |alpha|^2 and M
TABLE_ALPHA_SQ = (1.0, 2.0, 3.3, 4.0, 6.0, 9.4)
TABLE_STAGES = (4, 6, 8, 10, 13, 16, 20, 30)
# the tier-1 verify command of ROADMAP.md, run with PYTHONPATH=src prepended
TIER1 = ("-m", "pytest", "-q", "--continue-on-collection-errors")
TIER1_COUNT = re.compile(r"(\d+) (passed|failed|skipped|errors?)\b")


def git(*args: str) -> str:
    return subprocess.run(["git", *args], check=True, capture_output=True,
                          text=True).stdout.strip()


def export(rev: str, dest: Path) -> Path:
    """``git archive`` of ``rev`` unpacked into ``dest``."""
    dest.mkdir(parents=True)
    archive = subprocess.run(["git", "archive", rev], check=True, capture_output=True)
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive.stdout, check=True)
    return dest


def source_lines(tree: Path) -> dict:
    """Line count of each ``src/qpskrx/*.py`` file of ``tree``, and their total."""
    files = {path.name: len(path.read_text().splitlines())
             for path in sorted((tree / "src" / "qpskrx").glob("*.py"))}
    return {"files": files, "total": sum(files.values())}


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine() -> dict:
    import numpy

    return {"nproc": os.cpu_count(), "cpu_model": cpu_model(),
            "python": platform.python_version(), "numpy": numpy.__version__}


def parse_output(lines: list[str], metrics: tuple[str, ...], batches: str) -> dict:
    """A run's entry from the stdout of ``perfbench/run.py``.

    The values of ``metrics`` from the last line's JSON result, the count of
    ``batches`` ("untraced" or "traced") and, from the ``record`` line, the
    CSV sha256 and the points failed and attempted.
    """
    record = json.loads(next(line for line in lines if line.startswith("record "))[7:])
    result = json.loads(lines[-1])
    return {**{m: result["metrics"][m]["value"] for m in metrics},
            "batches": len(record["batch_walls_s"][batches]),
            "csv_sha256": record["csv_sha256"],
            "points_failed": result["failed"],
            "points_attempted": result["attempted"]}


def alternate(i: int, run) -> dict:
    """``run(side)`` for both sides, the parent first in even rounds ``i`` and the
    change first in odd ones: ``{"first": side, "parent": ..., "change": ...}``."""
    order = SIDES if i % 2 == 0 else SIDES[::-1]
    record = {"first": order[0], "parent": None, "change": None}
    for side in order:
        record[side] = run(side)
    return record


def run_perfbench(tree: Path, workload: str, seed: int, seconds: float,
                  trace: int = 0) -> dict:
    """One run of ``perfbench/run.py`` in ``tree``: a pair entry (``--trace 0``)
    or a per-layer entry (``--trace 1``, its traced batches)."""
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=tree, check=True, capture_output=True, text=True).stdout.splitlines()
    if trace:
        return parse_output(out, LAYER_METRICS, "traced")
    return parse_output(out, METRICS, "untraced")


def layer_ratios(layers: dict) -> dict:
    """Change over parent for each per-layer metric (None where the parent reads 0)."""
    return {m: (layers["change"][m] / layers["parent"][m] if layers["parent"][m] else None)
            for m in LAYER_METRICS}


def summarize_layers(pairs: list[dict]) -> dict:
    """Per side the median of each per-layer metric over the traced pairs, and
    per metric the median of the pairs' change/parent ratios (None where every
    pair's parent reads 0), with the pairs."""
    ratios = [layer_ratios(pair) for pair in pairs]
    change_over_parent = {}
    for m in LAYER_METRICS:
        valid = [r[m] for r in ratios if r[m] is not None]
        change_over_parent[m] = statistics.median(valid) if valid else None
    return {**{side: {m: statistics.median(p[side][m] for p in pairs) for m in LAYER_METRICS}
               for side in SIDES},
            "change_over_parent": change_over_parent, "pairs": pairs}


def quartiles(values: list[float]) -> dict:
    """Median and inclusive quartiles (one value is its own quartiles)."""
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(pairs: list[dict]) -> dict:
    """Per-metric quartiles per side, pairs where the change is lower, and checks."""
    summary = {}
    for metric in METRICS:
        summary[metric] = {
            **{side: quartiles([p[side][metric] for p in pairs]) for side in SIDES},
            "change_lower_in": sum(p["change"][metric] < p["parent"][metric] for p in pairs),
            "pairs": len(pairs)}
    summary["csv_sha256_equal_in_every_pair"] = all(
        p["parent"]["csv_sha256"] == p["change"]["csv_sha256"] for p in pairs)
    for count in ("points_failed", "points_attempted"):
        summary[count] = {side: sum(p[side][count] for p in pairs) for side in SIDES}
    return summary


def traced_peak_mb(call) -> float:
    """Peak traced memory of ``call()`` under ``tracemalloc``, in MB."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def probe_stages(enumerate_detail, model, traced: bool = False) -> dict:
    """Best of ``EXACT_BEST_OF`` walls of ``enumerate_detail(model)`` and its peak
    states, or the message of the ``ValueError`` with which it refuses the model.
    With ``traced``, also the peak traced memory of one more call, in MB."""
    walls = []
    for _ in range(EXACT_BEST_OF):
        t0 = time.perf_counter()
        try:
            detail = enumerate_detail(model)
        except ValueError as exc:
            return {"refused": str(exc)}
        walls.append(time.perf_counter() - t0)
    out = {"best_s": min(walls), "peak_states": detail.peak_states}
    if traced:
        out["traced_peak_mb"] = traced_peak_mb(lambda: enumerate_detail(model))
    return out


def time_five(name: str, call) -> dict:
    """``call()`` on the five ``enumerate-m16`` points: the median of
    ``FIVE_POINT_REPS`` walls after one warm-up, and the peak traced memory of
    one more call, as ``<name>_s`` and ``<name>_traced_peak_mb``."""
    def wall() -> float:
        t0 = time.perf_counter()
        call()
        return time.perf_counter() - t0

    wall()  # warm-up
    return {f"{name}_s": statistics.median(wall() for _ in range(FIVE_POINT_REPS)),
            f"{name}_traced_peak_mb": traced_peak_mb(call)}


def exact_probe(tree: str) -> dict:
    """Time ``enumerate_detail`` from ``tree`` in this interpreter (see module doc)."""
    sys.path[:0] = [f"{tree}/src", f"{tree}/perfbench"]
    from qpskrx import bayes
    from qpskrx.bayes import InferenceModel, enumerate_detail
    from qpskrx.cli import alpha_grid, matched_inference
    from workloads import make_config

    cfg = make_config("enumerate-m16", 0)
    out = {f"M{m}": probe_stages(enumerate_detail,
                                 matched_inference(cfg, EXACT_ALPHA_SQ, m=m),
                                 traced=m in TRACED_STAGES)
           for m in EXACT_STAGES}
    out.update({f"ideal_M{m}": probe_stages(enumerate_detail, InferenceModel(EXACT_ALPHA_SQ, m))
                for m in IDEAL_STAGES})
    five = [matched_inference(cfg, float(a)) for a in alpha_grid(cfg)]
    out.update(time_five("five_point", lambda: [enumerate_detail(model) for model in five]))
    if hasattr(bayes, "enumerate_points"):  # a side with the grid pass: one call for all five
        grid = [(model, None) for model in five]
        out.update(time_five("five_point_grid", lambda: bayes.enumerate_points(grid)))
    return out


def summarize_exact(rounds: list[dict]) -> dict:
    """Per ``EXACT_KEYS`` entry and for the five points: per-side medians and
    change/parent.

    A side that refused a stage count keeps the refusal; the ratio is then None.
    An entry with ``traced_peak_mb`` on both sides gets its change/parent too.
    """
    def median(side: str, key: str, metric: str) -> dict:
        if metric not in rounds[0][side][key]:
            return {}
        return {metric: statistics.median(r[side][key][metric] for r in rounds)}

    out = {}
    for key in EXACT_KEYS:
        first = rounds[0]
        out[key] = {side: first[side][key] if "refused" in first[side][key] else
                    {**median(side, key, "best_s"),
                     "peak_states": first[side][key]["peak_states"],
                     **median(side, key, "traced_peak_mb")}
                    for side in SIDES}
        out[key]["ratio_median"] = None if any("refused" in out[key][s] for s in SIDES) else (
            statistics.median(r["change"][key]["best_s"] / r["parent"][key]["best_s"]
                              for r in rounds))
        if all("traced_peak_mb" in out[key][s] for s in SIDES):
            out[key]["traced_peak_ratio"] = (out[key]["change"]["traced_peak_mb"]
                                             / out[key]["parent"]["traced_peak_mb"])
    out["enumerate_m16_five_points"] = summarize_five(rounds, dict.fromkeys(SIDES, "five_point"))
    if "five_point_grid_s" in rounds[0]["change"]:
        # the change's grid call against the parent's, or its per-point calls
        parent = "five_point_grid" if "five_point_grid_s" in rounds[0]["parent"] else "five_point"
        out["enumerate_m16_five_point_grid"] = summarize_five(
            rounds, {"parent": parent, "change": "five_point_grid"})
    return out


def summarize_five(rounds: list[dict], names: dict) -> dict:
    """Per side, the quartiles of ``<name>_s`` over the rounds, ``name`` being the
    side's entry of ``names``, and the median ``<name>_traced_peak_mb`` where the
    side recorded one; the per-round ratios of the change's to the parent's."""
    def values(side: str, metric: str) -> list[float]:
        return [r[side][f"{names[side]}_{metric}"] for r in rounds]

    def side_summary(side: str) -> dict:
        out = {**quartiles(values(side, "s")), "timed": names[side]}
        if f"{names[side]}_traced_peak_mb" in rounds[0][side]:
            out["traced_peak_mb"] = statistics.median(values(side, "traced_peak_mb"))
        return out

    ratios = [c / p for c, p in zip(values("change", "s"), values("parent", "s"))]
    return {**{side: side_summary(side) for side in SIDES},
            "ratio_per_round": ratios, "ratio_median": statistics.median(ratios),
            "change_lower_in": sum(x < 1.0 for x in ratios), "rounds": len(rounds)}


def delay_grid() -> list[tuple[str, dict]]:
    """The delay grid's (mode, config overrides): 2 * 6 * 8 runs of 13 points."""
    return [("delay-sweep", {"alpha_sq": a, "m": m, "truth_delay": on})
            for on in (True, False) for a in TABLE_ALPHA_SQ for m in TABLE_STAGES]


def mirror_breaks(trans: list[float]) -> bool:
    """Whether a row-major 4 x 4 ``trans`` has ``trans[a, b] != trans[-a, -b]``
    in a column other than the half turn, b = 2."""
    return any(trans[4 * a + b] != trans[4 * (-a % 4) + (-b % 4)]
               for a in range(4) for b in (0, 1, 3))


def collect_points(cli, configs) -> list[tuple]:
    """The ``(inference, truth)`` points that ``cli.run`` hands its estimators for
    each ``(mode, config)`` of ``configs``, estimators stubbed out.

    The stubs replace every entry through which a tree's ``cli`` may reach an
    estimator: the Monte Carlo grid call, the exact grid call and the exact
    one-point call; ``cli``'s attributes are restored on return.
    """
    points = []

    def estimate_errors(grid, *args):
        points.extend(grid)
        return [types.SimpleNamespace(error_prob=0.0, stderr=0.0)] * len(grid)

    def enumerate_points(grid):
        points.extend(grid)
        return [types.SimpleNamespace(error_prob=0.0)] * len(grid)

    def enumerate_error_probability(model):
        points.append((model, None))
        return 0.0

    stubs = {"estimate_errors": estimate_errors, "enumerate_points": enumerate_points,
             "enumerate_error_probability": enumerate_error_probability}
    saved = {name: getattr(cli, name) for name in stubs if hasattr(cli, name)}
    try:
        vars(cli).update(stubs)
        for mode, config in configs:
            cli.run(cli.load_config(overrides=config, mode=mode))
    finally:
        for name in stubs:
            if name in saved:
                setattr(cli, name, saved[name])
            else:
                delattr(cli, name)
    return points


def point_tables_of(bayes, model, truth) -> list:
    """One point's truth tables ``first``, ``trans`` and its log-likelihood table:
    the point's row of ``bayes.grid_tables`` of it alone, or, in a tree without
    it, ``bayes.point_tables``, which lays them out the same."""
    if hasattr(bayes, "grid_tables"):
        return [table[0] for table in bayes.grid_tables([(model, truth)])[2:]]
    return list(bayes.point_tables(model, truth))


def table_probe(tree: str) -> dict:
    """Hash the tables that ``cli.run`` builds from ``tree``'s source, in this
    interpreter (see module doc); for the delay grid also each point's truth
    entries, ``first`` then ``trans`` row-major."""
    sys.path[:0] = [f"{tree}/src", f"{tree}/tests"]
    from qpskrx import bayes, cli
    from test_cli import GOLDEN_CSV

    def tables(points) -> dict:
        digest, matched = hashlib.sha256(), hashlib.sha256()
        for model, truth in points:
            for table in point_tables_of(bayes, model, truth):
                digest.update(table.tobytes())
                if truth is None:
                    matched.update(table.tobytes())
        return {"sha256": digest.hexdigest(), "points": len(points),
                "matched_sha256": matched.hexdigest(),
                "matched_points": sum(truth is None for _, truth in points)}

    out = {"golden": tables(collect_points(cli, ((mode, config)
                                                  for mode, config, _ in GOLDEN_CSV)))}
    points = collect_points(cli, delay_grid())
    out["delay"] = tables(points)
    truth = [(t.first.tolist(), t.trans.ravel().tolist()) for _, t in points]
    out["delay"]["mirror_breaks"] = sum(mirror_breaks(trans) for _, trans in truth)
    out["delay_truth"] = [x for first, trans in truth for x in first + trans]
    return out


def ulps(a: float, b: float) -> int:
    """Units in the last place between two non-negative floats."""
    bits = struct.unpack("<2q", struct.pack("<2d", a, b))
    return abs(bits[0] - bits[1])


def summarize_tables(probes: dict) -> dict:
    """Per side the two sets' digests, point counts and mirror breaks; whether
    each set, and the golden configs' matched points, hash equal; the delay
    grid's truth entries that moved between the sides and their largest ulp
    distance (None if the grids differ in size)."""
    entries = [probes[side]["delay_truth"] for side in SIDES]
    moved = [ulps(a, b) for a, b in zip(*entries) if a != b]
    same_size = len(entries[0]) == len(entries[1])
    return {**{side: {key: probes[side][key] for key in ("golden", "delay")}
               for side in SIDES},
            **{f"{key}_{part}sha256_equal": probes["parent"][key][f"{part}sha256"]
               == probes["change"][key][f"{part}sha256"]
               for key, part in (("golden", ""), ("golden", "matched_"), ("delay", ""))},
            "delay_entries": len(entries[1]),
            "delay_entries_moved": len(moved) if same_size else None,
            "delay_max_ulps": max(moved, default=0) if same_size else None}


def run_tables(trees: dict) -> dict:
    probes = {side: json.loads(subprocess.run(
        [sys.executable, __file__, "--table-probe", str(trees[side])],
        check=True, capture_output=True, text=True).stdout) for side in SIDES}
    return {"method": "each point's tables (bayes.grid_tables of the point alone, or "
                      "bayes.point_tables) of every point cli.run builds, estimators "
                      "stubbed, over tests/test_cli.GOLDEN_CSV and the delay grid: "
                      f"delay-sweep at |alpha|^2 in {TABLE_ALPHA_SQ}, M in "
                      f"{TABLE_STAGES}, truth_delay on and off; moved entries and "
                      "ulps over the delay grid's truth tables (first and trans)",
            **summarize_tables(probes)}


def tier1_counts(stdout: str) -> dict:
    """Passed, failed, skipped and error counts from pytest's last output line,
    e.g. ``2 failed, 418 passed, 1 skipped, 1 error in 80.70s (0:01:20)``."""
    lines = stdout.strip().splitlines()
    counts = dict.fromkeys(("passed", "failed", "skipped", "errors"), 0)
    for n, word in TIER1_COUNT.findall(lines[-1] if lines else ""):
        counts["errors" if word.startswith("error") else word] = int(n)
    return counts


def tree_env() -> dict:
    """This process's environment with ``src`` prepended to PYTHONPATH."""
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": "src" + (os.pathsep + path if path else "")}


def run_tier1(tree: Path) -> dict:
    """One run of the tier-1 tests in ``tree``: wall seconds, exit code and counts."""
    t0 = time.perf_counter()
    done = subprocess.run([sys.executable, *TIER1], cwd=tree, env=tree_env(),
                          capture_output=True, text=True)
    return {"wall_s": time.perf_counter() - t0, "returncode": done.returncode,
            **tier1_counts(done.stdout)}


def csv_body(text: str) -> str:
    """A CLI CSV without its ``# config=`` header line: the column names and rows."""
    return text.split("\n", 1)[1] if text.startswith("# config=") else text


def csv_estimates(text: str) -> list[list[float]] | None:
    """The ``[error_prob, stderr]`` pairs of a CLI CSV, row by row, each
    ``error_prob*`` column with its ``stderr*`` twin; None if it has no
    standard errors (an exact mode)."""
    columns, *rows = (line.split(",") for line in csv_body(text).splitlines())
    twins = [(i, columns.index(twin)) for i, name in enumerate(columns)
             if name.startswith("error_prob")
             and (twin := "stderr" + name.removeprefix("error_prob")) in columns]
    return [[float(row[i]), float(row[j])] for row in rows for i, j in twins] if twins else None


def max_abs_z(parent: list | None, change: list | None) -> float | None:
    """Largest |p1 - p2| / sqrt(se1^2 + se2^2) over the two sides' paired
    estimates (0 where p1 == p2, inf where they differ with both errors 0);
    None unless both sides hold estimates of the same points."""
    if parent is None or change is None or len(parent) != len(change):
        return None

    def z(p1: float, se1: float, p2: float, se2: float) -> float:
        if p1 == p2:
            return 0.0
        se = math.hypot(se1, se2)
        return abs(p1 - p2) / se if se else math.inf

    return max((z(*a, *b) for a, b in zip(parent, change)), default=0.0)


def run_default(tree: Path, mode: str, out: Path) -> dict:
    """One CLI run of ``mode`` at its default config in ``tree``: wall seconds,
    exit code, and the sha256, body sha256 and estimates of the CSV it wrote
    (None if it wrote none)."""
    t0 = time.perf_counter()
    done = subprocess.run([sys.executable, "-m", "qpskrx.cli", mode, "--out", str(out)],
                          cwd=tree, env=tree_env(), capture_output=True, text=True)
    wall = time.perf_counter() - t0
    run = {"wall_s": wall, "returncode": done.returncode,
           "csv_sha256": None, "csv_body_sha256": None, "estimates": None}
    if out.exists():
        data = out.read_bytes()
        body = csv_body(data.decode())
        run.update(csv_sha256=hashlib.sha256(data).hexdigest(),
                   csv_body_sha256=hashlib.sha256(body.encode()).hexdigest(),
                   estimates=csv_estimates(body))
    return run


def summarize_defaults(runs: dict) -> dict:
    """Each mode's runs with ``csv_sha256_equal`` and ``csv_body_sha256_equal``
    (both sides wrote the same CSV, the same body) and ``max_abs_z`` (see
    ``max_abs_z``)."""
    def equal(r: dict, key: str) -> bool:
        return r["parent"][key] is not None and r["parent"][key] == r["change"][key]

    return {mode: {**r, "csv_sha256_equal": equal(r, "csv_sha256"),
                   "csv_body_sha256_equal": equal(r, "csv_body_sha256"),
                   "max_abs_z": max_abs_z(r["parent"]["estimates"], r["change"]["estimates"])}
            for mode, r in runs.items()}


def run_defaults(trees: dict, out_dir: Path) -> dict:
    modes = json.loads(subprocess.run(
        [sys.executable, "-c", "import json; from qpskrx.config import MODES; "
                               "print(json.dumps(MODES))"],
        cwd=trees["change"], env=tree_env(), check=True, capture_output=True,
        text=True).stdout)
    runs = {}
    for i, mode in enumerate(modes):
        runs[mode] = alternate(i, lambda side: run_default(trees[side], mode,
                                                           out_dir / f"{side}-{mode}.csv"))
        print(f"defaults {mode}: {runs[mode]['parent']['wall_s']:.2f} s -> "
              f"{runs[mode]['change']['wall_s']:.2f} s", flush=True)
    return summarize_defaults(runs)


def run_exact(trees: dict) -> dict:
    def probe(side: str) -> dict:
        return json.loads(subprocess.run(
            [sys.executable, __file__, "--exact-probe", str(trees[side])],
            check=True, capture_output=True, text=True).stdout)

    records = []
    for r in range(EXACT_ROUNDS):
        record = alternate(r, probe)
        records.append(record)
        print(f"exact round {r + 1}: five points {record['parent']['five_point_s']:.4f} s -> "
              f"{record['change']['five_point_s']:.4f} s", flush=True)
    return {"method": f"fresh interpreter per side and round, sides alternating; "
                      f"best of {EXACT_BEST_OF} at M = {EXACT_STAGES}, |alpha|^2 = "
                      f"{EXACT_ALPHA_SQ}, cli.matched_inference at the enumerate-m16 "
                      f"config, and of the ideal model at M = {IDEAL_STAGES}; five points: "
                      f"median of {FIVE_POINT_REPS} after one warm-up, one enumerate_detail "
                      f"call each, and one enumerate_points call where the side has it; "
                      f"traced_peak_mb: tracemalloc peak of one more DP at M = "
                      f"{TRACED_STAGES}, and of one more five-point timing",
            "summary": summarize_exact(records), "rounds": records}


def stop_on_sigterm() -> None:
    """Make SIGTERM raise ``SystemExit``, so that ``subprocess.run`` kills its
    child and ``TemporaryDirectory`` removes the exports on the way out."""
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--exact-probe"]:
        print(json.dumps(exact_probe(argv[1])))
        return 0
    if argv[:1] == ["--table-probe"]:
        print(json.dumps(table_probe(argv[1])))
        return 0
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--first-seed", type=int, default=21)
    args = parser.parse_args(argv)
    stop_on_sigterm()

    shas = {side: git("rev-parse", rev) for side, rev in zip(SIDES, (args.parent, args.change))}
    record = {"change": git("log", "-1", "--format=%s", shas["change"]),
              "commit": shas["change"][:7], "parent_commit": shas["parent"],
              "machine": machine(),
              "method": f"python3 perfbench/run.py --workload W --seed S --seconds "
                        f"{args.seconds:g} --trace 0, run from a git archive of each "
                        f"commit; parent and change alternate which runs first, seeds "
                        f"{args.first_seed}-{args.first_seed + args.pairs - 1}; "
                        f"end-to-end metrics are each run's reported value; layers: "
                        f"{LAYER_PAIRS} alternating --trace 1 pairs at seeds "
                        f"{args.first_seed}-{args.first_seed + LAYER_PAIRS - 1}, per side "
                        f"the median of each metric and the median of the pairs' ratios",
              "workloads": {}}
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        trees = {side: export(shas[side], Path(tmp) / side) for side in SIDES}
        record["size"] = {side: source_lines(trees[side]) for side in SIDES}
        record["tables"] = run_tables(trees)
        print(f"tables: {record['tables']['delay_entries_moved']} delay entries moved, "
              f"at most {record['tables']['delay_max_ulps']} ulps", flush=True)
        record["tier1"] = {"command": "PYTHONPATH=src python " + " ".join(TIER1),
                           "first": SIDES[0],
                           **{side: run_tier1(trees[side]) for side in SIDES}}
        print(f"tier-1: {record['tier1']['parent']['wall_s']:.1f} s -> "
              f"{record['tier1']['change']['wall_s']:.1f} s", flush=True)
        record["defaults"] = run_defaults(trees, Path(tmp))
        for workload in WORKLOADS:
            pairs = []
            for i in range(args.pairs):
                seed = args.first_seed + i
                pair = {"seed": seed, **alternate(i, lambda side: run_perfbench(
                    trees[side], workload, seed, args.seconds))}
                pairs.append(pair)
                print(f"{workload} seed {seed}: wall_s {pair['parent']['wall_s']:.4f} -> "
                      f"{pair['change']['wall_s']:.4f}", flush=True)
            layers = summarize_layers([
                {"seed": args.first_seed + i, **alternate(i, lambda side: run_perfbench(
                    trees[side], workload, args.first_seed + i, args.seconds, trace=1))}
                for i in range(LAYER_PAIRS)])
            print(f"{workload} traced: kernel calls "
                  f"{layers['parent']['kernels.run_chunk.calls']:g} -> "
                  f"{layers['change']['kernels.run_chunk.calls']:g}", flush=True)
            record["workloads"][workload] = {"summary": summarize(pairs), "pairs": pairs,
                                             "layers": layers}
        record["exact_layer"] = run_exact(trees)
    out = Path(f"BENCH_{record['commit']}.json")
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
