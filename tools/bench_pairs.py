"""Benchmark a change against its parent in alternating pairs; write a BENCH record.

    python3 tools/bench_pairs.py PARENT CHANGE [--pairs N] [--seconds S]
        [--first-seed K]

Run from the repository root.  Both revisions are exported with
``git archive`` into a temporary directory.  Per workload, N pairs of

    python3 perfbench/run.py --workload W --seed S --seconds S --trace 0

run from each export, unchanged, with seeds K..K+N-1; parent and change
alternate which runs first.  The end-to-end metrics are each run's reported
values; a pair also keeps the run's batch count, CSV sha256 and points.
Then each side runs the workload once with ``--trace 1`` at seed K; the
``layers`` entry keeps the medians over its traced batches of the metrics in
``LAYER_METRICS`` (kernel calls and busy time, draw busy time, process CPU
time, ...) and their change/parent ratios.

The ``exact_layer`` section times ``bayes.enumerate_detail`` alone in fresh
interpreters, 10 rounds alternating the two sides: per side and round, the
best of 5 walls and the peak states at M = 10, 16 and 20 (experimental
condition, |alpha|^2 = 3), and the median of 15 repetitions of the five
``enumerate-m16`` points.

The ``size`` section counts the lines of each ``src/qpskrx/*.py`` file per
side, and their total.  The record, headed by the change's commit subject,
goes to ``BENCH_<change sha>.json`` in the current directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SIDES = ("parent", "change")
METRICS = ("wall_s", "setup_s", "peak_rss_mb")
WORKLOADS = ("sweep-m10", "stages-m3-30", "enumerate-m16")
LAYER_METRICS = ("kernels.run_chunk.calls", "kernels.run_chunk.busy_s",
                 "kernels.run_chunk.trial_stages", "montecarlo.draws.calls",
                 "montecarlo.draws.busy_s", "bayes.enumerate.busy_s", "process.cpu_s",
                 "trace.wall_s")
EXACT_STAGES = (10, 16, 20)
EXACT_ALPHA_SQ = 3.0
EXACT_BEST_OF = 5
EXACT_ROUNDS = 10
FIVE_POINT_REPS = 15


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


def exact_probe(tree: str) -> dict:
    """Time ``enumerate_detail`` from ``tree`` in this interpreter (see module doc)."""
    sys.path[:0] = [f"{tree}/src", f"{tree}/perfbench"]
    from qpskrx.bayes import enumerate_detail
    from qpskrx.cli import alpha_grid, matched_inference
    from workloads import make_config

    cfg = make_config("enumerate-m16", 0)

    def wall(models) -> float:
        t0 = time.perf_counter()
        for model in models:
            enumerate_detail(model)
        return time.perf_counter() - t0

    out = {}
    for m in EXACT_STAGES:
        model = matched_inference(cfg, EXACT_ALPHA_SQ, m=m)
        out[f"M{m}"] = {"best_s": min(wall([model]) for _ in range(EXACT_BEST_OF)),
                        "peak_states": enumerate_detail(model).peak_states}
    five = [matched_inference(cfg, float(a)) for a in alpha_grid(cfg)]
    wall(five)  # warm-up
    out["five_point_s"] = statistics.median(wall(five) for _ in range(FIVE_POINT_REPS))
    return out


def summarize_exact(rounds: list[dict]) -> dict:
    """Per stage count and for the five points: per-side medians and change/parent."""
    out = {}
    for m in EXACT_STAGES:
        key = f"M{m}"
        out[key] = {side: {"best_s": statistics.median(r[side][key]["best_s"] for r in rounds),
                           "peak_states": rounds[0][side][key]["peak_states"]}
                    for side in SIDES}
        out[key]["ratio_median"] = statistics.median(
            r["change"][key]["best_s"] / r["parent"][key]["best_s"] for r in rounds)
    ratios = [r["change"]["five_point_s"] / r["parent"]["five_point_s"] for r in rounds]
    out["enumerate_m16_five_points"] = {
        **{side: quartiles([r[side]["five_point_s"] for r in rounds]) for side in SIDES},
        "ratio_per_round": ratios, "ratio_median": statistics.median(ratios),
        "change_lower_in": sum(x < 1.0 for x in ratios), "rounds": len(rounds)}
    return out


def run_exact(trees: dict) -> dict:
    records = []
    for r in range(EXACT_ROUNDS):
        order = SIDES if r % 2 == 0 else SIDES[::-1]
        record = {"first": order[0], "parent": None, "change": None}
        for side in order:
            out = subprocess.run([sys.executable, __file__, "--exact-probe", str(trees[side])],
                                 check=True, capture_output=True, text=True).stdout
            record[side] = json.loads(out)
        records.append(record)
        print(f"exact round {r + 1}: five points {record['parent']['five_point_s']:.4f} s -> "
              f"{record['change']['five_point_s']:.4f} s", flush=True)
    return {"method": f"fresh interpreter per side and round, sides alternating; "
                      f"best of {EXACT_BEST_OF} at M = {EXACT_STAGES}, |alpha|^2 = "
                      f"{EXACT_ALPHA_SQ}, cli.matched_inference at the enumerate-m16 "
                      f"config; five points: median of {FIVE_POINT_REPS} after one warm-up",
            "summary": summarize_exact(records), "rounds": records}


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--exact-probe"]:
        print(json.dumps(exact_probe(argv[1])))
        return 0
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--first-seed", type=int, default=21)
    args = parser.parse_args(argv)

    shas = {side: git("rev-parse", rev) for side, rev in zip(SIDES, (args.parent, args.change))}
    record = {"change": git("log", "-1", "--format=%s", shas["change"]),
              "commit": shas["change"][:7], "parent_commit": shas["parent"],
              "machine": machine(),
              "method": f"python3 perfbench/run.py --workload W --seed S --seconds "
                        f"{args.seconds:g} --trace 0, run from a git archive of each "
                        f"commit; parent and change alternate which runs first, seeds "
                        f"{args.first_seed}-{args.first_seed + args.pairs - 1}; "
                        f"end-to-end metrics are each run's reported value; layers: "
                        f"one --trace 1 run per side at seed {args.first_seed}",
              "workloads": {}}
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        trees = {side: export(shas[side], Path(tmp) / side) for side in SIDES}
        record["size"] = {side: source_lines(trees[side]) for side in SIDES}
        for workload in WORKLOADS:
            pairs = []
            for i in range(args.pairs):
                seed = args.first_seed + i
                order = SIDES if i % 2 == 0 else SIDES[::-1]
                pair = {"seed": seed, "first": order[0], "parent": None, "change": None}
                for side in order:
                    pair[side] = run_perfbench(trees[side], workload, seed, args.seconds)
                pairs.append(pair)
                print(f"{workload} seed {seed}: wall_s {pair['parent']['wall_s']:.4f} -> "
                      f"{pair['change']['wall_s']:.4f}", flush=True)
            layers = {"seed": args.first_seed,
                      **{side: run_perfbench(trees[side], workload, args.first_seed,
                                             args.seconds, trace=1) for side in SIDES}}
            layers["change_over_parent"] = layer_ratios(layers)
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
