"""End-to-end and per-layer benchmark of the qpskrx CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ``src/``.  One
closed-loop caller repeats the workload's batch (``cli.run`` plus
``render_csv`` on one configuration) until ``--seconds`` have passed and at
least ``MIN_BATCHES`` batches ran.  Every batch is checked by the oracle in
``workloads.py`` after the clock stops, and must render the same CSV bytes.

``--trace 0`` reports the end-to-end metrics, measured untraced.
``--trace 1`` alternates untraced and traced batches and reports the
per-layer metrics of the traced ones, plus the tracing overhead.

Progress lines, a ``record`` line (machine, backend, CSV sha256) and one line
per metric go to stdout; the last line is the JSON result.  The record and
the spans are also written to ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import asdict, dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
SETUP_REPEATS = 5
MIN_BATCHES = 3          # per kind of batch (untraced, traced) in a run
MAX_OVERRUN = 3          # stop at this many times --seconds even if short of batches
MAX_FAILURE_LINES = 10

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "kernels.run_chunk.calls": "count",
    "kernels.run_chunk.busy_s": "s",
    "kernels.run_chunk.trial_stages": "count",
    "kernels.run_chunk.trial_stages_per_s": "1/s",
    "kernels.run_chunk.bytes_in": "B-computed",
    "montecarlo.draws.calls": "count",
    "montecarlo.draws.busy_s": "s",
    "montecarlo.draws.uniforms": "count",
    "montecarlo.draws.bytes": "B-computed",
    "montecarlo.estimate_error.calls": "count",
    "montecarlo.estimate_error.busy_s": "s",
    "montecarlo.estimate_error.self_s": "s",
    "montecarlo.parallel_eff": "ratio",
    "bayes.truth_tables.calls": "count",
    "bayes.truth_tables.busy_s": "s",
    "bayes.enumerate.calls": "count",
    "bayes.enumerate.busy_s": "s",
    "bayes.enumerate.histories": "count",
    "cli.run.self_s": "s",
    "cli.render_csv.busy_s": "s",
    "process.cpu_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}


def import_package():
    """Import ``qpskrx`` from this checkout's ``src/``, or exit non-zero."""
    init = SRC / "qpskrx" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"perfbench: {init} not found; run from a repository checkout")
    sys.path.insert(0, str(SRC))
    import qpskrx

    if Path(qpskrx.__file__).resolve() != init.resolve():
        raise SystemExit(f"perfbench: imported qpskrx from {qpskrx.__file__}, not {init}")


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def machine_record() -> dict:
    import numpy
    import scipy
    from qpskrx import _kernels

    try:
        import numba  # noqa: F401
        numba_imports = True
    except ImportError:
        numba_imports = False
    fn = _kernels.run_chunk
    target = getattr(fn, "py_func", fn)  # a numba dispatcher wraps py_func
    return {
        "nproc": os.cpu_count(),
        "numba_imports": numba_imports,
        "run_chunk": f"{target.__module__}.{target.__qualname__}"
                     + (" [numba]" if target is not fn else ""),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": git_sha(),
    }


def measure_setup(seed: int) -> list[float]:
    """Fresh-interpreter times from start until ``setup_probe`` is ready."""
    probe = Path(__file__).with_name("setup_probe.py")
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        with subprocess.Popen([sys.executable, str(probe), str(SRC), str(seed)],
                              stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.communicate(timeout=120)
        if proc.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"setup probe failed (exit {proc.returncode})")
        times.append(elapsed)
    return times


@dataclass
class Batch:
    traced: bool
    wall_s: float
    cpu_s: float
    rows: list | None            # None when the batch raised
    csv: str | None
    spans: list | None           # None when untraced


def run_batch(cfg, traced: bool) -> Batch:
    """One timed ``cli.run`` + ``render_csv``; spans recorded when traced."""
    from qpskrx import cli
    from spans import Tracer, instrument

    tracer = Tracer() if traced else None
    with instrument(tracer) if traced else nullcontext():
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        try:
            with tracer.span("cli.run") if traced else nullcontext():
                columns, rows = cli.run(cfg)
            text = cli.render_csv(cfg, columns, rows)
        except Exception:  # a failing batch is counted, and the run goes on
            traceback.print_exc()
            rows = text = None
        wall = time.perf_counter() - t0
        cpu = time.process_time() - cpu0
    return Batch(traced, wall, cpu, rows, text, tracer.spans if traced else None)


def run_batches(cfg, seconds: float, traced_too: bool) -> list[Batch]:
    """Closed loop: the next batch starts when the previous one returns."""
    batches: list[Batch] = []
    start = time.perf_counter()
    while True:
        traced = traced_too and len(batches) % 2 == 1
        batch = run_batch(cfg, traced)
        batches.append(batch)
        print(f"batch {len(batches)} {'traced' if traced else 'untraced'} "
              f"{batch.wall_s:.3f} s", flush=True)
        elapsed = time.perf_counter() - start
        enough = sum(not b.traced for b in batches) >= MIN_BATCHES and (
            not traced_too or sum(b.traced for b in batches) >= MIN_BATCHES)
        has_both = not traced_too or len(batches) >= 2
        if elapsed >= seconds and has_both and (enough or elapsed >= MAX_OVERRUN * seconds):
            return batches


def check(cfg, batches: list[Batch]):
    """(attempted, failed, messages, csv sha256 of the first good batch, max |z|)."""
    from workloads import Oracle, expected_points, points

    oracle = Oracle(cfg)
    expected = expected_points(cfg)
    first_csv = next((b.csv for b in batches if b.csv is not None), None)
    attempted = failed = 0
    messages: list[str] = []
    for i, b in enumerate(batches, 1):
        attempted += expected
        if b.rows is None:
            bad = [f"batch {i}: raised"]
        elif len(points(cfg, b.rows)) != expected:
            bad = [f"batch {i}: {len(points(cfg, b.rows))} points, expected {expected}"]
        elif b.csv != first_csv:
            bad = [f"batch {i}: CSV differs from the first batch"]
        else:
            failed += len(fails := oracle.failures(b.rows))
            messages += [f"batch {i}: {m}" for m in fails]
            continue
        failed += expected
        messages += bad
    digest = hashlib.sha256(first_csv.encode()).hexdigest() if first_csv else None
    return attempted, failed, messages, digest, oracle.max_z


def per_layer(cfg, batches: list[Batch]) -> dict[str, float]:
    from spans import layer_metrics

    traced = [b for b in batches if b.traced]
    wall_traced = statistics.median(b.wall_s for b in traced)
    wall_plain = statistics.median(b.wall_s for b in batches if not b.traced)
    per_batch = [{**layer_metrics(b.spans, cfg.workers), "process.cpu_s": b.cpu_s}
                 for b in traced]
    out = {name: statistics.median(m[name] for m in per_batch)
           for name in per_batch[0]}
    out["trace.wall_s"] = wall_traced
    out["trace.overhead_s"] = wall_traced - wall_plain
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_package()
    from setup_probe import ready
    from workloads import WORKLOADS, make_config

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    cfg = make_config(args.workload, args.seed)

    setup_times = [] if args.trace else measure_setup(args.seed)
    ready(args.seed)  # first-call costs, paid before the clock starts
    batches = run_batches(cfg, args.seconds, traced_too=bool(args.trace))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    attempted, failed, messages, digest, max_z = check(cfg, batches)
    if args.trace:
        metrics = per_layer(cfg, batches)
        units = PER_LAYER_UNITS
    else:
        metrics = {
            "wall_s": statistics.median(b.wall_s for b in batches),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": peak_rss_mb,
        }
        units = END_TO_END_UNITS

    record = {
        "workload": args.workload,
        "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "machine": machine_record(), "csv_sha256": digest,
        "batch_walls_s": {"untraced": [b.wall_s for b in batches if not b.traced],
                          "traced": [b.wall_s for b in batches if b.traced]},
        "setup_s_samples": setup_times,
        "points_total": attempted, "points_failed": failed,
        "max_abs_z": max_z, "failures": messages[:MAX_FAILURE_LINES],
    }
    OUT_DIR.mkdir(exist_ok=True)
    out_file = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps({
        "record": record, "metrics": metrics,
        "spans": [[asdict(sp) for sp in b.spans] for b in batches if b.traced],
    }))

    print("record " + json.dumps(record, sort_keys=True))
    for msg in messages[:MAX_FAILURE_LINES]:
        print(f"FAILED {msg}")
    for name, value in metrics.items():
        print(f"{name:<40} {value:>16.6g} {units[name]}")
    print(f"{'points_failed':<40} {failed:>16d} of {attempted} points")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
