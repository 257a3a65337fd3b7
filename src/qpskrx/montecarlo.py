"""Deterministic, parallelizable Monte Carlo estimation of the error probability.

Trials are stratified over the four truth symbols (equal priors) and driven
by counter-based Philox substreams keyed on (seed, symbol) with the counter
advanced to the trial index, so a given (seed, symbol, trial) always sees the
same uniforms regardless of chunking, worker count or scheduling.  A grid of
points shares those uniforms (common random numbers), and each chunk's draws
are generated once for all points with the same padded stage count.
"""

from __future__ import annotations

import math
import os
from collections.abc import Sequence
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .bayes import InferenceModel, TruthTables, point_tables
# ``truth_from_inference`` stays importable from here: perfbench/spans.py traces it by this name.
from .bayes import truth_from_inference  # noqa: F401

DEFAULT_CHUNK = 1 << 16
DRAW_BLOCK = 4096  # trials per Philox call in RngSpec.draws: a cache-sized row-major block


@dataclass(frozen=True)
class RngSpec:
    """Seed plus the per-trial substream derivation rule."""

    seed: int

    def draws(self, symbol: int, start_trial: int, n_trials: int, stages: int) -> np.ndarray:
        """Uniforms for trials [start, start+n); row t is trial start+t.

        Each trial consumes a fixed block of uniforms padded to a multiple of
        4 (the Philox counter granularity), so any contiguous range can be
        generated independently via counter advancement.  The result is
        column-major, so each bin's column (of any leading-column slice) is
        contiguous for the kernel; it is filled ``DRAW_BLOCK`` trials at a
        time, each block continuing the stream of the one before.
        """
        pad = 4 * ((stages + 3) // 4)
        bg = np.random.Philox(key=(self.seed << 2) | symbol)
        bg.advance(start_trial * (pad // 4))
        gen = np.random.Generator(bg)
        out = np.empty((stages, n_trials)).T
        for lo in range(0, n_trials, DRAW_BLOCK):
            block = gen.random((min(DRAW_BLOCK, n_trials - lo), pad))
            out[lo:lo + len(block)] = block[:, :stages]
        return out


@dataclass(frozen=True)
class SimulationResult:
    """Estimated error probability with binomial standard error."""

    error_prob: float
    stderr: float
    trials: int
    per_symbol_error: tuple[float, float, float, float]


def _symbol_trial_counts(trials: int) -> list[int]:
    base, rem = divmod(trials, 4)
    return [base + (1 if s < rem else 0) for s in range(4)]


def estimate_errors(points: Sequence[tuple[InferenceModel, TruthTables | None]],
                    trials: int, rng: RngSpec, n_workers: int = 1,
                    chunk_size: int = DEFAULT_CHUNK) -> list[SimulationResult]:
    """Monte Carlo estimates for a grid of ``(inference, truth)`` points.

    Every point sees the same uniforms for a given (symbol, trial): common
    random numbers.  Points with the same padded stage count read the same
    Philox block per trial, so each (pad group, symbol, chunk) task draws
    once, at the group's largest M, and runs the group's points over them in
    stacks of at most ``_kernels.STACK_TRIALS`` (point, trial) rows, one
    kernel call per stack.  Deterministic for a given ``rng``: the chunk
    schedule is fixed and the tallies are integers, so the results are
    independent of ``n_workers``.  A missing truth is the matched one.
    """
    if trials < 4:
        raise ValueError(f"trials must be >= 4 (one per symbol), got {trials}")
    if chunk_size < 1:
        raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
    # per point, built once: the tables ``_kernels.run_chunk`` reads, by point and symbol
    stages = np.array([inference.stages for inference, _ in points])
    tables = [point_tables(*point) for point in points]
    first, trans, loglik = (np.array([table[k] for table in tables]) for k in range(3))
    groups: dict[int, list[int]] = {}  # members longest first, as the kernel takes them
    for i in np.argsort(-stages, kind="stable").tolist():
        groups.setdefault(4 * ((stages[i] + 3) // 4), []).append(i)
    counts = _symbol_trial_counts(trials)

    tasks = []
    for members in groups.values():
        for symbol, n_sym in enumerate(counts):
            for start in range(0, n_sym, chunk_size):
                tasks.append((members, symbol, start, min(chunk_size, n_sym - start)))

    def run_task(task):
        members, symbol, start, n = task
        draws = rng.draws(symbol, start, n, int(stages[members[0]]))  # at the group's top M
        per_call = max(1, _kernels.STACK_TRIALS // n)  # points stacked in one kernel call
        tallies = []
        for lo in range(0, len(members), per_call):
            stack = members[lo:lo + per_call]
            targets = _kernels.run_chunk(draws, first[stack, symbol], trans[stack, symbol],
                                         loglik[stack], stages[stack])
            tallies.append((stack, symbol, (targets == symbol).sum(axis=1)))
            del targets  # not held through the next call
        return tallies

    correct = np.zeros((len(points), 4), dtype=np.int64)
    workers = min(n_workers, len(tasks), os.cpu_count() or 1)
    if workers <= 1:
        results = map(run_task, tasks)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(run_task, tasks))
    for tallies in results:
        for stack, symbol, n_correct in tallies:
            correct[stack, symbol] += n_correct
    return [_result(c, counts, trials) for c in correct.tolist()]


def _result(correct: list[int], counts: list[int], trials: int) -> SimulationResult:
    per_symbol = tuple(1.0 - correct[s] / counts[s] for s in range(4))
    p_err = sum(per_symbol) / 4  # equal priors

    stderr = math.sqrt(p_err * (1.0 - p_err) / trials)
    return SimulationResult(
        error_prob=p_err,
        stderr=stderr,
        trials=trials,
        per_symbol_error=per_symbol,
    )


def estimate_error(inference: InferenceModel, trials: int, rng: RngSpec,
                   truth: TruthTables | None = None, n_workers: int = 1,
                   chunk_size: int = DEFAULT_CHUNK) -> SimulationResult:
    """Monte Carlo error-probability estimate of one point (see ``estimate_errors``)."""
    return estimate_errors([(inference, truth)], trials, rng, n_workers, chunk_size)[0]
