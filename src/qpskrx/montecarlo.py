"""Deterministic, parallelizable Monte Carlo estimation of the error probability.

Trials are stratified over the four truth symbols (equal priors) and driven
by one ``PCG64DXSM`` stream per (seed, symbol), laid out bin-major: the
uniform of trial t in bin i is output i * 2**64 + t.  So a given (seed,
symbol, trial) always sees the same uniforms regardless of chunking, worker
count, scheduling or the stage count of the point that reads them.  A grid of
points shares those uniforms (common random numbers), and each chunk's draws
are generated once, at the grid's largest M, for all points, whose tables
are built once (``bayes.grid_tables``, as for the exact evaluator).
"""

from __future__ import annotations

import math
import os
from collections.abc import Sequence
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .bayes import InferenceModel, TruthTables, grid_tables
# ``truth_from_inference`` stays importable from here: perfbench/spans.py traces it by this name.
from .bayes import truth_from_inference  # noqa: F401

DEFAULT_CHUNK = 1 << 16  # at most this many trials per (symbol, chunk) task
BIN_STRIDE = 1 << 64  # stream outputs between one bin's uniforms and the next's


@dataclass(frozen=True)
class RngSpec:
    """Seed plus the per-trial substream derivation rule."""

    seed: int

    def draws(self, symbol: int, start_trial: int, n_trials: int, stages: int) -> np.ndarray:
        """Uniforms for trials [start, start+n); row t is trial start+t.

        Bin i of trial t reads output ``i * BIN_STRIDE + t`` of the symbol's
        ``PCG64DXSM`` stream, seeded by ``SeedSequence(seed, spawn_key=(symbol,))``,
        so any contiguous range of trials, and any leading run of bins, can be
        generated on its own: the first m columns are the same for every
        ``stages`` >= m.  The result is column-major, so each bin's column (of
        any leading-column slice) is contiguous for the kernel; each column is
        filled in place by one ``advance`` and one ``random`` call.
        """
        bg = np.random.PCG64DXSM(np.random.SeedSequence(self.seed, spawn_key=(symbol,)))
        gen = np.random.Generator(bg)
        out = np.empty((stages, n_trials)).T
        bg.advance(start_trial)
        for i in range(stages):
            gen.random(out=out[:, i])
            bg.advance(BIN_STRIDE - n_trials)  # to trial ``start_trial`` of the next bin
        return out


@dataclass(frozen=True)
class SimulationResult:
    """Estimated error probability with binomial standard error."""

    error_prob: float
    stderr: float
    trials: int
    per_symbol_error: tuple[float, float, float, float]


def estimate_errors(points: Sequence[tuple[InferenceModel, TruthTables | None]],
                    trials: int, rng: RngSpec, n_workers: int = 1) -> list[SimulationResult]:
    """Monte Carlo estimates for a grid of ``(inference, truth)`` points.

    Every point sees the same uniforms for a given (symbol, trial): common
    random numbers.  A trial's first M uniforms are the same for every M, so
    each (symbol, chunk) task draws once, at the grid's largest M, and runs
    every point over them, longest first (``bayes.grid_tables``' order), in
    stacks of at most ``_kernels.STACK_TRIALS`` (point, trial) rows, one
    kernel call per stack.
    Deterministic for a given ``rng``: the chunk schedule is fixed and the
    tallies are integers, so the results are independent of ``n_workers``
    and of the other points of the grid.  A missing truth is the matched one.
    """
    if trials < 4:
        raise ValueError(f"trials must be >= 4 (one per symbol), got {trials}")
    if not points:
        return []
    # built once, longest first as the kernel takes them: its tables by point and symbol
    order, stages, first, trans, loglik = grid_tables(points)
    top = int(stages[0])  # the grid's largest M: every point reads a leading slice
    base, rem = divmod(trials, 4)
    counts = [base + (1 if s < rem else 0) for s in range(4)]
    tasks = [(symbol, start, min(DEFAULT_CHUNK, n_sym - start))
             for symbol, n_sym in enumerate(counts) for start in range(0, n_sym, DEFAULT_CHUNK)]

    def run_task(task):
        symbol, start, n = task
        draws = rng.draws(symbol, start, n, top)
        per_call = max(1, _kernels.STACK_TRIALS // n)  # points stacked in one kernel call
        tallies = []
        for lo in range(0, len(order), per_call):
            stack = slice(lo, lo + per_call)
            targets = _kernels.run_chunk(draws[:, :stages[lo]], first[stack, symbol],
                                         trans[stack, symbol], loglik[stack], stages[stack])
            tallies.append((order[stack], symbol, (targets == symbol).sum(axis=1)))
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
    estimates = []
    for c in correct.tolist():
        per_symbol = tuple(1.0 - c[s] / counts[s] for s in range(4))
        p_err = sum(per_symbol) / 4  # equal priors
        estimates.append(SimulationResult(p_err, math.sqrt(p_err * (1.0 - p_err) / trials),
                                          trials, per_symbol))
    return estimates


def estimate_error(inference: InferenceModel, trials: int, rng: RngSpec,
                   truth: TruthTables | None = None, n_workers: int = 1) -> SimulationResult:
    """Monte Carlo error-probability estimate of one point (see ``estimate_errors``)."""
    return estimate_errors([(inference, truth)], trials, rng, n_workers)[0]
