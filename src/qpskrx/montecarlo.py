"""Deterministic, parallelizable Monte Carlo estimation of the error probability.

Trials are stratified over the four truth symbols (equal priors) and driven
by counter-based Philox substreams keyed on (seed, symbol) with the counter
advanced to the trial index, so a given (seed, symbol, trial) always sees the
same uniforms regardless of chunking, worker count or scheduling.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .bayes import (FeedbackState, InferenceModel, TruthTables, decide,
                    initial_state, posterior_update, truth_from_inference)
from .physics import sample_click

DEFAULT_CHUNK = 1 << 16


@dataclass(frozen=True)
class RngSpec:
    """Seed plus the per-trial substream derivation rule."""

    seed: int

    def draws(self, symbol: int, start_trial: int, n_trials: int, stages: int) -> np.ndarray:
        """Uniforms for trials [start, start+n); row t is trial start+t.

        Each trial consumes a fixed block of uniforms padded to a multiple of
        4 (the Philox counter granularity), so any contiguous range can be
        generated independently via counter advancement.
        """
        pad = 4 * ((stages + 3) // 4)
        bg = np.random.Philox(key=(self.seed << 2) | symbol)
        bg.advance(start_trial * (pad // 4))
        u = np.random.Generator(bg).random((n_trials, pad))
        return u[:, :stages]


@dataclass(frozen=True)
class SimulationResult:
    """Estimated error probability with binomial standard error."""

    error_prob: float
    stderr: float
    trials: int
    per_symbol_error: tuple[float, float, float, float]


def simulate_trial(truth_symbol: int, truth: TruthTables, inference: InferenceModel,
                   rng: np.random.Generator) -> bool:
    """Single-trial reference path built from the high-level primitives."""
    state: FeedbackState = initial_state()
    prev = state.target
    for i in range(inference.stages):
        p_off = truth.off_prob(i, truth_symbol, prev, state.target)
        e = sample_click(p_off, rng.random())
        prev = state.target
        state = posterior_update(state, e, inference)
    return decide(state) == truth_symbol


def trial_outcomes(inference: InferenceModel, symbol: int, trials: int, rng: RngSpec,
                   truth: TruthTables | None = None,
                   chunk_size: int = DEFAULT_CHUNK) -> np.ndarray:
    """Per-trial correctness mask for one truth symbol (determinism checks)."""
    if truth is None:
        truth = truth_from_inference(inference)
    loglik = inference.log_likelihood_table()
    out = np.empty(trials, dtype=np.bool_)
    for start in range(0, trials, chunk_size):
        n = min(chunk_size, trials - start)
        draws = rng.draws(symbol, start, n, inference.stages)
        out[start:start + n] = _kernels.run_chunk(draws, truth.first, truth.trans,
                                                  loglik, symbol)
    return out


def _symbol_trial_counts(trials: int) -> list[int]:
    base, rem = divmod(trials, 4)
    return [base + (1 if s < rem else 0) for s in range(4)]


def estimate_error(inference: InferenceModel, trials: int, rng: RngSpec,
                   truth: TruthTables | None = None, n_workers: int = 1,
                   chunk_size: int = DEFAULT_CHUNK) -> SimulationResult:
    """Monte Carlo error-probability estimate, stratified over truth symbols.

    Deterministic for a given ``rng``: the chunk schedule is fixed and chunk
    tallies are integers, so the result is independent of ``n_workers``.
    """
    if trials < 1:
        raise ValueError(f"trial count must be >= 1, got {trials}")
    if truth is None:
        truth = truth_from_inference(inference)
    if truth.stages != inference.stages:
        raise ValueError("truth model stage count must match the inference model")
    loglik = inference.log_likelihood_table()
    counts = _symbol_trial_counts(trials)

    tasks = []
    for symbol, n_sym in enumerate(counts):
        for start in range(0, n_sym, chunk_size):
            tasks.append((symbol, start, min(chunk_size, n_sym - start)))

    def run_task(task):
        symbol, start, n = task
        draws = rng.draws(symbol, start, n, inference.stages)
        mask = _kernels.run_chunk(draws, truth.first, truth.trans, loglik, symbol)
        return symbol, int(mask.sum())

    correct = [0, 0, 0, 0]
    if n_workers <= 1:
        results = map(run_task, tasks)
    else:
        with ThreadPoolExecutor(max_workers=n_workers) as pool:
            results = list(pool.map(run_task, tasks))
    for symbol, n_correct in results:
        correct[symbol] += n_correct

    per_symbol = tuple(
        1.0 - correct[s] / counts[s] if counts[s] else 0.0 for s in range(4))
    sampled = [s for s in range(4) if counts[s]]
    p_err = sum(per_symbol[s] for s in sampled) / len(sampled)  # equal priors

    stderr = math.sqrt(p_err * (1.0 - p_err) / trials)
    return SimulationResult(
        error_prob=p_err,
        stderr=stderr,
        trials=trials,
        per_symbol_error=per_symbol,
    )
