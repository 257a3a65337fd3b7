"""Bayesian feedback engine: posterior recursion, MAP policy, exact enumeration.

The receiver splits the signal into M bins.  Each bin, the current MAP
hypothesis is displaced to vacuum; the detector outcome multiplies the
posterior by the per-bin likelihood and the MAP target is refreshed.  Because
everything is phase-covariant, likelihoods depend only on the index difference
``delta = (m - target) mod 4`` and can be tabulated once per model.  Both
estimators read one point's tables, in one layout, from ``point_tables``.

``enumerate_error_probability`` is the exact answer the Monte Carlo engine
is checked against.  It is a dynamic program with one layer per bin: outcome
histories that leave the receiver in the same state (log-posterior vector and
previous target) are merged on one int64 order key, so a layer holds at most
a few 10^4 states at M=16 where a plain walk visits 2^M histories.  The test
suite keeps the 2^M walk and a merge by one five-key sort as its oracles.

Every path (this dynamic program, the Monte Carlo kernel and the test
oracles) keeps the un-normalized log-posterior ``lp`` and targets its first
maximum, so ties go to the lowest index.  A history to which every hypothesis
gives zero likelihood (possible when the inference model is ideal and the
truth model is not) follows the same rule: all of ``lp`` is -inf from then
on, and the receiver targets, and finally decides, symbol 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .physics import ChannelModel, off_probs

_NEG_INF = float("-inf")


def _log(p: float) -> float:
    return math.log(p) if p > 0.0 else _NEG_INF


# DELTA_NEW[dprev, step] = (dprev - step) mod 4: a TruthTables.trans index
# turned into the delta of symbol m from the bin's (new) target
DELTA_NEW = np.subtract.outer(np.arange(4), np.arange(4)) % 4


@dataclass(frozen=True)
class InferenceModel:
    """Likelihood model used in the posterior update.

    ``eta_total`` is the effective efficiency seen by the inference model,
    including any lumped discard-loss multiplier.  Dark counts are stored per
    state and split evenly over the M bins.
    """

    alpha_sq: float
    stages: int
    eta_total: float = 1.0
    xi: float = 1.0
    nu_per_state: float = 0.0

    def __post_init__(self):
        if not math.isfinite(self.alpha_sq) or self.alpha_sq < 0:
            raise ValueError(f"alpha_sq must be finite and >= 0, got {self.alpha_sq}")
        if self.stages < 1:
            raise ValueError(f"stages must be >= 1, got {self.stages}")
        ChannelModel(self.eta_total, self.xi)  # range validation
        if self.nu_per_state < 0:
            raise ValueError(f"nu_per_state must be >= 0, got {self.nu_per_state}")

    @property
    def gamma_sq(self) -> float:
        return self.alpha_sq / self.stages

    @property
    def nu_per_bin(self) -> float:
        return self.nu_per_state / self.stages

    def channel(self) -> ChannelModel:
        return ChannelModel(self.eta_total, self.xi)

    def off_probs(self) -> np.ndarray:
        """No-click probability by delta = (m - target) mod 4."""
        return off_probs(self.gamma_sq, self.channel(), self.nu_per_bin)

    def log_likelihood_table(self) -> np.ndarray:
        """(2, 4) array of log p(e | delta); row 0 is "off", row 1 is "on"."""
        p_off = self.off_probs()
        return np.array([[_log(p) for p in p_off], [_log(1.0 - p) for p in p_off]])


@dataclass(frozen=True)
class TruthTables:
    """Per-bin no-click probabilities of the outcome-generating model.

    ``first`` is indexed by ``(m - target) mod 4`` and applies to the first
    bin (no feedback transient, no discard window).  ``trans`` applies to all
    later bins and is indexed by ``[(m - prev_target) mod 4,
    (target - prev_target) mod 4]`` so delay-aware models can depend on the
    phase transition.
    """

    stages: int
    first: np.ndarray
    trans: np.ndarray

    def __post_init__(self):
        if self.first.shape != (4,) or self.trans.shape != (4, 4):
            raise ValueError("truth tables must have shapes (4,) and (4, 4)")


def uniform_truth_tables(alpha_sq: float, stages: int, ch: ChannelModel,
                         nu_per_state: float = 0.0) -> TruthTables:
    """Truth model with identical per-bin statistics (no delay, lumped loss)."""
    p = off_probs(alpha_sq / stages, ch, nu_per_state / stages)
    return TruthTables(stages, p, p[DELTA_NEW])


def truth_from_inference(model: InferenceModel) -> TruthTables:
    """Matched truth model: outcomes generated from the inference likelihoods."""
    return uniform_truth_tables(model.alpha_sq, model.stages, model.channel(),
                                model.nu_per_state)


def point_tables(model: InferenceModel,
                 truth: TruthTables | None = None) -> tuple[np.ndarray, ...]:
    """``_kernels.symbol_tables`` of ``truth`` (default: the matched one) and the
    model's ``log_likelihood_table``: one point's tables, read by both estimators."""
    if truth is None:
        truth = truth_from_inference(model)
    if truth.stages != model.stages:
        raise ValueError("truth model stage count must match the inference model")
    return (*_kernels.symbol_tables(truth.first, truth.trans), model.log_likelihood_table())


MAX_ENUM_STAGES = 20


@dataclass
class EnumerationDetail:
    """Exact enumeration output with per-symbol bookkeeping.

    ``peak_states`` is the size of the largest merged layer of the dynamic
    program, against ``2^M`` histories for a plain walk.
    """

    error_prob: float
    per_symbol_error: np.ndarray
    branch_totals: np.ndarray = field(repr=False)
    peak_states: int


def _order_key(lp: np.ndarray, prev: np.ndarray) -> np.ndarray:
    """One int64 per row, ordered and tied as the rows (lp0, lp1, lp2, lp3, prev):
    column value ranks (-inf included) in mixed radix, lp0 most significant."""
    key, size, steps = 0, 1, np.zeros(len(prev), dtype=np.int64)
    rank = np.empty_like(steps)
    for col in lp.T:
        order = col.argsort()
        ranked = col[order]
        np.cumsum(ranked[1:] != ranked[:-1], out=steps[1:])  # ties share a rank
        rank[order], radix = steps, int(steps[-1]) + 1
        if size * radix > 1 << 60:  # re-rank: same order and ties, ranks < N
            key, size = np.unique(key, return_inverse=True)[1], len(key)
        key, size = key * radix + rank, size * radix
    return 4 * key + prev


def enumerate_detail(model: InferenceModel,
                     truth: TruthTables | None = None) -> EnumerationDetail:
    """Exact error probability, one layer of merged receiver states per bin.

    Each outcome history is weighted by its probability under the truth model
    while the posterior is propagated with the inference model, mirroring the
    receiver's actual feedback trajectory.  After bin i a history is fully
    described by its un-normalized log-posterior ``lp`` and previous target
    (the current target is the first-maximum argmax of ``lp``).  Children with
    value-equal ``(lp, prev)`` share one ``_order_key`` and merge into a state
    whose per-symbol linear weights are summed in child order.  ``lp`` takes
    the same IEEE adds as the batch kernels, so exact hypothesis ties settle as
    in Monte Carlo; only the weights' order of summation differs from a 2^M walk.
    """
    M = model.stages
    if M > MAX_ENUM_STAGES:
        raise ValueError(f"enumeration is capped at {MAX_ENUM_STAGES} stages; got M={M}")
    first, trans, loglik = point_tables(model, truth)
    step = _kernels.step_rows(loglik)   # row 2 * cur + e: added to lp when target cur sees e
    p_off = trans.reshape(4, 16).T      # row 4 * prev + cur: truth no-click prob. by symbol

    lp = np.zeros((1, 4))
    w = np.ones((1, 4))             # linear weight of the state given symbol m
    prev = cur = np.zeros(1, dtype=np.int8)
    peak = 1
    for i in range(M):
        p_t = first.T.take(cur, axis=0) if i == 0 else p_off.take(4 * prev + cur, axis=0)
        lp = np.concatenate([lp + step.take(2 * cur + e, axis=0) for e in (0, 1)])
        w = np.concatenate((w * p_t, w * (1.0 - p_t)))
        prev = np.concatenate((cur, cur))
        del p_t  # keeps the merge's peak memory down
        states, group = np.unique(_order_key(lp, prev), return_inverse=True)
        w = np.stack([np.bincount(group, weights=w[:, k], minlength=len(states))
                      for k in range(4)], axis=1)
        # any child of a state will do: lp starts at +0.0 and only adds logs of
        # (0, 1] or -inf, so it has no -0.0 and value-equal rows are bitwise equal
        rep = np.empty(len(states), dtype=np.intp)
        rep[group] = np.arange(len(group))
        lp, prev = lp[rep], (states & 3).astype(np.int8)
        cur = lp.argmax(axis=1).astype(np.int8)
        peak = max(peak, len(states))

    per_symbol = 1.0 - np.array([w[cur == k, k].sum() for k in range(4)])
    return EnumerationDetail(
        error_prob=float(per_symbol.mean()),
        per_symbol_error=per_symbol,
        branch_totals=w.sum(axis=0),
        peak_states=peak,
    )


def enumerate_error_probability(model: InferenceModel,
                                truth: TruthTables | None = None) -> float:
    """Exact average error probability (see ``enumerate_detail``)."""
    return enumerate_detail(model, truth).error_prob
