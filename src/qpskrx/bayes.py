"""Bayesian feedback engine: posterior recursion, MAP policy, exact enumeration.

The receiver splits the signal into M bins.  Each bin, the current MAP
hypothesis is displaced to vacuum; the detector outcome multiplies the
posterior by the per-bin likelihood and the MAP target is refreshed.  Because
everything is phase-covariant, likelihoods depend only on the index difference
``delta = (m - target) mod 4`` and can be tabulated once per model.  Both
estimators read one point's tables, in one layout, from ``point_tables``.

``enumerate_error_probability`` is the exact answer the Monte Carlo engine
is checked against.  It is a dynamic program with one layer per bin: outcome
histories that leave the receiver in the same state (the differences of the
outcome counts the log-posterior depends on, which fix it up to a constant
vector, and the previous target) are merged on one int64 key, so a layer
holds a few thousand states at M=16 where a plain walk visits 2^M
histories.  A state is indexed by ``s = 4 * prev + cur`` into
per-point tables of its log-likelihood steps, truth outcome probabilities
and key steps; a layer's children are grouped by one argsort of their keys.
The test suite keeps the 2^M walk and a merge by one
``np.lexsort`` over differences of raw outcome counts as its oracles.

Every path (this dynamic program, the Monte Carlo kernel and the test
oracles) keeps the un-normalized log-posterior ``lp`` and targets its first
maximum, so ties go to the lowest index.  ``lp`` sums entries of
``log_likelihood_table``, which lie on a dyadic grid fine enough for every
sum of M entries to be exact: its value does not depend on the order of the
adds, and hypotheses that tie in real arithmetic tie bitwise.  A history to
which every hypothesis gives zero likelihood (possible when the inference
model is ideal and the truth model is not) follows the same rule: all of
``lp`` is -inf from then on, and the receiver targets, and finally decides,
symbol 0.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from . import _kernels

_NEG_INF = float("-inf")
# cos(delta*pi/2) for delta = 0..3, exact; math.cos leaves 6.1e-17 at pi/2
# but -1.8e-16 at 3*pi/2, which would split the mirror pair delta = 1, 3
QUARTER_TURN_COS = (1.0, 0.0, -1.0, 0.0)


def check_stages(stages) -> int:
    """``stages`` as an int; ``ValueError`` unless it is an integer >= 1."""
    if not isinstance(stages, numbers.Integral):
        raise ValueError(f"stages must be an integer, got {stages!r}")
    if stages < 1:
        raise ValueError(f"stages must be >= 1, got {stages}")
    return int(stages)  # numpy ints lack bit_length


@dataclass(frozen=True)
class InferenceModel:
    """One grid point's channel: the receiver's likelihoods and both truth
    builders (``truth_from_inference``, ``delay.delay_truth_tables``) read it.

    ``eta_total`` is the effective efficiency, including any lumped
    discard-loss multiplier, and ``xi`` the interference visibility.  The
    signal's mean photon number and the dark counts are stored per state and
    split evenly over the M bins (``gamma_sq``, ``nu_per_bin``): the one place
    the point is divided by M.  Each bin displaces the current target to
    vacuum; a symbol at phase theta from it gives no click with probability
    exp(-mu), mu = nu + 2 eta (1 - xi cos theta) |gamma|^2 (``mean_count``).
    """

    alpha_sq: float
    stages: int
    eta_total: float = 1.0
    xi: float = 1.0
    nu_per_state: float = 0.0

    def __post_init__(self):
        if not 0 <= self.alpha_sq < math.inf:  # nan too
            raise ValueError(f"alpha_sq must be finite and >= 0, got {self.alpha_sq}")
        if not self.nu_per_state >= 0:
            raise ValueError(f"nu_per_state must be >= 0, got {self.nu_per_state}")
        object.__setattr__(self, "stages", check_stages(self.stages))
        if not 0.0 <= self.eta_total <= 1.0:
            raise ValueError(f"eta_total must be in [0, 1], got {self.eta_total}")
        if not 0.0 <= self.xi <= 1.0:
            raise ValueError(f"xi must be in [0, 1], got {self.xi}")

    @property
    def gamma_sq(self) -> float:
        return self.alpha_sq / self.stages

    @property
    def nu_per_bin(self) -> float:
        return self.nu_per_state / self.stages

    def mean_count(self, segments=((1.0, QUARTER_TURN_COS),)) -> np.ndarray:
        """A bin's mean photon count, the one formula where efficiency,
        visibility, dark counts and phase meet.

        Each ``(share, cos)`` segment holds ``share`` of the bin's intensity at
        the (mean) cosine ``cos`` from the target, an array, and adds
        2 eta (1 - xi cos) (gamma^2 share); the segments are summed in order
        and the dark counts added once.  The default is the whole bin at the
        four quarter turns, by delta.  The bin gives no click with probability
        exp(-count).
        """
        return sum(2.0 * self.eta_total * (1.0 - self.xi * np.asarray(cos))
                   * (self.gamma_sq * share) for share, cos in segments) + self.nu_per_bin

    def off_probs(self) -> np.ndarray:
        """The no-click probabilities by delta = (m - target) mod 4, exp(-mean_count).

        Exact cosines make the mirror pair delta = 1, 3 bitwise equal, so MAP
        ties stay exact; scalar ``math.exp`` (not ``np.exp``) keeps every table
        bitwise.
        """
        return np.array([math.exp(-mu) for mu in self.mean_count().tolist()])

    def log_likelihood_table(self) -> np.ndarray:
        """(2, 4) array of log p(e | delta) on the dyadic grid of ``_grid_exponent``;
        row 0 is "off", row 1 is "on".

        The off row is ``[o, o - t, o - 2t, o - t]``, with o = -mu(0) and
        t = mu(1) - mu(0) each rounded to the grid, mu the ``mean_count`` by
        delta: affine in cos(delta pi/2), as -mu is.  Every on entry,
        log(1 - exp(-mu)), is rounded on its own.  A zero likelihood
        (exp(-mu) is 0) stays -inf and a rounded zero is +0.0.
        """
        mu = self.mean_count().tolist()
        p_off = [math.exp(-x) for x in mu]
        logs = [[-x if p > 0.0 else _NEG_INF for x, p in zip(mu, p_off)],
                [math.log(1.0 - p) if p < 1.0 else _NEG_INF for p in p_off]]
        k = _grid_exponent(logs, self.stages)
        o = _dyadic(logs[0][0], k)
        t = _dyadic(logs[0][0] - logs[0][1], k)
        off = (o, o - t, o - 2.0 * t, o - t)
        return np.array([[x if p > 0.0 else _NEG_INF for x, p in zip(off, p_off)],
                         [_dyadic(x, k) for x in logs[1]]])


def _grid_exponent(logs: list[list[float]], stages: int) -> int:
    """k such that ``stages`` times the largest finite |log| is below 2^(50 - k).

    A grid entry lies within two steps 2^-k of its log, so any sum of
    ``stages`` entries is below 2^(53 - k) in magnitude: a multiple of 2^-k
    that float64 holds exactly, whatever the order of the adds.
    """
    finite = [abs(x) for row in logs for x in row if x > _NEG_INF]
    return min(50 - math.frexp(max(finite, default=0.0))[1] - stages.bit_length(), 1074)


def _dyadic(x: float, k: int) -> float:
    """``x`` rounded to the nearest multiple of 2^-k (zero is +0.0); inf and nan stay."""
    return math.ldexp(round(math.ldexp(x, k)), -k) if math.isfinite(x) else x


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
        object.__setattr__(self, "stages", check_stages(self.stages))
        if self.first.shape != (4,) or self.trans.shape != (4, 4):
            raise ValueError("truth tables must have shapes (4,) and (4, 4)")
        if not all(np.all((t >= 0.0) & (t <= 1.0)) for t in (self.first, self.trans)):
            raise ValueError("truth tables must hold probabilities in [0, 1], not nan")


def truth_from_inference(model: InferenceModel) -> TruthTables:
    """Matched truth model: outcomes generated from the inference likelihoods,
    with identical per-bin statistics (no delay, lumped loss)."""
    p = model.off_probs()
    return TruthTables(model.stages, p, p[_kernels.ROLL.T])  # trans[dprev, step]: p[dprev - step]


def point_tables(model: InferenceModel,
                 truth: TruthTables | None = None) -> tuple[np.ndarray, ...]:
    """``_kernels.symbol_tables`` of ``truth`` (default: the matched one) and the
    model's ``log_likelihood_table``: one point's tables, read by both estimators."""
    if truth is None:
        truth = truth_from_inference(model)
    if truth.stages != model.stages:
        raise ValueError("truth model stage count must match the inference model")
    return (*_kernels.symbol_tables(truth.first, truth.trans), model.log_likelihood_table())


# Merged states a layer of the exact DP may hold (the experimental condition
# at |alpha|^2 = 3 peaks at 41,696 states at M=50 and 184,674 at M=100).
MAX_ENUM_STATES = 1 << 18


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


def _value_key(lp: np.ndarray, prev: np.ndarray) -> np.ndarray:
    """One int64 per row, ordered and tied as the rows (lp0, lp1, lp2, lp3, prev):
    4 * (rank of the row's lp, ties shared, -inf lowest) + prev."""
    order = np.lexsort((prev, *lp.T[::-1]))
    ranked = lp[order]
    steps = np.zeros(len(order), dtype=np.int64)
    steps[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
    key = np.empty_like(steps)
    key[order] = 4 * steps.cumsum() + prev[order]
    return key


# Bits the count key may fill; value keys of rows with a -inf in lp start at
# 2^KEY_BITS, above every count key and, with a count step added, below 2^63.
KEY_BITS = 61
# W[delta]: the t's in the off log-likelihood o - W[delta] t (log_likelihood_table)
_W = (0, 1, 2, 1)
_ONES = np.ones(4)
_ROWS = np.arange(4)[:, None]


def _count_fields(stages: int) -> tuple[tuple[int, ...], int]:
    """Shifts of the count key's signed fields D_1, D_2, E_0, E_1, E_2 (most
    significant first; prev takes the low 2 bits) and the bits the key needs.

    |D_h| <= 2 M and |E_c| <= M, so a field of (4 M).bit_length() bits for D_h
    and (2 M).bit_length() bits for E_c holds the magnitude below half its
    width.  By induction from prev (0..3 below bit 2), the fields below one
    at shift s then sum to a value in (-2^(s-1), 2^(s-1)): a telescoping bound,
    so the packed int64 is injective and orders as the fields lexicographically,
    and it lies in (-2^(bits-1), 2^(bits-1)).
    """
    wd, we = (4 * stages).bit_length(), (2 * stages).bit_length()
    shifts = (2 + 3 * we + wd, 2 + 3 * we, 2 + 2 * we, 2 + we, 2)
    return shifts, 2 + 3 * we + 2 * wd


def _count_steps(stages: int) -> tuple[np.ndarray, bool]:
    """Row ``2 * cur + e``: what outcome e at target cur adds to the count key, and
    whether the key's fields fit in ``KEY_BITS`` (M <= 1023).

    X_h = sum_c n_{c,off} W[(h - c) % 4] counts the t's that no-clicks at target
    c took from hypothesis h, and n_c counts the clicks at target c, so
    ``lp[h] = N o - X_h t + sum_c n_c on[(h - c) % 4]`` with N = (X_0 + X_2) / 2
    no-clicks.  The key holds differences (``_count_fields``): D_h = X_h - X_0
    for h = 1, 2 (X_3 - X_0 = D_2 - D_1) and E_c = n_c - n_3 for c = 0, 1, 2,
    then the previous target.  Adding a to every X_h adds a (o - t) to every
    ``lp[h]``, and adding b to every n_c adds b times the on row's sum, so
    histories with equal keys have ``lp`` rows that differ by a constant
    vector, exactly, as every sum on the dyadic grid is exact: their argmaxes
    and ties agree bitwise now and after any common outcomes.  Each difference
    is linear in the outcomes, so a child's key is its parent's plus one step.
    When the fields do not fit, the rows only carry the previous target.
    """
    shifts, bits = _count_fields(stages)
    fits = bits <= KEY_BITS
    steps = np.repeat(np.arange(4, dtype=np.int64), 2)  # prev = cur
    if fits:
        fields = np.zeros((8, 5), dtype=np.int64)  # row 2 * cur + e: D_1, D_2, E_0..E_2
        for c in range(4):
            fields[2 * c, :2] = [_W[(h - c) % 4] - _W[-c % 4] for h in (1, 2)]
            fields[2 * c + 1, 2:] = np.eye(3, dtype=np.int64)[c] if c < 3 else -1
        steps += fields @ (np.int64(1) << np.array(shifts, dtype=np.int64))
    return steps, fits


def enumerate_detail(model: InferenceModel,
                     truth: TruthTables | None = None) -> EnumerationDetail:
    """Exact error probability, one layer of merged receiver states per bin.

    Each outcome history is weighted by its probability under the truth model
    while the posterior is propagated with the inference model, mirroring the
    receiver's actual feedback trajectory.  After bin i a history is fully
    described by its un-normalized log-posterior ``lp`` and previous target
    (the current target is the first-maximum argmax of ``lp``).  Children are
    merged on an int64 key into states whose per-symbol linear weights are
    summed in child order.  A child's key is its parent's plus one
    ``_count_steps`` row: the differences of the outcome counts that fix
    ``lp`` up to a constant vector, and the previous target.

    A state's index ``s = 4 * prev + cur`` picks its rows of four tables
    built once per point: the ``lp`` step ``[e, s, h]``, the truth probability
    of outcome e ``[m, e, s]`` (bin 0 reads ``[m, e, cur]``) and the key step
    ``[e, s]``, so each of ``lp``, the weights (four rows, one per symbol m)
    and the key takes one ``take`` and one op per layer; the e = 0 children
    come first.  The merge argsorts the keys once: a state is a run of equal
    sorted keys, its weights one ``np.bincount`` over (symbol, state) for all
    four rows, and its ``lp`` that of any of its children.

    ``lp`` sums are exact, so the children of a state hold ``lp`` rows that
    differ by an exact constant vector: the receiver's targets from then on,
    and its ties, which go to the lowest index as in Monte Carlo and in the
    2^M walk, do not depend on which child represents the state, and the
    weights never read ``lp``.  Only the weights' order of summation differs
    from that walk.  A row
    with a -inf in ``lp`` (the table has a zero likelihood) takes a
    ``_value_key`` instead, one ``np.lexsort`` of those rows alone, so dead
    hypotheses whose histories differ still merge; so does every row when the
    count fields do not fit in ``KEY_BITS``.  A layer of more than
    ``MAX_ENUM_STATES`` merged states raises ``ValueError``.
    """
    M = model.stages
    first, trans, loglik = point_tables(model, truth)
    cur_of = np.tile(np.arange(4), 4)  # s % 4 = cur, for tables that do not read prev
    step = _kernels.step_rows(loglik).reshape(4, 2, 4).swapaxes(0, 1)[:, cur_of]  # [e, s, h]
    p_bins = [np.stack((p, 1.0 - p), axis=1)  # [m, e, s]: truth prob. of outcome e
              for p in (first, trans.reshape(4, 16))]  # bin 0 reads s = cur
    count_steps, fits = _count_steps(M)
    # [e, s]: parent key (previous target in the low 2 bits) to child key
    cstep = count_steps.reshape(4, 2).T[:, cur_of] - np.repeat(np.arange(4), 4)
    dying = not fits or bool(np.isneginf(loglik).any())

    lp = np.zeros((1, 4))
    w = np.ones((4, 1))               # row m: linear weight of the state given symbol m
    ck = np.zeros(1, dtype=np.int64)  # merge key, prev in the low 2 bits
    s = cur = np.zeros(1, dtype=np.intp)  # receiver state 4 * prev + cur
    peak = 1
    for i in range(M):
        # children: every state's e = 0 child, then every e = 1 child
        lp = (lp + step.take(s, axis=1)).reshape(-1, 4)
        w = (w[:, None] * p_bins[i > 0].take(s, axis=2)).reshape(4, -1)
        ck = (ck + cstep.take(s, axis=1)).ravel()
        if dying:  # rows with a -inf in lp, or all rows when the fields do not fit
            dead = (lp @ _ONES == _NEG_INF) | (not fits)  # lp holds no +inf or nan
            ck[dead] = (1 << KEY_BITS) + _value_key(lp[dead], ck[dead] & 3)
        order = ck.argsort()
        ck = ck.take(order)
        new = np.empty(len(ck), dtype=bool)  # first child of a state in key order
        new[0] = True
        np.not_equal(ck[1:], ck[:-1], out=new[1:])
        group = np.empty_like(order)
        group[order] = new.cumsum()  # 1 + the child's state
        at = new.nonzero()[0]
        n = len(at)
        if n > MAX_ENUM_STATES:
            raise ValueError(f"enumeration: layer {i + 1} of {M} holds {n} merged "
                             f"states, over the budget of {MAX_ENUM_STATES}")
        # each state's weights summed in child order, all four rows in one pass
        w = np.bincount((group + (n * _ROWS - 1)).ravel(), weights=w.ravel(),
                        minlength=4 * n).reshape(4, n)
        # any child of a state will do: its merge key, and lp, whose rows
        # differ between the state's children by an exact constant vector, so
        # argmax and ties agree bitwise.  Where the value key ranks rows (a
        # table with a -inf), a finite row has no clicks or no no-clicks, so
        # equal count keys mean equal counts and equal lp.  lp starts at +0.0
        # and only adds logs of (0, 1] or -inf, so it has no -0.0 and
        # value-equal rows are bitwise equal
        lp, ck = lp.take(order.take(at), axis=0), ck.take(at)
        cur = lp.argmax(axis=1)
        s = (ck & 3) << 2
        s += cur
        peak = max(peak, n)

    per_symbol = 1.0 - np.array([w[k, cur == k].sum() for k in range(4)])
    return EnumerationDetail(
        error_prob=float(per_symbol.mean()),
        per_symbol_error=per_symbol,
        branch_totals=w.T.copy().sum(axis=0),  # a C-ordered (N, 4) copy, summed row by row
        peak_states=peak,
    )


def enumerate_error_probability(model: InferenceModel,
                                truth: TruthTables | None = None) -> float:
    """Exact average error probability (see ``enumerate_detail``)."""
    return enumerate_detail(model, truth).error_prob
