"""Bayesian feedback engine: posterior recursion, MAP policy, exact enumeration.

The receiver splits the signal into M bins.  Each bin, the current MAP
hypothesis is displaced to vacuum; the detector outcome multiplies the
posterior by the per-bin likelihood and the MAP target is refreshed.  Because
everything is phase-covariant, likelihoods depend only on the index difference
``delta = (m - target) mod 4`` and can be tabulated once per model.  Both
estimators read a grid's tables from one builder, ``grid_tables``, stacked
longest first in one layout.

``enumerate_points`` is the exact answer the Monte Carlo engine is checked
against, for a whole grid of points in one pass (``enumerate_detail`` is its
one-point call).  It is a dynamic program with one layer per bin: outcome
histories that leave the receiver in the same state (the differences of the
outcome counts the log-posterior depends on, which fix it up to a constant
vector, and the previous target) are merged on one int64 key, so a layer
holds a few thousand states per point at M=16 where a plain walk visits 2^M
histories.  The key also carries the point, longest first, so the points'
states are stacked in one set of arrays and a point that ends drops off
their end.  A state is indexed by ``16 * point + 4 * prev + cur`` into the
points' stacked tables of log-likelihood steps, truth outcome probabilities
and key steps; a layer's children are grouped by one sort of their keys.
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
from dataclasses import dataclass, field, replace

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


def grid_tables(points) -> tuple[list[int], np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The one table builder both estimators read: the ``(inference, truth)``
    points (truth None: the matched one) stacked longest first, equal M in the
    given order.

    Returns that order, the stage counts, the truth no-click probabilities by
    symbol and target, ``first [p, m, cur]`` in bin 0 and ``trans [p, m, prev,
    cur]`` in later bins, and each model's ``log_likelihood_table``,
    ``loglik [p, e, delta]``.
    """
    order = sorted(range(len(points)), key=lambda j: -points[j][0].stages)
    models = [points[j][0] for j in order]
    truths = [points[j][1] or truth_from_inference(model) for j, model in zip(order, models)]
    if any(truth.stages != model.stages for model, truth in zip(models, truths)):
        raise ValueError("truth model stage count must match the inference model")
    roll = _kernels.ROLL  # roll[a, b] = (b - a) % 4
    return (order, np.array([model.stages for model in models], dtype=np.int64),
            np.reshape([t.first for t in truths], (-1, 4))[:, roll.T],
            np.reshape([t.trans for t in truths], (-1, 4, 4))[:, roll.T[:, :, None], roll],
            np.reshape([model.log_likelihood_table() for model in models], (-1, 2, 4)))


# Merged states a layer of one exact DP pass may hold, over all of its points (the
# experimental condition at |alpha|^2 = 3 peaks at 41,696 states at M=50 and
# 184,674 at M=100).
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


# Bits one point's count key may fill (M <= 1023).  A pass packs its point
# index above its points' keys, all below 2^PASS_BITS, so that a child's key,
# its parent's plus one step, stays inside an int64.
KEY_BITS = 61
PASS_BITS = 62
# W[delta]: the t's in the off log-likelihood o - W[delta] t (log_likelihood_table)
_W = (0, 1, 2, 1)
_ONES = np.ones(4)


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
    """``[e, s]``: what outcome e in receiver state ``s = 4 * prev + cur`` adds to the
    count key, and whether the key's fields fit in ``KEY_BITS`` (M <= 1023).

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
    When the fields do not fit, the steps only carry the previous target.
    """
    shifts, bits = _count_fields(stages)
    fits = bits <= KEY_BITS
    steps = np.zeros((2, 4), dtype=np.int64)  # [e, cur]
    if fits:
        fields = np.zeros((2, 4, 5), dtype=np.int64)  # [e, cur]: D_1, D_2, E_0..E_2
        for c in range(4):
            fields[0, c, :2] = [_W[(h - c) % 4] - _W[-c % 4] for h in (1, 2)]
            fields[1, c, 2:] = np.eye(3, dtype=np.int64)[c] if c < 3 else -1
        steps = fields @ (np.int64(1) << np.array(shifts, dtype=np.int64))
    s = np.arange(16, dtype=np.int64)
    return steps[:, s % 4] + s % 4 - s // 4, fits  # the low 2 bits go from prev to cur


def _key_shift(stages: int, fits: bool, dying: bool) -> int:
    """B: in a pass whose longest point has ``stages`` bins, every key of point k
    lies in [2^B k - 2^(B-1), 2^B k + 2^(B-1)).

    Count keys lie in (-2^(bits-1), 2^(bits-1)) (``_count_fields``; [0, 4) when
    they hold prev alone).  A ``dying`` pass adds value keys 2^(B-2) + 4 rank +
    prev above them: a layer holds at most 2 ``MAX_ENUM_STATES`` children, so
    4 rank + prev stays below 8 ``MAX_ENUM_STATES``.
    """
    bits = _count_fields(stages)[1] if fits else 3
    return max(bits, (8 * MAX_ENUM_STATES).bit_length() + 1) + 1 if dying else bits


def _passes(grid: tuple) -> list[range]:
    """Runs of ``grid_tables``' stack ``grid``, one per pass: a pass grows while its
    points agree on whether their count fields fit and its point index and keys
    fit in ``PASS_BITS``; a point always fits a pass of its own.  A point takes
    value keys where its fields do not fit or its table holds a -inf."""
    _, stages, _, _, loglik = grid
    passes, neginf = [], np.isneginf(loglik).any(axis=(1, 2)).tolist()
    for j, m in enumerate(stages.tolist()):
        fits = _count_fields(m)[1] <= KEY_BITS
        if passes and fits == head[1] and len(passes[-1]).bit_length() + _key_shift(
                *head, dying or neginf[j]) <= PASS_BITS:
            passes[-1] = range(passes[-1].start, j + 1)
            dying |= neginf[j]
        else:
            passes.append(range(j, j + 1))
            head, dying = (m, fits), neginf[j] or not fits
    return passes


def _sort(keys: np.ndarray, bits: int) -> tuple[np.ndarray, np.ndarray]:
    """The order that sorts ``keys``, each below 2^bits in magnitude, and the sorted
    keys; ``keys`` is overwritten.

    Where the child index fits below the keys in an int64, one value sort of
    ``keys * 2^b + index`` gives both (ties in child order, about half the
    time of an argsort); wider keys take an argsort.
    """
    b = (len(keys) - 1).bit_length()
    if bits + b > 63:
        order = keys.argsort()
        return order, keys.take(order)
    keys <<= b
    keys |= np.arange(len(keys))
    keys.sort()
    order = keys & ((1 << b) - 1)
    keys >>= b
    return order, keys


def _first_argmax(lp: np.ndarray) -> np.ndarray:
    """``lp.argmax(axis=1)`` of an (N, 4) ``lp`` without nan, by comparing columns:
    the first maximum of each pair, then of the two pairs' maxima."""
    lp0, lp1, lp2, lp3 = lp.T
    return np.where(np.maximum(lp2, lp3) > np.maximum(lp0, lp1), 2 + (lp3 > lp2), lp1 > lp0)


def _sum_weights(w: np.ndarray, order: np.ndarray, new: np.ndarray, n: int) -> np.ndarray:
    """Each of the ``n`` states' weights, row m of ``w`` summed over its children
    in child order: ``order`` sorts the children, and ``new`` marks each
    state's first child in that order."""
    state = np.empty_like(order)
    state[order] = new.cumsum()
    state -= 1
    out = np.empty((len(w), n))
    for m, row in enumerate(w):
        out[m] = np.bincount(state, weights=row, minlength=n)
    return out


def _detail(w: np.ndarray, cur: np.ndarray, peak: int) -> EnumerationDetail:
    """A point's result from its last layer: its states' weights and targets."""
    per_symbol = 1.0 - np.array([w[k, cur == k].sum() for k in range(4)])
    return EnumerationDetail(
        error_prob=float(per_symbol.mean()),
        per_symbol_error=per_symbol,
        branch_totals=w.cumsum(axis=1)[:, -1].copy(),  # not a view that keeps the cumsum
        peak_states=peak,
    )


@dataclass
class _Pass:
    """The points of one pass, longest first, and their merged states after
    ``layer`` bins: a state's row of ``lp``, column of ``w`` (row m: its linear
    weight given symbol m), key ``ck`` and target ``cur``.  Point k's keys lie
    in [2^B k - 2^(B-1), 2^B k + 2^(B-1)), B = ``shift``, so its states are the
    run of the sorted keys from ``starts[k]`` on.  ``tables`` holds, by state
    index ``t = 16 k + 4 prev + cur``, the ``lp`` step ``[e, t, h]``, the truth
    probability of outcome e ``[m, e, t]`` in bin 0 and in later bins, and the
    key step ``[e, t]``.  Every key lies below 2^``key_bits`` in magnitude."""

    slots: list[int]
    stages: list[int]
    peak: np.ndarray
    tables: tuple[np.ndarray, ...]
    shift: int
    starts: np.ndarray
    key_bits: int
    dying: bool
    fits: bool
    layer: int
    lp: np.ndarray
    w: np.ndarray
    ck: np.ndarray
    cur: np.ndarray

    @classmethod
    def start(cls, grid: tuple, group: range) -> _Pass:
        """The roots of the points ``group`` of ``grid_tables``' stack ``grid``: one
        state each, targeting 0 with prev = 0."""
        slots, stages, first, trans, loglik = (x[group.start:group.stop] for x in grid)
        k = len(slots)
        stages = stages.tolist()
        count_steps = {m: _count_steps(m) for m in set(stages)}  # one per M
        fits = count_steps[stages[0]][1]  # the points of a pass agree
        dying = not fits or bool(np.isneginf(loglik).any())
        shift = _key_shift(stages[0], fits, dying)
        p_off = np.stack((np.tile(first, 4), trans.reshape(k, 4, 16)))  # [bin > 0, k, m, s]
        tables = (np.tile(loglik[:, :, _kernels.ROLL], (4, 1)).swapaxes(0, 1).reshape(2, -1, 4),
                  *np.stack((p_off, 1.0 - p_off), axis=3).transpose(0, 2, 3, 1, 4)
                  .reshape(2, 4, 2, -1),
                  np.stack([count_steps[m][0] for m in stages], axis=1).reshape(2, -1))
        starts = (np.arange(k + 1, dtype=np.int64) << shift) - (1 << (shift - 1))
        return cls(slots, stages, np.ones(k, dtype=np.int64), tables,
                   shift, starts, (k - 1).bit_length() + shift, dying, fits, 0,
                   np.zeros((k, 4)), np.ones((4, k)), np.arange(k, dtype=np.int64) << shift,
                   np.zeros(k, dtype=np.intp))

    def split(self, at: int, cut: int) -> _Pass:
        """Points ``at`` on, whose states start at ``cut``, renumbered from 0, to
        resume from this layer; this pass keeps the points before them."""
        step, p_first, p_trans, cstep = self.tables
        tail = replace(self, slots=self.slots[at:], stages=self.stages[at:], peak=self.peak[at:],
                       tables=(step[:, 16 * at:], p_first[..., 16 * at:],
                               p_trans[..., 16 * at:], cstep[:, 16 * at:]),
                       lp=self.lp[cut:], w=self.w[:, cut:], ck=self.ck[cut:] - (at << self.shift),
                       cur=self.cur[cut:])
        self.truncate(at, cut)
        return tail

    def truncate(self, at: int, cut: int) -> None:
        """Keep the first ``at`` points, whose states end before ``cut``."""
        self.slots, self.stages, self.peak = self.slots[:at], self.stages[:at], self.peak[:at]
        self.lp, self.w, self.ck, self.cur = (self.lp[:cut], self.w[:, :cut], self.ck[:cut],
                                              self.cur[:cut])

    def run(self, pending: list[_Pass], details: list) -> None:
        """Layer by layer until each point has its detail; a layer over
        ``MAX_ENUM_STATES`` leaves its trailing points to ``pending``."""
        while True:
            k = len(self.slots)
            bounds = np.searchsorted(self.ck, self.starts[:k + 1])
            counts = bounds[1:] - bounds[:-1]
            if len(self.ck) > MAX_ENUM_STATES:
                k = int(np.searchsorted(counts.cumsum(), MAX_ENUM_STATES, side="right"))
                if not k:
                    raise ValueError(f"enumeration: layer {self.layer} of {self.stages[0]} "
                                     f"holds {counts[0]} merged states, over the budget "
                                     f"of {MAX_ENUM_STATES}")
                pending.append(self.split(k, bounds[k]))
                counts = counts[:k]
            np.maximum(self.peak, counts, out=self.peak)
            live = k - self.stages.count(self.layer)  # the points that end here come last
            for j in range(live, k):
                details[self.slots[j]] = _detail(self.w[:, bounds[j]:bounds[j + 1]],
                                                 self.cur[bounds[j]:bounds[j + 1]],
                                                 int(self.peak[j]))
            if not live:
                return
            if live < k:
                self.truncate(live, bounds[live])
                counts = counts[:live]
            s = np.repeat(np.arange(0, 16 * live, 16), counts)  # 16 k + 4 prev + cur
            s += (self.ck & 3) << 2
            s += self.cur
            self.expand(s)
            self.merge()

    def expand(self, s: np.ndarray) -> None:
        """Replace every state, of state index ``s``, by its two children: every
        e = 0 child, then every e = 1 child."""
        step, p_first, p_trans, cstep = self.tables
        lp = step.take(s, axis=1)
        lp += self.lp
        w = (p_trans if self.layer else p_first).take(s, axis=2)
        w *= self.w[:, None]
        ck = cstep.take(s, axis=1)
        ck += self.ck
        self.lp, self.w, self.ck = lp.reshape(-1, 4), w.reshape(4, -1), ck.ravel()
        if self.dying:  # rows with a -inf in lp, or all rows when the fields do not fit
            dead = (self.lp @ _ONES == _NEG_INF) | (not self.fits)  # lp holds no +inf or nan
            self.ck[dead] = (np.tile(s >> 4, 2)[dead] << self.shift) + (
                (1 << (self.shift - 2)) + _value_key(self.lp[dead], self.ck[dead] & 3))

    def merge(self) -> None:
        """Merge the children into the next layer's states, in key order."""
        order, ck = _sort(self.ck, self.key_bits)
        new = np.empty(len(ck), dtype=bool)  # first child of a state in key order
        new[0] = True
        np.not_equal(ck[1:], ck[:-1], out=new[1:])
        at = new.nonzero()[0]
        # any child of a state will do: its merge key, and lp, whose rows
        # differ between the state's children by an exact constant vector, so
        # argmax and ties agree bitwise.  Where the value key ranks rows (a
        # table with a -inf), a finite row has no clicks or no no-clicks, so
        # equal count keys mean equal counts and equal lp.  lp starts at +0.0
        # and only adds logs of (0, 1] or -inf, so it has no -0.0 and
        # value-equal rows are bitwise equal
        self.lp, self.ck = self.lp.take(order.take(at), axis=0), ck.take(at)
        self.w = _sum_weights(self.w, order, new, len(at))
        self.cur = _first_argmax(self.lp)
        self.layer += 1


def enumerate_points(points) -> list[EnumerationDetail]:
    """Exact error probability of each ``(inference, truth)`` point (truth None:
    the matched one), one layer of merged receiver states per bin, every point
    of the grid in one pass.

    Each outcome history is weighted by its probability under the truth model
    while the posterior is propagated with the inference model, mirroring the
    receiver's actual feedback trajectory.  After bin i a history is fully
    described by its un-normalized log-posterior ``lp`` and previous target
    (the current target is the first-maximum argmax of ``lp``).  Children are
    merged on an int64 key into states whose per-symbol linear weights are
    summed in child order.  A child's key is its parent's plus one
    ``_count_steps`` entry: the differences of the outcome counts that fix
    ``lp`` up to a constant vector, and the previous target.

    The points are stacked longest first (``grid_tables``, called once); point
    k's key carries 2^B k above its own key (``_key_shift``), so a merge never
    crosses points and the sorted states are point-major.  A state's index
    ``16 k + 4 prev + cur`` picks its rows of four tables that each pass lays
    out once from its run of the stack (``_Pass.start``), so
    each of ``lp``, the weights (four rows, one per symbol m) and the key
    takes one ``take`` and one in-place op per layer, whatever the number of
    points; the e = 0 children come first.  The merge sorts the keys once
    (``_sort``): a state is a run of equal sorted keys, its weights one
    ``np.bincount`` per symbol row, and its ``lp`` that of any of its
    children.  A point whose M has ended drops off the end of every array;
    its result is cut from its own run of states.  Within a point, the
    children and states come in the order of a pass of that point alone, so
    every result is bitwise that of ``enumerate_detail`` of the point.

    ``lp`` sums are exact, so the children of a state hold ``lp`` rows that
    differ by an exact constant vector: the receiver's targets from then on,
    and its ties, which go to the lowest index as in Monte Carlo and in the
    2^M walk, do not depend on which child represents the state, and the
    weights never read ``lp``.  Only the weights' order of summation differs
    from that walk.  A row with a -inf in ``lp`` (the table has a zero
    likelihood) takes a ``_value_key`` instead, one ``np.lexsort`` of those
    rows alone, so dead hypotheses whose histories differ still merge; so
    does every row when the count fields do not fit in ``KEY_BITS``.

    A layer of a pass may hold ``MAX_ENUM_STATES`` merged states over all its
    points.  Past that, the pass splits at a point boundary, and its trailing
    points resume from that layer later; a point that alone holds more raises
    ``ValueError``.  Points whose index and keys would not fit together in
    ``PASS_BITS`` go to further passes.
    """
    grid = grid_tables(points)
    details = [None] * len(points)
    pending = [_Pass.start(grid, group) for group in _passes(grid)]
    while pending:
        pending.pop().run(pending, details)
    return details


def enumerate_detail(model: InferenceModel,
                     truth: TruthTables | None = None) -> EnumerationDetail:
    """Exact error probability of one point: ``enumerate_points`` of it alone."""
    return enumerate_points([(model, truth)])[0]


def enumerate_error_probability(model: InferenceModel,
                                truth: TruthTables | None = None) -> float:
    """Exact average error probability (see ``enumerate_detail``)."""
    return enumerate_detail(model, truth).error_prob
