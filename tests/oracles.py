"""Test oracles: plain, independent copies of what the package computes.

- ``reference_trial``: one receiver trial, scalar, from a row of
  ``RngSpec.draws``; ``vector_recursion``: the same recursion vectorized
  over trials.  Both are bitwise oracles of ``_kernels.run_chunk``, which
  ``run_point`` calls on one point and ``stack_tables`` feeds a stack of.
- ``walk_enumeration``: all 2^M outcome histories, unmerged and expanded
  one bin at a time, the oracle of ``enumerate_detail``; ``decimal_enumeration``: the same walk with a
  60-digit log-posterior built without the package's log-likelihood table,
  the oracle of the tie rule; ``lexsort_enumeration``: the same
  merged-state dynamic program with the merge done by ``np.lexsort`` over
  differences of raw per-target outcome counts, its bitwise oracle; ``brute_force_error``: the ideal receiver from complex
  amplitudes, sharing no table with the package.
- ``off_probability_visibility``, ``off_prob_swing_discrete`` and
  ``qpsk_gram``: the click probability at any phase, the L-mode product of
  the delay model's swing segment and the dense Gram matrix;
  ``helstrom_decimal``: the Helstrom bound to 90 digits.

The receiver oracles follow the package's rule: the target is the first
maximum of the un-normalized log-posterior, so ties, and a history that
every hypothesis gives zero likelihood, go to the lowest index.
"""

import cmath
import decimal
import itertools
import math

import numpy as np

from qpskrx import _kernels
from qpskrx.bayes import EnumerationDetail, truth_from_inference


def log(p):
    return math.log(p) if p > 0.0 else -math.inf


def argmax4(values):
    """First index attaining the maximum of a 4-vector."""
    return max(range(4), key=values.__getitem__)


def truth_off_prob(first, trans, i, m, prev, target):
    """Truth no-click probability of symbol ``m`` in bin ``i``."""
    if i == 0:
        return first[(m - target) % 4]
    return trans[(m - prev) % 4][(target - prev) % 4]


def posterior_step(lp, target, e, loglik):
    """Log-posterior after outcome ``e`` at ``target``, and its new target."""
    lp = [lp[h] + loglik[e][(h - target) % 4] for h in range(4)]
    return lp, argmax4(lp)


def normalized(lp):
    """Posterior probabilities of a log-posterior with a finite maximum."""
    peak = max(lp)
    w = [math.exp(x - peak) for x in lp]
    total = math.fsum(w)
    return [x / total for x in w]


def reference_trial(symbol, truth, inference, uniforms):
    """One trial of ``symbol``, bin by bin: True when it is decided correctly.

    ``uniforms`` is the trial's row of ``RngSpec.draws``; a bin clicks when
    its uniform is not below the truth no-click probability.
    """
    loglik = inference.log_likelihood_table()
    lp, prev, target = [0.0] * 4, 0, 0
    for i, u in enumerate(uniforms):
        e = int(u >= truth_off_prob(truth.first, truth.trans, i, symbol, prev, target))
        prev = target
        lp, target = posterior_step(lp, target, e, loglik)
    return target == symbol


def stack_tables(points, symbol):
    """``_kernels.run_chunk``'s table arguments for a stack of points.

    ``points`` holds ``(first, trans, loglik, stages)`` per point: truth
    tables, inference log-likelihoods and stage count.  Returns ``(first,
    trans, loglik, stages)`` for the chunk's ``symbol``, the truth tables
    indexed by receiver target as ``truth_off_prob`` reads them.
    """
    return (np.array([[first[(symbol - cur) % 4] for cur in range(4)] for first, *_ in points]),
            np.array([[[trans[(symbol - prev) % 4, (cur - prev) % 4] for cur in range(4)]
                       for prev in range(4)] for _, trans, *_ in points]),
            np.array([loglik for *_, loglik, _ in points]),
            np.array([stages for *_, stages in points]))


def run_point(draws, first, trans, loglik, m_true):
    """``_kernels.run_chunk`` on one point: per-trial correctness mask.

    Same arguments as ``vector_recursion``; the point's stage count is the
    number of ``draws`` columns.
    """
    tables = stack_tables([(first, trans, loglik, draws.shape[1])], m_true)
    return _kernels.run_chunk(draws, *tables)[0] == m_true


def kernel_outcomes(inference, truth, symbol, trials, rng, chunk_size=1 << 16):
    """Per-trial correctness mask of ``symbol``, drawn and run chunk by chunk."""
    loglik = inference.log_likelihood_table()
    return np.concatenate([
        run_point(
            rng.draws(symbol, start, min(chunk_size, trials - start), inference.stages),
            truth.first, truth.trans, loglik, symbol)
        for start in range(0, trials, chunk_size)])


def vector_recursion(draws, first, trans, loglik, m_true):
    """The receiver's recursion run per trial, vectorized over trials.

    Every trial carries its own log-posterior ``lp`` (one IEEE add per bin
    and hypothesis) and re-targets to the first maximum of ``lp``.
    """
    n, stages = draws.shape
    hyp = np.arange(4)
    lp = np.zeros((n, 4))
    cur = np.zeros(n, dtype=np.intp)
    prev = np.zeros(n, dtype=np.intp)
    for i in range(stages):
        if i == 0:
            p_off = first[(m_true - cur) % 4]
        else:
            p_off = trans[(m_true - prev) % 4, (cur - prev) % 4]
        e = (draws[:, i] >= p_off).astype(np.intp)
        delta = (hyp[None, :] - cur[:, None]) % 4
        lp += loglik[e[:, None], delta]
        prev = cur
        cur = np.argmax(lp, axis=1)
    return cur == m_true


def walk_enumeration(model, truth=None):
    """Walk over every outcome history: (per-symbol error, branch totals).

    The posterior takes the receiver's adds of ``log_likelihood_table``
    entries, which are exact on its dyadic grid, so ties go to the lowest
    index as in ``enumerate_detail``; each history's weight is exp of its
    summed log-probabilities, and the weights are summed with ``math.fsum``.
    """
    return _walk(model, truth, model.log_likelihood_table(),
                 lambda lp: lp.argmax(axis=1), 0.0)


DECIMAL_DIGITS = 60
DECIMAL_TIE = decimal.Decimal("1e-40")


def decimal_enumeration(model, truth=None):
    """``walk_enumeration`` with a log-posterior exact to 60 digits.

    Reads no package log-likelihood table: the off log-likelihood is the
    exponent -(nu_b + 2 eta gamma^2 (1 - xi cos(delta pi/2))) and the on one
    log(1 - p_off), both in ``decimal`` from the model's parameters.
    Hypotheses within 1e-40 of the maximum tie and go to the lowest index:
    the documented rule, whatever the order of the adds.
    """
    D = decimal.Decimal
    with decimal.localcontext(decimal.Context(prec=DECIMAL_DIGITS)):
        stages = D(model.stages)
        gamma_sq, nu = D(model.alpha_sq) / stages, D(model.nu_per_state) / stages
        off = [-(nu + 2 * D(model.eta_total) * gamma_sq * (1 - D(model.xi) * cos))
               for cos in (1, 0, -1, 0)]
        ll = np.array([off, [(1 - x.exp()).ln() for x in off]], dtype=object)

        def argmax(lp):
            best = [max(row) - DECIMAL_TIE for row in lp]
            return np.array([next(h for h in range(4) if row[h] >= b)
                             for row, b in zip(lp, best)])

        return _walk(model, truth, ll, argmax, D(0))


def _walk(model, truth, ll, argmax, zero):
    """Per-symbol error and branch totals over all 2^M histories, unmerged.

    Each bin doubles the (history, hypothesis) array ``lp``, which starts at
    ``zero``: the receiver adds ``ll[e, (h - target) % 4]`` and retargets to
    ``argmax(lp)``, one target per row.  A history's log-probability per
    symbol sums ``math.log`` of the truth outcome probabilities in bin order.
    """
    if truth is None:
        truth = truth_from_inference(model)
    first, trans = truth.first.tolist(), truth.trans.tolist()
    # log_p[i][e, prev, cur, m]: bin 0 (which reads no prev) and every later bin
    log_p = [np.array([[[[log(1.0 - p if e else p)
                          for p in (truth_off_prob(first, trans, i, m, prev, cur)
                                    for m in range(4))]
                         for cur in range(4)] for prev in range(4)] for e in (0, 1)])
             for i in (0, 1)]
    hyp = np.arange(4)
    lp = np.full((1, 4), zero, dtype=ll.dtype)
    lb = np.zeros((1, 4))
    prev = cur = np.zeros(1, dtype=np.intp)
    for i in range(model.stages):
        step, delta = log_p[min(i, 1)], (hyp - cur[:, None]) % 4
        lp = np.concatenate([lp + ll[e][delta] for e in (0, 1)])
        lb = np.concatenate([lb + step[e, prev, cur] for e in (0, 1)])
        prev, cur = np.concatenate((cur, cur)), argmax(lp)
    weight = [list(map(math.exp, column)) for column in lb.T.tolist()]
    correct = [math.fsum(w for w, c in zip(weight[m], cur.tolist()) if c == m)
               for m in range(4)]
    return np.array([1.0 - c for c in correct]), np.array([math.fsum(w) for w in weight])


# W[delta]: the t's in the off entry o - W[delta] t of log_likelihood_table
W = (0, 1, 2, 1)


def lexsort_enumeration(model, truth=None, counts=True):
    """``enumerate_detail`` with states merged by one ``np.lexsort``.

    Each child carries its raw outcome counts n[c, e], per target c and
    outcome e.  A child whose ``lp`` is finite sorts on X_1 - X_0, X_2 - X_0,
    X_3 - X_0, where X_h = sum_c n[c, 0] W[(h - c) % 4], then n[c, 1] - n[3, 1]
    for c = 0, 1, 2, then prev: coordinates that fix ``lp`` up to a constant
    vector, and a state's ``lp`` is that of its first child in this order; a
    child with a -inf in ``lp`` (every child if ``counts`` is false) sorts
    after them on (lp0, lp1, lp2, lp3, prev).  A new state starts wherever a
    sorted row differs from the one before it, and the weights of each run
    are summed with ``np.bincount`` in child order.  The package must give the
    same states, weights and peak layer bit for bit.
    """
    if truth is None:
        truth = truth_from_inference(model)
    c, h = np.ix_(range(4), range(4))
    step = model.log_likelihood_table()[:, (h - c) % 4]  # step[e, cur, h]
    proj = np.array(W)[(h - c) % 4]                      # proj[c, h] = W[(h - c) % 4]
    p, c, m = np.ix_(range(4), range(4), range(4))
    p_off = truth.trans[(m - p) % 4, (c - p) % 4]        # p_off[prev, cur, m]
    outcome = np.eye(8, dtype=np.int64)                  # row 2 * cur + e
    lp = np.zeros((1, 4))
    w = np.ones((1, 4))
    n = np.zeros((1, 8), dtype=np.int64)                 # n[:, 2 * c + e]
    prev = np.zeros(1, dtype=np.int8)
    cur = np.zeros(1, dtype=np.int8)
    peak = 1
    for i in range(model.stages):
        p_t = truth.first[None, :] if i == 0 else p_off[prev, cur]
        lp = np.concatenate((lp + step[0, cur], lp + step[1, cur]))
        w = np.concatenate((w * p_t, w * (1.0 - p_t)))
        n = np.concatenate((n + outcome[2 * cur], n + outcome[2 * cur + 1]))
        prev = np.concatenate((cur, cur))
        dead = (np.isneginf(lp).any(axis=1) | (not counts))[:, None]
        x, clicks = n[:, 0::2] @ proj, n[:, 1::2]
        coords = np.column_stack((x[:, 1:] - x[:, :1], clicks[:, :3] - clicks[:, 3:]))
        rows = np.column_stack((dead, np.where(dead, 0, coords), np.where(dead, lp, 0.0),
                                prev))
        order = np.lexsort(rows.T[::-1])
        rows = rows[order]
        new = np.empty(len(order), dtype=bool)
        new[0] = True
        np.any(rows[1:] != rows[:-1], axis=1, out=new[1:])
        group = np.empty(len(order), dtype=np.intp)
        group[order] = np.cumsum(new) - 1
        size = int(new.sum())
        w = np.stack([np.bincount(group, weights=w[:, k], minlength=size)
                      for k in range(4)], axis=1)
        lp, n, prev = lp[order][new], n[order][new], prev[order][new]
        cur = lp.argmax(axis=1).astype(np.int8)
        peak = max(peak, size)
    per_symbol = 1.0 - np.array([w[cur == k, k].sum() for k in range(4)])
    return EnumerationDetail(float(per_symbol.mean()), per_symbol, w.sum(axis=0), peak)


def qpsk_amplitudes(alpha_sq):
    """The four coherent amplitudes |alpha| exp(i(2m+1)pi/4)."""
    return [math.sqrt(alpha_sq) * cmath.exp(1j * (2 * m + 1) * math.pi / 4)
            for m in range(4)]


def brute_force_error(alpha_sq, stages):
    """Ideal nulling receiver from complex amplitudes, p_off = exp(-|gamma_m - gamma_t|^2).

    Every history is replayed with probability-space likelihoods and the MAP
    target refreshed after each bin.  Ties may be settled differently by
    roundoff, so only the average error is comparable.
    """
    gammas = qpsk_amplitudes(alpha_sq / stages)
    error = 0.0
    for m_true in range(4):
        for bits in itertools.product((0, 1), repeat=stages):
            like = [1.0] * 4
            target = 0
            for e in bits:
                for h in range(4):
                    p_off = math.exp(-abs(gammas[h] - gammas[target]) ** 2)
                    like[h] *= 1.0 - p_off if e else p_off
                target = argmax4(like)
            if target != m_true:
                error += like[m_true] / 4
    return error


def _decimal_cos_sin(x):
    """cos x and sin x from the Taylor series of exp(ix) in the current decimal
    context: term n, (ix)^n / n!, is real for even n and imaginary for odd n."""
    parts, term, n = [0, 0], decimal.Decimal(1), 0
    while n <= x or parts[n % 2] + term != parts[n % 2]:
        parts[n % 2] += term if n % 4 < 2 else -term
        n += 1
        term = term * x / n
    return tuple(parts)


def helstrom_decimal(alpha_sq, digits=90):
    """Helstrom bound 1 - (sum of sqrt(lambda))^2 / 16 in ``digits``-digit decimal.

    lambda_j = sum_k c_k i^(jk) from the Gram row c_k = exp(a (i^k - 1)),
    a = ``alpha_sq``, with cos a and sin a from their Taylor series.
    """
    D = decimal.Decimal
    with decimal.localcontext(decimal.Context(prec=digits)):
        a = D(alpha_sq)
        cos, sin = _decimal_cos_sin(a)
        d = (-a).exp()
        # c_0 = 1, c_1 = d (cos a + i sin a), c_2 = d^2, c_3 = conj(c_1); i^(jk) by j
        lam = [1 + d * d + 2 * d * cos, 1 - d * d - 2 * d * sin,
               1 + d * d - 2 * d * cos, 1 - d * d + 2 * d * sin]
        return float(1 - sum(x.sqrt() for x in lam) ** 2 / 16)


def qpsk_gram(alpha_sq):
    """Dense Gram matrix <alpha_m|alpha_n> = exp(conj(alpha_m) alpha_n - |alpha|^2)."""
    a = np.array(qpsk_amplitudes(alpha_sq))
    return np.exp(np.outer(a.conj(), a) - alpha_sq)


def off_probability_visibility(theta, gamma_sq, ch, nu_per_bin=0.0):
    """No-click probability at any relative phase ``theta`` (library cosine)."""
    return math.exp(-(nu_per_bin
                      + 2.0 * ch.eta_total * (1.0 - ch.xi * math.cos(theta)) * gamma_sq))


def off_prob_swing_discrete(m, prev_target, new_target, gamma_sq, p, ch, L):
    """Swing segment as a product over L modes at equally spaced ramp phases."""
    span = (new_target - prev_target + 1) % 4 - 1  # signed minimal quarter turns
    gp_sq = ch.eta_total * (p.t_swing / p.t_bin) * gamma_sq / L
    theta = span * (math.pi / 2) * np.arange(L) / (L - 1)
    phase = ((m - prev_target) % 4) * math.pi / 2
    return math.exp((-2.0 * gp_sq * (1.0 - ch.xi * np.cos(theta - phase))).sum())
