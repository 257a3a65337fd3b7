"""Hot per-chunk trial kernel: a walk through the chunk's history trie.

The kernel consumes a pre-generated ``(n_trials, M)`` array of uniform
variates, one row per trial; a column-major array makes each bin's column
contiguous.  Trials that have seen the same outcome prefix are in the same
receiver state, so after bin i they share one node of a trie of outcome
prefixes.  Each bin's nodes are both children of every node of the bin
before, child ``2 * parent + outcome``, so per trial a bin only gathers its
node's no-click probability, compares it with the trial's uniform and
shifts in the outcome; the posterior update and the re-targeting run once
per node.  Only when the doubled table would pass ``MAX_NODES`` are the
nodes renumbered to the children that trials reached.  Each node's
un-normalized log-posterior ``lp`` is built from the same IEEE adds, in the
same order, as the receiver's per-trial recursion, and its target is the
first-maximum argmax of ``lp``, so outcomes (exact hypothesis ties
included) are bitwise those of the per-trial recursion.
"""

from __future__ import annotations

import numpy as np

# Node-table size above which a bin renumbers nodes to the live children.
MAX_NODES = 1024


def receiver_step(loglik: np.ndarray, trans: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-bin tables indexed by targets, shared by this kernel and the exact DP.

    ``step[e, cur, h]`` is the log-likelihood added to ``lp[h]`` when target
    ``cur`` sees outcome ``e`` (from ``loglik[e, (h - cur) % 4]``);
    ``p_off[prev, cur, m]`` is the truth no-click probability of symbol ``m``
    in bins >= 1 (from ``trans[(m - prev) % 4, (cur - prev) % 4]``).
    """
    hyp = np.arange(4)
    step = loglik[:, (hyp[None, :] - hyp[:, None]) % 4]
    p, c, m = np.ix_(hyp, hyp, hyp)
    return step, trans[(m - p) % 4, (c - p) % 4]


def run_chunk(draws: np.ndarray, first: np.ndarray, trans: np.ndarray,
              loglik: np.ndarray, m_true: int) -> np.ndarray:
    """Simulate one chunk of trials of symbol ``m_true``; per-trial correctness mask."""
    step, p_off_by_target = receiver_step(loglik, trans)
    step = step.reshape(8, 4)                   # row 4 * e + cur
    p_off_by_target = p_off_by_target[:, :, m_true % 4].ravel()  # entry 4 * prev + cur
    node = np.zeros(len(draws), dtype=np.intp)  # trie node of each trial
    lp = np.zeros((1, 4))                       # per node: un-normalized log-posterior
    cur = np.zeros(1, dtype=np.intp)            # per node: current target
    p_off = first[[m_true % 4]]                 # per node: truth no-click probability
    for u in draws.T:                           # uniforms of one bin, all trials
        click = u >= p_off[node]
        node += node                            # child node: 2 * parent + outcome
        node += click
        kids = np.arange(2 * len(lp))           # both children of every node
        if len(kids) > MAX_NODES:               # keep only the children trials reached
            index = np.empty_like(kids)
            kids = kids[np.bincount(node, minlength=len(kids)) > 0]
            index[kids] = np.arange(len(kids))
            node = index[node]
        parent, e = kids >> 1, kids & 1
        prev = cur.take(parent)
        lp = lp.take(parent, axis=0) + step.take(4 * e + prev, axis=0)
        cur = lp.argmax(axis=1)
        p_off = p_off_by_target.take(4 * prev + cur)
    return cur[node] == m_true
