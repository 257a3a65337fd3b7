"""Hot per-chunk trial kernel: a walk through a forest of history tries.

The kernel consumes a pre-generated ``(n_trials, top)`` array of uniform
variates, one row per trial (column-major, so each bin's column is
contiguous), shared by a stack of points of any stage counts.  Each point roots
its own trie of outcome prefixes: trials with the same prefix are in the
same receiver state, so after bin i they share one node, child ``2 * parent
+ outcome`` of the bin before.  Per (point, trial) a bin only gathers its
node's no-click probability, compares it with the uniform and shifts in the
outcome; the posterior update and re-targeting run once per node, for all
points in one array op.  Points come longest first, so a point that ends
drops off the end of the rows, its final targets written in place.  Nodes
are renumbered to the children trials reached only when the doubled table
would pass ``MAX_NODES`` per live point.  Each node's log-posterior ``lp``
is built from the same IEEE adds, in the same order, as the receiver's
per-trial recursion, and its target is the first-maximum argmax, so
outcomes are bitwise those of that recursion.  The adds are exact (the
log-likelihoods lie on ``bayes.InferenceModel.log_likelihood_table``'s
dyadic grid), so hypotheses that tie in real arithmetic tie bitwise and go
to the lowest index.  Both estimators read their tables from one builder,
``bayes.grid_tables``, which stacks a grid's points longest first.
"""

from __future__ import annotations

import numpy as np

# Node-table size per live point above which a bin renumbers nodes to the live children.
MAX_NODES = 1024
# (point, trial) rows per kernel call; a call stacks at most this many.
STACK_TRIALS = 1 << 16
# ROLL[cur, h] = (h - cur) % 4: the phase of hypothesis h relative to target cur
ROLL = (np.arange(4)[None, :] - np.arange(4)[:, None]) % 4


def step_rows(loglik: np.ndarray) -> np.ndarray:
    """Rows ``2 * (4 * point + cur) + e`` of ``loglik[..., e, (h - cur) % 4]`` by ``h``:
    the log-likelihoods added to ``lp`` when target ``cur`` sees outcome ``e``."""
    return loglik[..., ROLL].swapaxes(-3, -2).reshape(-1, 4)


def run_chunk(draws: np.ndarray, first: np.ndarray, trans: np.ndarray,
              loglik: np.ndarray, stages: np.ndarray) -> np.ndarray:
    """Walk P points of one symbol over the shared ``(n, top)`` draws; final targets (P, n).

    Point p reads the first ``stages[p]`` columns; ``stages`` must not increase.
    ``first[p]`` and ``trans[p]`` are its ``bayes.grid_tables`` truth tables for
    the chunk's symbol, ``loglik[p]`` its (2, 4) log-likelihood table.
    """
    ends = stages.tolist()
    if ends != sorted(ends, reverse=True):
        raise ValueError(f"stages must not increase, got {ends}")
    first, trans = first.ravel(), trans.ravel()  # [4*point + cur], [4*(4*point + prev) + cur]
    step = step_rows(loglik)                    # row 2 * (4 * point + cur) + e
    out = node = np.empty((len(ends), len(draws)), dtype=np.intp)  # node per (point, trial)
    node[:] = np.arange(len(ends))[:, None]     # point p starts at its root, node p
    lp = np.zeros((len(ends), 4))               # per node: un-normalized log-posterior
    key = 4 * np.arange(len(ends))              # per node: 4 * point + current target
    p_off = first.take(key)                     # per node: truth no-click probability
    for i in range(ends[0]):
        click = draws[:, i] >= p_off.take(node)  # one bin's uniforms, broadcast over points
        node += node                            # child node: 2 * parent + outcome
        node += click
        kids = np.arange(2 * len(lp))           # both children of every node
        if len(kids) > MAX_NODES * len(node):   # keep only the children trials reached
            index = np.empty_like(kids)
            kids = kids[np.bincount(node.ravel(), minlength=len(kids)) > 0]
            index[kids] = np.arange(len(kids))
            node[:] = index.take(node)
        parent = kids >> 1
        pk = key.take(parent)                   # 4 * point + prev
        lp = lp.take(parent, axis=0) + step.take(2 * pk + (kids & 1), axis=0)
        cur = lp.argmax(axis=1)
        p_off = trans.take(4 * pk + cur)
        key = (pk & -4) + cur
        live = len(node) - ends.count(i + 1)    # rows from ``live`` on end at this bin
        if live < len(node):
            node[live:] = cur.take(node[live:])
            node = node[:live]
    return out
