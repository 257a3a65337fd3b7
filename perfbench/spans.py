"""In-memory span tracer and the per-layer arithmetic built on its spans.

The tracer wraps the names through which the CLI reaches each layer of
``qpskrx`` (see ``instrument``); the package source is not edited.  A span
records its name, start, end, thread and parent.  A span opened on a worker
thread that has no open span of its own is attributed to the span that is
open on the thread that created the tracer, which is the ``estimate_error``
call blocked on its thread pool.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    thread: int
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans in memory; ``span`` may be entered from any thread."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._stacks: dict[int, list[Span]] = {}
        self._caller = threading.get_ident()

    @contextmanager
    def span(self, name: str, **attrs):
        tid = threading.get_ident()
        with self._lock:
            stack = self._stacks.setdefault(tid, [])
            owner = stack or self._stacks.get(self._caller) or []
            parent = owner[-1].id if owner else None
            sp = Span(next(self._ids), parent, name, tid, 0.0, attrs=attrs)
            stack.append(sp)
            self.spans.append(sp)
        sp.start = time.perf_counter()
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            with self._lock:
                stack.pop()


def _wrap(tracer: Tracer, name: str, fn, attrs=None):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        with tracer.span(name, **(attrs(*args, **kwargs) if attrs else {})):
            return fn(*args, **kwargs)
    return traced


def _kernel_attrs(draws, first, trans, loglik, m_true):
    n, stages = draws.shape
    return {"trial_stages": n * stages,
            "bytes_in": draws.nbytes + first.nbytes + trans.nbytes + loglik.nbytes}


def _draws_attrs(rng, symbol, start_trial, n_trials, stages):
    uniforms = n_trials * 4 * ((stages + 3) // 4)
    return {"seed": rng.seed, "uniforms": uniforms, "bytes": 8 * uniforms}


def _enumerate_attrs(model, *args, **kwargs):
    return {"histories": 2 ** model.stages}


@contextmanager
def instrument(tracer: Tracer):
    """Route the CLI's calls into each layer through ``tracer``; undo on exit."""
    import qpskrx._kernels
    import qpskrx.bayes
    import qpskrx.cli
    import qpskrx.montecarlo

    targets = [
        (qpskrx._kernels, "run_chunk", "kernels.run_chunk", _kernel_attrs),
        (qpskrx.montecarlo.RngSpec, "draws", "montecarlo.draws", _draws_attrs),
        (qpskrx.montecarlo, "truth_from_inference", "bayes.truth_tables", None),
        (qpskrx.bayes, "truth_from_inference", "bayes.truth_tables", None),
        (qpskrx.bayes.InferenceModel, "log_likelihood_table", "bayes.truth_tables", None),
        (qpskrx.cli, "estimate_error", "montecarlo.estimate_error", None),
        (qpskrx.cli, "enumerate_error_probability", "bayes.enumerate", _enumerate_attrs),
        (qpskrx.cli, "render_csv", "cli.render_csv", None),
    ]
    with ExitStack() as undo:
        for owner, attr, name, attrs in targets:
            original = getattr(owner, attr)
            setattr(owner, attr, _wrap(tracer, name, original, attrs))
            undo.callback(setattr, owner, attr, original)
        yield tracer


def union_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals)
    total, cur_a, cur_b = 0.0, None, None
    for a, b in clipped:
        if b <= a:
            continue
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def children_of(spans) -> dict[int, list[Span]]:
    out: dict[int, list[Span]] = {}
    for sp in spans:
        if sp.parent is not None:
            out.setdefault(sp.parent, []).append(sp)
    return out


def self_time(span: Span, children: dict[int, list[Span]]) -> float:
    """Span duration minus the part covered by its children on any thread."""
    kids = children.get(span.id, [])
    return span.duration - union_length([(c.start, c.end) for c in kids],
                                        span.start, span.end)


def layer_metrics(spans, workers: int) -> dict[str, float]:
    """Per-layer counts and times for the spans of one traced batch."""
    children = children_of(spans)
    by_name: dict[str, list[Span]] = {}
    for sp in spans:
        by_name.setdefault(sp.name, []).append(sp)

    def named(name):
        return by_name.get(name, [])

    def busy(name):
        return sum(sp.duration for sp in named(name))

    def total(name, key):
        return sum(sp.attrs[key] for sp in named(name))

    kernel_busy = busy("kernels.run_chunk")
    trial_stages = total("kernels.run_chunk", "trial_stages")
    estimates = named("montecarlo.estimate_error")
    est_busy = busy("montecarlo.estimate_error")
    child_busy = sum(c.duration for sp in estimates for c in children.get(sp.id, []))
    return {
        "kernels.run_chunk.calls": len(named("kernels.run_chunk")),
        "kernels.run_chunk.busy_s": kernel_busy,
        "kernels.run_chunk.trial_stages": trial_stages,
        "kernels.run_chunk.trial_stages_per_s":
            trial_stages / kernel_busy if kernel_busy > 0 else 0.0,
        "kernels.run_chunk.bytes_in": total("kernels.run_chunk", "bytes_in"),
        "montecarlo.draws.calls": len(named("montecarlo.draws")),
        "montecarlo.draws.busy_s": busy("montecarlo.draws"),
        "montecarlo.draws.uniforms": total("montecarlo.draws", "uniforms"),
        "montecarlo.draws.bytes": total("montecarlo.draws", "bytes"),
        "montecarlo.estimate_error.calls": len(estimates),
        "montecarlo.estimate_error.busy_s": est_busy,
        "montecarlo.estimate_error.self_s":
            sum(self_time(sp, children) for sp in estimates),
        "montecarlo.parallel_eff":
            child_busy / (workers * est_busy) if est_busy > 0 else 0.0,
        "bayes.truth_tables.calls": len(named("bayes.truth_tables")),
        "bayes.truth_tables.busy_s": busy("bayes.truth_tables"),
        "bayes.enumerate.calls": len(named("bayes.enumerate")),
        "bayes.enumerate.busy_s": busy("bayes.enumerate"),
        "bayes.enumerate.histories": total("bayes.enumerate", "histories"),
        "cli.run.self_s": sum(self_time(sp, children) for sp in named("cli.run")),
        "cli.render_csv.busy_s": busy("cli.render_csv"),
    }
