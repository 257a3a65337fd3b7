"""The benchmark's workloads and the per-point correctness oracle.

Every workload runs the default experimental condition through
``qpskrx.cli.run``.  The oracle runs outside the timed region:

* every point must satisfy p >= Helstrom(eta_eff * alpha^2), Monte Carlo
  points within ``Z_MAX`` standard errors;
* Monte Carlo points with M <= ``EXACT_MAX_M`` must lie within
  ``Z_MAX`` standard errors of exact enumeration;
* ``enumerate`` points must match the stored references to ``ENUM_TOL``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

from qpskrx.bayes import enumerate_error_probability
from qpskrx.bounds import helstrom_qpsk
from qpskrx.cli import matched_inference
from qpskrx.config import RunConfig, load_config

EXACT_MAX_M = 14
Z_MAX = 5.0
ENUM_TOL = 1e-12
REFERENCE_FILE = Path(__file__).with_name("reference_enumerate_m16.json")


# name -> (CLI mode, config overrides); why each was chosen is in BENCHMARK.json.
# The sizes keep one batch near 4 s on a 2-core machine (numpy kernel).
# ``stages-m3-30`` keeps 5e4 trials per call so that its calls stay short and
# parallel; ``enumerate-m16`` grows by points, never by M (capped at 20).
WORKLOADS = {
    "sweep-m10": ("sweep", {
        "m": 10, "alpha_sq_start": 0.25, "alpha_sq_stop": 12.0,
        "alpha_sq_points": 12, "alpha_sq_spacing": "linear",
        "trials": 200_000, "workers": 1}),
    "stages-m3-30": ("stages-sweep", {
        "alpha_sq": 4.0, "m_start": 3, "m_stop": 30, "trials": 50_000,
        "workers": 2}),
    "enumerate-m16": ("enumerate", {
        "m": 16, "alpha_sq_start": 0.25, "alpha_sq_stop": 12.0,
        "alpha_sq_points": 5, "alpha_sq_spacing": "linear"}),
}


def make_config(name: str, seed: int) -> RunConfig:
    """The workload's configuration; ``seed`` is the Monte Carlo seed."""
    mode, overrides = WORKLOADS[name]
    return load_config(None, {**overrides, "seed": seed}, mode=mode)


@dataclass(frozen=True)
class Point:
    """One estimated error probability and the model that produced it."""

    label: str
    model: object
    error_prob: float
    stderr: float | None  # None for exact points


def points(cfg: RunConfig, rows: list[dict]) -> list[Point]:
    if cfg.mode == "sweep":
        return [Point(f"alpha_sq={r['alpha_sq']!r}",
                      matched_inference(cfg, r["alpha_sq"]),
                      r["error_prob"], r["stderr"]) for r in rows]
    if cfg.mode == "stages-sweep":
        out = []
        for r in rows:
            for suffix, discard in (("no_discard", False), ("discard", True)):
                out.append(Point(
                    f"m={r['m']} {suffix}",
                    matched_inference(cfg, cfg.alpha_sq, m=r["m"],
                                      include_discard=discard),
                    r[f"error_prob_{suffix}"], r[f"stderr_{suffix}"]))
        return out
    if cfg.mode == "enumerate":
        return [Point(f"alpha_sq={r['alpha_sq']!r}",
                      matched_inference(cfg, r["alpha_sq"]),
                      r["error_prob"], None) for r in rows]
    raise ValueError(f"no oracle for mode {cfg.mode!r}")


def expected_points(cfg: RunConfig) -> int:
    if cfg.mode == "stages-sweep":
        return 2 * (cfg.m_stop - cfg.m_start + 1)
    return cfg.alpha_sq_points


def zero_error_stderr(trials: int) -> float:
    """Binomial standard error at the 95% upper bound when no error was seen.

    With zero errors in ``trials`` the reported stderr is 0; this floor is the
    stderr at the Clopper-Pearson upper limit 1 - 0.05**(1/trials).
    """
    p_up = 1.0 - 0.05 ** (1.0 / trials)
    return math.sqrt(p_up * (1.0 - p_up) / trials)


class Oracle:
    """Checks points; exact values are cached per model across batches."""

    def __init__(self, cfg: RunConfig):
        self.cfg = cfg
        self._exact: dict = {}
        self._reference = None
        self.max_z = 0.0  # largest |p - exact| / stderr seen
        if cfg.mode == "enumerate":
            ref = json.loads(REFERENCE_FILE.read_text())
            if ref["m"] != cfg.m or len(ref["alpha_sq"]) != cfg.alpha_sq_points:
                raise ValueError(f"{REFERENCE_FILE.name} does not describe this grid")
            self._reference = list(zip(ref["alpha_sq"], ref["error_prob"]))

    def exact(self, model) -> float:
        if model not in self._exact:
            self._exact[model] = enumerate_error_probability(model)
        return self._exact[model]

    def failures(self, rows: list[dict]) -> list[str]:
        """One message per failing point; empty when every point passes."""
        out = []
        for i, pt in enumerate(points(self.cfg, rows)):
            msg = self._check(i, pt)
            if msg:
                out.append(f"{pt.label}: {msg}")
        return out

    def _check(self, i: int, pt: Point) -> str | None:
        model = pt.model
        p = pt.error_prob
        if not math.isfinite(p) or not 0.0 <= p <= 1.0:
            return f"error_prob {p!r} is not a probability"
        sigma = 0.0
        if pt.stderr is not None:
            sigma = pt.stderr if pt.stderr > 0.0 else zero_error_stderr(self.cfg.trials)
        hel = helstrom_qpsk(model.eta_total * model.alpha_sq)
        if p + Z_MAX * sigma < hel:
            return f"error_prob {p!r} below Helstrom bound {hel!r}"
        if self._reference is not None:
            alpha_ref, p_ref = self._reference[i]
            if not math.isclose(model.alpha_sq, alpha_ref, rel_tol=1e-15, abs_tol=0.0):
                return f"alpha_sq differs from reference {alpha_ref!r}"
            if abs(p - p_ref) > ENUM_TOL:
                return f"error_prob {p!r} differs from reference {p_ref!r}"
        elif sigma > 0.0 and model.stages <= EXACT_MAX_M:
            exact = self.exact(model)
            z = abs(p - exact) / sigma
            self.max_z = max(self.max_z, z)
            if z > Z_MAX:
                return f"error_prob {p!r} is {z:.2f} stderr from exact {exact!r}"
        return None
