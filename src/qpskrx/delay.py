"""Finite-bandwidth feedback model: hold / swing / settle segments of a bin.

When the feedback target changes between bins, the displacement phase is
stale for ``t_hold``, ramps linearly to the new phase during ``t_swing``, and
only then sits at the target.  Each segment gets the share of the bin's
intensity equal to its share of the bin's time: ``t_hold/t_bin``,
``t_swing/t_bin`` and the remainder (a cascade of two beam splitters gives
the same shares).  A segment at a fixed phase takes ``physics.off_probs`` at
its share; the swing segment has a closed-form no-click probability in the
continuum limit (the test suite checks it against a discrete L-mode
product).  The delay-free comparison model is the same product with
instantaneous feedback: every segment sits at the new target.

A discard window of width ``delta_t`` at the bin start is treated as linear
loss: fully covered segments are dropped, a partially covered segment keeps
the uncovered fraction of its intensity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .bayes import TruthTables
from .physics import ChannelModel, off_probs

# signed minimal rotation, in quarter turns, for each (new - prev) mod 4
_SIGNED_SPAN = (0, 1, 2, -1)


@dataclass(frozen=True)
class DelayParams:
    """Bin timing: total width, stale-phase hold, and ramp duration (us)."""

    t_bin: float
    t_hold: float
    t_swing: float

    def __post_init__(self):
        if self.t_hold < 0 or self.t_swing < 0:
            raise ValueError("t_hold and t_swing must be >= 0")
        if self.t_hold + self.t_swing > self.t_bin:
            raise ValueError(
                f"hold + swing ({self.t_hold + self.t_swing}) exceeds t_bin ({self.t_bin})")

    @property
    def ramp_end(self) -> float:
        return self.t_hold + self.t_swing

    @property
    def hold_fraction(self) -> float:
        return self.t_hold / self.t_bin

    @property
    def swing_fraction(self) -> float:
        return self.t_swing / self.t_bin

    @property
    def settle_fraction(self) -> float:
        return (self.t_bin - self.ramp_end) / self.t_bin


def off_prob_swing_analytic(m: int, prev_target: int, new_target: int,
                            gamma_sq: float, p: DelayParams,
                            ch: ChannelModel) -> float:
    """Continuum-limit no-click probability of the linear phase ramp.

    Phases are measured in the frame where the previous target is nulled; the
    span m2 is the signed minimal rotation (in quarter turns) from the
    previous to the new target.
    """
    step = (new_target - prev_target) % 4
    m2 = _SIGNED_SPAN[step]
    if m2 == 0:
        raise ValueError("degenerate swing (target unchanged): use off_probs")
    mm = (m - prev_target) % 4
    w = ch.eta_total * p.swing_fraction * gamma_sq
    exponent = (-2.0 * w
                + (4.0 * w / (m2 * math.pi)) * ch.xi
                * (math.sin(mm * math.pi / 2) - math.sin((mm - m2) * math.pi / 2)))
    return math.exp(exponent)


def _discard_retentions(p: DelayParams, discard_dt: float) -> tuple[float, float, float]:
    """Retained intensity fraction of (hold, swing, settle) for a discard window."""
    if not 0.0 <= discard_dt <= p.t_bin:
        raise ValueError(f"discard window must be in [0, t_bin], got {discard_dt}")
    ret_hold = 1.0 if p.t_hold == 0 else max(p.t_hold - discard_dt, 0.0) / p.t_hold
    if p.t_swing == 0:
        ret_swing = 1.0
    else:
        covered = min(max(discard_dt, p.t_hold), p.ramp_end) - p.t_hold
        # (hold + swing) - hold may exceed swing by an ulp: keep the share >= 0
        ret_swing = max(1.0 - covered / p.t_swing, 0.0)
    settle_len = p.t_bin - p.ramp_end
    if settle_len == 0:
        ret_settle = 1.0
    else:
        ret_settle = (p.t_bin - max(discard_dt, p.ramp_end)) / settle_len
    return ret_hold, ret_swing, ret_settle


def delay_truth_tables(alpha_sq: float, stages: int, ch: ChannelModel,
                       nu_per_state: float, params: DelayParams,
                       discard_dt: float, include_delay: bool = True) -> TruthTables:
    """Outcome-generating model with per-bin discarding and optional delay.

    The first bin has no feedback transient and no discard window.  A later
    bin multiplies its hold, swing and settle segments and the dark-count
    factor; ``include_delay=False`` makes the feedback instantaneous.
    """
    gamma_sq = alpha_sq / stages
    nu_bin = nu_per_state / stages
    ret_hold, ret_swing, ret_settle = _discard_retentions(params, discard_dt)
    hold = off_probs(gamma_sq * ret_hold * params.hold_fraction, ch)
    swing = off_probs(gamma_sq * ret_swing * params.swing_fraction, ch)[_kernels.ROLL.T]
    settle = off_probs(gamma_sq * ret_settle * params.settle_fraction, ch)[_kernels.ROLL.T]
    if include_delay:
        hold = hold[:, None]                # stale phase: indexed by dprev alone
        for dprev in range(4):
            for step in range(1, 4):        # the target moves: phase ramp
                swing[dprev, step] = off_prob_swing_analytic(
                    dprev, 0, step, gamma_sq * ret_swing, params, ch)
    else:
        hold = hold[_kernels.ROLL.T]
    trans = hold * swing * settle * math.exp(-nu_bin)
    return TruthTables(stages, off_probs(gamma_sq, ch, nu_bin), trans)
