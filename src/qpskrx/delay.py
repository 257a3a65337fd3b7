"""Finite-bandwidth feedback model: hold / swing / settle segments of a bin.

When the feedback target changes between bins, the displacement phase is
stale for ``t_hold``, ramps linearly to the new phase during ``t_swing``, and
only then sits at the target.  A discard window ``[0, discard_dt)`` at the
bin start is treated as linear loss, so a segment ``[start, end)`` keeps the
share ``max(end - max(start, discard_dt), 0) / t_bin`` of the bin's
intensity: its time outside the window, over ``t_bin``.  A segment at a
fixed phase takes ``physics.off_probs`` at its intensity; the swing has a
closed-form continuum-limit no-click probability (tested against a discrete
L-mode product).  The delay-free comparison model is the same product with
instantaneous feedback: every segment sits at the new target.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import _kernels
from .bayes import TruthTables
from .physics import ChannelModel, off_probs


@dataclass(frozen=True)
class DelayParams:
    """Bin timing: total width, stale-phase hold, and ramp duration (us)."""

    t_bin: float
    t_hold: float
    t_swing: float

    def __post_init__(self):
        times = (self.t_bin, self.t_hold, self.t_swing)
        if not all(map(math.isfinite, times)) or self.t_bin <= 0:
            raise ValueError(f"bin times must be finite and t_bin > 0, got {times}")
        if self.t_hold < 0 or self.t_swing < 0:
            raise ValueError("t_hold and t_swing must be >= 0")
        if self.t_hold + self.t_swing > self.t_bin:
            raise ValueError(
                f"hold + swing ({self.t_hold + self.t_swing}) exceeds t_bin ({self.t_bin})")

    def shares(self, discard_dt: float) -> tuple[float, ...]:
        """Hold, swing and settle shares of the intensity outside ``[0, discard_dt)``."""
        if not 0.0 <= discard_dt <= self.t_bin:
            raise ValueError(f"discard window must be in [0, t_bin], got {discard_dt}")
        edges = (0.0, self.t_hold, self.t_hold + self.t_swing, self.t_bin)
        # a covered segment keeps 0, also where (hold + swing) - hold > swing
        return tuple(max(end - max(start, discard_dt), 0.0) / self.t_bin
                     for start, end in zip(edges, edges[1:]))


def off_prob_swing_analytic(m: int, prev_target: int, new_target: int,
                            swing_sq: float, ch: ChannelModel) -> float:
    """Continuum-limit no-click probability of the linear phase ramp.

    ``swing_sq`` is the segment's intensity, as ``off_probs`` takes it.  Phases
    are measured in the frame where the previous target is nulled; the span is
    the signed minimal rotation (quarter turns) from the previous target.
    """
    span = (new_target - prev_target + 1) % 4 - 1
    if span == 0:
        raise ValueError("degenerate swing (target unchanged): use off_probs")
    mm = (m - prev_target) % 4
    w = ch.eta_total * swing_sq
    exponent = (-2.0 * w
                + (4.0 * w / (span * math.pi)) * ch.xi
                * (math.sin(mm * math.pi / 2) - math.sin((mm - span) * math.pi / 2)))
    return math.exp(exponent)


def delay_truth_tables(alpha_sq: float, stages: int, ch: ChannelModel,
                       nu_per_state: float, params: DelayParams,
                       discard_dt: float, include_delay: bool) -> TruthTables:
    """Outcome-generating model with per-bin discarding and optional delay.

    The first bin has no feedback transient and no discard window.  A later
    bin multiplies its hold, swing and settle segments and the dark-count
    factor; ``include_delay=False`` makes the feedback instantaneous.
    """
    gamma_sq = alpha_sq / stages
    nu_bin = nu_per_state / stages
    hold_sq, swing_sq, settle_sq = (gamma_sq * s for s in params.shares(discard_dt))
    hold = off_probs(hold_sq, ch)
    swing = off_probs(swing_sq, ch)[_kernels.ROLL.T]
    settle = off_probs(settle_sq, ch)[_kernels.ROLL.T]
    if include_delay:
        hold = hold[:, None]                # stale phase: indexed by dprev alone
        for dprev in range(4):
            for step in range(1, 4):        # the target moves: phase ramp
                swing[dprev, step] = off_prob_swing_analytic(dprev, 0, step, swing_sq, ch)
    else:
        hold = hold[_kernels.ROLL.T]
    trans = hold * swing * settle * math.exp(-nu_bin)
    return TruthTables(stages, off_probs(gamma_sq, ch, nu_bin), trans)
