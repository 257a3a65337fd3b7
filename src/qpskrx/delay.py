"""Finite-bandwidth feedback model: hold / swing / settle segments of a bin.

When the feedback target changes between bins, the displacement phase is
stale for ``t_hold``, ramps linearly to the new phase during ``t_swing``, and
only then sits at the target.  A discard window ``[0, discard_dt)`` at the
bin start is treated as linear loss, so a segment ``[start, end)`` keeps the
share ``max(end - max(start, discard_dt), 0) / t_bin`` of the bin's
intensity: its time outside the window, over ``t_bin``.  The bin's mean
photon count is the grid point's ``InferenceModel.mean_count`` of its three
``(share, mean cosine)`` segments.  The ramp's mean cosine is the continuum
limit of a product over L modes at equally spaced phases (tested against it).
The delay-free comparison model puts every segment at the new target.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .bayes import QUARTER_TURN_COS, InferenceModel, TruthTables


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


# [dprev, step] cosines of a segment's phase from symbol m, dprev = (m - prev) % 4
# and step = (target - prev) % 4: stale (at the previous target), settled (at the
# new one) and the ramp's mean.  The ramp turns span = (step + 1) % 4 - 1 quarter
# turns (a half turn: +2); its mean cosine, 2 (sin a - sin b) / (span pi) at a =
# dprev and b = dprev - span, is one of 0 and +-2/pi, with the exact quarter-turn
# sines sin(k pi/2) = cos((k - 1) pi/2).  At step 0 nothing ramps.
STALE_COS = np.array(QUARTER_TURN_COS)[:, None].repeat(4, axis=1)
SETTLED_COS = np.array(QUARTER_TURN_COS)[_kernels.ROLL.T]
RAMP_COS = np.array([[2.0 * (QUARTER_TURN_COS[(d - 1) % 4] - QUARTER_TURN_COS[(d - span - 1) % 4])
                      / (span * math.pi) if span else QUARTER_TURN_COS[d]
                      for span in (0, 1, 2, -1)] for d in range(4)])


def delay_truth_tables(point: InferenceModel, params: DelayParams, discard_dt: float,
                       include_delay: bool) -> TruthTables:
    """Outcome-generating model of the grid point's channel ``point`` with per-bin
    discarding and optional delay.

    The first bin has no feedback transient and no discard window.  A later bin
    takes the point's ``mean_count`` of its hold, swing and settle segments;
    ``include_delay=False`` makes the feedback instantaneous.
    """
    cosines = (STALE_COS, RAMP_COS, SETTLED_COS) if include_delay else (SETTLED_COS,) * 3
    mu = point.mean_count(zip(params.shares(discard_dt), cosines))
    trans = np.array([math.exp(-x) for x in mu.flat])
    return TruthTables(point.stages, point.off_probs(), trans.reshape(4, 4))
