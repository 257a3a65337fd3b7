"""Channel parameters and the per-bin click statistics of the nulling receiver.

Each bin displaces the current target hypothesis to vacuum.  When the
displacement magnitude is calibrated to the per-bin signal magnitude
``gamma``, a symbol at relative phase ``theta`` from the target gives an
"off" (no click) outcome with probability ``exp(-mu)``, where the bin's mean
photon count ``mu = nu + 2*eta*(1 - xi*cos(theta))*|gamma|^2`` (``mean_count``)
holds efficiency ``eta``, interference visibility ``xi`` and dark counts ``nu``
per bin.  In the QPSK alphabet ``theta`` is a whole number of quarter turns; a
phase that moves during the bin enters through its mean ``cos(theta)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ChannelModel:
    """Combined transmittance*detector efficiency and interference visibility."""

    eta_total: float
    xi: float = 1.0

    def __post_init__(self):
        if not 0.0 <= self.eta_total <= 1.0:
            raise ValueError(f"eta_total must be in [0, 1], got {self.eta_total}")
        if not 0.0 <= self.xi <= 1.0:
            raise ValueError(f"xi must be in [0, 1], got {self.xi}")


# cos(delta*pi/2) for delta = 0..3, exact; math.cos leaves 6.1e-17 at pi/2
# but -1.8e-16 at 3*pi/2, which would split the mirror pair delta = 1, 3
QUARTER_TURN_COS = (1.0, 0.0, -1.0, 0.0)


def mean_count(gamma_sq: float, ch: ChannelModel, cos, nu_per_bin: float = 0.0):
    """A bin's mean photon count at mean cosine ``cos`` (a scalar or an array)
    from its target: the one formula where efficiency, visibility, dark counts
    and phase meet.  The bin gives no click with probability ``exp(-count)``."""
    return nu_per_bin + 2.0 * ch.eta_total * (1.0 - ch.xi * cos) * gamma_sq


def off_probs(gamma_sq: float, ch: ChannelModel, nu_per_bin: float = 0.0) -> np.ndarray:
    """The no-click formula, by delta = (m - target) mod 4 (theta = delta*pi/2).

    Exact cosines make the mirror pair delta = 1, 3 bitwise equal, so MAP ties
    stay exact; scalar ``math.exp`` (not ``np.exp``) keeps every table bitwise.
    """
    if not 0 <= gamma_sq < math.inf:  # nan too; inf times a zero exponent is nan
        raise ValueError(f"gamma_sq must be finite and >= 0, got {gamma_sq}")
    if not nu_per_bin >= 0:
        raise ValueError(f"nu_per_bin must be >= 0, got {nu_per_bin}")
    return np.array([math.exp(-mean_count(gamma_sq, ch, cos, nu_per_bin))
                     for cos in QUARTER_TURN_COS])
