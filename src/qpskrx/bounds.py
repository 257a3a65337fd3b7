"""Classical and quantum baselines for QPSK discrimination.

The SQL is the heterodyne receiver's error probability; the Helstrom bound
for the symmetric pure-state alphabet is computed via the square-root
measurement, which is optimal for geometrically uniform states with equal
priors.  The Gram matrix of the four states is circulant, so its eigenvalues
come from a 4-point DFT of the first row.
"""

from __future__ import annotations

import math

import numpy as np


def sql_heterodyne(alpha_sq: float) -> float:
    """Heterodyne (SQL) error probability at signal mean photon number ``alpha_sq``."""
    if not alpha_sq >= 0:  # nan too; inf is the limit 0.0
        raise ValueError(f"alpha_sq must be >= 0, got {alpha_sq}")
    return 1.0 - 0.25 * (1.0 + math.erf(math.sqrt(alpha_sq / 2.0))) ** 2


def sql_lossy(alpha_sq: float, eta_total: float) -> float:
    """SQL with the signal attenuated by the total detection efficiency."""
    if not alpha_sq >= 0:  # nan too, checked before a product can hide it
        raise ValueError(f"alpha_sq must be >= 0, got {alpha_sq}")
    if not 0.0 <= eta_total <= 1.0:
        raise ValueError(f"eta_total must be in [0, 1], got {eta_total}")
    return sql_heterodyne(eta_total * alpha_sq) if eta_total > 0.0 else 0.75  # 0 * inf is nan


def gram_eigenvalues(alpha_sq: float) -> np.ndarray:
    """Eigenvalues of the circulant Gram matrix via the closed-form DFT."""
    k = np.arange(4)
    c = np.exp(alpha_sq * (1j ** k - 1.0))  # first row of the circulant
    j = np.arange(4)
    lam = (c[None, :] * np.exp(2j * math.pi * j[:, None] * k[None, :] / 4)).sum(axis=1)
    lam = lam.real
    if np.any(lam < -1e-12):
        raise FloatingPointError(f"Gram eigenvalue significantly negative: {lam}")
    return np.clip(lam, 0.0, None)


def helstrom_qpsk(alpha_sq: float) -> float:
    """Minimum average error probability for the QPSK alphabet (equal priors)."""
    if not 0 <= alpha_sq < math.inf:  # nan too; inf would make the Gram row nan
        raise ValueError(f"alpha_sq must be finite and >= 0, got {alpha_sq}")
    lam = gram_eigenvalues(alpha_sq)
    return float(1.0 - (np.sqrt(lam).sum()) ** 2 / 16.0)
