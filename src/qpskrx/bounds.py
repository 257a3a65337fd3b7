"""Classical and quantum baselines for QPSK discrimination.

The SQL is the heterodyne receiver's error probability; the Helstrom bound
for the symmetric pure-state alphabet is computed via the square-root
measurement, which is optimal for geometrically uniform states with equal
priors.  The Gram matrix of the four states is circulant, so its eigenvalues
are the DFT of its first row, in closed form.
"""

from __future__ import annotations

import math
from itertools import combinations


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


def gram_eigenvalues(alpha_sq: float) -> tuple[float, float, float, float]:
    """The circulant Gram matrix's eigenvalues by DFT index, 2e^-a (cosh a + cos a,
    sinh a - sin a, cosh a - cos a, sinh a + sin a) at a = ``alpha_sq``, in forms
    that neither cancel nor overflow."""
    a, d = alpha_sq, math.exp(-alpha_sq)
    if a >= 1.0:
        c, s, lo = 2.0 * d * math.cos(a), 2.0 * d * math.sin(a), -math.expm1(-2.0 * a)
        return 1.0 + d * d + c, lo - s, 1.0 + d * d - c, lo + s
    # sinh a - sin a = 2 (a^3/3! + a^7/7! + ...); the next term is 2e-22 relative
    odd = math.fsum(a ** n / math.factorial(n) for n in (19, 15, 11, 7, 3))
    return (2.0 * d * (math.cosh(a) + math.cos(a)), 4.0 * d * odd,
            4.0 * d * (math.sinh(a / 2) ** 2 + math.sin(a / 2) ** 2),
            2.0 * d * (math.sinh(a) + math.sin(a)))


def helstrom_qpsk(alpha_sq: float) -> float:
    """Minimum average error probability for the QPSK alphabet (equal priors):
    1 - (sum of sqrt(lambda))^2 / 16, which cancels, taken as the sum over pairs
    of (lambda_i - lambda_j)^2 / (sqrt(lambda_i) + sqrt(lambda_j))^2 / 16."""
    if not 0 <= alpha_sq < math.inf:  # nan too; inf has no finite Gram row
        raise ValueError(f"alpha_sq must be finite and >= 0, got {alpha_sq}")
    lam, pairs = gram_eigenvalues(alpha_sq), list(combinations(range(4), 2))
    if alpha_sq < 1.0:
        diffs = [lam[i] - lam[j] for i, j in pairs]
    else:  # in closed form, up to sign
        d, c, s = math.exp(-alpha_sq), math.cos(alpha_sq), math.sin(alpha_sq)
        diffs = [2.0 * d * x for x in (d + c + s, 2.0 * c, d + c - s,
                                       d - c + s, 2.0 * s, d - c - s)]
    return math.fsum((x / (math.sqrt(lam[i]) + math.sqrt(lam[j]))) ** 2 if x else 0.0
                     for x, (i, j) in zip(diffs, pairs)) / 16.0
