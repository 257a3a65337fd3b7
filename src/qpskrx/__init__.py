"""Adaptive displacement/photon-counting receiver for QPSK coherent states.

Simulates the feedback receiver (displacement to the MAP hypothesis, photon
counting, Bayesian posterior update per bin) under ideal and imperfect
conditions, with exact enumeration and Monte Carlo estimators plus the
heterodyne SQL and Helstrom baselines.
"""

__version__ = "0.1.0"
