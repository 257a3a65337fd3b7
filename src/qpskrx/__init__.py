"""Adaptive displacement/photon-counting receiver for QPSK coherent states.

Simulates the feedback receiver (displacement to the MAP hypothesis, photon
counting, Bayesian posterior update per bin) under ideal and imperfect
conditions, with exact enumeration and Monte Carlo estimators plus the
heterodyne SQL and Helstrom baselines.
"""

from .bayes import (EnumerationDetail, InferenceModel, TruthTables,
                    enumerate_detail, enumerate_error_probability,
                    truth_from_inference, uniform_truth_tables)
from .bounds import helstrom_qpsk, sql_heterodyne, sql_lossy
from .config import ConfigError, RunConfig, load_config
from .delay import DelayParams, delay_truth_tables
from .montecarlo import RngSpec, SimulationResult, estimate_error, estimate_errors
from .physics import ChannelModel

__all__ = [
    "ChannelModel", "ConfigError", "DelayParams", "EnumerationDetail",
    "InferenceModel", "RngSpec", "RunConfig", "SimulationResult", "TruthTables",
    "delay_truth_tables", "enumerate_detail", "enumerate_error_probability",
    "estimate_error", "estimate_errors", "helstrom_qpsk", "load_config",
    "sql_heterodyne", "sql_lossy", "truth_from_inference",
    "uniform_truth_tables",
]

__version__ = "0.1.0"
