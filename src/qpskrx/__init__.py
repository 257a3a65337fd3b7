"""Adaptive displacement/photon-counting receiver for QPSK coherent states.

Simulates the feedback receiver (displacement to the MAP hypothesis, photon
counting, Bayesian posterior update per bin) under ideal and imperfect
conditions, with exact enumeration and Monte Carlo estimators plus the
heterodyne SQL and Helstrom baselines.
"""

from .bayes import (EnumerationDetail, FeedbackState, InferenceModel,
                    TruthTables, bin_likelihood, decide, enumerate_detail,
                    enumerate_error_probability, initial_state,
                    posterior_update, truth_from_inference,
                    uniform_truth_tables)
from .bounds import helstrom_qpsk, qpsk_gram, sql_heterodyne, sql_lossy
from .config import ConfigError, RunConfig, load_config
from .delay import (DelayParams, delay_truth_tables, off_prob_bin_no_delay,
                    off_prob_bin_with_delay, off_prob_hold,
                    off_prob_swing_analytic, off_prob_swing_discrete)
from .montecarlo import (RngSpec, SimulationResult, estimate_error,
                         estimate_errors, simulate_trial, trial_outcomes)
from .physics import (ChannelModel, DetectorModel, QpskAlphabet,
                      off_probability, off_probability_visibility,
                      sample_click, symbol_amplitude)

__all__ = [
    "ChannelModel", "ConfigError", "DelayParams", "DetectorModel",
    "EnumerationDetail", "FeedbackState", "InferenceModel", "QpskAlphabet",
    "RngSpec", "RunConfig", "SimulationResult", "TruthTables",
    "bin_likelihood", "decide", "delay_truth_tables", "enumerate_detail",
    "enumerate_error_probability", "estimate_error", "estimate_errors",
    "helstrom_qpsk", "initial_state", "load_config", "off_prob_bin_no_delay",
    "off_prob_bin_with_delay", "off_prob_hold", "off_prob_swing_analytic",
    "off_prob_swing_discrete", "off_probability",
    "off_probability_visibility", "posterior_update", "qpsk_gram",
    "sample_click", "simulate_trial", "sql_heterodyne", "sql_lossy",
    "symbol_amplitude", "trial_outcomes", "truth_from_inference",
    "uniform_truth_tables",
]

__version__ = "0.1.0"
