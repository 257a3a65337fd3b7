"""Run configuration: defaults, JSON loading, flag overrides, validation.

The configuration is a flat namespace.  Defaults mirror the reference
experimental condition: transmittance 0.90, detector efficiency 0.73,
visibility 0.996, dark counts 9.1e-3 per state, state width 200 us, discard
window 1.1 us, M = 10 feedback stages.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, fields

MODES = ("bounds", "sweep", "delay-sweep", "efficiency-sweep", "stages-sweep", "enumerate")

# Philox keys are (seed << 2) | symbol and must stay below 2**128.
SEED_LIMIT = 2 ** 126


class ConfigError(ValueError):
    """Invalid configuration; the message names the offending field."""


def _number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


# field annotation -> (the JSON value it takes, its test); values are never
# coerced, so a config echoed in a CSV header keeps its bytes
_JSON_TYPES = {
    "str": ("a string", lambda v: isinstance(v, str)),
    "int": ("an integer", lambda v: _number(v) and isinstance(v, int)),
    "float": ("a number", _number),
    "bool": ("true or false", lambda v: isinstance(v, bool)),
    "list[float]": ("a list of numbers",
                    lambda v: isinstance(v, list) and all(map(_number, v))),
}


@dataclass
class RunConfig:
    mode: str = "sweep"
    alpha_sq_start: float = 0.25
    alpha_sq_stop: float = 12.0
    alpha_sq_points: int = 24
    alpha_sq_spacing: str = "linear"
    alpha_sq: float = 4.0          # fixed signal for delay-/stages-sweep
    m: int = 10
    m_start: int = 3               # stages-sweep range (inclusive)
    m_stop: int = 30
    trials: int = 1_000_000
    seed: int = 1
    eta_t: float = 0.90
    eta_spd: float = 0.73
    eta_spd_list: list[float] = field(default_factory=lambda: [0.73, 0.80, 0.90, 1.00])
    xi: float = 0.996
    nu_per_state: float = 9.1e-3
    t_total_us: float = 200.0
    dt_us: float = 1.1
    dt_start_us: float = 0.0
    dt_stop_us: float = 3.0
    dt_points: int = 13
    t_hold_us: float = 0.37
    t_swing_us: float = 0.63
    truth_delay: bool = True
    workers: int = 1

    @property
    def eta_se(self) -> float:
        return self.eta_t * self.eta_spd

    @property
    def t_bin_us(self) -> float:
        return self.t_total_us / self.m

    def discard_multiplier(self, m: int | None = None) -> float:
        """Lumped efficiency factor 1 - (M-1)*dt/T for the discard windows."""
        m = self.m if m is None else m
        return 1.0 - (m - 1) * self.dt_us / self.t_total_us

    def validate(self) -> "RunConfig":
        def check(cond, name, msg):
            if not cond:
                raise ConfigError(f"{name}: {msg} (got {getattr(self, name)!r})")

        for f in fields(self):
            kind, ok = _JSON_TYPES[f.type]
            check(ok(getattr(self, f.name)), f.name, f"must be {kind}")
        check(self.mode in MODES, "mode", f"must be one of {MODES}")
        for name in ("alpha_sq_start", "alpha_sq_stop", "alpha_sq"):
            value = getattr(self, name)
            check(math.isfinite(value) and value >= 0, name, "must be finite and >= 0")
        check(self.alpha_sq_stop >= self.alpha_sq_start, "alpha_sq_stop",
              "must be >= alpha_sq_start")
        check(self.alpha_sq_points >= 1, "alpha_sq_points", "must be >= 1")
        check(self.alpha_sq_spacing in ("linear", "log"), "alpha_sq_spacing",
              "must be 'linear' or 'log'")
        if self.alpha_sq_spacing == "log":
            check(self.alpha_sq_start > 0, "alpha_sq_start",
                  "must be > 0 for log spacing")
        check(self.m >= 1, "m", "must be >= 1")
        check(1 <= self.m_start <= self.m_stop, "m_start", "must satisfy 1 <= m_start <= m_stop")
        check(self.trials >= 4, "trials", "must be >= 4")
        check(0 <= self.seed < SEED_LIMIT, "seed", "must be in [0, 2**126)")
        check(0.0 <= self.eta_t <= 1.0, "eta_t", "must be in [0, 1]")
        check(0.0 <= self.eta_spd <= 1.0, "eta_spd", "must be in [0, 1]")
        check(all(0.0 <= e <= 1.0 for e in self.eta_spd_list), "eta_spd_list",
              "entries must be in [0, 1]")
        check(len(self.eta_spd_list) >= 1, "eta_spd_list", "must be non-empty")
        check(0.0 <= self.xi <= 1.0, "xi", "must be in [0, 1]")
        check(self.nu_per_state >= 0, "nu_per_state", "must be >= 0")
        check(self.t_total_us > 0, "t_total_us", "must be > 0")
        check(self.t_bin_us > 0, "t_total_us",
              f"must leave a bin width t_total_us / m > 0 (m = {self.m})")
        check(0.0 <= self.dt_us <= self.t_bin_us, "dt_us",
              f"must be in [0, t_bin = {self.t_bin_us}]")
        if self.mode == "stages-sweep":  # every M up to m_stop has a discard window
            t_bin = self.t_total_us / self.m_stop
            check(self.dt_us <= t_bin, "dt_us", f"must be <= t_total_us / m_stop = {t_bin}")
        check(0.0 <= self.dt_start_us <= self.dt_stop_us, "dt_start_us",
              "must satisfy 0 <= dt_start <= dt_stop")
        check(self.dt_stop_us <= self.t_bin_us, "dt_stop_us",
              f"must be <= t_bin = {self.t_bin_us}")
        check(self.dt_points >= 1, "dt_points", "must be >= 1")
        check(self.t_hold_us >= 0, "t_hold_us", "must be >= 0")
        check(self.t_swing_us >= 0, "t_swing_us", "must be >= 0")
        check(self.t_hold_us + self.t_swing_us <= self.t_bin_us, "t_swing_us",
              f"hold + swing must be <= t_bin = {self.t_bin_us}")
        check(self.workers >= 1, "workers", "must be >= 1")
        return self

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def field_names(cls) -> set[str]:
        return {f.name for f in fields(cls)}


def load_config(path: str | None = None, overrides: dict | None = None,
                mode: str | None = None) -> RunConfig:
    """Build a validated RunConfig: defaults < config file < explicit overrides."""
    values: dict = {}
    if path is not None:
        with open(path) as fh:
            try:
                data = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"config file {path}: invalid JSON ({exc})") from exc
        if not isinstance(data, dict):
            raise ConfigError(f"config file {path}: top level must be an object")
        unknown = sorted(set(data) - RunConfig.field_names())
        if unknown:
            raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
        values.update(data)
    for key, val in (overrides or {}).items():
        if key not in RunConfig.field_names():
            raise ConfigError(f"unknown config key: {key}")
        if val is not None:
            values[key] = val
    if mode is not None:
        if "mode" in values and values["mode"] != mode:
            raise ConfigError(
                f"mode: config file says {values['mode']!r} but the subcommand is {mode!r}")
        values["mode"] = mode
    cfg = RunConfig(**values)
    return cfg.validate()
