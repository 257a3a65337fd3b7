"""Sweep orchestration and machine-readable result emission.

Every mode emits one CSV row per grid point, preceded by a ``#`` comment line
echoing the full configuration as JSON.  Feeding that JSON back in as a
config file reproduces the identical output byte for byte.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

import numpy as np

from .bayes import InferenceModel, enumerate_error_probability
from .bounds import helstrom_qpsk, sql_heterodyne, sql_lossy
from .config import MODES, ConfigError, RunConfig, load_config
from .delay import DelayParams, delay_truth_tables
from .physics import ChannelModel
# ``estimate_error`` stays importable from here: perfbench/spans.py traces it by this name.
from .montecarlo import RngSpec, estimate_error, estimate_errors  # noqa: F401


def alpha_grid(cfg: RunConfig) -> np.ndarray:
    if cfg.alpha_sq_spacing == "log":
        return np.geomspace(cfg.alpha_sq_start, cfg.alpha_sq_stop, cfg.alpha_sq_points)
    return np.linspace(cfg.alpha_sq_start, cfg.alpha_sq_stop, cfg.alpha_sq_points)


def matched_inference(cfg: RunConfig, alpha_sq: float, m: int | None = None,
                      eta_spd: float | None = None,
                      include_discard: bool = True) -> InferenceModel:
    """Inference model under the experimental condition (discard loss lumped)."""
    m = cfg.m if m is None else m
    eta_spd = cfg.eta_spd if eta_spd is None else eta_spd
    eta_eff = cfg.eta_t * eta_spd
    if include_discard:
        eta_eff *= cfg.discard_multiplier(m)
    return InferenceModel(alpha_sq, m, eta_eff, cfg.xi, cfg.nu_per_state)


def _estimate(cfg: RunConfig, points: list) -> list:
    """One grid call for all Monte Carlo points of a run (common random numbers)."""
    return estimate_errors(points, cfg.trials, RngSpec(cfg.seed), cfg.workers)


def _bounds(cfg: RunConfig) -> tuple[list[str], list[dict]]:
    rows = [{"alpha_sq": float(a),
             "sql": sql_heterodyne(a),
             "sql_lossy": sql_lossy(a, cfg.eta_se),
             "helstrom": helstrom_qpsk(a)} for a in alpha_grid(cfg)]
    return ["alpha_sq", "sql", "sql_lossy", "helstrom"], rows


def _enumerate(cfg: RunConfig) -> tuple[list[str], list[dict]]:
    rows = []
    for a in alpha_grid(cfg):
        model = matched_inference(cfg, float(a))
        rows.append({"alpha_sq": float(a),
                     "alpha_sq_detected": model.eta_total * float(a),
                     "error_prob": enumerate_error_probability(model)})
    return ["alpha_sq", "alpha_sq_detected", "error_prob"], rows


def _sweep(cfg: RunConfig) -> tuple[list[str], list[dict]]:
    alphas = [float(a) for a in alpha_grid(cfg)]
    models = [matched_inference(cfg, a) for a in alphas]
    results = _estimate(cfg, [(model, None) for model in models])
    rows = [{"alpha_sq": a,
             "alpha_sq_detected": model.eta_total * a,
             "error_prob": res.error_prob,
             "stderr": res.stderr} for a, model, res in zip(alphas, models, results)]
    return ["alpha_sq", "alpha_sq_detected", "error_prob", "stderr"], rows


def _efficiency_sweep(cfg: RunConfig) -> tuple[list[str], list[dict]]:
    grid = [(eta_spd, float(a)) for eta_spd in cfg.eta_spd_list for a in alpha_grid(cfg)]
    results = _estimate(cfg, [(matched_inference(cfg, a, eta_spd=eta_spd), None)
                              for eta_spd, a in grid])
    rows = [{"eta_spd": eta_spd,
             "alpha_sq": a,
             "error_prob": res.error_prob,
             "stderr": res.stderr} for (eta_spd, a), res in zip(grid, results)]
    return ["eta_spd", "alpha_sq", "error_prob", "stderr"], rows


def _delay_sweep(cfg: RunConfig) -> tuple[list[str], list[dict]]:
    params = DelayParams(cfg.t_bin_us, cfg.t_hold_us, cfg.t_swing_us)
    dts = [float(dt) for dt in np.linspace(cfg.dt_start_us, cfg.dt_stop_us, cfg.dt_points)]
    points = [(matched_inference(dataclasses.replace(cfg, dt_us=dt), cfg.alpha_sq),
               delay_truth_tables(cfg.alpha_sq, cfg.m, ChannelModel(cfg.eta_se, cfg.xi),
                                  cfg.nu_per_state, params, dt,
                                  include_delay=cfg.truth_delay))
              for dt in dts]
    rows = [{"dt_us": dt,
             "error_prob": res.error_prob,
             "stderr": res.stderr} for dt, res in zip(dts, _estimate(cfg, points))]
    return ["dt_us", "error_prob", "stderr"], rows


def _stages_sweep(cfg: RunConfig) -> tuple[list[str], list[dict]]:
    ms = range(cfg.m_start, cfg.m_stop + 1)
    points = [(matched_inference(cfg, cfg.alpha_sq, m=m, include_discard=discard), None)
              for m in ms for discard in (False, True)]
    results = _estimate(cfg, points)
    rows = [{"m": m,
             "error_prob_no_discard": res0.error_prob,
             "stderr_no_discard": res0.stderr,
             "error_prob_discard": res1.error_prob,
             "stderr_discard": res1.stderr}
            for m, res0, res1 in zip(ms, results[0::2], results[1::2])]
    return ["m", "error_prob_no_discard", "stderr_no_discard",
            "error_prob_discard", "stderr_discard"], rows


# One function per mode of ``config.MODES``; each returns (column names, rows).
RUNNERS = {
    "bounds": _bounds,
    "sweep": _sweep,
    "delay-sweep": _delay_sweep,
    "efficiency-sweep": _efficiency_sweep,
    "stages-sweep": _stages_sweep,
    "enumerate": _enumerate,
}


def run(cfg: RunConfig) -> tuple[list[str], list[dict]]:
    """Execute one mode; returns (column names, rows in grid order)."""
    cfg.validate()
    return RUNNERS[cfg.mode](cfg)


def _format(value) -> str:
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):  # includes numpy float64 (a float subclass)
        return repr(float(value))
    return str(value)


def render_csv(cfg: RunConfig, columns: list[str], rows: list[dict]) -> str:
    header = "# config=" + json.dumps(cfg.to_dict(), sort_keys=True)
    lines = [header, ",".join(columns)]
    for row in rows:
        lines.append(",".join(_format(row[c]) for c in columns))
    return "\n".join(lines) + "\n"


def render_json(cfg: RunConfig, columns: list[str], rows: list[dict]) -> str:
    return json.dumps({"config": cfg.to_dict(), "columns": columns, "rows": rows},
                      sort_keys=True, indent=2) + "\n"


def _parse_flag(flag: str, spec: str, kinds, required: int = 1, sep: str = ":") -> list:
    """Split a flag value at ``sep`` and convert each part; errors name the flag.

    ``kinds`` is a tuple of one converter per part, of which the first
    ``required`` must be given, or one converter for any number of parts.
    """
    parts = spec.split(sep)
    if not isinstance(kinds, tuple):
        kinds = (kinds,) * len(parts)
    if not required <= len(parts) <= len(kinds):
        count = len(kinds) if required == len(kinds) else f"{required} to {len(kinds)}"
        raise ConfigError(f"{flag}: expected {count} {sep!r}-separated values, got {spec!r}")
    try:
        return [kind(part) for kind, part in zip(kinds, parts)]
    except ValueError as exc:
        raise ConfigError(f"{flag}: {exc}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qpskrx",
        description="Adaptive displacement/photon-counting receiver simulator "
                    "for QPSK coherent-state discrimination.")
    sub = parser.add_subparsers(dest="mode", required=True)
    for mode in MODES:
        p = sub.add_parser(mode)
        p.add_argument("--config", metavar="FILE", help="JSON config file")
        p.add_argument("--alpha-sq-grid", metavar="A:B:N[:log]")
        p.add_argument("--alpha-sq", type=float, dest="alpha_sq")
        p.add_argument("--m", type=int, dest="m")
        p.add_argument("--m-grid", metavar="A:B", dest="m_grid")
        p.add_argument("--trials", type=int, dest="trials")
        p.add_argument("--seed", type=int, dest="seed")
        p.add_argument("--eta-t", type=float, dest="eta_t")
        p.add_argument("--eta-spd", type=float, dest="eta_spd")
        p.add_argument("--eta-spd-list", dest="eta_spd_list",
                       help="comma-separated detector efficiencies")
        p.add_argument("--xi", type=float, dest="xi")
        p.add_argument("--nu", type=float, dest="nu_per_state")
        p.add_argument("--dt-us", type=float, dest="dt_us")
        p.add_argument("--dt-grid", metavar="A:B:N", dest="dt_grid")
        p.add_argument("--truth-delay", choices=("on", "off"), dest="truth_delay")
        p.add_argument("--workers", type=int, dest="workers")
        p.add_argument("--out", metavar="FILE.csv")
        p.add_argument("--json", action="store_true",
                       help="also write a JSON mirror next to --out")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        overrides: dict = {}
        for key in ("alpha_sq", "m", "trials", "seed", "eta_t", "eta_spd", "xi",
                    "nu_per_state", "dt_us", "workers"):
            overrides[key] = getattr(args, key)
        if args.json and not args.out:
            raise ConfigError("--json: needs --out, next to which the JSON mirror is written")
        json_path = args.out and os.path.splitext(args.out)[0] + ".json"
        if args.json and json_path == args.out:
            raise ConfigError(f"--json: the JSON mirror {json_path} would overwrite --out")
        if args.alpha_sq_grid:
            overrides.update(zip(
                ("alpha_sq_start", "alpha_sq_stop", "alpha_sq_points", "alpha_sq_spacing"),
                _parse_flag("--alpha-sq-grid", args.alpha_sq_grid,
                            (float, float, int, str), required=3)))
        if args.dt_grid:
            overrides.update(zip(("dt_start_us", "dt_stop_us", "dt_points"),
                                 _parse_flag("--dt-grid", args.dt_grid, (float, float, int),
                                             required=3)))
        if args.m_grid:
            ms = _parse_flag("--m-grid", args.m_grid, (int, int))
            overrides.update({"m_start": ms[0], "m_stop": ms[-1]})
        if args.eta_spd_list:
            overrides["eta_spd_list"] = _parse_flag("--eta-spd-list", args.eta_spd_list,
                                                    float, sep=",")
        if args.truth_delay is not None:
            overrides["truth_delay"] = args.truth_delay == "on"

        cfg = load_config(args.config, overrides, mode=args.mode)
        columns, rows = run(cfg)
        text = render_csv(cfg, columns, rows)
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(text)
            if args.json:
                with open(json_path, "w") as fh:
                    fh.write(render_json(cfg, columns, rows))
        else:
            sys.stdout.write(text)
        return 0
    except (ConfigError, ValueError, OSError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
