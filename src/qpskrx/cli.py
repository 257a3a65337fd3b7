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
# ``estimate_error`` stays importable from here: perfbench/spans.py traces it by this name.
from .montecarlo import RngSpec, estimate_error, estimate_errors  # noqa: F401


def alpha_grid(cfg: RunConfig) -> np.ndarray:
    if cfg.alpha_sq_spacing == "log":
        return np.geomspace(cfg.alpha_sq_start, cfg.alpha_sq_stop, cfg.alpha_sq_points)
    return np.linspace(cfg.alpha_sq_start, cfg.alpha_sq_stop, cfg.alpha_sq_points)


def matched_inference(cfg: RunConfig, alpha_sq: float, m: int | None = None,
                      include_discard: bool = True) -> InferenceModel:
    """The point's channel under the experimental condition, with the discard loss
    lumped into the efficiency unless ``include_discard`` is false."""
    m = cfg.m if m is None else m
    eta_eff = cfg.eta_se
    if include_discard:
        eta_eff *= cfg.discard_multiplier(m)
    return InferenceModel(alpha_sq, m, eta_eff, cfg.xi, cfg.nu_per_state)


def _monte_carlo(cfg: RunConfig, labels: list[dict], points: list) -> list[dict]:
    """Each label row extended by its point's ``error_prob`` and ``stderr``, from one
    grid call for all Monte Carlo points of a run (common random numbers)."""
    results = estimate_errors(points, cfg.trials, RngSpec(cfg.seed), cfg.workers)
    for label, res in zip(labels, results):  # in place: a copy per row raised peak RSS
        label.update(error_prob=res.error_prob, stderr=res.stderr)
    return labels


def _bounds(cfg: RunConfig) -> list[dict]:
    return [{"alpha_sq": float(a),
             "sql": sql_heterodyne(a),
             "sql_lossy": sql_lossy(a, cfg.eta_se),
             "helstrom": helstrom_qpsk(a)} for a in alpha_grid(cfg)]


def _enumerate(cfg: RunConfig) -> list[dict]:
    rows = []
    for a in alpha_grid(cfg):
        model = matched_inference(cfg, float(a))
        rows.append({"alpha_sq": float(a),
                     "alpha_sq_detected": model.eta_total * float(a),
                     "error_prob": enumerate_error_probability(model)})
    return rows


def _sweep(cfg: RunConfig) -> list[dict]:
    alphas = [float(a) for a in alpha_grid(cfg)]
    models = [matched_inference(cfg, a) for a in alphas]
    labels = [{"alpha_sq": a, "alpha_sq_detected": model.eta_total * a}
              for a, model in zip(alphas, models)]
    return _monte_carlo(cfg, labels, [(model, None) for model in models])


def _efficiency_sweep(cfg: RunConfig) -> list[dict]:
    labels = [{"eta_spd": eta_spd, "alpha_sq": float(a)}
              for eta_spd in cfg.eta_spd_list for a in alpha_grid(cfg)]
    points = [(matched_inference(dataclasses.replace(cfg, eta_spd=row["eta_spd"]),
                                 row["alpha_sq"]), None) for row in labels]
    return _monte_carlo(cfg, labels, points)


def _delay_sweep(cfg: RunConfig) -> list[dict]:
    params = DelayParams(cfg.t_bin_us, cfg.t_hold_us, cfg.t_swing_us)
    dts = [float(dt) for dt in np.linspace(cfg.dt_start_us, cfg.dt_stop_us, cfg.dt_points)]
    truth_point = matched_inference(cfg, cfg.alpha_sq, include_discard=False)
    points = [(matched_inference(dataclasses.replace(cfg, dt_us=dt), cfg.alpha_sq),
               delay_truth_tables(truth_point, params, dt, include_delay=cfg.truth_delay))
              for dt in dts]
    return _monte_carlo(cfg, [{"dt_us": dt} for dt in dts], points)


def _stages_sweep(cfg: RunConfig) -> list[dict]:
    ms = range(cfg.m_start, cfg.m_stop + 1)
    points = [(matched_inference(cfg, cfg.alpha_sq, m=m, include_discard=discard), None)
              for m in ms for discard in (False, True)]
    rows = _monte_carlo(cfg, [{} for _ in points], points)
    # each M's (no discard, discard) pair of rows becomes one row; literal keys are
    # shared by every row, where built ones would be new strings in each
    return [{"m": m,
             "error_prob_no_discard": plain["error_prob"], "stderr_no_discard": plain["stderr"],
             "error_prob_discard": lumped["error_prob"], "stderr_discard": lumped["stderr"]}
            for m, plain, lumped in zip(ms, rows[0::2], rows[1::2])]


# One function per mode of ``config.MODES``; each returns its rows, whose keys
# are the CSV columns in order.
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
    rows = RUNNERS[cfg.mode](cfg)
    return list(rows[0]), rows


def _format(value) -> str:
    if isinstance(value, float):  # includes numpy float64 (a float subclass)
        return repr(float(value))
    return str(value)


def render_csv(cfg: RunConfig, columns: list[str], rows: list[dict]) -> str:
    header = "# config=" + json.dumps(dataclasses.asdict(cfg), sort_keys=True)
    lines = [header, ",".join(columns)]
    for row in rows:
        lines.append(",".join(_format(row[c]) for c in columns))
    return "\n".join(lines) + "\n"


# Each number flag sets the RunConfig field of the same type.
NUMBER_FLAGS = {"--alpha-sq": ("alpha_sq", float), "--m": ("m", int), "--trials": ("trials", int),
                "--seed": ("seed", int), "--eta-t": ("eta_t", float),
                "--eta-spd": ("eta_spd", float), "--xi": ("xi", float),
                "--nu": ("nu_per_state", float), "--dt-us": ("dt_us", float),
                "--workers": ("workers", int)}


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
        for flag, (field, kind) in NUMBER_FLAGS.items():
            p.add_argument(flag, type=kind, dest=field)
        p.add_argument("--alpha-sq-grid", metavar="A:B:N[:log]")
        p.add_argument("--m-grid", metavar="A:B", dest="m_grid")
        p.add_argument("--eta-spd-list", dest="eta_spd_list",
                       help="comma-separated detector efficiencies")
        p.add_argument("--dt-grid", metavar="A:B:N", dest="dt_grid")
        p.add_argument("--truth-delay", choices=("on", "off"), dest="truth_delay")
        p.add_argument("--out", metavar="FILE.csv")
        p.add_argument("--json", action="store_true",
                       help="also write a JSON mirror next to --out")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        overrides = {field: getattr(args, field) for field, _ in NUMBER_FLAGS.values()}
        if args.json and not args.out:
            raise ConfigError("--json: needs --out, next to which the JSON mirror is written")
        json_path = args.out and os.path.splitext(args.out)[0] + ".json"
        if args.json and json_path == args.out:
            raise ConfigError(f"--json: the JSON mirror {json_path} would overwrite --out")
        if args.alpha_sq_grid is not None:
            overrides.update(zip(
                ("alpha_sq_start", "alpha_sq_stop", "alpha_sq_points", "alpha_sq_spacing"),
                _parse_flag("--alpha-sq-grid", args.alpha_sq_grid,
                            (float, float, int, str), required=3)))
        if args.dt_grid is not None:
            overrides.update(zip(("dt_start_us", "dt_stop_us", "dt_points"),
                                 _parse_flag("--dt-grid", args.dt_grid, (float, float, int),
                                             required=3)))
        if args.m_grid is not None:
            ms = _parse_flag("--m-grid", args.m_grid, (int, int))
            overrides.update({"m_start": ms[0], "m_stop": ms[-1]})
        if args.eta_spd_list is not None:
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
                    fh.write(json.dumps({"config": dataclasses.asdict(cfg), "columns": columns,
                                         "rows": rows}, sort_keys=True, indent=2) + "\n")
        else:
            sys.stdout.write(text)
        return 0
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
