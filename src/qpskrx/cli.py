"""Sweep orchestration and machine-readable result emission.

Every mode emits one CSV row per grid point, preceded by a ``#`` comment line
echoing the full configuration as JSON.  Feeding that JSON back in as a
config file reproduces the identical output byte for byte.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

import numpy as np

from .bayes import InferenceModel, enumerate_error_probability
from .bounds import helstrom_qpsk, sql_heterodyne, sql_lossy
from .config import MODES, ConfigError, RunConfig, load_config
from .delay import DelayParams, delay_truth_tables
from .physics import ChannelModel
from .montecarlo import RngSpec, estimate_error


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


def run(cfg: RunConfig) -> tuple[list[str], list[dict]]:
    """Execute one mode; returns (column names, rows in grid order)."""
    cfg.validate()
    rng = RngSpec(cfg.seed)
    rows: list[dict] = []

    if cfg.mode == "bounds":
        columns = ["alpha_sq", "sql", "sql_lossy", "helstrom"]
        for a in alpha_grid(cfg):
            rows.append({
                "alpha_sq": float(a),
                "sql": sql_heterodyne(a),
                "sql_lossy": sql_lossy(a, cfg.eta_se),
                "helstrom": helstrom_qpsk(a),
            })

    elif cfg.mode == "enumerate":
        columns = ["alpha_sq", "alpha_sq_detected", "error_prob"]
        for a in alpha_grid(cfg):
            model = matched_inference(cfg, float(a))
            rows.append({
                "alpha_sq": float(a),
                "alpha_sq_detected": model.eta_total * float(a),
                "error_prob": enumerate_error_probability(model),
            })

    elif cfg.mode == "sweep":
        columns = ["alpha_sq", "alpha_sq_detected", "error_prob", "stderr"]
        for a in alpha_grid(cfg):
            model = matched_inference(cfg, float(a))
            res = estimate_error(model, cfg.trials, rng, n_workers=cfg.workers)
            rows.append({
                "alpha_sq": float(a),
                "alpha_sq_detected": model.eta_total * float(a),
                "error_prob": res.error_prob,
                "stderr": res.stderr,
            })

    elif cfg.mode == "efficiency-sweep":
        columns = ["eta_spd", "alpha_sq", "error_prob", "stderr"]
        for eta_spd in cfg.eta_spd_list:
            for a in alpha_grid(cfg):
                model = matched_inference(cfg, float(a), eta_spd=eta_spd)
                res = estimate_error(model, cfg.trials, rng, n_workers=cfg.workers)
                rows.append({
                    "eta_spd": eta_spd,
                    "alpha_sq": float(a),
                    "error_prob": res.error_prob,
                    "stderr": res.stderr,
                })

    elif cfg.mode == "delay-sweep":
        columns = ["dt_us", "error_prob", "stderr"]
        params = DelayParams(cfg.t_bin_us, cfg.t_hold_us, cfg.t_swing_us)
        for dt in np.linspace(cfg.dt_start_us, cfg.dt_stop_us, cfg.dt_points):
            inference = matched_inference(dataclasses.replace(cfg, dt_us=float(dt)),
                                          cfg.alpha_sq)
            truth = delay_truth_tables(cfg.alpha_sq, cfg.m,
                                       ChannelModel(cfg.eta_se, cfg.xi),
                                       cfg.nu_per_state, params, float(dt),
                                       include_delay=cfg.truth_delay)
            res = estimate_error(inference, cfg.trials, rng, truth=truth,
                                 n_workers=cfg.workers)
            rows.append({
                "dt_us": float(dt),
                "error_prob": res.error_prob,
                "stderr": res.stderr,
            })

    elif cfg.mode == "stages-sweep":
        columns = ["m", "error_prob_no_discard", "stderr_no_discard",
                   "error_prob_discard", "stderr_discard"]
        for m in range(cfg.m_start, cfg.m_stop + 1):
            lossless = matched_inference(cfg, cfg.alpha_sq, m=m, include_discard=False)
            lossy = matched_inference(cfg, cfg.alpha_sq, m=m, include_discard=True)
            res0 = estimate_error(lossless, cfg.trials, rng, n_workers=cfg.workers)
            res1 = estimate_error(lossy, cfg.trials, rng, n_workers=cfg.workers)
            rows.append({
                "m": m,
                "error_prob_no_discard": res0.error_prob,
                "stderr_no_discard": res0.stderr,
                "error_prob_discard": res1.error_prob,
                "stderr_discard": res1.stderr,
            })

    else:  # pragma: no cover - guarded by validate()
        raise ConfigError(f"mode: unknown mode {cfg.mode!r}")

    return columns, rows


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


def _parse_grid(spec: str) -> dict:
    parts = spec.split(":")
    if len(parts) not in (3, 4):
        raise ConfigError(f"alpha_sq grid: expected start:stop:points[:log], got {spec!r}")
    out = {
        "alpha_sq_start": float(parts[0]),
        "alpha_sq_stop": float(parts[1]),
        "alpha_sq_points": int(parts[2]),
    }
    if len(parts) == 4:
        if parts[3] not in ("linear", "log"):
            raise ConfigError(f"alpha_sq grid: spacing must be linear or log, got {parts[3]!r}")
        out["alpha_sq_spacing"] = parts[3]
    return out


def _parse_dt_grid(spec: str) -> dict:
    parts = spec.split(":")
    if len(parts) != 3:
        raise ConfigError(f"dt grid: expected start:stop:points, got {spec!r}")
    return {"dt_start_us": float(parts[0]), "dt_stop_us": float(parts[1]),
            "dt_points": int(parts[2])}


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
        if args.alpha_sq_grid:
            overrides.update(_parse_grid(args.alpha_sq_grid))
        if args.dt_grid:
            overrides.update(_parse_dt_grid(args.dt_grid))
        if args.m_grid:
            a, _, b = args.m_grid.partition(":")
            overrides.update({"m_start": int(a), "m_stop": int(b or a)})
        if args.eta_spd_list:
            overrides["eta_spd_list"] = [float(x) for x in args.eta_spd_list.split(",")]
        if args.truth_delay is not None:
            overrides["truth_delay"] = args.truth_delay == "on"

        cfg = load_config(args.config, overrides, mode=args.mode)
        columns, rows = run(cfg)
        text = render_csv(cfg, columns, rows)
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(text)
            if args.json:
                json_path = args.out.rsplit(".", 1)[0] + ".json"
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
