"""What every CLI invocation pays before its first grid point.

``python3 perfbench/setup_probe.py SRC_DIR SEED`` imports ``qpskrx`` from
``SRC_DIR``, loads a configuration, makes one tiny ``estimate_error`` call
(first-call and JIT costs) and prints ``ready``.  ``run.py`` times a fresh
interpreter from start to that line, and calls ``ready`` in-process as its
own warm-up.
"""

from __future__ import annotations

import sys


def ready(seed: int) -> None:
    from qpskrx.cli import matched_inference
    from qpskrx.config import load_config
    from qpskrx.montecarlo import RngSpec, estimate_error

    cfg = load_config(None, {"seed": seed, "m": 4}, mode="sweep")
    estimate_error(matched_inference(cfg, 1.0), 64, RngSpec(cfg.seed))


if __name__ == "__main__":
    sys.path.insert(0, sys.argv[1])
    ready(int(sys.argv[2]))
    print("ready", flush=True)
