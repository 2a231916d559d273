"""Time one fresh process from its first import to a constructed engine.

    python3 benchmark/setup_probe.py '<config json>' [--cli]

Covers importing swapcal (and its CLI with ``--cli``), config validation,
``build_components`` and the engine's construction (``expert_init`` and
the learner bank).  Prints the elapsed seconds.  ``run.py`` starts it with
BLAS threads pinned in the environment.
"""

import time

_START = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def main() -> None:
    raw = json.loads(sys.argv[1])
    import swapcal

    if "--cli" in sys.argv[2:]:
        import swapcal.cli  # noqa: F401

    cfg = swapcal.ExperimentConfig.from_dict(raw)
    prop, cls_obj, _ = cfg.build_components()
    streams = swapcal.component_streams(cfg.seed)
    grid = swapcal.GridConfig(cfg.bin_count, cfg.T)
    if cfg.engine == "efficient":
        swapcal.EfficientForecaster(grid, prop, cls_obj, streams["engine"])
    else:
        swapcal.InefficientForecaster(grid, prop, cls_obj, streams["engine"])
    print(repr(time.perf_counter() - _START))


if __name__ == "__main__":
    main()
