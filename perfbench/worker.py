"""One preset pass in a fresh interpreter, so caches are cold and peak RSS is its own.

Usage (called by run.py):
    python3 perfbench/worker.py <workload> <ini or -> <csv path> <trace 0|1>

Builds the config, runs ``run_experiment`` with per-point timing into
the given CSV path, and prints one JSON line with the pass's timings, its
peak RSS, the resolved worker count and, when traced, the per-layer metrics.
"""
from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def resolved_workers(cli) -> int:
    """The worker-pool size run_experiment will use (1 when it has no pool)."""
    workers = getattr(cli, "_workers", None)
    return workers() if workers else 1


def main(argv) -> int:
    workload, ini, out, trace = argv
    sys.path[:0] = [str(SRC), str(ROOT)]
    import layerr.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        print(f"layerr was imported from {cli.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    from perfbench.tracing import Tracer
    from perfbench.workloads import build_config

    cfg = build_config(workload, None if ini == "-" else Path(ini))
    workers = resolved_workers(cli)
    result = {"workers": workers, "targets": len(cfg.targets)}
    if trace == "1":
        with Tracer(cfg) as tracer:
            t0 = time.perf_counter()
            cli.run_experiment(cfg, out, timing=True)
            result["wall_s"] = time.perf_counter() - t0
        result["layers"] = {k: list(v) for k, v in tracer.metrics(workers).items()}
    else:
        t0 = time.perf_counter()
        cli.run_experiment(cfg, out, timing=True)
        result["wall_s"] = time.perf_counter() - t0
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
