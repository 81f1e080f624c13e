"""Benchmark of the layerr CLI presets: end-to-end metrics, or a traced run.

Usage, from the repository root:
    python3 perfbench/run.py --workload <name> [--seed 7] [--seconds 15] [--trace 0|1]

Workloads: sphere-cosine, spheroid-random, blob-shell (see README.md).

The run times the workload's set-up (config, surface, targets) in windows in
this process, and repeats whole measured passes, each in a fresh
interpreter, until ``--seconds`` have passed (at least one pass). Every pass
writes its CSV to a temporary directory under perfbench/results/, which is
checked row by row (see checks.py) and deleted. With ``--trace 1`` one more
pass runs under the per-layer tracer (tracing.py).

Human-readable lines go first; the last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``. A run record with the environment and every sample is written
to perfbench/results/. Exit code: 0 when every output check passed, 1 when
one failed, 2 when the program could not be run at all.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"

# Every run ends within 180 s: no pass starts that is predicted to end past
# this point, and a pass is killed when it reaches it.
DEADLINE_S = 170.0
# Set-up is timed in a window before every pass and after the last one. A
# window repeats it, with the library's caches emptied each time as they are
# in a fresh process, until SETUP_WINDOW_S have passed (at least
# SETUP_MIN_REPS times). A shared host runs interpreter-bound code at one of
# two speeds, in stretches of a fraction of a second to ten seconds or more
# (the blob set-up takes 1.8 ms or 3.4 ms); setup_s is the fastest call of
# the whole run, the cost at full speed, which any added work still raises.
# A spheroid call takes 0.3 s and spans several switches, so its windows run
# at least SETUP_MIN_REPS calls.
SETUP_WINDOW_S = 2.0
SETUP_MIN_REPS = 10
# the traced pass is predicted to take this multiple of an untraced one
TRACE_SLOWDOWN = 2.0


def _git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _run_pass(workload, ini, tmp, trace, started, expected, reference):
    """One measured pass in a child interpreter; returns its timings and checks."""
    from perfbench.checks import check_rows, read_rows

    out = Path(tmp) / f"pass-{time.monotonic_ns()}.csv"
    cmd = [sys.executable, str(BENCH / "worker.py"), workload, str(ini or "-"), str(out), trace]
    timeout = max(1.0, DEADLINE_S - (time.perf_counter() - started))
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        print(f"{workload}: pass killed after {timeout:.0f} s", file=sys.stderr)
        return None
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        print(f"{workload}: pass exited with code {proc.returncode}", file=sys.stderr)
        return None
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    rows = read_rows(out)
    out.unlink()
    result["check"] = check_rows(rows, expected, reference)
    result["point_us"] = []
    for row in rows:
        try:
            result["point_us"].append(float(row["runtime_us"]))
        except (KeyError, TypeError, ValueError):
            pass  # such a row already failed the check
    return result


def _clear_library_caches():
    """Empty every lru_cache in layerr, so set-up pays what a fresh process pays."""
    for name, module in list(sys.modules.items()):
        if name == "layerr" or name.startswith("layerr."):
            for obj in vars(module).values():
                clear = getattr(obj, "cache_clear", None)
                if callable(clear):
                    clear()


def _setup_window(workload, ini, windows):
    """Time set-up repeatedly, append the window's summary; returns a config."""
    from perfbench.stats import summary
    from perfbench.workloads import build_config

    t_start = time.perf_counter()
    samples = []
    while len(samples) < SETUP_MIN_REPS or time.perf_counter() - t_start < SETUP_WINDOW_S:
        _clear_library_caches()
        t0 = time.perf_counter()
        cfg = build_config(workload, ini)
        samples.append(time.perf_counter() - t0)
    windows.append(dict(summary(samples), min=min(samples)))
    return cfg


def _print_metrics(title, metrics):
    print(title)
    for name, (value, unit) in metrics.items():
        print(f"  {name:<34} {value:>16.6g} {unit}")


def main(argv=None) -> int:
    from perfbench.workloads import DEFAULT_SEED, WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()

    if not (SRC / "layerr" / "__init__.py").is_file():
        print(f"no layerr sources under {SRC}; run from a repository checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy
    import layerr
    import layerr.cli  # imported before set-up is timed

    if not Path(layerr.__file__).resolve().is_relative_to(SRC):
        print(f"layerr was imported from {layerr.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    from perfbench.checks import load_reference, serial_values
    from perfbench.stats import latency_summary, summary
    from perfbench.workloads import write_ini

    # library defaults: the worker pool sizes itself
    inherited_threads = os.environ.pop("LAYERR_THREADS", None)
    load_at_start = os.getloadavg()
    RESULTS.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="run-", dir=RESULTS) as tmp:
        ini = write_ini(args.workload, args.seed, Path(tmp))
        setup_windows = []
        expected = len(_setup_window(args.workload, ini, setup_windows).targets)
        reference, ref_source = load_reference(args.workload, args.seed), "stored"
        if reference is None:
            ref_source = "computed by a 1-thread pass in this run (no stored values)"
            timeout = max(1.0, DEADLINE_S - (time.perf_counter() - started))
            try:
                values = serial_values(args.workload, ini, Path(tmp), timeout)
                reference = (values["E_Q"], values["E_EST"])
            except RuntimeError as exc:
                print(exc, file=sys.stderr)
        passes = []
        failures = 0 if reference else 1  # no reference values, nothing to check against
        measure_start = time.perf_counter()
        while not failures and (not passes or time.perf_counter() - measure_start < args.seconds):
            elapsed = time.perf_counter() - started
            if passes:
                last = passes[-1]["wall_s"]
                reserve = TRACE_SLOWDOWN * last if args.trace else 0.0
                if elapsed + 1.3 * last + reserve > DEADLINE_S:
                    break
            result = _run_pass(args.workload, ini, tmp, "0", started, expected, reference)
            if result is None:
                failures += 1
                continue
            passes.append(result)
            _setup_window(args.workload, ini, setup_windows)
        traced = None
        if args.trace and not failures:
            traced = _run_pass(args.workload, ini, tmp, "1", started, expected, reference)
            failures += traced is None

    checks = [p["check"] for p in passes] + ([traced["check"]] if traced else [])
    attempted = sum(c["attempted"] for c in checks) + failures * expected
    failed = sum(c["failed"] for c in checks) + failures * expected
    quality = checks[0] if checks else {"inband": 0, "within_10x_frac": 0.0,
                                        "underestimate_frac": 0.0}
    wall = summary([p["wall_s"] for p in passes]) if passes else None
    setup_s = min(w["min"] for w in setup_windows)
    workers = passes[0]["workers"] if passes else 0

    print(f"workload {args.workload}  seed {args.seed}  targets {expected}  "
          f"passes {len(passes)}  workers {workers}  reference values {ref_source}")
    end_to_end = {}
    if wall:
        end_to_end = {
            "wall_s": (wall["median"], "s"),
            "points_per_s": (expected / wall["median"], "1/s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (summary([p["peak_rss_mb"] for p in passes])["median"], "MB"),
            "within_10x_frac": (quality["within_10x_frac"], "ratio"),
        }
    shown = dict(end_to_end)
    shown["failed_frac"] = (failed / attempted if attempted else 1.0, "ratio")
    shown["underestimate_frac"] = (quality["underestimate_frac"], "ratio")
    shown["inband_rows"] = (quality["inband"], "count")
    _print_metrics("end-to-end (untraced passes)", shown)

    layers = {}
    if traced:
        layers = {k: tuple(v) for k, v in traced["layers"].items()}
        _print_metrics("per-layer (traced pass)", layers)
        overhead = traced["wall_s"] - (wall["median"] if wall else 0.0)
        print(f"  trace overhead: {overhead:.3f} s over the untraced median "
              f"(traced wall {traced['wall_s']:.3f} s)")

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": _git_sha(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "workers": workers,
        "LAYERR_THREADS_inherited": inherited_threads,
        "loadavg_at_start": load_at_start,
        "targets": expected,
        "reference": ref_source,
        "attempted": attempted,
        "failed": failed,
        "quality": quality,
        "setup_s": setup_s,
        "setup_windows": setup_windows,
        "wall_s": wall,
        "peak_rss_mb": [p["peak_rss_mb"] for p in passes],
        "point_latency_us": (
            latency_summary([us for p in passes for us in p["point_us"]]) if passes else None
        ),
        "passes": [{k: v for k, v in p.items() if k != "point_us"} for p in passes],
        "traced": {k: v for k, v in traced.items() if k != "point_us"} if traced else None,
        "end_to_end": end_to_end,
    }
    stamp = time.strftime("%Y%m%dT%H%M%S")
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}.json"
    (RESULTS / name).write_text(json.dumps(record, indent=1) + "\n")

    correct = failed == 0 and bool(passes) and (traced is not None or not args.trace)
    chosen = layers if args.trace else end_to_end
    print(json.dumps({
        "correct": correct,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in chosen.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT))
    sys.exit(main())
