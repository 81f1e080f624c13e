"""Output checks and estimate-quality arithmetic on a preset CSV.

A row fails when it carries an ``error``, when a numeric column is not a
finite number, or when its ``E_EST`` or ``E_Q`` differs from the stored
reference value beyond the tolerances below. Missing rows fail too.

Tolerances. ``E_EST`` is a product of exponentials of log-space sums, so it
is held to a relative 1e-8. ``E_Q`` is the difference of two quadrature sums
of size O(1-10); summation order alone moves it by ~1e-13, so it gets an
absolute floor of 1e-11 on top of the relative 1e-8. Stored values keep 11
significant digits, well inside both.

Reference values are stored for the seeds in ``reference/``. For any other
seed, ``serial_values`` computes them in the run from one pass with a single
library thread; that catches results that depend on the worker pool, but not
an error shared by both paths.
"""
from __future__ import annotations

import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
REFERENCE_DIR = BENCH / "reference"

E_EST_RTOL = 1e-8
E_Q_RTOL = 1e-8
E_Q_ATOL = 1e-11

# the acceptance suite's band for comparing estimates with measured errors
BAND_LO, BAND_HI = 1e-12, 1e-2

NUMERIC_COLUMNS = (
    "x", "y", "z", "distance_to_grid", "E_Q", "E_EST", "E_TZ", "E_GL",
    "t_star", "phi_star", "runtime_us",
)


def read_rows(path) -> list:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def reference_path(workload: str) -> Path:
    return REFERENCE_DIR / f"{workload}.json"


def load_reference(workload: str, seed: int):
    """Stored (E_Q, E_EST) lists for this workload and seed, or None."""
    data = json.loads(reference_path(workload).read_text())
    key = str(seed) if data["seeded"] else "any"
    entry = data["values"].get(key)
    return None if entry is None else (entry["E_Q"], entry["E_EST"])


def serial_values(workload: str, ini, workdir: Path, timeout: float) -> dict:
    """E_Q and E_EST of one 1-thread pass in a fresh interpreter, rounded as stored.

    Raises RuntimeError when the pass fails or a row carries an error.
    """
    out = Path(workdir) / f"{workload}-serial.csv"
    env = dict(os.environ, LAYERR_THREADS="1")
    cmd = [sys.executable, str(BENCH / "worker.py"), workload, str(ini or "-"), str(out), "0"]
    try:
        subprocess.run(cmd, cwd=BENCH.parent, env=env, check=True, capture_output=True,
                       timeout=timeout)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        raise RuntimeError(f"{workload}: the 1-thread pass failed: {exc}") from exc
    rows = read_rows(out)
    out.unlink()
    if any(r["error"] for r in rows):
        raise RuntimeError(f"{workload}: a row of the 1-thread pass carries an error")
    return {
        col: [float(f"{float(r[col]):.10e}") for r in rows] for col in ("E_Q", "E_EST")
    }


def _close(value: float, ref: float, rtol: float, atol: float) -> bool:
    return abs(value - ref) <= rtol * abs(ref) + atol


def row_ok(row: dict, ref_eq=None, ref_est=None) -> bool:
    """True when a row carries no error, is finite and matches its reference."""
    if row.get("error"):
        return False
    try:
        vals = {k: float(row[k]) for k in NUMERIC_COLUMNS}
    except (KeyError, TypeError, ValueError):
        return False
    if not all(math.isfinite(v) for v in vals.values()):
        return False
    if vals["E_Q"] < 0 or vals["E_EST"] < 0:
        return False
    if ref_eq is not None and not _close(vals["E_Q"], ref_eq, E_Q_RTOL, E_Q_ATOL):
        return False
    if ref_est is not None and not _close(vals["E_EST"], ref_est, E_EST_RTOL, 1e-300):
        return False
    return True


def check_rows(rows: list, expected: int, reference=None) -> dict:
    """Attempted and failed row counts, plus estimate quality on good rows.

    ``reference`` is an (E_Q list, E_EST list) pair in row order, or None
    when no values are stored for these inputs.
    """
    if reference is not None and len(reference[0]) != expected:
        raise ValueError("stored reference does not match the workload size")
    failed = max(0, expected - len(rows))
    inband = within = under = 0
    for i, row in enumerate(rows[:expected]):
        ref_eq, ref_est = (reference[0][i], reference[1][i]) if reference else (None, None)
        if not row_ok(row, ref_eq, ref_est):
            failed += 1
            continue
        eq, est = float(row["E_Q"]), float(row["E_EST"])
        if not BAND_LO <= eq <= BAND_HI:
            continue
        inband += 1
        ratio = est / eq
        if 0.1 <= ratio <= 10.0:
            within += 1
        if ratio < 1.0:
            under += 1
    failed += max(0, len(rows) - expected)
    attempted = max(expected, len(rows))
    return {
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "inband": inband,
        "within_10x_frac": within / inband if inband else 0.0,
        "underestimate_frac": under / inband if inband else 0.0,
    }
