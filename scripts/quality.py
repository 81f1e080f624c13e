"""Estimate quality of the five CLI presets, written to one QUALITY_<n>.json.

Usage, from the repository root:
    python3 scripts/quality.py --out QUALITY_16.json

Each of the five presets runs through layerr.cli.run_experiment into a
temporary directory, from the src/ of this checkout. Per preset the record
holds:

* the row counts and estimate quality that perfbench/checks.py's check_rows
  gives the benchmark: in-band rows (E_Q in [1e-12, 1e-2]), the fraction of
  them with E_EST within 10x of E_Q, and the fraction with E_EST < E_Q;
* min, median and max of E_EST / E_Q over the in-band rows;
* the caller's decision at tol = 1e-6 and 1e-10: misses (E_EST < tol <= E_Q)
  among the rows with E_Q >= tol, and false alarms (E_Q < tol <= E_EST) among
  the rows with E_Q < tol;
* the sha256 of the CSV. Two revisions with equal hashes wrote the same
  bytes, but only on one machine: the last bits of the C library's
  functions differ between hosts.

Rows that carry an error count as failed and enter no statistic.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
import numpy as np  # noqa: E402

from layerr.cli import preset_config, run_experiment  # noqa: E402
from perfbench.checks import BAND_HI, BAND_LO, check_rows, read_rows, row_ok  # noqa: E402

PRESETS = ("sphere-linear", "sphere-cosine", "spheroid-wall", "spheroid-random", "blob-shell")
TOLERANCES = (1e-6, 1e-10)


def quality(rows: list) -> dict:
    """Estimate quality of one preset's CSV rows."""
    checked = check_rows(rows, len(rows))
    good = [(float(r["E_Q"]), float(r["E_EST"])) for r in rows if row_ok(r)]
    ratios = [est / eq for eq, est in good if BAND_LO <= eq <= BAND_HI]
    out = {key: checked[key] for key in ("attempted", "failed", "inband", "within_10x_frac",
                                         "underestimate_frac")}
    out["ratio_in_band"] = (
        {"min": min(ratios), "median": statistics.median(ratios), "max": max(ratios)}
        if ratios else None
    )
    out["decisions"] = {
        f"{tol:g}": {
            "misses": sum(est < tol <= eq for eq, est in good),
            "rows_at_or_above_tol": sum(tol <= eq for eq, _ in good),
            "false_alarms": sum(eq < tol <= est for eq, est in good),
            "rows_below_tol": sum(eq < tol for eq, _ in good),
        }
        for tol in TOLERANCES
    }
    return out


def preset_quality(name: str, workdir: Path) -> dict:
    """Run the preset into workdir and return its quality and CSV hash."""
    path = Path(run_experiment(preset_config(name), str(workdir / f"{name}.csv")))
    out = quality(read_rows(path))
    out["csv_sha256"] = hashlib.sha256(path.read_bytes()).hexdigest()
    return out


def _source() -> str:
    try:
        return subprocess.run(
            ["git", "describe", "--always", "--dirty"], cwd=ROOT, check=True,
            capture_output=True, text=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="the QUALITY_<n>.json to write")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="quality-") as tmp:
        presets = {name: preset_quality(name, Path(tmp)) for name in PRESETS}
    record = {
        "what": "Estimate quality of `layerr preset NAME` per preset, written by "
        "scripts/quality.py; see its docstring for each field.",
        "source": _source(),
        "machine": f"{platform.machine()}, Python {platform.python_version()}, "
        f"numpy {np.__version__}",
        "presets": presets,
    }
    Path(args.out).write_text(json.dumps(record, indent=2) + "\n")
    for name, q in presets.items():
        print(f"{name:16s} in band {q['inband']:4d}  within 10x {q['within_10x_frac']:.3f}  "
              f"failed {q['failed']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
