"""Regenerate the stored E_Q / E_EST reference values the output check uses.

Usage, from the repository root:
    python3 perfbench/make_reference.py

Every workload (and, for the seeded one, every seed in SEEDS) runs one pass
through worker.py with one library thread, JOBS passes at a time; the row
values, rounded to 11 significant digits, go to
perfbench/reference/<workload>.json. Regenerate only when a change to the
estimates or sums is intended, and say so.
"""
from __future__ import annotations

import json
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

# seeds stored for the seeded workload; the default seed is among them
SEEDS = range(32)
JOBS = 2
# one pass of the largest workload stays well under this
PASS_TIMEOUT_S = 600.0


def main() -> int:
    from perfbench.checks import reference_path, serial_values
    from perfbench.workloads import WORKLOADS, write_ini

    results = BENCH / "results"
    results.mkdir(exist_ok=True)
    for workload in sorted(WORKLOADS):
        seeded = WORKLOADS[workload] is not None
        keys = [str(s) for s in SEEDS] if seeded else ["any"]
        with tempfile.TemporaryDirectory(dir=results) as tmp, ThreadPoolExecutor(JOBS) as pool:
            runs = []
            for key in keys:
                workdir = Path(tmp) / key
                workdir.mkdir()
                ini = write_ini(workload, int(key), workdir) if seeded else None
                runs.append(pool.submit(serial_values, workload, ini, workdir, PASS_TIMEOUT_S))
            values = {key: run.result() for key, run in zip(keys, runs)}
        lines = [f'  "{k}": {json.dumps(v, separators=(",", ":"))}' for k, v in values.items()]
        text = (
            f'{{"workload": "{workload}", "seeded": {json.dumps(seeded)}, "values": {{\n'
            + ",\n".join(lines)
            + "\n}}\n"
        )
        reference_path(workload).write_text(text)
        print(f"wrote {reference_path(workload)} ({len(values)} input sets)")
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT))
    sys.exit(main())
