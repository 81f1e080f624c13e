"""Alternating benchmark pairs of two revisions, written to one BENCH_<n>.json.

Usage, from the repository root:
    python3 scripts/bench_pairs.py --out BENCH_8.json [--parent REV] [--change REV]
        [--note TEXT]

Both revisions (default: HEAD~1 and HEAD) are exported with ``git archive``
into fresh directories, and the unmodified ``perfbench/run.py`` of each runs
there, one workload at a time. The workloads and the run length are those
BENCHMARK.json declares. A pair is one run of each revision on one workload;
there are PAIRS pairs per workload, the fewest on which a gain can be claimed;
odd pairs run the change first, even pairs the parent first. Pair 1
runs every workload, then pair 2, and so on, so drift of the host's speed
spreads over all workloads. Every run record that run.py writes is copied
unmodified into ``records``; ``summary`` gives, per workload and end-to-end
metric, the median and quartiles of each side (as perfbench/stats.py computes
them), in how many pairs the change was strictly better, and
``gain_claimable``: at least 9 of 10 pairs won, and the medians apart in the
better direction by more than the parent's q3 - q1. Standard library only.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))
from perfbench.stats import summary  # noqa: E402

SIDES = ("parent", "change")
PAIRS = 10
# a gain is claimable when the change wins CLAIM_WINS of every PAIRS pairs
CLAIM_WINS = 9


def _git(*args) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, check=True, capture_output=True, text=True
    ).stdout.strip()


def export(rev: str, dest: Path) -> Path:
    """The tree of rev, written to dest by git archive."""
    dest.mkdir(parents=True)
    archive = dest.with_suffix(".tar")
    with open(archive, "wb") as fh:
        subprocess.run(["git", "archive", rev], cwd=ROOT, check=True, stdout=fh)
    with tarfile.open(archive) as tar:
        tar.extractall(dest, filter="data")
    archive.unlink()
    return dest


def run_once(tree: Path, workload: str, seconds: float) -> dict:
    """One unmodified perfbench/run.py run in tree; returns the record it wrote."""
    results = tree / "perfbench" / "results"
    before = set(results.glob("*.json")) if results.is_dir() else set()
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seconds", str(seconds)]
    done = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    new = sorted(set(results.glob("*.json")) - before) if results.is_dir() else []
    if len(new) != 1:
        raise SystemExit(
            f"{' '.join(cmd)} in {tree} exited {done.returncode} and wrote {len(new)} "
            f"records:\n{done.stderr[-2000:]}"
        )
    return json.loads(new[0].read_text())


def summarize(records: dict, metrics: list) -> dict:
    """Per workload: run and failed-row counts, and for each end-to-end metric
    both sides' median and quartiles, the pairs the change won, and whether a
    gain is claimable: the change won at least CLAIM_WINS of every PAIRS
    pairs, and its median is better than the parent's by more than the
    parent's interquartile range q3 - q1."""
    out = {}
    for workload, sides in records.items():
        entry = {
            "runs": {side: len(sides[side]) for side in SIDES},
            "failed_rows": {side: sum(r["failed"] for r in sides[side]) for side in SIDES},
        }
        for metric in metrics:
            name = metric["name"]
            values = {side: [r["end_to_end"][name][0] for r in sides[side]] for side in SIDES}
            lower = metric["better"] == "lower"
            won = sum(
                (c < p) if lower else (c > p) for p, c in zip(values["parent"], values["change"])
            )
            entry[name] = {side: summary(values[side]) for side in SIDES}
            entry[name]["change_better_in_pairs"] = f"{won} of {len(values['change'])}"
            parent, change = entry[name]["parent"], entry[name]["change"]
            gap = (parent["median"] - change["median"]) * (1 if lower else -1)
            entry[name]["gain_claimable"] = (
                won >= CLAIM_WINS * len(values["change"]) / PAIRS
                and gap > parent["q3"] - parent["q1"]
            )
        out[workload] = entry
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="the BENCH_<n>.json to write")
    parser.add_argument("--parent", default="HEAD~1")
    parser.add_argument("--change", default="HEAD")
    parser.add_argument("--note", default="", help="what the change is, for the record")
    args = parser.parse_args(argv)
    commits = {"parent": _git("rev-parse", args.parent), "change": _git("rev-parse", args.change)}
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]

    records = {w: {side: [] for side in SIDES} for w in workloads}
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        trees = {side: export(commits[side], Path(tmp) / side) for side in SIDES}
        for pair in range(1, PAIRS + 1):
            order = ("change", "parent") if pair % 2 else ("parent", "change")
            for workload in workloads:
                for side in order:
                    start = time.perf_counter()
                    record = run_once(trees[side], workload, seconds)
                    records[workload][side].append(record)
                    wall = record["end_to_end"].get("wall_s", [float("nan")])[0]
                    print(f"pair {pair} {workload:16s} {side:6s} wall_s {wall:.3f} "
                          f"failed {record['failed']} ({time.perf_counter() - start:.0f} s)",
                          flush=True)

    first = records[workloads[0]]["parent"][0]
    bench = {
        "what": (
            f"Run records of `python3 perfbench/run.py --workload W --seconds {seconds:g}` "
            f"(seed {first['seed']}), copied unmodified, for the parent commit and for the "
            f"change, in run order. Both sides ran from trees exported with git archive, so "
            f"their records read git_sha 'unknown'. Pairs alternate: odd pairs ran the change "
            f"first, even pairs the parent first; {PAIRS} pairs per workload, each pair "
            f"running every workload ({', '.join(workloads)}) before the next pair. Written "
            f"by scripts/bench_pairs.py."
        ),
        "parent_commit": commits["parent"],
        "change_commit": commits["change"],
        "change": args.note,
        "machine": (
            f"{first['nproc']} CPUs, Python {first['python']}, numpy {first['numpy']}"
        ),
        "summary": summarize(records, spec["end_to_end"]),
        "summary_note": "Derived from the records: per-run end_to_end values, median and "
        "quartiles as perfbench/stats.summary computes them; change_better_in_pairs counts "
        "the pairs in which the change was strictly better; gain_claimable is true when it "
        "was better in at least 9 of 10 pairs and its median beats the parent's by more "
        "than the parent's q3 - q1.",
        "records": records,
    }
    Path(args.out).write_text(json.dumps(bench, indent=1) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
