import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "scripts" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def _record(wall, rate, failed=0):
    return {"failed": failed, "end_to_end": {"wall_s": [wall, "s"], "points_per_s": [rate, "1/s"]}}


def test_summary_counts_strict_wins_in_the_better_direction():
    records = {
        "w": {
            "parent": [_record(3.0, 10.0), _record(2.0, 20.0), _record(4.0, 5.0, failed=1)],
            "change": [_record(1.0, 30.0), _record(2.0, 20.0), _record(5.0, 6.0)],
        }
    }
    metrics = [{"name": "wall_s", "better": "lower"}, {"name": "points_per_s", "better": "higher"}]
    out = bench_pairs.summarize(records, metrics)["w"]
    assert out["runs"] == {"parent": 3, "change": 3}
    assert out["failed_rows"] == {"parent": 1, "change": 0}
    # pair 2 is a tie and counts for neither side
    assert out["wall_s"]["change_better_in_pairs"] == "1 of 3"
    assert out["points_per_s"]["change_better_in_pairs"] == "2 of 3"
    assert out["wall_s"]["parent"]["median"] == 3.0
    assert out["wall_s"]["change"]["median"] == 2.0



def _claimable(parent, change):
    """gain_claimable of wall_s (lower is better) and of points_per_s (higher
    is better) for pairs with these values of both metrics."""
    records = {
        "w": {
            "parent": [_record(v, v) for v in parent],
            "change": [_record(v, v) for v in change],
        }
    }
    metrics = [{"name": "wall_s", "better": "lower"}, {"name": "points_per_s", "better": "higher"}]
    out = bench_pairs.summarize(records, metrics)["w"]
    return out["wall_s"]["gain_claimable"], out["points_per_s"]["gain_claimable"]


def test_gain_is_claimable_only_past_nine_wins_and_the_parent_spread():
    parent = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]  # q3 - q1 = 5.5
    # 10 of 10 pairs lower, medians 6 apart: a gain for wall_s, a loss for points_per_s
    assert _claimable(parent, [v - 6.0 for v in parent]) == (True, False)
    assert _claimable(parent, [v + 6.0 for v in parent]) == (False, True)
    # 10 of 10 pairs won, but the medians are only 1 apart, inside the parent's spread
    assert _claimable(parent, [v - 1.0 for v in parent]) == (False, False)
    assert _claimable(parent, [v + 1.0 for v in parent]) == (False, False)
    # 9 of 10 pairs won past the spread is enough; 8 of 10 is not
    nine = [v - 20.0 for v in parent[:9]] + [parent[9] + 1.0]
    eight = [v - 20.0 for v in parent[:8]] + [v + 1.0 for v in parent[8:]]
    assert _claimable(parent, nine) == (True, False)
    assert _claimable(parent, eight) == (False, False)
    # a tie is not a win
    assert _claimable(parent, parent) == (False, False)

def test_main_runs_the_declared_workloads_for_ten_alternating_pairs(tmp_path, monkeypatch):
    import json

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    calls = []

    def fake_run_once(tree, workload, seconds):
        calls.append((tree.name, workload, seconds))
        record = _record(1.0, 1.0)
        record.update(seed=7, nproc=1, python="3", numpy="1")
        for metric in spec["end_to_end"]:
            record["end_to_end"].setdefault(metric["name"], [1.0, metric["unit"]])
        return record

    monkeypatch.setattr(bench_pairs, "_git", lambda *args: f"sha-of-{args[-1]}")
    monkeypatch.setattr(bench_pairs, "export", lambda rev, dest: dest)
    monkeypatch.setattr(bench_pairs, "run_once", fake_run_once)
    out = tmp_path / "BENCH_x.json"
    assert bench_pairs.main(["--out", str(out)]) == 0

    names = [w["name"] for w in spec["workloads"]]
    assert {seconds for _, _, seconds in calls} == {spec["run_seconds"]}
    assert len(calls) == 2 * bench_pairs.PAIRS * len(names) and bench_pairs.PAIRS >= 10
    # pair 1 starts with the change, pair 2 with the parent
    assert calls[0][:2] == ("change", names[0]) and calls[2 * len(names)][:2] == ("parent", names[0])
    bench = json.loads(out.read_text())
    assert bench["parent_commit"] == "sha-of-HEAD~1" and bench["change_commit"] == "sha-of-HEAD"
    assert list(bench["records"]) == names
    assert bench["summary"][names[0]]["runs"] == {"parent": 10, "change": 10}
