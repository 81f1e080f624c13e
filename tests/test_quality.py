import dataclasses
import hashlib
import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("quality", ROOT / "scripts" / "quality.py")
quality = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(quality)
# the script puts the repository root on the path
from perfbench.checks import NUMERIC_COLUMNS  # noqa: E402


def _row(eq, est, error=""):
    row = {c: "0.5" for c in NUMERIC_COLUMNS}
    row.update(E_Q=repr(eq), E_EST=repr(est), error=error)
    return row


def test_quality_counts_band_ratios_misses_and_false_alarms():
    rows = [
        _row(1e-5, 1e-7),  # in band, under; a miss at 1e-6
        _row(1e-8, 1e-5),  # in band; a false alarm at 1e-6
        _row(1e-4, 2e-4),  # in band, within 10x
        _row(1e-13, 1e-9),  # below the band; a false alarm at 1e-10 only
        _row(1.0, 1.0, error="EvaluationError: no root"),  # failed, counted nowhere else
    ]
    q = quality.quality(rows)
    assert (q["attempted"], q["failed"], q["inband"]) == (5, 1, 3)
    assert q["within_10x_frac"] == 1 / 3 and q["underestimate_frac"] == 1 / 3
    assert q["ratio_in_band"] == {"min": 1e-7 / 1e-5, "median": 2.0, "max": 1e-5 / 1e-8}
    assert q["decisions"]["1e-06"] == {
        "misses": 1, "rows_at_or_above_tol": 2, "false_alarms": 1, "rows_below_tol": 2,
    }
    assert q["decisions"]["1e-10"] == {
        "misses": 0, "rows_at_or_above_tol": 3, "false_alarms": 1, "rows_below_tol": 1,
    }


def test_main_records_a_small_preset(tmp_path, monkeypatch):
    preset = quality.preset_config("spheroid-wall")
    small = dataclasses.replace(preset, n_t=8, n_phi=16, targets=preset.targets[::100])
    monkeypatch.setattr(quality, "PRESETS", ("spheroid-wall",))
    monkeypatch.setattr(quality, "preset_config", lambda name: small)
    out = tmp_path / "QUALITY_x.json"
    assert quality.main(["--out", str(out)]) == 0

    record = json.loads(out.read_text())
    assert list(record["presets"]) == ["spheroid-wall"]
    q = record["presets"]["spheroid-wall"]
    assert (q["attempted"], q["failed"]) == (16, 0)
    for d in q["decisions"].values():
        assert d["rows_at_or_above_tol"] + d["rows_below_tol"] == 16
    # the hash is that of the CSV the preset writes
    csv_path = quality.run_experiment(small, str(tmp_path / "again.csv"))
    assert q["csv_sha256"] == hashlib.sha256(Path(csv_path).read_bytes()).hexdigest()
