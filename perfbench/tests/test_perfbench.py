"""Tests of the benchmark itself: tracer hygiene, run layout, metric arithmetic.

Run from the repository root:
    python3 -m pytest perfbench/tests -q
"""
import csv
import json
import math
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import layerr.cli as cli  # noqa: E402
import layerr.estimates as est  # noqa: E402
import layerr.potentials as pot  # noqa: E402
from perfbench import checks, run, stats, workloads  # noqa: E402
from perfbench.tracing import Tracer  # noqa: E402

TINY_INI = """\
[surface]
shape = blob

[kernel]
kind = mod_helmholtz_single
omega = 3.0

[density]
kind = paper

[grid]
n_t = 8
n_phi = 16

[targets]
generator = explicit
points = 1.3, 0.1, 0.2; 0.2, -1.2, 0.4; 0.1, 0.2, 1.5

[output]
path = {out}
"""

PATCHED = [
    (pot, "potential_quadrature"),
    (pot, "nearest_grid_node"),
    (cli, "full_estimate"),
    (cli, "csv"),
    (est, "newton_root"),
    (est, "axisym_phi_root"),
    (est, "sphere_theta_root"),
]


def _per_layer_names():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"] for m in spec["per_layer"]}


def _tiny_config(tmp_path):
    ini = tmp_path / "tiny.ini"
    ini.write_text(TINY_INI.format(out=tmp_path / "unused.csv"))
    return cli.load_config(str(ini))


def test_tracer_restores_every_patched_attribute(tmp_path):
    cfg = _tiny_config(tmp_path)
    before = {(mod.__name__, name): getattr(mod, name) for mod, name in PATCHED}
    with Tracer(cfg) as tracer:
        assert cli.full_estimate is not before[("layerr.cli", "full_estimate")]
        assert "eval_sph" in vars(cfg.surface)
        cli.run_experiment(cfg, str(tmp_path / "traced.csv"))
    for mod, name in PATCHED:
        assert getattr(mod, name) is before[(mod.__name__, name)], name
    assert "eval_sph" not in vars(cfg.surface)
    assert "eval_t" not in vars(cfg.surface)
    metrics = tracer.metrics(workers=1)
    assert set(metrics) == _per_layer_names()
    assert metrics["potentials.nearest_calls"][0] == 3
    assert metrics["roots.anchor_newton_calls"][0] > 0
    assert metrics["surfaces.eval_calls"][0] > 0
    # base 8x16 and reference 40x80 tables, each built at least once
    assert metrics["potentials.grid_nodes_built"][0] >= 8 * 16 + 40 * 80


def test_tracer_restores_after_an_exception(tmp_path):
    cfg = _tiny_config(tmp_path)
    before = [getattr(mod, name) for mod, name in PATCHED]
    with pytest.raises(RuntimeError):
        with Tracer(cfg):
            raise RuntimeError("boom")
    assert [getattr(mod, name) for mod, name in PATCHED] == before
    assert "eval_sph" not in vars(cfg.surface)


def test_traced_run_keeps_csvs_out_of_the_repo(tmp_path, monkeypatch, capsys):
    repo_csvs = set(ROOT.rglob("*.csv"))
    monkeypatch.delenv("LAYERR_THREADS", raising=False)
    monkeypatch.setattr(workloads, "WORKLOADS", {"tiny": TINY_INI})
    monkeypatch.setattr(checks, "load_reference", lambda workload, seed: None)
    monkeypatch.setattr(run, "RESULTS", tmp_path / "results")
    code = run.main(["--workload", "tiny", "--seconds", "0", "--trace", "1"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 0 and result["correct"], result
    assert result["attempted"] == 6 and result["failed"] == 0
    assert set(result["metrics"]) == _per_layer_names()
    assert set(ROOT.rglob("*.csv")) == repo_csvs
    # the temporary directory is gone; only the run record is left
    left = list((tmp_path / "results").iterdir())
    assert len(left) == 1 and left[0].suffix == ".json"
    record = json.loads(left[0].read_text())
    # no stored values: the rows were checked against a 1-thread pass
    assert record["reference"].startswith("computed")
    assert len(record["setup_windows"]) == 2


def test_run_fails_when_no_reference_can_be_made(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(workloads, "WORKLOADS", {"tiny": TINY_INI})
    monkeypatch.setattr(checks, "load_reference", lambda workload, seed: None)

    def broken(*args):
        raise RuntimeError("the 1-thread pass failed")

    monkeypatch.setattr(checks, "serial_values", broken)
    monkeypatch.setattr(run, "RESULTS", tmp_path / "results")
    code = run.main(["--workload", "tiny", "--seconds", "0"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1 and not result["correct"]
    assert result["failed"] == result["attempted"] == 3


def test_spheroid_ini_mirrors_the_preset(tmp_path):
    ini = workloads.write_ini("spheroid-random", workloads.DEFAULT_SEED, tmp_path)
    from_ini = workloads.build_config("spheroid-random", ini)
    preset = cli.preset_config("spheroid-random")
    assert (from_ini.n_t, from_ini.n_phi) == (preset.n_t, preset.n_phi)
    assert from_ini.kernel == preset.kernel and from_ini.density == preset.density
    assert from_ini.cone == preset.cone
    assert (from_ini.surface.a, from_ini.surface.b) == (preset.surface.a, preset.surface.b)
    assert (from_ini.targets == preset.targets).all()


ROW_COLUMNS = list(cli.CSV_COLUMNS)


def _row(eq, est, error=""):
    row = {c: "0.5" for c in ROW_COLUMNS}
    row.update(E_Q=repr(eq), E_EST=repr(est), tz_skipped="false", error=error)
    if error:
        row.update({c: "" for c in ROW_COLUMNS if c not in ("x", "y", "z", "runtime_us", "error")})
    return row


def test_metric_arithmetic_on_a_hand_made_csv(tmp_path):
    rows = [
        _row(1e-6, 2e-6),  # in band, within 10x, over
        _row(1e-6, 5e-7),  # in band, within 10x, under
        _row(1e-6, 5e-8),  # in band, beyond 10x, under
        _row(1e-3, 2e-1),  # in band, beyond 10x, over
        _row(1e-13, 1e-12),  # below the band
        _row(5e-2, 5e-2),  # above the band
        _row(1e-6, 1e-6, error="Newton failed"),  # failed: error column
        _row(float("nan"), 1e-6),  # failed: not finite
    ]
    path = tmp_path / "hand.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=ROW_COLUMNS)
        writer.writeheader()
        writer.writerows(rows)
    got = checks.check_rows(checks.read_rows(path), expected=9)
    assert got["attempted"] == 9
    assert got["failed"] == 3  # error row, NaN row, one missing row
    assert got["failed_frac"] == pytest.approx(3 / 9)
    assert got["inband"] == 4
    assert got["within_10x_frac"] == pytest.approx(2 / 4)
    assert got["underestimate_frac"] == pytest.approx(2 / 4)


def test_reference_mismatch_fails_the_row():
    row = _row(1e-6, 2e-6)
    assert checks.row_ok(row, 1e-6, 2e-6)
    assert checks.row_ok(row, 1e-6 + 5e-12, 2e-6 * (1 + 5e-9))  # inside the tolerances
    assert not checks.row_ok(row, 1e-6, 2e-6 * (1 + 1e-6))
    assert not checks.row_ok(row, 1e-6 + 1e-9, 2e-6)
    got = checks.check_rows([row], expected=1, reference=([1e-6], [3e-6]))
    assert got["failed"] == 1 and got["inband"] == 0


def test_stored_reference_matches_the_workload_sizes():
    sizes = {"sphere-cosine": 1600, "spheroid-random": 300, "blob-shell": 1152}
    for workload, size in sizes.items():
        ref = checks.load_reference(workload, workloads.DEFAULT_SEED)
        assert ref is not None and len(ref[0]) == len(ref[1]) == size
        assert all(math.isfinite(v) for v in ref[0] + ref[1])


def test_latency_tail_has_ten_samples_beyond_it():
    got = stats.latency_summary([float(i) for i in range(300)])
    assert got["n"] == 300 and got["tail_q"] == 95.0
    assert stats.latency_summary(list(range(1600)))["tail_q"] == 99.0
