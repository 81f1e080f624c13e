import csv
import math
import os

import numpy as np
import pytest

from layerr.cli import (
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_VALIDATION,
    load_config,
    main,
    preset_config,
    run_experiment,
)
from layerr.estimates import sphere_simplified

CONFIG_TEMPLATE = """
[surface]
shape = sphere
a = 1.0
theta_map = cosine

[kernel]
kind = harmonic_single

[density]
kind = unit

[grid]
n_t = 12
n_phi = 24

[targets]
generator = explicit
points = 1.5, 0, 0; 0, 0, 1.3

[output]
path = {out}
"""


def write_config(tmp_path, body=None, out="out.csv"):
    cfg = tmp_path / "exp.ini"
    cfg.write_text((body or CONFIG_TEMPLATE).format(out=tmp_path / out))
    return str(cfg)


def test_run_writes_expected_columns(tmp_path):
    cfg = write_config(tmp_path)
    assert main(["run", cfg]) == EXIT_OK
    with open(tmp_path / "out.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2
    assert set(rows[0]) == {
        "x", "y", "z", "distance_to_grid", "E_Q", "E_EST", "E_TZ", "E_GL",
        "tz_skipped", "t_star", "phi_star", "runtime_us", "error",
    }
    assert rows[0]["error"] == ""
    assert float(rows[0]["E_EST"]) == float(rows[0]["E_TZ"]) + float(rows[0]["E_GL"])
    assert rows[1]["tz_skipped"] == "true"  # axis target skips the azimuthal part
    assert rows[0]["runtime_us"] == "0"  # deterministic by default


def test_run_byte_identical(tmp_path):
    cfg = write_config(tmp_path)
    main(["run", cfg, "--out", str(tmp_path / "a.csv")])
    main(["run", cfg, "--out", str(tmp_path / "b.csv")])
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_random_targets_reproducible(tmp_path):
    body = CONFIG_TEMPLATE.replace(
        "generator = explicit\npoints = 1.5, 0, 0; 0, 0, 1.3",
        "generator = random\ncount = 5\nshell = 1.1,1.8\nseed = 42",
    )
    cfg = write_config(tmp_path, body)
    main(["run", cfg, "--out", str(tmp_path / "a.csv")])
    main(["run", cfg, "--out", str(tmp_path / "b.csv")])
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_per_point_failure_recorded(tmp_path):
    # second target sits exactly on a grid node: its row carries the error
    from layerr.quadrature import grid
    from layerr.surfaces import Sphere

    s = Sphere(1.0)
    g = grid(12, 24)
    node = np.real(s.position(s.theta_map.theta(g.t_rule.nodes[2]), g.phi_rule.nodes[3]))
    body = CONFIG_TEMPLATE.replace(
        "points = 1.5, 0, 0; 0, 0, 1.3",
        f"points = 1.5, 0, 0; {node[0]}, {node[1]}, {node[2]}",
    )
    cfg = write_config(tmp_path, body)
    assert main(["run", cfg]) == EXIT_OK
    with open(tmp_path / "out.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert rows[0]["error"] == ""
    assert rows[1]["error"] != ""
    assert rows[1]["E_EST"] == ""


def test_missing_config_exits_one(tmp_path, capsys):
    assert main(["run", str(tmp_path / "nope.ini")]) == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


def test_bad_generator_exits_one(tmp_path, capsys):
    body = CONFIG_TEMPLATE.replace("generator = explicit", "generator = warp")
    cfg = write_config(tmp_path, body)
    assert main(["run", cfg]) == EXIT_CONFIG
    assert "generator" in capsys.readouterr().err


def test_small_grid_rejected(tmp_path):
    body = CONFIG_TEMPLATE.replace("n_t = 12", "n_t = 3")
    cfg = write_config(tmp_path, body)
    assert main(["run", cfg]) == EXIT_CONFIG


def test_nodes_command(capsys):
    assert main(["nodes", "--rule", "tz", "--n", "4"]) == EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 4
    node, weight = lines[1].split()
    assert float(node) == pytest.approx(math.pi / 2)
    assert float(weight) == pytest.approx(math.pi / 2)


def test_roots_check_passes(capsys):
    assert main(["roots-check", "--surface", "sphere", "--samples", "25", "--seed", "2"]) == EXIT_OK
    assert "PASS" in capsys.readouterr().out
    assert main(["roots-check", "--surface", "spheroid", "--samples", "15", "--seed", "2"]) == EXIT_OK
    assert main(["roots-check", "--surface", "blob", "--samples", "8", "--seed", "2"]) == EXIT_OK


def test_roots_check_bad_surface(capsys):
    assert main(["roots-check", "--surface", "torus"]) == EXIT_CONFIG


def test_sphere_sweep_columns(tmp_path):
    out = str(tmp_path / "sweep.csv")
    assert main(["sphere-sweep", "--n", "10", "--distances", "0.2,-0.2", "--out", out]) == EXIT_OK
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert [float(r["d"]) for r in rows] == [0.2, -0.2]
    for row in rows:
        assert float(row["E_Q_min"]) <= float(row["E_Q_max"])
        zeta = 1.0 + float(row["d"])
        assert float(row["E_simplified"]) == pytest.approx(
            sphere_simplified(zeta, 1.0, 0.5, 20), rel=1e-12
        )


def test_presets_enumerate_reference_experiments():
    names = ["sphere-linear", "sphere-cosine", "spheroid-wall", "spheroid-random", "blob-shell"]
    for name in names:
        cfg = preset_config(name)
        assert len(cfg.targets) > 0
        assert cfg.n_t >= 30 and cfg.n_phi == 2 * cfg.n_t
    assert preset_config("sphere-linear").surface.theta_map.kind == "linear"
    assert preset_config("spheroid-random").kernel.kind == "harmonic_double"
    assert preset_config("blob-shell").kernel.omega == pytest.approx(3.0)
    with pytest.raises(Exception):
        preset_config("moebius")


def read_rows(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


def test_on_surface_target_recorded_not_fatal(tmp_path):
    # between two grid nodes on the sphere the polar root is real, so the
    # Gauss-Legendre kernel is undefined there: that row fails, the run goes on
    body = CONFIG_TEMPLATE.replace("n_t = 12\nn_phi = 24", "n_t = 20\nn_phi = 40").replace(
        "points = 1.5, 0, 0; 0, 0, 1.3", "points = 1.0, 1e-9, 0; 1.5, 0, 0"
    )
    assert main(["run", write_config(tmp_path, body)]) == EXIT_OK
    rows = read_rows(tmp_path / "out.csv")
    assert len(rows) == 2
    assert rows[0]["error"] != "" and rows[0]["E_EST"] == ""
    assert rows[1]["error"] == ""
    assert math.isfinite(float(rows[1]["E_EST"])) and math.isfinite(float(rows[1]["E_Q"]))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("kind", ["harmonic_single", "harmonic_double", "mod_helmholtz_single"])
def test_nonfinite_targets_get_error_rows(tmp_path, kind):
    body = CONFIG_TEMPLATE.replace("kind = harmonic_single", f"kind = {kind}").replace(
        "points = 1.5, 0, 0; 0, 0, 1.3", "points = nan, 0, 0; inf, 0, 0; 0, -inf, 1; 1.5, 0, 0"
    )
    assert main(["run", write_config(tmp_path, body)]) == EXIT_OK
    rows = read_rows(tmp_path / "out.csv")
    assert [r["error"] != "" for r in rows] == [True, True, True, False]
    assert all("not finite" in r["error"] for r in rows[:3])


@pytest.mark.parametrize(
    "argv",
    [
        ["sphere-sweep", "--n", "x", "--distances", "0.1"],
        ["sphere-sweep", "--n", "0", "--distances", "0.1"],
        ["sphere-sweep", "--n", "4", "--distances", "0.1", "--p", "0"],
        ["nodes", "--rule", "gl", "--n", "0"],
        ["roots-check", "--surface", "sphere", "--a", "-1"],
    ],
)
def test_bad_command_line_values_exit_one(argv, capsys):
    assert main(argv) == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


def test_bad_theta_map_exits_one(tmp_path, capsys):
    body = CONFIG_TEMPLATE.replace("theta_map = cosine", "theta_map = chebyshev")
    assert main(["run", write_config(tmp_path, body)]) == EXIT_CONFIG
    assert "theta map" in capsys.readouterr().err


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_pole_target_recorded_not_fatal(tmp_path):
    # at the pole the polar root lies on the pole itself, where the cosine
    # map's Jacobian is infinite: that row fails, the run goes on
    body = CONFIG_TEMPLATE.replace("n_t = 12\nn_phi = 24", "n_t = 20\nn_phi = 40").replace(
        "points = 1.5, 0, 0; 0, 0, 1.3", "points = 0, 0, 1; 1.5, 0, 0"
    )
    assert main(["run", write_config(tmp_path, body)]) == EXIT_OK
    rows = read_rows(tmp_path / "out.csv")
    assert rows[0]["error"] != "" and rows[0]["E_EST"] == ""
    assert rows[1]["error"] == "" and math.isfinite(float(rows[1]["E_EST"]))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_on_axis_blob_target_gets_finite_row(tmp_path):
    # the azimuthal anchor falls back to a tangent root far off the real
    # axis, where the blob's evaluation overflows: the trapezoidal part is
    # skipped instead of turning the row into NaN
    body = (
        CONFIG_TEMPLATE.replace("shape = sphere", "shape = blob")
        .replace("n_t = 12\nn_phi = 24", "n_t = 25\nn_phi = 25")
        .replace("points = 1.5, 0, 0; 0, 0, 1.3", "points = 0, 0, -2.785283509481811; 1.5, 0, 0")
    )
    assert main(["run", write_config(tmp_path, body)]) == EXIT_OK
    rows = read_rows(tmp_path / "out.csv")
    assert [r["error"] for r in rows] == ["", ""]
    for r in rows:
        assert all(math.isfinite(float(r[c])) for c in ("E_Q", "E_EST", "E_TZ", "E_GL"))
    assert rows[0]["tz_skipped"] == "true" and float(rows[0]["E_TZ"]) == 0.0


@pytest.mark.parametrize("key", ["n_t", "n_phi"])
def test_missing_grid_key_exits_one(tmp_path, capsys, key):
    body = CONFIG_TEMPLATE.replace(f"{key} = ", f"# {key} = ")
    assert main(["run", write_config(tmp_path, body)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config error" in err and key in err
