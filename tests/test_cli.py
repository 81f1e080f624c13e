import configparser
import csv
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from layerr import cli
from layerr.cli import (
    _PRESETS,
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_VALIDATION,
    load_config,
    main,
    _unit_direction,
    preset_config,
    roots_check,
    run_experiment,
    sphere_sweep,
)
from layerr.estimates import full_estimate, sphere_simplified
from layerr import potentials
from layerr.potentials import harmonic_single, measured_error, surface_scale, unit_density
from layerr.quadrature import grid
from layerr.roots import (
    VAR_PHI,
    VAR_THETA,
    RootResult,
    axisym_phi_root,
    newton_root,
    phi_line,
    sphere_theta_root,
    theta_line,
)
from layerr.surfaces import Sphere, Spheroid, paper_blob

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


def _draw_one_at_a_time(surface, n_t, n_phi, count, shell, seed):
    """The random generator's loop before it located its candidates in
    blocks: draw one candidate, scan it alone, keep it or draw the next."""
    rng = np.random.default_rng(seed)
    g = grid(n_t, n_phi)
    scale = surface_scale(surface, g)
    pts = []
    while len(pts) < count:
        u, v, w = rng.random(3)
        theta = math.acos(1.0 - 2.0 * u)
        phi = 2.0 * math.pi * v
        s = shell[0] + (shell[1] - shell[0]) * w
        x = s * np.real(surface.position(theta, phi))
        if potentials.nearest_grid_node(surface, g, x)[4] > 1e-3 * scale:
            pts.append(x)
    return np.array(pts)


def test_random_targets_match_the_one_at_a_time_draw():
    cfg = preset_config("spheroid-random")
    want = _draw_one_at_a_time(cfg.surface, cfg.n_t, cfg.n_phi, 300, (1.02, 2.0), 7)
    assert cfg.targets.shape == (300, 3)
    assert cfg.targets.tobytes() == want.tobytes()


@pytest.mark.parametrize("radius, res", [(1.46, 24), (1.46, 16), (0.7, 7), (2.0, 1)])
def test_shell_targets_match_the_per_point_formula(radius, res):
    # the shell generator's loop before it built the shell from outer products
    want = np.array([
        radius * _unit_direction(
            math.acos(1.0 - 2.0 * (i + 0.5) / res), 2.0 * math.pi * (j + 0.5) / (2 * res)
        )
        for i in range(res)
        for j in range(2 * res)
    ])
    sec = {"generator": "shell", "radius": radius, "resolution": res}
    targets = cli._generate_targets(paper_blob(), 8, 16, sec)
    assert targets.shape == (2 * res * res, 3)
    assert targets.tobytes() == want.tobytes()


def test_run_peak_is_its_larger_phase(tmp_path):
    # blob-shell on a 20x40 grid: the estimate's working set is freed before
    # the measured error builds the 5x table, so a run's traced peak is that
    # of its larger phase, not the two stacked; each phase starts uncached
    preset = preset_config("blob-shell")
    cfg = cli.ExperimentConfig(
        preset.surface, preset.kernel, preset.density, 20, 40, preset.targets
    )
    g = grid(cfg.n_t, cfg.n_phi)
    args = (cfg.surface, cfg.kernel, cfg.density, g, cfg.targets)

    def traced_peak(call):
        potentials._grid_tables.cache_clear()
        tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            call()
            return tracemalloc.get_traced_memory()[1] - before
        finally:
            if not tracing:
                tracemalloc.stop()

    estimate = traced_peak(lambda: full_estimate(*args))
    measured = traced_peak(lambda: measured_error(*args))
    run = traced_peak(lambda: run_experiment(cfg, str(tmp_path / "out.csv")))
    assert run <= 1.1 * max(estimate, measured)


def test_run_caches_the_base_grid_tables_only(tmp_path):
    # the sums stream the 5x reference grid, so after a run the one cached
    # table is the base grid's, and the run keeps less than five times one
    # copy of its node positions, 3 x N doubles
    cfg = preset_config("sphere-cosine")
    g = grid(cfg.n_t, cfg.n_phi)
    potentials._grid_tables.cache_clear()
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        run_experiment(cfg, str(tmp_path / "out.csv"))
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        if not tracing:
            tracemalloc.stop()
    cached = potentials._grid_tables.cache_info()
    potentials._grid_tables(cfg.surface, g)
    assert cached.currsize == 1
    assert potentials._grid_tables.cache_info().hits == cached.hits + 1
    assert held < 5 * 3 * g.n_t * g.n_phi * 8


def test_random_targets_redraw_rejected_candidates_in_rounds(tmp_path, monkeypatch):
    # a scan that puts every third candidate on a node (distance 0) makes the
    # generator redraw: one block scan per round, of the candidates still missing
    scan = potentials.nearest_grid_node
    rounds = []

    def on_node_every_third(surface, g, x):
        found = scan(surface, g, x)
        first = sum(rounds)
        rounds.append(len(potentials.target_block(x)))
        dist = np.where(np.arange(first, sum(rounds)) % 3 == 1, 0.0, found[4])
        return (*found[:4], dist if np.ndim(x) > 1 else float(dist[0]))

    monkeypatch.setattr(potentials, "nearest_grid_node", on_node_every_third)
    body = CONFIG_TEMPLATE.replace(
        "generator = explicit\npoints = 1.5, 0, 0; 0, 0, 1.3",
        "generator = random\ncount = 20\nshell = 1.1,1.8\nseed = 42",
    )
    targets = load_config(write_config(tmp_path, body)).targets
    # candidates 1, 4, ..., 19 of the first round, 22 and 25 of the second and
    # 28 of the third are rejected
    assert rounds == [20, 7, 2, 1]
    rounds.clear()
    want = _draw_one_at_a_time(Sphere(1.0), 12, 24, 20, (1.1, 1.8), 42)
    assert len(rounds) == 30
    assert targets.tobytes() == want.tobytes()


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


def test_malformed_config_exits_one(tmp_path, capsys):
    cfg = write_config(tmp_path, "n_t = 12\n" + CONFIG_TEMPLATE)
    assert main(["run", cfg]) == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


def test_undecodable_config_exits_one(tmp_path, capsys):
    cfg = tmp_path / "bad.ini"
    cfg.write_bytes(CONFIG_TEMPLATE.format(out=tmp_path / "out.csv").encode() + b"# \xff\n")
    assert main(["run", str(cfg)]) == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["preset", "sphere-cosine"],
        ["sphere-sweep", "--n", "4", "--distances", "0.5"],
    ],
    ids=["preset", "sphere-sweep"],
)
def test_unwritable_output_exits_one(tmp_path, capsys, argv):
    out = str(tmp_path / "missing_dir" / "x.csv")
    assert main(argv + ["--out", out]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config error" in err and out in err


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize(
    "argv",
    [
        ["preset", "sphere-cosine"],
        ["sphere-sweep", "--n", "4", "--distances", "0.5"],
    ],
    ids=["preset", "sphere-sweep"],
)
def test_failed_write_exits_one(capsys, argv):
    # /dev/full opens, but every write to it fails with ENOSPC
    assert main(argv + ["--out", "/dev/full"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config error: cannot write output '/dev/full'" in err


def test_bad_generator_exits_one(tmp_path, capsys):
    body = CONFIG_TEMPLATE.replace("generator = explicit", "generator = warp")
    cfg = write_config(tmp_path, body)
    assert main(["run", cfg]) == EXIT_CONFIG
    assert "generator" in capsys.readouterr().err


def test_small_grid_rejected(tmp_path):
    body = CONFIG_TEMPLATE.replace("n_t = 12", "n_t = 3")
    cfg = write_config(tmp_path, body)
    assert main(["run", cfg]) == EXIT_CONFIG


@pytest.mark.parametrize("grid_lines", ["n_t = 12\nn_phi = 0", "n_t = 0\nn_phi = 24"],
                         ids=["n_phi", "n_t"])
@pytest.mark.parametrize("targets", [
    "generator = plane\nresolution = 3",
    "generator = radial-sweep\ndistances = 0.1",
    "generator = random\ncount = 3",
    "generator = shell\nresolution = 2",
    "generator = explicit\npoints = 1.5, 0, 0",
], ids=lambda t: t.split("\n")[0].split()[-1])
def test_grid_is_checked_before_the_targets(tmp_path, capsys, grid_lines, targets):
    # every generator reads the grid, so a grid below 4 x 4 is reported as such
    body = CONFIG_TEMPLATE.replace("n_t = 12\nn_phi = 24", grid_lines).replace(
        "generator = explicit\npoints = 1.5, 0, 0; 0, 0, 1.3", targets
    )
    assert main(["run", write_config(tmp_path, body)]) == EXIT_CONFIG
    assert "[grid] n_t and n_phi must be at least 4" in capsys.readouterr().err


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


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 3d: far off the real axis the Newton stop accepts |R^2| = 1.014e-9, "
    "above roots-check's bound 9e-10"
))
def test_roots_check_spheroid_seed_4_passes():
    # README documents this FAIL; polishing such roots has to flip it
    _, ok = roots_check("spheroid", 400, 4)
    assert ok


def test_roots_check_bad_surface(capsys):
    assert main(["roots-check", "--surface", "torus"]) == EXIT_CONFIG


def _roots_check_per_sample(name, samples, seed, a=1.0, b=3.0):
    """roots_check as one closed-form and one Newton solve per sample."""
    rng = np.random.default_rng(seed)
    if name == "sphere":
        surface, scale, line, variable, bound = Sphere(a), a, theta_line, VAR_THETA, 1e-10
        kind = "sphere polar roots (closed form vs Newton)"

        def draw():
            phi_bar = 2.0 * math.pi * rng.random()
            zeta = a * (1.05 + 1.95 * rng.random()) if rng.random() < 0.5 else a / (
                1.05 + 1.95 * rng.random()
            )
            theta = math.acos(1.0 - 2.0 * rng.random())
            psi = 2.0 * math.pi * rng.random()
            x = zeta * _unit_direction(theta, psi)
            ana = sphere_theta_root(a, phi_bar, x)
            return phi_bar, x, ana, ana.value.real

    elif name == "spheroid":
        surface, scale, line, variable, bound = Spheroid(a, b), max(a, b), phi_line, VAR_PHI, 1e-10
        kind = "spheroid azimuthal roots (closed form vs Newton)"

        def draw():
            theta_bar = 0.05 + (math.pi - 0.1) * rng.random()
            s = 1.05 + 0.95 * rng.random()
            theta = math.acos(1.0 - 2.0 * rng.random())
            psi = 2.0 * math.pi * rng.random()
            x = s * np.real(surface.position(theta, psi))
            ana = axisym_phi_root(surface, theta_bar, x)
            return theta_bar, x, ana, ana.value.real

    else:
        surface, scale, line, variable, bound = paper_blob(), 1.2, theta_line, VAR_THETA, 1e-8
        kind = "blob polar roots by Newton on the parametrization (residual only)"

        def draw():
            theta_star = 0.3 + (math.pi - 0.6) * rng.random()
            phi_star = 2.0 * math.pi * rng.random()
            s = 1.1 + 0.5 * rng.random()
            x = s * np.real(surface.position(theta_star, phi_star))
            return phi_star, x, None, theta_star

    max_dev = 0.0
    max_res = 0.0
    for _ in range(samples):
        fixed, x, ana, guess = draw()
        newt = newton_root(
            line(surface, fixed), variable, fixed, x, complex(guess, 0.1), scale, nearest=True
        )
        if ana is not None:
            max_dev = max(max_dev, abs(ana.value - newt.value))
            max_res = max(max_res, ana.residual)
        max_res = max(max_res, newt.residual)
    ok = max_dev < 1e-10 and max_res < bound * scale * scale
    report = (
        f"roots-check: {kind}\n"
        f"  samples       : {samples}\n"
        f"  max deviation : {max_dev:.3e}\n"
        f"  max residual  : {max_res:.3e}\n"
        f"  result        : {'PASS' if ok else 'FAIL'}"
    )
    return report, ok


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("name", ["sphere", "spheroid", "blob"])
def test_roots_check_block_matches_per_sample_solves(name, seed):
    assert roots_check(name, 60, seed) == _roots_check_per_sample(name, 60, seed)


@pytest.mark.parametrize("name", ["sphere", "blob"])
def test_roots_check_lane_without_root_fails_the_check(name, monkeypatch):
    # a sample whose Newton solve finds no root is a FAIL report, not a traceback
    solve = cli.newton_root

    def no_root_on_lane_3(*args, **kwargs):
        root = solve(*args, **kwargs)
        lost = np.arange(root.value.size) == 3
        return RootResult(np.where(lost, np.nan, root.value), np.where(lost, np.nan, root.residual))

    monkeypatch.setattr(cli, "newton_root", no_root_on_lane_3)
    report, ok = roots_check(name, 10, 1)
    assert not ok
    assert report.endswith("result        : FAIL")


@pytest.mark.parametrize("n, code", [(200, EXIT_OK), (362, EXIT_OK), (363, EXIT_CONFIG)])
def test_nodes_laguerre_large_n(n, code, capsys):
    assert main(["nodes", "--rule", "laguerre", "--n", str(n)]) == code
    out, err = capsys.readouterr()
    if code == EXIT_OK:
        assert err == ""
        assert "nan" not in out
        assert len(out.splitlines()) == n
    else:
        assert "config error" in err and "363" in err


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


def test_sphere_sweep_range_equals_blocks_of_one(tmp_path):
    out = str(tmp_path / "sweep.csv")
    sphere_sweep(1.0, [6, 9], [0.15, -0.1], out)
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 4
    density = unit_density()
    for row in rows:
        n_t, zeta = int(row["n"]), 1.0 + float(row["d"])
        g, n = grid(n_t, 2 * n_t), 2 * n_t
        eqs = [
            measured_error(Sphere(1.0), harmonic_single(), density, g,
                           zeta * _unit_direction((i + 0.5) * math.pi / 40, phi))
            for i in range(40)
            for phi in (0.0, math.pi / (2 * n), math.pi / n)
        ]
        assert float(row["E_Q_min"]) == min(eqs)
        assert float(row["E_Q_max"]) == max(eqs)


def test_timing_rows_share_the_batches_equally(tmp_path):
    out = tmp_path / "timed.csv"
    run_experiment(load_config(write_config(tmp_path)), str(out), timing=True)
    with open(out) as fh:
        runtimes = {float(r["runtime_us"]) for r in csv.DictReader(fh)}
    assert len(runtimes) == 1 and runtimes.pop() > 0.0


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


@pytest.mark.parametrize("kind", ["harmonic_single", "harmonic_double", "mod_helmholtz_single"])
def test_far_targets_get_error_rows(tmp_path, kind):
    def run(points):
        body = (
            CONFIG_TEMPLATE.replace("kind = harmonic_single", f"kind = {kind}")
            .replace("n_t = 12\nn_phi = 24", "n_t = 8\nn_phi = 16")
            .replace("1.5, 0, 0; 0, 0, 1.3", points)
        )
        assert main(["run", write_config(tmp_path, body)]) == EXIT_OK
        return read_rows(tmp_path / "out.csv")

    # the squared distances of the first two overflow; 1e103 is far, but only
    # its double-layer R^3 overflows, and its row stays finite
    ordinary = "1e103, 0, 0; 1.5, 0, 0"
    rows = run("1e200, 0, 0; 1e155, 0, 0; " + ordinary)
    assert [r["error"] != "" for r in rows] == [True, True, False, False]
    assert all("too far away" in r["error"] for r in rows[:2])
    assert all(math.isfinite(float(r["distance_to_grid"])) for r in rows[2:])
    assert rows[2:] == run(ordinary)


@pytest.mark.parametrize(
    "argv",
    [
        ["sphere-sweep", "--n", "x", "--distances", "0.1"],
        ["sphere-sweep", "--n", "0", "--distances", "0.1"],
        ["sphere-sweep", "--n", "4", "--distances", "0.1", "--a", "0"],
        ["nodes", "--rule", "gl", "--n", "0"],
        ["roots-check", "--surface", "sphere", "--a", "-1"],
        ["roots-check", "--surface", "sphere", "--a", "nan", "--samples", "3"],
        ["roots-check", "--surface", "spheroid", "--b", "inf", "--samples", "3"],
        ["sphere-sweep", "--n", "4", "--distances", "0.1", "--a", "nan"],
        ["sphere-sweep", "--n", "4", "--distances", "nan"],
    ],
)
def test_bad_command_line_values_exit_one(argv, capsys):
    assert main(argv) == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


def test_sphere_sweep_distance_without_measured_error_exits_one(tmp_path, capsys):
    # finite, but its targets' squared distances overflow: a bad distance
    # like the others, not a traceback
    out = tmp_path / "sweep.csv"
    argv = ["sphere-sweep", "--n", "4", "--distances", "1e300", "--out", str(out)]
    assert main(argv) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: distance 1e+300 ")
    assert "too far away" in err
    assert not out.exists()


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
def test_rows_carry_the_first_error_or_every_estimate_field(tmp_path):
    # an ordinary, an on-node, a NaN and a pole target in one run: a failed
    # row keeps its coordinates and runtime, names the measured error's
    # failure before the estimate's and leaves every other column blank; the
    # good row holds the target's own single-target values
    s, g = Sphere(1.0), grid(20, 40)
    node = np.real(s.position(s.theta_map.theta(g.t_rule.nodes[4]), g.phi_rule.nodes[7]))
    targets = np.array([[1.3, 0.2, -0.4], node, [math.nan, 0.0, 0.0], [0.0, 0.0, 1.0]])
    points = "; ".join(", ".join(repr(float(v)) for v in x) for x in targets)
    body = CONFIG_TEMPLATE.replace("n_t = 12\nn_phi = 24", "n_t = 20\nn_phi = 40").replace(
        "points = 1.5, 0, 0; 0, 0, 1.3", f"points = {points}"
    )
    assert main(["run", write_config(tmp_path, body)]) == EXIT_OK
    rows = read_rows(tmp_path / "out.csv")
    assert [r["error"] for r in rows] == [
        "",
        "a quadrature node coincides with the target point",  # not the estimate's message
        "target [nan, 0.0, 0.0] is not finite",
        "d R^2 / d t vanishes at the root",
    ]
    for x, row in zip(targets, rows):
        assert [row[c] for c in ("x", "y", "z")] == [f"{v:.17g}" for v in x.tolist()]
        assert row["runtime_us"] == "0"
    kept = {"x", "y", "z", "runtime_us", "error"}
    for row in rows[1:]:
        assert all(row[c] == "" for c in cli.CSV_COLUMNS if c not in kept)
    eq = measured_error(s, harmonic_single(), unit_density(), g, targets[0])
    bd = full_estimate(s, harmonic_single(), unit_density(), g, targets[0])
    assert rows[0] == {
        **{c: rows[0][c] for c in kept},
        "distance_to_grid": cli._fmt(float(bd.grid_distance)),
        "E_Q": cli._fmt(eq),
        "E_EST": cli._fmt(float(bd.total)),
        "E_TZ": cli._fmt(float(bd.e_tz)),
        "E_GL": cli._fmt(float(bd.e_gl)),
        "tz_skipped": "false",
        "t_star": cli._fmt(float(bd.t_star)),
        "phi_star": cli._fmt(float(bd.phi_star)),
    }
    assert not bd.tz_skipped


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_on_axis_blob_target_gets_finite_row(tmp_path):
    # the azimuthal anchor falls back to a tangent root far off the real
    # axis, where the blob's evaluation overflows: the trapezoidal part is
    # skipped instead of turning the row into NaN
    body = (
        CONFIG_TEMPLATE.replace("shape = sphere\na = 1.0", "shape = blob")
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


SIZES_BODY = CONFIG_TEMPLATE.replace(
    "points = 1.5, 0, 0; 0, 0, 1.3", "points = 1.5,0,0; 0.3,0.2,1.3"
)


@pytest.mark.parametrize(
    "old, new",
    [
        ("a = 1.0", "a = 0"),
        ("a = 1.0", "a = -1"),
        ("a = 1.0", "a = nan"),
        ("a = 1.0", "a = inf"),
        ("kind = harmonic_single", "kind = mod_helmholtz_single\nomega = nan"),
        ("kind = harmonic_single", "kind = mod_helmholtz_single\nomega = inf"),
    ],
    ids=["a=0", "a=-1", "a=nan", "a=inf", "omega=nan", "omega=inf"],
)
def test_nonpositive_or_nonfinite_sizes_exit_one(tmp_path, capsys, old, new):
    body = SIZES_BODY.replace(old, new)
    assert main(["run", write_config(tmp_path, body)]) == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "out.csv").exists()


def test_cone_section_rejected(tmp_path, capsys):
    body = CONFIG_TEMPLATE + "\n[cone]\nA = 2.0\nK_c = 5.0\n"
    assert main(["run", write_config(tmp_path, body)]) == EXIT_CONFIG
    assert "cone constants are fixed" in capsys.readouterr().err
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize(
    "section, line, named",
    [
        ("kernel", "omgea = 3.0", "[kernel] omgea"),
        ("grid", "n_tt = 99", "[grid] n_tt"),
        ("targets", "resolutoin = 5", "[targets] resolutoin"),
        ("grids", "n_t = 8", "[grids]"),
    ],
)
def test_unknown_config_entries_exit_one(tmp_path, capsys, section, line, named):
    # a misspelled key used to be ignored: the run wrote a row with omega = 1
    sections = {
        "surface": "shape = blob",
        "kernel": "kind = mod_helmholtz_single\nomega = 3.0",
        "grid": "n_t = 8\nn_phi = 16",
        "targets": "generator = explicit\npoints = 1.3, 0.1, 0.2",
        "output": "path = {out}",
    }
    if section in sections:
        sections[section] += "\n" + line
    else:
        sections[section] = line
    body = "".join(f"[{name}]\n{text}\n" for name, text in sections.items())
    assert main(["run", write_config(tmp_path, body)]) == EXIT_CONFIG
    assert named in capsys.readouterr().err
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize(
    "surface, named",
    [
        ("shape = sphere\na = 1.0\nb = 3.0", ["[surface] b"]),
        ("shape = spheroid\na = 1.0\nb = 3.0\nc = 2.0", ["[surface] c"]),
        ("shape = blob\na = 2.0\nb = 3.0", ["[surface] a", "[surface] b"]),
    ],
    ids=["sphere", "spheroid", "blob"],
)
def test_keys_the_shape_does_not_read_exit_one(tmp_path, capsys, surface, named):
    # each shape reads only its own keys: a blob with a = 2.0 used to run the unit blob
    body = CONFIG_TEMPLATE.replace("shape = sphere\na = 1.0", surface)
    assert main(["run", write_config(tmp_path, body)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"unknown config entries: {', '.join(named)}" in err, err
    assert not (tmp_path / "out.csv").exists()


EXPLICIT = "generator = explicit\npoints = 1.5, 0, 0; 0, 0, 1.3"


@pytest.mark.parametrize(
    "targets, named",
    [
        ("generator = plane\nseed = 3\ncount = 5\nradius = 9",
         ["[targets] seed", "[targets] count", "[targets] radius"]),
        ("resolution = 4\nseed = 3", ["[targets] seed"]),
        ("generator = radial-sweep\nshell = 1.1, 2.0", ["[targets] shell"]),
        ("generator = random\nseed = 1\nresolution = 4", ["[targets] resolution"]),
        ("generator = shell\naxis = x", ["[targets] axis"]),
        (EXPLICIT + "\nangles = 6", ["[targets] angles"]),
    ],
    ids=["plane", "default-plane", "radial-sweep", "random", "shell", "explicit"],
)
def test_keys_of_other_generators_exit_one(tmp_path, capsys, targets, named):
    # each generator reads only its own keys: plane with a seed used to run
    body = CONFIG_TEMPLATE.replace(EXPLICIT, targets)
    assert main(["run", write_config(tmp_path, body)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert all(entry in err for entry in named), err
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize(
    "old, new, message",
    [
        ("shape = sphere", "shape = torus", "[surface] unknown shape 'torus'"),
        ("kind = harmonic_single", "kind = stokes", "[kernel] unknown kind 'stokes'"),
        ("kind = unit", "kind = gaussian", "[density] unknown kind 'gaussian'"),
        ("0, 0, 1.3", "0, 0, z", "could not parse '[targets] points entry 2'"),
        (EXPLICIT, "generator = plane\naxis = w", "[targets] axis must be x, y or z, got 'w'"),
        (EXPLICIT, "generator = random\ncount = 5", "[targets] random generator requires a seed"),
        ("0, 0, 1.3", "0, 1.3", "[targets] points entry 2 is not an x,y,z triple"),
        (EXPLICIT, "generator = explicit", "[targets] explicit generator needs a points list"),
        # the empty chunk is skipped, and the entries keep their places
        ("; 0, 0, 1.3", ";; 0, 1.3", "[targets] points entry 3 is not an x,y,z triple"),
        ("[grid]\nn_t = 12\nn_phi = 24\n", "", "missing config section 'grid'"),
        ("[targets]\n" + EXPLICIT, "", "missing config section 'targets'"),
        ("n_t = 12", "n_t = 12.5", "invalid config value: invalid literal for int()"),
        # a non-finite generator parameter is a config error, not a CSV of error rows
        (EXPLICIT, "generator = plane\noffset = nan", "[targets] offset must be finite, got nan"),
        (EXPLICIT, "generator = plane\nextent = inf", "[targets] extent must be finite, got inf"),
        (EXPLICIT, "generator = radial-sweep\ndistances = 0.1, inf",
         "[targets] distances must be finite, got inf"),
        (EXPLICIT, "generator = shell\nradius = -inf", "[targets] radius must be finite, got -inf"),
    ],
    ids=["shape", "kernel", "density", "float-list", "axis", "seed", "triple", "no-points",
         "empty-chunk", "no-grid", "no-targets", "n_t-float", "offset-nan", "extent-inf",
         "distances-inf", "radius-inf"],
)
def test_config_errors_exit_one(tmp_path, capsys, old, new, message):
    assert old in CONFIG_TEMPLATE
    body = CONFIG_TEMPLATE.replace(old, new)
    assert main(["run", write_config(tmp_path, body)]) == EXIT_CONFIG
    assert f"config error: {message}" in capsys.readouterr().err
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("name", sorted(_PRESETS))
def test_preset_round_trips_through_a_config_file(tmp_path, name):
    parser = configparser.ConfigParser()
    parser.read_dict(_PRESETS[name])
    path = tmp_path / f"{name}.ini"
    with open(path, "w") as fh:
        parser.write(fh)
    got, want = load_config(str(path)), preset_config(name)
    assert type(got.surface) is type(want.surface)
    assert got.surface.theta_map == want.surface.theta_map
    for attr in ("a", "b"):
        assert getattr(got.surface, attr, None) == getattr(want.surface, attr, None)
    assert (got.kernel, got.density) == (want.kernel, want.density)
    assert (got.n_t, got.n_phi, got.cone) == (want.n_t, want.n_phi, want.cone)
    assert np.array_equal(got.targets, want.targets)


def test_radial_sweep_targets(tmp_path):
    body = CONFIG_TEMPLATE.replace(
        "generator = explicit\npoints = 1.5, 0, 0; 0, 0, 1.3",
        "generator = radial-sweep\ndistances = 0.1, -0.05\nangles = 6",
    )
    targets = load_config(write_config(tmp_path, body)).targets
    assert targets.shape == (12, 3)
    radii = np.linalg.norm(targets, axis=1)
    np.testing.assert_allclose(radii, [1.1] * 6 + [0.95] * 6, rtol=0, atol=1e-12)
    # polar angles sweep from the north pole down within each distance
    assert np.all(np.diff(targets[:6, 2] / radii[:6]) < 0)
    assert np.all(np.diff(targets[6:, 2] / radii[6:]) < 0)


def test_readme_config_block_loads(tmp_path):
    readme = Path(__file__).parent.parent.joinpath("README.md").read_text()
    blocks = re.findall(r"```ini\n(.*?)```", readme, re.S)
    assert len(blocks) == 1
    path = tmp_path / "readme.ini"
    path.write_text(blocks[0])
    cfg = load_config(str(path))
    assert cfg.kernel.kind == "harmonic_double" and cfg.density.kind == "paper"
    assert (cfg.surface.a, cfg.surface.b, cfg.n_t, cfg.n_phi) == (1.0, 3.0, 40, 80)
    assert len(cfg.targets) == 300 and cfg.out_path == "out.csv"


def test_readme_quickstart_runs(tmp_path):
    root = Path(__file__).parent.parent
    blocks = re.findall(r"```python\n(.*?)```", root.joinpath("README.md").read_text(), re.S)
    assert len(blocks) == 1
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    done = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-c", blocks[0]],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert "EvaluationError" in done.stdout


@pytest.mark.parametrize(
    "targets",
    [
        "generator = shell\nresolution = 0",
        "generator = shell\nresolution = -2",
        "generator = random\ncount = 0\nseed = 1",
        "generator = radial-sweep\nangles = 0",
    ],
    ids=["shell-0", "shell-negative", "random-0", "radial-sweep-0"],
)
def test_empty_generator_exits_one(tmp_path, capsys, targets):
    # a generator that would yield no targets is a config error, not an empty run
    body = CONFIG_TEMPLATE.replace("generator = explicit\npoints = 1.5, 0, 0; 0, 0, 1.3", targets)
    assert main(["run", write_config(tmp_path, body)]) == EXIT_CONFIG
    assert "must be >= 1" in capsys.readouterr().err
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("shell", ["nan, 2.0", "1.02, nan", "1.02, inf"],
                         ids=["nan-first", "nan-second", "inf"])
def test_random_shell_factors_must_be_finite(tmp_path, capsys, shell):
    # a NaN factor passed every comparison of the check and hung the generator
    body = CONFIG_TEMPLATE.replace(
        "generator = explicit\npoints = 1.5, 0, 0; 0, 0, 1.3",
        f"generator = random\ncount = 5\nshell = {shell}\nseed = 1",
    )
    assert main(["run", write_config(tmp_path, body)]) == EXIT_CONFIG
    assert "shell must be two increasing, positive, finite factors" in capsys.readouterr().err
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["roots-check", "--samples", "0"],
        ["roots-check", "--samples", "-5"],
        ["sphere-sweep", "--n", ",", "--distances", "0.1"],
        ["sphere-sweep", "--n", "4", "--distances", ""],
        ["sphere-sweep", "--n", "4", "--distances", ","],
    ],
    ids=["samples-0", "samples-negative", "n-empty", "distances-blank", "distances-comma"],
)
def test_empty_command_line_inputs_exit_one(tmp_path, capsys, argv):
    # nothing to check or sweep is a config error, not a PASS or a header-only CSV
    out = tmp_path / "sweep.csv"
    if argv[0] == "sphere-sweep":
        argv = argv + ["--out", str(out)]
    assert main(argv) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert "config error" in captured.err and "PASS" not in captured.out
    assert not out.exists()


def test_empty_radial_sweep_distances_exit_one(tmp_path, capsys):
    body = CONFIG_TEMPLATE.replace(
        "generator = explicit\npoints = 1.5, 0, 0; 0, 0, 1.3",
        "generator = radial-sweep\ndistances = ,",
    )
    assert main(["run", write_config(tmp_path, body)]) == EXIT_CONFIG
    assert "lists no values" in capsys.readouterr().err
    assert not (tmp_path / "out.csv").exists()
