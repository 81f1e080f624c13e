"""Command-line front end: experiment presets, sweeps, and CSV emission.

Subcommands:
    layerr run <config>          run an experiment described by a config file
    layerr preset <name>         run a built-in experiment preset
    layerr sphere-sweep ...      measured error vs the simplified sphere bound
    layerr roots-check ...       validate closed-form roots against Newton
    layerr nodes ...             print quadrature nodes and weights

Exit codes: 0 success, 1 configuration error, 2 validation failure.
Rows are written in input order, so identical configurations produce
byte-identical CSV files.
"""
from __future__ import annotations

import argparse
import configparser
import csv
import math
import sys
import time

import numpy as np

from .errors import ConfigError, LayerrError
from .estimates import ConeParams, full_estimate, sphere_simplified
from .potentials import (
    DensitySpec,
    KernelSpec,
    harmonic_double,
    harmonic_single,
    measured_error,
    mod_helmholtz_single,
    nearest_grid_node,
    paper_density,
    surface_scale,
    unit_density,
)
from .quadrature import gauss_laguerre, gauss_legendre, grid, trapezoidal
from .roots import (
    axisym_phi_root,
    newton_root,
    sphere_theta_root,
    theta_line,
    VAR_PHI,
    VAR_THETA,
    phi_line,
)
from .surfaces import Sphere, Spheroid, Surface, paper_blob, theta_map_by_name

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_VALIDATION = 2

CSV_COLUMNS = [
    "x",
    "y",
    "z",
    "distance_to_grid",
    "E_Q",
    "E_EST",
    "E_TZ",
    "E_GL",
    "tz_skipped",
    "t_star",
    "phi_star",
    "runtime_us",
    "error",
]


def _fmt(v: float) -> str:
    return f"{v:.17g}"


_SURFACES = {
    "sphere": lambda a, b, tmap: Sphere(a, tmap),
    "spheroid": Spheroid,
    "blob": lambda a, b, tmap: paper_blob(tmap),
}
_KERNELS = {
    "harmonic_single": lambda omega: harmonic_single(),
    "harmonic_double": lambda omega: harmonic_double(),
    "mod_helmholtz_single": mod_helmholtz_single,
}
_DENSITIES = {"unit": unit_density, "paper": paper_density}


def _lookup(table: dict, name: str, message: str):
    """table[name.lower()], or ConfigError(message) naming the lowered key."""
    key = name.lower()
    if key not in table:
        raise ConfigError(message.format(key))
    return table[key]


def _build_surface(shape: str, a: float, b: float, theta_map: str) -> Surface:
    try:
        tmap = theta_map_by_name(theta_map)
    except ValueError as exc:
        raise ConfigError(f"[surface] {exc}")
    make = _lookup(_SURFACES, shape, "[surface] unknown shape {!r}; use sphere, spheroid or blob")
    return make(a, b, tmap)


def _build_kernel(kind: str, omega: float) -> KernelSpec:
    return _lookup(_KERNELS, kind, "[kernel] unknown kind {!r}")(omega)


def _build_density(kind: str) -> DensitySpec:
    return _lookup(_DENSITIES, kind, "[density] unknown kind {!r}")()


def _unit_direction(theta: float, phi: float) -> np.ndarray:
    """Unit vector at polar angle theta and azimuth phi."""
    return np.array(
        [math.sin(theta) * math.cos(phi), math.sin(theta) * math.sin(phi), math.cos(theta)]
    )


class ExperimentConfig:
    """A fully validated experiment description."""

    def __init__(
        self,
        surface: Surface,
        kernel: KernelSpec,
        density: DensitySpec,
        n_t: int,
        n_phi: int,
        targets: np.ndarray,
        cone: ConeParams,
        out_path: str,
    ):
        if n_t < 4 or n_phi < 4:
            raise ConfigError("[grid] n_t and n_phi must be at least 4")
        self.surface = surface
        self.kernel = kernel
        self.density = density
        self.n_t = n_t
        self.n_phi = n_phi
        self.targets = targets
        self.cone = cone
        self.out_path = out_path


def _floats(text: str, field: str):
    try:
        return [float(v) for v in text.replace(";", ",").split(",") if v.strip()]
    except ValueError:
        raise ConfigError(f"could not parse {field!r} as a comma-separated float list")


def _generate_targets(surface: Surface, n_t: int, n_phi: int, sec) -> np.ndarray:
    gen = sec.get("generator", "plane").lower()
    if gen == "plane":
        axis = sec.get("axis", "y").lower()
        if axis not in ("x", "y", "z"):
            raise ConfigError(f"[targets] axis must be x, y or z, got {axis!r}")
        offset = sec.getfloat("offset", 0.0)
        extent = sec.getfloat("extent", 2.0)
        res = sec.getint("resolution", 20)
        if res < 2:
            raise ConfigError("[targets] resolution must be >= 2")
        us = np.linspace(-extent, extent, res)
        pts = []
        for u in us:
            for v in us:
                if axis == "x":
                    pts.append((offset, u, v))
                elif axis == "y":
                    pts.append((u, offset, v))
                else:
                    pts.append((u, v, offset))
        return np.array(pts)
    if gen == "radial-sweep":
        distances = _floats(sec.get("distances", "0.1"), "[targets] distances")
        angles = sec.getint("angles", 24)
        pts = []
        for d in distances:
            for i in range(angles):
                theta = (i + 0.5) * math.pi / angles
                phi = (i % 3) * math.pi / (3.0 * n_phi)
                base = np.real(surface.position(theta, phi))
                r = np.linalg.norm(base)
                pts.append(base * (1.0 + d / r))
        return np.array(pts)
    if gen == "random":
        count = sec.getint("count", 100)
        shell = _floats(sec.get("shell", "1.02,2.0"), "[targets] shell")
        if len(shell) != 2 or shell[0] <= 0 or shell[1] <= shell[0]:
            raise ConfigError("[targets] shell must be two increasing positive factors")
        if "seed" not in sec:
            raise ConfigError("[targets] random generator requires a seed")
        seed = sec.getint("seed")
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
            _, _, _, _, dist = nearest_grid_node(surface, g, x)
            if dist > 1e-3 * scale:
                pts.append(x)
        return np.array(pts)
    if gen == "shell":
        radius = sec.getfloat("radius", 1.46)
        res = sec.getint("resolution", 16)
        pts = []
        for i in range(res):
            theta = math.acos(1.0 - 2.0 * (i + 0.5) / res)
            for j in range(2 * res):
                phi = 2.0 * math.pi * (j + 0.5) / (2 * res)
                pts.append(radius * _unit_direction(theta, phi))
        return np.array(pts)
    if gen == "explicit":
        raw = sec.get("points", "")
        pts = []
        for i, chunk in enumerate(raw.split(";")):
            if not chunk.strip():
                continue
            vals = _floats(chunk, f"[targets] points entry {i + 1}")
            if len(vals) != 3:
                raise ConfigError(f"[targets] points entry {i + 1} is not an x,y,z triple")
            pts.append(vals)
        if not pts:
            raise ConfigError("[targets] explicit generator needs a points list")
        return np.array(pts)
    raise ConfigError(f"[targets] unknown generator {gen!r}")


def load_config(path: str) -> ExperimentConfig:
    """Parse and validate an experiment config file (INI-style sections)."""
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    read = parser.read(path)
    if not read:
        raise ConfigError(f"config file {path!r} not found or unreadable")
    try:
        surf_sec = parser["surface"]
        surface = _build_surface(
            surf_sec.get("shape", "sphere"),
            surf_sec.getfloat("a", 1.0),
            surf_sec.getfloat("b", 1.0),
            surf_sec.get("theta_map", "cosine"),
        )
        kern_sec = parser["kernel"] if parser.has_section("kernel") else {}
        kernel = _build_kernel(
            kern_sec.get("kind", "harmonic_single") if kern_sec else "harmonic_single",
            float(kern_sec.get("omega", 1.0)) if kern_sec else 1.0,
        )
        dens_sec = parser["density"] if parser.has_section("density") else {}
        density = _build_density(dens_sec.get("kind", "unit") if dens_sec else "unit")
        grid_sec = parser["grid"]
        for key in ("n_t", "n_phi"):
            if key not in grid_sec:
                raise ConfigError(f"[grid] missing {key}")
        n_t = grid_sec.getint("n_t")
        n_phi = grid_sec.getint("n_phi")
        targets = _generate_targets(surface, n_t, n_phi, parser["targets"])
        cone = ConeParams(A=1.0, K_c=10.0)
        if parser.has_section("cone"):
            cone = ConeParams(
                A=parser["cone"].getfloat("A", 1.0),
                K_c=parser["cone"].getfloat("K_c", 10.0),
            )
        out_path = "layerr_out.csv"
        if parser.has_section("output"):
            out_path = parser["output"].get("path", out_path)
    except ConfigError:
        raise
    except KeyError as exc:
        raise ConfigError(f"missing config section {exc}")
    except ValueError as exc:
        raise ConfigError(f"invalid config value: {exc}")
    return ExperimentConfig(surface, kernel, density, n_t, n_phi, targets, cone, out_path)


def _point_row(cfg: ExperimentConfig, g, x, timing: bool):
    start = time.perf_counter()
    row = {
        "x": _fmt(x[0]),
        "y": _fmt(x[1]),
        "z": _fmt(x[2]),
        "error": "",
    }
    try:
        eq = measured_error(cfg.surface, cfg.kernel, cfg.density, g, x)
        bd = full_estimate(cfg.surface, cfg.kernel, cfg.density, g, x, cfg.cone)
        row.update(
            distance_to_grid=_fmt(bd.grid_distance),
            E_Q=_fmt(eq),
            E_EST=_fmt(bd.total),
            E_TZ=_fmt(bd.e_tz),
            E_GL=_fmt(bd.e_gl),
            tz_skipped="true" if bd.tz_skipped else "false",
            t_star=_fmt(bd.t_star),
            phi_star=_fmt(bd.phi_star),
        )
    except LayerrError as exc:
        row.update(
            distance_to_grid="",
            E_Q="",
            E_EST="",
            E_TZ="",
            E_GL="",
            tz_skipped="",
            t_star="",
            phi_star="",
            error=str(exc),
        )
    elapsed = (time.perf_counter() - start) * 1e6 if timing else 0.0
    row["runtime_us"] = _fmt(elapsed)
    return row


def run_experiment(cfg: ExperimentConfig, out_path=None, timing: bool = False) -> str:
    """Evaluate measured error and estimate at every target; write CSV."""
    g = grid(cfg.n_t, cfg.n_phi)
    out = out_path or cfg.out_path
    rows = [_point_row(cfg, g, x, timing) for x in cfg.targets]
    with open(out, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS)
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
    return out


_PRESETS = {
    # error field on the symmetry plane of a unit sphere, linear polar map
    "sphere-linear": dict(
        surface=("sphere", 1.0, 1.0, "linear"),
        kernel=("harmonic_single", 1.0),
        density="unit",
        n_t=30,
        n_phi=60,
        targets=dict(generator="plane", axis="y", offset="0.0", extent="2.0", resolution="40"),
    ),
    # same field with the cosine polar map
    "sphere-cosine": dict(
        surface=("sphere", 1.0, 1.0, "cosine"),
        kernel=("harmonic_single", 1.0),
        density="unit",
        n_t=30,
        n_phi=60,
        targets=dict(generator="plane", axis="y", offset="0.0", extent="2.0", resolution="40"),
    ),
    # single layer on a wall grazing a 3:1 prolate spheroid
    "spheroid-wall": dict(
        surface=("spheroid", 1.0, 3.0, "cosine"),
        kernel=("harmonic_single", 1.0),
        density="paper",
        n_t=40,
        n_phi=80,
        targets=dict(generator="plane", axis="y", offset="1.02", extent="3.5", resolution="40"),
    ),
    # double layer at random points around the same spheroid
    "spheroid-random": dict(
        surface=("spheroid", 1.0, 3.0, "cosine"),
        kernel=("harmonic_double", 1.0),
        density="paper",
        n_t=60,
        n_phi=120,
        targets=dict(generator="random", count="300", shell="1.02,2.0", seed="7"),
    ),
    # screened single layer on the shell enclosing the reference blob
    "blob-shell": dict(
        surface=("blob", 1.0, 1.0, "cosine"),
        kernel=("mod_helmholtz_single", 3.0),
        density="paper",
        n_t=40,
        n_phi=80,
        targets=dict(generator="shell", radius="1.46", resolution="24"),
    ),
}


def preset_config(name: str) -> ExperimentConfig:
    """Instantiate a built-in preset by name."""
    if name not in _PRESETS:
        raise ConfigError(
            f"unknown preset {name!r}; available: {', '.join(sorted(_PRESETS))}"
        )
    spec = _PRESETS[name]
    surface = _build_surface(*spec["surface"])
    kernel = _build_kernel(*spec["kernel"])
    density = _build_density(spec["density"])
    parser = configparser.ConfigParser()
    parser["targets"] = spec["targets"]
    targets = _generate_targets(surface, spec["n_t"], spec["n_phi"], parser["targets"])
    return ExperimentConfig(
        surface,
        kernel,
        density,
        spec["n_t"],
        spec["n_phi"],
        targets,
        ConeParams(),
        f"{name}.csv",
    )


def sphere_sweep(a: float, p: float, n_list, distances, out_path: str) -> str:
    """Measured-error range vs the simplified bound; cosine map enforced.

    For each polar count n_t and signed distance d, targets cover the full
    polar range at radius a + d over a thin azimuthal sector; columns are
    n, d, E_Q_min, E_Q_max, E_simplified with n = 2 n_t in the bound.
    """
    if a <= 0.0 or p <= 0.0:
        raise ConfigError("--a and --p must be positive")
    if any(n_t < 1 for n_t in n_list):
        raise ConfigError(f"--n values must be positive integers, got {list(n_list)}")
    kernel = harmonic_single()
    density = unit_density()
    rows = []
    for n_t in n_list:
        surface = Sphere(a)
        g = grid(n_t, 2 * n_t)
        n = 2 * n_t
        for d in distances:
            zeta = a + d
            if zeta <= 0 or zeta == a:
                raise ConfigError(f"distance {d} places targets on or through the center")
            lo, hi = math.inf, 0.0
            for i in range(40):
                theta = (i + 0.5) * math.pi / 40
                for phi in (0.0, math.pi / (2 * n), math.pi / n):
                    x = zeta * _unit_direction(theta, phi)
                    eq = measured_error(surface, kernel, density, g, x)
                    lo, hi = min(lo, eq), max(hi, eq)
            rows.append((n_t, d, lo, hi, sphere_simplified(zeta, a, p, n)))
    with open(out_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n", "d", "E_Q_min", "E_Q_max", "E_simplified"])
        for row in rows:
            writer.writerow([_fmt(v) for v in row])
    return out_path


def roots_check(surface_name: str, samples: int, seed: int, a: float = 1.0, b: float = 3.0):
    """Compare closed-form roots against Newton; returns (report, ok).

    Spheres check the polar root, other axisymmetric surfaces the
    azimuthal root, both against the Newton iteration on the analytic
    parametrization (max deviation 1e-10, residuals 1e-10 * scale^2).
    The blob, which has no closed form, checks the residual of the Newton
    polar root on its analytic parametrization, the solve the estimate
    runs (1e-8 * scale^2). Each draw() returns the fixed coordinate, the
    target, the closed-form root (or None) and the real part of the guess.
    """
    if a <= 0.0 or b <= 0.0:
        raise ConfigError("--a and --b must be positive")
    rng = np.random.default_rng(seed)
    name = surface_name.lower()
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

    elif name == "blob":
        surface, scale, line, variable, bound = paper_blob(), 1.2, theta_line, VAR_THETA, 1e-8
        kind = "blob polar roots by Newton on the parametrization (residual only)"

        def draw():
            theta_star = 0.3 + (math.pi - 0.6) * rng.random()
            phi_star = 2.0 * math.pi * rng.random()
            s = 1.1 + 0.5 * rng.random()
            x = s * np.real(surface.position(theta_star, phi_star))
            return phi_star, x, None, theta_star

    else:
        raise ConfigError(f"unknown surface {surface_name!r} for roots-check")
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


def _cmd_nodes(args) -> int:
    builders = {"gl": gauss_legendre, "tz": trapezoidal, "laguerre": gauss_laguerre}
    if args.n < 1:
        raise ConfigError("--n must be at least 1")
    rule = builders[args.rule](args.n)
    for node, weight in zip(rule.nodes, rule.weights):
        print(f"{_fmt(node)} {_fmt(weight)}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="layerr",
        description="Layer-potential evaluation and quadrature-error estimation "
        "near surfaces of spherical topology.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment from a config file")
    p_run.add_argument("config")
    p_run.add_argument("--out", default=None)
    p_run.add_argument("--timing", action="store_true", help="record wall-clock per point")

    p_preset = sub.add_parser("preset", help="run a built-in experiment preset")
    p_preset.add_argument("name")
    p_preset.add_argument("--out", default=None)
    p_preset.add_argument("--timing", action="store_true")

    p_sweep = sub.add_parser("sphere-sweep", help="measured error vs simplified sphere bound")
    p_sweep.add_argument("--a", type=float, default=1.0)
    p_sweep.add_argument("--p", type=float, default=0.5)
    p_sweep.add_argument("--n", required=True, help="comma-separated polar point counts")
    p_sweep.add_argument("--distances", required=True, help="comma-separated signed distances")
    p_sweep.add_argument("--out", default="sphere_sweep.csv")

    p_roots = sub.add_parser("roots-check", help="validate root finding")
    p_roots.add_argument("--surface", default="sphere")
    p_roots.add_argument("--a", type=float, default=1.0)
    p_roots.add_argument("--b", type=float, default=3.0)
    p_roots.add_argument("--samples", type=int, default=200)
    p_roots.add_argument("--seed", type=int, default=1)

    p_nodes = sub.add_parser("nodes", help="print quadrature nodes and weights")
    p_nodes.add_argument("--rule", choices=["gl", "tz", "laguerre"], required=True)
    p_nodes.add_argument("--n", type=int, required=True)

    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            cfg = load_config(args.config)
            out = run_experiment(cfg, args.out, args.timing)
            print(f"wrote {out} ({len(cfg.targets)} targets)")
            return EXIT_OK
        if args.command == "preset":
            cfg = preset_config(args.name)
            out = run_experiment(cfg, args.out or cfg.out_path, args.timing)
            print(f"wrote {out} ({len(cfg.targets)} targets)")
            return EXIT_OK
        if args.command == "sphere-sweep":
            try:
                n_list = [int(v) for v in args.n.split(",") if v.strip()]
            except ValueError:
                raise ConfigError("could not parse '--n' as a comma-separated integer list")
            distances = _floats(args.distances, "--distances")
            out = sphere_sweep(args.a, args.p, n_list, distances, args.out)
            print(f"wrote {out}")
            return EXIT_OK
        if args.command == "roots-check":
            report, ok = roots_check(args.surface, args.samples, args.seed, args.a, args.b)
            print(report)
            return EXIT_OK if ok else EXIT_VALIDATION
        if args.command == "nodes":
            return _cmd_nodes(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
