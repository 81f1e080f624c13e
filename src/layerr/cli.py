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
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import ConfigError, LayerrError
from . import potentials
from .estimates import ConeParams, full_estimate, sphere_simplified
from .potentials import (
    DensitySpec,
    KernelSpec,
    harmonic_double,
    harmonic_single,
    measured_error,
    mod_helmholtz_single,
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
from .surfaces import Blob, Sphere, Spheroid, Surface, paper_blob, theta_map_by_name

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
SWEEP_COLUMNS = ["n", "d", "E_Q_min", "E_Q_max", "E_simplified"]


def _fmt(v: float) -> str:
    return f"{v:.17g}"


# each shape's class and the [surface] sizes it reads, besides shape and theta_map
_SHAPES = {"sphere": (Sphere, ("a",)), "spheroid": (Spheroid, ("a", "b")), "blob": (Blob, ())}
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


def _finite(value, name: str) -> float:
    """float(value) if it is finite, else ConfigError."""
    value = float(value)
    if not math.isfinite(value):
        raise ConfigError(f"{name} must be finite, got {value}")
    return value


def _positive(value, name: str) -> float:
    """float(value) if it is finite and positive, else ConfigError."""
    value = float(value)
    if not (math.isfinite(value) and value > 0.0):
        raise ConfigError(f"{name} must be finite and positive, got {value}")
    return value


def _unit_direction(theta: float, phi: float) -> np.ndarray:
    """Unit vector at polar angle theta and azimuth phi."""
    return np.array(
        [math.sin(theta) * math.cos(phi), math.sin(theta) * math.sin(phi), math.cos(theta)]
    )


@dataclass(eq=False)
class ExperimentConfig:
    """An experiment description, as _build_config validates it."""

    surface: Surface
    kernel: KernelSpec
    density: DensitySpec
    n_t: int
    n_phi: int
    targets: np.ndarray
    out_path: str = "layerr_out.csv"
    cone: ConeParams = ConeParams()


def _floats(text, field: str):
    try:
        values = [float(v) for v in str(text).replace(";", ",").split(",") if v.strip()]
    except ValueError:
        raise ConfigError(f"could not parse {field!r} as a comma-separated float list")
    if not values:
        raise ConfigError(f"{field!r} lists no values")
    return values


def _count(sec: dict, key: str, default: int, least: int) -> int:
    """The integer sec[key] (default if unset); ConfigError below least."""
    value = int(sec.get(key, default))
    if value < least:
        raise ConfigError(f"[targets] {key} must be >= {least}")
    return value


def _generate_targets(surface: Surface, n_t: int, n_phi: int, sec: dict) -> np.ndarray:
    """Targets from a [targets] section; values are strings or numbers."""
    gen = sec.get("generator", "plane").lower()
    if gen == "plane":
        axis = sec.get("axis", "y").lower()
        if axis not in ("x", "y", "z"):
            raise ConfigError(f"[targets] axis must be x, y or z, got {axis!r}")
        offset = _finite(sec.get("offset", 0.0), "[targets] offset")
        extent = _finite(sec.get("extent", 2.0), "[targets] extent")
        res = _count(sec, "resolution", 20, 2)
        us = np.linspace(-extent, extent, res)
        # the first in-plane coordinate varies slowest
        cols = [m.ravel() for m in np.meshgrid(us, us, indexing="ij")]
        cols.insert("xyz".index(axis), np.full(res * res, offset))
        return np.column_stack(cols)
    if gen == "radial-sweep":
        distances = [_finite(d, "[targets] distances")
                     for d in _floats(sec.get("distances", "0.1"), "[targets] distances")]
        angles = _count(sec, "angles", 24, 1)
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
        count = _count(sec, "count", 100, 1)
        shell = _floats(sec.get("shell", "1.02,2.0"), "[targets] shell")
        if len(shell) != 2 or not 0 < shell[0] < shell[1] < math.inf:
            raise ConfigError("[targets] shell must be two increasing, positive, finite factors")
        if "seed" not in sec:
            raise ConfigError("[targets] random generator requires a seed")
        rng = np.random.default_rng(int(sec["seed"]))
        g = grid(n_t, n_phi)
        scale = surface_scale(surface, g)
        pts = []
        while len(pts) < count:
            # one draw of the round's (u, v, w) triples; libm's arccosine per entry
            u, v, w = rng.random((count - len(pts), 3)).T
            theta = np.array([math.acos(1.0 - 2.0 * ui) for ui in u.tolist()])
            on_surface = np.real(surface.position(theta, 2.0 * math.pi * v))
            candidates = ((shell[0] + (shell[1] - shell[0]) * w) * on_surface).T
            dist = potentials.nearest_grid_node(surface, g, candidates)[4]
            pts.extend(candidates[dist > 1e-3 * scale])
        return np.array(pts)
    if gen == "shell":
        radius = _finite(sec.get("radius", 1.46), "[targets] radius")
        res = _count(sec, "resolution", 16, 1)
        # libm's functions once per distinct angle; theta varies slowest
        thetas = [math.acos(1.0 - 2.0 * (i + 0.5) / res) for i in range(res)]
        phis = [2.0 * math.pi * (j + 0.5) / (2 * res) for j in range(2 * res)]
        sin_t, cos_t = (np.array([f(t) for t in thetas]) for f in (math.sin, math.cos))
        cos_p, sin_p = (np.array([f(p) for p in phis]) for f in (math.cos, math.sin))
        return np.column_stack([
            (radius * np.outer(sin_t, cos_p)).ravel(),
            (radius * np.outer(sin_t, sin_p)).ravel(),
            np.repeat(radius * cos_t, 2 * res),
        ])
    # explicit, the one generator left: _build_config has checked the name
    pts = []
    for i, chunk in enumerate(sec.get("points", "").split(";")):
        if not chunk.strip():
            continue
        vals = _floats(chunk, f"[targets] points entry {i + 1}")
        if len(vals) != 3:
            raise ConfigError(f"[targets] points entry {i + 1} is not an x,y,z triple")
        pts.append(vals)
    if not pts:
        raise ConfigError("[targets] explicit generator needs a points list")
    return np.array(pts)


# every other section and key that _build_config reads; any other is a typo
_CONFIG_KEYS = {
    "kernel": {"kind", "omega"},
    "density": {"kind"},
    "grid": {"n_t", "n_phi"},
    "output": {"path"},
}
# the [targets] keys that each generator reads besides generator itself
_TARGET_KEYS = {
    "plane": {"axis", "offset", "extent", "resolution"},
    "radial-sweep": {"distances", "angles"},
    "random": {"count", "shell", "seed"},
    "shell": {"radius", "resolution"},
    "explicit": {"points"},
}


def _build_config(sections: dict) -> ExperimentConfig:
    """Validate a {section: {key: value}} mapping, the config-file schema.

    Files give string values and presets give numbers where a file gives
    a number; both parse the same way. A section or key that is never read
    is a ConfigError naming it.
    """
    if "cone" in sections:
        raise ConfigError("[cone] is not configurable: the cone constants are fixed")
    shape = sections.get("surface", {}).get("shape", "sphere")
    cls, shape_keys = _lookup(
        _SHAPES, shape, "[surface] unknown shape {!r}; use sphere, spheroid or blob"
    )
    gen = sections.get("targets", {}).get("generator", "plane")
    gen_keys = _lookup(_TARGET_KEYS, gen, "[targets] unknown generator {!r}")
    known = {"surface": {"shape", "theta_map", *shape_keys}, **_CONFIG_KEYS,
             "targets": {"generator", *gen_keys}}
    unknown = [f"[{name}]" for name in sections if name not in known]
    unknown += [f"[{name}] {key}" for name, keys in known.items()
                for key in sections.get(name, {}) if key not in keys]
    if unknown:
        raise ConfigError(f"unknown config entries: {', '.join(unknown)}")
    try:
        surf = sections["surface"]
        try:
            tmap = theta_map_by_name(surf.get("theta_map", "cosine"))
        except ValueError as exc:
            raise ConfigError(f"[surface] {exc}")
        sizes = [_positive(surf.get(key, 1.0), f"[surface] {key}") for key in shape_keys]
        surface = cls(*sizes, tmap)
        kern = sections.get("kernel", {})
        make = _lookup(_KERNELS, kern.get("kind", "harmonic_single"), "[kernel] unknown kind {!r}")
        kernel = make(_positive(kern.get("omega", 1.0), "[kernel] omega"))
        dens = sections.get("density", {}).get("kind", "unit")
        density = _lookup(_DENSITIES, dens, "[density] unknown kind {!r}")()
        grid_sec = sections["grid"]
        for key in ("n_t", "n_phi"):
            if key not in grid_sec:
                raise ConfigError(f"[grid] missing {key}")
        n_t, n_phi = int(grid_sec["n_t"]), int(grid_sec["n_phi"])
        # before the targets: their generators read the grid
        if n_t < 4 or n_phi < 4:
            raise ConfigError("[grid] n_t and n_phi must be at least 4")
        targets = _generate_targets(surface, n_t, n_phi, sections["targets"])
        out_path = sections.get("output", {}).get("path", "layerr_out.csv")
    except KeyError as exc:
        raise ConfigError(f"missing config section {exc}")
    except ValueError as exc:
        raise ConfigError(f"invalid config value: {exc}")
    return ExperimentConfig(surface, kernel, density, n_t, n_phi, targets, out_path)


def load_config(path: str) -> ExperimentConfig:
    """Parse and validate an experiment config file (INI-style sections)."""
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"), interpolation=None)
    try:
        read = parser.read(path, encoding="utf-8")
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"config file {path!r} is malformed: {exc}")
    if not read:
        raise ConfigError(f"config file {path!r} not found or unreadable")
    return _build_config({name: dict(parser[name]) for name in parser.sections()})


def _write_csv(path: str, columns, rows) -> str:
    """rows, dicts keyed by columns, written to path as CSV with a header;
    ConfigError naming path if it cannot be opened, written or closed."""
    try:
        with open(path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=columns)
            writer.writeheader()
            writer.writerows(rows)
    except OSError as exc:
        raise ConfigError(f"cannot write output {path!r}: {exc.strerror}")
    return path


def run_experiment(cfg: ExperimentConfig, out_path=None, timing: bool = False) -> str:
    """Estimate the error and measure it at all targets, each in one batch;
    write CSV. With timing, every row's runtime is its equal share of the
    batched estimate plus its equal share of the batched measured error. A
    failed row names its first failure, the measured error's before the
    estimate's, and leaves its result columns blank.

    The estimate runs first: it needs only the base grid, and its working set
    is freed before the measured error streams the 5x reference grid, so the
    run's peak is that of its larger phase rather than their sum. The rows are
    formatted one at a time as the CSV writer asks for them."""
    g = grid(cfg.n_t, cfg.n_phi)
    out = out_path or cfg.out_path
    start = time.perf_counter()
    est = full_estimate(cfg.surface, cfg.kernel, cfg.density, g, cfg.targets, cfg.cone)
    measured = measured_error(cfg.surface, cfg.kernel, cfg.density, g, cfg.targets)
    share = (time.perf_counter() - start) / max(len(cfg.targets), 1)
    runtime = _fmt(share * 1e6 if timing else 0.0)

    def rows():
        # a failed row leaves its result columns to the writer's blank restval
        for point, eq, e, d, total, tz, gl, skipped, t, phi in zip(
            cfg.targets.tolist(), measured, est.errors, est.grid_distance.tolist(),
            est.total.tolist(), est.e_tz.tolist(), est.e_gl.tolist(), est.tz_skipped.tolist(),
            est.t_star.tolist(), est.phi_star.tolist(),
        ):
            error = eq if isinstance(eq, LayerrError) else e
            row = dict(zip("xyz", map(_fmt, point)), runtime_us=runtime,
                       error="" if error is None else str(error))
            if error is None:
                row.update(distance_to_grid=_fmt(d), E_Q=_fmt(eq), E_EST=_fmt(total),
                           E_TZ=_fmt(tz), E_GL=_fmt(gl), tz_skipped="true" if skipped else "false",
                           t_star=_fmt(t), phi_star=_fmt(phi))
            yield row

    return _write_csv(out, CSV_COLUMNS, rows())


# Presets in the config-file schema; unset keys take the file defaults.
_PLANE = {"generator": "plane", "axis": "y", "offset": 0.0, "extent": 2.0, "resolution": 40}
_PRESETS = {
    # error field on the symmetry plane of a unit sphere, linear polar map
    "sphere-linear": {
        "surface": {"shape": "sphere", "a": 1.0, "theta_map": "linear"},
        "kernel": {"kind": "harmonic_single"},
        "density": {"kind": "unit"},
        "grid": {"n_t": 30, "n_phi": 60},
        "targets": _PLANE,
    },
    # same field with the cosine polar map
    "sphere-cosine": {
        "surface": {"shape": "sphere", "a": 1.0, "theta_map": "cosine"},
        "kernel": {"kind": "harmonic_single"},
        "density": {"kind": "unit"},
        "grid": {"n_t": 30, "n_phi": 60},
        "targets": _PLANE,
    },
    # single layer on a wall grazing a 3:1 prolate spheroid
    "spheroid-wall": {
        "surface": {"shape": "spheroid", "a": 1.0, "b": 3.0, "theta_map": "cosine"},
        "kernel": {"kind": "harmonic_single"},
        "density": {"kind": "paper"},
        "grid": {"n_t": 40, "n_phi": 80},
        "targets": {**_PLANE, "offset": 1.02, "extent": 3.5},
    },
    # double layer at random points around the same spheroid
    "spheroid-random": {
        "surface": {"shape": "spheroid", "a": 1.0, "b": 3.0, "theta_map": "cosine"},
        "kernel": {"kind": "harmonic_double"},
        "density": {"kind": "paper"},
        "grid": {"n_t": 60, "n_phi": 120},
        "targets": {"generator": "random", "count": 300, "shell": "1.02, 2.0", "seed": 7},
    },
    # screened single layer on the shell enclosing the reference blob
    "blob-shell": {
        "surface": {"shape": "blob", "theta_map": "cosine"},
        "kernel": {"kind": "mod_helmholtz_single", "omega": 3.0},
        "density": {"kind": "paper"},
        "grid": {"n_t": 40, "n_phi": 80},
        "targets": {"generator": "shell", "radius": 1.46, "resolution": 24},
    },
}


def preset_config(name: str) -> ExperimentConfig:
    """Instantiate a built-in preset by name."""
    if name not in _PRESETS:
        raise ConfigError(
            f"unknown preset {name!r}; available: {', '.join(sorted(_PRESETS))}"
        )
    return _build_config({**_PRESETS[name], "output": {"path": f"{name}.csv"}})


def sphere_sweep(a: float, n_list, distances, out_path: str) -> str:
    """Measured-error range vs the simplified bound; cosine map enforced.

    For each polar count n_t and signed distance d, targets cover the full
    polar range at radius a + d over a thin azimuthal sector; columns are
    n, d, E_Q_min, E_Q_max, E_simplified with n = 2 n_t in the bound. The
    measured kernel is the harmonic single layer, so the bound uses its
    power p = 1/2.
    """
    _positive(a, "--a")
    if not n_list or any(n_t < 1 for n_t in n_list):
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
            if not math.isfinite(zeta) or zeta <= 0 or zeta == a:
                raise ConfigError(f"distance {d} is not finite or hits the sphere or center")
            block = [
                zeta * _unit_direction((i + 0.5) * math.pi / 40, phi)
                for i in range(40)
                for phi in (0.0, math.pi / (2 * n), math.pi / n)
            ]
            eqs = measured_error(surface, kernel, density, g, np.array(block))
            failure = next((eq for eq in eqs if isinstance(eq, LayerrError)), None)
            if failure is not None:
                raise ConfigError(f"distance {d} has no measured error: {failure}") from failure
            lo, hi = min(eqs), max(eqs)
            row = (n_t, d, lo, hi, sphere_simplified(zeta, a, kernel.p, n))
            rows.append(dict(zip(SWEEP_COLUMNS, map(_fmt, row))))
    return _write_csv(out_path, SWEEP_COLUMNS, rows)


def roots_check(surface_name: str, samples: int, seed: int, a: float = 1.0, b: float = 3.0):
    """Compare closed-form roots against Newton; returns (report, ok).

    Spheres check the polar root, other axisymmetric surfaces the
    azimuthal root, both against the Newton iteration on the analytic
    parametrization (max deviation 1e-10, residuals 1e-10 * scale^2).
    The blob, which has no closed form, checks the residual of the Newton
    polar root on its analytic parametrization, the solve the estimate
    runs (1e-8 * scale^2). Each draw() returns the fixed coordinate, the
    target and the real part of the guess (NaN if the closed form gives it).
    All samples are solved as one block; a sample without a root fails.
    """
    _positive(a, "--a")
    _positive(b, "--b")
    if samples < 1:
        raise ConfigError(f"--samples must be at least 1, got {samples}")
    rng = np.random.default_rng(seed)
    name = surface_name.lower()
    if name == "sphere":
        surface, scale, line, variable, bound = Sphere(a), a, theta_line, VAR_THETA, 1e-10
        kind = "sphere polar roots (closed form vs Newton)"
        closed_form = partial(sphere_theta_root, a)

        def draw():
            phi_bar = 2.0 * math.pi * rng.random()
            zeta = a * (1.05 + 1.95 * rng.random()) if rng.random() < 0.5 else a / (
                1.05 + 1.95 * rng.random()
            )
            theta = math.acos(1.0 - 2.0 * rng.random())
            psi = 2.0 * math.pi * rng.random()
            return phi_bar, zeta * _unit_direction(theta, psi), math.nan

    elif name == "spheroid":
        surface, scale, line, variable, bound = Spheroid(a, b), max(a, b), phi_line, VAR_PHI, 1e-10
        kind = "spheroid azimuthal roots (closed form vs Newton)"
        closed_form = partial(axisym_phi_root, surface)

        def draw():
            theta_bar = 0.05 + (math.pi - 0.1) * rng.random()
            s = 1.05 + 0.95 * rng.random()
            theta = math.acos(1.0 - 2.0 * rng.random())
            psi = 2.0 * math.pi * rng.random()
            return theta_bar, s * np.real(surface.position(theta, psi)), math.nan

    elif name == "blob":
        surface, scale, line, variable, bound = paper_blob(), 1.2, theta_line, VAR_THETA, 1e-8
        kind = "blob polar roots by Newton on the parametrization (residual only)"
        closed_form = None

        def draw():
            theta_star = 0.3 + (math.pi - 0.6) * rng.random()
            phi_star = 2.0 * math.pi * rng.random()
            s = 1.1 + 0.5 * rng.random()
            return phi_star, s * np.real(surface.position(theta_star, phi_star)), theta_star

    else:
        raise ConfigError(f"unknown surface {surface_name!r} for roots-check")
    fixed, x, guess = (np.array(v) for v in zip(*(draw() for _ in range(samples))))
    ana = closed_form(fixed, x) if closed_form else None
    start = guess if ana is None else ana.value.real
    newt = newton_root(line(surface, fixed), variable, fixed, x, start, scale, nearest=True)
    max_dev = 0.0 if ana is None else np.max(np.abs(ana.value - newt.value))
    max_res = np.max(newt.residual if ana is None else [newt.residual, ana.residual])
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
    try:
        rule = builders[args.rule](args.n)
    except ValueError as exc:
        raise ConfigError(f"--n: {exc}")
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

    for command, source, text in (
        ("run", "config", "run an experiment from a config file"),
        ("preset", "name", "run a built-in experiment preset"),
    ):
        p_exp = sub.add_parser(command, help=text)
        p_exp.add_argument("source", metavar=source)
        p_exp.add_argument("--out", default=None)
        p_exp.add_argument("--timing", action="store_true", help="record wall-clock per point")

    p_sweep = sub.add_parser(
        "sphere-sweep", help="measured single-layer error vs simplified sphere bound"
    )
    p_sweep.add_argument("--a", type=float, default=1.0)
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
        if args.command in ("run", "preset"):
            cfg = (load_config if args.command == "run" else preset_config)(args.source)
            out = run_experiment(cfg, args.out, args.timing)
            print(f"wrote {out} ({len(cfg.targets)} targets)")
            return EXIT_OK
        if args.command == "sphere-sweep":
            try:
                n_list = [int(v) for v in args.n.split(",") if v.strip()]
            except ValueError:
                raise ConfigError("could not parse '--n' as a comma-separated integer list")
            distances = _floats(args.distances, "--distances")
            out = sphere_sweep(args.a, n_list, distances, args.out)
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
