"""Seeded corpus of full_estimate inputs with their stored outcomes.

The inputs mix spheres, spheroids and the blob, both polar maps, all three
kernels, both densities, grids of 4-64 nodes per direction, and targets on
the axis, at the centre, at a pole, on the surface, next to it and on
scaled shells, so that every fallback of the estimator runs somewhere: the
tangent-root anchor, the sweep model at failed chain nodes, the model tail
beyond the t-interval, the small-G2 and cone skips, NoRootExists and the
conjugation of t0.

Each outcome is e_tz, e_gl and tz_skipped, or the LayerrError class name.
tests/test_estimate_corpus.py compares the current code against them.

    PYTHONPATH=src python tests/estimate_corpus.py          # write all outcomes
    PYTHONPATH=src python tests/estimate_corpus.py --fill   # fill unfixed ones

The first form records what the importable layerr computes, but keeps a
stored outcome, with its "fixed_from", wherever the new one still matches it
by matches(), so that a rewrite changes only the cases that really moved, and
prints each case whose stored outcome it replaced with the old and the new
outcome; an outcome that is NaN or an exception other than LayerrError is
stored as "unfixed". The second form recomputes only the unfixed outcomes
with the importable code and keeps what they were under "fixed_from".

After a rewrite, rerun the tests marked stored_bits, the corpus's among them,
under numpy's default dispatch and with its AVX512 targets disabled:

    PYTHONPATH=src python -m pytest -q -m stored_bits tests
"""
from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import numpy as np

from layerr.errors import LayerrError
from layerr.estimates import full_estimate
from layerr.potentials import (
    harmonic_double,
    harmonic_single,
    mod_helmholtz_single,
    paper_density,
    unit_density,
)
from layerr.quadrature import grid
from layerr.surfaces import Sphere, Spheroid, paper_blob, theta_map_by_name

CORPUS = Path(__file__).with_name("estimate_corpus.json")
SEED = 5
COUNT = 120
_SHAPES = ("sphere", "spheroid", "blob")
_KERNELS = ("harmonic_single", "harmonic_double", "mod_helmholtz_single")
_TARGETS = ("axis", "centre", "pole", "surface", "near", "shell", "shell", "shell")


def build_surface(case):
    tmap = theta_map_by_name(case["theta_map"])
    if case["shape"] == "sphere":
        return Sphere(case["a"], tmap)
    if case["shape"] == "spheroid":
        return Spheroid(case["a"], case["b"], tmap)
    return paper_blob(tmap)


def build_kernel(case):
    if case["kernel"] == "harmonic_single":
        return harmonic_single()
    if case["kernel"] == "harmonic_double":
        return harmonic_double()
    return mod_helmholtz_single(case["omega"])


def _target(rng, surface, kind):
    if kind == "centre":
        return [0.0, 0.0, 0.0]
    if kind == "axis":
        return [0.0, 0.0, float(rng.choice((-1.0, 1.0)) * rng.uniform(0.1, 3.0))]
    if kind == "pole":
        return np.real(surface.position(float(rng.choice((0.0, math.pi))), 0.0)).tolist()
    theta = math.acos(1.0 - 2.0 * rng.random())
    phi = 2.0 * math.pi * rng.random()
    pos = np.real(surface.position(theta, phi))
    if kind == "surface":
        return pos.tolist()
    if kind == "near":
        return (pos * (1.0 + rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-6.0, -2.0))).tolist()
    return (pos * rng.uniform(0.3, 3.0)).tolist()


def make_cases(seed: int = SEED, count: int = COUNT):
    rng = np.random.default_rng(seed)
    cases = []
    for _ in range(count):
        case = {
            "shape": _SHAPES[rng.integers(3)],
            "a": float(rng.uniform(0.5, 2.0)),
            "b": float(rng.uniform(0.5, 3.0)),
            "theta_map": ("cosine", "linear")[rng.integers(2)],
            "kernel": _KERNELS[rng.integers(3)],
            "omega": float(rng.uniform(0.5, 5.0)),
            "density": ("unit", "paper")[rng.integers(2)],
            "n_t": int(rng.integers(4, 65)),
            "n_phi": int(rng.integers(4, 65)),
            "target": _TARGETS[rng.integers(len(_TARGETS))],
        }
        case["x"] = _target(rng, build_surface(case), case["target"])
        cases.append(case)
    return cases


def outcome(case) -> dict:
    density = unit_density() if case["density"] == "unit" else paper_density()
    g = grid(case["n_t"], case["n_phi"])
    try:
        bd = full_estimate(build_surface(case), build_kernel(case), density, g, case["x"])
    except LayerrError as exc:
        return {"error": type(exc).__name__}
    except Exception as exc:  # recorded so that a fixed outcome can replace it
        return {"unfixed": type(exc).__name__}
    if not (math.isfinite(bd.e_tz) and math.isfinite(bd.e_gl)):
        return {"unfixed": "nan"}
    return {"e_tz": float(bd.e_tz), "e_gl": float(bd.e_gl), "tz_skipped": bool(bd.tz_skipped)}


def matches(got: dict, want: dict) -> bool:
    """Whether an outcome got matches the stored outcome want, without its
    "fixed_from": the same error, or the same tz_skipped and values within
    rtol 1e-10 of the stored ones, the tolerance for estimator rewrites."""
    want = {k: v for k, v in want.items() if k != "fixed_from"}
    if set(got) != set(want) or "error" in want:
        return got == want
    return got["tz_skipped"] == want["tz_skipped"] and all(
        got[k] == want[k]
        or (math.isfinite(want[k]) and abs(got[k] - want[k]) <= 1e-10 * abs(want[k]))
        for k in ("e_tz", "e_gl")
    )


def main(argv) -> int:
    if argv == ["--fill"]:
        entries = json.loads(CORPUS.read_text())
        for entry in entries:
            if "unfixed" in entry["outcome"]:
                fixed = outcome(entry["case"])
                fixed["fixed_from"] = entry["outcome"]["unfixed"]
                entry["outcome"] = fixed
    elif not argv:
        entries = json.loads(CORPUS.read_text()) if CORPUS.exists() else []
        stored = {json.dumps(e["case"]): e["outcome"] for e in entries}
        entries = []
        for i, case in enumerate(make_cases()):
            new, old = outcome(case), stored.get(json.dumps(case))
            if old and matches(new, old):
                new = old
            elif old:
                print(f"case {i} replaced: {json.dumps(old)} -> {json.dumps(new)}")
            entries.append({"case": case, "outcome": new})
    else:
        print(__doc__, file=sys.stderr)
        return 1
    CORPUS.write_text("[\n" + ",\n".join(json.dumps(e) for e in entries) + "\n]\n")
    left = sum("unfixed" in entry["outcome"] for entry in entries)
    print(f"wrote {CORPUS} ({len(entries)} cases, {left} unfixed)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
