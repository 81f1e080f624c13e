"""The benchmark's workloads: three CLI presets, built through the public API.

``sphere-cosine`` and ``blob-shell`` come from ``preset_config``; their target
generators (plane, shell) take no seed, so every seed gives the same inputs.
``spheroid-random`` is built by ``load_config`` from an INI that mirrors the
preset with the benchmark's seed in its ``[targets]`` section; seed 7 gives
the preset's own targets.
"""
from __future__ import annotations

from pathlib import Path

DEFAULT_SEED = 7

SPHEROID_RANDOM_INI = """\
[surface]
shape = spheroid
a = 1.0
b = 3.0
theta_map = cosine

[kernel]
kind = harmonic_double

[density]
kind = paper

[grid]
n_t = 60
n_phi = 120

[targets]
generator = random
count = 300
shell = 1.02, 2.0
seed = {seed}

[output]
path = {out}
"""

# name -> INI template with a {seed} field, or None for a preset whose
# target generator takes no seed
WORKLOADS = {
    "sphere-cosine": None,
    "spheroid-random": SPHEROID_RANDOM_INI,
    "blob-shell": None,
}


def write_ini(workload: str, seed: int, workdir: Path) -> Path | None:
    """Write the INI a seeded workload is loaded from; None for presets."""
    template = WORKLOADS[workload]
    if template is None:
        return None
    path = workdir / f"{workload}-seed{seed}.ini"
    path.write_text(template.format(seed=seed, out=workdir / "unused.csv"))
    return path


def build_config(workload: str, ini: Path | None):
    """Set-up: a fresh ExperimentConfig with new Surface objects (cold tables)."""
    from layerr.cli import load_config, preset_config

    if ini is None:
        return preset_config(workload)
    return load_config(str(ini))
