"""Per-layer counters for one traced run, recorded from outside the library.

``Tracer`` wraps the public functions through which one layer calls the next
and the evaluators of the surface object the benchmark owns; leaving the
``with`` block restores every patched attribute. Nothing under ``src/`` is
changed. Counters are kept per worker thread and summed in ``metrics()``.

Layer boundaries (and what is recorded there):

* ``layerr.potentials.potential_quadrature``: base and reference sums, told
  apart by the grid argument. A call during which the thread built grid nodes
  counts as table-build time, the others as sum time.
* ``surface.eval_t`` outside an estimate: one call per grid node built.
* ``layerr.potentials.nearest_grid_node``: the nearest-node scan.
* ``layerr.cli.full_estimate``: per-point estimate time; self time excludes
  the root solves and nearest-node scans made inside it.
* ``newton_root``, ``axisym_phi_root``, ``sphere_theta_root`` as imported into
  ``layerr.estimates``: ``nearest=True`` marks an anchor solve, otherwise a
  sweep-chain step; Newton iterations count calls of the ``line`` argument.
* ``surface.eval_sph``: every surface evaluation.
* ``layerr.cli.csv``: time spent in ``DictWriter`` calls.
"""
from __future__ import annotations

import threading
import time
from collections import defaultdict

from .stats import percentile

# Bytes of node tables one sum reads per node: positions (3 doubles), weights
# and density (one double each); the double layer also reads the normals.
_NODE_BYTES = 40
_NORMAL_BYTES = 24


class _ThreadStats:
    def __init__(self):
        self.c = defaultdict(float)
        self.point_s = []
        self.in_estimate = 0
        self.nodes_built = 0


class Tracer:
    """Context manager that traces one run_experiment call on ``cfg``."""

    def __init__(self, cfg):
        self.cfg = cfg
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads = []
        self._patches = []

    # patching --------------------------------------------------------

    def _patch(self, obj, name, make_wrapper):
        had = name in vars(obj)
        old = vars(obj).get(name)
        self._patches.append((obj, name, had, old))
        setattr(obj, name, make_wrapper(getattr(obj, name)))

    def __enter__(self):
        import layerr.cli as cli
        import layerr.estimates as est
        import layerr.potentials as pot

        surface = self.cfg.surface
        self._patch(pot, "potential_quadrature", self._wrap_sum)
        self._patch(pot, "nearest_grid_node", self._wrap_nearest)
        self._patch(cli, "full_estimate", self._wrap_estimate)
        self._patch(est, "newton_root", self._wrap_newton)
        self._patch(est, "axisym_phi_root", self._wrap_closed_form)
        self._patch(est, "sphere_theta_root", self._wrap_closed_form)
        self._patch(cli, "csv", lambda mod: _CsvShim(mod, self))
        self._patch(surface, "eval_t", self._wrap_eval_t)
        self._patch(surface, "eval_sph", self._wrap_eval_sph)
        return self

    def __exit__(self, *exc_info):
        while self._patches:
            obj, name, had, old = self._patches.pop()
            if had:
                setattr(obj, name, old)
            else:
                delattr(obj, name)
        return False

    def _stats(self) -> _ThreadStats:
        st = getattr(self._local, "st", None)
        if st is None:
            st = self._local.st = _ThreadStats()
            with self._lock:
                self._threads.append(st)
        return st

    # wrappers --------------------------------------------------------

    def _wrap_sum(self, orig):
        cfg = self.cfg
        node_bytes = _NODE_BYTES + (_NORMAL_BYTES if cfg.kernel.kind == "harmonic_double" else 0)

        def potential_quadrature(surface, kernel, density, g, x):
            st = self._stats()
            built = st.nodes_built
            t0 = time.perf_counter()
            try:
                return orig(surface, kernel, density, g, x)
            finally:
                dt = time.perf_counter() - t0
                kind = "base" if (g.n_t, g.n_phi) == (cfg.n_t, cfg.n_phi) else "ref"
                if st.nodes_built > built:
                    st.c[f"build_s.{kind}"] += dt
                else:
                    nodes = g.n_t * g.n_phi
                    st.c[f"sum_s.{kind}"] += dt
                    st.c[f"sum_calls.{kind}"] += 1
                    st.c["sum_nodes"] += nodes
                    st.c["sum_bytes"] += nodes * node_bytes

        return potential_quadrature

    def _wrap_nearest(self, orig):
        def nearest_grid_node(surface, g, x):
            st = self._stats()
            t0 = time.perf_counter()
            try:
                return orig(surface, g, x)
            finally:
                dt = time.perf_counter() - t0
                st.c["nearest_calls"] += 1
                st.c["nearest_s"] += dt
                if st.in_estimate:
                    st.c["estimate_child_s"] += dt

        return nearest_grid_node

    def _wrap_estimate(self, orig):
        def full_estimate(*args, **kwargs):
            st = self._stats()
            st.in_estimate += 1
            t0 = time.perf_counter()
            try:
                return orig(*args, **kwargs)
            finally:
                st.point_s.append(time.perf_counter() - t0)
                st.in_estimate -= 1

        return full_estimate

    def _add_root_time(self, st, key, dt):
        st.c[key] += dt
        if st.in_estimate:
            st.c["estimate_child_s"] += dt

    def _wrap_newton(self, orig):
        from layerr.errors import NonConvergence

        def newton_root(line, *args, **kwargs):
            # positional order after line: variable, fixed, x, initial, scale, nearest
            nearest = kwargs.get("nearest", args[5] if len(args) > 5 else False)
            kind = "anchor" if nearest else "sweep"
            st = self._stats()
            iters = 0

            def counted_line(w):
                nonlocal iters
                iters += 1
                return line(w)

            t0 = time.perf_counter()
            try:
                return orig(counted_line, *args, **kwargs)
            except NonConvergence:
                st.c[f"{kind}_failed"] += 1
                raise
            finally:
                st.c[f"{kind}_calls"] += 1
                st.c[f"{kind}_iters"] += iters
                self._add_root_time(st, f"{kind}_s", time.perf_counter() - t0)

        return newton_root

    def _wrap_closed_form(self, orig):
        from layerr.errors import NoRootExists

        def closed_form_root(*args, **kwargs):
            st = self._stats()
            t0 = time.perf_counter()
            try:
                return orig(*args, **kwargs)
            except NoRootExists:
                st.c["no_root"] += 1
                raise
            finally:
                st.c["closed_form_calls"] += 1
                self._add_root_time(st, "closed_form_s", time.perf_counter() - t0)

        return closed_form_root

    def _wrap_eval_t(self, orig):
        def eval_t(t, phi):
            st = self._stats()
            if not st.in_estimate:
                st.nodes_built += 1
            return orig(t, phi)

        return eval_t

    def _wrap_eval_sph(self, orig):
        def eval_sph(theta, phi):
            self._stats().c["eval_calls"] += 1
            return orig(theta, phi)

        return eval_sph

    # results ---------------------------------------------------------

    def metrics(self, workers: int) -> dict:
        """Per-layer metrics as {name: (value, unit)}."""
        c = defaultdict(float)
        points = []
        built = 0
        for st in self._threads:
            for k, v in st.c.items():
                c[k] += v
            points.extend(st.point_s)
            built += st.nodes_built
        sum_s = c["sum_s.base"] + c["sum_s.ref"]
        estimate_s = sum(points)
        ref_cost = c["sum_s.ref"] + c["build_s.ref"]
        sweeps = c["sweep_calls"]
        point_ms = [1e3 * s for s in points] or [0.0]
        out = {
            "potentials.grid_nodes_built": (built, "count"),
            "potentials.grid_build_s": (c["build_s.base"] + c["build_s.ref"], "s"),
            "potentials.base_sum_s": (c["sum_s.base"], "s"),
            "potentials.ref_sum_s": (c["sum_s.ref"], "s"),
            "potentials.ref_sum_us_per_point": (
                1e6 * c["sum_s.ref"] / c["sum_calls.ref"] if c["sum_calls.ref"] else 0.0,
                "us",
            ),
            "potentials.sum_nodes": (c["sum_nodes"], "count"),
            "potentials.sum_node_rate": (c["sum_nodes"] / sum_s if sum_s else 0.0, "1/s"),
            "potentials.sum_bytes_computed": (c["sum_bytes"], "bytes"),
            "potentials.nearest_s": (c["nearest_s"], "s"),
            "potentials.nearest_calls": (c["nearest_calls"], "count"),
            "estimates.full_estimate_s": (estimate_s, "s"),
            "estimates.point_p50_ms": (percentile(point_ms, 50.0), "ms"),
            "estimates.point_p99_ms": (percentile(point_ms, 99.0), "ms"),
            "estimates.self_s": (estimate_s - c["estimate_child_s"], "s"),
            "estimates.cost_vs_reference": (estimate_s / ref_cost if ref_cost else 0.0, "ratio"),
            "roots.closed_form_calls": (c["closed_form_calls"], "count"),
            "roots.closed_form_s": (c["closed_form_s"], "s"),
            "roots.no_root": (c["no_root"], "count"),
            "roots.sweep_converged_frac": (
                (sweeps - c["sweep_failed"]) / sweeps if sweeps else 1.0,
                "ratio",
            ),
            "surfaces.eval_calls": (c["eval_calls"], "count"),
            "cli.csv_emit_s": (c["csv_s"], "s"),
            "cli.workers": (workers, "count"),
        }
        for kind in ("anchor", "sweep"):
            out[f"roots.{kind}_newton_calls"] = (c[f"{kind}_calls"], "count")
            out[f"roots.{kind}_newton_iters"] = (c[f"{kind}_iters"], "count")
            out[f"roots.{kind}_newton_failed"] = (c[f"{kind}_failed"], "count")
            out[f"roots.{kind}_newton_s"] = (c[f"{kind}_s"], "s")
        return {k: (int(v) if u == "count" else v, u) for k, (v, u) in out.items()}


class _TimedDictWriter:
    def __init__(self, tracer: Tracer, inner):
        self._tracer = tracer
        self._inner = inner

    def _timed(self, method, *args):
        t0 = time.perf_counter()
        try:
            return method(*args)
        finally:
            self._tracer._stats().c["csv_s"] += time.perf_counter() - t0

    def writeheader(self):
        return self._timed(self._inner.writeheader)

    def writerow(self, row):
        return self._timed(self._inner.writerow, row)

    def writerows(self, rows):
        return self._timed(self._inner.writerows, rows)


class _CsvShim:
    """Stands in for the csv module inside layerr.cli; times DictWriter use."""

    def __init__(self, module, tracer: Tracer):
        self._module = module
        self._tracer = tracer

    def DictWriter(self, *args, **kwargs):
        t0 = time.perf_counter()
        inner = self._module.DictWriter(*args, **kwargs)
        self._tracer._stats().c["csv_s"] += time.perf_counter() - t0
        return _TimedDictWriter(self._tracer, inner)

    def __getattr__(self, name):
        return getattr(self._module, name)

