"""In-memory span tracer for the kickedtop package, installed from outside it.

`Tracer.install()` wraps every public module-level function of every
``kickedtop`` module and rebinds the wrapper wherever a ``kickedtop``
module imported the function by name.  Each call records one span
(id, parent, layer, function, start, end, thread CPU time, thread);
spans stay in memory until `Tracer.dump()`.  The layer of a span is the
module that defines the function.  Calls on pool threads that have no
span of their own thread above them hang under the root span (the
outermost call, ``cli.main``).

`layer_metrics()` turns a dump into the per-layer metrics:

- ``<layer>.calls``: spans of the layer.
- ``<layer>.s`` and ``<layer>.cpu_s``: wall and thread-CPU time of the
  layer's outermost spans (no span of the same layer above them), so
  nested calls inside one layer count once; wall minus CPU is waiting.
- ``<layer>.self_s``: each span's wall time minus the union of its child
  spans, summed over the layer's spans.
- ``<layer>.share``: the layer's self thread-CPU time over all layers'.
- ``<layer>.<function>.s`` and ``.calls`` for `FUNCTIONS`; a listed
  function the package no longer defines reports zeros and counts in
  ``trace.absent``.
- Counters taken by `PROBES` at function boundaries, and ratios of them.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import os
import pkgutil
import threading
import time
from collections import defaultdict

import numpy as np

LAYERS = ("cli", "floquet", "cache", "spin", "multifractal", "classical", "spectral", "coeffstats", "io")

# functions whose own time and call count are reported
FUNCTIONS = (
    "floquet.diagonalize",
    "floquet.build_floquet",
    "floquet.parity_operator",
    "floquet.jx_eigenbasis",
    "cache.save_eigensystem",
    "cache.load_eigensystem",
    "spin.coherent_state_matrix",
    "multifractal.expand_states",
    "multifractal.renyi_dimensions",
    "classical.lyapunov_field",
    "classical.phase_portrait",
    "io.write_csv",
)

def _bound(fn, args, kwargs):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _subnormals(a: np.ndarray) -> int:
    """Entries with a subnormal real or imaginary part."""
    tiny = np.finfo(float).tiny
    parts = (a.real, a.imag) if np.iscomplexobj(a) else (a,)
    mask = np.zeros(a.shape, dtype=bool)
    for p in parts:
        mag = np.abs(p)
        mask |= (mag > 0) & (mag < tiny)
    return int(np.count_nonzero(mask))


# Counters taken at function boundaries: probe(fn, args, kwargs, result) -> {counter: increment}
def _probe_save(fn, args, kwargs, result):
    return {"cache.bytes_written": os.path.getsize(_bound(fn, args, kwargs)["path"])}


def _probe_load(fn, args, kwargs, result):
    return {"cache.bytes_read": os.path.getsize(_bound(fn, args, kwargs)["path"])}


def _probe_coherent(fn, args, kwargs, result):
    return {"spin.entries": result.size, "spin.subnormal_entries": _subnormals(result)}


def _probe_expand(fn, args, kwargs, result):
    n, n_states = _bound(fn, args, kwargs)["amplitudes"].shape
    return {"multifractal.expand_flops": 8.0 * n * n * n_states}


def _probe_lyapunov(fn, args, kwargs, result):
    a = _bound(fn, args, kwargs)
    cells = a["grid_spec"].n_phi * a["grid_spec"].n_theta
    return {"classical.traj_kicks": cells * (a["n_kicks"] + a["n_transient"])}


def _probe_portrait(fn, args, kwargs, result):
    a = _bound(fn, args, kwargs)
    return {"classical.traj_kicks": a["n_orbits"] * a["n_kicks"]}


def _probe_eigensystem(fn, args, kwargs, result):
    return {"floquet.degenerate_clusters": result.degenerate_clusters}


def _probe_csv(fn, args, kwargs, result):
    columns = _bound(fn, args, kwargs)["columns"]
    first = np.asarray(next(iter(columns.values())))
    return {"io.rows": first.shape[0], "io.bytes": os.path.getsize(result)}


PROBES = {
    "floquet.diagonalize": _probe_eigensystem,
    "floquet.diagonalize_sectors": _probe_eigensystem,
    "cache.save_eigensystem": _probe_save,
    "cache.load_eigensystem": _probe_load,
    "spin.coherent_state_matrix": _probe_coherent,
    "multifractal.expand_states": _probe_expand,
    "classical.lyapunov_field": _probe_lyapunov,
    "classical.phase_portrait": _probe_portrait,
    "io.write_csv": _probe_csv,
}


class Tracer:
    def __init__(self):
        self.spans = []  # (id, parent, layer, function, t0, t1, cpu_s, thread)
        self.counters = defaultdict(float)
        self.probe_errors = []
        self.wrapped = []
        self.root = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _wrap(self, layer: str, fn):
        key = f"{layer}.{fn.__name__}"
        probe = PROBES.get(key)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(self._local, "stack", None)
            if stack is None:
                stack = self._local.stack = []
            sid = next(self._ids)
            parent = stack[-1] if stack else self.root
            if parent is None:
                self.root = sid
            stack.append(sid)
            c0, t0 = time.thread_time(), time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1, c1 = time.perf_counter(), time.thread_time()
                stack.pop()
                self.spans.append((sid, parent, layer, fn.__name__, t0, t1, c1 - c0, threading.get_ident()))
            if probe is not None:
                p0 = time.perf_counter()
                try:
                    counts = probe(fn, args, kwargs, result)
                except Exception as exc:  # a stale probe must not break the traced run
                    self.probe_errors.append(f"{key}: {exc!r}")
                    counts = {}
                counts["trace.probe_s"] = time.perf_counter() - p0
                with self._lock:
                    for name, value in counts.items():
                        self.counters[name] += value
            return result

        return traced

    def install(self) -> None:
        import kickedtop  # here, not at the top: run.py imports this module without the package on its path

        modules = [kickedtop] + [
            importlib.import_module(f"kickedtop.{info.name}")
            for info in pkgutil.iter_modules(kickedtop.__path__)
        ]
        replacement = {}
        for mod in modules:
            layer = mod.__name__.rpartition(".")[2]
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                replacement[obj] = self._wrap(layer, obj)
                self.wrapped.append(f"{layer}.{name}")
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in replacement:
                    setattr(mod, name, replacement[obj])

    def dump(self) -> dict:
        return {
            "spans": list(self.spans),
            "counters": dict(self.counters),
            "probe_errors": list(self.probe_errors),
            "wrapped": sorted(self.wrapped),
        }


def _union_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals clipped to [lo, hi]."""
    total, end = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def layer_metrics(dump: dict) -> dict:
    """Per-layer metrics of one traced recipe call, as listed in the module docstring."""
    spans = {s[0]: s for s in dump["spans"]}
    children = defaultdict(list)
    for s in spans.values():
        children[s[1]].append(s)

    def outermost(s, key):
        """True when no ancestor span has the same key(s)."""
        p = spans.get(s[1])
        while p is not None:
            if key(p) == key(s):
                return False
            p = spans.get(p[1])
        return True

    m = {}
    for layer in LAYERS:
        for kind in ("calls", "s", "self_s", "cpu_s"):
            m[f"{layer}.{kind}"] = 0.0
    for fname in FUNCTIONS:
        m[f"{fname}.calls"] = 0.0
        m[f"{fname}.s"] = 0.0
    fn_time = defaultdict(float)
    self_cpu = defaultdict(float)
    for s in spans.values():
        sid, _, layer, name, t0, t1, cpu, thread = s
        if layer not in LAYERS:
            continue
        self_s = (t1 - t0) - _union_length([(c[4], c[5]) for c in children[sid]], t0, t1)
        self_cpu[layer] += cpu - sum(c[6] for c in children[sid] if c[7] == thread)
        m[f"{layer}.calls"] += 1
        m[f"{layer}.self_s"] += self_s
        if outermost(s, lambda x: x[2]):
            m[f"{layer}.s"] += t1 - t0
            m[f"{layer}.cpu_s"] += cpu
        fname = f"{layer}.{name}"
        if fname in FUNCTIONS:
            m[f"{fname}.calls"] += 1
            if outermost(s, lambda x: (x[2], x[3])):
                m[f"{fname}.s"] += t1 - t0
                fn_time[fname] += t1 - t0
    # shares by thread CPU: wall self time of a span that waits on pool threads is not work
    busy = sum(self_cpu.values())
    for layer in LAYERS:
        m[f"{layer}.share"] = self_cpu[layer] / busy if busy > 0 else 0.0

    hits = misses = 0
    for s in spans.values():
        if (s[2], s[3]) != ("cache", "cached_eigensystem"):
            continue
        stack, computed = list(children[s[0]]), False
        while stack and not computed:
            c = stack.pop()
            computed = c[2] == "floquet" or (c[2], c[3]) == ("cache", "save_eigensystem")
            stack.extend(children[c[0]])
        misses += computed
        hits += not computed

    c = defaultdict(float, dump["counters"])
    classical_s = fn_time["classical.lyapunov_field"] + fn_time["classical.phase_portrait"]
    m.update(
        {
            "cache.hits": hits,
            "cache.misses": misses,
            "cache.bytes_written": c["cache.bytes_written"],
            "cache.bytes_read": c["cache.bytes_read"],
            "floquet.degenerate_clusters": c["floquet.degenerate_clusters"],
            "spin.subnormal_frac": c["spin.subnormal_entries"] / c["spin.entries"] if c["spin.entries"] else 0.0,
            "multifractal.expand_gflops": (
                c["multifractal.expand_flops"] / fn_time["multifractal.expand_states"] / 1e9
                if fn_time["multifractal.expand_states"] > 0
                else 0.0
            ),
            "classical.ns_per_traj_kick": (
                classical_s / c["classical.traj_kicks"] * 1e9 if c["classical.traj_kicks"] else 0.0
            ),
            "io.rows": c["io.rows"],
            "io.bytes": c["io.bytes"],
            "io.us_per_row": fn_time["io.write_csv"] / c["io.rows"] * 1e6 if c["io.rows"] else 0.0,
            "trace.spans": len(spans),
            "trace.probe_s": c["trace.probe_s"],
            "trace.probe_errors": len(dump["probe_errors"]),
            "trace.absent": sum(f not in dump["wrapped"] for f in FUNCTIONS),
        }
    )
    return m
