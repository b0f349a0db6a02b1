"""Span tracer that wraps the public functions of each elastodual layer from
outside the package.

A wrapper is installed on the module attribute its caller looks up at call
time: ``fem3d`` calls ``tensor3d.g_star_k_density`` through the module, and
``primal1d`` calls ``solve_tridiagonal`` by bare name through its own
globals, which are the same dictionary.  Spans (name, parent, op, start, end)
are kept in flat arrays while ops run and are written out once at the end.
A target missing from the imported package is reported as absent with zero
calls, so a later rewrite of a layer runs the same benchmark unchanged.
"""

from __future__ import annotations

import time
from array import array
from collections import defaultdict

import numpy as np

# (module, function) pairs; the span name is "module.function".
TARGETS = (
    ("cli", "main"),
    ("primal1d", "solve_newton"),
    ("primal1d", "solve_descent"),
    ("primal1d", "solve_tridiagonal"),
    ("primal1d", "energy"),
    ("primal1d", "second_variation_min_eig"),
    ("dual1d", "certify"),
    ("dual1d", "saddle_verify"),
    ("dual1d", "minimize_in_z_ball"),
    ("dual1d", "dual_functional"),
    ("dual1d", "kkt_solve"),
    ("tensor3d", "g_star_k_density"),
    ("tensor3d", "construct_duals_pointwise"),
    ("tensor3d", "pd_margin"),
    ("tensor3d", "f_star_3d_density"),
    ("tensor3d", "dstar_hessian_z_3d"),
    ("tensor3d", "admissible_k_max"),
    ("fem3d", "certify_3d"),
    ("fem3d", "solve_newton_3d"),
    ("fem3d", "hessian_3d"),
    ("fem3d", "residual_3d"),
    ("fem3d", "energy_3d"),
)

_SIZEOF_DOUBLE = 8


def _kkt_counters(args, result) -> dict:
    """Newton iterations, and the dense Jacobian the solver builds when it
    iterates at all: (3n + n-1)^2 doubles (computed, not measured)."""
    iters = int(result[2])
    n = int(args[0].grid.n_elem)
    dense = (4 * n - 1) ** 2 * _SIZEOF_DOUBLE if iters > 0 else 0
    return {"iters": iters, "dense_bytes": dense}


def _hessian_3d_counters(args, result) -> dict:
    """Dense tangent of n_dof^2 doubles (computed from the mesh)."""
    n_dof = int(args[1].n_dof)
    return {"dense_bytes": n_dof * n_dof * _SIZEOF_DOUBLE}


# Counters derived from a call's arguments and result.  "dense_bytes" keeps
# the maximum over calls, everything else the sum.
COUNTERS = {
    "dual1d.kkt_solve": _kkt_counters,
    "fem3d.hessian_3d": _hessian_3d_counters,
}
MAX_COUNTERS = {"dense_bytes"}


class Tracer:
    """Installs span-recording wrappers and restores the originals."""

    def __init__(self, modules: dict):
        self.modules = modules
        self.names: list[str] = []
        self.absent: list[str] = []
        self._originals: list[tuple[object, str, object]] = []
        self.op_index = -1  # spans are recorded only while an op runs
        self.name_id = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.counters: dict[str, dict[str, float]] = defaultdict(
            lambda: defaultdict(float)
        )

    def install(self) -> None:
        for mod_name, fn_name in TARGETS:
            name = f"{mod_name}.{fn_name}"
            module = self.modules.get(mod_name)
            original = getattr(module, fn_name, None) if module else None
            if not callable(original):
                self.absent.append(name)
                continue
            self._originals.append((module, fn_name, original))
            setattr(module, fn_name, self._wrap(name, original))

    def uninstall(self) -> None:
        for module, fn_name, original in reversed(self._originals):
            setattr(module, fn_name, original)
        self._originals.clear()

    def _wrap(self, name: str, original):
        sid = len(self.names)
        self.names.append(name)
        counter = COUNTERS.get(name)
        tracer = self

        def traced(*args, **kwargs):
            if tracer.op_index < 0:
                return original(*args, **kwargs)
            idx = len(tracer.start)
            tracer.name_id.append(sid)
            tracer.parent.append(tracer._stack[-1] if tracer._stack else -1)
            tracer.op.append(tracer.op_index)
            tracer.end.append(0.0)
            tracer._stack.append(idx)
            tracer.start.append(time.perf_counter())
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.end[idx] = time.perf_counter()
                tracer._stack.pop()
            if counter is not None:
                tracer._count(name, counter, args, result)
            return result

        traced.__wrapped__ = original
        traced.__name__ = getattr(original, "__name__", name)
        traced.__doc__ = getattr(original, "__doc__", None)
        return traced

    def _count(self, name, counter, args, result) -> None:
        try:
            values = counter(args, result)
        except (AttributeError, IndexError, TypeError, ValueError):
            return  # the call no longer has the shape the counter reads
        slot = self.counters[name]
        for key, value in values.items():
            slot[key] = max(slot[key], value) if key in MAX_COUNTERS else slot[key] + value

    def layer_stats(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, busy_s (inclusive) and self_s (busy minus the
        time covered by wrapped children), summed over all recorded ops."""
        name_id = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=dur.size)
        k = len(self.names)
        calls = np.bincount(name_id, minlength=k)
        busy = np.bincount(name_id, weights=dur, minlength=k)
        own = np.bincount(name_id, weights=dur - child, minlength=k)
        stats = {
            name: {"calls": int(calls[i]), "busy_s": float(busy[i]), "self_s": float(own[i])}
            for i, name in enumerate(self.names)
        }
        for name in self.absent:
            stats[name] = {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "absent": True}
        for name, values in self.counters.items():
            stats[name].update(values)
        return stats

    def root_busy_s(self) -> float:
        """Total duration of spans that have no wrapped parent."""
        roots = np.frombuffer(self.parent, dtype=np.int32) < 0
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        return float(dur[roots].sum())

    def write(self, path) -> None:
        """Write every span to a compressed ``.npz`` (arrays of equal length;
        ``parent`` indexes the same arrays, -1 for a root span)."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            absent=np.array(self.absent, dtype=str),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            op=np.frombuffer(self.op, dtype=np.int32),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
        )
