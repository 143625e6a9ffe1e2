"""Span recorder for the traced benchmark run.

``Recorder.install`` wraps every public function of each vanhove layer
module.  A wrapped function records a span only when it is called from
another module, so spans mark layer boundaries; calls inside a layer stay
part of that layer's self time.  Each wrapper replaces the function in
every vanhove namespace that holds it, because the modules use
``from .x import f`` (``vanhove.harness.decay_profile``,
``vanhove.cosmology.multi_invariant_density`` and so on).

Spans are kept in memory, one tuple each, and written out by the caller
at the end.  Every thread keeps its own stack of open spans; work that
``vanhove.cosmology`` submits to its thread pool starts with the
submitting span as parent, so pool spans link to ``trajectory_ensemble``.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import os
import sys
import threading
import time
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor

LAYERS = (
    "config", "descriptors", "kernels", "evolution", "wigner",
    "pointer", "cosmology", "harness", "cli",
)


def _dense_bytes(args, result):
    return {"descriptors.dense_bytes": result.regular.values.nbytes}


def _shells_used(args, result):
    rho, hfield = args[0], args[1]
    h = hfield.values
    points = rho.grid.points
    weight = rho.grid.weights * rho.values.real
    used = (weight != 0.0) & (points >= h.min()) & (points <= h.max())
    return {
        "wigner.classical_state_density.shells_used": int(used.sum()),
        "wigner.classical_state_density.shells": points.size,
    }


def _ensemble(args, result):
    entries = result[0].entries
    return {
        "cosmology.trajectory_ensemble.components": len(entries),
        "cosmology.trajectory_ensemble.degenerate": sum(e.degenerate for e in entries),
    }


def _fock(args, result):
    return {
        "cosmology.enumerate_fock.kept": result.size,
        "cosmology.enumerate_fock.box": result.size + result.truncated_count,
    }


# counters taken at the same boundaries as the spans: (args, result) -> increments
COUNTERS = {
    "descriptors.state_from_descriptors": _dense_bytes,
    "descriptors.observable_from_descriptors": _dense_bytes,
    "kernels.pair": lambda args, result: {"kernels.pair.calls": 1},
    "evolution.decay_profile": lambda args, result: {
        "evolution.decay_profile.cmacs": args[0].grid.size ** 2 * result.times.size
    },
    "wigner.classical_state_density": _shells_used,
    "wigner.phase_field_to_csv": lambda args, result: {
        "wigner.phase_field_to_csv.bytes": os.path.getsize(args[1])
    },
    "wigner.multi_invariant_density": lambda args, result: {
        "wigner.multi_invariant_density.calls": 1
    },
    "cosmology.trajectory_ensemble": _ensemble,
    "cosmology.enumerate_fock": _fock,
    "pointer.pointer_state": lambda args, result: {
        "pointer.max_shell_size": max((b.size for b in result), default=0)
    },
    "harness.run_experiment": lambda args, result: {
        "harness.artifact_bytes": sum(a["bytes"] for a in result.manifest["artifacts"])
    },
}


def _merge(counters: dict, updates: dict) -> None:
    for key, value in updates.items():
        if key.rsplit(".", 1)[-1].startswith("max_"):
            counters[key] = max(counters.get(key, value), value)
        else:
            counters[key] = counters.get(key, 0) + value


class Recorder:
    """Spans and counters of the traced runs of one process."""

    def __init__(self):
        self.spans = []  # (run, span_id, name, parent_id, thread, start, end)
        self.counters = defaultdict(dict)  # run -> counter name -> value
        self.run = None
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self):
        stack = self._stack()
        return stack[-1] if stack else None

    def _wrap(self, name: str, module_name: str, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if sys._getframe(1).f_globals.get("__name__") == module_name:
                result = fn(*args, **kwargs)
            else:
                stack = self._stack()
                span_id = next(self._ids)
                parent = stack[-1] if stack else None
                stack.append(span_id)
                start = time.perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = time.perf_counter()
                    stack.pop()
                    span = (self.run, span_id, name, parent, threading.get_ident(), start, end)
                    with self._lock:
                        self.spans.append(span)
            if counter is not None:
                updates = counter(args, result)
                with self._lock:
                    _merge(self.counters[self.run], updates)
            return result

        return wrapper

    def install(self, run) -> None:
        """Wrap the layer functions; spans and counters go to ``run``."""
        self.run = run
        namespaces = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "vanhove"]
        for layer in LAYERS:
            module = importlib.import_module(f"vanhove.{layer}")
            for attr, fn in inspect.getmembers(module, inspect.isfunction):
                if attr.startswith("_") or fn.__module__ != module.__name__:
                    continue
                wrapper = self._wrap(f"{layer}.{attr}", module.__name__, fn)
                for ns in namespaces:
                    for key, value in list(vars(ns).items()):
                        if value is fn:
                            self._patch(ns, key, wrapper)
        cosmology = sys.modules["vanhove.cosmology"]
        self._patch(cosmology, "ThreadPoolExecutor", self._executor_class())

    def uninstall(self) -> None:
        for ns, key, original in reversed(self._patches):
            setattr(ns, key, original)
        self._patches.clear()

    def _patch(self, ns, key, value) -> None:
        self._patches.append((ns, key, getattr(ns, key)))
        setattr(ns, key, value)

    def _executor_class(self):
        recorder = self

        class PropagatingExecutor(ThreadPoolExecutor):
            """Runs each task with the submitting thread's open span as parent."""

            def submit(self, fn, /, *args, **kwargs):
                parent = recorder.current()

                def task():
                    stack = recorder._stack()
                    stack.append(parent)
                    try:
                        return fn(*args, **kwargs)
                    finally:
                        stack.pop()

                return super().submit(task)

        return PropagatingExecutor

    def run_summaries(self) -> dict:
        """Per traced run: self seconds per span name, root seconds, counters."""
        by_run = defaultdict(list)
        for span in self.spans:
            by_run[span[0]].append(span)
        return {
            run: {
                "self_s": self_times(spans),
                "root_s": sum(s[6] - s[5] for s in spans if s[3] is None),
                "counters": dict(self.counters[run]),
            }
            for run, spans in by_run.items()
        }


def self_times(spans) -> dict:
    """Span duration minus the part of its interval its child spans cover,
    summed per span name.  Children running in parallel threads are merged,
    so overlapping child time is subtracted once."""
    children = defaultdict(list)
    for _run, _sid, _name, parent, _thread, start, end in spans:
        if parent is not None:
            children[parent].append((start, end))
    out = defaultdict(float)
    for _run, sid, name, _parent, _thread, start, end in spans:
        out[name] += (end - start) - _covered(children[sid], start, end)
    return dict(out)


def _covered(intervals, lo: float, hi: float) -> float:
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total
