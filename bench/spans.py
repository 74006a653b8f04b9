"""In-memory call spans for the benchmark's traced runs.

A :class:`Tracer` replaces the public functions of every imported
``qubounds`` module, and a few ``numpy.linalg`` kernels, with wrappers that
record one span per call: which function ran, when it started and ended on
the monotonic clock, and which span was open when it was called.  The
wrappers live only in the benchmark: the library itself is not changed.
Spans stay in compact arrays until the run ends; :meth:`Tracer.write` puts
them on disk once.  Leaving the ``with`` block restores every original
function, and :func:`find_wrappers` proves it.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

# Attribute carried by every wrapper, holding the span name.
WRAPPED_MARK = "__bench_span_name__"

# numpy.linalg kernels counted at the library's call sites.
NUMPY_KERNELS = ("eigh", "eigvalsh", "qr", "svd")

ROOT = -1


def qubounds_modules() -> list:
    """Every imported module of the qubounds package, in name order."""
    return [sys.modules[name] for name in sorted(sys.modules)
            if name == "qubounds" or name.startswith("qubounds.")]


def public_functions() -> dict:
    """Original function -> span name, e.g. ``linalg.require_hermitian``.

    A function counts where it is defined, so a name re-exported by the
    package or imported by a sibling module maps to the same span.
    """
    found = {}
    for module in qubounds_modules():
        short = module.__name__.rsplit(".", 1)[-1]
        for attr, obj in vars(module).items():
            if (not attr.startswith("_") and inspect.isfunction(obj)
                    and obj.__module__ == module.__name__):
                found[obj] = f"{short}.{attr}"
    for kernel in NUMPY_KERNELS:
        found[getattr(np.linalg, kernel)] = f"numpy.{kernel}"
    return found


def find_wrappers() -> list[str]:
    """``module.attr`` of every tracing wrapper still installed."""
    return [f"{module.__name__}.{attr}"
            for module in qubounds_modules() + [np.linalg]
            for attr, obj in vars(module).items()
            if hasattr(obj, WRAPPED_MARK)]


def self_times(parents, starts, ends) -> list[int]:
    """Each span's duration minus the part of it that its children cover.

    Children are clipped to their parent's interval and merged, so
    overlapping or out-of-bounds children are not subtracted twice.
    """
    children = defaultdict(list)
    for index, parent in enumerate(parents):
        if parent != ROOT:
            children[parent].append(index)
    own = [end - start for start, end in zip(starts, ends)]
    for parent, kids in children.items():
        lo, hi = starts[parent], ends[parent]
        clipped = sorted((max(starts[k], lo), min(ends[k], hi)) for k in kids)
        covered, run_start, run_end = 0, None, None
        for start, end in clipped:
            if end <= start:
                continue
            if run_end is None or start > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = start, end
            else:
                run_end = max(run_end, end)
        if run_end is not None:
            covered += run_end - run_start
        own[parent] -= covered
    return own


class Tracer:
    """Context manager that records a span for every traced call.

    ``observers`` maps a span name to a function of the call's result; its
    integer values are summed per span name (for example, bytes written or
    certificates returned).
    """

    def __init__(self, observers: dict | None = None):
        self.observers = dict(observers or {})
        self.names: list[str] = []
        self.name_col = array("i")
        self.parent_col = array("q")
        self.start_col = array("q")
        self.end_col = array("q")
        self.observed: dict[str, int] = defaultdict(int)
        self._stack = [ROOT]
        self._patched: list = []

    def __len__(self) -> int:
        return len(self.start_col)

    def __enter__(self) -> "Tracer":
        # Keyed by id: module namespaces also hold unhashable values.
        wrappers = {}
        for fn, name in public_functions().items():
            self.names.append(name)
            wrappers[id(fn)] = (fn, self._wrap(fn, len(self.names) - 1, name))
        for module in qubounds_modules() + [np.linalg]:
            for attr, obj in list(vars(module).items()):
                original, wrapper = wrappers.get(id(obj), (None, None))
                if original is obj:
                    self._patched.append((module, attr, obj))
                    setattr(module, attr, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _wrap(self, fn, name_id: int, name: str):
        names, parents = self.name_col, self.parent_col
        starts, ends, stack = self.start_col, self.end_col, self._stack
        observe = self.observers.get(name)
        observed = self.observed
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(starts)
            names.append(name_id)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if observe is not None:
                observed[name] += int(observe(result))
            return result

        setattr(wrapper, WRAPPED_MARK, name)
        return wrapper

    def totals(self) -> dict[str, tuple[int, int]]:
        """Span name -> (calls, summed self time in ns)."""
        own = self_times(self.parent_col, self.start_col, self.end_col)
        calls: dict[str, int] = defaultdict(int)
        self_ns: dict[str, int] = defaultdict(int)
        for name_id, ns in zip(self.name_col, own):
            name = self.names[name_id]
            calls[name] += 1
            self_ns[name] += ns
        return {name: (calls[name], self_ns[name]) for name in calls}

    def write(self, path) -> None:
        """All spans as columns; ``parent`` indexes rows, -1 is the root."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({
                "names": self.names,
                "name": self.name_col.tolist(),
                "parent": self.parent_col.tolist(),
                "start_ns": self.start_col.tolist(),
                "end_ns": self.end_col.tolist(),
            }, fh)
