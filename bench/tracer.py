"""Spans and kernel counters for the traced run, installed from outside.

`Tracer.install` rebinds each public causalis function named in
MODULE_FUNCTIONS, in every causalis namespace that holds it (the package
itself, the defining module, and every module that did `from .x import y`),
to a wrapper that records a span: name, start, end, parent span and task id.
The numpy/scipy kernels in KERNELS are rebound on their own modules and only
counted (calls and time), so their time stays in the self time of the
causalis function that called them. `uninstall` puts every original back.

Wrappers record only while `active` is set, which the runner does around
each timed task and clears around output checks.
"""
from __future__ import annotations

import functools
import importlib
import json
import sys
import time

MODULE_FUNCTIONS = {
    "tensor_core": ("tensor", "partial_trace", "depolarize", "choi_of_kraus"),
    "process": ("validate_process", "validity_report", "make_quantum_switch",
                "make_ordered_process", "random_ordered_process"),
    "instruments": ("born",),
    "causality": ("is_causal", "score_inequality", "causal_bound"),
    "separability": ("check_separability", "extract_witness", "order_cone_residual"),
    "io": ("load_json", "save_json", "process_from_json", "process_to_json",
           "instrument_from_json", "table_to_csv", "table_from_csv"),
}

KERNELS = (
    ("numpy.linalg", "eigh"),
    ("numpy.linalg", "eigvalsh"),
    ("numpy", "tensordot"),
    ("numpy", "einsum"),
    ("numpy", "kron"),
    ("scipy.optimize", "nnls"),
)


def _causalis_namespaces():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "causalis" or name.startswith("causalis."))]


class Tracer:
    """In-memory spans plus per-function and per-kernel totals."""

    def __init__(self):
        self.active = False
        self.task = 0
        self.spans: list[tuple] = []
        # name -> [calls, seconds, self seconds]
        self.functions = {f"{mod}.{fn}": [0, 0.0, 0.0]
                          for mod, fns in MODULE_FUNCTIONS.items() for fn in fns}
        # name -> [calls, seconds]
        self.kernels = {name: [0, 0.0] for _, name in KERNELS}
        self._stack: list[list] = []
        self._in_kernel = False
        self._undo: list[tuple] = []

    # -- installation -----------------------------------------------------

    def install(self):
        namespaces = _causalis_namespaces()
        for mod, fns in MODULE_FUNCTIONS.items():
            module = sys.modules[f"causalis.{mod}"]
            for fn in fns:
                original = getattr(module, fn)
                wrapper = self._span_wrapper(f"{mod}.{fn}", original)
                for ns in namespaces:
                    for attr in [a for a, v in vars(ns).items() if v is original]:
                        self._rebind(ns, attr, wrapper)
        for modname, fn in KERNELS:
            module = importlib.import_module(modname)
            self._rebind(module, fn, self._kernel_wrapper(fn, getattr(module, fn)))

    def uninstall(self):
        for ns, attr, original in reversed(self._undo):
            setattr(ns, attr, original)
        self._undo.clear()

    def _rebind(self, ns, attr, wrapper):
        self._undo.append((ns, attr, getattr(ns, attr)))
        setattr(ns, attr, wrapper)

    # -- wrappers ---------------------------------------------------------

    def _span_wrapper(self, name, fn):
        tracer = self
        totals = self.functions[name]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack
            parent = stack[-1][0] if stack else None
            sid = len(tracer.spans)
            tracer.spans.append(None)
            frame = [sid, 0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                dur = t1 - t0
                totals[0] += 1
                totals[1] += dur
                totals[2] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                tracer.spans[sid] = (sid, parent, tracer.task, name, t0, t1)

        return wrapper

    def _kernel_wrapper(self, name, fn):
        tracer = self
        totals = self.kernels[name]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active or tracer._in_kernel:
                return fn(*args, **kwargs)
            tracer._in_kernel = True
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                totals[0] += 1
                totals[1] += time.perf_counter() - t0
                tracer._in_kernel = False

        return wrapper

    # -- output -----------------------------------------------------------

    def write_spans(self, path):
        """One JSON array per line: [id, parent, task, name, start_s, end_s]."""
        with open(path, "w") as fh:
            for span in self.spans:
                if span is not None:
                    fh.write(json.dumps(span) + "\n")
