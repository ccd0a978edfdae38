"""In-memory tracing of sandwich_opt from outside the package.

The tracer rebinds public functions at every module that imported them (for
example ``sandwich_opt.barycenter.geometric_mean`` as well as
``sandwich_opt.entropy.geometric_mean``), so calls made through any binding
are seen. Wrapped functions record a span; ``numpy.linalg.eigh`` and
``eigvalsh`` and a few hot package functions are only counted, which keeps
the tracing overhead down.

Spans are folded into per-operation aggregates as they close: for each name
the number of calls, the inclusive time, and the self time (inclusive time
minus the time covered by directly nested spans on the same thread). Worker
threads of the ``verify`` pool attribute their spans to the operation that
was current when they ran; operations run one at a time.
"""

from __future__ import annotations

import functools
import threading
import time

import numpy as np

# (module, function) pairs that record a span.
SPANNED = (
    ("linalg", "spectral_decompose"),
    ("linalg", "matrix_power"),
    ("linalg", "project_box"),
    ("entropy", "geometric_mean"),
    ("entropy", "sandwich_trace"),
    ("calculus", "hessian_operator"),
    ("calculus", "hessian_operator_matrix"),
    ("calculus", "hessian_extreme_eigs"),
    ("barycenter", "barycenter_problem"),
    ("barycenter", "fixed_point_map"),
    ("barycenter", "solve_gradient_projection"),
    ("barycenter", "solve_fixed_point"),
    ("inequalities", "run_trace_chain_suite"),
    ("inequalities", "run_log_major_suite"),
    ("inequalities", "run_variational_suite"),
    ("inequalities", "run_gauge_suite"),
    ("inequalities", "run_limits_suite"),
    ("inequalities", "open_question_search"),
    ("inequalities", "gamma_limit_check"),
    ("serialization", "load_problem"),
    ("serialization", "load_matrix"),
    ("serialization", "report_to_json"),
    ("serialization", "matrix_to_json"),
    ("serialization", "canonical_json"),
)

# (module, function) pairs that are only counted.
COUNTED = (
    ("calculus", "hessian_apply"),
    ("inequalities", "_mp_relation_margin"),
)

NUMPY_COUNTED = ("eigh", "eigvalsh")


class OpTrace:
    """Aggregates of one operation: spans by name and plain call counts."""

    def __init__(self):
        self.spans = {}   # name -> [calls, self_s, inclusive_s]
        self.counts = {}  # name -> calls

    def calls(self, name):
        if name in self.counts:
            return self.counts[name]
        return self.spans.get(name, (0,))[0]

    def self_s(self, name):
        return self.spans.get(name, (0, 0.0))[1]

    def inclusive_s(self, name):
        return self.spans.get(name, (0, 0.0, 0.0))[2]


class Tracer:
    """Installs wrappers on enter and restores every binding on exit."""

    def __init__(self, package):
        self._package = package
        self._lock = threading.Lock()
        self._local = threading.local()
        self._current = None
        self._restore = []

    def begin_op(self):
        self._current = OpTrace()

    def end_op(self) -> OpTrace:
        op, self._current = self._current, None
        return op

    def _count(self, name):
        with self._lock:
            op = self._current
            if op is not None:
                op.counts[name] = op.counts.get(name, 0) + 1

    def _counted(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._count(name)
            return fn(*args, **kwargs)
        return wrapper

    def _spanned(self, name, fn):
        local = self._local

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            frame = [0.0]  # time covered by nested spans
            stack.append(frame)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += dur
                with self._lock:
                    op = self._current
                    if op is not None:
                        rec = op.spans.setdefault(name, [0, 0.0, 0.0])
                        rec[0] += 1
                        rec[1] += dur - frame[0]
                        rec[2] += dur
        return wrapper

    def _rebind_everywhere(self, original, wrapper):
        for mod in self._modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    self._restore.append((mod, attr, original))

    def _modules(self):
        pkg = self._package
        names = ("cli", "barycenter", "calculus", "entropy", "inequalities",
                 "linalg", "serialization")
        return [pkg] + [getattr(pkg, n) for n in names]

    def __enter__(self):
        pkg = self._package
        for modname, fname in SPANNED:
            original = getattr(getattr(pkg, modname), fname)
            self._rebind_everywhere(original, self._spanned(f"{modname}.{fname}", original))
        for modname, fname in COUNTED:
            original = getattr(getattr(pkg, modname), fname)
            self._rebind_everywhere(original, self._counted(f"{modname}.{fname}", original))
        for fname in NUMPY_COUNTED:
            original = getattr(np.linalg, fname)
            setattr(np.linalg, fname, self._counted(f"numpy.linalg.{fname}", original))
            self._restore.append((np.linalg, fname, original))
        return self

    def __exit__(self, *exc):
        for mod, attr, original in reversed(self._restore):
            setattr(mod, attr, original)
        self._restore.clear()
        return False
