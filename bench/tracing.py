"""Spans and call counts at the boundaries of the program's modules.

The tracer wraps public functions from outside the program: for each traced
function it replaces every module attribute of ``qig`` bound to it (so
``from .quantities import digest_inputs`` in ``verify`` is covered too), and
``numpy.linalg.eigh`` / ``eigvalsh``, which the program looks up through
``np.linalg``.  A span is ``(name, start, end, parent)``; spans stay in
memory until :meth:`Tracer.collect` reduces them to calls and self time per
name.  Self time is a span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import sys
import time
from contextlib import contextmanager

import numpy as np

LAYERS = {
    "linalg": ("as_hermitian", "as_density", "eig_hermitian", "eval_scalar",
               "apply_matrix_function", "relmod_apply", "relmod_dense", "commutator"),
    "numpy": ("eigh", "eigvalsh"),
    "functions": ("check_standard", "check_operator_monotone", "scalar_inequality_check",
                  "covariance_kernel", "second_derivative_at_one"),
    "quantities": ("quasi_entropy", "gen_cov", "fisher", "skew_info", "sym_cov", "umegaki",
                   "renyi", "wyd_direct", "skew_identity_residual", "digest_inputs"),
    "channels": ("random_channel", "apply_state", "apply_dual", "monotonicity_margin",
                 "concavity_margin"),
    "verify": ("run_suite", "mixed_second_derivative", "hessian_vs_skew", "random_density",
               "orthonormal_centered_observables", "cov_gram", "skew_gram"),
}

LABELS = tuple(f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns)

#: functions that every workload calls.  Only their self time is a reported
#: metric: a function a workload never calls would read exactly 0 s on every
#: run.  Every function's call count is a metric, and every nonzero self time
#: is printed.
SELF_TIMED = (
    "linalg.as_hermitian", "linalg.as_density", "linalg.eig_hermitian", "linalg.eval_scalar",
    "linalg.apply_matrix_function", "numpy.eigh", "numpy.eigvalsh", "quantities.quasi_entropy",
    "quantities.skew_info", "quantities.digest_inputs",
)


def _owner(layer: str):
    return np.linalg if layer == "numpy" else sys.modules[f"qig.{layer}"]


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self._patches: list = []

    def _wrap(self, sid: int, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[idx] = (sid, start, clock(), parent)
                stack.pop()

        return traced

    @contextmanager
    def installed(self):
        """Swap the wrappers in for the duration of the block."""
        modules = [m for name, m in sys.modules.items() if name == "qig" or name.startswith("qig.")]
        try:
            for sid, label in enumerate(LABELS):
                layer, fn_name = label.split(".")
                original = getattr(_owner(layer), fn_name)
                wrapper = self._wrap(sid, original)
                holders = [np.linalg] if layer == "numpy" else [
                    m for m in modules if m.__dict__.get(fn_name) is original
                ]
                for holder in holders:
                    self._patches.append((holder, fn_name, original))
                    setattr(holder, fn_name, wrapper)
            yield self
        finally:
            for holder, fn_name, original in reversed(self._patches):
                setattr(holder, fn_name, original)
            self._patches.clear()

    def collect(self) -> dict:
        """Reduce and drop the recorded spans: ``label -> (calls, self seconds)``."""
        child = [0.0] * len(self.spans)
        for idx, (_, start, end, parent) in enumerate(self.spans):
            if parent >= 0:
                child[parent] += end - start
        calls = [0] * len(LABELS)
        self_s = [0.0] * len(LABELS)
        for idx, (sid, start, end, _) in enumerate(self.spans):
            calls[sid] += 1
            self_s[sid] += end - start - child[idx]
        self.spans.clear()
        return {label: (calls[i], self_s[i]) for i, label in enumerate(LABELS)}
