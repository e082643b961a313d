"""Per-layer spans recorded from outside the program.

The tracer wraps the public entry points of each ``gapbound`` layer where the
driver modules import them (``gapbound.sweep.lowest_two``,
``gapbound.fuzz.g_expectations``, ``gapbound.bounds.tail``, ...) and in the
benchmark's own ``api`` namespace.  No file of the program changes.

A span's self time is its duration minus the durations of the spans it
called.  The benchmark is single-threaded (``GAPBOUND_THREADS`` is unset), so
one stack of child-time accumulators gives the nesting.  Spans are folded
into per-name totals as they close; the counters read the wrapped calls'
public return values.
"""

from __future__ import annotations

import importlib
import os
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np

from gapbound.bounds import THEOREM1
from gapbound.eigensolver import DEFAULT_RESIDUAL_TOL, spectral_scale

# span name -> entry points it covers, as "module:attribute" ("api:" is the
# benchmark's own namespace).  The span name is the layer and the stage.
SPANS = {
    "sweep.driver": ["api:run_sweep", "gapbound.sweep:sweep_point"],
    "fuzz.driver": ["api:run_fuzz"],
    "fuzz.model_gen": ["gapbound.fuzz:random_model"],
    "modelfile.parse": ["api:load_model"],
    "lattice.build": ["gapbound.sweep:impurity_model"],
    "lattice.assemble": ["api:assemble", "gapbound.sweep:assemble",
                         "gapbound.fuzz:assemble", "gapbound.bounds:assemble"],
    "lattice.envelope": ["api:fit_envelope", "api:check_nearest_neighbor",
                         "gapbound.sweep:check_nearest_neighbor",
                         "gapbound.fuzz:fit_envelope", "gapbound.fuzz:check_nearest_neighbor",
                         "gapbound.fuzz:require_envelope", "gapbound.bounds:require_envelope"],
    "eigensolver.solve": ["api:lowest_two", "gapbound.sweep:lowest_two",
                          "gapbound.fuzz:lowest_two"],
    "localization.density": ["api:density", "api:position_stats",
                             "gapbound.sweep:density", "gapbound.sweep:position_stats",
                             "gapbound.fuzz:density", "gapbound.fuzz:position_stats",
                             "gapbound.bounds:density"],
    "localization.fit": ["gapbound.sweep:fit_localization_length"],
    "localization.tail": ["gapbound.fuzz:tail", "gapbound.bounds:tail"],
    "bounds.tail_bounds": ["api:theorem1_bound", "api:theorem2_bound",
                           "gapbound.sweep:theorem1_bound", "gapbound.sweep:theorem2_bound",
                           "gapbound.fuzz:theorem1_bound", "gapbound.fuzz:theorem2_bound",
                           "gapbound.fuzz:variance_upper_bound",
                           "gapbound.fuzz:chebyshev_tail_bound",
                           "gapbound.bounds:variance_upper_bound"],
    "bounds.verify_envelope": ["api:verify_envelope", "gapbound.sweep:verify_envelope",
                               "gapbound.fuzz:verify_envelope"],
    "bounds.complementary": ["api:g_expectations", "gapbound.fuzz:g_expectations"],
    "bounds.appendixB": ["api:trapezoid_g", "api:verify_appendixB",
                         "gapbound.fuzz:trapezoid_g", "gapbound.fuzz:verify_appendixB"],
}

# call counts reported per layer: metric -> span
CALL_COUNTS = {
    "eigensolver.calls": "eigensolver.solve",
    "lattice.assemble_calls": "lattice.assemble",
    "localization.tail_calls": "localization.tail",
}

ROOT = "bench.item"
HOOKS = "trace.hooks"


def _arg(args, kwargs, index, name, default=None):
    return args[index] if len(args) > index else kwargs.get(name, default)


class Tracer:
    def __init__(self):
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counters: dict[str, float] = {}
        self._stack: list[float] = []
        self._hooks = {
            "lowest_two": self._on_solve,
            "assemble": self._on_assemble,
            "verify_envelope": self._on_verify_envelope,
            "g_expectations": self._on_complementary,
            "load_model": self._on_load_model,
            "run_fuzz": self._on_fuzz,
        }

    def wrap(self, fn, span: str, hook=None):
        """``fn`` recording a span named ``span``, then running ``hook`` on its result.

        Hook time is kept out of every layer's self time and booked to
        ``trace.hooks``, so it shows only as tracing overhead.
        """
        stack = self._stack

        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                self.self_s[span] += dt - stack.pop()
                self.calls[span] += 1
                if stack:
                    stack[-1] += dt
            if hook is not None:
                t1 = perf_counter()
                hook(args, kwargs, result)
                dt = perf_counter() - t1
                self.self_s[HOOKS] += dt
                if stack:
                    stack[-1] += dt
            return result

        return traced

    @contextmanager
    def installed(self, api):
        """Wrap every entry point in ``SPANS``; restore the originals on exit."""
        saved = []
        try:
            for span, targets in SPANS.items():
                for target in targets:
                    where, attr = target.split(":")
                    owner = api if where == "api" else importlib.import_module(where)
                    original = getattr(owner, attr)
                    saved.append((owner, attr, original))
                    setattr(owner, attr, self.wrap(original, span, self._hooks.get(attr)))
            yield
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def _max(self, key, value):
        self.counters[key] = max(self.counters.get(key, value), value)

    def _min(self, key, value):
        self.counters[key] = min(self.counters.get(key, value), value)

    def _add(self, key, value):
        self.counters[key] = self.counters.get(key, 0) + value

    def _on_solve(self, args, kwargs, res):
        h = _arg(args, kwargs, 0, "h")
        tol = _arg(args, kwargs, 1, "tol", DEFAULT_RESIDUAL_TOL)
        limit = tol * max(1.0, spectral_scale(h))
        self._max("eigensolver.residual_ratio_max", max(res.residual0, res.residual1) / limit)
        self._max("eigensolver.dim_max", np.shape(getattr(h, "array", h))[0])

    def _on_assemble(self, args, kwargs, h):
        self._max("lattice.assemble_mib", h.n * h.n * 16 / 2**20)

    def _on_verify_envelope(self, args, kwargs, chk):
        bound = _arg(args, kwargs, 2, "bound")
        self._add("bounds.radii_checked", chk.r_grid.size)
        if chk.r_grid.size:
            which = 1 if bound.kind == THEOREM1 else 2
            self._max(f"bounds.headroom{which}_max",
                      float(np.max(chk.tail_values / chk.bound_values)))

    def _on_complementary(self, args, kwargs, rep):
        self._min("bounds.complementary_slack_min", rep.slack / rep.scale)
        self._max("bounds.hod_route_gap_max", rep.agreement / rep.scale)

    def _on_load_model(self, args, kwargs, spec):
        self._add("modelfile.bytes_read", os.path.getsize(_arg(args, kwargs, 0, "path")))

    def _on_fuzz(self, args, kwargs, report):
        self._add("fuzz.trials_skipped", report.skipped_degenerate)

    def layer_metrics(self) -> dict[str, float]:
        """Self seconds per span (``<span>_s``), call counts and counters."""
        out = {f"{span}_s": self.self_s.get(span, 0.0) for span in SPANS}
        out.update({metric: self.calls.get(span, 0) for metric, span in CALL_COUNTS.items()})
        out.update(self.counters)
        return out
