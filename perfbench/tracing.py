"""In-memory span tracer that times robust_da's layers from outside.

While installed, the tracer replaces every binding, in any robust_da module,
of the functions listed in ``_SPAN_TARGETS`` (and a few methods) with a
wrapper that records a span: layer, start, end, parent span and unit.  It
also counts the Cholesky factorizations and symmetric eigendecompositions
that robust_da code asks numpy or scipy for, whichever robust_da function
asks (``SpdFactor``, ``psd_sym_sqrt`` or a direct call), counting each
matrix of a stacked (batched) call.  Leaving the ``installed()`` block puts
every original back.  Nothing under ``src`` changes.
"""

from __future__ import annotations

import inspect
import json
import math
import os
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

import numpy as np
import scipy.linalg

from robust_da import analysis, ensemble, harness, lgss, metrics, models, particle, weights

LAYERS = (
    "harness.sweep",
    "harness.run",
    "harness.filter",
    "harness.io",
    "models.simulate",
    "ensemble.forecast",
    "ensemble.enkf",
    "ensemble.esrf",
    "ensemble.letkf",
    "particle.pf_step",
    "analysis.dsm",
    "analysis.wolf",
    "lgss.kf_forecast",
    "lgss.kf_analysis",
    "weights.eval_kernel",
    "metrics.evaluate",
)

# The (model, filter) pairs of the three workloads; every filter runs on one model.
FILTERS = (
    "kf", "dsm_kf", "wolf_kf",
    "enkf", "dsm_enkf", "wolf_enkf", "dsm_esrf", "dsm_pf",
    "letkf", "dsm_letkf", "wolf_letkf",
)

_SPAN_TARGETS = {
    "models.simulate": (
        models.simulate_ou,
        models.simulate_target_tracking,
        models.simulate_lorenz63,
        models.simulate_lorenz96,
    ),
    "ensemble.forecast": (ensemble.ensemble_forecast,),
    "ensemble.enkf": (ensemble.enkf_perturbed_analysis,),
    "ensemble.esrf": (ensemble.esrf_analysis,),
    "ensemble.letkf": (ensemble.letkf_analysis,),
    "particle.pf_step": (particle.pf_step,),
    "analysis.dsm": (analysis.dsm_analysis,),
    "analysis.wolf": (analysis.wolf_analysis,),
    "lgss.kf_forecast": (lgss.kf_forecast,),
    "lgss.kf_analysis": (lgss.kf_analysis,),
    "weights.eval_kernel": (weights.eval_kernel,),
    "harness.filter": (
        harness.run_closed_form_filter,
        harness.run_ensemble_filter,
        harness.run_particle_filter,
    ),
    "harness.io": (harness._write_run_artifacts,),
}
# Factorization entry points: (namespace, attribute, counter).  Calls are
# counted when the calling frame is robust_da code, so calibration and
# library-internal calls are left out.
_FACTORIZATIONS = (
    (np.linalg, "cholesky", "linalg.cholesky"),
    (scipy.linalg, "cholesky", "linalg.cholesky"),
    (scipy.linalg, "cho_factor", "linalg.cholesky"),
    (np.linalg, "eigh", "linalg.eigh"),
    (scipy.linalg, "eigh", "linalg.eigh"),
)
# Class attributes wrapped the same way: (class, attribute, layer).
_METHOD_TARGETS = (
    (metrics.MetricReport, "evaluate", "metrics.evaluate"),
    (harness.SweepResult, "write_csv", "harness.io"),
    (harness.SweepResult, "write_replicates_csv", "harness.io"),
)


def _robust_da_modules():
    return [m for name, m in list(sys.modules.items())
            if (name == "robust_da" or name.startswith("robust_da.")) and m is not None]


def _filter_and_obs(fn):
    """(filter name, observations) of a harness run_*_filter call."""
    signature = inspect.signature(fn)

    def describe(args, kwargs):
        bound = signature.bind(*args, **kwargs).arguments
        method = bound["method"] if "method" in bound else bound["config"].filter
        return method, bound["ys"].shape[1]

    return describe


class Tracer:
    """Spans kept in memory, per-layer calls and self time, exact counts."""

    def __init__(self):
        self.spans: list = []          # (layer, start, end, parent index, unit)
        self.unit = -1
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.io_bytes = 0
        self.filter_s: defaultdict = defaultdict(float)
        self.filter_obs: Counter = Counter()
        self._stack: list = []         # [span index, seconds covered by children]

    # -- spans -------------------------------------------------------------

    def _open(self) -> list:
        frame = [len(self.spans), 0.0]
        self.spans.append(None)
        self._stack.append(frame)
        return frame

    def _close(self, layer: str, frame: list, start: float, end: float) -> float:
        self._stack.pop()
        duration = end - start
        parent = self._stack[-1] if self._stack else None
        self.spans[frame[0]] = (layer, start, end, parent[0] if parent else -1, self.unit)
        self.calls[layer] += 1
        self.self_s[layer] += duration - frame[1]
        if parent is not None:
            parent[1] += duration
        return duration

    def wrap(self, fn, layer: str, after=None):
        """``fn`` recording a span of ``layer`` per call; ``after`` sees each call's
        (args, kwargs, result, seconds)."""
        tracer = self

        def traced(*args, **kwargs):
            frame = tracer._open()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = tracer._close(layer, frame, start, time.perf_counter())
            if after is not None:
                after(args, kwargs, result, duration)
            return result

        traced.__wrapped__ = fn
        return traced

    def _count(self, fn, counter: str):
        """``fn`` adding one to ``counter`` per matrix it factorizes for robust_da."""
        counts = self.counts

        def counted(*args, **kwargs):
            if sys._getframe(1).f_globals.get("__name__", "").startswith("robust_da"):
                matrix = args[0] if args else kwargs.get("a")
                counts[counter] += math.prod(np.shape(matrix)[:-2])
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    # -- hooks -------------------------------------------------------------

    def _filter_done(self, fn):
        describe = _filter_and_obs(fn)

        def after(args, kwargs, result, duration):
            method, n_obs = describe(args, kwargs)
            self.filter_s[method] += duration
            self.filter_obs[method] += n_obs

        return after

    def _files_written(self, args, kwargs, result, duration):
        paths = result.values() if isinstance(result, dict) else [args[1]]
        self.io_bytes += sum(os.path.getsize(p) for p in paths)

    # -- installation ------------------------------------------------------

    def _patches(self) -> list:
        """(owner, attribute, replacement) for every binding to wrap."""
        modules = _robust_da_modules()
        patches = []
        for layer, functions in _SPAN_TARGETS.items():
            for fn in functions:
                if layer == "harness.filter":
                    after = self._filter_done(fn)
                elif layer == "harness.io":
                    after = self._files_written
                else:
                    after = None
                wrapper = self.wrap(fn, layer, after)
                patches += [(m, name, wrapper) for m in modules
                            for name, value in vars(m).items() if value is fn]
        for cls, attr, layer in _METHOD_TARGETS:
            raw = vars(cls)[attr]
            after = self._files_written if layer == "harness.io" else None
            if isinstance(raw, classmethod):
                patches.append((cls, attr, classmethod(self.wrap(raw.__func__, layer, after))))
            else:
                patches.append((cls, attr, self.wrap(raw, layer, after)))
        for namespace, attr, counter in _FACTORIZATIONS:
            fn = vars(namespace)[attr]
            counted = self._count(fn, counter)
            patches.append((namespace, attr, counted))
            patches += [(m, name, counted) for m in modules
                        for name, value in vars(m).items() if value is fn]
        return patches

    @contextmanager
    def installed(self):
        """Wrap every target for the duration of the block, then restore."""
        originals = []
        try:
            for owner, attr, replacement in self._patches():
                originals.append((owner, attr, vars(owner)[attr]))
                setattr(owner, attr, replacement)
            yield self
        finally:
            for owner, attr, original in reversed(originals):
                setattr(owner, attr, original)

    # -- results -----------------------------------------------------------

    def layer_metrics(self, traced_wall: float, n_obs: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics of everything traced so far: name -> (value, unit)."""
        out: dict[str, tuple[float, str]] = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = (self.calls[layer], "count")
            out[f"{layer}.self_s"] = (self.self_s[layer], "s")
            out[f"{layer}.share"] = (self.self_s[layer] / traced_wall, "fraction")
        out["harness.io.bytes"] = (self.io_bytes, "B")
        for filt in FILTERS:
            obs = self.filter_obs[filt]
            us = 1e6 * self.filter_s[filt] / obs if obs else 0.0
            out[f"harness.filter.{filt}.us_per_obs"] = (us, "us")
        for counter in ("linalg.cholesky", "linalg.eigh"):
            out[f"{counter}.calls"] = (self.counts[counter], "count")
            out[f"{counter}.per_obs"] = (self.counts[counter] / n_obs, "count/obs")
        return out

    def write_spans(self, path) -> None:
        """Write the spans as JSON: layer index, start and duration in us, parent, unit."""
        origin = self.spans[0][1] if self.spans else 0.0
        index = {layer: i for i, layer in enumerate(LAYERS)}
        rows = [
            [index[layer], round(1e6 * (start - origin), 1), round(1e6 * (end - start), 1),
             parent, unit]
            for layer, start, end, parent, unit in self.spans
        ]
        with open(path, "w") as fh:
            json.dump({"layers": LAYERS, "columns": ["layer", "start_us", "duration_us",
                                                     "parent", "unit"], "spans": rows}, fh)
            fh.write("\n")
