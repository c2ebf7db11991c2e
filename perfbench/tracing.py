"""Layer spans for the traced benchmark run, recorded from outside the package.

The public functions of each fdrlos module are wrapped by replacing the
module attributes the package itself looks them up by, so nothing inside
``src/`` changes.  Each wrapped call records a span (name, start, end,
parent) in memory; self time is a span's duration minus what its child spans
cover, which keeps nested quadrature from being counted twice.

Quadrature is counted by wrapping the integrand handed to
``adaptive_quad_vec``: one integrand call is one Gauss-Kronrod panel.  The
integrand's own time is booked to the layer that called the quadrature
(``analytic.integrand`` or ``specfun.integrand``).
"""

from __future__ import annotations

import inspect
import time
from collections import defaultdict

import numpy as np

LAYERS = ("cli", "analytic", "specfun", "models", "empirics")

ANALYTIC_FNS = ("fdrlos_pdf", "fdrlos_cdf", "fdrlos_pdf_oracle", "fdrlos_cdf_oracle",
                "drlos_pdf_oracle", "drlos_cdf_oracle", "rs_cdf_integer", "rician_cdf",
                "coding_gain")

#: counts that do not depend on the machine; two traced runs must agree on them
EXACT_COUNTS = ("specfun.quad_calls", "specfun.quad_panels", "specfun.quad_values",
                "models.samples", "empirics.tabulated_cdf.points") + tuple(
                    f"analytic.{fn}.points" for fn in ANALYTIC_FNS)


class Tracer:
    """Spans and counters of one process; ``unit()`` starts a new unit."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.spans = []        # [name id, start, end, parent index]
        self.stack = []
        self.units = []        # per unit: first span index, counters, samples
        self.largest_draw = None

    def unit(self):
        self.units.append({"first": len(self.spans), "counts": defaultdict(float),
                           "panels": [], "scalar_cdf_s": []})

    @property
    def current(self):
        return self.units[-1]

    @property
    def counts(self):
        return self.units[-1]["counts"]

    def open(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.spans)
        self.spans.append([nid, time.perf_counter(), 0.0,
                           self.stack[-1] if self.stack else -1])
        self.stack.append(idx)
        return idx

    def close(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()
        return self.spans[idx][2] - self.spans[idx][1]

    def caller_layer(self):
        if not self.stack:
            return "cli"
        return self.names[self.spans[self.stack[-1]][0]].split(".", 1)[0]

    def dump(self):
        return {"names": self.names, "spans": self.spans,
                "unit_starts": [u["first"] for u in self.units]}


def span_times(spans, lo=0, hi=None):
    """{name id: [calls, inclusive s, self s]} over spans[lo:hi].

    A child span always comes after its parent, so one pass that charges each
    span's duration to its parent gives every span's self time.
    """
    hi = len(spans) if hi is None else hi
    child = defaultdict(float)
    out = defaultdict(lambda: [0, 0.0, 0.0])
    for i in range(hi - 1, lo - 1, -1):
        nid, t0, t1, parent = spans[i]
        dur = t1 - t0
        if parent >= lo:
            child[parent] += dur
        acc = out[nid]
        acc[0] += 1
        acc[1] += dur
        acc[2] += dur - child.pop(i, 0.0)
    return out


def _wrap(tracer, name, fn, on_result=None):
    def wrapper(*args, **kwargs):
        idx = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            dur = tracer.close(idx)
        if on_result is not None:
            on_result(dur, result, args, kwargs)
        return result

    return wrapper


def install(tracer, fdrlos_modules):
    """Wrap the public calls of each layer; returns the ``(owner, name,
    original)`` list that ``uninstall`` puts back."""
    cli, analytic, specfun, models, empirics = (fdrlos_modules[k] for k in LAYERS)
    saved = []

    def patch(owner, name, value):
        saved.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    quad = specfun.adaptive_quad_vec
    quad_errors = (specfun.AccuracyError, specfun.DomainError)

    def traced_quad(f, *args, **kwargs):
        c = tracer.counts
        integrand_name = tracer.caller_layer() + ".integrand"
        panels = 0

        def counted(x):
            nonlocal panels
            idx = tracer.open(integrand_name)
            try:
                v = f(x)
            finally:
                tracer.close(idx)
            panels += 1
            c["specfun.quad_values"] += np.size(v)
            return v

        idx = tracer.open("specfun.quad")
        try:
            return quad(counted, *args, **kwargs)
        except quad_errors:
            c["specfun.quad_errors"] += 1
            raise
        finally:
            tracer.close(idx)
            c["specfun.quad_calls"] += 1
            c["specfun.quad_panels"] += panels
            tracer.current["panels"].append(panels)

    for owner in (specfun, analytic):
        patch(owner, "adaptive_quad_vec", traced_quad)

    def kummer_counts(dur, result, args, kwargs):
        tracer.counts["specfun.log_kummer_1f1.values"] += np.size(result)

    kummer = _wrap(tracer, "specfun.log_kummer_1f1", specfun.log_kummer_1f1, kummer_counts)
    tricomi = _wrap(tracer, "specfun.gamma_tricomi_u", specfun.gamma_tricomi_u)
    for owner in (specfun, analytic):
        patch(owner, "log_kummer_1f1", kummer)
        patch(owner, "gamma_tricomi_u", tricomi)

    for fn in ANALYTIC_FNS:
        key = f"analytic.{fn}.points"

        def points(dur, result, args, kwargs, key=key, fn=fn):
            tracer.counts[key] += np.size(result)
            if fn == "fdrlos_cdf" and np.ndim(args[0]) == 0:
                tracer.current["scalar_cdf_s"].append(dur)

        patch(analytic, fn, _wrap(tracer, f"analytic.{fn}", getattr(analytic, fn), points))

    patch(analytic.Curve, "write_csv",
          _wrap(tracer, "cli.csv_write", analytic.Curve.write_csv))

    sample_snr = models.sample_snr

    def draws(dur, result, args, kwargs):
        tracer.counts["models.samples"] += result.count
        if tracer.largest_draw is None or result.count > tracer.largest_draw[2]:
            tracer.largest_draw = (result.model, result.params, result.count, result.seed)

    traced_sample = _wrap(tracer, "models.sample_snr", sample_snr, draws)
    patch(models, "sample_snr", traced_sample)
    patch(cli, "sample_snr", traced_sample)

    tab_signature = inspect.signature(empirics.tabulated_cdf)

    def tab_points(dur, result, args, kwargs):
        bound = tab_signature.bind(*args, **kwargs)
        bound.apply_defaults()
        tracer.counts["empirics.tabulated_cdf.points"] += bound.arguments["points"]

    patch(empirics, "tabulated_cdf",
          _wrap(tracer, "empirics.tabulated_cdf", empirics.tabulated_cdf, tab_points))
    for fn in ("ks_distance", "histogram_density"):
        patch(empirics, fn, _wrap(tracer, f"empirics.{fn}", getattr(empirics, fn)))

    patch(cli, "main", _wrap(tracer, "cli.main", cli.main))
    return saved


def uninstall(saved):
    """Put back what ``install`` replaced, so the next unit runs untraced."""
    for owner, name, original in reversed(saved):
        setattr(owner, name, original)


def unit_counts(tracer, u):
    """Machine-independent counts of unit u, for the repeat check."""
    counts = tracer.units[u]["counts"]
    return {k: counts.get(k, 0.0) for k in EXACT_COUNTS}


def layer_metrics(tracer, timed_units):
    """Per-unit means of the per-layer metrics over the given units."""
    n = len(timed_units)
    agg = defaultdict(lambda: [0, 0.0, 0.0])
    counts = defaultdict(float)
    panels, scalar_cdf = [], []
    bounds = [u["first"] for u in tracer.units] + [len(tracer.spans)]
    for u in timed_units:
        for nid, (calls, incl, self_s) in span_times(tracer.spans, bounds[u],
                                                     bounds[u + 1]).items():
            acc = agg[tracer.names[nid]]
            acc[0] += calls
            acc[1] += incl
            acc[2] += self_s
        for k, v in tracer.units[u]["counts"].items():
            counts[k] += v
        panels += tracer.units[u]["panels"]
        scalar_cdf += tracer.units[u]["scalar_cdf_s"]

    def calls(name):
        return agg[name][0] / n

    def incl(name):
        return agg[name][1] / n

    def self_s(name):
        return agg[name][2] / n

    def layer_self(layer):
        return sum(v[2] for k, v in agg.items() if k.split(".", 1)[0] == layer) / n

    m = {}
    m["specfun.quad_calls"] = calls("specfun.quad")
    m["specfun.quad_panels"] = counts["specfun.quad_panels"] / n
    m["specfun.quad_values"] = counts["specfun.quad_values"] / n
    m["specfun.panels_per_call_p50"] = float(np.median(panels)) if panels else 0.0
    m["specfun.panels_per_call_max"] = float(max(panels, default=0))
    m["specfun.quad_self_s"] = self_s("specfun.quad")
    m["specfun.quad_errors"] = counts["specfun.quad_errors"] / n
    m["specfun.log_kummer_1f1.calls"] = calls("specfun.log_kummer_1f1")
    m["specfun.log_kummer_1f1.values"] = counts["specfun.log_kummer_1f1.values"] / n
    m["specfun.log_kummer_1f1.s"] = incl("specfun.log_kummer_1f1")
    m["specfun.gamma_tricomi_u.s"] = incl("specfun.gamma_tricomi_u")
    for fn in ANALYTIC_FNS:
        m[f"analytic.{fn}.calls"] = calls(f"analytic.{fn}")
        m[f"analytic.{fn}.points"] = counts[f"analytic.{fn}.points"] / n
        m[f"analytic.{fn}.self_s"] = self_s(f"analytic.{fn}")
    ms = 1e3 * np.asarray(scalar_cdf)
    m["analytic.scalar_cdf_p50_ms"] = float(np.percentile(ms, 50)) if ms.size else 0.0
    m["analytic.scalar_cdf_p99_ms"] = float(np.percentile(ms, 99)) if ms.size else 0.0
    m["analytic.integrand.self_s"] = self_s("analytic.integrand")
    m["models.sample_snr.calls"] = calls("models.sample_snr")
    m["models.samples"] = counts["models.samples"] / n
    m["models.sample_snr.s"] = incl("models.sample_snr")
    m["models.samples_per_s"] = (m["models.samples"] / m["models.sample_snr.s"]
                                 if m["models.sample_snr.s"] > 0 else 0.0)
    m["empirics.ks_distance.s"] = incl("empirics.ks_distance")
    m["empirics.tabulated_cdf.self_s"] = self_s("empirics.tabulated_cdf")
    m["empirics.tabulated_cdf.points"] = counts["empirics.tabulated_cdf.points"] / n
    m["empirics.histogram_density.s"] = incl("empirics.histogram_density")
    m["cli.self_s"] = self_s("cli.main")
    m["cli.csv_write_s"] = incl("cli.csv_write")
    for layer in LAYERS[1:]:
        m[f"{layer}.self_s"] = layer_self(layer)
    m["trace.spans"] = sum(v[0] for v in agg.values()) / n
    return m
