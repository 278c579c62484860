"""Traced passes: spans around the public functions of each package module.

Only runs with ``--trace 1`` import this module.  A span is recorded by
rebinding a public name in the namespace that calls it (a module attribute
that other modules or the benchmark look up, or a name a module imported),
so nothing under src/ changes; ``stop`` puts every original back.  Spans
stay in memory and are written out once, when the run ends.

The layers are the package modules.  ``linalg`` has no public work entry
and gets no span.
"""

import inspect
import json
import math
import time

import numpy as np

from photonsieve import cli, distributions, fock_channel, gaussian
from photonsieve import heralding, phasespace

from measure import median, tail

_GAUSSIAN = ("from_squeezing", "impure_source", "apply_channel", "displace",
             "to_adjacency")
_DISTRIBUTIONS = ("prob_fine", "prob_coarse", "prob_total", "prob_external",
                  "total_distribution", "extract_distinguishable_blocks",
                  "prob_external_distinguishable")
_FAST_PATH = ("distributions.extract_distinguishable_blocks",
              "distributions.prob_external_distinguishable")
_SERIES = ("g_coefficients", "f_coefficients", "f_n")

# (namespace, public name, layers its span counts toward)
_TARGETS = (
    [(cli, "main", ("cli",)), (cli, "build_state", ("gaussian",))]
    + [(gaussian, n, ("gaussian",)) for n in _GAUSSIAN]
    + [(distributions, n, ("distributions",)) for n in _DISTRIBUTIONS]
    + [(heralding, "herald_grouped", ("heralding",)),
       (fock_channel, "fock_coarse_prob", ("fock_channel",)),
       (fock_channel, "fock_herald", ("fock_channel", "heralding")),
       (phasespace, "pp_estimate", ("phasespace",))]
    # the sieve kernels, at every namespace that calls them
    + [(distributions, "lhaf_sieve", ("hafnian",)),
       (distributions, "blocked_lhaf", ("hafnian",)),
       (heralding, "lhaf_sieve", ("hafnian",)),
       (heralding, "blocked_lhaf", ("hafnian",)),
       (fock_channel, "blocked_lhaf", ("hafnian",))]
    + [(distributions, n, ("series",)) for n in _SERIES]
)

# kernel argument that holds the per-variable counts
_COUNTS_ARG = {"lhaf_sieve": "pattern", "blocked_lhaf": "b"}


def _kernel_info(fn, name, herald):
    """Per-call work of a sieve kernel, computed from its arguments.

    Grid points are the product of (k + 1) over the nonzero counts of the
    primary fold; fallback folds happen inside the kernel and are not
    visible here.  The matrix-power work is G * (N - 1) products of
    2M x 2M complex matrices at 8 (2M)^3 flops each.  A call made from
    ``heralding`` is odd when its embedding padded a mode, which is the only
    way its loop vector becomes nonzero for the zero-loop sources used here.
    """
    sig = inspect.signature(fn)
    key = _COUNTS_ARG[name]

    def info(args, kwargs):
        bound = sig.bind(*args, **kwargs).arguments
        counts = [int(k) for k in bound[key]]
        total = sum(counts)
        points = math.prod(k + 1 for k in counts if k) if total else 0
        dim = np.shape(bound["a"])[0]
        out = {"points": points,
               "gflop": points * max(total - 1, 0) * 8 * dim ** 3 / 1e9}
        if herald:
            gamma = bound["gamma"]
            out["odd"] = gamma is not None and bool(np.any(gamma))
        return out
    return info


def _samples_info(args, kwargs):
    run = args[0] if args else kwargs["run"]
    return {"samples": int(run.samples)}


class Tracer:
    """In-memory spans: name, start, end, parent span, pass id, call info."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._saved = []
        self._pass = None

    def _wrap(self, name, fn, info):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            extra = info(args, kwargs) if info else None
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self._pass,
                    extra]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
        return traced

    def start(self, pass_id):
        """Install every wrapper; spans recorded now carry ``pass_id``."""
        self._pass = pass_id
        for module, attr, _ in _TARGETS:
            fn = getattr(module, attr)
            name = f"{module.__name__.rsplit('.', 1)[1]}.{attr}"
            info = None
            if attr in _COUNTS_ARG:
                info = _kernel_info(fn, attr, module is heralding)
            elif attr == "pp_estimate":
                info = _samples_info
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(name, fn, info))

    def stop(self):
        """Restore the original functions."""
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)
        self._pass = None

    def write(self, path):
        keys = ("name", "start", "end", "parent", "pass", "info")
        with open(path, "w") as fh:
            json.dump([dict(zip(keys, s)) for s in self.spans], fh)

    def layer_metrics(self):
        """Per-layer numbers: the median over traced passes of each."""
        per_pass = {}
        for i, s in enumerate(self.spans):
            per_pass.setdefault(s[4], []).append(i)
        rows = [self._pass_metrics(idx) for idx in per_pass.values()]
        return {k: median([r[k] for r in rows]) for k in rows[0]}

    def _pass_metrics(self, idx):
        spans = self.spans
        layers = {f"{m.__name__.rsplit('.', 1)[1]}.{a}": lay
                  for m, a, lay in _TARGETS}
        dur = {i: spans[i][2] - spans[i][1] for i in idx}
        child = dict.fromkeys(idx, 0.0)
        for i in idx:
            if spans[i][3] >= 0:
                child[spans[i][3]] += dur[i]

        def of(layer):
            return [i for i in idx if layer in layers[spans[i][0]]]

        def outermost(i, layer):
            p = spans[i][3]
            while p >= 0:
                if layer in layers[spans[p][0]]:
                    return False
                p = spans[p][3]
            return True

        def busy(layer):
            top = [i for i in of(layer) if outermost(i, layer)]
            return len(top), sum(dur[i] for i in top)

        def self_time(layer):
            return sum(dur[i] - child[i] for i in of(layer))

        m = {}
        m["cli.calls"], m["cli.busy_s"] = busy("cli")
        m["cli.self_s"] = self_time("cli")
        m["gaussian.calls"], m["gaussian.busy_s"] = busy("gaussian")
        m["heralding.busy_s"] = busy("heralding")[1]
        m["heralding.self_s"] = self_time("heralding")
        m["hafnian.calls"], m["hafnian.busy_s"] = busy("hafnian")
        for layer in ("distributions", "fock_channel"):
            m[f"{layer}.busy_s"] = busy(layer)[1]
            m[f"{layer}.self_s"] = self_time(layer)
        m["phasespace.busy_s"] = busy("phasespace")[1]

        kernels = of("hafnian")
        ms = [dur[i] * 1e3 for i in kernels]
        points = sum(spans[i][5]["points"] for i in kernels)
        gflop = sum(spans[i][5]["gflop"] for i in kernels)
        busy_s = m["hafnian.busy_s"]
        m["hafnian.call_ms_p50"] = median(ms)
        m["hafnian.call_ms_tail"] = tail(ms)[0]
        m["hafnian.grid_points"] = points
        m["hafnian.points_per_s"] = points / busy_s if busy_s else 0.0
        m["hafnian.gflop_computed"] = gflop
        m["hafnian.gflops"] = gflop / busy_s if busy_s else 0.0
        m["hafnian.series_calls"], m["hafnian.series_s"] = busy("series")

        elements = [i for i in kernels if spans[i][0].startswith("heralding.")]
        odd = [i for i in elements if spans[i][5]["odd"]]
        kernel_s = sum(dur[i] for i in elements)
        m["heralding.elements"] = len(elements)
        m["heralding.odd_parity_elements"] = len(odd)
        m["heralding.kernel_s"] = kernel_s
        m["heralding.odd_parity_kernel_share"] = (
            sum(dur[i] for i in odd) / kernel_s if kernel_s else 0.0)
        ems = [dur[i] * 1e3 for i in elements]
        m["heralding.element_ms_p50"] = median(ems)
        m["heralding.element_ms_tail"] = tail(ems)[0]

        m["distributions.fast_path_s"] = sum(
            dur[i] for i in idx if spans[i][0] in _FAST_PATH)
        samples = sum(spans[i][5]["samples"] for i in idx
                      if spans[i][0] == "phasespace.pp_estimate")
        pp_s = m["phasespace.busy_s"]
        m["phasespace.samples_per_s"] = samples / pp_s if pp_s else 0.0
        return m
