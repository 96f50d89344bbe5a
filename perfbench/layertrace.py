"""Span tracing of the ``gehman`` layers, installed from outside the package.

:class:`Tracer` replaces the public entry points of each module (and a
few public methods) with wrappers that record spans or counts, in every
``gehman.*`` namespace that binds the same function object, and puts the
originals back on :meth:`Tracer.uninstall`.  Spans are kept in memory as
``(name, start, end, parent)`` tuples; :func:`layer_metrics` turns them
into the per-layer metrics the benchmark reports.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import Counter

# Span name -> (module, attribute path).  A dotted path names a method.
SPANS = {
    "cli.main": ("gehman.cli", "main"),
    "coding.gen": ("gehman.coding", "RotationCoding._extend_to"),
    "coding.prefix": ("gehman.coding", "SymbolStream.prefix"),
    "coding.depth_for": ("gehman.coding", "AtomProfile.depth_for"),
    "coding.cylinder": ("gehman.coding", "AtomProfile.cylinder_diameter"),
    "coding.factor": ("gehman.coding", "factors"),
    "coding.recurrent": ("gehman.coding", "recurrent_factors"),
    "diamond.gen": ("gehman.diamond", "DiamondStream._extend_to"),
    "diamond.lower": ("gehman.diamond", "omega_lower_check"),
    "diamond.upper": ("gehman.diamond", "omega_upper_check"),
    "chaoscan.lcp_series": ("gehman.chaoscan", "lcp_series"),
    "chaoscan.classify_pair": ("gehman.chaoscan", "classify_pair"),
    "chaoscan.scan": ("gehman.chaoscan", "scrambled_scan"),
    "chaoscan.certify": ("gehman.chaoscan", "certified_b_distality"),
    "chaoscan.sturmian": ("gehman.chaoscan", "sturmian_no_LY_check"),
    "chaoscan.omega": ("gehman.chaoscan", "omega_scrambled_check"),
    "dendrite.isolated": ("gehman.dendrite", "no_isolated_points_check"),
    "dendrite.invariance": ("gehman.dendrite", "f_invariance_check"),
}

# Count-only wrappers for calls too frequent or too cheap to span.
COUNTS = {
    "exactnum.surd_ops": ("gehman.exactnum", "QuadSurd.__init__"),
    "dendrite.accepts_calls": ("gehman.dendrite", "DendriteModel.accepts"),
    "family.a_stream": ("gehman.family", "a_stream"),
    "family.b_stream": ("gehman.family", "b_stream"),
    "family.x_stream": ("gehman.family", "x_stream"),
}

_STREAM_LOOKUPS = ("family.a_stream", "family.b_stream", "family.x_stream")


class Tracer:
    """Wrap, record, unwrap.  Single-threaded: one span stack."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[tuple[str, float, float, int]] = []
        self.counts: Counter = Counter()
        self.max_k = 0
        self._stack: list[int] = []
        self._seen_streams: dict[int, object] = {}
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _open(self) -> tuple[int, float]:
        index = len(self.spans)
        self.spans.append(None)  # reserve the slot so children see the index
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(index)
        return parent, self.clock()

    def _close(self, name: str, parent: int, start: float) -> None:
        end = self.clock()
        index = self._stack.pop()
        self.spans[index] = (name, start, end, parent)

    def _observe(self, name: str, arg, result) -> None:
        c = self.counts
        if name == "coding.prefix":
            c["coding.prefix_bytes"] += len(result)
        elif name in ("coding.factor", "coding.recurrent"):
            c["coding.factor_windows"] += max(arg("horizon") - arg("n") + 1, 0)
        elif name == "coding.depth_for":
            self.max_k = max(self.max_k, result)
        elif name == "chaoscan.lcp_series":
            c["chaoscan.lcp_series_shifts"] += arg("N") + 1
        elif name == "chaoscan.omega":
            c["chaoscan.omega_rows"] += len(result.rows)

    def _span_wrapper(self, name: str, fn):
        tracer = self
        grows = name in ("coding.gen", "diamond.gen")
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            before = len(args[0]._buf) if grows else 0
            parent, start = tracer._open()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(name, parent, start)
            if grows:
                tracer.counts[name + "_symbols"] += len(args[0]._buf) - before

            def arg(param):
                return sig.bind(*args, **kwargs).arguments[param]

            tracer._observe(name, arg, result)
            return result

        return wrapper

    def _count_wrapper(self, name: str, fn):
        counts = self.counts
        if name not in _STREAM_LOOKUPS:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper
        seen = self._seen_streams

        @functools.wraps(fn)
        def lookup(*args, **kwargs):
            stream = fn(*args, **kwargs)
            counts["family.stream_lookups"] += 1
            if id(stream) in seen:
                counts["family.stream_hits"] += 1
            else:
                seen[id(stream)] = stream  # keep alive so ids stay unique
            return stream

        return lookup

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        for name, (module, path) in SPANS.items():
            self._patch(module, path, functools.partial(self._span_wrapper, name))
        for name, (module, path) in COUNTS.items():
            self._patch(module, path, functools.partial(self._count_wrapper, name))

    def _patch(self, module: str, path: str, make) -> None:
        owner = sys.modules[module]
        attr = path
        if "." in path:
            cls_name, attr = path.split(".")
            owner = getattr(owner, cls_name)
            original = owner.__dict__[attr]
            self._set(owner, attr, make(original))
            return
        original = getattr(owner, attr)
        wrapper = make(original)
        # rebind in every gehman namespace that imported the same object,
        # so cli.lcp_series and chaoscan.lcp_series both record
        for modname, mod in list(sys.modules.items()):
            if (modname == "gehman" or modname.startswith("gehman.")) and (
                getattr(mod, attr, None) is original
            ):
                self._set(mod, attr, wrapper)

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)
        self._seen_streams.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def write(self, path) -> None:
        """Write the spans as JSON lines: name, start, end, parent index."""
        with open(path, "w", encoding="ascii") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent}) + "\n")


# -- analysis ------------------------------------------------------------------


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for index, (name, start, end, parent) in enumerate(spans):
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(index, ())):
            lo, hi = max(c_start, reach), min(c_end, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(end - start - covered)
    return out


# Per-layer metric -> span names whose self times it sums.
SELF_TIME_METRICS = {
    "coding.gen_s": ("coding.gen",),
    "coding.prefix_s": ("coding.prefix",),
    "coding.depth_for_s": ("coding.depth_for",),
    "coding.cylinder_s": ("coding.cylinder",),
    "coding.factor_s": ("coding.factor", "coding.recurrent"),
    "diamond.gen_s": ("diamond.gen",),
    "diamond.check_s": ("diamond.lower", "diamond.upper"),
    "chaoscan.lcp_series_s": ("chaoscan.lcp_series",),
    "chaoscan.classify_pair_self_s": ("chaoscan.classify_pair",),
    "chaoscan.scan_self_s": ("chaoscan.scan",),
    "chaoscan.certify_self_s": ("chaoscan.certify",),
    "chaoscan.sturmian_self_s": ("chaoscan.sturmian",),
    "chaoscan.omega_self_s": ("chaoscan.omega",),
    "dendrite.check_s": ("dendrite.isolated", "dendrite.invariance"),
    "cli.self_s": ("cli.main",),
}

# Per-layer metric -> span names whose number of calls it counts.
CALL_METRICS = {
    "coding.prefix_calls": ("coding.prefix",),
    "coding.depth_for_calls": ("coding.depth_for",),
    "coding.cylinder_calls": ("coding.cylinder",),
    "coding.factor_calls": ("coding.factor", "coding.recurrent"),
    "chaoscan.lcp_series_calls": ("chaoscan.lcp_series",),
    "chaoscan.pairs_classified": ("chaoscan.classify_pair",),
    "chaoscan.pairs_certified": ("chaoscan.certify",),
}

COUNT_METRICS = (
    "exactnum.surd_ops",
    "coding.gen_symbols",
    "coding.prefix_bytes",
    "coding.factor_windows",
    "diamond.gen_symbols",
    "family.stream_lookups",
    "family.stream_hits",
    "chaoscan.lcp_series_shifts",
    "chaoscan.omega_rows",
    "dendrite.accepts_calls",
)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced batch: self times, calls, counts."""
    selfs = self_times(tracer.spans)
    by_name_s: Counter = Counter()
    by_name_n: Counter = Counter()
    for (name, *_), s in zip(tracer.spans, selfs):
        by_name_s[name] += s
        by_name_n[name] += 1
    out: dict[str, float] = {}
    for metric, names in SELF_TIME_METRICS.items():
        out[metric] = sum(by_name_s[n] for n in names)
    for metric, names in CALL_METRICS.items():
        out[metric] = sum(by_name_n[n] for n in names)
    for metric in COUNT_METRICS:
        out[metric] = tracer.counts[metric]
    out["coding.max_K"] = tracer.max_k
    # the share of the batch spent below the CLI layer, in named layers
    out["trace.layers_s"] = sum(s for (name, *_), s in zip(tracer.spans, selfs)
                                if name != "cli.main")
    return out
