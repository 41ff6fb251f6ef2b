"""Outside-in layer tracer for the vanatta benchmark.

The tracer wraps, from outside the program, every public function of each
vanatta module plus the few private entries that are the only way into a
stage, records one span per call (name, layer, start, end, parent) in
memory, and turns the spans of one op into per-layer metrics.

A layer is a module of the package.  A span's self time is its duration
minus the time its child spans cover, so the layers' self times plus the
time no span covers add up to the op's wall time.

Modules import functions by name (``from .geometry import validate_layout``),
so each wrapper is installed on every ``vanatta.*`` attribute bound to the
function.  A boundary that no longer exists is skipped, and the metrics
built on it are reported as absent.
"""

from __future__ import annotations

import fnmatch
import functools
import importlib
import inspect
import sys
import time
from dataclasses import dataclass

LAYERS = ("geometry", "emfield", "modulation", "fmcw", "link", "kernels", "cli")

# Private functions and methods that are the only way into their stage: the
# range FFT (called from link), the CLI's file writer, and the reflector's
# per-chirp amplitude schedule.
EXTRA_BOUNDARIES = ("fmcw._profile_matrix", "cli._emit", "fmcw.SurfaceReflector.amplitudes")

# Writers of the command's output files; "cli.write_ms" covers all of them.
WRITERS = ("cli._emit", "*.write_*")


def _size(array) -> int:
    return int(getattr(array, "size", None) or len(array))


# Work counters, called with the boundary's own arguments.  Bytes are
# computed from argument and result array sizes, not measured.
def _pair_path_work(x_in, x_out, path_extra, wavenumber, sin_incidence, sin_obs):
    traversals, angles = _size(x_in), _size(sin_obs)
    return {
        "cells": traversals * angles,
        "bytes": 8 * (3 * traversals + angles) + 16 * angles,
    }


def _beat_work(samples, amplitudes, beat_frequency, phase0, phase_step, dt):
    chirps, n = samples.shape
    return {"cells": chirps * n, "bytes": 2 * 8 * chirps * n + 8 * chirps}


def _response_points(layout, config, wave, observation_angle_deg, *args, **kwargs):
    return {"points": 1}


def _pattern_points(layout, config, wave, angles_deg, *args, **kwargs):
    return {"points": _size(angles_deg)}


COUNTERS = {
    "kernels.pair_path_response": _pair_path_work,
    "kernels.accumulate_beat": _beat_work,
    "emfield.roundtrip_response": _response_points,
    "emfield.field_pattern": _pattern_points,
}


@dataclass(frozen=True)
class Metric:
    """A per-layer metric: a sum over the spans of its boundaries.

    field is "ms" (time covered by those spans), "calls", or a work counter.
    """

    name: str
    unit: str
    better: str
    boundaries: tuple[str, ...]
    field: str


RESPONSES = ("emfield.roundtrip_response", "emfield.field_pattern")

NAMED_METRICS = (
    Metric("geometry.validate_calls", "count", "lower", ("geometry.validate_layout",), "calls"),
    Metric("geometry.validate_ms", "ms", "lower", ("geometry.validate_layout",), "ms"),
    Metric("emfield.response_calls", "count", "lower", RESPONSES, "calls"),
    Metric("emfield.points", "count", "higher", RESPONSES, "points"),
    Metric("kernels.pair_path_ms", "ms", "lower", ("kernels.pair_path_response",), "ms"),
    Metric("kernels.pair_path_cells", "count", "lower", ("kernels.pair_path_response",), "cells"),
    Metric(
        "kernels.pair_path_bytes", "bytes_computed", "lower", ("kernels.pair_path_response",), "bytes"
    ),
    Metric("kernels.beat_ms", "ms", "lower", ("kernels.accumulate_beat",), "ms"),
    Metric("kernels.beat_cells", "count", "lower", ("kernels.accumulate_beat",), "cells"),
    Metric("kernels.beat_bytes", "bytes_computed", "lower", ("kernels.accumulate_beat",), "bytes"),
    Metric("fmcw.synth_ms", "ms", "lower", ("fmcw.synthesize_beat",), "ms"),
    Metric("fmcw.range_fft_ms", "ms", "lower", ("fmcw._profile_matrix",), "ms"),
    Metric("fmcw.reflector_ms", "ms", "lower", ("fmcw.SurfaceReflector.amplitudes",), "ms"),
    Metric("modulation.config_at_calls", "count", "lower", ("modulation.config_at",), "calls"),
    Metric("link.decode_ms", "ms", "lower", ("link.decode_ook",), "ms"),
    Metric("cli.write_ms", "ms", "lower", WRITERS, "ms"),
)

# Metrics the benchmark fills in itself rather than from the spans.
OUT_BYTES = Metric("cli.out_bytes", "bytes", "lower", (), "")
UNTRACED = Metric("trace.untraced_ms", "ms", "lower", (), "")
OVERHEAD = Metric("trace.overhead_ms", "ms", "lower", (), "")

LAYER_METRICS = tuple(
    m
    for layer in LAYERS
    for m in (
        Metric(f"{layer}.self_ms", "ms", "lower", (f"{layer}.*",), "self_ms"),
        Metric(f"{layer}.calls", "count", "lower", (f"{layer}.*",), "calls"),
    )
)

PER_LAYER = LAYER_METRICS + NAMED_METRICS + (OUT_BYTES, UNTRACED, OVERHEAD)


class Span:
    __slots__ = ("name", "layer", "parent", "start", "end", "counts")

    def __init__(self, name, layer, parent, counts):
        self.name = name
        self.layer = layer
        self.parent = parent
        self.counts = counts
        self.start = self.end = 0.0


def _resolve(dotted: str):
    """(owner, attribute, object) for "layer.name[.attr]", or None if gone."""
    layer, *path = dotted.split(".")
    module = sys.modules.get(f"vanatta.{layer}")
    owner = module
    for attr in path[:-1]:
        owner = getattr(owner, attr, None)
    obj = getattr(owner, path[-1], None) if owner is not None else None
    if not callable(obj):
        return None
    return owner, path[-1], obj


class Tracer:
    """Wraps vanatta's layer boundaries and records spans while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.layers: list[str] = []
        self.boundaries: dict[str, object] = {}
        for layer in LAYERS:
            try:
                module = importlib.import_module(f"vanatta.{layer}")
            except ImportError:
                continue
            self.layers.append(layer)
            for attr, obj in vars(module).items():
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                ):
                    self.boundaries[f"{layer}.{attr}"] = obj
        for dotted in EXTRA_BOUNDARIES:
            found = _resolve(dotted)
            if found is not None:
                self.boundaries[dotted] = found[2]

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        layer = name.split(".", 1)[0]
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            counts = None
            if counter is not None:
                try:
                    counts = counter(*args, **kwargs)
                except (TypeError, ValueError, AttributeError):
                    counts = None  # signature changed: the counts become absent
            span = Span(name, layer, stack[-1] if stack else None, counts)
            stack.append(len(spans))
            spans.append(span)
            span.start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        """Bind a wrapper in place of every boundary, wherever it is bound."""
        wrappers = {}
        for name, fn in self.boundaries.items():
            wrappers[id(fn)] = (fn, self._wrap(name, fn))
        for dotted in EXTRA_BOUNDARIES:
            found = _resolve(dotted)
            if found is not None and inspect.isclass(found[0]):
                owner, attr, fn = found
                self._patches.append((owner, attr, fn))
                setattr(owner, attr, wrappers[id(fn)][1])
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "vanatta" or mod_name.startswith("vanatta.")):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, hit[1])

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def take(self) -> list[Span]:
        """The spans recorded so far; the tracer starts a fresh list."""
        spans = self.spans[:]
        self.spans.clear()
        return spans

    def present(self, metric: Metric) -> bool:
        return any(
            fnmatch.fnmatchcase(name, pattern)
            for pattern in metric.boundaries
            for name in self.boundaries
        )


def op_metrics(tracer: Tracer, spans: list[Span], op_ms: float) -> dict[str, float]:
    """Per-layer metrics of one traced op whose wall time was op_ms.

    Metrics whose boundaries no longer exist are left out.
    """
    durations = [(s.end - s.start) * 1e3 for s in spans]
    covered_by_children = [0.0] * len(spans)
    for span, ms in zip(spans, durations):
        if span.parent is not None:
            covered_by_children[span.parent] += ms

    out = {}
    for layer in tracer.layers:
        out[f"{layer}.self_ms"] = 0.0
        out[f"{layer}.calls"] = 0
    for span, ms, child_ms in zip(spans, durations, covered_by_children):
        out[f"{span.layer}.self_ms"] += ms - child_ms
        out[f"{span.layer}.calls"] += 1

    names = {s.name for s in spans}
    for metric in NAMED_METRICS:
        if not tracer.present(metric):
            continue
        hits = {n for n in names if any(fnmatch.fnmatchcase(n, p) for p in metric.boundaries)}
        inside = [s.name in hits for s in spans]
        if metric.field == "ms":
            # Time covered, counting a span only when no enclosing span is
            # already counted.
            value = 0.0
            for i, span in enumerate(spans):
                if inside[i] and not _has_ancestor_in(spans, span, inside):
                    value += durations[i]
        elif metric.field == "calls":
            value = sum(inside)
        else:
            counts = [s.counts for s, hit in zip(spans, inside) if hit]
            if any(c is None for c in counts):
                continue
            value = sum(c[metric.field] for c in counts)
        out[metric.name] = value

    out[UNTRACED.name] = op_ms - sum(
        ms for span, ms in zip(spans, durations) if span.parent is None
    )
    return out


def _has_ancestor_in(spans: list[Span], span: Span, inside: list[bool]) -> bool:
    parent = span.parent
    while parent is not None:
        if inside[parent]:
            return True
        parent = spans[parent].parent
    return False
