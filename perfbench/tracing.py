"""The traced run: spans around each layer's public entry points, and self time per layer.

Wrappers are installed where callers look the names up -- class attributes
for methods, module globals in the importing module for functions -- and
only for the traced pass.  Spans are kept in flat arrays in memory and
written out once the run ends.  A span's self time is its duration minus
the durations of its child spans; the run is single-threaded, so children
never overlap.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from array import array
from contextlib import contextmanager

from pcmcat import category, cauchy, cli, fincat, laws, pcm

LAYERS = ("cli", "laws", "family", "pcm", "category", "cauchy", "fincat")
ITEM_SPAN = "bench.item"

# Spans reported with .calls and .self_s, and spans reported with .self_s only.
COUNTED = (
    "cli.main",
    "laws.check_wpa",
    "family.enumerate_partitions",
    "family.subfamily",
    "pcm.sum",
    "category.compose",
    "cauchy.construct",
    "cauchy.compose",
    "cauchy.sum_arrows",
    "cauchy.make_arrow",
    "fincat.validate_category",
    "fincat.hom",
)
TIMED = (
    "laws.check_subfamilies",
    "laws.check_reindexing",
    "laws.classify_full_pa",
    "laws.check_positivity",
    "category.resolve_base",
    "category.check_strong_distributivity",
    "category.derived_laws",
    "cauchy.check_identity_laws",
    "cauchy.check_associativity",
)
# fincat.build covers the index builders, without their validation spans.
BUILDERS = ("cyclic_category", "from_monoid", "product_category", "two_object_five_arrow_category")


def wrap_points() -> list[tuple[str, object, str]]:
    """(span name, owner, attribute) for every wrapper the traced run installs."""
    points = [("cli.main", cli, "main")]
    points += [("category.resolve_base", owner, "resolve_base") for owner in (cli, category)]
    points += [(f"laws.{name}", owner, name)
               for owner in (cli, laws) for name in ("run_pcm_suite", "run_category_suite")]
    points += [(f"laws.{name}", laws, name) for name in (
        "check_wpa", "check_subfamilies", "check_reindexing", "classify_full_pa",
        "check_positivity")]
    points += [(f"family.{name}", laws, name) for name in ("enumerate_partitions", "subfamily")]
    points += [("pcm.sum", pcm.Pcm, "sum"), ("category.compose", category.PcmCategory, "compose")]
    points += [(f"category.{name}", category, name)
               for name in ("check_strong_distributivity", "derived_laws")]
    points += [("cauchy.construct", cauchy.CauchyCategory, "__init__")]
    points += [(f"cauchy.{name}", cauchy.CauchyCategory, name) for name in (
        "compose", "sum_arrows", "make_arrow", "identity", "hom_pcm")]
    points += [(f"cauchy.{name}", cauchy, name)
               for name in ("check_identity_laws", "check_associativity")]
    points += [("fincat.validate_category", owner, "validate_category")
               for owner in (fincat, cauchy, cli)]
    points += [("fincat.hom", fincat.FinCategory, "hom")]
    points += [(f"fincat.{name}", fincat, name) for name in BUILDERS]
    return points


class Tracer:
    """Spans of one traced pass, one array per field."""

    def __init__(self):
        self.names: list[str] = []
        self.span_name = array("B")
        self.parent = array("i")
        self.request = array("I")
        self.start = array("q")
        self.end = array("q")
        self.request_id = 0
        self.labels = [""]  # item label per request id; 0 is outside any item
        self.summable = 0  # pcm.sum results that were Summable
        self.partitions = 0  # partitions returned by enumerate_partitions
        self._stack = [-1]
        self._item = self.wrap(ITEM_SPAN, lambda run: run())

    def name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def add_span(self, name: str, parent: int, start_ns: int, end_ns: int) -> int:
        """Record a finished span directly; returns its index."""
        self.span_name.append(self.name_id(name))
        self.parent.append(parent)
        self.request.append(self.request_id)
        self.start.append(start_ns)
        self.end.append(end_ns)
        return len(self.start) - 1

    def item(self, label: str, run):
        """Run one item under a fresh request id and a root span."""
        self.request_id += 1
        self.labels.append(label)
        return self._item(run)

    def wrap(self, name: str, fn, on_result=None):
        nid = self.name_id(name)
        names, parents, requests = self.span_name, self.parent, self.request
        starts, ends, stack = self.start, self.end, self._stack
        clock = time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            requests.append(tracer.request_id)
            ends.append(0)
            stack.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def write(self, path, scale: float) -> None:
        """Gzip: one JSON header line, then each field's raw array.

        ``scale`` is the pass's calibration factor, which readers apply to
        the uncalibrated span times.
        """
        fields = ("span_name", "parent", "request", "start", "end")
        header = {
            "names": self.names,
            "requests": self.labels,
            "scale": scale,
            "spans": len(self.start),
            "byteorder": sys.byteorder,
            "fields": [[field, getattr(self, field).typecode] for field in fields],
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wb", compresslevel=1) as out:
            out.write((json.dumps(header) + "\n").encode())
            for field in fields:
                out.write(getattr(self, field).tobytes())

    @classmethod
    def read(cls, path) -> tuple["Tracer", float]:
        """Load a span file written by ``write``: the spans and their scale."""
        tracer = cls()
        with gzip.open(path, "rb") as source:
            header = json.loads(source.readline())
            tracer.names, tracer.labels = header["names"], header["requests"]
            for field, typecode in header["fields"]:
                column = array(typecode)
                column.frombytes(source.read(column.itemsize * header["spans"]))
                if header["byteorder"] != sys.byteorder:
                    column.byteswap()
                setattr(tracer, field, column)
        return tracer, header["scale"]


@contextmanager
def installed(tracer: Tracer):
    """Install every wrapper for the duration of the block, then restore the originals."""

    def count_summable(result):
        if isinstance(result, pcm.Summable):
            tracer.summable += 1

    def count_partitions(result):
        tracer.partitions += len(result)

    observers = {"pcm.sum": count_summable, "family.enumerate_partitions": count_partitions}
    saved = []
    try:
        for name, owner, attr in wrap_points():
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(name, original, observers.get(name)))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def self_times(tracer: Tracer, requests=None) -> dict[str, tuple[int, int, int]]:
    """Span name -> (calls, self time in ns, total time in ns), over all spans or
    over the spans of the given request ids.

    Walks spans last to first: a child always follows its parent, so by the
    time a span is reached its children's durations have been added up.
    """
    n = len(tracer.start)
    start, end, parent, span_name = tracer.start, tracer.end, tracer.parent, tracer.span_name
    request = tracer.request
    children = array("q", bytes(8 * n))
    calls = [0] * len(tracer.names)
    self_ns = [0] * len(tracer.names)
    total_ns = [0] * len(tracer.names)
    for i in range(n - 1, -1, -1):
        duration = end[i] - start[i]
        if parent[i] >= 0:
            children[parent[i]] += duration
        if requests is None or request[i] in requests:
            calls[span_name[i]] += 1
            self_ns[span_name[i]] += duration - children[i]
            total_ns[span_name[i]] += duration
    return {name: (calls[k], self_ns[k], total_ns[k]) for k, name in enumerate(tracer.names)}


def calls_under(tracer: Tracer, name: str, ancestor: str) -> int:
    """Spans called ``name`` with a span called ``ancestor`` above them."""
    if name not in tracer.names or ancestor not in tracer.names:
        return 0
    target, above = tracer.names.index(name), tracer.names.index(ancestor)
    parent, span_name = tracer.parent, tracer.span_name
    under = array("B", bytes(len(parent)))
    count = 0
    for i, p in enumerate(parent):
        if p >= 0 and (under[p] or span_name[p] == above):
            under[i] = 1
            count += span_name[i] == target
    return count


def per_layer_metrics(tracer: Tracer, overhead_s: float,
                      scale: float = 1.0) -> dict[str, tuple[float, str]]:
    """Every per-layer metric of the traced pass: name -> (value, unit).

    Span times are multiplied by ``scale``, the pass's calibration factor.
    """
    stats = self_times(tracer)

    def calls(name):
        return stats.get(name, (0, 0, 0))[0]

    def self_s(name):
        return stats.get(name, (0, 0, 0))[1] / 1e9 * scale

    metrics = {}
    for name in COUNTED:
        metrics[f"{name}.calls"] = (calls(name), "count")
        metrics[f"{name}.self_s"] = (self_s(name), "s")
    for name in TIMED:
        metrics[f"{name}.self_s"] = (self_s(name), "s")
    metrics["fincat.build.self_s"] = (sum(self_s(f"fincat.{b}") for b in BUILDERS), "s")
    metrics["family.enumerate_partitions.partitions"] = (tracer.partitions, "count")
    sums = calls("pcm.sum")
    metrics["pcm.sum.summable_ratio"] = (tracer.summable / sums if sums else 0.0, "ratio")
    composes = calls("cauchy.compose")
    under = calls_under(tracer, "pcm.sum", "cauchy.compose")
    metrics["cauchy.sum_calls_per_compose"] = (under / composes if composes else 0.0,
                                               "calls/compose")
    for layer in LAYERS:
        total = sum(ns for name, (_, ns, _) in stats.items() if name.split(".", 1)[0] == layer)
        metrics[f"layer.{layer}.self_s"] = (total / 1e9 * scale, "s")
    metrics["trace.overhead_s"] = (overhead_s, "s")
    return metrics
