"""In-memory spans and counters around fuzzyhue's public functions.

The benchmark installs wrappers from outside the library: every module of
the package that binds a traced function gets the wrapper in its place (for
example ``fuzzyhue.cli`` imports ``read_image`` by name, and
``image_descriptor`` finds ``classify_color`` through ``fuzzyhue.classify``'s
globals), and traced methods are replaced on their class. Nothing under
``src/`` changes.

A span records its name, start, end, parent span and request id. Spans of
one block of requests are kept in column arrays, reduced to self times when
the block ends, and appended to a binary file readable with
:func:`read_spans`.
"""

from __future__ import annotations

import json
import struct
import sys
from array import array
from collections import defaultdict
from time import perf_counter

# (module, attribute, span name) of the functions that get a span.
SPANS = (
    ("fuzzyhue.cli", "cli_main", "cli.cli_main"),
    ("fuzzyhue.formats", "read_image", "formats.read_image"),
    ("fuzzyhue.formats", "load_partition", "formats.load_partition"),
    ("fuzzyhue.classify", "image_descriptor", "classify.image_descriptor"),
    ("fuzzyhue.classify", "classify_color", "classify.classify_color"),
    ("fuzzyhue.classify", "rgb_to_hsv", "classify.rgb_to_hsv"),
    ("fuzzyhue.partition", "from_boundaries", "partition.from_boundaries"),
    ("fuzzyhue.partition:HuePartition", "memberships", "partition.memberships"),
    ("fuzzyhue.partition:HuePartition", "category_of", "partition.category_of"),
    ("fuzzyhue.metrics", "metrics_table", "metrics.metrics_table"),
    ("fuzzyhue.metrics", "wideness", "metrics.wideness"),
    ("fuzzyhue.render", "render_memberships", "render.render_memberships"),
    ("fuzzyhue.render", "render_spectrum", "render.render_spectrum"),
)
# (module, attribute, counter name) of the calls that are only counted.
COUNTS = (
    ("fuzzyhue.fuzzyset:CircularTrapezoid", "membership", "fuzzyset.membership"),
    ("fuzzyhue.circle:Arc", "intersect", "circle.intersect"),
)
ROOT = "request"
# Membership evaluations made inside a lookup are counted separately, so
# evaluations per lookup can be derived.
LOOKUPS = ("partition.memberships", "partition.category_of")
EVALS = "fuzzyset.membership"
EVALS_IN_LOOKUP = "fuzzyset.membership.in_lookup"
_BLOCK_HEADER = struct.Struct("<II")


class Tracer:
    """Spans and counters of the current block, plus the wrappers that feed them."""

    def __init__(self, path):
        self.names = [ROOT] + [name for _, _, name in SPANS]
        self.kind = array("H")
        self.parent = array("i")
        self.request = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = []
        self.counts = defaultdict(int)
        self.request_id = 0
        self.blocks = 0
        self.path = path
        self.file = open(path, "wb")
        self.patches = []
        for index, (target, attr, name) in enumerate(SPANS, start=1):
            self._patch(target, attr, self._span_wrapper(index, name))
        for target, attr, name in COUNTS:
            self._patch(target, attr, self._count_wrapper(name))

    # -- wrappers ---------------------------------------------------------

    def _span_wrapper(self, index, name):
        kind, parent, request = self.kind, self.parent, self.request
        start, end, stack, counts = self.start, self.end, self.stack, self.counts
        observe = _OBSERVERS.get(name)
        lookup = name in LOOKUPS
        tracer = self

        def make(fn):
            def traced(*args, **kwargs):
                slot = len(kind)
                kind.append(index)
                parent.append(stack[-1] if stack else -1)
                request.append(tracer.request_id)
                start.append(0.0)
                end.append(0.0)
                stack.append(slot)
                evals = counts[EVALS]
                t0 = perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end[slot] = perf_counter()
                    start[slot] = t0
                    stack.pop()
                counts[name] += 1
                if lookup:
                    counts[EVALS_IN_LOOKUP] += counts[EVALS] - evals
                if observe is not None:
                    observe(counts, result)
                return result

            traced.__wrapped__ = fn
            return traced

        return make

    def _count_wrapper(self, name):
        counts = self.counts

        def make(fn):
            # Both counted methods take one argument besides ``self``; a
            # fixed signature keeps the counter cheap on the hottest calls.
            def counted(obj, arg):
                counts[name] += 1
                return fn(obj, arg)

            counted.__wrapped__ = fn
            return counted

        return make

    def _patch(self, target, attr, make):
        module_name, _, class_name = target.partition(":")
        owner = sys.modules[module_name]
        if class_name:
            cls = getattr(owner, class_name)
            original = cls.__dict__[attr]
            self.patches.append((cls, attr, original, make(original)))
            return
        original = getattr(owner, attr)
        wrapper = make(original)
        for name, module in list(sys.modules.items()):
            if (name == "fuzzyhue" or name.startswith("fuzzyhue.")) and getattr(
                module, attr, None
            ) is original:
                self.patches.append((module, attr, original, wrapper))

    def install(self) -> None:
        for owner, attr, _, wrapper in self.patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self.patches:
            setattr(owner, attr, original)

    # -- requests and blocks ----------------------------------------------

    def begin_request(self) -> None:
        self.request_id += 1
        slot = len(self.kind)
        self.kind.append(0)
        self.parent.append(-1)
        self.request.append(self.request_id)
        self.start.append(perf_counter())
        self.end.append(0.0)
        self.stack.append(slot)

    def end_request(self) -> None:
        slot = self.stack.pop()
        self.end[slot] = perf_counter()

    def end_block(self) -> dict:
        """Reduce the block's spans to per-name self times and counts, write them, reset."""
        n = len(self.kind)
        duration = [e - s for s, e in zip(self.start, self.end)]
        own = list(duration)
        for i, p in enumerate(self.parent):
            if p >= 0:
                own[p] -= duration[i]
        self_s = defaultdict(float)
        for k, t in zip(self.kind, own):
            self_s[self.names[k]] += t
        self.file.write(_BLOCK_HEADER.pack(self.blocks, n))
        for column in (self.kind, self.parent, self.request, self.start, self.end):
            column.tofile(self.file)
        self.blocks += 1
        block = {"self_s": dict(self_s), "counts": dict(self.counts)}
        for column in (self.kind, self.parent, self.request, self.start, self.end):
            del column[:]
        self.counts.clear()
        return block

    def close(self) -> None:
        self.uninstall()
        self.file.close()
        with open(f"{self.path}.json", "w", encoding="utf-8") as f:
            json.dump({"names": self.names, "blocks": self.blocks}, f)


def _observe_classify(counts, descriptor):
    if descriptor.achromatic_mass == 1.0:
        counts["classify.classify_color.achromatic"] += 1


def _observe_svg(counts, svg):
    counts["render.svg_bytes"] += len(svg.encode("utf-8"))


_OBSERVERS = {
    "classify.classify_color": _observe_classify,
    "render.render_memberships": _observe_svg,
    "render.render_spectrum": _observe_svg,
}


def read_spans(path):
    """Yield (block, [(name, parent, request, start, end), ...]) from a spans file."""
    with open(f"{path}.json", encoding="utf-8") as f:
        names = json.load(f)["names"]
    with open(path, "rb") as f:
        while header := f.read(_BLOCK_HEADER.size):
            block, n = _BLOCK_HEADER.unpack(header)
            columns = []
            for code in "Hiidd":
                column = array(code)
                column.fromfile(f, n)
                columns.append(column)
            yield block, [(names[k], p, r, s, e) for k, p, r, s, e in zip(*columns)]
