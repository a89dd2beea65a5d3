"""Spans around orbilens' public functions, installed from outside the package.

A traced worker replaces module attributes (the names as the calling
module sees them) with thin wrappers that record one span per call:
``[name, start, end, parent, note]``.  Spans stay in memory and are
written out when the worker ends; nothing inside orbilens changes.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager

NAME, START, END, PARENT, NOTE = range(5)

# (module, attribute, span name, note kind); a missing attribute is
# reported as absent rather than failing the run.
TARGETS = (
    ("orbilens.cli", "sweep_stream", "search.sweep_stream", "stream"),
    ("orbilens.search", "isometry_classes", "search.isometry_classes", None),
    ("orbilens.search", "multiplicity_series", "spectrum.multiplicity_series", "space"),
    ("orbilens.spectrum", "multiplicity_series", "spectrum.multiplicity_series", "space"),
    ("orbilens.search", "is_isospectral", "spectrum.is_isospectral", None),
    ("orbilens.cli", "is_isospectral", "spectrum.is_isospectral", None),
    ("orbilens.search", "same_heat_expansion", "heat.same_heat_expansion", "verdict"),
    ("orbilens.heat", "canonical_form", "core.canonical_form", None),
    ("orbilens.cli", "is_isometric", "core.is_isometric", None),
    ("orbilens.cli", "spectrum_table", "spectrum.spectrum_table", None),
    ("orbilens.cli", "heat_expansion_3d", "heat.heat_expansion_3d", None),
)
RECORDS_MODULE = "orbilens.records"


def _note(kind, args, result):
    if kind == "space":
        return str(args[0]) if args else None
    if kind == "verdict":
        return "equal" if getattr(result, "value", result) == "GuaranteedEqual" else "other"
    return None


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self._open: list[int] = []

    def _begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, self.clock(), None, parent, None])
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def _end(self, idx: int) -> list:
        self._open.pop()
        span = self.spans[idx]
        span[END] = self.clock()
        return span

    @contextmanager
    def span(self, name: str):
        idx = self._begin(name)
        try:
            yield
        finally:
            self._end(idx)

    def wrap(self, name: str, fn, kind=None):
        def traced(*args, **kwargs):
            idx = self._begin(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._end(idx)
                raise
            self._end(idx)[NOTE] = _note(kind, args, result)
            return result

        return traced

    def wrap_stream(self, name: str, fn):
        """One span per item pulled from the iterator ``fn`` returns."""

        def traced(*args, **kwargs):
            return self._pull(name, iter(fn(*args, **kwargs)))

        return traced

    def _pull(self, name, it):
        while True:
            idx = self._begin(name)
            try:
                item = next(it)
            except StopIteration:
                self._end(idx)[NOTE] = "stop"
                return
            except BaseException:
                self._end(idx)
                raise
            self._end(idx)[NOTE] = "item"
            yield item

    def install(self, modules: dict) -> list[str]:
        """Wrap every target found in ``modules``; return the ones absent."""
        absent = []
        for module_name, attr, name, kind in TARGETS:
            module = modules.get(module_name)
            fn = getattr(module, attr, None)
            if not callable(fn):
                absent.append(f"{module_name}.{attr}")
            elif kind == "stream":
                setattr(module, attr, self.wrap_stream(name, fn))
            else:
                setattr(module, attr, self.wrap(name, fn, kind))
        records = modules.get(RECORDS_MODULE)
        for attr, fn in list(vars(records).items() if records else ()):
            if (
                not attr.startswith("_")
                and callable(fn)
                and getattr(fn, "__module__", None) == RECORDS_MODULE
                and not isinstance(fn, type)
            ):
                setattr(records, attr, self.wrap("records", fn))
        return absent


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its direct children cover."""
    children = defaultdict(list)
    for span in spans:
        if span[PARENT] >= 0:
            children[span[PARENT]].append((span[START], span[END]))
    out = []
    for idx, span in enumerate(spans):
        start, end = span[START], span[END]
        covered, reach = 0.0, start
        for lo, hi in sorted(children.get(idx, ())):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
            reach = max(reach, hi)
        out.append(end - start - covered)
    return out
