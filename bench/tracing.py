"""In-memory span recorder for the benchmark's traced run.

Spans are recorded from benchmark code only: `instrument` replaces the
module attributes through which the library calls its own layers (for
example `snzeros.montecarlo.random_partition`) with timing wrappers, and
`restore` puts the originals back.  The library's source is not touched.

Each span is six integers -- id, name id, parent id (-1 for a root),
start and end in `perf_counter_ns`, and the problem size n (0 when the
layer has none) -- appended to one flat `array('q')` when the span ends.
Ids are handed out when spans start, so a parent's id is always smaller
than its children's.  Spans of one pass are contiguous in the array.

Spans recorded inside pool workers stay in the workers and are lost; the
parent sees the `montecarlo.estimate` span that waited for them.
"""

from __future__ import annotations

import gzip
import importlib
import itertools
import json
import time
from array import array
from contextlib import contextmanager
from functools import wraps
from typing import Callable, Iterator

FIELDS = ("id", "name", "parent", "start_ns", "end_ns", "n")
WIDTH = len(FIELDS)


def _n_of_first(args: tuple) -> int:
    return args[0]


def _n_of_partition(args: tuple) -> int:
    return args[0].n


# (module, attribute, span name, size extractor).  Each entry is an attribute
# the library looks up at call time, so replacing it traces every call.
INSTRUMENTATION = (
    ("snzeros.montecarlo", "estimate", "montecarlo.estimate", _n_of_first),
    ("snzeros.montecarlo", "build_p_table", "ptable.build", _n_of_first),
    ("snzeros.montecarlo", "random_partition", "sampler", _n_of_first),
    ("snzeros.montecarlo", "classify", "mn.classify", _n_of_partition),
    ("snzeros.census", "classify", "mn.classify", _n_of_partition),
    ("snzeros.census", "build_p_table", "ptable.build", _n_of_first),
    ("snzeros.census", "count_max_part", "census.count_max_part", _n_of_first),
    ("snzeros.mn", "character", "mn.character", _n_of_partition),
)


class Tracer:
    """Collects spans in memory; `passes` marks which array slice each pass owns."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans = array("q")
        self.passes: list[tuple[str, int, int]] = []  # (kind, first row, end row)
        self._stack = [-1]
        self._ids = itertools.count()
        self._saved: list[tuple[object, str, object]] = []

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, name: str, fn: Callable, size: Callable[[tuple], int] | None = None) -> Callable:
        nid = self.name_id(name)
        stack, spans, ids, clock = self._stack, self.spans, self._ids, time.perf_counter_ns

        @wraps(fn)
        def traced(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1]
            stack.append(sid)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans.extend((sid, nid, parent, t0, t1, size(args) if size else 0))

        return traced

    @contextmanager
    def span(self, name: str, n: int = 0) -> Iterator[None]:
        nid = self.name_id(name)
        sid = next(self._ids)
        parent = self._stack[-1]
        self._stack.append(sid)
        t0 = time.perf_counter_ns()
        try:
            yield
        finally:
            t1 = time.perf_counter_ns()
            self._stack.pop()
            self.spans.extend((sid, nid, parent, t0, t1, n))

    @contextmanager
    def traced_pass(self, kind: str) -> Iterator[None]:
        """Instrument the library for one pass and mark the spans it records."""
        first = len(self.spans) // WIDTH
        self.instrument()
        try:
            with self.span("pass"):
                yield
        finally:
            self.restore()
            self.passes.append((kind, first, len(self.spans) // WIDTH))

    def instrument(self) -> None:
        for module_name, attr, name, size in INSTRUMENTATION:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self.wrap(name, original, size))

    def restore(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def rows(self, first: int = 0, end: int | None = None) -> Iterator[tuple[int, ...]]:
        """Spans as (id, name id, parent, start_ns, end_ns, n) tuples, in end order."""
        spans = self.spans
        stop = len(spans) // WIDTH if end is None else end
        for i in range(first, stop):
            yield tuple(spans[i * WIDTH:(i + 1) * WIDTH])

    def write(self, path, meta: dict) -> None:
        """Write every span as text: a JSON header line, then one line per span."""
        header = {**meta, "fields": FIELDS, "names": self.names, "passes": self.passes}
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write(json.dumps(header) + "\n")
            for row in self.rows():
                fh.write(" ".join(map(str, row)) + "\n")


def read_trace(path) -> tuple[dict, list[tuple[int, ...]]]:
    """Parse a file written by `Tracer.write` into its header and span tuples."""
    with gzip.open(path, "rt") as fh:
        header = json.loads(fh.readline())
        rows = [tuple(int(x) for x in line.split()) for line in fh]
    for row in rows:
        if len(row) != WIDTH:
            raise ValueError(f"{path}: span row {row} has {len(row)} fields, expected {WIDTH}")
    return header, rows
