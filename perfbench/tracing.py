"""Span tracing at stirhom's layer boundaries, installed from outside.

The tracer replaces boundary functions in the namespace of the module that
calls them (``stirling.canonical_tree_data``, not ``trees.canonical_tree_data``)
and boundary methods on their classes.  ``src/`` is not changed.

Each call becomes one span (name, start, end, parent, run id), kept in
memory in compact columns and written out when the run ends.  A generator
method yields one span per resume, so the caller's work between items is
never attributed to the generator.  Self time is a span's duration minus
the time its child spans cover; the self times of all spans add up to the
root span's duration.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from array import array
from collections import Counter, defaultdict

ROOT = "run"


class Tracer:
    def __init__(self, run_id):
        self.run_id = run_id
        self.names = []
        self._name_ids = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.run = array("i")
        self._stack = [-1]
        self.counts = Counter()
        self.distinct = defaultdict(set)
        self.sizes = defaultdict(dict)

    # -- recording -----------------------------------------------------------

    def _name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def begin(self, name_id):
        idx = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1])
        self.run.append(self.run_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def finish(self, idx):
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def root(self):
        """Open the root span; the caller closes it with ``finish``."""
        return self.begin(self._name_id(ROOT))

    # -- installation --------------------------------------------------------

    def wrap(self, owner, attr, label, observe=None):
        """Trace ``owner.attr`` as ``label``; skip it if ``owner`` lacks it.

        ``observe(args, result)`` runs after the call, outside the span's
        timed body, to record counts and sizes.
        """
        fn = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if fn is None:
            return
        name_id = self._name_id(label)
        begin, finish = self.begin, self.finish
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                inner = fn(*args, **kwargs)
                try:
                    while True:
                        idx = begin(name_id)
                        try:
                            item = next(inner)
                        except StopIteration:
                            return
                        finally:
                            finish(idx)
                        yield item
                finally:
                    inner.close()
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                idx = begin(name_id)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    finish(idx)
                if observe is not None:
                    observe(args, result)
                return result
        setattr(owner, attr, wrapper)

    # -- analysis ------------------------------------------------------------

    def self_times(self):
        """Per-name (self seconds, calls, inclusive seconds)."""
        own = [e - s for s, e in zip(self.start, self.end)]
        inclusive = list(own)
        for idx, parent in enumerate(self.parent):
            if parent >= 0:
                own[parent] -= inclusive[idx]
        per_name = defaultdict(lambda: [0.0, 0, 0.0])
        for idx, name_id in enumerate(self.name):
            entry = per_name[self.names[name_id]]
            entry[0] += own[idx]
            entry[1] += 1
            entry[2] += inclusive[idx]
        return per_name

    def inclusive_under(self, name, parent_name):
        """Seconds spent in ``name`` spans whose parent is a ``parent_name`` span."""
        name_id = self._name_ids.get(name)
        parent_id = self._name_ids.get(parent_name)
        total = 0.0
        for idx, nid in enumerate(self.name):
            parent = self.parent[idx]
            if nid == name_id and parent >= 0 and self.name[parent] == parent_id:
                total += self.end[idx] - self.start[idx]
        return total

    def write(self, stem):
        """Write the spans as ``stem.bin`` (raw columns) and ``stem.json``."""
        columns = ("name", "start", "end", "parent", "run")
        with open(stem + ".bin", "wb") as handle:
            for column in columns:
                getattr(self, column).tofile(handle)
        header = {"names": self.names, "spans": len(self.start),
                  "columns": [[c, getattr(self, c).typecode,
                               getattr(self, c).itemsize] for c in columns],
                  "byteorder": sys.byteorder,
                  "run_id": self.run_id}
        with open(stem + ".json", "w") as handle:
            json.dump(header, handle, indent=1)
