"""Spans and call counts around calls into the program, taken from outside it.

`patched` swaps a function for a wrapper in every namespace that holds a
reference to it, so callers that imported the function by name are wrapped
too, and restores the originals on exit.  `Tracer` makes span wrappers:
each call (each resume, for a generator function) becomes one span with a
name, start, end, parent span and run id, kept in memory in flat arrays.
`self_times` turns spans into self time: duration minus the part of the
interval that child spans cover.
"""

from __future__ import annotations

import functools
import inspect
from array import array
from collections import Counter
from contextlib import contextmanager
from time import perf_counter


@contextmanager
def patched(targets, namespaces, make_wrapper):
    """Replace each target function while the block runs.

    `targets` holds (owner, attribute, name) triples; `owner` is a module or
    class.  A module-level function is also replaced in every namespace of
    `namespaces` that holds the same object, under whatever name it has there.
    """
    undo = []
    try:
        for owner, attr, name in targets:
            orig = getattr(owner, attr)
            wrapper = make_wrapper(name, orig)
            undo.append((owner, attr, orig))
            setattr(owner, attr, wrapper)
            if inspect.isclass(owner):
                continue
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is orig:
                        undo.append((ns, key, orig))
                        setattr(ns, key, wrapper)
        yield
    finally:
        for owner, attr, orig in reversed(undo):
            setattr(owner, attr, orig)


def counter_wrapper(counts: Counter):
    """A `make_wrapper` that only counts calls, for a pass without spans."""

    def make(name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    return make


class Tracer:
    """Collects spans in memory; `wrap` is a `make_wrapper` for `patched`."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.run = array("l")
        self.run_id = 0
        self.calls: Counter = Counter()
        self._stack: list[int] = []

    def _open(self, nid: int) -> int:
        # A span with no parent starts a new run: one top-level call.
        if not self._stack:
            self.run_id += 1
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.run.append(self.run_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    def _intern(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name, fn):
        nid = self._intern(name)
        calls = self.calls
        if inspect.isgeneratorfunction(fn):
            # One span per resume, so the work of a lazy walk is charged to
            # the generator and not to whatever consumes it.
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                calls[name] += 1
                it = fn(*args, **kwargs)
                while True:
                    idx = self._open(nid)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        self._close(idx)
                    yield item

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            idx = self._open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        return wrapper

    def records(self):
        """(name, start, end, parent, run) per span, in opening order."""
        for i in range(len(self.start)):
            yield (
                self.names[self.name_id[i]],
                self.start[i],
                self.end[i],
                self.parent[i],
                self.run[i],
            )

    def write_tsv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tname\tstart\tend\tparent\trun\n")
            for i, (name, start, end, parent, run) in enumerate(self.records()):
                fh.write(f"{i}\t{name}\t{start!r}\t{end!r}\t{parent}\t{run}\n")


def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of `intervals`, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> list[float]:
    """Self time of each span: its duration minus what its children cover.

    `spans` is a sequence of (name, start, end, parent, run) with parent the
    index of the enclosing span or -1.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    return [
        (end - start) - covered(children.get(i, ()), start, end)
        for i, (_, start, end, _, _) in enumerate(spans)
    ]
