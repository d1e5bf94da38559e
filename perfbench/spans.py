"""Spans and counters recorded around calls into plucker's public functions.

The benchmark times every layer from outside: ``instrument`` replaces each
listed function (in its own module and in every plucker module that imported
it by name) with a wrapper that opens a span around the call.  Spans are kept
in memory and written out once, after the measured region.

A span's self time is its duration minus the time covered by its children,
so the self times of every span in a run add up to the root span's duration.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict

_clock = time.perf_counter


class Tracer:
    """In-memory span recorder; one per workload process."""

    def __init__(self, run_id: str, clock=None):
        self.run_id = run_id
        self._now = clock or _clock
        # each span: [id, name, parent id (-1 for a root), start, end]
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([sid, name, parent, self._now(), None])
        self._stack.append(sid)
        return sid

    def close(self, sid: int) -> None:
        self.spans[sid][4] = self._now()
        self._stack.pop()

    def close_all(self) -> None:
        """Close every open span, innermost first (after an exception)."""
        while self._stack:
            self.close(self._stack[-1])

    @contextlib.contextmanager
    def span(self, name: str):
        sid = self.open(name)
        try:
            yield
        finally:
            self.close(sid)

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] += amount

    def maximum(self, name: str, value: float) -> None:
        self.counters[name] = max(self.counters[name], value)

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for sid, name, parent, start, end in self.spans:
                fh.write(json.dumps({"run": self.run_id, "id": sid, "name": name,
                                     "parent": parent, "start": start,
                                     "end": end}) + "\n")


def span_times(spans) -> dict[str, tuple[float, float, int]]:
    """Per span name: (total self time, total duration, number of spans).

    ``spans`` holds ``[id, name, parent, start, end]`` records with ids equal
    to list positions.  Self time is the duration minus the union of the
    children's intervals, so overlapping children are not counted twice.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for _, _, parent, start, end in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out: dict[str, list] = {}
    for sid, name, _, start, end in spans:
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(sid, ())):
            lo, hi = max(lo, start), min(hi, end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        acc = out.setdefault(name, [0.0, 0.0, 0])
        acc[0] += (end - start) - covered
        acc[1] += end - start
        acc[2] += 1
    return {name: tuple(acc) for name, acc in out.items()}


def _wrap(tracer: Tracer, span, func, on_result=None):
    """Wrapper that runs ``func`` inside a span; generators span each step.

    ``span`` is a name, or a function of the call's arguments giving one.
    """
    if callable(span):
        name_of = span
    else:
        def name_of(*_args, **_kwargs):
            return span

    if inspect.isgeneratorfunction(func):
        @functools.wraps(func)
        def gen_wrapper(*args, **kwargs):
            it = func(*args, **kwargs)
            name = name_of(*args, **kwargs)
            while True:
                sid = tracer.open(name)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    tracer.close(sid)
                if on_result is not None:
                    on_result(tracer, args, item)
                yield item
        return gen_wrapper

    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        sid = tracer.open(name_of(*args, **kwargs))
        try:
            result = func(*args, **kwargs)
        finally:
            tracer.close(sid)
        if on_result is not None:
            on_result(tracer, args, result)
        return result
    return wrapper


def instrument(tracer: Tracer, targets) -> list[tuple[object, str, object]]:
    """Wrap each ``(module, qualname, span, on_result)`` target in place.

    ``qualname`` is a module-level function or ``Class.method``.  A function
    is also replaced in every loaded plucker module that bound it by name, so
    calls between modules are timed too.  Counter callbacks run outside the
    span, so their cost lands in the caller's self time.  Returns what
    ``restore`` needs to undo the wrapping.
    """
    patches = []
    for module_name, qualname, span, on_result in targets:
        module = importlib.import_module(f"plucker.{module_name}")
        owner = module
        *outer, attr = qualname.split(".")
        for part in outer:
            owner = getattr(owner, part)
        original = owner.__dict__[attr]
        wrapped = _wrap(tracer, span, original, on_result)
        owners = [owner]
        if owner is module:
            owners += [other for name, other in list(sys.modules.items())
                       if name.startswith("plucker.") and other is not module
                       and other is not None and other.__dict__.get(attr) is original]
        for each in owners:
            setattr(each, attr, wrapped)
            patches.append((each, attr, original))
    return patches


def restore(patches) -> None:
    """Undo ``instrument``."""
    for owner, attr, original in reversed(patches):
        setattr(owner, attr, original)
