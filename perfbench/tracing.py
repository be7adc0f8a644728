"""In-memory span tracer for the benchmark's traced run.

Wrappers are installed from this file onto the attributes that mixlab's own
code looks up at call time (class attributes and module globals), so tracing
needs no change under ``src/``.  ``uninstall`` puts every original back.

A span is a list ``[name, parent, start, end, points, root]``.  Its parent is
the innermost span open on the same thread; a span opened on a worker thread
with nothing open there takes the innermost span open on the thread that
created the tracer, which is the span that handed out the work
(``correlation`` runs its batches on a thread pool).  Its root is the name of
its outermost ancestor (its own name if it has none): the benchmark's span
around the public entry point that led to the call.  Spans are only ever
appended, which is atomic under the interpreter lock, so worker threads need
no lock.

A span's self time is its duration minus the part of its interval that its
reported child spans cover, children on every thread merged into one union,
so time two pool threads spend in children at once is not subtracted twice.
Which nested spans are reported is up to the reader (``summary``'s
``credit``); one that is not reported is folded into its nearest reported
ancestor, so its time stays with the work that called it.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from contextlib import contextmanager

import numpy as np


class NullTracer:
    """Tracing off: call-site spans cost one no-op context manager."""

    active = False

    @contextmanager
    def span(self, name, points=0):
        yield

    def wrap(self, name, fn, points_arg=None):
        return fn


class Tracer:
    """Collects spans and events in memory; see the module docstring."""

    active = True

    def __init__(self):
        self.spans: list[list] = []
        self.events: list[str] = []
        self._owner = threading.get_ident()
        self._owner_stack: list[list] = []
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list:
        if threading.get_ident() == self._owner:
            return self._owner_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str, points: int) -> tuple[list, list]:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        elif self._owner_stack:
            parent = self._owner_stack[-1]
        else:
            parent = None
        root = parent[5] if parent is not None else name
        rec = [name, parent, time.perf_counter(), 0.0, points, root]
        stack.append(rec)
        self.spans.append(rec)
        return rec, stack

    @staticmethod
    def _close(rec: list, stack: list) -> None:
        rec[3] = time.perf_counter()
        stack.pop()

    @contextmanager
    def span(self, name: str, points: int = 0):
        rec, stack = self._open(name, points)
        try:
            yield rec
        finally:
            self._close(rec, stack)

    def event(self, name: str) -> None:
        self.events.append(name)

    def wrap(self, name: str, fn, points_arg: int | None = None):
        """``fn`` recording one span per call; ``points`` is the size of one argument."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            points = int(np.size(args[points_arg])) if points_arg is not None else 0
            rec, stack = tracer._open(name, points)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(rec, stack)

        return traced

    def counting_generator(self, name: str, fn):
        """``fn`` returning a generator; one event per item it yields."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            for item in fn(*args, **kwargs):
                tracer.event(name)
                yield item

        return traced

    # -- installing wrappers -------------------------------------------------

    def patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        """Wrap the mixlab attributes that the workloads' callees look up."""
        from mixlab import roof, solenoid, transfer_operator
        from mixlab.markov_maps import ExpandingMarkovMap
        from mixlab.skew_product import AffineFiberFamily

        emm = ExpandingMarkovMap.__dict__
        self.patch(
            ExpandingMarkovMap,
            "evaluate_many",
            self.wrap("markov_maps.evaluate_many", emm["evaluate_many"], points_arg=1),
        )
        self.patch(
            ExpandingMarkovMap, "cell_index", self.wrap("markov_maps.cell_index", emm["cell_index"])
        )
        aff = AffineFiberFamily.__dict__
        self.patch(
            AffineFiberFamily,
            "__call__",
            self.wrap("skew_product.fiber_map", aff["__call__"], points_arg=1),
        )
        self.patch(
            AffineFiberFamily,
            "translation_at",
            self.wrap("skew_product.translation", aff["translation_at"], points_arg=1),
        )
        self.patch(
            roof,
            "enumerate_cyclic_classes",
            self.counting_generator("roof.words_enumerated", roof.enumerate_cyclic_classes),
        )
        self.patch(
            transfer_operator,
            "apply_exact",
            self.wrap("transfer_operator.apply_exact", transfer_operator.apply_exact),
        )
        skew_prop = solenoid.SolenoidModel.__dict__["skew"]

        def counted_skew(model):
            self.event("solenoid.skew_builds")
            return skew_prop.fget(model)

        self.patch(solenoid.SolenoidModel, "skew", property(counted_skew, doc=skew_prop.__doc__))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reading the trace ---------------------------------------------------

    def mark(self) -> tuple[int, int]:
        """Position to read spans and events from, for per-pass metrics."""
        return len(self.spans), len(self.events)

    def truncate(self, mark: tuple[int, int]) -> None:
        """Forget spans and events recorded after ``mark``."""
        del self.spans[mark[0]:]
        del self.events[mark[1]:]

    def summary(
        self, credit: dict[str, tuple[str, ...]], since: tuple[int, int] = (0, 0)
    ) -> dict[str, dict[str, float]]:
        """Per span name: calls, self seconds, points; per event: count.

        ``credit`` maps the name of a nested span to the roots under which it
        is reported; other nested spans are folded into their nearest reported
        ancestor.  Root spans are always reported.
        """

        def reported(rec) -> bool:
            return rec[1] is None or rec[5] in credit.get(rec[0], ())

        spans = [rec for rec in self.spans[since[0]:] if reported(rec)]
        children: dict[int, list[list]] = {}
        for rec in spans:
            holder = rec[1]
            while holder is not None and not reported(holder):
                holder = holder[1]
            if holder is not None:
                children.setdefault(id(holder), []).append(rec)
        out: dict[str, dict[str, float]] = {}
        for rec in spans:
            name, start, end, points = rec[0], rec[2], rec[3], rec[4]
            duration = end - start
            covered = _union_length(
                [(max(c[2], start), min(c[3], end)) for c in children.get(id(rec), ())]
            )
            row = out.setdefault(name, {"calls": 0, "self_s": 0.0, "points": 0})
            row["calls"] += 1
            row["self_s"] += duration - covered
            row["points"] += points
        for name in self.events[since[1]:]:
            row = out.setdefault(name, {"calls": 0, "self_s": 0.0, "points": 0})
            row["calls"] += 1
        return out

    def write_jsonl(self, path) -> None:
        """Spans as JSON lines: name, parent line number (or -1), start, end, points."""
        index = {id(rec): i for i, rec in enumerate(self.spans)}
        with open(path, "w") as fh:
            for rec in self.spans:
                parent = index.get(id(rec[1]), -1)
                fh.write(json.dumps([rec[0], parent, rec[2], rec[3], rec[4]]) + "\n")


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(iv for iv in intervals if iv[1] > iv[0]):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total
