"""In-memory span tracing by wrapping functions at their lookup sites.

A ``Tracer`` replaces ``owner.attr`` (a module global or a class attribute)
with a wrapper that records one span per call: name, start, end and the
index of the enclosing span.  Spans stay in memory until the run ends.
``restore`` puts every original object back.

A function imported by name (``from .training import train_next_eigenstate``)
is looked up in the importing module, so it must be wrapped there; wrapping
the defining module would miss those calls.
"""

from __future__ import annotations

import functools
import time


class MissingWrapPoint(LookupError):
    """A wrap point names an attribute that the program no longer has."""


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        #: One entry per call: [name, start, end, parent index or -1, extra].
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, name: str, observe=None) -> None:
        """Record a span named ``name`` for every call of ``owner.attr``.

        ``observe(args, kwargs, result)`` may return a dict stored with the
        span.  Raises ``MissingWrapPoint`` if ``owner`` has no ``attr``.
        """
        if attr not in vars(owner):
            where = getattr(owner, "__name__", repr(owner))
            raise MissingWrapPoint(f"{where}.{attr} does not exist (span {name!r})")
        original = vars(owner)[attr]
        if isinstance(original, (classmethod, staticmethod)):
            replacement = type(original)(self._traced(original.__func__, name, observe))
        else:
            replacement = self._traced(original, name, observe)
        setattr(owner, attr, replacement)
        self._patches.append((owner, attr, original))

    def _traced(self, func, name: str, observe):
        spans, stack, clock = self.spans, self._stack, self.clock

        @functools.wraps(func)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, clock(), None, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(index)
            try:
                result = func(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if observe is not None:
                span[4] = observe(args, kwargs, result)
            return result

        return traced

    def restore(self) -> None:
        """Put back every wrapped original, most recent first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def self_times(spans) -> list[float]:
    """Per span: its duration minus the part of it that child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for index, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(index, ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out.append((end - start) - covered)
    return out


def summarize(spans) -> dict[str, dict]:
    """Per span name: calls, total seconds and self seconds.

    A span nested inside another of the same name adds to ``calls`` but not
    to ``s``, so recursion is not counted twice.
    """
    own = self_times(spans)
    out: dict[str, dict] = {}
    for index, (name, start, end, parent, _) in enumerate(spans):
        entry = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["self_s"] += own[index]
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            entry["s"] += end - start
    return out
