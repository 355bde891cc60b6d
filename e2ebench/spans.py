"""Spans recorded from outside the program, around calls into its layers.

:meth:`Tracer.wrap` replaces a public function or method with a timing
wrapper; nothing in ``src/`` changes. Spans nest by call order, and
each finished span charges its duration to its parent, so a layer's
*self time* is its span's duration minus the time its child spans
cover. Spans are aggregated by name as they close (totals in memory,
nothing written until the benchmark ends).

The residual of a root span (its self time) is the time no layer
claims: ``unattributed = root duration - sum of the children's
durations``, and the self times of all names add up to the total
duration of the root spans.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from typing import Any, Callable, Iterator


class Tracer:
    """Per-name totals of nested spans: self time, total time, calls."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self._stack: list[list[Any]] = []  # [name, start, child time]
        self.self_time: dict[str, float] = defaultdict(float)
        self.total_time: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.root_time = 0.0
        self._restore: list[tuple[object, str, object]] = []

    def enter(self, name: str) -> None:
        self._stack.append([name, self.clock(), 0.0])

    def exit(self) -> None:
        name, start, child = self._stack.pop()
        duration = self.clock() - start
        self.self_time[name] += duration - child
        self.total_time[name] += duration
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][2] += duration
        else:
            self.root_time += duration

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        self.enter(name)
        try:
            yield
        finally:
            self.exit()

    def patch(self, owner: object, attribute: str, replacement: object) -> None:
        """Set ``owner.attribute``; :meth:`unwrap` puts the original back."""
        raw = vars(owner)[attribute] if isinstance(owner, type) else getattr(owner, attribute)
        setattr(owner, attribute, replacement)
        self._restore.append((owner, attribute, raw))

    def wrap(self, owner: object, attribute: str, name: str) -> None:
        """Time every call of ``owner.attribute`` as a span called ``name``."""
        raw = vars(owner)[attribute] if isinstance(owner, type) else getattr(owner, attribute)
        kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
        function = raw.__func__ if kind is not None else raw
        self.patch(owner, attribute, self.timed(function, name, kind))

    def timed(self, function: Callable, name: str, kind: Any = None) -> Any:
        """``function`` with every call recorded as a span called ``name``."""
        tracer = self

        @functools.wraps(function)
        def timed(*args: Any, **kwargs: Any) -> Any:
            tracer.enter(name)
            try:
                return function(*args, **kwargs)
            finally:
                tracer.exit()

        return kind(timed) if kind is not None else timed

    def unwrap(self) -> None:
        """Put back every wrapped attribute, newest first."""
        while self._restore:
            owner, attribute, raw = self._restore.pop()
            setattr(owner, attribute, raw)

    def unattributed(self, root: str) -> float:
        """Self time of the root span ``root``: what no layer claims."""
        return self.self_time.get(root, 0.0)


def no_span(name: str) -> nullcontext:
    """Stands in for :meth:`Tracer.span` in untraced passes."""
    return nullcontext()
