"""Span timers for the traced run, installed from outside the program.

:class:`SpanRecorder` wraps public entry points of each layer (class
methods or module functions) with a timer for the length of one traced
pass, then puts the originals back.  Spans nest: a wrapped call made
while another wrapped call is open is its child, and each span's *self
time* is its duration minus the time its children cover.  The untraced
runs never install anything, so they time the unmodified program.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from time import perf_counter
from typing import Any, Callable


class SpanRecorder:
    """Self-time per span name, plus optional per-call result counts."""

    def __init__(self) -> None:
        self.self_s: dict[str, list[float]] = defaultdict(list)
        self.total_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self._open: list[list[float]] = []
        self._saved: list[tuple[Any, str, Any, bool]] = []

    def _wrap(self, fn: Callable, name: str,
              count: Callable[[Any], float] | None) -> Callable:
        open_spans = self._open
        self_s = self.self_s[name]
        total_s = self.total_s
        counts = self.counts

        @functools.wraps(fn)
        def span(*args, **kwargs):
            children = [0.0]
            open_spans.append(children)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                open_spans.pop()
                if open_spans:
                    open_spans[-1][0] += dt
                self_s.append(dt - children[0])
                total_s[name] += dt
            if count is not None:
                counts[name] += count(result)
            return result

        return span

    def install(self, owner: Any, attr: str, name: str, *,
                count: Callable[[Any], float] | None = None) -> None:
        """Wrap ``owner.attr`` (a class method or module function)."""
        own = attr in vars(owner)
        original = vars(owner)[attr] if own else getattr(owner, attr)
        self._saved.append((owner, attr, original, own))
        setattr(owner, attr, self._wrap(original, name, count))

    def uninstall(self) -> None:
        """Restore every wrapped attribute, newest first."""
        while self._saved:
            owner, attr, original, own = self._saved.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
