"""Spans recorded from outside the program, by wrapping its callables.

A :class:`Tracer` replaces a function or method with a wrapper that opens
a span on entry and closes it on exit, then puts the original back on
:meth:`Tracer.uninstall`.  Module-level functions are wrapped where the
caller binds them (``repro.net.runtime.encode_payload``, not only
``repro.net.codec.encode_payload``), since ``from x import f`` copies the
reference into the caller's namespace.

Spans nest on one stack (the program is single-threaded), so a span's
child spans are disjoint sub-intervals of it and its self time is its
duration minus the sum of its children's durations.  Each span carries
the request id ``(session_id, counter)`` of the request it serves,
inherited from the enclosing span when not given.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter
from pathlib import Path
from typing import Any, Callable

Rid = tuple[str, int] | None
#: marks a wrapper that shadows an inherited method (removed on uninstall)
_INHERITED = object()


class Tracer:
    """In-memory span recorder with per-name count/total/self aggregates.

    ``max_spans`` bounds the raw span list written out at the end; the
    aggregates cover every span regardless."""

    def __init__(
        self, clock: Callable[[], float] = time.perf_counter, max_spans: int = 50_000
    ) -> None:
        self.clock = clock
        self.max_spans = max_spans
        #: ``(id, name, start, end, parent_id, rid)`` in completion order
        self.spans: list[tuple[int, str, float, float, int | None, Rid]] = []
        #: name -> [count, total seconds, self seconds]
        self.totals: dict[str, list[float]] = {}
        self.counts: Counter[str] = Counter()
        self._stack: list[list[Any]] = []
        self._next_id = 0
        self._restore: list[tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    # spans
    # ------------------------------------------------------------------
    def begin(self, name: str, rid: Rid = None) -> list[Any]:
        stack = self._stack
        parent = stack[-1] if stack else None
        if rid is None and parent is not None:
            rid = parent[4]
        frame = [self._next_id, name, self.clock(), 0.0, rid, parent[0] if parent else None]
        self._next_id += 1
        stack.append(frame)
        return frame

    def end(self, frame: list[Any]) -> float:
        """Close ``frame`` (the innermost open span); returns its duration."""
        end = self.clock()
        self._stack.pop()
        span_id, name, start, child_time, rid, parent_id = frame
        duration = end - start
        agg = self.totals.get(name)
        if agg is None:
            agg = self.totals[name] = [0, 0.0, 0.0]
        agg[0] += 1
        agg[1] += duration
        agg[2] += duration - child_time
        if self._stack:
            self._stack[-1][3] += duration
        if len(self.spans) < self.max_spans:
            self.spans.append((span_id, name, start, end, parent_id, rid))
        return duration

    def count(self, name: str) -> int:
        agg = self.totals.get(name)
        return int(agg[0]) if agg else 0

    def total(self, name: str) -> float:
        agg = self.totals.get(name)
        return agg[1] if agg else 0.0

    def self_time(self, name: str) -> float:
        agg = self.totals.get(name)
        return agg[2] if agg else 0.0

    # ------------------------------------------------------------------
    # wrapping
    # ------------------------------------------------------------------
    def replace(self, owner: Any, attr: str, replacement: Any) -> Any:
        """Install ``replacement`` as ``owner.attr``; returns the original.

        A method a class inherits is shadowed on that class alone (and
        the shadow deleted on uninstall), so sibling classes sharing the
        base are left untouched."""
        original = getattr(owner, attr)
        own = not isinstance(owner, type) or attr in owner.__dict__
        if own and isinstance(owner, type):
            original = owner.__dict__[attr]
        self._restore.append((owner, attr, original if own else _INHERITED))
        setattr(owner, attr, replacement)
        return original

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        rid_of: Callable[..., Rid] | None = None,
        on_result: Callable[..., None] | None = None,
    ) -> None:
        """Time every call of ``owner.attr`` as a span called ``name``.

        ``rid_of(*args)`` extracts the request id from the arguments;
        ``on_result(result, *args)`` observes the return value."""
        tracer = self
        original: Callable[..., Any] | None = None

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            frame = tracer.begin(name, rid_of(*args) if rid_of is not None else None)
            try:
                result = original(*args, **kwargs)  # type: ignore[misc]
            finally:
                tracer.end(frame)
            if on_result is not None:
                on_result(result, *args)
            return result

        functools.update_wrapper(wrapper, getattr(owner, attr))
        original = self.replace(owner, attr, wrapper)

    def uninstall(self) -> None:
        """Put every wrapped callable back, newest first."""
        while self._restore:
            owner, attr, original = self._restore.pop()
            if original is _INHERITED:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    # ------------------------------------------------------------------
    # output
    # ------------------------------------------------------------------
    def write(self, path: Path) -> None:
        """Write the recorded spans as JSON lines."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            for span_id, name, start, end, parent_id, rid in self.spans:
                out.write(
                    json.dumps(
                        {
                            "id": span_id,
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": parent_id,
                            "rid": list(rid) if rid else None,
                        }
                    )
                    + "\n"
                )


__all__ = ["Rid", "Tracer"]
