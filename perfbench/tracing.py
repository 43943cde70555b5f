"""Spans and counters for the traced benchmark run.

Layer functions of esspath are wrapped at trace time, inside the benchmark
process; the package source is never edited.  A wrapped call records a span
(id, name, start, end, parent id) and adds its self time, its duration minus
the time covered by the spans it caused, to every name the span counts
under.  Spans stay in memory until the run ends; bench.main then writes
them to .bench_build/ in the checkout.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from typing import Callable, Optional


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[int, str, float, float, Optional[int]]] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self.maxima: dict[str, float] = defaultdict(float)
        # (group, name) -> self seconds, where the group names the operation
        # a span ran under (a graph in dims_sweep, a check in verify_a6)
        self.by_group: dict[tuple[Optional[str], str], float] = defaultdict(float)
        self.group: Optional[str] = None
        self.armed = False
        self._stack: list[list] = []  # [id, start, child seconds]
        self._next_id = 0
        self._undo: list[Callable[[], None]] = []

    # -- spans -------------------------------------------------------------

    def enter(self) -> list:
        frame = [self._next_id, time.perf_counter(), 0.0]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def exit(self, frame: list, names: tuple[str, ...]) -> float:
        end = time.perf_counter()
        self._stack.pop()
        duration = end - frame[1]
        own = duration - frame[2]
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[2] += duration
        for name in names:
            self.self_s[name] += own
            self.total_s[name] += duration
            self.by_group[(self.group, name)] += own
        self.spans.append((frame[0], names[0], frame[1], end,
                           None if parent is None else parent[0]))
        return duration

    # -- wrapping ----------------------------------------------------------

    def wrap(self, owner, attr: str, name: Optional[str],
             names_for: Optional[Callable[[tuple], tuple[str, ...]]] = None,
             count: Optional[Callable[["Tracer", tuple, object], None]] = None) -> None:
        """Replace ``owner.attr`` (a module, class or dict entry) by a
        recording wrapper, and rebind every esspath module attribute that
        names the same function, since callers import functions by name.

        ``name`` None records counts only, no span.  An attribute that does
        not exist is left alone, so its metrics read 0.
        """
        if isinstance(owner, dict):
            orig = owner.get(attr)
        elif isinstance(owner, type):
            orig = owner.__dict__.get(attr)
        else:
            orig = getattr(owner, attr, None)
        if orig is None:
            return
        tracer = self

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            if not tracer.armed:
                return orig(*args, **kwargs)
            frame = tracer.enter() if name is not None else None
            try:
                result = orig(*args, **kwargs)
            finally:
                if frame is not None:
                    tracer.exit(frame, names_for(args) if names_for else (name,))
            if count is not None:
                count(tracer, args, result)
            return result

        self._set(owner, attr, wrapper)
        for mod_name, mod in list(sys.modules.items()):
            if mod is owner or not mod_name.startswith("esspath"):
                continue
            for key, value in list(vars(mod).items()):
                if value is orig:
                    self._set(mod, key, wrapper)

    def _set(self, owner, attr: str, value) -> None:
        if isinstance(owner, dict):
            old = owner[attr]
            owner[attr] = value
            self._undo.append(lambda: owner.__setitem__(attr, old))
        else:
            old = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            setattr(owner, attr, value)
            self._undo.append(lambda: setattr(owner, attr, old))

    def unwrap(self) -> None:
        while self._undo:
            self._undo.pop()()
