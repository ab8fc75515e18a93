"""Span bookkeeping and function patching for the traced benchmark run.

A :class:`Tracer` aggregates spans by name instead of storing each one:
per name it keeps the call count, the inclusive time of the outermost
calls (``s``) and the self time (``self_s``), which is a call's duration
minus the time its child spans cover.  Named counters sit beside the
spans so that ratios are formed where the work happens.

Spans are recorded from outside the program: :func:`patch_function`
replaces every module binding of a function inside the package, so a
function imported with ``from .x import f`` is traced whichever module
calls it.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from dataclasses import dataclass


@dataclass
class SpanStat:
    calls: int = 0
    s: float = 0.0
    self_s: float = 0.0


class Tracer:
    """Aggregated spans and counters for one process."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stats: dict[str, SpanStat] = defaultdict(SpanStat)
        self.counters: dict[str, float] = defaultdict(int)
        self._stack: list[list] = []           # open spans: [name, child time]
        self._depth: dict[str, int] = defaultdict(int)

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] += amount

    def parent(self) -> str | None:
        """Name of the innermost open span (the caller, inside ``on_return``)."""
        return self._stack[-1][0] if self._stack else None

    def wrap(self, name: str, func, on_return=None):
        """Return ``func`` traced as span ``name``.

        ``on_return(tracer, args, kwargs, result)`` runs after a call that
        returned, outside the span, to update counters from the result.
        A call that re-enters a span of the same name (recursion, or two
        functions aggregated under one name) adds to ``calls`` and
        ``self_s`` but not to ``s``, so inclusive time is never counted
        twice.
        """
        clock, stack, depth, stats = self.clock, self._stack, self._depth, self.stats

        @functools.wraps(func)
        def traced(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            depth[name] += 1
            start = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                depth[name] -= 1
                if stack:
                    stack[-1][1] += duration
                stat = stats[name]
                stat.calls += 1
                stat.self_s += duration - frame[1]
                if depth[name] == 0:
                    stat.s += duration
            if on_return is not None:
                on_return(self, args, kwargs, result)
            return result

        return traced

    def snapshot(self) -> dict:
        return {
            "spans": {k: vars(v).copy() for k, v in self.stats.items()},
            "counters": dict(self.counters),
        }


class Patcher:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def set(self, owner, attr: str, value) -> None:
        # read the raw attribute so classmethods and staticmethods restore intact
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._undo.append((owner, attr, raw))
        setattr(owner, attr, value)

    def undo(self) -> None:
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)


def bindings(func, package: str = "lfmhd") -> list[tuple[object, str]]:
    """Every (module, attribute) of the loaded package bound to ``func``."""
    out = []
    for modname, module in list(sys.modules.items()):
        if module is None or not (modname == package or modname.startswith(package + ".")):
            continue
        for attr, value in list(vars(module).items()):
            if value is func:
                out.append((module, attr))
    return out


def patch_function(patcher: Patcher, tracer: Tracer, func, name: str,
                   on_return=None, package: str = "lfmhd"):
    """Trace every binding of a module-level function; returns the wrapper."""
    found = bindings(func, package)
    if not found:
        raise LookupError(f"{func.__qualname__} is bound nowhere in {package}")
    traced = tracer.wrap(name, func, on_return)
    for module, attr in found:
        patcher.set(module, attr, traced)
    return traced


def patch_method(patcher: Patcher, tracer: Tracer, cls: type, attr: str, name: str,
                 on_return=None):
    """Trace a plain method or classmethod defined on ``cls``."""
    raw = cls.__dict__[attr]
    if isinstance(raw, classmethod):
        traced = classmethod(tracer.wrap(name, raw.__func__, on_return))
    else:
        traced = tracer.wrap(name, raw, on_return)
    patcher.set(cls, attr, traced)
    return traced
