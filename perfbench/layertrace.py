"""Outside-in layer timing: wrap package functions where callers look them up.

A ``Tracer`` replaces a function in every ``emofuse`` module that binds
it (``tensor.conv1d_same`` is reached as ``T.conv1d_same``,
``alignment.temporal_align_pool`` as a name imported into ``model``, ...),
and puts every original back on exit, also when the traced code raises.

Each wrapped call is a span. Per span name the tracer keeps the call
count, the inclusive time (``busy``) and the self time (inclusive time
minus the time of the wrapped calls made inside it). Spans are aggregated
as they close rather than stored, so memory stays flat on long runs.

An ``observe`` hook may look at a call's arguments and result to update
counters. Hooks run outside the span they observe, and their time is
subtracted from every enclosing span, so counting does not inflate the
self time of the caller.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from typing import Callable

Observer = Callable[[dict, tuple, dict, object], None]


class SpanStats:
    __slots__ = ("calls", "busy_s", "self_s")

    def __init__(self):
        self.calls = 0
        self.busy_s = 0.0
        self.self_s = 0.0


class Tracer:
    """Context manager that wraps functions and restores them on exit."""

    def __init__(self, package: str = "emofuse"):
        self.package = package
        self.spans: dict[str, SpanStats] = {}
        self.counters: dict[str, float] = defaultdict(float)
        self._children: list[float] = []   # child time per open span
        self._hook_s = 0.0                 # total time spent in observers
        self._patches: list[tuple[object, str, object]] = []
        self._pending: list[tuple[str, object, str, Observer | None]] = []

    def add(self, name: str, module, attr: str, observe: Observer | None = None) -> None:
        """Trace ``module.attr`` under span ``name`` once the tracer is entered."""
        self._pending.append((name, module, attr, observe))

    def __enter__(self) -> "Tracer":
        try:
            for name, module, attr, observe in self._pending:
                original = getattr(module, attr)
                wrapper = self._wrap(name, original, observe)
                for site in self._modules():
                    for key, value in list(vars(site).items()):
                        if value is original:
                            self._patches.append((site, key, original))
                            setattr(site, key, wrapper)
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def restore(self) -> None:
        while self._patches:
            site, key, original = self._patches.pop()
            setattr(site, key, original)

    def _modules(self) -> list:
        prefix = self.package + "."
        return [module for mod_name, module in list(sys.modules.items())
                if module is not None
                and (mod_name == self.package or mod_name.startswith(prefix))]

    def _wrap(self, name: str, fn, observe: Observer | None):
        stats = self.spans.setdefault(name, SpanStats())
        children = self._children
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            children.append(0.0)
            hooks_before = self._hook_s
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start - (self._hook_s - hooks_before)
                inner = children.pop()
                stats.calls += 1
                stats.busy_s += elapsed
                stats.self_s += elapsed - inner
                if children:
                    children[-1] += elapsed
            if observe is not None:
                hook_start = clock()
                observe(self.counters, args, kwargs, result)
                self._hook_s += clock() - hook_start
            return result

        return wrapper

