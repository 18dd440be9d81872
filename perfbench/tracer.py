"""Spans and counters around the public functions of ``folmod``.

:func:`install` wraps every public function of the traced modules and the
hot :class:`~folmod.exactnum.Scalar` methods.  The modules import each
other's functions by name (``from .abgroup import kernel``), so a wrapper
is bound in every ``folmod.*`` namespace that holds the original;
:meth:`Tracer.uninstall` puts the originals back.

Every wrapped call is timed with a stack of open frames.  Its self time is
its duration minus the durations of the wrapped calls nested directly in
it; since the process runs one thread, those nested calls never overlap.
Calls of the hot wrappers (``Scalar`` construction and arithmetic) are only
aggregated.  All other calls are also kept as spans ``(name, start, end,
parent)`` in memory, ``parent`` being the index of the enclosing span or
``-1``, and written out by :meth:`Tracer.write_spans` when the run ends.

Work the tracer itself does on a call, such as classifying a new Scalar,
runs with the wrappers paused and is left out of every self time.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

TRACED_MODULES = ("exactnum", "abgroup", "gg", "foliation", "oracle", "cli")

SCALAR_HOT = ("__init__", "__add__", "__neg__", "__sub__", "__mul__", "__truediv__", "scale")


class Stat:
    """Aggregate of one wrapped function: calls, total and self seconds."""

    __slots__ = ("count", "total", "self_s")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.self_s = 0.0


class Tracer:
    """Collects per-function stats, spans and probe counters."""

    def __init__(self) -> None:
        self.stats: Dict[str, Stat] = {}
        self.spans: List[Tuple[str, float, float, int]] = []
        self.counters: Dict[str, float] = {}
        self.distinct: Dict[str, set] = {}
        self._stack: List[list] = []  # [child_seconds, span_index] per open call
        self._paused = False
        self._undo: List[Tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def wrap(
        self,
        name: str,
        fn: Callable,
        hot: bool = False,
        probe: Optional[Callable] = None,
    ) -> Callable:
        """A timed stand-in for ``fn``.

        ``probe(tracer, args, result, error)`` runs after each call with the
        wrappers paused; its cost is charged to nobody.
        """
        stat = self.stats.setdefault(name, Stat())
        stack = self._stack
        spans = self.spans

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._paused:
                return fn(*args, **kwargs)
            index = -1
            if not hot:
                index = len(spans)
                spans.append(None)
            frame = [0.0, index]
            stack.append(frame)
            result = error = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                stat.count += 1
                stat.total += duration
                stat.self_s += duration - frame[0]
                if not hot:
                    parent = stack[-1][1] if stack else -1
                    spans[index] = (name, start, end, parent)
                if probe is not None:
                    self._paused = True
                    try:
                        probe(self, args, result, error)
                    finally:
                        self._paused = False
                    duration = perf_counter() - start
                if stack:
                    stack[-1][0] += duration

        return wrapper

    def exclude(self, seconds: float) -> None:
        """Leave ``seconds`` spent outside ``folmod`` out of the open call."""
        if self._stack:
            self._stack[-1][0] += seconds

    def count(self, key: str) -> None:
        self.counters[key] = self.counters.get(key, 0) + 1

    def maximum(self, key: str, value: float) -> None:
        self.counters[key] = max(self.counters.get(key, 0), value)

    def see(self, key: str, value: object) -> None:
        """Record ``value`` among the arguments seen under ``key``."""
        self.distinct.setdefault(key, set()).add(value)

    # -- installation ------------------------------------------------------

    def install(self, probes: Optional[Dict[str, Callable]] = None) -> None:
        """Wrap the public functions of the traced ``folmod`` modules.

        ``probes`` maps a wrapped name (``"abgroup.kernel"``,
        ``"exactnum.Scalar.__init__"``) to a probe for :meth:`wrap`.
        """
        probes = probes or {}
        namespaces = [
            mod for key, mod in sorted(sys.modules.items())
            if key == "folmod" or key.startswith("folmod.")
        ]
        wrappers: Dict[int, Callable] = {}
        for short in TRACED_MODULES:
            mod = sys.modules[f"folmod.{short}"]
            for attr in getattr(mod, "__all__", ()):
                fn = getattr(mod, attr)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    name = f"{short}.{attr}"
                    wrappers[id(fn)] = self.wrap(name, fn, probe=probes.get(name))
        for mod in namespaces:
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and id(value) in wrappers:
                    self._undo.append((mod, attr, value))
                    setattr(mod, attr, wrappers[id(value)])
        scalar = sys.modules["folmod.exactnum"].Scalar
        for attr in SCALAR_HOT:
            fn = vars(scalar)[attr]
            name = f"exactnum.Scalar.{attr}"
            self._undo.append((scalar, attr, fn))
            setattr(scalar, attr, self.wrap(name, fn, hot=True, probe=probes.get(name)))

    def uninstall(self) -> None:
        """Put every original function back where :meth:`install` found it."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- output ------------------------------------------------------------

    def stat(self, *names: str) -> Stat:
        """The sum of the stats of ``names``."""
        out = Stat()
        for name in names:
            s = self.stats.get(name)
            if s is not None:
                out.count += s.count
                out.total += s.total
                out.self_s += s.self_s
        return out

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "fields": ["name", "start", "end", "parent"],
                    "spans": [list(s) for s in self.spans if s is not None],
                },
                handle,
            )
