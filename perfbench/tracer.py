"""Span tracing of psamzi's public functions, installed from outside.

``Tracer.install`` replaces each named function by a timing wrapper in every
``psamzi`` module that holds a reference to it, as a module attribute or as a
value of a module-level dict (the CLI's dispatch table), so calls between
modules (``runner`` calling ``amplification.weak_value``) are seen too.  Each span
links to the span that caused it: the enclosing span on the same thread or,
for a span opened by a thread-pool worker, the innermost open span of the
thread that started tracing.  A span's self time is its duration minus the
union of the intervals its child spans cover.

Spans are folded into per-(function, bucket) totals as they close, which keeps
memory flat over a long traced phase.
"""

from __future__ import annotations

import sys
import threading
import time
from collections import defaultdict

_clock = time.perf_counter


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total, end = 0.0, float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


class _Span:
    __slots__ = ("start", "child", "foreign")

    def __init__(self, start: float):
        self.start = start
        self.child = 0.0  # summed durations of same-thread children
        self.foreign: list[tuple[float, float]] = []  # other-thread children


class Tracer:
    """Collects calls, total and self time per traced function and bucket.

    ``targets`` maps a metric name such as ``"amplification.invert_chi"`` to
    ``(module, function_name, bucket)`` where ``bucket(args, kwargs)`` labels
    the call (or is None).
    """

    def __init__(self, targets: dict):
        self.targets = targets
        self._local = threading.local()
        self._lock = threading.Lock()
        # (holder, key, original): setattr on modules, item assignment on dicts
        self._originals: list[tuple[object, str, object]] = []
        self._owner = threading.get_ident()
        self._owner_stack: list[_Span] = []
        # (name, bucket) -> [calls, total_s, self_s]; (name, exc) -> count
        self.totals: dict = defaultdict(lambda: [0, 0.0, 0.0])
        self.raised: dict = defaultdict(int)

    def _stack(self) -> list[_Span]:
        if threading.get_ident() == self._owner:
            return self._owner_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn, bucket):
        def traced(*args, **kwargs):
            stack = self._stack()
            cause = stack[-1] if stack else (
                self._owner_stack[-1] if self._owner_stack else None
            )
            same_thread = bool(stack)
            span = _Span(_clock())
            stack.append(span)
            exc_name = None
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                exc_name = type(exc).__name__
                raise
            finally:
                end = _clock()
                stack.pop()
                duration = end - span.start
                covered = span.child + _union_length(span.foreign)
                if cause is not None:
                    if same_thread:
                        cause.child += duration
                    else:
                        cause.foreign.append((span.start, end))
                key = (name, bucket(args, kwargs) if bucket else None)
                with self._lock:
                    entry = self.totals[key]
                    entry[0] += 1
                    entry[1] += duration
                    entry[2] += duration - covered
                    if exc_name is not None:
                        self.raised[(name, exc_name)] += 1

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        self._owner = threading.get_ident()
        modules = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == "psamzi" or n.startswith("psamzi."))
        ]
        for name, (module, fn_name, bucket) in self.targets.items():
            original = getattr(module, fn_name)
            wrapper = self._wrap(name, original, bucket)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._originals.append((mod, attr, original))
                        setattr(mod, attr, wrapper)
                    elif isinstance(value, dict):
                        for key, item in value.items():
                            if item is original:
                                self._originals.append((value, key, original))
                                value[key] = wrapper

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._originals):
            if isinstance(holder, dict):
                holder[key] = original
            else:
                setattr(holder, key, original)
        self._originals.clear()

    def merge(self, other: dict) -> None:
        """Add totals exported by ``export`` (for example from a child process)."""
        for name, bucket, calls, total, self_s in other["totals"]:
            entry = self.totals[(name, bucket)]
            entry[0] += calls
            entry[1] += total
            entry[2] += self_s
        for name, exc_name, count in other["raised"]:
            self.raised[(name, exc_name)] += count

    def export(self) -> dict:
        return {
            "totals": [[n, b, *v] for (n, b), v in self.totals.items()],
            "raised": [[n, e, c] for (n, e), c in self.raised.items()],
        }

    def summary(self, name: str) -> tuple[int, float]:
        """(calls, self seconds) of ``name`` over all buckets."""
        calls = self_s = 0
        for (n, _), (c, _, s) in self.totals.items():
            if n == name:
                calls += c
                self_s += s
        return calls, self_s

    def bucket(self, name: str, bucket) -> tuple[int, float]:
        calls, _, self_s = self.totals.get((name, bucket), (0, 0.0, 0.0))
        return calls, self_s
