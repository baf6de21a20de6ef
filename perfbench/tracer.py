"""Span tracing of spintherm's public functions, installed from outside the package.

The package binds names with ``from .x import y``, so one function can be
reachable under several module globals (``apply_terms`` lives in both
``hamiltonian`` and ``imagtime``).  ``install`` wraps each public function
once and swaps the wrapper in for every module global that held the
original, so every call path is seen.  No file under src/ changes.

Spans are aggregated in memory per function: call count, inclusive time and
self time (inclusive minus the wrapped calls nested inside it).  For each
watched ancestor, the inclusive time and calls of every function running
below it are kept too, which gives figures such as "matvec time inside the
beta walk".  Only watched names are looked up, so a wrapped call costs
about a microsecond more than a plain one at any depth.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import defaultdict

MODULES = ("hilbert", "hamiltonian", "state_prep", "imagtime", "estimators", "cli")


class Tracer:
    def __init__(self, watch: tuple[str, ...] = ()) -> None:
        self.watch = watch
        self.calls: dict[str, int] = defaultdict(int)
        self.incl: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.under_calls: dict[tuple[str, str], int] = defaultdict(int)
        self.under_time: dict[tuple[str, str], float] = defaultdict(float)
        self.counters: dict[str, int] = defaultdict(int)
        self._stack: list[list] = []   # [name, start, child_time]
        self._active: dict[str, int] = defaultdict(int)   # open spans per name
        self._hooks: dict[str, callable] = {}

    def hook(self, name: str, fn) -> None:
        """Call ``fn(tracer, args, kwargs, result)`` after each call of ``name``."""
        self._hooks[name] = fn

    def wrap(self, name: str, fn):
        stack = self._stack
        active = self._active
        watch = self.watch
        hook = self._hooks.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [name, time.perf_counter(), 0.0]
            stack.append(frame)
            active[name] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - frame[1]
                stack.pop()
                active[name] -= 1
                self.calls[name] += 1
                self.incl[name] += dur
                self.self_time[name] += dur - frame[2]
                if stack:
                    stack[-1][2] += dur
                    for ancestor in watch:
                        if active[ancestor]:
                            self.under_calls[(ancestor, name)] += 1
                            self.under_time[(ancestor, name)] += dur
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap the public functions of every spintherm module, wherever they are bound."""
        mods = [importlib.import_module("spintherm")]
        mods += [importlib.import_module(f"spintherm.{m}") for m in MODULES]
        for owner in mods[1:]:
            for name in owner.__all__:
                original = getattr(owner, name)
                if not inspect.isfunction(original) or hasattr(original, "__wrapped__"):
                    continue
                wrapped = self.wrap(name, original)
                for mod in mods:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapped)

    def snapshot(self) -> dict:
        return {
            "calls": dict(self.calls),
            "incl_s": dict(self.incl),
            "self_s": dict(self.self_time),
            "under_calls": {f"{a}>{b}": n for (a, b), n in self.under_calls.items()},
            "under_s": {f"{a}>{b}": t for (a, b), t in self.under_time.items()},
            "counters": dict(self.counters),
        }


def call_cost(n: int = 50_000, repeats: int = 5) -> float:
    """Seconds a wrapped call costs more than a plain one, under a watched ancestor.

    Measured on a no-op, so it is the tracer's own cost per call; the
    fastest of ``repeats`` loops of ``n`` calls is taken for each side.
    """

    def noop():
        return None

    def loop(fn) -> float:
        t0 = time.perf_counter()
        for _ in range(n):
            fn()
        return time.perf_counter() - t0

    tracer = Tracer(watch=("loop",))
    wrapped_loop, wrapped_noop = tracer.wrap("loop", loop), tracer.wrap("noop", noop)
    plain = min(loop(noop) for _ in range(repeats))
    traced = min(wrapped_loop(wrapped_noop) for _ in range(repeats))
    return (traced - plain) / n
