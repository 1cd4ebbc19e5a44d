"""Spans and counters around the public functions of every pmcover module.

The program has no tracing of its own, so the benchmark wraps each public
function from outside.  The modules import names directly (``from .graphs
import is_r_graph``), so a wrapper must replace the name wherever it is
bound: ``install`` swaps every binding of a wrapped function in every loaded
``pmcover`` module, and ``uninstall`` puts the originals back.

Each function gets a call count and a self time: the time inside its spans
minus the time inside the spans of wrapped functions it called.  Time spent
in private helpers counts as the caller's self time.  A generator's spans
are its resumptions, and it also counts the items it yielded.
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil
import sys
from time import perf_counter
from types import ModuleType
from typing import Any, Callable, Iterator


class Stat:
    __slots__ = ("calls", "self_s", "yielded", "active", "max_active", "max_cols")

    def __init__(self) -> None:
        self.calls = 0
        self.self_s = 0.0
        self.yielded = 0
        self.active = 0
        self.max_active = 0
        self.max_cols = 0


def _matrix_cols(matrix: Any, *_: Any) -> int:
    return len(matrix[0]) if matrix else 0


# Functions whose first argument's width is recorded as ``max_cols``.
WIDTH_PROBES: dict[str, Callable[..., int]] = {"linalg.hnf_solve": _matrix_cols}


class Tracer:
    """Wraps every public function defined in the modules of ``package``."""

    def __init__(self, package: ModuleType) -> None:
        self.package = package.__name__
        self.stats: dict[str, Stat] = {}
        self._stack: list[float] = []
        self._wrappers: dict[int, tuple[Callable, Callable]] = {}
        self._swapped: list[tuple[ModuleType, str, Callable]] = []
        for info in pkgutil.iter_modules(package.__path__):
            module = importlib.import_module(f"{self.package}.{info.name}")
            for attr, obj in vars(module).items():
                if attr.startswith("_") or isinstance(obj, type) or not callable(obj):
                    continue
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                name = f"{info.name}.{attr}"
                self.stats[name] = Stat()
                self._wrappers[id(obj)] = (obj, self._wrap(name, obj))

    def _modules(self) -> Iterator[ModuleType]:
        for name, module in list(sys.modules.items()):
            if name == self.package or name.startswith(self.package + "."):
                yield module

    def install(self) -> None:
        for module in self._modules():
            for attr, obj in list(vars(module).items()):
                pair = self._wrappers.get(id(obj))
                if pair is not None and pair[0] is obj:
                    setattr(module, attr, pair[1])
                    self._swapped.append((module, attr, obj))

    def uninstall(self) -> None:
        for module, attr, obj in self._swapped:
            setattr(module, attr, obj)
        self._swapped.clear()
        # A timeout can land between a span's start and its try block.
        self._stack.clear()
        for stat in self.stats.values():
            stat.active = 0

    def _wrap(self, name: str, fn: Callable) -> Callable:
        stat = self.stats[name]
        stack = self._stack
        probe = WIDTH_PROBES.get(name)

        def enter() -> float:
            stat.active += 1
            if stat.active > stat.max_active:
                stat.max_active = stat.active
            stack.append(0.0)
            return perf_counter()

        def leave(start: float) -> None:
            elapsed = perf_counter() - start
            stat.self_s += elapsed - stack.pop()
            stat.active -= 1
            if stack:
                stack[-1] += elapsed

        if inspect.isgeneratorfunction(fn):

            def traced_generator(*args: Any, **kwargs: Any) -> Iterator[Any]:
                stat.calls += 1
                inner = fn(*args, **kwargs)
                try:
                    while True:
                        start = enter()
                        try:
                            item = next(inner)
                        except StopIteration:
                            return
                        finally:
                            leave(start)
                        stat.yielded += 1
                        yield item
                finally:
                    inner.close()

            return traced_generator

        def traced(*args: Any, **kwargs: Any) -> Any:
            stat.calls += 1
            if probe is not None:
                stat.max_cols = max(stat.max_cols, probe(*args, **kwargs))
            start = enter()
            try:
                return fn(*args, **kwargs)
            finally:
                leave(start)

        return traced
