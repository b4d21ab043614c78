"""In-memory span recorder wrapped around sexakit's layers from outside.

``install`` replaces every public function of a layer, as bound in each
sexakit module's namespace (so calls from one module into another go
through the wrapper), and the methods of the classes the layers define,
with a wrapper that records a span: name, start, end, parent and the
operation it belongs to.  No file under ``src/`` is edited; ``uninstall``
puts every original back.  Spans stay in memory until ``dump``.
"""

from __future__ import annotations

import enum
import functools
import inspect
import sys
import time
from array import array
from pathlib import Path

LAYERS = ("sexa", "units", "procedures", "geometry", "corpus", "cli")
#: Module namespaces whose bindings are wrapped: every layer and the package.
NAMESPACES = ("sexakit",) + tuple(f"sexakit.{m}" for m in LAYERS)
#: Span name of the operation itself; its time not covered by a layer span
#: is the benchmark's own.
ROOT = "bench.op"


class Recorder:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.op = array("i")
        self._stack = [-1]
        self._patched: list[tuple[object, str, object]] = []

    def _span(self, name: str, fn):
        nid = self._ids.setdefault(name, len(self._ids))
        if nid == len(self.names):
            self.names.append(name)
        clock, stack = time.perf_counter_ns, self._stack
        names, starts, ends = self.name, self.start, self.end
        parents, ops, is_root = self.parent, self.op, name == ROOT

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ops.append(i if is_root else stack[1] if len(stack) > 1 else -1)
            ends.append(0)
            stack.append(i)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
        return wrapper

    def root(self, fn):
        """Wrap one benchmark operation; layer spans below it are its own."""
        return self._span(ROOT, fn)

    # -- wrapping the package ------------------------------------------------

    def install(self) -> None:
        wrappers: dict[int, object] = {}
        for modname in NAMESPACES:
            module = sys.modules[modname]
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(value):
                    continue
                layer = _layer_of(value)
                if layer is None:
                    continue
                if id(value) not in wrappers:
                    wrappers[id(value)] = self._span(
                        f"{layer}.{value.__name__}", value)
                self._patch(module, attr, wrappers[id(value)])
        for modname in NAMESPACES[1:]:
            module = sys.modules[modname]
            for cls in vars(module).values():
                if (inspect.isclass(cls) and cls.__module__ == modname
                        and not issubclass(cls, (BaseException, enum.Enum))):
                    self._install_class(modname.split(".")[1], cls)

    def _install_class(self, layer: str, cls: type) -> None:
        for attr, value in list(vars(cls).items()):
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(value, staticmethod):       # __new__
                self._patch(cls, attr,
                            staticmethod(self._span(name, value.__func__)))
            elif inspect.isfunction(value):
                self._patch(cls, attr, self._span(name, value))

    def _patch(self, owner, attr: str, new) -> None:
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self._patched):
            setattr(owner, attr, old)
        self._patched.clear()

    # -- output ---------------------------------------------------------------

    def spans(self):
        """(name, start_ns, end_ns, parent) of every span, in order."""
        return zip((self.names[i] for i in self.name), self.start, self.end,
                   self.parent)

    def dump(self, path: Path) -> None:
        """One line per span: name, start_ns, end_ns, parent, op."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="ascii") as out:
            out.write("name\tstart_ns\tend_ns\tparent\top\n")
            for i in range(len(self.start)):
                out.write(f"{self.names[self.name[i]]}\t{self.start[i]}\t"
                          f"{self.end[i]}\t{self.parent[i]}\t{self.op[i]}\n")


def _layer_of(fn) -> str | None:
    module = getattr(fn, "__module__", "") or ""
    head, _, layer = module.partition(".")
    return layer if head == "sexakit" and layer in LAYERS else None


def summarize(spans) -> tuple[dict[str, int], dict[str, int], int]:
    """Per-layer call counts and self time, and total operation time (ns).

    A span's self time is its duration minus that of its direct children.
    """
    child_ns = [0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    calls = dict.fromkeys(LAYERS, 0)
    self_ns = dict.fromkeys(LAYERS + ("bench",), 0)
    op_ns = 0
    for i, (name, start, end, parent) in enumerate(spans):
        layer = name.split(".", 1)[0]
        self_ns[layer] += end - start - child_ns[i]
        if name == ROOT:
            op_ns += end - start
        else:
            calls[layer] += 1
    return calls, self_ns, op_ns
