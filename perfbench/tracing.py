"""Spans around the public functions of c4ramsey, installed from outside.

The program holds no tracing code.  Tracer.install() replaces every public
module-level function of the traced modules, and a few named methods, with
a wrapper that records (name, start, end, parent) in a list kept in
memory.  It rebinds each function wherever the package holds a reference
to it, so a name re-bound at import (search.is_good_coloring,
cli.derive, the package's own c4ramsey.derive) is traced where callers
use it.  uninstall() puts the originals back.

A span's self time is its duration minus the durations of its direct
child spans.  Spans are only summed up in aggregate(), after the timed
work.
"""

from __future__ import annotations

import functools
import inspect
import sys

PACKAGE = "c4ramsey"
MODULES = ("bounds", "targets", "registry", "derive", "graphs", "search", "witness", "cli")

# Public methods traced in addition to the module-level functions.
METHODS = {
    "registry": {"Registry": ("best_upper", "best_lower", "exact")},
    "derive": {"DerivationTree": ("to_dict", "from_dict")},
}

# pair_index is O(1) and runs once per vertex pair inside color_class; a
# span would cost more than the call and bury its caller's self time.
# Generator functions return before their work is done, so a span around
# the call would not time it.
SKIP = {"graphs": ("pair_index",)}


class Tracer:
    def __init__(self, clock):
        self.clock = clock
        self.spans: list = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent)

        return traced

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = {short: sys.modules[f"{PACKAGE}.{short}"] for short in MODULES}
        wrappers = {}
        for short, mod in modules.items():
            for attr, fn in vars(mod).items():
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(fn)
                    or fn.__module__ != mod.__name__
                    or inspect.isgeneratorfunction(fn)
                    or attr in SKIP.get(short, ())
                ):
                    continue
                wrappers[id(fn)] = (fn, self._wrap(f"{short}.{attr}", fn))
            for cls_name, names in METHODS.get(short, {}).items():
                cls = getattr(mod, cls_name)
                for attr in names:
                    raw = cls.__dict__[attr]
                    if isinstance(raw, staticmethod):
                        wrapped = staticmethod(self._wrap(f"{short}.{cls_name}.{attr}", raw.__func__))
                    else:
                        wrapped = self._wrap(f"{short}.{cls_name}.{attr}", raw)
                    self._patch(cls, attr, wrapped)
        holders = [m for name, m in sys.modules.items() if name == PACKAGE or name.startswith(PACKAGE + ".")]
        for holder in holders:
            for attr, value in list(vars(holder).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(holder, attr, hit[1])

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def aggregate(self) -> dict[str, list]:
        """Per span name: [calls, total seconds, self seconds]; then clears the spans."""
        if self._stack:
            raise RuntimeError("aggregate() called inside an open span")
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, list] = {}
        for i, (name, start, end, parent) in enumerate(self.spans):
            row = out.setdefault(name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - child[i]
        self.spans.clear()
        return out
