"""In-memory span recorder for the traced benchmark run.

Spans are recorded from outside the program: the recorder rebinds public
functions of simulpal on their module objects (and methods on their
classes) to wrappers that note name, start, end and parent span, and puts
the originals back afterwards.  Nothing under ``src/`` changes.  A
function is rebound in every ``simulpal`` module that holds it, so calls
made through ``from .x import f`` bindings are seen too.
"""

from __future__ import annotations

import functools
import gzip
import sys
from time import perf_counter


class Tracer:
    def __init__(self):
        # one list per span: [name, start, end, parent index, op index]; the
        # op index is the index of the outermost span the call ran under
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, after):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, stack[0] if stack else index]
            spans.append(span)
            stack.append(index)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return traced

    def patch_function(self, module, attr, name, after=None, *, everywhere=True):
        """Trace ``module.attr``; with ``everywhere``, also each other
        simulpal module's binding of the same function object."""
        original = getattr(module, attr)
        wrapper = self._wrap(name, original, after)
        owners = [module]
        if everywhere:
            owners = [m for key, m in list(sys.modules.items()) if key.split(".")[0] == "simulpal"]
        for owner in owners:
            for key, value in list(vars(owner).items()):
                if value is original:
                    setattr(owner, key, wrapper)
                    self._undo.append((owner, key, original))

    def patch_method(self, cls, attr, name, after=None):
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            wrapper = classmethod(self._wrap(name, raw.__func__, after))
        else:
            wrapper = self._wrap(name, raw, after)
        setattr(cls, attr, wrapper)
        self._undo.append((cls, attr, raw))

    def restore(self) -> None:
        while self._undo:
            owner, key, original = self._undo.pop()
            setattr(owner, key, original)

    def totals(self) -> dict[str, list]:
        """Per span name: [calls, inclusive seconds, self seconds].

        Self time is a span's duration minus the time its child spans
        cover; calls run on one thread, so children never overlap.
        """
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: dict[str, list] = {}
        for index, (name, start, end, _, _) in enumerate(self.spans):
            row = out.setdefault(name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - covered[index]
        return out

    def write(self, path: str, header: str) -> None:
        """Spans as gzip-compressed CSV, times in seconds from the first span."""
        origin = self.spans[0][1] if self.spans else 0.0
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write(f"# {header}\n")
            fh.write("id,parent,op,name,start_s,end_s\n")
            for index, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(f"{index},{parent},{op},{name},{start - origin:.9f},{end - origin:.9f}\n")
