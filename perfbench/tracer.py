"""Spans and counters recorded from outside the program.

The tracer swaps module attributes for wrappers.  A span wrapper records
(name, start, end, parent) in memory; a count wrapper only counts calls,
keyed by the innermost open span, so that hot calls (FFTs, derivatives) cost
little.  A target that does not exist is listed in `missing` instead of
raising, so a later change that removes or inlines a function reads as zero
calls, not as a crash.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans = []            # [name, start, end, parent index or -1]
        self.stack = []            # indices of open spans
        self.counts = defaultdict(int)   # (name, innermost span name) -> calls
        self.bytes = defaultdict(int)    # same keys -> computed bytes in + out
        self.results = defaultdict(list)  # name -> (duration, on_result value)
        self.args = defaultdict(list)     # name -> on_call values
        self.missing = []

    def _innermost(self):
        return self.spans[self.stack[-1]][0] if self.stack else ""

    def span(self, module: str, attr: str, everywhere: bool = False,
             on_call=None, on_result=None):
        """Record a span for every call of module.attr."""
        name = f"{module.rpartition('.')[2]}.{attr}"

        def make(fn):
            def wrapper(*args, **kwargs):
                if on_call is not None:
                    self.args[name].append(on_call(*args, **kwargs))
                idx = len(self.spans)
                rec = [name, time.perf_counter(), 0.0, self.stack[-1] if self.stack else -1]
                self.spans.append(rec)
                self.stack.append(idx)
                try:
                    out = fn(*args, **kwargs)
                finally:
                    rec[2] = time.perf_counter()
                    self.stack.pop()
                if on_result is not None:
                    self.results[name].append((rec[2] - rec[1], on_result(out)))
                return out
            return wrapper

        self._patch(module, attr, make, everywhere)

    def count(self, module: str, attr: str, everywhere: bool = False, nbytes=None):
        """Count calls of module.attr by innermost span; nbytes(args, out)
        optionally adds computed bytes moved."""
        name = f"{module.rpartition('.')[2]}.{attr}"

        def make(fn):
            def wrapper(*args, **kwargs):
                out = fn(*args, **kwargs)
                key = (name, self._innermost())
                self.counts[key] += 1
                if nbytes is not None:
                    self.bytes[key] += nbytes(args, out)
                return out
            return wrapper

        self._patch(module, attr, make, everywhere)

    def _patch(self, module, attr, make, everywhere):
        try:
            mod = importlib.import_module(module)
        except ImportError:
            self.missing.append(f"{module}.{attr}")
            return
        orig = getattr(mod, attr, None)
        if not callable(orig):
            self.missing.append(f"{module}.{attr}")
            return
        wrapper = make(orig)
        # a name imported with `from x import f` is a separate binding of the
        # same object in the importing module; patch those too when asked
        root = module.partition(".")[0]
        mods = [mod]
        if everywhere:
            mods = [m for key, m in list(sys.modules.items())
                    if m is not None and (key == root or key.startswith(root + "."))]
        for m in mods:
            for key, value in list(vars(m).items()):
                if value is orig:
                    setattr(m, key, wrapper)

    # --- queries -----------------------------------------------------------

    def durations(self, name: str) -> list:
        return [s[2] - s[1] for s in self.spans if s[0] == name]

    def total(self, name: str) -> float:
        return sum(self.durations(name))

    def self_time(self, name: str) -> float:
        """Summed duration of the named spans minus their direct children."""
        child = defaultdict(float)
        for s in self.spans:
            if s[3] >= 0:
                child[s[3]] += s[2] - s[1]
        return sum(s[2] - s[1] - child[i] for i, s in enumerate(self.spans) if s[0] == name)

    def calls(self, name: str, under=None, not_under=()) -> int:
        return sum(n for (fn, inner), n in self.counts.items()
                   if fn == name and (under is None or inner in under)
                   and inner not in not_under)

    def moved(self, name: str, under) -> int:
        return sum(n for (fn, inner), n in self.bytes.items() if fn == name and inner in under)

    def children_of(self, parent: str, name: str) -> list:
        return [s[2] - s[1] for s in self.spans
                if s[0] == name and s[3] >= 0 and self.spans[s[3]][0] == parent]
