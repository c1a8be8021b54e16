"""In-memory spans around perifrac's layer functions, recorded from outside.

``install`` replaces a module attribute by a wrapper that records a span
(name, parent span, start, end) for each call.  A wrapped function is also
replaced wherever a perifrac module imported it by name (``perifrac.cli``
and ``perifrac.solvers`` import ``sigma_estimate`` and
``solve_multiplicity`` that way), so those calls are not missed.  The
process is one benchmark pass, so nothing is restored.
"""

from __future__ import annotations

import collections
import functools
import json
import sys
import time


class Tracer:
    def __init__(self):
        # [name, parent index, start, end, outermost]; outermost is False
        # when the same name is already open (recursion), so inclusive time
        # is not counted twice
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._open = collections.Counter()
        self.observed = collections.Counter()

    def wrap(self, name, fn, observe=None):
        spans, stack, open_names = self.spans, self._stack, self._open
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [name, stack[-1] if stack else -1, clock(), 0.0,
                    open_names[name] == 0]
            spans.append(span)
            stack.append(idx)
            open_names[name] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                open_names[name] -= 1
                stack.pop()
                span[3] = clock()
            if observe is not None:
                observe(self.observed, result)
            return result

        return wrapper

    def summary(self) -> dict:
        """Per span name: calls, inclusive seconds and self seconds (the
        span's duration minus the time its direct child spans cover)."""
        child = [0.0] * len(self.spans)
        for name, parent, start, end, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict = {}
        for i, (name, _, start, end, outermost) in enumerate(self.spans):
            row = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            if outermost:
                row["s"] += end - start
            row["self_s"] += end - start - child[i]
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for i, (name, parent, start, end, _) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "parent": parent, "name": name,
                                     "start": start, "end": end}) + "\n")


def install(tracer: Tracer, module, attr: str, name: str, observe=None) -> None:
    """Wrap module.attr under span `name`, and rebind every perifrac module
    attribute that refers to the same function."""
    original = getattr(module, attr)
    wrapped = tracer.wrap(name, original, observe)
    setattr(module, attr, wrapped)
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "perifrac" or mod_name.startswith("perifrac."):
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)
