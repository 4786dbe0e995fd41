"""Outside-in tracing of the `sparsebounds` layers.

The tracer replaces every public function of each `sparsebounds` module, in
every `sparsebounds.*` namespace that holds it (so `from .x import y`
bindings are covered too), with a wrapper that records one span per call.
Spans stay in memory as (function id, parent span, start, end, self time)
and are written out once, when the run ends.  A span's self time is its
duration minus the time its child spans cover.  Nothing under `src/` is
edited, and `uninstall` restores every original binding.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

LAYERS = ("systems", "coherence", "sparsity", "bounds", "admissible", "oracle",
          "dft", "serialization", "cli")


class Tracer:
    def __init__(self, after_hooks=None):
        # after_hooks: {"module.function": hook(args, kwargs, result)}, called
        # after each traced call to record counts at the same boundary.
        self.after_hooks = after_hooks or {}
        self.names = []          # function id -> "module.function"
        self.spans = []          # (fid, parent, start, end, self_s)
        self._stack = []         # [span index, child time] of open spans
        self._originals = []     # (namespace, attribute, original)
        self._wrappers = {}      # id(original) -> wrapper, kept across installs

    def _wrap(self, name, fn):
        fid = len(self.names)
        self.names.append(name)
        hook = self.after_hooks.get(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else -1
            index = len(spans)
            spans.append(None)
            frame = [index, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                spans[index] = (fid, parent, start, end, duration - frame[1])
                if stack:
                    stack[-1][1] += duration
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return traced

    def install(self):
        modules = {name: mod for name, mod in sys.modules.items()
                   if mod is not None and (name == "sparsebounds" or name.startswith("sparsebounds."))}
        wrappers = self._wrappers
        for layer in LAYERS:
            mod = modules["sparsebounds." + layer]
            for attr, fn in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(fn)
                        and fn.__module__ == mod.__name__ and id(fn) not in wrappers):
                    wrappers[id(fn)] = self._wrap(f"{layer}.{attr}", fn)
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._originals.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    def uninstall(self):
        for mod, attr, original in reversed(self._originals):
            setattr(mod, attr, original)
        self._originals.clear()

    def calls(self, name: str) -> int:
        fid = self.names.index(name)
        return sum(1 for s in self.spans if s[0] == fid)

    def self_time(self, prefix: str) -> float:
        """Summed self time of the spans of one layer ("oracle") or one
        function ("dft.forward")."""
        fids = {i for i, n in enumerate(self.names)
                if n == prefix or n.startswith(prefix + ".")}
        return sum(s[4] for s in self.spans if s[0] in fids)

    def calls_under(self, name: str, ancestor: str) -> int:
        """Calls of `name` made while a call of `ancestor` was open."""
        fid, aid = self.names.index(name), self.names.index(ancestor)
        count = 0
        for span in self.spans:
            if span[0] != fid:
                continue
            parent = span[1]
            while parent >= 0 and self.spans[parent][0] != aid:
                parent = self.spans[parent][1]
            count += parent >= 0
        return count

    def write(self, path):
        """One line per span: function, parent span, start, end, self time."""
        with open(path, "w") as fh:
            fh.write("# span function parent start_s end_s self_s\n")
            for i, (fid, parent, start, end, self_s) in enumerate(self.spans):
                fh.write(f"{i} {self.names[fid]} {parent} {start:.9f} {end:.9f} {self_s:.9f}\n")
