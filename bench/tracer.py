"""Outside-in tracing of resonat's layers for the benchmark's traced run.

Every public function of each module is wrapped from here; nothing under
src/ changes. The modules import functions from one another by name
(green_matrix is bound in resonat.cli, resonat.imaging, resonat.expansion and
resonat.volume), so every module-level binding of a wrapped function is
replaced, and the CLI's command table is patched as well.

Spans (name, start, end, parent span, pass) and counts are kept in memory and
turned into per-layer metrics when the run ends. A span's self time is its
duration minus that of its child spans: everything runs on one thread, so
children never overlap.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import time
from collections import defaultdict

import numpy as np

LAYERS = ("cli", "grids", "kernels", "volume", "spectral", "expansion", "imaging", "io")
# per-value helpers: a span per call would cost more than the call itself
UNWRAPPED = {"io.fmt"}


def _count_g0(counts, name, args, kwargs, result):
    counts[name + ".evals"] += np.size(args[0] if args else kwargs["r"])


def _count_l1(counts, name, args, kwargs, result):
    # penalized mode: 3 complex m x N matvecs per iteration, 8 m N flops each
    fmap = args[0] if args else kwargs["fmap"]
    m, n = fmap.matrix.shape
    iters = result.metadata["iterations"]
    counts[name + ".iterations"] += iters
    counts[name + ".gflop_computed"] += 3 * 8 * m * n * iters / 1e9


def _count_csv(counts, name, args, kwargs, result):
    path = args[0] if args else kwargs["path"]
    counts[name + ".rows"] += len(args[2] if len(args) > 2 else kwargs["rows"])
    counts[name + ".bytes"] += os.path.getsize(path)


COUNTERS = {"kernels.g0_from_distance": _count_g0,
            "imaging.l1_reconstruct": _count_l1,
            "io.write_csv": _count_csv}


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start, end, parent, pass]
        self.counts = defaultdict(float)
        self.pass_index = 0
        self._stack = []
        self._patched = []       # (namespace, key, original)

    def _wrap(self, name, func):
        counter = COUNTERS.get(name)

        @functools.wraps(func)
        def traced(*args, **kwargs):
            sid = len(self.spans)
            self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else None,
                               self.pass_index])
            self._stack.append(sid)
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[sid][1:3] = start, end
                self.counts[name + ".calls"] += 1
            if counter:
                counter(self.counts, name, args, kwargs, result)
            return result
        return traced

    def install(self):
        modules = {layer: importlib.import_module(f"resonat.{layer}") for layer in LAYERS}
        wrappers = {}
        for layer, mod in modules.items():
            for attr, func in inspect.getmembers(mod, inspect.isfunction):
                name = f"{layer}.{attr}"
                if func.__module__ == mod.__name__ and not attr.startswith("_") \
                        and name not in UNWRAPPED:
                    wrappers[id(func)] = self._wrap(name, func)
        cli = modules["cli"]
        commands = cli._COMMANDS
        for command, (func, required) in list(commands.items()):
            traced = self._wrap(f"cli.{command}", func)
            self._patched.append((commands, command, (func, required)))
            commands[command] = (traced, required)
        for mod in [importlib.import_module("resonat"), *modules.values()]:
            ns = vars(mod)
            for attr, val in list(ns.items()):
                if id(val) in wrappers:
                    self._patched.append((ns, attr, val))
                    ns[attr] = wrappers[id(val)]

    def uninstall(self):
        for ns, key, original in reversed(self._patched):
            ns[key] = original
        self._patched.clear()

    def metrics(self, passes):
        """Per-pass totals: <name>.s, <name>.self_s, <layer>.self_s, counts."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = defaultdict(float)
        for (name, start, end, _, _), covered in zip(self.spans, child):
            own = end - start - covered
            out[name + ".s"] += end - start
            out[name + ".self_s"] += own
            out[name.split(".")[0] + ".self_s"] += own
        out.update(self.counts)
        return {key: value / passes for key, value in out.items()}

    def dump(self):
        return {"spans": self.spans, "counts": dict(self.counts)}
