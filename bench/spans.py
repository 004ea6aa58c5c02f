"""Span tracer that wraps the program's public layer functions from outside.

The program itself stays clock-free; the traced run patches the public
names listed in LAYERS for the duration of a `Tracer.patched()` block. A
span's self time is its duration minus the time covered by its direct
child spans. A layer whose module or attribute no longer exists is
recorded in `Tracer.absent` and skipped, so the benchmark keeps running
after a layer is merged away.
"""

from __future__ import annotations

import contextlib
import importlib
import sys
from time import perf_counter

# label -> (home module, attribute path, kind). "call" spans each call;
# "distinct" also collects the distinct instances a method is called on
# (its first argument after self) into Tracer.distinct; "stream" spans the
# call and then every next() on the generator it returns (first element of
# a returned tuple).
LAYERS = {
    "interval_tree.generate_seed": ("roenum.interval_tree", "generate_seed", "call"),
    "interval_tree.insert": ("roenum.interval_tree", "BannedIntervalTree.insert", "call"),
    "fptas.iaccess": ("roenum.fptas", "iaccess", "call"),
    "fptas.bernoulli_less": ("roenum.fptas", "bernoulli_less", "call"),
    "fpras.xaccess": ("roenum.fpras", "xaccess", "call"),
    "problems.exact_count": ("roenum.problems", "Knapsack.exact_count", "distinct"),
    "problems.oracle.exact": ("roenum.problems", "SimulatedOracles.exact", "call"),
    "problems.oracle.fptas": ("roenum.problems", "SimulatedOracles.fptas", "call"),
    "problems.oracle.fpras": ("roenum.problems", "SimulatedOracles.fpras", "call"),
    "exact.raccess": ("roenum.exact", "raccess", "call"),
    "parallel.master_phase1": ("roenum.parallel", "master_phase1", "call"),
    "parallel.slave": ("roenum.parallel", "slave_session", "stream"),
}


class Tracer:
    def __init__(self):
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.absent: list[str] = []
        self.distinct: set = set()
        self._child = [0.0]  # child time of each open span; [0] is the root

    def _close(self, label: str, t0: float):
        dt = perf_counter() - t0
        child = self._child.pop()
        self._child[-1] += dt
        self.calls[label] = self.calls.get(label, 0) + 1
        self.self_s[label] = self.self_s.get(label, 0.0) + dt - child

    def call(self, label: str, fn, *args, **kwargs):
        self._child.append(0.0)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(label, t0)

    def stream(self, label: str, gen):
        """Yield from gen, one span per next()."""
        while True:
            self._child.append(0.0)
            t0 = perf_counter()
            try:
                item = next(gen)
            except StopIteration:
                return
            finally:
                self._close(label, t0)
            yield item

    def _wrapper(self, label: str, fn, kind: str):
        if kind == "call":
            def traced(*args, **kwargs):
                return self.call(label, fn, *args, **kwargs)
        elif kind == "distinct":
            def traced(obj, instance, *args, **kwargs):
                self.distinct.add(instance)
                return self.call(label, fn, obj, instance, *args, **kwargs)
        else:
            def traced(*args, **kwargs):
                gen, *rest = self.call(label, fn, *args, **kwargs)
                return (self.stream(label, gen), *rest)
        return traced

    @contextlib.contextmanager
    def patched(self):
        """Wrap every binding of each LAYERS function inside the roenum
        package (a function imported into another module is bound there
        too), and restore the originals on exit."""
        undo = []
        try:
            for label, (home, path, kind) in LAYERS.items():
                try:
                    owner = importlib.import_module(home)
                except ImportError:
                    self.absent.append(label)
                    continue
                *outer, name = path.split(".")
                for part in outer:
                    owner = getattr(owner, part, None)
                fn = getattr(owner, name, None) if owner is not None else None
                if fn is None:
                    self.absent.append(label)
                    continue
                wrapped = self._wrapper(label, fn, kind)
                targets = [owner] if outer else [
                    mod for mod_name, mod in list(sys.modules.items())
                    if mod_name.split(".")[0] == "roenum"
                    and getattr(mod, name, None) is fn]
                for target in targets:
                    setattr(target, name, wrapped)
                    undo.append((target, name, fn))
            yield self
        finally:
            for target, name, fn in reversed(undo):
                setattr(target, name, fn)
