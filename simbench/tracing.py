"""Per-layer host-cost tracing from outside the program.

:class:`Tracer` replaces each layer's public entry points (the table in
:data:`LAYERS`) with wrappers that count calls and time them.  A layer's
*self* time is its entry points' inclusive time minus the wrapped calls
nested inside them, so the layers partition the traced time they cover.

Pool workers forked while the tracer is installed inherit the wrappers.
Each worker starts from zeroed counters and, when it exits, writes its
counters to one JSON file in ``worker_dir``; :meth:`Tracer.totals` merges
those files with the parent's own counters.  Nothing here edits the
program: every wrapper goes through :class:`Patches`, whose ``restore``
puts back every original attribute.
"""

from __future__ import annotations

import importlib
import json
import multiprocessing.util
import os
import pathlib
import sys
import time

#: layer -> entry points, as ``module:function`` or ``module:Class.method``.
LAYERS: dict[str, tuple[str, ...]] = {
    "core.processor": ("repro.core.processor:Processor.cycle",),
    "core.simulator": ("repro.core.simulator:Simulation.run",),
    "core.engine": ("repro.core.engine:fast_forward",
                    "repro.core.engine:run_plan"),
    "os_model.stream": ("repro.os_model.stream:ContextStream.next_instruction",
                        "repro.os_model.stream:ContextStream.next_fast"),
    "os_model.kernel": ("repro.os_model.kernel:MiniDUX.tick",
                        "repro.os_model.kernel:MiniDUX.dispatch",
                        "repro.os_model.kernel:MiniDUX.handle_dtlb_miss",
                        "repro.os_model.kernel:MiniDUX.handle_itlb_miss"),
    "memory": ("repro.memory.hierarchy:MemoryHierarchy.inst_access",
               "repro.memory.hierarchy:MemoryHierarchy.data_access",
               "repro.memory.hierarchy:MemoryHierarchy.store_complete",
               "repro.memory.hierarchy:MemoryHierarchy.warm_inst",
               "repro.memory.hierarchy:MemoryHierarchy.warm_data"),
    "branch": ("repro.branch.unit:BranchUnit.predict",
               "repro.branch.unit:BranchUnit.resolve"),
    "core.stats": ("repro.core.stats:SimStats.charge_cycle",
                   "repro.core.stats:SimStats.charge_cycles",
                   "repro.core.stats:SimStats.retire",
                   "repro.core.stats:SimStats.retire_bulk",
                   "repro.core.stats:Attribution.switch"),
    "obs": ("repro.obs.timeline:ProbeTimeline.tick",
            "repro.obs.registry:ProbeRegistry.snapshot"),
    "analysis.experiments": ("repro.analysis.experiments:build_simulation",
                             "repro.analysis.experiments:execute_spec"),
    "analysis.snapshot": ("repro.analysis.snapshot:capture",
                          "repro.analysis.snapshot:diff",
                          "repro.analysis.snapshot:merge_windows"),
    "analysis.artifact": ("repro.analysis.artifact:RunArtifact.to_json_dict",
                          "repro.analysis.artifact:RunArtifact.from_json_dict"),
    "analysis.store": ("repro.analysis.store:RunStore.put",
                       "repro.analysis.store:RunStore.get"),
    "analysis.runner": ("repro.analysis.runner:run_many",),
}

ENTRY_POINTS: tuple[str, ...] = tuple(ep for eps in LAYERS.values() for ep in eps)


class Patches:
    """Attribute replacements on the program's modules and classes,
    undone together, last first, by :meth:`restore`."""

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []

    def replace(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def wrap(self, owner, attr: str, before=None, after=None) -> None:
        """Call *before()* ahead of and *after(result)* behind every call
        of ``owner.attr`` (a plain function, module-level or in a class)."""
        fn = vars(owner)[attr]

        def hooked(*args, **kwargs):
            if before is not None:
                before()
            result = fn(*args, **kwargs)
            if after is not None:
                after(result)
            return result

        self.replace(owner, attr, hooked)

    def restore(self) -> None:
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)


class Tracer:
    """Counts and times calls into every entry point of :data:`LAYERS`.

    ``calls``, ``incl`` and ``self_time`` are indexed like
    :data:`ENTRY_POINTS`; ``top`` accumulates the inclusive time of
    outermost traced calls (traced time not nested in another one).
    """

    def __init__(self, worker_dir: str | os.PathLike, patches: Patches) -> None:
        n = len(ENTRY_POINTS)
        self.calls = [0] * n
        self.incl = [0.0] * n
        self.self_time = [0.0] * n
        self.top = [0.0]
        self._stack: list[float] = []
        self.patches = patches
        self.worker_dir = pathlib.Path(worker_dir)
        multiprocessing.util.register_after_fork(self, Tracer._enter_worker)

    # -- installing ----------------------------------------------------------

    def install(self) -> None:
        """Wrap every entry point; ``patches.restore()`` unwraps them."""
        for i, entry in enumerate(ENTRY_POINTS):
            module_name, qualname = entry.split(":")
            module = importlib.import_module(module_name)
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                owner = getattr(module, cls_name)
                raw = owner.__dict__[attr]
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(i, raw.__func__))
                else:
                    new = self._wrap(i, raw)
                self.patches.replace(owner, attr, new)
            else:
                # A module-level function may also be bound by name in
                # modules that imported it: replace every such binding.
                fn = getattr(module, qualname)
                new = self._wrap(i, fn)
                for mod in list(sys.modules.values()):
                    if getattr(mod, "__name__", "").startswith("repro"):
                        for attr, value in list(vars(mod).items()):
                            if value is fn:
                                self.patches.replace(mod, attr, new)

    def _wrap(self, i: int, fn):
        calls, incl, self_time = self.calls, self.incl, self.self_time
        top, stack = self.top, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            calls[i] += 1
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spent = clock() - start
                nested = stack.pop()
                incl[i] += spent
                self_time[i] += spent - nested
                if stack:
                    stack[-1] += spent
                else:
                    top[0] += spent

        traced.__name__ = getattr(fn, "__name__", "traced")
        traced.__qualname__ = getattr(fn, "__qualname__", traced.__name__)
        return traced

    # -- pool workers --------------------------------------------------------

    def _enter_worker(self) -> None:
        """In a freshly forked worker: forget the parent's counters (and
        its open calls, which never return here) and dump on exit."""
        n = len(ENTRY_POINTS)
        self.calls[:] = [0] * n
        self.incl[:] = [0.0] * n
        self.self_time[:] = [0.0] * n
        self.top[0] = 0.0
        self._stack.clear()
        multiprocessing.util.Finalize(None, self._dump, exitpriority=100)

    def _dump(self) -> None:
        path = self.worker_dir / f"worker-{os.getpid()}.json"
        path.write_text(json.dumps(self._record()))

    def _record(self) -> dict:
        return {"calls": list(self.calls), "incl": list(self.incl),
                "self": list(self.self_time), "top": self.top[0]}

    # -- results -------------------------------------------------------------

    def totals(self) -> dict:
        """Parent plus every worker record: per-entry-point ``calls``,
        ``incl`` and ``self`` lists, the parent's ``top`` time, and the
        workers' ``worker_top`` time and ``worker_incl`` lists."""
        out = self._record()
        out["workers"] = 0
        out["worker_top"] = 0.0
        out["worker_incl"] = [0.0] * len(ENTRY_POINTS)
        for path in sorted(self.worker_dir.glob("worker-*.json")):
            rec = json.loads(path.read_text())
            out["workers"] += 1
            out["worker_top"] += rec["top"]
            for key in ("calls", "incl", "self"):
                out[key] = [a + b for a, b in zip(out[key], rec[key])]
            out["worker_incl"] = [a + b for a, b in
                                  zip(out["worker_incl"], rec["incl"])]
        return out


def layer_sums(values: list, layer: str) -> float:
    """Sum an entry-point-indexed list over one layer's entry points."""
    return sum(values[ENTRY_POINTS.index(ep)] for ep in LAYERS[layer])
