"""Run-time spans around the program's public layer functions.

Nothing in the program changes: :meth:`Tracer.install` replaces each
named function or method *where its callers look it up* — the class
attribute for methods, and every ``repro`` module global that holds the
function for module-level functions — with a wrapper that records one
span (name, start, end, parent) per call, plus counts taken at the same
boundary.  :meth:`Tracer.uninstall` puts the originals back.

Spans stay in memory in flat arrays and are written out once, at the end
of the run.  A span's self time is its duration minus its direct
children's durations.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from collections import Counter
from collections.abc import Callable
from pathlib import Path

import numpy as np

__all__ = ["Tracer", "TARGETS", "METHOD_TARGETS"]

_Count = Callable[["Tracer", object], None]


def _add(key: str, amount: Callable[[object], float]) -> _Count:
    def count(tracer: "Tracer", result: object) -> None:
        tracer.counts[key] += amount(result)

    return count


def _snapshot_size(tracer: "Tracer", path: object) -> None:
    size = Path(path).stat().st_size
    tracer.counts["resilience.snapshot_bytes_max"] = max(
        tracer.counts["resilience.snapshot_bytes_max"], size
    )


def _groups(result: object) -> int:
    return len(result[0] if isinstance(result, tuple) else result)


#: (class path, method names, span name, count) — wrapped on the class.
METHOD_TARGETS: tuple[tuple[str, tuple[str, ...], str, _Count | None], ...] = (
    ("repro.trace.synthetic.SyntheticTraceGenerator",
     ("requests_for_day", "requests_for_window", "fleet"), "trace.generate", None),
    ("repro.simulation.engine.Simulator", ("run",), "simulation.run", None),
    ("repro.streaming.engine.StreamingEngine", ("run",), "simulation.run", None),
    ("repro.simulation.frame_cache.FrameDistanceCache",
     ("pickup_matrix", "pickup_gap_matrix"), "frame_cache.pickup", None),
    ("repro.simulation.frame_cache.FrameDistanceCache", ("trip_km",), "frame_cache.trip", None),
    ("repro.geometry.distance._BroadcastKernelMixin",
     ("pairwise", "distances", "paired", "pairwise_packed", "paired_packed"),
     "geometry.batch", _add("geometry.pairs_computed", lambda out: out.size)),
    ("repro.dispatch.nonsharing.nstd.NSTDDispatcher", ("dispatch",), "dispatch", None),
    ("repro.dispatch.sharing.std.STDDispatcher", ("dispatch",), "dispatch", None),
    ("repro.streaming.matcher.ZoneMatcher", ("match_epoch",), "streaming.match_epoch", None),
    ("repro.resilience.checkpoint.DurabilityManager", ("commit_frame",),
     "resilience.commit", None),
    ("repro.resilience.journal.JournalWriter", ("write_frame",), "resilience.journal", None),
    ("repro.resilience.checkpoint.CheckpointStore", ("write",), "resilience.checkpoint",
     _snapshot_size),
    ("repro.resilience.auditor.StabilityAuditor", ("audit_frame",), "resilience.audit", None),
)

#: (module, function, span name, count) — wrapped in every module that
#: imported the function by name.
TARGETS: tuple[tuple[str, str, str, _Count | None], ...] = (
    ("repro.matching.preferences", "build_nonsharing_arrays", "matching.pref_build",
     _add("matching.pref_pairs", lambda arrays: len(arrays.proposer_list))),
    ("repro.matching.optimality", "passenger_optimal", "matching.solve", None),
    ("repro.matching.warm_frame", "warm_frame_solve", "matching.warm_solve", None),
    ("repro.streaming.zones", "plan_epoch_zones", "streaming.zone_plan", None),
    ("repro.streaming.zones", "coarse_epoch_plan", "streaming.zone_plan", None),
    ("repro.streaming.zones", "zone_queue_depths", "streaming.queue_depths", None),
    ("repro.dispatch.sharing.std", "pack_requests", "sharing.pack", None),
    ("repro.packing.feasibility", "enumerate_feasible_groups", "packing.enumerate",
     _add("packing.groups_feasible", _groups)),
    ("repro.packing.set_packing", "local_search_packing", "packing.set_packing", None),
    ("repro.routing.shared_route", "feasible_shared_route", "routing.route", None),
    ("repro.dispatch.sharing.preferences", "build_sharing_table", "sharing.table", None),
)


class Tracer:
    """Span recorder that patches the program's layer boundaries."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self._stack = [-1]
        self.counts: Counter[str] = Counter()
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, span: str, fn: Callable, count: _Count | None) -> Callable:
        ident = self._name_ids.setdefault(span, len(self._name_ids))
        if ident == len(self.names):
            self.names.append(span)
        stack, clock = self._stack, time.perf_counter
        start, end, name, parent = self.start, self.end, self.name, self.parent

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(start)
            name.append(ident)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(index)
            start.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                end[index] = clock()
                stack.pop()
            if count is not None:
                count(self, out)
            return out

        return traced

    def install(self) -> None:
        """Wrap every target; call :meth:`uninstall` before installing again."""
        for path, methods, span, count in METHOD_TARGETS:
            module_name, cls_name = path.rsplit(".", 1)
            cls = getattr(importlib.import_module(module_name), cls_name)
            for method in methods:
                original = cls.__dict__[method]
                self._patched.append((cls, method, original))
                setattr(cls, method, self._wrap(span, original, count))
        for module_name, func, span, count in TARGETS:
            original = getattr(importlib.import_module(module_name), func)
            wrapper = self._wrap(span, original, count)
            for module in list(sys.modules.values()):
                if not getattr(module, "__name__", "").startswith("repro"):
                    continue
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        """Restore every original, newest patch first."""
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def layers(self) -> dict[str, dict[str, float]]:
        """Per span name: ``calls``, ``ms`` (outermost spans only, so a
        layer that re-enters itself is not counted twice) and ``self_ms``."""
        n = len(self.start)
        names = np.frombuffer(self.name, dtype=np.int32)[:n] if n else np.zeros(0, np.int32)
        parents = np.frombuffer(self.parent, dtype=np.int32)[:n] if n else np.zeros(0, np.int32)
        dur = (np.frombuffer(self.end)[:n] - np.frombuffer(self.start)[:n]) * 1e3
        has_parent = parents >= 0
        child = np.bincount(parents[has_parent], weights=dur[has_parent], minlength=n)
        self_ms = dur - child
        parent_name = np.where(has_parent, names[np.maximum(parents, 0)], -1)
        outer = parent_name != names
        out = {}
        for ident, span in enumerate(self.names):
            mine = names == ident
            out[span] = {
                "calls": float(np.count_nonzero(mine)),
                "ms": float(dur[mine & outer].sum()),
                "self_ms": float(self_ms[mine].sum()),
            }
        return out

    def dump(self, path: Path) -> None:
        """Write every span (name, start, end, parent) as compressed NumPy arrays."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
        )
