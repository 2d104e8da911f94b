"""In-memory span tracer for the benchmark's traced run.

Spans are recorded around calls into the program's public entry
points, from the benchmark's own code: each wrapper is installed at
every name a caller looks up (a function imported by name into another
module is a second binding of the same object), and removed again by
:meth:`Tracer.uninstall`. A span holds its name, start, end, parent
span and trace id (one per benchmark cell). Nothing is written until
:meth:`Tracer.write_jsonl` runs at the end.

Self time is a span's duration minus the durations of its direct
children; spans nest strictly (the benchmark is single-threaded), so
the self times of all spans sum to the root span's duration.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.names: List[str] = []
        self.starts: List[float] = []
        self.ends: List[Optional[float]] = []
        self.parents: List[int] = []
        self.traces: List[Optional[str]] = []
        #: Trace id stamped on every span begun from now on.
        self.trace_id: Optional[str] = None
        self._stack: List[int] = []
        self._patches: List[tuple] = []

    # Recording ---------------------------------------------------------

    def begin(self, name: str, start: Optional[float] = None) -> int:
        index = len(self.names)
        self.names.append(name)
        self.starts.append(self.clock() if start is None else start)
        self.ends.append(None)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.traces.append(self.trace_id)
        self._stack.append(index)
        return index

    def end(self, index: int, end: Optional[float] = None) -> None:
        top = self._stack.pop()
        if top != index:
            raise RuntimeError(
                f"span {self.names[index]!r} ended inside open span "
                f"{self.names[top]!r}")
        self.ends[index] = self.clock() if end is None else end

    @contextmanager
    def span(self, name: str):
        index = self.begin(name)
        try:
            yield index
        finally:
            self.end(index)

    def wrap(self, fn: Callable, name: str,
             observe: Optional[Callable] = None) -> Callable:
        """``fn`` recorded as a ``name`` span; ``observe(result)`` runs
        after the span closes, so its cost lands in the caller."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(index)
            if observe is not None:
                observe(result)
            return result

        return traced

    # Installing wrappers -------------------------------------------------

    def patch_method(self, cls: type, attr: str, name: str,
                     observe: Optional[Callable] = None) -> None:
        original = cls.__dict__[attr]
        setattr(cls, attr, self.wrap(original, name, observe))
        self._patches.append((cls, attr, original))

    def patch_function(self, original: Callable, name: str,
                       observe: Optional[Callable] = None,
                       package: str = "repro") -> List[str]:
        """Rebind every module-level name under ``package`` that holds
        ``original`` (its defining module and every ``from x import f``
        copy) to one wrapper. Returns the rebound names."""
        wrapper = self.wrap(original, name, observe)
        rebound = []
        for module in list(sys.modules.values()):
            modname = getattr(module, "__name__", None) or ""
            if modname != package and not modname.startswith(package + "."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    self._patches.append((module, attr, original))
                    rebound.append(f"{modname}.{attr}")
        if not rebound:
            raise RuntimeError(f"no module binds {original!r}")
        return rebound

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # Reading -------------------------------------------------------------

    def durations(self) -> List[float]:
        return [end - start for start, end in zip(self.starts, self.ends)]

    def self_times(self) -> List[float]:
        durations = self.durations()
        own = list(durations)
        for index, parent in enumerate(self.parents):
            if parent >= 0:
                own[parent] -= durations[index]
        return own

    def layer_table(self) -> Dict[str, Dict[str, float]]:
        """Per span name: total self seconds, total seconds, span count."""
        table: Dict[str, Dict[str, float]] = defaultdict(
            lambda: {"self_s": 0.0, "total_s": 0.0, "spans": 0})
        for name, own, total in zip(self.names, self.self_times(),
                                    self.durations()):
            row = table[name]
            row["self_s"] += own
            row["total_s"] += total
            row["spans"] += 1
        return dict(table)

    def write_jsonl(self, path: str, extra: Optional[dict] = None) -> None:
        """One line per span, then one line holding the layer table."""
        with open(path, "w", encoding="utf-8") as out:
            for index, name in enumerate(self.names):
                out.write(json.dumps({
                    "span": index, "name": name, "trace": self.traces[index],
                    "parent": self.parents[index],
                    "start": self.starts[index], "end": self.ends[index],
                }) + "\n")
            out.write(json.dumps(
                {"layers": self.layer_table(), **(extra or {})}) + "\n")
