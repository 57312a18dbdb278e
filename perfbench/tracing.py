"""Recording wrappers for the traced run.

`Recorder.install` replaces every public, non-generator function of the
given modules with a wrapper, on the module attributes of this process only,
and `uninstall` puts the originals back.  Nothing in the program changes:
calls that go through a module attribute (``game.verify_strategy``, a
module-global call inside hatlab, ``from .game import ...`` at call time)
reach the wrapper; references captured before `install`, such as the CLI's
dispatch tables, do not.

Generator functions (the chunked sweep) are left alone on purpose: the
verifier kernel runs inside them, so a span there would move the kernel's
time out of ``game.verify_strategy``.  The sweep layer is measured by the
threads=1 / threads=nproc speed-up instead.

Spans (id, name, start, end, parent) are kept in memory and written out at
the end.  Every call is aggregated into calls, busy time and self time (busy
time minus the time its wrapped children took); only the first
SPAN_LIMIT calls of each function also keep a span, so hot per-set calls
such as ``cover.coverable`` become counts plus busy time.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from typing import Any, Callable

SPAN_LIMIT = 1000

# name -> (work kind, work count) from the bound arguments and the result
WorkCounter = Callable[[inspect.BoundArguments, Any], tuple[str, int]]


def _verify_work(bound: inspect.BoundArguments, report: Any) -> tuple[str, int]:
    kind = "assignments" if bound.arguments.get("restriction") is None else "restricted_members"
    return kind, report.assignments_checked


WORK_COUNTERS: dict[str, WorkCounter] = {
    "game.verify_strategy": _verify_work,
    "game.search_strategy": lambda b, r: ("nodes", r.nodes_explored),
    "windmill.assemble_windmill_strategy": lambda b, r: ("axle_cells", len(r.tables[0])),
    "cover.coverable": lambda b, r: ("sets", 1),
    "cube.four_cubes_two_intersection_sweep": lambda b, r: ("configs", r.quadruples),
}


class Recorder:
    def __init__(self) -> None:
        self.spans: list[tuple[int, str, float, float, int | None]] = []
        self.calls: dict[str, int] = {}
        self.busy_s: dict[str, float] = {}
        self.self_s: dict[str, float] = {}
        # (name, kind) -> [work count, self time of the calls that did it]
        self.work: dict[tuple[str, str], list[float]] = {}
        self.overhead_s = 0.0
        self._stack: list[list] = []  # [span id, child time]
        self._next_id = 0
        self._saved: list[tuple[Any, str, Any]] = []

    # -- installing ---------------------------------------------------------

    def install(self, modules: list[Any]) -> None:
        owners = {m.__name__ for m in modules}
        wrapped: dict[Any, Any] = {}
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or inspect.isgeneratorfunction(obj)
                        or obj.__module__ not in owners):
                    continue
                if obj not in wrapped:
                    wrapped[obj] = self._wrap(obj)
                self._saved.append((mod, attr, obj))
                setattr(mod, attr, wrapped[obj])

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._saved):
            setattr(mod, attr, obj)
        self._saved.clear()

    def _wrap(self, fn: Callable) -> Callable:
        name = fn.__module__.rpartition(".")[2] + "." + fn.__name__
        counter = WORK_COUNTERS.get(name)
        sig = inspect.signature(fn) if counter is not None else None
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else None
            frame = [span_id, 0.0]
            stack.append(frame)
            t1 = time.perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t2 = time.perf_counter()
                stack.pop()
                own = t2 - t1 - frame[1]
                calls = self.calls.get(name, 0) + 1
                self.calls[name] = calls
                self.busy_s[name] = self.busy_s.get(name, 0.0) + (t2 - t1)
                self.self_s[name] = self.self_s.get(name, 0.0) + own
                if counter is not None and result is not None:
                    kind, count = counter(sig.bind(*args, **kwargs), result)
                    acc = self.work.setdefault((name, kind), [0, 0.0])
                    acc[0] += count
                    acc[1] += own
                if calls <= SPAN_LIMIT:
                    self.spans.append((span_id, name, t1, t2, parent))
                t3 = time.perf_counter()
                self.overhead_s += (t1 - t0) + (t3 - t2)
                if stack:
                    # the parent's self time excludes this call and its wrapper cost
                    stack[-1][1] += t3 - t0

        return wrapper

    # -- reading ------------------------------------------------------------

    def work_count(self, name: str, kind: str) -> int:
        return int(self.work.get((name, kind), [0, 0.0])[0])

    def rate(self, name: str, kind: str) -> float:
        count, own_s = self.work.get((name, kind), [0, 0.0])
        return count / own_s if own_s > 0 else 0.0

    def layer_self_s(self, layer: str) -> float:
        return sum(v for k, v in self.self_s.items() if k.startswith(layer + "."))

    def write(self, path: str, header: dict) -> None:
        """One JSON header line, one line per aggregated function, then the spans."""
        with open(path, "w") as fh:
            fh.write(json.dumps({"header": header, "overhead_s": self.overhead_s}) + "\n")
            for name in sorted(self.calls):
                fh.write(json.dumps({"function": name, "calls": self.calls[name],
                                     "busy_s": self.busy_s[name],
                                     "self_s": self.self_s[name]}) + "\n")
            for span_id, name, start, end, parent in self.spans:
                fh.write(json.dumps({"id": span_id, "name": name, "start": start,
                                     "end": end, "parent": parent}) + "\n")
