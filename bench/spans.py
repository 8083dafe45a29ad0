"""In-memory span recorder for the traced benchmark run.

The recorder wraps the public functions of ``graveropt`` as the solver and
the CLI look them up (module attributes), so nothing inside the package
changes.  Each call becomes one span: (id, name, start ns, end ns, parent
id, thread id, extra).  The parent is the innermost open span of the same
thread; a span opened on a worker thread with nothing open there (an
``augment`` run by the ``--threads`` pool) takes the innermost open span of
the thread that installed the recorder, which is the ``solve`` that owns
the pool.  Spans stay in memory and are written once, when the run ends.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_thread = threading.get_ident()
        self._main_stack: list[int] = []
        self._restore: list[tuple] = []

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._main_thread:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, extra=None):
        """``fn`` recorded as span ``name``; ``extra(result)`` adds counts."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = self._main_stack[-1] if self._main_stack else -1
            sid = next(self._ids)
            stack.append(sid)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
            self.spans.append(
                (sid, name, start, end, parent, threading.get_ident(),
                 extra(result) if extra else None)
            )
            return result

        return traced

    def patch(self, owner, attr: str, name: str, extra=None) -> None:
        """Replace ``owner.attr`` by its traced wrapper until :meth:`restore`."""
        original = getattr(owner, attr)
        self._restore.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, extra))

    def restore(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, start, end, parent, tid, extra in self.spans:
                fh.write(json.dumps(
                    {"id": sid, "name": name, "start_ns": start, "end_ns": end,
                     "parent": parent, "thread": tid, "extra": extra}
                ) + "\n")


def install(tracer: Tracer) -> None:
    """Trace the layer boundaries of ``graveropt`` named in the benchmark."""
    import graveropt.cli as cli
    import graveropt.graver as graver
    import graveropt.solver as solver

    tracer.patch(solver, "build_basis", "graver.build_basis", lambda b: {"elements": len(b)})
    tracer.patch(graver.LiftingSampler, "draw", "graver.sampler_draw")
    tracer.patch(solver, "generate_seeds", "seeds.generate_seeds")
    tracer.patch(solver, "prepare_moves", "solver.prepare_moves")
    tracer.patch(
        solver, "augment", "solver.augment",
        lambda r: {"moves": r.moves_scanned, "steps": r.steps},
    )
    tracer.patch(solver, "objective", "problems.objective")
    tracer.patch(solver, "solve", "solver.solve")
    tracer.patch(cli, "solve", "solver.solve")
    tracer.patch(cli, "load_instance", "problems.load_instance")
    tracer.patch(cli, "main", "cli.main")


def _covered(intervals: list[tuple[int, int]]) -> int:
    """Length of the union of [start, end) intervals."""
    total = 0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_time_by_layer(spans) -> dict[str, float]:
    """Seconds per layer (name prefix) not covered by the span's children."""
    children: dict[int, list[tuple[int, int]]] = {}
    for sid, _, start, end, parent, _, _ in spans:
        children.setdefault(parent, []).append((start, end))
    out: dict[str, float] = {}
    for sid, name, start, end, _, _, _ in spans:
        inner = [(max(s, start), min(e, end)) for s, e in children.get(sid, ()) if e > start and s < end]
        layer = name.split(".", 1)[0]
        out[layer] = out.get(layer, 0.0) + (end - start - _covered(inner)) / 1e9
    return out
