"""Outside tracing: timers around each layer's public entry points.

The program is not edited.  :func:`install` replaces a handful of public
callables with thin wrappers that record one span per call (name,
parent, start, duration, thread) in memory; :meth:`Recorder.summary`
turns them into per-layer self times and counts, and
:meth:`Recorder.write_jsonl` writes them out when the run ends.

A span's *self time* is its duration minus the time its child spans
cover.  A call made inside a span of the same name
(``expected_em_lifetime`` calling ``array_failure_cdf``, a backend
falling back to ``lu``'s ``factorize``) is folded into the outer span,
so every second of work is counted once.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional

#: Span names, one per layer boundary.  The per-layer metric of a span
#: is ``<name>_s`` (summed self time) in :meth:`Recorder.summary`.
SPAN_NAMES = (
    "pdn.build",
    "grid.assemble",
    "grid.factorize",
    "grid.solve",
    "runtime.sweep",
    "em.mttf",
    "contracts.check",
)


class Recorder:
    """In-memory span store plus the counters read at the same boundaries."""

    def __init__(self) -> None:
        self.spans: List[Dict[str, Any]] = []
        self.counts: Dict[str, float] = {
            "pdn.builds": 0,
            "grid.factorizations": 0,
            "grid.factor_nnz": 0,
            "grid.solve_calls": 0,
            "grid.rungs_escalated": 0,
            "runtime.groups": 0,
            "runtime.groups_reused": 0,
            "runtime.post_s": 0.0,
            "contracts.violations": 0,
        }
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[name] += amount

    def untimed(self, fn: Callable[[], None]) -> None:
        """Run bookkeeping ``fn`` without charging it to the open span."""
        t0 = time.perf_counter()
        fn()
        stack = self._stack()
        if stack:
            stack[-1]["child_s"] += time.perf_counter() - t0

    def wrap(
        self,
        name: str,
        fn: Callable,
        on_result: Optional[Callable[[Any], None]] = None,
    ) -> Callable:
        """``fn`` timed as span ``name``; ``on_result`` reads its return value."""

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            stack = self._stack()
            if stack and stack[-1]["name"] == name:
                return fn(*args, **kwargs)
            span = {
                "id": next(self._ids),
                "parent": stack[-1]["id"] if stack else None,
                "name": name,
                "thread": threading.get_ident(),
                "start_s": time.perf_counter(),
                "child_s": 0.0,
            }
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span["dur_s"] = time.perf_counter() - span["start_s"]
                if stack:
                    stack[-1]["child_s"] += span["dur_s"]
                with self._lock:
                    self.spans.append(span)
            if on_result is not None:
                on_result(result)
            return result

        return timed

    def summary(self) -> Dict[str, float]:
        """Per-layer self times (``<span>_s``) and the boundary counters."""
        out: Dict[str, float] = {f"{name}_s": 0.0 for name in SPAN_NAMES}
        for span in self.spans:
            out[f"{span['name']}_s"] += span["dur_s"] - span["child_s"]
        out.update(self.counts)
        return out

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in sorted(self.spans, key=lambda s: s["start_s"]):
                record = dict(span)
                record["self_s"] = record.pop("dur_s") - record.pop("child_s")
                record["dur_s"] = span["dur_s"]
                handle.write(json.dumps(record) + "\n")


def _rebind_everywhere(original: Callable, replacement: Callable) -> None:
    """Point every ``repro`` module attribute bound to ``original`` at
    ``replacement`` (``from x import f`` copies the binding)."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def install(recorder: Recorder) -> None:
    """Wrap the public entry points of every layer the benchmark reports.

    Call after ``import repro`` and before the workload starts.
    """
    import repro  # noqa: F401  (loads every layer the wrappers touch)
    import repro.em.array_mttf as array_mttf
    import repro.grid.backends as backends
    from repro.contracts import check_pdn_result
    from repro.grid.solver import AssembledCircuit
    from repro.pdn.builder import BasePDN3D
    from repro.runtime import PDNSpec, SweepEngine

    setattr(
        PDNSpec, "build",
        recorder.wrap(
            "pdn.build", PDNSpec.build,
            lambda _: recorder.count("pdn.builds"),
        ),
    )
    setattr(
        BasePDN3D, "assembled",
        recorder.wrap("grid.assemble", BasePDN3D.assembled),
    )

    # Factor fill is counted from the SuperLU factors themselves; the
    # copy-out of L and U is charged to no span.
    splu = backends.splu

    @functools.wraps(splu)
    def splu_counting_fill(*args, **kwargs):
        lu = splu(*args, **kwargs)
        recorder.untimed(
            lambda: recorder.count("grid.factor_nnz", lu.L.nnz + lu.U.nnz)
        )
        return lu

    backends.splu = splu_counting_fill
    for name in backends.available_backends():
        cls = type(backends.get_backend(name))
        setattr(
            cls, "factorize",
            recorder.wrap(
                "grid.factorize", cls.factorize,
                lambda _: recorder.count("grid.factorizations"),
            ),
        )

    def count_solves(result) -> None:
        solutions = result if isinstance(result, list) else [result]
        escalated = 0
        for solution in solutions:
            rungs = getattr(solution.diagnostics, "escalations", None) or []
            escalated += max(len(rungs) - 1, 0)
        recorder.count("grid.solve_calls")
        recorder.count("grid.rungs_escalated", escalated)

    for attr in ("solve", "solve_batch"):
        setattr(
            AssembledCircuit, attr,
            recorder.wrap("grid.solve", getattr(AssembledCircuit, attr), count_solves),
        )

    def count_sweep(result) -> None:
        groups = result.metrics.groups
        recorder.count("runtime.groups", len(groups))
        recorder.count("runtime.groups_reused", sum(1 for g in groups if g.cached))
        recorder.count("runtime.post_s", sum(g.post_s for g in groups))

    setattr(
        SweepEngine, "run",
        recorder.wrap("runtime.sweep", SweepEngine.run, count_sweep),
    )

    for attr in ("lognormal_failure_cdf", "array_failure_cdf", "expected_em_lifetime"):
        original = getattr(array_mttf, attr)
        _rebind_everywhere(original, recorder.wrap("em.mttf", original))

    def count_violations(report) -> None:
        recorder.count("contracts.violations", len(report.violations()))

    _rebind_everywhere(
        check_pdn_result,
        recorder.wrap("contracts.check", check_pdn_result, count_violations),
    )
