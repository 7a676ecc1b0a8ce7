"""Outside-in instrumentation of bwalk: wrappers installed from the benchmark.

bwalk's modules import each other's functions by name (``from .graph import
build_basis``) or through a module (``analytic.maximize_fidelity``), so a
function is looked up wherever a caller bound it.  ``Patches`` replaces every
such binding in the package and restores them afterwards; the program's
source is never edited.

``Tracer`` records one span per wrapped call (id, parent span, name, start,
end, thread, plus a few counts taken from the arguments and result) in
memory and aggregates them into per-layer metrics when the run ends.
"""

from __future__ import annotations

import itertools
import sys
import threading
import time
import tracemalloc

MODULES = ("bwalk", "bwalk.graph", "bwalk.operators", "bwalk.analytic", "bwalk.reduced",
           "bwalk.protocols", "bwalk.verify", "bwalk.cli")

# (defining module, function, span name): the layer is the module of src/bwalk
TRACED = (
    ("bwalk.graph", "build_basis", "graph.build_basis"),
    ("bwalk.graph", "uniform_sender_state", "graph.states"),
    ("bwalk.graph", "loop_state", "graph.states"),
    ("bwalk.graph", "receiver_target_state", "graph.states"),
    ("bwalk.graph", "stationary_state", "graph.states"),
    ("bwalk.graph", "random_state", "graph.states"),
    ("bwalk.graph", "fidelity", "graph.fidelity"),
    ("bwalk.operators", "evolve", "operators.evolve"),
    ("bwalk.operators", "step", "operators.step"),
    ("bwalk.analytic", "maximize_fidelity", "analytic.maximize_fidelity"),
    ("bwalk.analytic", "fidelity_diff_gg", "analytic.closed_form"),
    ("bwalk.analytic", "fidelity_diff_gi", "analytic.closed_form"),
    ("bwalk.analytic", "fidelity_same", "analytic.closed_form"),
    ("bwalk.analytic", "fidelity_lqw", "analytic.closed_form"),
    ("bwalk.reduced", "build_subspace", "reduced.build_subspace"),
    ("bwalk.reduced", "reduced_matrix", "reduced.reduced_matrix"),
    ("bwalk.reduced", "reduced_eigensystem", "reduced.eigensystem"),
    ("bwalk.reduced", "numeric_eigensystem", "reduced.eigensystem"),
    ("bwalk.reduced", "project", "reduced.project"),
    ("bwalk.verify", "run_checks", "verify.run_checks"),
    ("bwalk.protocols", "run_transfer", "protocols.run_transfer"),
    ("bwalk.protocols", "run_active_switch", "protocols.run_active_switch"),
    ("bwalk.protocols", "sweep_max_fidelity", "protocols.sweep_max_fidelity"),
    ("bwalk.protocols", "sweep_active_switch", "protocols.sweep_active_switch"),
    ("bwalk.cli", "main", "cli.main"),
)

AMPLITUDE_BYTES = 16  # complex128


class Patches:
    """Replace every binding of some bwalk functions; ``restore`` undoes it."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, owner: str, name: str, make_wrapper) -> None:
        """Wrap every binding of ``owner.name``; a function the program no
        longer has is skipped and its metrics read 0."""
        original = getattr(sys.modules[owner], name, None)
        if original is None:
            return
        wrapper = make_wrapper(original)
        for module_name in MODULES:
            module = sys.modules[module_name]
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._saved.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def set(self, module_name: str, attr: str, value) -> None:
        module = sys.modules[module_name]
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def restore(self) -> None:
        for module, attr, value in reversed(self._saved):
            setattr(module, attr, value)
        self._saved.clear()


class Tracer:
    """In-memory spans around every function in ``TRACED``."""

    def __init__(self) -> None:
        # (span id, parent id or 0, name, start, end, thread id, counts dict or None)
        self.spans: list[tuple] = []
        self.pool_sizes: list[int] = []
        self.max_norm_drift = 0.0
        self.largest_evolve: tuple | None = None  # (dimension, steps, args)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()  # pool threads update the maxima below
        self._patches = Patches()
        self._counters = {
            "operators.evolve": self._count_evolve,
            "operators.step": self._count_step,
            "analytic.closed_form": self._count_closed_form,
            "verify.run_checks": self._count_checks,
        }

    # -- installation ------------------------------------------------------
    def install(self) -> None:
        for owner, name, span in TRACED:
            self._patches.wrap(owner, name, lambda fn, span=span: self._wrapper(fn, span))
        base = getattr(sys.modules["bwalk.protocols"], "ThreadPoolExecutor", None)
        if base is None:
            return
        sizes = self.pool_sizes

        class RecordingPool(base):
            def __init__(self, max_workers=None, *args, **kwargs):
                sizes.append(max_workers or 0)
                super().__init__(max_workers, *args, **kwargs)

        self._patches.set("bwalk.protocols", "ThreadPoolExecutor", RecordingPool)

    def uninstall(self) -> None:
        self._patches.restore()

    def _wrapper(self, fn, span: str):
        counts = self._counters.get(span)
        local, spans, ids = self._local, self.spans, self._ids

        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            sid = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans.append((sid, parent, span, start, time.perf_counter(), threading.get_ident(), None))
                stack.pop()
                raise
            end = time.perf_counter()
            stack.pop()
            extra = counts(args, result) if counts else None
            spans.append((sid, parent, span, start, end, threading.get_ident(), extra))
            return result

        return traced

    # -- counts taken at the layer boundary ----------------------------------
    def _drift(self, state) -> None:
        drift = abs(state.norm() - 1.0)
        with self._lock:
            self.max_norm_drift = max(self.max_norm_drift, drift)

    def _count_evolve(self, args, result):
        state, config, steps = args
        dim = state.basis.dimension
        self._drift(result)
        with self._lock:
            if self.largest_evolve is None or (dim, steps) > self.largest_evolve[:2]:
                self.largest_evolve = (dim, steps, (state, config, steps))
        return {"amp_steps": dim * steps}

    def _count_step(self, args, result):
        self._drift(result)
        return {"amp_steps": result.basis.dimension}

    def _count_closed_form(self, args, result):
        if isinstance(result, float):
            return {"points": 1, "scalar": 1}
        return {"points": int(result.size), "scalar": 0}

    def _count_checks(self, args, result):
        return {"failed": sum(1 for r in result if not r.passed)}

    # -- replay under tracemalloc -------------------------------------------
    def peak_state_copies(self) -> float:
        """Peak bytes allocated by the largest evolve call seen, in state vectors.

        The call is replayed alone so that concurrent pool threads cannot
        inflate the peak; 0 when the workload never evolves a state.
        """
        if self.largest_evolve is None:
            return 0.0
        dim, _, (state, config, steps) = self.largest_evolve
        evolve = sys.modules["bwalk.operators"].evolve
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before, _ = tracemalloc.get_traced_memory()
            evolve(state, config, steps)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return round((peak - before) / (dim * AMPLITUDE_BYTES), 3)

    # -- aggregation ---------------------------------------------------------
    def unit_busy_s(self) -> float:
        """Busy time of the top-level calls of every thread, leaving out the
        sweep calls that only hand work to the pool threads."""
        return sum(end - start for _, parent, name, start, end, _, _ in self.spans
                   if not parent and not name.startswith("protocols.sweep_"))

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, busy seconds, self seconds and summed counts."""
        child_time: dict[int, float] = {}
        for _, parent, _, start, end, _, _ in self.spans:
            if parent:
                child_time[parent] = child_time.get(parent, 0.0) + (end - start)
        out: dict[str, dict[str, float]] = {}
        for sid, _, name, start, end, _, extra in self.spans:
            agg = out.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            agg["calls"] += 1
            agg["busy_s"] += end - start
            agg["self_s"] += end - start - child_time.get(sid, 0.0)
            if extra:
                for key, value in extra.items():
                    agg[key] = agg.get(key, 0) + value
                    if key == "scalar":
                        field = "scalar_busy_s" if value else "array_busy_s"
                        agg[field] = agg.get(field, 0.0) + (end - start)
        return out

    def write(self, path) -> None:
        """Write every span as one tab-separated line (times in microseconds)."""
        origin = min((s[3] for s in self.spans), default=0.0)
        with open(path, "w") as handle:
            handle.write("id\tparent\tname\tstart_us\tdur_us\tthread\n")
            for sid, parent, name, start, end, thread, _ in self.spans:
                handle.write(f"{sid}\t{parent}\t{name}\t{(start - origin) * 1e6:.1f}\t{(end - start) * 1e6:.1f}\t{thread}\n")
