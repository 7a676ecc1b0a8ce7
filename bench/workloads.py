"""The four benchmark workloads: inputs from a seed, operations, oracle checks.

A workload runs in passes; one pass is the workload's whole operation list
(for the sweeps, the whole figure).  An operation is one call of bwalk's
public API: run_transfer, one sweep call, or one cli.main(argv).  The sweeps
make the calls the README's sweep commands make: one per placement or
flavor, each over the whole range on the sweep's thread pool.  Inputs come
from the seed: sender and receiver indices, and the order of the operations
in each pass.  By the symmetry of the complete bipartite graph the results
do not depend on them, so every pass is checked against one stored
reference.

Why these four:

* passive-large -- run_transfer at n1 = n2 = 1000: dimension 2e6, a 32 MB
  state vector, far beyond L2.  Nearly all time is the full simulator
  (operators.evolve); the optimizer is under 1 %, so this workload bypasses
  changes to the analytic layer.
* switch-grid -- the README's ``sweep --grid 16:60`` for both placements,
  one sweep_active_switch call over the 45x45 grid per placement: 4050
  active-switch runs at dimension <= 7.3e3 on the thread pool.  Same
  evolve as passive-large at the opposite working-set size, plus one
  build_basis per point and the pool under the GIL.
* closed-form-sweep -- the README's ``sweep --n1 100 --n2-range 1:1000`` for
  both flavors, one sweep_max_fidelity call over n2 = 1..1000 per flavor:
  2000 optimizer runs, no simulation.  Exercises the analytic layer alone and
  bypasses simulator changes.
* cli-figures -- the README's remaining commands through ``bwalk.cli.main``
  with stdout captured; the only workload that runs cli, reduced and verify,
  at 10-40 ms per command, so fixed per-call overhead dominates.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import random
import re
import time

import bwalk
from bwalk import analytic, cli, protocols

STEP_TOL = 1e-5  # continuous step positions: a flat maximum pins x only to ~1e-7
FID_TOL = 1e-9  # fidelities, residuals and every other float
FAULT = 1e-6  # added to one reference value by --inject-fault

SIZES = {
    "full": {"passive_n": 1000, "grid": (16, 60), "sweep_n1": 100, "sweep_n2": (1, 1000),
             "cli_n": 100, "cli_transfer_n2": 35},
    "tiny": {"passive_n": 12, "grid": (16, 18), "sweep_n1": 100, "sweep_n2": (1, 20),
             "cli_n": 10, "cli_transfer_n2": 4},
}

AMPLITUDE_BYTES = 16  # complex128


class Tally:
    """Oracle verdicts over compared operations."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.max_ref_err = 0.0
        self.max_fidelity_gap = 0.0

    def compare(self, got, want, tol: float) -> bool:
        err = abs(got - want)
        self.max_ref_err = max(self.max_ref_err, err)
        return err <= tol

    def gap(self, simulated: float, closed_form: float) -> bool:
        gap = abs(simulated - closed_form)
        self.max_fidelity_gap = max(self.max_fidelity_gap, gap)
        return gap <= FID_TOL

    def record(self, attempted: int, failed: int) -> None:
        self.attempted += attempted
        self.failed += failed


def _call(fn, *args):
    """(value or raised exception, latency in seconds)."""
    start = time.perf_counter()
    try:
        value = fn(*args)
    except Exception as exc:  # a raising operation counts as failed, the run goes on
        value = exc
    return value, time.perf_counter() - start


class Workload:
    name = ""
    # op_tail_ms: the highest of p90/p99 that leaves ten samples beyond it at
    # the operation count every run reaches; else 100, the slowest operation.
    # With a few slow operations per pass, a run reaches at most p50, which
    # is the median (the sweeps' 20 calls would take ~100 s on switch-grid)
    tail_percentile = 100.0
    pooled = False  # True where the operations run on bwalk's sweep thread pool
    trace_passes = 1
    output_bytes = 0  # stdout written by the operations (cli-figures only)

    def __init__(self, size: str, seed: int, canonical: bool = False) -> None:
        """``canonical``: the reference inputs (sender 0, receiver 0 or 1), not seeded ones."""
        self.size = size
        self.seed = seed
        self.canonical = canonical
        self.dims = SIZES[size]
        if size == "tiny":
            self.tail_percentile = 50.0  # smoke runs: a few passes are enough
        self.rng = random.Random(f"{self.name}/{seed}")

    def order(self, labels: list[str], index: int) -> list[str]:
        labels = list(labels)
        random.Random(f"{self.name}/{self.seed}/{index}").shuffle(labels)
        return labels

    def reference_key(self) -> dict:
        return {"workload": self.name, "size": self.size}


# -- passive-large -----------------------------------------------------------

class PassiveLarge(Workload):
    name = "passive-large"
    LABELS = ("diff/gg", "diff/gi", "same/gg")

    def __init__(self, size: str, seed: int, canonical: bool = False) -> None:
        super().__init__(size, seed, canonical)
        n = self.dims["passive_n"]
        self.spec = bwalk.BipartiteSpec(n, n)
        self.scenarios = {}
        for label in self.LABELS:
            kind, flavor = label.split("/")
            if kind == "diff":
                s, r = (0, 0) if self.canonical else (self.rng.randrange(n), self.rng.randrange(n))
                self.scenarios[label] = bwalk.MarkedScenario.diff_partition(s, r, flavor)
            else:
                s, r = (0, 1) if self.canonical else self.rng.sample(range(n), 2)
                self.scenarios[label] = bwalk.MarkedScenario.same_partition(s, r, flavor)

    def state_bytes(self) -> int:
        return 2 * self.spec.n1 * self.spec.n2 * AMPLITUDE_BYTES

    def warm_up(self) -> None:
        protocols.run_transfer(self.spec, self.scenarios["diff/gg"])

    def run_pass(self, index: int) -> list[tuple]:
        out = []
        for label in self.order(self.LABELS, index):
            value, latency = _call(protocols.run_transfer, self.spec, self.scenarios[label])
            out.append((label, value, latency))
        return out

    def reference(self) -> dict:
        ref = self.reference_key()
        for label, report, _ in self.run_pass(0):
            ref[label] = {"steps": report.steps, "fidelity": report.fidelity,
                          "continuous_steps": report.continuous_steps,
                          "continuous_fidelity": report.continuous_fidelity}
        return ref

    def check(self, label: str, report, ref: dict, tally: Tally) -> None:
        if isinstance(report, Exception):
            tally.record(1, 1)
            return
        want = ref[label]
        closed = protocols.analytic_fidelity_fn(*label.split("/"), self.spec.n1, self.spec.n2)
        ok = report.steps == want["steps"]
        ok &= tally.compare(report.fidelity, want["fidelity"], FID_TOL)
        ok &= tally.compare(report.continuous_fidelity, want["continuous_fidelity"], FID_TOL)
        ok &= tally.compare(report.continuous_steps, want["continuous_steps"], STEP_TOL)
        ok &= tally.gap(report.fidelity, float(closed(report.steps)))
        tally.record(1, int(not ok))

    @staticmethod
    def corrupt(ref: dict) -> None:
        ref["diff/gg"]["fidelity"] += FAULT


# -- switch-grid -------------------------------------------------------------

class SwitchGrid(Workload):
    name = "switch-grid"
    pooled = True
    PLACEMENTS = ("diff", "same")

    def __init__(self, size: str, seed: int, canonical: bool = False) -> None:
        super().__init__(size, seed, canonical)
        lo, hi = self.dims["grid"]
        self.grid = range(lo, hi + 1)

    def state_bytes(self) -> int:
        b = self.grid[-1]
        return (2 * b * b + 2 * b) * AMPLITUDE_BYTES

    def warm_up(self) -> None:
        protocols.sweep_active_switch([self.grid[0]], self.grid, "diff")

    def run_pass(self, index: int) -> list[tuple]:
        return [(placement,) + _call(protocols.sweep_active_switch, self.grid, self.grid, placement)
                for placement in self.order(self.PLACEMENTS, index)]

    def reference(self) -> dict:
        ref = self.reference_key()
        for placement in self.PLACEMENTS:  # n1 outer, n2 inner, as sweep --grid prints it
            ref[placement] = [f for _, _, f in protocols.sweep_active_switch(self.grid, self.grid, placement)]
        return ref

    def check(self, placement: str, rows, ref: dict, tally: Tally) -> None:
        want = ref[placement]
        cells = [(a, b) for a in self.grid for b in self.grid]
        ok = not isinstance(rows, Exception) and len(rows) == len(want)
        ok = ok and all(
            (a, b) == cell and tally.compare(f, w, FID_TOL)
            for (a, b, f), cell, w in zip(rows, cells, want)
        )
        tally.record(1, int(not ok))

    @staticmethod
    def corrupt(ref: dict) -> None:
        ref["diff"][0] += FAULT


# -- closed-form-sweep -------------------------------------------------------

class ClosedFormSweep(Workload):
    name = "closed-form-sweep"
    pooled = True
    FLAVORS = ("gg", "gi")

    def __init__(self, size: str, seed: int, canonical: bool = False) -> None:
        super().__init__(size, seed, canonical)
        lo, hi = self.dims["sweep_n2"]
        self.n1 = self.dims["sweep_n1"]
        self.n2 = range(lo, hi + 1)

    def state_bytes(self) -> int:
        return 0  # closed forms only: no state vector is ever built

    def warm_up(self) -> None:
        protocols.sweep_max_fidelity(self.n1, self.n2[:50], self.FLAVORS[0])

    def run_pass(self, index: int) -> list[tuple]:
        return [(flavor,) + _call(protocols.sweep_max_fidelity, self.n1, self.n2, flavor)
                for flavor in self.order(self.FLAVORS, index)]

    def reference(self) -> dict:
        ref = self.reference_key()
        for flavor in self.FLAVORS:
            ref[flavor] = [[fmax, x] for _, fmax, x in protocols.sweep_max_fidelity(self.n1, self.n2, flavor)]
        return ref

    def check(self, flavor: str, rows, ref: dict, tally: Tally) -> None:
        want = ref[flavor]
        ok = not isinstance(rows, Exception) and len(rows) == len(want)
        for (got_n2, fmax, x), expected_n2, (wf, wx) in zip(rows if ok else [], self.n2, want):
            ok &= got_n2 == expected_n2
            ok &= tally.compare(fmax, wf, FID_TOL)
            ok &= tally.compare(x, wx, STEP_TOL)
        tally.record(1, int(not ok))

    @staticmethod
    def corrupt(ref: dict) -> None:
        ref["gg"][0][0] += FAULT


# -- cli-figures -------------------------------------------------------------

_NUMBER = re.compile(r"[-+]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?")


def _numbers_match(got: str, want: str, tally: Tally) -> bool:
    """Same text around the numbers; integers equal, floats within FID_TOL."""
    if _NUMBER.sub("#", got) != _NUMBER.sub("#", want):
        return False
    ok = True
    for g, w in zip(_NUMBER.findall(got), _NUMBER.findall(want)):
        is_int = not any(c in w for c in ".eE")
        ok &= tally.compare(float(g), float(w), 0.0 if is_int else FID_TOL)
    return ok


def _json_match(got, want, tally: Tally, key: str = "") -> bool:
    if isinstance(want, dict):
        return (isinstance(got, dict) and got.keys() == want.keys()
                and all(_json_match(got[k], want[k], tally, k) for k in want))
    if isinstance(want, list):
        return (isinstance(got, list) and len(got) == len(want)
                and all(_json_match(g, w, tally, f"{key}.{i}") for i, (g, w) in enumerate(zip(got, want))))
    if isinstance(want, float):
        tol = STEP_TOL if key == "continuous_optimum.0" else FID_TOL
        return isinstance(got, (int, float)) and tally.compare(got, want, tol)
    return got == want


class CliFigures(Workload):
    name = "cli-figures"
    tail_percentile = 90.0  # 7 commands per ~0.15 s pass
    trace_passes = 20  # one pass is ~0.1 s; per-layer times need more than one

    def __init__(self, size: str, seed: int, canonical: bool = False) -> None:
        super().__init__(size, seed, canonical)
        n, n2t = str(self.dims["cli_n"]), self.dims["cli_transfer_n2"]
        size_n = self.dims["cli_n"]

        def pick(same: bool, n_receiver: int) -> list[str]:
            if self.canonical:
                return []
            if same:
                s, r = self.rng.sample(range(size_n), 2)
            else:
                s, r = self.rng.randrange(size_n), self.rng.randrange(n_receiver)
            return ["--s-index", str(s), "--r-index", str(r)]

        curve = ["fidelity-curve", "--n1", n, "--n2", n]
        self.argv = {
            "curve-diff-gg": curve + ["--scenario", "diff", "--flavor", "gg"] + pick(False, size_n),
            "curve-diff-gi": curve + ["--scenario", "diff", "--flavor", "gi"] + pick(False, size_n),
            "curve-same": curve + ["--scenario", "same"] + pick(True, size_n),
            "transfer": ["transfer", "--n1", n, "--n2", str(n2t), "--scenario", "diff", "--flavor", "gg"]
            + pick(False, n2t),
            "switch-diff": ["active-switch", "--n1", n, "--n2", n, "--placement", "diff"] + pick(False, size_n),
            "switch-same": ["active-switch", "--n1", n, "--n2", n, "--placement", "same"] + pick(True, size_n),
            "verify": ["verify"],
        }

    def state_bytes(self) -> int:
        n = self.dims["cli_n"]
        return (2 * n * n + 2 * n) * AMPLITUDE_BYTES  # active switch: edge arcs plus loops

    def _main(self, argv: list[str]):
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = cli.main(argv)
        return code, buffer.getvalue()

    def warm_up(self) -> None:
        self._main(self.argv["curve-diff-gg"])

    def run_pass(self, index: int) -> list[tuple]:
        out = []
        for label in self.order(list(self.argv), index):
            value, latency = _call(self._main, self.argv[label])
            if not isinstance(value, Exception):
                self.output_bytes += len(value[1].encode())
            out.append((label, value, latency))
        return out

    def reference(self) -> dict:
        ref = self.reference_key()
        for label, (code, text), _ in self.run_pass(0):
            ref[label] = {"exit": code, "output": text}
        return ref

    def check(self, label: str, value, ref: dict, tally: Tally) -> None:
        want = ref[label]
        if isinstance(value, Exception) or value[0] != want["exit"]:
            tally.record(1, 1)
            return
        text = value[1]
        if label.startswith("switch") or label == "transfer":
            ok = _json_match(json.loads(text), json.loads(want["output"]), tally)
        else:
            ok = _numbers_match(text, want["output"], tally)
        if ok and label.startswith("curve"):
            ok = self._curve_gaps(label, text, tally)
        if ok and label == "transfer":
            report = json.loads(text)
            closed = analytic.fidelity_diff_gg(report["n1"], report["n2"], report["steps"])
            ok = tally.gap(report["fidelity"], closed)
        tally.record(1, int(not ok))

    @staticmethod
    def _curve_gaps(label: str, text: str, tally: Tally) -> bool:
        """Simulated against analytic column at every integer step of the right parity."""
        parity = "even" if label == "curve-same" else "odd"
        ok = True
        for row in csv.DictReader(io.StringIO(text)):
            if row["parity"] == parity and row["fidelity_simulated"]:
                ok &= tally.gap(float(row["fidelity_simulated"]), float(row["fidelity_analytic"]))
        return ok

    @staticmethod
    def corrupt(ref: dict) -> None:
        report = json.loads(ref["transfer"]["output"])
        report["fidelity"] += FAULT
        ref["transfer"]["output"] = json.dumps(report, indent=2) + "\n"


WORKLOADS = {w.name: w for w in (PassiveLarge, SwitchGrid, ClosedFormSweep, CliFigures)}
