"""bwalk benchmark: run one workload and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (see workloads.py) from the source tree next to this
directory (``src/``), checks every result against the stored reference and
prints, as the last line of stdout, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The line before it is a JSON
record of the machine and the run; both are also written to
``.bench_out/BENCH_<workload>_trace<t>.json``.

--trace 0 reports the end-to-end metrics of BENCHMARK.json: set-up time
(median of seven set-ups, six of them in fresh processes), the mean pass
wall time, the median operation latency of a pass averaged over the passes,
the workload's tail percentile of all latencies (with at least ten samples
beyond, or the slowest operation where the workload says so; the record
names the percentile and the samples beyond), and peak RSS.  Passes repeat
until --seconds have gone and the tail is resolved.

--trace 1 first runs untraced passes for --seconds (the base of
trace.overhead_s), then a fixed number of traced passes with wrappers around
bwalk's public functions (instrument.py), replays the largest evolve call
under tracemalloc, and for the pooled sweeps runs one more pass with
BWALK_THREADS=1; it reports the per-layer metrics.  The spans go to
``.bench_out/trace-<workload>.tsv``.

Exit codes: 0 all results correct, 1 an oracle check failed, 2 usage error
or no bwalk source tree.  ``--inject-fault`` corrupts one reference value
and must therefore exit 1.  See also make_reference.py and smoke.py.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import instrument

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
OUT = ROOT / ".bench_out"
SETUP_CHILDREN = 6  # set-ups in fresh processes, besides this process's own
TAIL_BEYOND = 10  # op_tail_ms: the percentile must have this many samples beyond it
MAX_MEASURE_S = 120.0  # stop adding passes here even if the tail is not resolved


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: smoke-test sizes (needs --reference-dir)")
    parser.add_argument("--reference-dir", type=Path, default=HERE / "reference")
    parser.add_argument("--inject-fault", action="store_true",
                        help="oracle self-test: corrupt one reference value; the run must fail")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def fail(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def load_program():
    """Import bwalk from this checkout's source tree, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "bwalk" / "__init__.py").is_file():
        fail(f"no bwalk source tree at {src}")
    sys.path.insert(0, str(src))
    import bwalk
    import workloads

    if Path(bwalk.__file__).resolve().parent != (src / "bwalk").resolve():
        fail(f"imported bwalk from {bwalk.__file__}, not from {src}")
    return workloads


def set_up(args):
    """Import, generate the inputs, run one untimed warm-up operation."""
    start = time.perf_counter()
    workloads = load_program()
    if args.workload not in workloads.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; known: {', '.join(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload](args.size, args.seed)
    workload.warm_up()
    return workloads, workload, time.perf_counter() - start


def child_set_up(args) -> float:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--size", args.size, "--setup-only"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    return json.loads(proc.stdout.splitlines()[-1])["setup_s"]


def judge(workload, outcomes: list[tuple], reference: dict, tally) -> None:
    """Oracle checks of one pass; output the checker cannot parse is a failure."""
    for label, value, _ in outcomes:
        try:
            workload.check(label, value, reference, tally)
        except (ValueError, KeyError, TypeError, AttributeError):
            tally.record(1, 1)


def measure(workload, seconds: float, min_ops: int, reference: dict, tally) -> tuple[list, list]:
    """Whole passes until ``seconds`` have gone and ``min_ops`` operations ran.

    Returns the pass wall times and, per pass, the operation latencies.
    Oracle checks run between passes, outside the timed region.
    """
    walls: list[float] = []
    passes: list[list[float]] = []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        outcomes = workload.run_pass(len(walls))
        walls.append(time.perf_counter() - began)
        passes.append([latency for _, _, latency in outcomes])
        judge(workload, outcomes, reference, tally)
        elapsed = time.perf_counter() - start
        if elapsed >= MAX_MEASURE_S or (elapsed >= seconds and sum(map(len, passes)) >= min_ops):
            return walls, passes


def tail_ops(percentile: float) -> int:
    """Fewest samples that leave TAIL_BEYOND of them beyond ``percentile``
    (one for the slowest operation, percentile 100)."""
    if percentile >= 100:
        return 1
    n = TAIL_BEYOND
    while n - rank(percentile, n) < TAIL_BEYOND:
        n += 1
    return n


def rank(pct: float, n: int) -> int:
    """Nearest rank (1-based) of the ``pct`` percentile among ``n`` samples."""
    return max(1, math.ceil(round(pct * n / 100, 9)))


def percentile(latencies: list[float], pct: float) -> float:
    return sorted(latencies)[rank(pct, len(latencies)) - 1]


def end_to_end(args, workload, setup_s: float, reference: dict, tally) -> tuple[dict, dict]:
    setups = [setup_s] + [child_set_up(args) for _ in range(SETUP_CHILDREN)]
    pct = workload.tail_percentile
    walls, passes = measure(workload, args.seconds, tail_ops(pct), reference, tally)
    latencies = [latency for latencies in passes for latency in latencies]
    values = {
        "setup_s": statistics.median(setups),
        # means over passes: on a shared 2-vCPU host the CPU alternates between
        # speeds every few seconds.  A run's median pass jumps between them, and
        # the median of all its latencies sits at the edge of one operation's
        # cluster of latencies, so it moves twice as much as the mean pass
        "wall_s": statistics.fmean(walls),
        "op_p50_ms": statistics.fmean(statistics.median(latencies) for latencies in passes) * 1e3,
        "op_tail_ms": percentile(latencies, pct) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    record = {"setup_samples_s": setups, "pass_walls_s": walls, "ops": len(latencies),
              "op_tail_percentile": pct,
              "op_tail_samples_beyond": len(latencies) - rank(pct, len(latencies))}
    return values, record


def per_layer(args, workload, reference: dict, tally) -> tuple[dict, dict]:
    walls, _ = measure(workload, args.seconds, 1, reference, tally)
    wall = statistics.fmean(walls)

    tracer = instrument.Tracer()
    traced_walls = []
    workload.output_bytes = 0
    for i in range(workload.trace_passes):
        tracer.install()
        began = time.perf_counter()
        try:
            outcomes = workload.run_pass(i)
        finally:
            traced_walls.append(time.perf_counter() - began)
            tracer.uninstall()
        judge(workload, outcomes, reference, tally)
    copies = tracer.peak_state_copies()

    serial_wall = 0.0
    workers = max(tracer.pool_sizes, default=0)
    if workload.pooled:  # a plain single-thread pass as the baseline
        saved = os.environ.get("BWALK_THREADS")
        os.environ["BWALK_THREADS"] = "1"
        try:
            serial_walls, _ = measure(workload, 0.0, 1, reference, tally)
        finally:
            if saved is None:
                del os.environ["BWALK_THREADS"]
            else:
                os.environ["BWALK_THREADS"] = saved
        serial_wall = serial_walls[0]

    spans = tracer.summary()

    def get(name: str, key: str):
        return spans.get(name, {}).get(key, 0)

    amp_steps = get("operators.evolve", "amp_steps")
    evolve_busy = get("operators.evolve", "busy_s")
    optimizer_calls = get("analytic.maximize_fidelity", "calls")
    values = {
        "operators.evolve.calls": get("operators.evolve", "calls"),
        "operators.evolve.amp_steps": amp_steps,
        "operators.evolve.busy_s": evolve_busy,
        "operators.evolve.ns_per_amp_step": evolve_busy / amp_steps * 1e9 if amp_steps else 0.0,
        "operators.evolve.peak_state_copies": copies,
        "operators.step.calls": get("operators.step", "calls"),
        "operators.step.busy_s": get("operators.step", "busy_s"),
        "graph.build_basis.calls": get("graph.build_basis", "calls"),
        "graph.build_basis.busy_s": get("graph.build_basis", "busy_s"),
        "graph.states.busy_s": get("graph.states", "busy_s"),
        "graph.fidelity.busy_s": get("graph.fidelity", "busy_s"),
        "analytic.maximize_fidelity.calls": optimizer_calls,
        "analytic.maximize_fidelity.ms_per_call": (
            get("analytic.maximize_fidelity", "busy_s") / optimizer_calls * 1e3 if optimizer_calls else 0.0),
        "analytic.closed_form.calls": get("analytic.closed_form", "calls"),
        "analytic.closed_form.scalar_calls": get("analytic.closed_form", "scalar"),
        "analytic.closed_form.points": get("analytic.closed_form", "points"),
        "analytic.closed_form.array_busy_s": get("analytic.closed_form", "array_busy_s"),
        "analytic.closed_form.scalar_busy_s": get("analytic.closed_form", "scalar_busy_s"),
        "reduced.build_subspace.busy_s": get("reduced.build_subspace", "busy_s"),
        "reduced.reduced_matrix.busy_s": get("reduced.reduced_matrix", "busy_s"),
        "reduced.eigensystem.busy_s": get("reduced.eigensystem", "busy_s"),
        "reduced.project.busy_s": get("reduced.project", "busy_s"),
        "verify.run_checks.busy_s": get("verify.run_checks", "busy_s"),
        "verify.checks_failed": get("verify.run_checks", "failed"),
        "protocols.run_transfer.busy_s": get("protocols.run_transfer", "busy_s"),
        "protocols.run_active_switch.calls": get("protocols.run_active_switch", "calls"),
        "protocols.run_active_switch.busy_s": get("protocols.run_active_switch", "busy_s"),
        "protocols.pool_workers": workers,
        "protocols.concurrency": tracer.unit_busy_s() / sum(traced_walls),
        "protocols.serial_wall_s": serial_wall,
        "protocols.pool_efficiency": serial_wall / (workers * wall) if serial_wall and workers else 0.0,
        "cli.main.busy_s": get("cli.main", "busy_s"),
        "cli.self_s": get("cli.main", "self_s"),
        "cli.output_bytes": workload.output_bytes,
        "health.max_fidelity_gap": tally.max_fidelity_gap,
        "health.max_norm_drift": tracer.max_norm_drift,
        "health.max_ref_err": tally.max_ref_err,
        "trace.overhead_s": statistics.fmean(traced_walls) - wall,
        "fail_frac": tally.failed / tally.attempted,
    }
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"trace-{workload.name}.tsv")
    record = {"untraced_pass_walls_s": walls, "traced_pass_walls_s": traced_walls,
              "traced_passes": workload.trace_passes, "spans": len(tracer.spans),
              "span_summary": spans}
    return values, record


def pool_workers():
    """Worker count the sweeps resolve to under the current environment
    (None if the program no longer exposes its resolver)."""
    resolve = getattr(sys.modules["bwalk.protocols"], "_max_workers", None)
    return resolve() if resolve else None


def machine(args, workload) -> dict:
    import numpy

    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            caches[f"L{level}"] = size
    model = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "workload": workload.name, "seed": args.seed, "size": args.size, "trace": args.trace,
        "run_seconds": args.seconds, "nproc": os.cpu_count(), "cpu_model": model,
        "caches_per_core": caches, "python": platform.python_version(), "numpy": numpy.__version__,
        "pool_workers_resolved": pool_workers(),
        "state_bytes_computed": workload.state_bytes(),
    }


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    workloads, workload, setup_s = set_up(args)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    reference = json.loads((args.reference_dir / f"{workload.name}.json").read_text())
    if reference.get("size") != args.size:
        fail(f"reference in {args.reference_dir} is for size {reference.get('size')!r}")
    if args.inject_fault:
        workload.corrupt(reference)
    tally = workloads.Tally()
    if args.trace:
        values, run_record = per_layer(args, workload, reference, tally)
    else:
        values, run_record = end_to_end(args, workload, setup_s, reference, tally)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer" if args.trace else "end_to_end"]
    record = machine(args, workload)
    record.update(run_record)
    record.update({"attempted": tally.attempted, "failed": tally.failed,
                   "fail_frac": tally.failed / tally.attempted, "inject_fault": args.inject_fault})
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"BENCH_{workload.name}_trace{args.trace}.json").write_text(
        json.dumps({"record": record, "result": result}, indent=1) + "\n")
    print(json.dumps({"record": {k: v for k, v in record.items() if k != "span_summary"}}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
