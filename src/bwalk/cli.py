"""Command-line front end: curves, sweeps, protocol runs, and verification.

Subcommands emit plot-ready CSV (RFC-4180 line endings, floats at 12
significant digits) or JSON; identical invocations produce byte-identical
output.  Simulated fidelities come from the exact orbit-lumped walk at
every graph size.  Exit codes: 0 success, 1 verification failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys

from . import lumped, protocols, verify
from .graph import BipartiteSpec, Vertex
from .operators import MarkedScenario

__all__ = ["main"]


class UsageError(Exception):
    pass


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def _write_output(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", newline="") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _csv_text(header: list[str], rows: list[list]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(cell) for cell in row])
    return buffer.getvalue()


def _table_text(header: list[str], rows: list[list], fmt: str) -> str:
    if fmt == "csv":
        return _csv_text(header, rows)
    payload = {"columns": header, "rows": rows}
    return json.dumps(payload, indent=2) + "\n"


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise UsageError(message)


def _parse_range(raw: str, name: str) -> range:
    parts = raw.split(":")
    _require(len(parts) == 2, f"{name} must look like A:B")
    try:
        lo, hi = int(parts[0]), int(parts[1])
    except ValueError:
        raise UsageError(f"{name} bounds must be integers") from None
    _require(lo >= 1, f"{name} lower bound must be >= 1")
    _require(hi >= lo, f"{name} is an empty range")
    return range(lo, hi + 1)


def _validate_sizes(n1: int, n2: int) -> None:
    _require(n1 >= 1, "n1 must be >= 1")
    _require(n2 >= 1, "n2 must be >= 1")


def _scenario_from_args(args) -> MarkedScenario:
    _require(args.s_index >= 0 and args.r_index >= 0, "vertex indices must be >= 0")
    if args.scenario == "diff":
        _require(args.r_index < args.n2, "--r-index out of range for partition 2")
        return MarkedScenario.diff_partition(args.s_index, args.r_index, args.flavor)
    _require(args.flavor == "gg", "the same-partition scenario supports the gg flavor only")
    _require(args.s_index != args.r_index, "sender and receiver must be distinct vertices")
    _require(max(args.s_index, args.r_index) < args.n1, "vertex index out of range for partition 1")
    return MarkedScenario.same_partition(args.s_index, args.r_index, "gg")


def cmd_fidelity_curve(args) -> int:
    _validate_sizes(args.n1, args.n2)
    _require(args.s_index < args.n1, "--s-index out of range for partition 1")
    scenario = _scenario_from_args(args)
    f = protocols.analytic_fidelity_fn(scenario.kind, scenario.flavor, args.n1, args.n2)
    max_steps = args.steps if args.steps is not None else int(math.ceil(protocols.transfer_window(args.n1, args.n2)[1]))
    _require(max_steps >= 1, "steps must be >= 1")

    space = lumped.orbit_space(BipartiteSpec(args.n1, args.n2), scenario.marked_vertices())
    walk = lumped.walk_operator(space, scenario.coin_overrides())
    state = lumped.edge_state(space, scenario.sender)
    target = lumped.edge_state(space, scenario.receiver)
    simulated = []
    for _ in range(max_steps):
        state = walk @ state
        simulated.append(lumped.fidelity(state, target))

    rows = []
    for k in range(1, 20 * max_steps + 1):
        steps = k / 20  # exact integers every 20th sample
        analytic_value = float(f(steps))
        if k % 20 == 0:
            parity = "odd" if (k // 20) % 2 else "even"
            sim = _fmt(simulated[k // 20 - 1])
        else:
            parity, sim = "", ""
        rows.append([_fmt(steps), _fmt(analytic_value), sim, parity])
    header = ["steps", "fidelity_analytic", "fidelity_simulated", "parity"]
    _write_output(_table_text(header, rows, args.format), args.out)
    return 0


def cmd_sweep(args) -> int:
    if args.grid:
        grid = _parse_range(args.grid, "--grid")
        _require(grid.start >= 2, "--grid sizes must be >= 2 for the active switch")
        placements = [args.placement] if args.placement else ["diff", "same"]
        rows = []
        for placement in placements:
            for n1, n2, value in protocols.sweep_active_switch(grid, grid, placement):
                rows.append([n1, n2, placement, _fmt(value)])
        header = ["n1", "n2", "placement", "fidelity"]
    elif args.n2_range and args.placement:
        _validate_sizes(args.n1, 1)
        n2_range = _parse_range(args.n2_range, "--n2-range")
        _require(args.n1 >= 2, "--n1 must be >= 2 for the active switch")
        _require(n2_range.start >= 2, "--n2-range must start at >= 2 for the active switch")
        results = protocols.sweep_active_switch([args.n1], n2_range, args.placement)
        rows = [[n2, _fmt(value)] for _, n2, value in results]
        header = ["n2", "fidelity"]
    elif args.n2_range:
        _validate_sizes(args.n1, 1)
        n2_range = _parse_range(args.n2_range, "--n2-range")
        gg = protocols.sweep_max_fidelity(args.n1, n2_range, "gg")
        gi = protocols.sweep_max_fidelity(args.n1, n2_range, "gi")
        rows = [
            [n2, _fmt(fgg), _fmt(sgg), _fmt(fgi), _fmt(sgi)]
            for (n2, fgg, sgg), (_, fgi, sgi) in zip(gg, gi)
        ]
        header = ["n2", "fmax_gg", "steps_gg", "fmax_gi", "steps_gi"]
    else:
        raise UsageError("sweep needs --n2-range (closed-form or active-switch row) or --grid (active-switch grid)")
    _write_output(_table_text(header, rows, args.format), args.out)
    return 0


def cmd_transfer(args) -> int:
    _validate_sizes(args.n1, args.n2)
    _require(args.s_index < args.n1, "--s-index out of range for partition 1")
    scenario = _scenario_from_args(args)
    try:
        report = protocols.run_transfer(BipartiteSpec(args.n1, args.n2), scenario)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    _write_output(json.dumps(report.to_json_dict(), indent=2) + "\n", args.out)
    return 0


def cmd_active_switch(args) -> int:
    _validate_sizes(args.n1, args.n2)
    _require(args.n1 >= 2 and args.n2 >= 2, "active switch needs n1, n2 >= 2")
    _require(args.s_index >= 0 and args.r_index >= 0, "vertex indices must be >= 0")
    sender = Vertex(1, args.s_index)
    receiver = Vertex(2 if args.placement == "diff" else 1, args.r_index)
    _require(sender.index < args.n1, "--s-index out of range for partition 1")
    _require(
        receiver.index < (args.n2 if receiver.partition == 2 else args.n1),
        "--r-index out of range",
    )
    _require(sender != receiver, "sender and receiver must be distinct vertices")
    try:
        report = protocols.run_active_switch(protocols.switch_spec(args.n1, args.n2), sender, receiver)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    _write_output(json.dumps(report.to_json_dict(), indent=2) + "\n", args.out)
    return 0


def cmd_verify(args) -> int:
    names = [args.check] if args.check else None
    try:
        results = verify.run_checks(
            names, n1=args.n1, n2=args.n2, seed=args.seed, inject_fault=args.inject_fault
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    lines = []
    for result in results:
        status = "PASS" if result.passed else "FAIL"
        lines.append(
            f"{result.name:<12} residual {result.residual:.3e}  tol {result.tolerance:.0e}  {status}  ({result.detail})"
        )
    text = "\n".join(lines) + "\n"
    _write_output(text, args.out)
    return 0 if all(r.passed for r in results) else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bwalk",
        description="Coined quantum walks and state transfer on complete bipartite graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, n2_default=None):
        p.add_argument("--n1", type=int, required=True, help="size of partition 1")
        if n2_default is None:
            p.add_argument("--n2", type=int, required=True, help="size of partition 2")
        else:
            p.add_argument("--n2", type=int, default=n2_default, help="size of partition 2")
        p.add_argument("--out", help="output path (default: stdout)")

    curve = sub.add_parser("fidelity-curve", help="fidelity vs step count, analytic and simulated")
    add_common(curve, n2_default=1)
    curve.add_argument("--scenario", choices=("diff", "same"), required=True)
    curve.add_argument("--flavor", choices=("gg", "gi"), default="gg")
    curve.add_argument("--steps", type=int, help="largest step count (default: optimization window)")
    curve.add_argument("--s-index", type=int, default=0)
    curve.add_argument("--r-index", type=int, default=None)
    curve.add_argument("--format", choices=("csv", "json"), default="csv")
    curve.set_defaults(func=cmd_fidelity_curve)

    sweep = sub.add_parser("sweep", help="parameter sweeps (closed-form maxima or active-switch fidelities)")
    sweep.add_argument("--n1", type=int, default=100, help="fixed size of partition 1")
    sweep.add_argument("--n2-range", help="A:B inclusive range for partition 2")
    sweep.add_argument("--grid", help="A:B inclusive range for both partitions (active-switch grid)")
    sweep.add_argument("--placement", choices=("diff", "same"))
    sweep.add_argument("--format", choices=("csv", "json"), default="csv")
    sweep.add_argument("--out", help="output path (default: stdout)")
    sweep.set_defaults(func=cmd_sweep)

    transfer = sub.add_parser("transfer", help="one passive transfer run (report as JSON)")
    add_common(transfer)
    transfer.add_argument("--scenario", choices=("diff", "same"), required=True)
    transfer.add_argument("--flavor", choices=("gg", "gi"), default="gg")
    transfer.add_argument("--s-index", type=int, default=0)
    transfer.add_argument("--r-index", type=int, default=None)
    transfer.set_defaults(func=cmd_transfer)

    active = sub.add_parser("active-switch", help="one active-switch run (report as JSON)")
    add_common(active)
    active.add_argument("--placement", choices=("diff", "same"), required=True)
    active.add_argument("--s-index", type=int, default=0)
    active.add_argument("--r-index", type=int, default=None)
    active.set_defaults(func=cmd_active_switch)

    check = sub.add_parser("verify", help="run self-verification suites")
    check.add_argument("--check", choices=verify.CHECK_NAMES, help="run one suite only")
    check.add_argument("--n1", type=int, default=8)
    check.add_argument("--n2", type=int, default=6)
    check.add_argument("--seed", type=int, default=20250810, help="seed for random-state property checks")
    check.add_argument("--inject-fault", action="store_true", help="self-test: corrupt one matrix sign; must FAIL")
    check.add_argument("--out", help="output path (default: stdout)")
    check.set_defaults(func=cmd_verify)

    return parser


def _fill_vertex_defaults(args) -> None:
    if getattr(args, "r_index", None) is None and hasattr(args, "r_index"):
        if getattr(args, "scenario", None) == "same":
            args.r_index = 1
        elif getattr(args, "placement", None) == "same":
            args.r_index = 1
        else:
            args.r_index = 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    _fill_vertex_defaults(args)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
