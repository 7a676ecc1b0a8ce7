"""End-to-end transfer protocols and parameter sweeps.

Two families:

* passive transfer: pick the step count from the closed-form fidelity
  (continuous optimum rounded to the parity-correct integer), run the walk,
  report the achieved fidelity against the receiver state;
* active switch on the loop walk: start on the sender's loop, mark the
  sender for T1 steps, re-mark the receiver for T2 steps, report fidelity
  against the receiver's loop.

Both run the exact orbit-lumped walk (``lumped``) at any graph size; the
arc-space simulator is the reference the tests hold them to.

Sweeps run one independent walk or optimisation per graph size, serially
in the calling thread, and return rows in grid order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable

from . import analytic, lumped
from .graph import BipartiteSpec, Vertex
from .operators import MarkedScenario

__all__ = [
    "TransferReport",
    "SwitchSchedule",
    "switch_spec",
    "transfer_window",
    "analytic_fidelity_fn",
    "run_transfer",
    "run_active_switch",
    "sweep_max_fidelity",
    "sweep_active_switch",
]


@dataclass(frozen=True)
class TransferReport:
    """Outcome of one protocol run."""

    scenario: str
    flavor: str | None
    n1: int
    n2: int
    steps: int
    fidelity: float
    continuous_steps: float
    continuous_fidelity: float
    t1: int | None = None
    t2: int | None = None
    l1: float | None = None
    l2: float | None = None
    notes: tuple[str, ...] = ()

    def to_json_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "flavor": self.flavor,
            "n1": self.n1,
            "n2": self.n2,
            "steps": self.steps,
            "fidelity": self.fidelity,
            "continuous_optimum": [self.continuous_steps, self.continuous_fidelity],
            "t1": self.t1,
            "t2": self.t2,
            "l1": self.l1,
            "l2": self.l2,
            "notes": list(self.notes),
        }


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


@dataclass(frozen=True)
class SwitchSchedule:
    """Loop weights and phase lengths of the active-switch protocol."""

    n1: int
    n2: int
    l1: float
    l2: float
    t1: int
    t2: int
    notes: tuple[str, ...] = field(default=())

    @classmethod
    def for_transfer(cls, n1: int, n2: int, receiver_partition: int) -> "SwitchSchedule":
        if n1 < 2 or n2 < 2:
            raise ValueError("active switch needs n1, n2 >= 2")
        theta_s = analytic.lqw_angle(n1)
        theta_r = analytic.lqw_angle(n1 if receiver_partition == 1 else n2)
        notes = []
        phases = []
        for name, theta in (("t1", theta_s), ("t2", theta_r)):
            exact = math.pi / theta
            rounded = _round_half_up(exact)
            if abs(exact - (math.floor(exact) + 0.5)) < 1e-9:
                notes.append(f"{name}: pi/theta is a half-integer; rounded half-up to {rounded}")
            phases.append(rounded)
        return cls(
            n1=n1,
            n2=n2,
            l1=n2 / (2 * n1),
            l2=n1 / (2 * n2),
            t1=phases[0],
            t2=phases[1],
            notes=tuple(notes),
        )


def switch_spec(n1: int, n2: int) -> BipartiteSpec:
    """Graph spec carrying the loop weights the active switch prescribes."""
    return BipartiteSpec(n1, n2, l1=n2 / (2 * n1), l2=n1 / (2 * n2))


def transfer_window(n1: int, n2: int) -> tuple[float, float]:
    """Search window for the continuous fidelity maximum."""
    return (0.0, 5.0 * math.sqrt(n1 + n2))


def analytic_fidelity_fn(kind: str, flavor: str, n1: int, n2: int) -> Callable:
    """Closed-form fidelity (as a function of steps) for a transfer scenario."""
    if kind == "diff" and flavor == "gg":
        return lambda steps: analytic.fidelity_diff_gg(n1, n2, steps)
    if kind == "diff" and flavor == "gi":
        return lambda steps: analytic.fidelity_diff_gi(n1, n2, steps)
    if kind == "same" and flavor == "gg":
        return lambda steps: analytic.fidelity_same(n1, steps)
    raise ValueError(f"no closed-form fidelity for scenario {kind!r} with flavor {flavor!r}")


def run_transfer(spec: BipartiteSpec, scenario: MarkedScenario) -> TransferReport:
    """Run a passive transfer: optimal parity-correct step count, exact evolution.

    The step count is the parity-correct integer nearest the continuous
    optimum of the closed form, and the reported fidelity comes from the
    exact walk on the arc orbits of the marked sender and receiver.
    """
    if spec.l1 != 0 or spec.l2 != 0:
        raise ValueError("passive transfer runs on the loop-free walk")
    if scenario.kind not in ("diff", "same"):
        raise ValueError("run_transfer handles the diff and same scenarios")
    scenario.validate_spec(spec)
    f = analytic_fidelity_fn(scenario.kind, scenario.flavor, spec.n1, spec.n2)
    x_star, f_star = analytic.maximize_fidelity(f, transfer_window(spec.n1, spec.n2))
    steps = analytic.best_parity_step(f, x_star, scenario.parity)
    space = lumped.orbit_space(spec, scenario.marked_vertices())
    walk = lumped.walk_operator(space, scenario.coin_overrides())
    state = lumped.evolve(lumped.edge_state(space, scenario.sender), walk, steps)
    achieved = lumped.fidelity(state, lumped.edge_state(space, scenario.receiver))
    return TransferReport(
        scenario=scenario.kind,
        flavor=scenario.flavor,
        n1=spec.n1,
        n2=spec.n2,
        steps=steps,
        fidelity=achieved,
        continuous_steps=x_star,
        continuous_fidelity=f_star,
    )


def run_active_switch(spec: BipartiteSpec, sender: Vertex, receiver: Vertex) -> TransferReport:
    """Run the two-phase active-switch transfer from loop to loop.

    ``spec`` must carry the prescribed loop weights (``switch_spec``); the
    sender sits in partition 1 and must differ from the receiver.
    """
    if sender.partition != 1:
        raise ValueError("sender vertex must be in partition 1")
    if sender == receiver:
        raise ValueError("active switch needs distinct sender and receiver")
    spec.vertex(*sender)
    spec.vertex(*receiver)
    schedule = SwitchSchedule.for_transfer(spec.n1, spec.n2, receiver.partition)
    if not (
        math.isclose(spec.l1, schedule.l1, rel_tol=1e-9, abs_tol=0.0)
        and math.isclose(spec.l2, schedule.l2, rel_tol=1e-9, abs_tol=0.0)
    ):
        raise ValueError(
            f"active switch requires loop weights l1={schedule.l1!r}, l2={schedule.l2!r}"
        )
    space = lumped.orbit_space(spec, (sender, receiver))
    state = lumped.loop_state(space, sender)
    for marked, steps in ((sender, schedule.t1), (receiver, schedule.t2)):
        walk = lumped.walk_operator(space, MarkedScenario.single_marked(marked).coin_overrides())
        state = lumped.evolve(state, walk, steps)
    achieved = lumped.fidelity(state, lumped.loop_state(space, receiver))
    theta_s = analytic.lqw_angle(spec.n1)
    theta_r = analytic.lqw_angle(spec.n1 if receiver.partition == 1 else spec.n2)
    placement = "same" if receiver.partition == 1 else "diff"
    return TransferReport(
        scenario="active-switch-" + placement,
        flavor=None,
        n1=spec.n1,
        n2=spec.n2,
        steps=schedule.t1 + schedule.t2,
        fidelity=achieved,
        continuous_steps=math.pi / theta_s + math.pi / theta_r,
        continuous_fidelity=1.0,
        t1=schedule.t1,
        t2=schedule.t2,
        l1=spec.l1,
        l2=spec.l2,
        notes=schedule.notes,
    )


def sweep_max_fidelity(n1: int, n2_values: Iterable[int], flavor: str) -> list[tuple[int, float, float]]:
    """Per opposite-partition size: (n2, best fidelity, best continuous step count).

    Uses the closed form throughout, so n2 = 1 is allowed.
    """
    values = list(n2_values)
    if not values:
        raise ValueError("empty sweep range")

    def one(n2: int) -> tuple[int, float, float]:
        f = analytic_fidelity_fn("diff", flavor, n1, n2)
        x_star, f_star = analytic.maximize_fidelity(f, transfer_window(n1, n2))
        return (n2, f_star, x_star)

    return [one(n2) for n2 in values]


def sweep_active_switch(
    n1_values: Iterable[int], n2_values: Iterable[int], placement: str
) -> list[tuple[int, int, float]]:
    """Final active-switch fidelity over a grid of sizes.

    ``placement`` is ``"diff"`` (receiver in partition 2) or ``"same"``
    (receiver in partition 1; needs n1 >= 2 which the schedule enforces).
    """
    if placement not in ("diff", "same"):
        raise ValueError(f"unknown placement {placement!r}")
    grid = [(a, b) for a in n1_values for b in n2_values]
    if not grid:
        raise ValueError("empty sweep range")

    receiver = Vertex(2, 0) if placement == "diff" else Vertex(1, 1)
    return [
        (n1, n2, run_active_switch(switch_spec(n1, n2), Vertex(1, 0), receiver).fidelity)
        for n1, n2 in grid
    ]
