import math

import numpy as np
import pytest

from bwalk import (
    BipartiteSpec,
    SwitchSchedule,
    Vertex,
    build_basis,
    evolve,
    fidelity,
    fidelity_diff_gg,
    fidelity_diff_gi,
    fidelity_same,
    loop_state,
    receiver_target_state,
    run_active_switch,
    run_transfer,
    stationary_state,
    sweep_active_switch,
    sweep_max_fidelity,
    switch_spec,
    uniform_sender_state,
)
from bwalk.operators import MarkedScenario


def test_transfer_equal_partitions():
    report = run_transfer(BipartiteSpec(100, 100), MarkedScenario.diff_partition())
    assert report.steps == 15
    assert report.fidelity == pytest.approx(0.9907, abs=5e-4)
    assert report.continuous_fidelity == pytest.approx(1.0, abs=1e-6)
    assert report.continuous_steps == pytest.approx(15.6817, abs=1e-3)


def test_transfer_unequal_partitions():
    report = run_transfer(BipartiteSpec(100, 35), MarkedScenario.diff_partition())
    assert report.steps == 47
    assert report.fidelity == pytest.approx(0.9835, abs=5e-4)
    assert report.continuous_fidelity == pytest.approx(0.99520, abs=5e-4)


def test_transfer_same_partition_independent_of_n2():
    outcomes = []
    for n2 in (5, 50):
        report = run_transfer(BipartiteSpec(100, n2), MarkedScenario.same_partition())
        assert report.steps == 22
        assert report.fidelity == pytest.approx(0.9998, abs=2e-4)
        outcomes.append(report.fidelity)
    assert abs(outcomes[0] - outcomes[1]) < 1e-10


def test_transfer_parity_guard():
    rng = np.random.default_rng(13)
    for _ in range(6):
        n1, n2 = int(rng.integers(2, 14)), int(rng.integers(2, 14))
        report = run_transfer(BipartiteSpec(n1, n2), MarkedScenario.diff_partition())
        assert report.steps % 2 == 1
        if n1 >= 2:
            report = run_transfer(BipartiteSpec(n1, max(n2, 1)), MarkedScenario.same_partition())
            assert report.steps % 2 == 0


def test_transfer_agrees_with_closed_form_at_chosen_steps():
    for n1, n2, scenario, f in (
        (9, 7, MarkedScenario.diff_partition(), lambda s: fidelity_diff_gg(9, 7, s)),
        (8, 5, MarkedScenario.diff_partition(0, 0, "gi"), lambda s: fidelity_diff_gi(8, 5, s)),
        (11, 4, MarkedScenario.same_partition(), lambda s: fidelity_same(11, s)),
    ):
        report = run_transfer(BipartiteSpec(n1, n2), scenario)
        assert abs(report.fidelity - float(f(report.steps))) < 1e-10


def test_transfer_validation():
    with pytest.raises(ValueError):
        run_transfer(BipartiteSpec(4, 4, l1=0.5, l2=0.5), MarkedScenario.diff_partition())
    with pytest.raises(ValueError):
        run_transfer(BipartiteSpec(4, 4), MarkedScenario.single_marked(Vertex(1, 0)))
    with pytest.raises(ValueError):
        run_transfer(BipartiteSpec(4, 4), MarkedScenario.same_partition(0, 1, "gi"))


def test_switch_schedule():
    schedule = SwitchSchedule.for_transfer(100, 100, receiver_partition=2)
    assert (schedule.t1, schedule.t2) == (22, 22)
    assert schedule.l1 == pytest.approx(0.5)
    schedule = SwitchSchedule.for_transfer(100, 30, receiver_partition=2)
    assert schedule.t1 == round(math.pi / math.asin(math.sqrt(2 / 100)))
    assert schedule.t2 == round(math.pi / math.asin(math.sqrt(2 / 30)))
    with pytest.raises(ValueError):
        SwitchSchedule.for_transfer(1, 30, receiver_partition=2)


def test_active_switch_reference_run():
    report = run_active_switch(switch_spec(100, 100), Vertex(1, 0), Vertex(2, 0))
    assert (report.t1, report.t2) == (22, 22)
    assert report.steps == 44
    assert report.fidelity == pytest.approx(0.981969, abs=1e-4)
    assert report.l1 == pytest.approx(0.5) and report.l2 == pytest.approx(0.5)


def test_active_switch_same_partition_placement():
    report = run_active_switch(switch_spec(100, 40), Vertex(1, 0), Vertex(1, 3))
    assert report.scenario == "active-switch-same"
    assert report.fidelity > 0.9


def test_active_switch_midpoint_stationary_overlap():
    spec = switch_spec(100, 100)
    basis = build_basis(spec)
    schedule = SwitchSchedule.for_transfer(100, 100, receiver_partition=2)
    halfway = evolve(
        loop_state(basis, Vertex(1, 0)),
        MarkedScenario.single_marked(Vertex(1, 0)).coin_config(basis),
        schedule.t1,
    )
    assert fidelity(halfway, stationary_state(basis)) >= 0.9


def test_active_switch_is_two_primitive_evolutions():
    # the protocol runs the lumped walk; the full arc-space walk is its oracle.
    # At (2, 2) the rest of the receiver's partition is empty
    for n1, n2, receiver in ((30, 24, Vertex(2, 5)), (30, 24, Vertex(1, 3)), (2, 2, Vertex(2, 1)), (2, 2, Vertex(1, 1))):
        spec = switch_spec(n1, n2)
        sender = Vertex(1, 0)
        report = run_active_switch(spec, sender, receiver)
        basis = build_basis(spec)
        schedule = SwitchSchedule.for_transfer(n1, n2, receiver_partition=receiver.partition)
        state = evolve(loop_state(basis, sender), MarkedScenario.single_marked(sender).coin_config(basis), schedule.t1)
        state = evolve(state, MarkedScenario.single_marked(receiver).coin_config(basis), schedule.t2)
        assert abs(fidelity(state, loop_state(basis, receiver)) - report.fidelity) < 1e-12


@pytest.mark.parametrize(
    "n1, n2, scenario",
    [
        (9, 7, MarkedScenario.diff_partition(2, 4, "gg")),
        (9, 7, MarkedScenario.diff_partition(2, 4, "gi")),
        (9, 7, MarkedScenario.same_partition(3, 5, "gg")),
        # sizes where a vertex class is empty
        (1, 1, MarkedScenario.diff_partition(0, 0, "gg")),
        (1, 1, MarkedScenario.diff_partition(0, 0, "gi")),
        (1, 3, MarkedScenario.diff_partition(0, 1, "gg")),
        (2, 1, MarkedScenario.diff_partition(1, 0, "gi")),
        (2, 1, MarkedScenario.same_partition(1, 0, "gg")),
    ],
)
def test_transfer_matches_full_evolution(n1, n2, scenario):
    spec = BipartiteSpec(n1, n2)
    report = run_transfer(spec, scenario)
    basis = build_basis(spec)
    state = evolve(uniform_sender_state(basis, scenario.sender), scenario.coin_config(basis), report.steps)
    assert abs(fidelity(state, receiver_target_state(basis, scenario.receiver)) - report.fidelity) < 1e-12


def test_active_switch_validation():
    spec = switch_spec(20, 20)
    with pytest.raises(ValueError):
        run_active_switch(spec, Vertex(1, 0), Vertex(1, 0))  # s == r
    with pytest.raises(ValueError):
        run_active_switch(spec, Vertex(2, 0), Vertex(1, 1))  # sender not in partition 1
    with pytest.raises(ValueError):
        run_active_switch(BipartiteSpec(20, 20, l1=1.0, l2=1.0), Vertex(1, 0), Vertex(2, 0))
    with pytest.raises(ValueError):
        run_active_switch(switch_spec(20, 20), Vertex(1, 0), Vertex(2, 25))


def test_active_switch_tiny_graph_stays_in_range():
    report = run_active_switch(switch_spec(2, 2), Vertex(1, 0), Vertex(2, 0))
    assert 0.0 <= report.fidelity <= 1.0


def test_active_switch_small_grid_both_placements():
    for placement in ("diff", "same"):
        rows = sweep_active_switch(range(16, 25, 4), range(16, 25, 4), placement)
        assert all(value > 0.9 for _, _, value in rows)
        assert [r[:2] for r in rows] == [(a, b) for a in (16, 20, 24) for b in (16, 20, 24)]


def test_active_switch_improves_with_size():
    values = [run_active_switch(switch_spec(n, n), Vertex(1, 0), Vertex(2, 0)).fidelity for n in (25, 50, 100)]
    assert values[0] < values[1] < values[2]


def test_sweep_max_fidelity_reference_rows():
    rows = dict()
    for n2, f_star, steps_star in sweep_max_fidelity(100, [1, 10, 100], "gg"):
        rows[n2] = (f_star, steps_star)
    assert rows[100][0] == pytest.approx(1.0, abs=1e-6)
    assert rows[10][0] == pytest.approx(0.9902, abs=5e-4)
    assert math.isfinite(rows[1][0]) and 0 <= rows[1][0] <= 1
    gi = {n2: f for n2, f, _ in sweep_max_fidelity(100, [10, 100], "gi")}
    assert gi[10] == pytest.approx(0.3180, abs=5e-4)
    assert gi[100] == pytest.approx(1.0, abs=1e-6)
    with pytest.raises(ValueError):
        sweep_max_fidelity(100, [], "gg")


@pytest.mark.parametrize("n", [50, 100, 200])
def test_gg_reaches_peak_before_gi_at_equal_sizes(n):
    (_, f_gg, s_gg), = sweep_max_fidelity(n, [n], "gg")
    (_, f_gi, s_gi), = sweep_max_fidelity(n, [n], "gi")
    assert f_gg == pytest.approx(1.0, abs=1e-6)
    assert f_gi == pytest.approx(1.0, abs=1e-6)
    assert s_gg < s_gi

