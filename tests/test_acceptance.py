"""Acceptance suite: every criterion at its stated tolerance, one line each.

The opposite-partition negated-Grover positions (15.7, 46.45, 14.74, the
15-step 0.9907 run, the 47-step 0.9835 run) are those of the walk itself.
Three steps of it give F(3) = ((3 n1 - 4)(3 n2 - 4))^2 / (n1 n2)^3 by hand
(``test_three_step_fidelity_matches_hand_derivation``).  The envelope
evaluated at t = (steps - 1) / 2 instead is F(steps - 2): every feature two
steps late, and 1 / (n1 n2) at three steps.  It is not the time-reversed
walk, whose fidelities are identical to the walk's (coin and shift are
involutions and the sender and receiver states are eigenvectors of the
marked coin).

The sigma-expansion bounds of criterion 8 are sqrt(3/(2n)), the leading
order of the exact distance d(n) between sigma and its fixed-coefficient
expansion, which at the prescribed loop weights is the uniform edge form.

One clause still fails: the active-switch grid of criterion 6 dips to
0.885 at (23, 23), where pi/theta = 10.495 rounds half-up to T = 10.  The
failure names the worst cell and its phase lengths; whether the paper
chooses the phase lengths differently cannot be settled from its abstract.
"""

import math

import numpy as np

import bwalk as bw
from bwalk.operators import MarkedScenario
from bwalk.reduced import reduced_matrix
from bwalk.verify import _dynamics_matrix

from helpers import simulated_fidelity_series


class Criterion:
    def __init__(self, number: int, title: str):
        self.number = number
        self.title = title
        self.clauses: list[tuple[str, bool, str]] = []

    def check(self, label: str, ok, detail: str = "") -> None:
        self.clauses.append((label, bool(ok), detail))

    def conclude(self) -> None:
        ok = all(good for _, good, _ in self.clauses)
        print(f"ACCEPTANCE CRITERION {self.number}: {'PASS' if ok else 'FAIL'} - {self.title}")
        for label, good, detail in self.clauses:
            suffix = f" ({detail})" if detail else ""
            print(f"    [{'ok' if good else 'FAIL'}] {label}{suffix}")
        assert ok, f"criterion {self.number}: " + "; ".join(
            f"{label} ({detail})" for label, good, detail in self.clauses if not good
        )


def gg(n1, n2):
    return lambda steps: bw.fidelity_diff_gg(n1, n2, steps)


def gi(n1, n2):
    return lambda steps: bw.fidelity_diff_gi(n1, n2, steps)


def test_criterion_1_equal_partition_transfer():
    crit = Criterion(1, "opposite partitions, n1 = n2 = 100")
    x, fx = bw.maximize_fidelity(gg(100, 100), bw.transfer_window(100, 100))
    crit.check("continuous maximum 1.0 within 1e-6", abs(fx - 1.0) < 1e-6, f"F* = {fx:.9f}")
    crit.check("maximum located at 15.7 +/- 0.1", abs(x - 15.7) <= 0.1, f"at {x:.4f}")
    closed15 = bw.fidelity_diff_gg(100, 100, 15)
    sim = simulated_fidelity_series(bw.BipartiteSpec(100, 100), MarkedScenario.diff_partition(), 15)
    crit.check(
        "closed form at 15 steps = 0.9907 +/- 5e-4",
        abs(closed15 - 0.9907) <= 5e-4,
        f"closed F(15) = {closed15:.6f}",
    )
    crit.check(
        "simulation at 15 steps = 0.9907 +/- 5e-4",
        abs(sim[14] - 0.9907) <= 5e-4,
        f"simulated F(15) = {sim[14]:.6f}",
    )
    crit.check("closed form and simulation agree at 15 steps", abs(closed15 - sim[14]) < 1e-10)
    crit.conclude()


def test_criterion_2_unequal_partition_transfer():
    crit = Criterion(2, "opposite partitions, n1 = 100, n2 = 35")
    x, fx = bw.maximize_fidelity(gg(100, 35), bw.transfer_window(100, 35))
    crit.check("maximum 0.9952 within 5e-4", abs(fx - 0.9952) <= 5e-4, f"F* = {fx:.6f}")
    crit.check("maximum located at 46.45 +/- 0.1", abs(x - 46.45) <= 0.1, f"at {x:.4f}")
    sim = simulated_fidelity_series(bw.BipartiteSpec(100, 35), MarkedScenario.diff_partition(), 47)
    crit.check(
        "47-step run gives 0.9835 +/- 5e-4",
        abs(sim[46] - 0.9835) <= 5e-4,
        f"simulated F(47) = {sim[46]:.6f}",
    )
    crit.check("closed form tracks the run at 47 steps", abs(sim[46] - bw.fidelity_diff_gg(100, 35, 47)) < 1e-10)
    crit.conclude()


def test_criterion_3_flavor_comparison():
    crit = Criterion(3, "negated-Grover vs negated-identity marking")
    x, fx = bw.maximize_fidelity(gg(100, 10), bw.transfer_window(100, 10))
    crit.check("gg maximum 0.9902 within 5e-4 (n2 = 10)", abs(fx - 0.9902) <= 5e-4, f"F* = {fx:.6f}")
    crit.check("gg maximum located at 14.74 +/- 0.1", abs(x - 14.74) <= 0.1, f"at {x:.4f}")
    x, fx = bw.maximize_fidelity(gi(100, 10), bw.transfer_window(100, 10))
    crit.check("gi maximum 0.3180 within 5e-4 (n2 = 10)", abs(fx - 0.3180) <= 5e-4, f"F* = {fx:.6f}")
    crit.check("gi maximum located at 9.33 +/- 0.1", abs(x - 9.33) <= 0.1, f"at {x:.4f}")
    x_gi, f_gi = bw.maximize_fidelity(gi(100, 100), bw.transfer_window(100, 100))
    crit.check("gi maximum 1.0 within 1e-6 (n1 = n2 = 100)", abs(f_gi - 1.0) < 1e-6, f"F* = {f_gi:.9f}")
    crit.check("gi maximum located at 22.19 +/- 0.1", abs(x_gi - 22.19) <= 0.1, f"at {x_gi:.4f}")
    x_gg, _ = bw.maximize_fidelity(gg(100, 100), bw.transfer_window(100, 100))
    crit.check("gi maximizer strictly later than gg maximizer", x_gg < x_gi, f"{x_gg:.3f} < {x_gi:.3f}")
    crit.conclude()


def test_criterion_4_same_partition_transfer():
    crit = Criterion(4, "same partition, n1 = 100")
    x, fx = bw.maximize_fidelity(lambda s: bw.fidelity_same(100, s), bw.transfer_window(100, 5))
    crit.check("continuous maximum 1.0 within 1e-6", abs(fx - 1.0) < 1e-6, f"F* = {fx:.9f}")
    crit.check("maximum located at 22.14 +/- 0.05", abs(x - 22.14) <= 0.05, f"at {x:.4f}")
    values = []
    for n2 in (5, 50, 500):
        report = bw.run_transfer(bw.BipartiteSpec(100, n2), MarkedScenario.same_partition())
        crit.check(
            f"22-step run gives 0.9998 +/- 2e-4 (n2 = {n2})",
            report.steps == 22 and abs(report.fidelity - 0.9998) <= 2e-4,
            f"steps = {report.steps}, F = {report.fidelity:.7f}",
        )
        values.append(report.fidelity)
    spread = max(values) - min(values)
    crit.check("independent of partition-2 size within 1e-10", spread < 1e-10, f"spread = {spread:.2e}")
    crit.conclude()


def test_criterion_5_stationary_state_and_loop_fidelity():
    crit = Criterion(5, "stationary state and loop-walk fidelity")
    rng = np.random.default_rng(20250810)
    worst = 0.0
    for _ in range(20):
        spec = bw.BipartiteSpec(
            int(rng.integers(1, 31)),
            int(rng.integers(1, 31)),
            float(rng.uniform(0.05, 2.5)),
            float(rng.uniform(0.05, 2.5)),
        )
        basis = bw.build_basis(spec)
        sigma = bw.stationary_state(basis)
        moved = bw.step(sigma, MarkedScenario.unmarked().coin_config(basis))
        worst = max(worst, float(np.linalg.norm(moved.amplitudes - sigma.amplitudes)))
    crit.check("20 random graphs: ||U sigma - sigma|| < 1e-12", worst < 1e-12, f"worst = {worst:.2e}")
    worst_peak = max(abs(bw.fidelity_lqw(n, math.pi / bw.lqw_angle(n)) - 1.0) for n in (2, 17, 100, 1000))
    crit.check("loop-walk fidelity reaches 1 at pi/theta within 1e-12", worst_peak < 1e-12, f"worst = {worst_peak:.2e}")
    crit.conclude()


def test_criterion_6_active_switch():
    crit = Criterion(6, "active switch: small-size grid and growth to unity")
    sizes = range(16, 61)
    for placement, receiver_partition in (("diff", 2), ("same", 1)):
        rows = bw.sweep_active_switch(sizes, sizes, placement)
        n1, n2, low = min(rows, key=lambda row: row[2])
        schedule = bw.SwitchSchedule.for_transfer(n1, n2, receiver_partition)
        exact_t1 = math.pi / bw.lqw_angle(n1)
        exact_t2 = math.pi / bw.lqw_angle(n1 if receiver_partition == 1 else n2)
        crit.check(
            f"grid 16..60 x 16..60, placement {placement}: all fidelities > 0.9",
            low > 0.9,
            f"minimum = {low:.4f} at (n1, n2) = ({n1}, {n2}): "
            f"T1 = {schedule.t1} from pi/theta_s = {exact_t1:.4f}, "
            f"T2 = {schedule.t2} from pi/theta_r = {exact_t2:.4f}, rounded half-up",
        )
    trend = [
        bw.run_active_switch(bw.switch_spec(n, n), bw.Vertex(1, 0), bw.Vertex(2, 0)).fidelity
        for n in (25, 50, 100, 200, 400)
    ]
    crit.check(
        "fidelity increases monotonically over n = 25..400",
        all(a < b for a, b in zip(trend, trend[1:])),
        " -> ".join(f"{v:.4f}" for v in trend),
    )
    crit.check("exceeds 0.99 at n = 400", trend[-1] > 0.99, f"F = {trend[-1]:.4f}")
    crit.conclude()


def test_criterion_7_oracle_equivalence():
    crit = Criterion(7, "closed forms and reduced models against full evolution")
    worst_f = 0.0
    for n1 in range(2, 13):
        for n2 in range(2, 13):
            spec = bw.BipartiteSpec(n1, n2)
            for scenario, f, parity in (
                (MarkedScenario.diff_partition(0, 0, "gg"), gg(n1, n2), 1),
                (MarkedScenario.diff_partition(0, 0, "gi"), gi(n1, n2), 1),
                (MarkedScenario.same_partition(0, 1, "gg"), lambda s, n=n1: bw.fidelity_same(n, s), 0),
            ):
                sim = simulated_fidelity_series(spec, scenario, 60)
                for steps in range(1, 61):
                    if steps % 2 == parity:
                        worst_f = max(worst_f, abs(sim[steps - 1] - float(f(steps))))
    crit.check("fidelity formulas match simulation within 1e-10", worst_f < 1e-10, f"worst = {worst_f:.2e}")

    worst_m = 0.0
    for n1 in range(2, 13):
        for n2 in range(2, 13):
            cases = [(MarkedScenario.diff_partition(0, 0, "gg"), bw.BipartiteSpec(n1, n2))]
            if n1 >= 3:
                cases.append((MarkedScenario.same_partition(0, 1, "gg"), bw.BipartiteSpec(n1, n2)))
            for l1, l2 in ((0.1, 0.1), (0.5, 0.5), (1.0, 1.0), (n2 / (2 * n1), n1 / (2 * n2))):
                cases.append((MarkedScenario.single_marked(bw.Vertex(1, 0)), bw.BipartiteSpec(n1, n2, l1, l2)))
            for scenario, spec in cases:
                closed = reduced_matrix(scenario, spec).matrix
                dynamic, invariance = _dynamics_matrix(scenario, spec)
                worst_m = max(worst_m, float(abs(closed - dynamic).max()), invariance)
    crit.check("reduced matrices match projected dynamics within 1e-10", worst_m < 1e-10, f"worst = {worst_m:.2e}")

    worst_e = 0.0
    for n1 in range(2, 13):
        for n2 in range(2, 13):
            spec = bw.BipartiteSpec(n1, n2)
            values = np.linalg.eigvals(reduced_matrix(MarkedScenario.diff_partition(0, 0, "gg"), spec).matrix)
            th1, th2 = bw.grover_angle(n1), bw.grover_angle(n2)
            for phase in (th1 + th2, -(th1 + th2), th1 - th2, -(th1 - th2)):
                worst_e = max(worst_e, float(min(abs(values - np.exp(1j * phase)))))
    crit.check("4-dim eigenvalues are exp(+/-i(sum)), exp(+/-i(diff)) within 1e-10", worst_e < 1e-10, f"worst = {worst_e:.2e}")
    crit.conclude()


def test_criterion_8_asymptotic_eigenbasis():
    crit = Criterion(8, "asymptotic eigenbasis of the single-marked loop walk")
    scenario = MarkedScenario.single_marked(bw.Vertex(1, 0))
    residuals = []
    for n in (25, 100, 400, 1600):
        spec = bw.switch_spec(n, n)
        op = reduced_matrix(scenario, spec)
        system = bw.reduced_eigensystem(scenario, spec)
        residuals.append(
            max(
                float(np.linalg.norm(op.matrix @ vec - lam * vec))
                for lam, vec in zip(system.values, system.vectors.T)
            )
        )
    crit.check(
        "eigenvector residuals decrease monotonically over n = 25, 100, 400, 1600",
        all(a > b for a, b in zip(residuals, residuals[1:])),
        " -> ".join(f"{r:.4f}" for r in residuals),
    )
    for n, label in ((100, "n = 100"), (10_000, "n = 10^4 (reduced space)")):
        err = bw.sigma_reconstruction_error(bw.switch_spec(n, n), bw.Vertex(1, 0))
        # sigma minus the uniform edge form (1/sqrt 2 on each edge class):
        # d(n)^2 = 3/(2n+1) + 2 (sqrt((n-1)/(2n+1)) - 1/sqrt 2)^2
        exact = math.sqrt(3 / (2 * n + 1) + 2 * (math.sqrt((n - 1) / (2 * n + 1)) - 1 / math.sqrt(2)) ** 2)
        bound = math.sqrt(3 / (2 * n))
        crit.check(
            f"sigma eigen-expansion within sqrt(3/(2n)) = {bound:.6f} of sigma at {label}",
            err <= bound,
            f"distance = {err:.7f}",
        )
        crit.check(
            f"distance equals d(n) within 1e-12 at {label}",
            abs(err - exact) < 1e-12,
            f"d(n) = {exact:.7f}, |difference| = {abs(err - exact):.1e}",
        )
    crit.conclude()


def test_criterion_9_structural_properties():
    crit = Criterion(9, "structural properties of the walk operators")
    rng = np.random.default_rng(99)

    exact = True
    for spec in (bw.BipartiteSpec(7, 5), bw.BipartiteSpec(6, 6, l1=0.5, l2=0.25)):
        basis = bw.build_basis(spec)
        state = bw.random_state(basis, rng)
        exact &= bool(
            np.array_equal(bw.apply_shift(bw.apply_shift(state)).amplitudes, state.amplitudes)
        )
    crit.check("double shift is the exact identity", exact)

    worst = 0.0
    for spec in (bw.BipartiteSpec(8, 5), bw.BipartiteSpec(5, 8, l1=0.3, l2=1.1)):
        basis = bw.build_basis(spec)
        scenarios = [
            MarkedScenario.unmarked(),
            MarkedScenario.diff_partition(0, 0, "gg"),
            MarkedScenario.diff_partition(0, 0, "gi"),
            MarkedScenario.same_partition(0, 1, "gg"),
        ]
        if basis.has_loops1:
            scenarios.append(MarkedScenario.single_marked(bw.Vertex(1, 0)))
        for scenario in scenarios:
            config = scenario.coin_config(basis)
            state = bw.random_state(basis, rng)
            twice = bw.apply_coin(bw.apply_coin(state, config), config)
            worst = max(worst, float(np.linalg.norm(twice.amplitudes - state.amplitudes)))
    crit.check("coin involution within 1e-12", worst < 1e-12, f"worst = {worst:.2e}")

    drift = 0.0
    for spec in (bw.BipartiteSpec(50, 20), bw.BipartiteSpec(30, 30, l1=0.5, l2=0.5)):
        basis = bw.build_basis(spec)
        scenario = (
            MarkedScenario.single_marked(bw.Vertex(1, 0))
            if basis.has_loops1
            else MarkedScenario.diff_partition(0, 0, "gg")
        )
        state = bw.random_state(basis, rng)
        drift = max(drift, abs(bw.evolve(state, scenario.coin_config(basis), 200).norm() - 1.0))
    crit.check("200-step evolutions stay unit norm within 1e-10", drift < 1e-10, f"drift = {drift:.2e}")

    zeros_exact = True
    spec = bw.BipartiteSpec(6, 4)
    basis = bw.build_basis(spec)
    scenario = MarkedScenario.diff_partition(0, 0, "gg")
    state = bw.uniform_sender_state(basis, 0)
    target2 = bw.receiver_target_state(basis, bw.Vertex(2, 0))
    config = scenario.coin_config(basis)
    for steps in range(1, 13):
        state = bw.step(state, config)
        if steps % 2 == 0:
            zeros_exact &= bw.fidelity(state, target2) == 0.0
    same = MarkedScenario.same_partition(0, 1, "gg")
    state = bw.uniform_sender_state(basis, 0)
    target1 = bw.receiver_target_state(basis, bw.Vertex(1, 1))
    config = same.coin_config(basis)
    for steps in range(1, 13):
        state = bw.step(state, config)
        if steps % 2 == 1:
            zeros_exact &= bw.fidelity(state, target1) == 0.0
    crit.check("wrong-parity fidelities are exactly zero", zeros_exact)

    grid = np.arange(1, 70, 0.5)
    asym = max(
        float(abs(bw.fidelity_diff_gg(a, b, grid) - bw.fidelity_diff_gg(b, a, grid)).max())
        for a, b in ((100, 35), (17, 3), (9, 2))
    )
    crit.check("fidelity symmetric in the partition sizes within 1e-12", asym < 1e-12, f"worst = {asym:.2e}")
    crit.conclude()
