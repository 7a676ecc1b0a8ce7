"""Self-verification suites: closed forms against full arc-space evolution.

Each check returns its worst residual so regressions show up as numbers,
not just booleans.  The fault-injection switch flips one sign in a reduced
matrix before comparing it with the dynamics; a healthy harness must then
report a failure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import BipartiteSpec, Vertex, build_basis, fidelity, random_state, receiver_target_state, stationary_state, uniform_sender_state
from .operators import MarkedScenario, evolve, step
from .protocols import analytic_fidelity_fn
from .reduced import build_subspace, numeric_eigensystem, project, reduced_eigensystem, reduced_matrix

__all__ = ["CheckResult", "CHECK_NAMES", "run_checks"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    residual: float
    tolerance: float
    passed: bool
    detail: str


CHECK_NAMES = ("stationary", "subspace", "eigen", "closedform", "unitarity")


def _dynamics_matrix(scenario: MarkedScenario, spec: BipartiteSpec) -> tuple[np.ndarray, float]:
    """Project the full evolution onto the invariant basis; also return the
    worst out-of-subspace residual (invariance violation)."""
    sub = build_subspace(scenario, spec)
    op = reduced_matrix(scenario, spec)
    config = scenario.coin_config(sub.basis)
    k = sub.dimension
    matrix = np.zeros((k, k), dtype=np.complex128)
    worst = 0.0
    for j, state in enumerate(sub.states):
        evolved = evolve(state, config, op.power)
        coeffs, residual = project(sub, evolved)
        matrix[:, j] = coeffs
        worst = max(worst, residual)
    return matrix, worst


def _scenario_grid(n1: int, n2: int) -> list[tuple[MarkedScenario, BipartiteSpec]]:
    plain = BipartiteSpec(n1, n2)
    cases = [(MarkedScenario.diff_partition(0, 0, "gg"), plain)]
    if n1 >= 3:
        cases.append((MarkedScenario.same_partition(0, 1, "gg"), plain))
    for l1, l2 in ((0.5, 0.5), (n2 / (2 * n1), n1 / (2 * n2))):
        cases.append(
            (MarkedScenario.single_marked(Vertex(1, 0)), BipartiteSpec(n1, n2, l1, l2))
        )
    return cases


def check_stationary(n1: int, n2: int, seed: int) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst = 0.0
    sizes = [(n1, n2, 0.5, 0.5)]
    for _ in range(8):
        sizes.append(
            (
                int(rng.integers(1, 31)),
                int(rng.integers(1, 31)),
                float(rng.uniform(0.05, 2.5)),
                float(rng.uniform(0.05, 2.5)),
            )
        )
    for m1, m2, l1, l2 in sizes:
        basis = build_basis(BipartiteSpec(m1, m2, l1, l2))
        sigma = stationary_state(basis)
        moved = step(sigma, MarkedScenario.unmarked().coin_config(basis))
        worst = max(worst, float(np.linalg.norm(moved.amplitudes - sigma.amplitudes)))
    return CheckResult("stationary", worst, 1e-12, worst < 1e-12, f"max ||U sigma - sigma|| over {len(sizes)} graphs")


def check_subspace(n1: int, n2: int, seed: int, inject_fault: bool = False) -> CheckResult:
    worst = 0.0
    count = 0
    for scenario, spec in _scenario_grid(max(3, min(n1, 12)), max(2, min(n2, 12))):
        closed = reduced_matrix(scenario, spec).matrix.astype(np.complex128)
        if inject_fault and count == 0:
            closed = closed.copy()
            closed[0, 1] = -closed[0, 1]
        dynamic, invariance = _dynamics_matrix(scenario, spec)
        worst = max(worst, float(abs(closed - dynamic).max()), invariance)
        count += 1
    return CheckResult(
        "subspace", worst, 1e-10, worst < 1e-10, f"reduced matrices vs projected dynamics, {count} scenarios"
    )


def check_eigen(n1: int, n2: int, seed: int) -> CheckResult:
    worst = 0.0
    # exact spectrum of the opposite-partition model
    for m1, m2 in ((max(2, n1), max(2, n2)), (5, 9), (12, 3)):
        spec = BipartiteSpec(m1, m2)
        scenario = MarkedScenario.diff_partition(0, 0, "gg")
        op = reduced_matrix(scenario, spec)
        system = reduced_eigensystem(scenario, spec)
        for value, vector in zip(system.values, system.vectors.T):
            worst = max(worst, float(np.linalg.norm(op.matrix @ vector - value * vector)))
        numeric = numeric_eigensystem(op)
        # compare the values, not their angles: -1 has angle +pi or -pi
        closed_sorted = np.sort_complex(np.round(system.values, 12))
        numeric_sorted = np.sort_complex(np.round(numeric.values, 12))
        worst = max(worst, float(abs(closed_sorted - numeric_sorted).max()))
    # asymptotic loop-walk eigenbasis: residuals must shrink with size
    residuals = []
    for size in (25, 100, 400):
        spec = BipartiteSpec(size, size, 0.5, 0.5)
        scenario = MarkedScenario.single_marked(Vertex(1, 0))
        op = reduced_matrix(scenario, spec)
        system = reduced_eigensystem(scenario, spec)
        residuals.append(
            max(
                float(np.linalg.norm(op.matrix @ v - lam * v))
                for lam, v in zip(system.values, system.vectors.T)
            )
        )
    decay = max(residuals[i + 1] - residuals[i] for i in range(len(residuals) - 1))
    passed = worst < 1e-10 and decay < 0
    return CheckResult(
        "eigen",
        worst,
        1e-10,
        passed,
        f"closed-form spectra vs numeric; asymptotic residuals {['%.3f' % r for r in residuals]}",
    )


def check_closedform(n1: int, n2: int, seed: int) -> CheckResult:
    worst = 0.0
    pairs = sorted({(min(n1, 12), min(n2, 12)), (2, 2), (5, 4), (9, 7)})
    for m1, m2 in pairs:
        spec = BipartiteSpec(m1, m2)
        basis = build_basis(spec)
        scenarios = [MarkedScenario.diff_partition(0, 0, "gg"), MarkedScenario.diff_partition(0, 0, "gi")]
        if m1 >= 2:
            scenarios.append(MarkedScenario.same_partition(0, 1, "gg"))
        for scenario in scenarios:
            f = analytic_fidelity_fn(scenario.kind, scenario.flavor, m1, m2)
            start_parity = 1 if scenario.parity == "odd" else 0
            config = scenario.coin_config(basis)
            state = uniform_sender_state(basis, scenario.sender)
            target = receiver_target_state(basis, scenario.receiver)
            for steps in range(1, 41):
                state = step(state, config)
                if steps % 2 == start_parity:
                    worst = max(worst, abs(fidelity(state, target) - float(f(steps))))
    return CheckResult(
        "closedform", worst, 1e-10, worst < 1e-10, f"analytic vs simulated fidelity, {len(pairs)} sizes, 40 steps"
    )


def check_unitarity(n1: int, n2: int, seed: int) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for scenario, spec in _scenario_grid(min(n1, 9), min(n2, 8)):
        basis = build_basis(spec)
        config = scenario.coin_config(basis)
        state = random_state(basis, rng)
        worst = max(worst, abs(evolve(state, config, 60).norm() - 1.0))
    return CheckResult("unitarity", worst, 1e-10, worst < 1e-10, "norm drift of 60-step evolutions")


_CHECKS = {
    "stationary": check_stationary,
    "subspace": check_subspace,
    "eigen": check_eigen,
    "closedform": check_closedform,
    "unitarity": check_unitarity,
}


def run_checks(
    names: list[str] | None = None,
    n1: int = 8,
    n2: int = 6,
    seed: int = 20250810,
    inject_fault: bool = False,
) -> list[CheckResult]:
    """Run the named verification suites (all, by default)."""
    selected = names or list(CHECK_NAMES)
    results = []
    for name in selected:
        if name not in _CHECKS:
            raise ValueError(f"unknown check {name!r}; known: {', '.join(sorted(_CHECKS))}")
        if name == "subspace":
            results.append(check_subspace(n1, n2, seed, inject_fault=inject_fault))
        else:
            results.append(_CHECKS[name](n1, n2, seed))
    return results
