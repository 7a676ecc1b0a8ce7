import math

import numpy as np
import pytest

from bwalk import (
    BipartiteSpec,
    Vertex,
    build_basis,
    build_subspace,
    embed,
    evolve,
    numeric_eigensystem,
    project,
    reduced_eigensystem,
    reduced_matrix,
    sigma_eigen_coefficients,
    sigma_reconstruction_error,
    sigma_subspace_coefficients,
    sigma_subspace_limit,
    stationary_state,
    switch_spec,
)
from bwalk.operators import MarkedScenario
from bwalk.reduced import _single_matrix, principal_angles
from bwalk.verify import _dynamics_matrix

DIFF = MarkedScenario.diff_partition(0, 0, "gg")
SAME = MarkedScenario.same_partition(0, 1, "gg")
SINGLE = MarkedScenario.single_marked(Vertex(1, 0))


def test_basis_gram_identity():
    cases = [
        (DIFF, BipartiteSpec(4, 3)),
        (SAME, BipartiteSpec(4, 3)),
        (SINGLE, BipartiteSpec(4, 3, l1=0.5, l2=0.5)),
        (MarkedScenario.single_marked(Vertex(2, 1)), BipartiteSpec(3, 5, l1=0.2, l2=0.9)),
    ]
    for scenario, spec in cases:
        sub = build_subspace(scenario, spec)
        m = sub.matrix()
        gram = m.conj().T @ m
        assert abs(gram - np.eye(sub.dimension)).max() < 1e-12


def test_basis_amplitude_examples():
    sub = build_subspace(DIFF, BipartiteSpec(4, 3))
    phi4 = sub.states[3].amplitudes
    support = phi4[np.abs(phi4) > 0]
    assert support.size == 6
    assert np.allclose(support, 1 / math.sqrt(6))

    sub = build_subspace(SAME, BipartiteSpec(4, 3))
    phi3 = sub.states[2].amplitudes
    support = phi3[np.abs(phi3) > 0]
    assert support.size == 6
    assert np.allclose(support, 1 / math.sqrt(6))


def test_basis_validation():
    with pytest.raises(ValueError):
        build_subspace(DIFF, BipartiteSpec(1, 3))
    with pytest.raises(ValueError):
        build_subspace(DIFF, BipartiteSpec(3, 1))
    with pytest.raises(ValueError):
        build_subspace(SAME, BipartiteSpec(2, 3))
    with pytest.raises(ValueError):
        build_subspace(SINGLE, BipartiteSpec(4, 3))  # no loops
    with pytest.raises(ValueError):
        build_subspace(MarkedScenario.diff_partition(0, 0, "gi"), BipartiteSpec(4, 3))


def test_reduced_matrix_entry_examples():
    m = reduced_matrix(DIFF, BipartiteSpec(100, 100)).matrix
    assert m[0, 0] == pytest.approx(0.98**2, abs=1e-15)

    m = reduced_matrix(SAME, BipartiteSpec(100, 7)).matrix
    assert m[2, 2] == pytest.approx(0.96, abs=1e-15)

    # weightless limit of the single-marked closed form
    assert _single_matrix(5, 4, 0.0, 0.0)[0, 0] == 1.0


@pytest.mark.parametrize("n1,n2", [(2, 2), (2, 5), (5, 4), (7, 3), (12, 12)])
def test_diff_matrix_matches_dynamics(n1, n2):
    spec = BipartiteSpec(n1, n2)
    closed = reduced_matrix(DIFF, spec).matrix
    dynamic, invariance = _dynamics_matrix(DIFF, spec)
    assert invariance < 1e-12
    assert abs(closed - dynamic).max() < 1e-12


@pytest.mark.parametrize("n1,n2", [(3, 2), (4, 3), (8, 5), (12, 2)])
def test_same_matrix_matches_dynamics(n1, n2):
    spec = BipartiteSpec(n1, n2)
    closed = reduced_matrix(SAME, spec).matrix
    dynamic, invariance = _dynamics_matrix(SAME, spec)
    assert invariance < 1e-12
    assert abs(closed - dynamic).max() < 1e-12


def test_same_matrix_independent_of_partition_two():
    a = reduced_matrix(SAME, BipartiteSpec(9, 2)).matrix
    b = reduced_matrix(SAME, BipartiteSpec(9, 37)).matrix
    assert np.array_equal(a, b)


@pytest.mark.parametrize("weights", [(0.1, 0.1), (0.5, 0.5), (1.0, 1.0), None, (0.1, 1.0)])
@pytest.mark.parametrize("n1,n2", [(2, 3), (5, 4), (9, 12)])
def test_single_matrix_matches_dynamics(weights, n1, n2):
    l1, l2 = weights if weights else (n2 / (2 * n1), n1 / (2 * n2))
    spec = BipartiteSpec(n1, n2, l1, l2)
    closed = reduced_matrix(SINGLE, spec).matrix
    dynamic, invariance = _dynamics_matrix(SINGLE, spec)
    assert invariance < 1e-12
    assert abs(closed - dynamic).max() < 1e-12


def test_single_matrix_mirrored_partition():
    spec = BipartiteSpec(4, 6, l1=0.7, l2=0.4)
    scenario = MarkedScenario.single_marked(Vertex(2, 2))
    closed = reduced_matrix(scenario, spec).matrix
    dynamic, invariance = _dynamics_matrix(scenario, spec)
    assert invariance < 1e-12
    assert abs(closed - dynamic).max() < 1e-12


def test_diff_eigensystem_exact():
    spec = BipartiteSpec(100, 100)
    op = reduced_matrix(DIFF, spec)
    system = reduced_eigensystem(DIFF, spec)
    for value, vector in zip(system.values, system.vectors.T):
        assert np.linalg.norm(op.matrix @ vector - value * vector) < 1e-12
    # equal partitions: phase sum is 2*arccos(0.98), difference vanishes
    assert system.phases["sum"] == pytest.approx(0.4006696846462394, abs=1e-12)
    assert system.phases["difference"] == pytest.approx(0.0, abs=1e-15)

    numeric = numeric_eigensystem(op)
    got = np.sort(np.angle(numeric.values))
    want = np.sort([system.phases["sum"], -system.phases["sum"], 0.0, 0.0])
    assert abs(got - want).max() < 1e-10


def test_diff_eigensystem_generic_sizes():
    for n1, n2 in ((5, 9), (12, 3), (2, 2)):
        spec = BipartiteSpec(n1, n2)
        op = reduced_matrix(DIFF, spec)
        system = reduced_eigensystem(DIFF, spec)
        th1, th2 = math.acos(1 - 2 / n1), math.acos(1 - 2 / n2)
        expected = {th1 + th2, -(th1 + th2), th1 - th2, -(th1 - th2)}
        got = numeric_eigensystem(op).values
        for phase in expected:
            assert min(abs(got - np.exp(1j * phase))) < 1e-10
        for value, vector in zip(system.values, system.vectors.T):
            assert np.linalg.norm(op.matrix @ vector - value * vector) < 1e-12


def test_same_eigensystem():
    spec = BipartiteSpec(9, 4)
    system = reduced_eigensystem(SAME, spec)
    omega = math.acos(1 - 4 / 9)
    assert system.phases["rotation"] == pytest.approx(omega, abs=1e-15)
    got = np.sort(np.angle(system.values))
    assert abs(got - np.sort([-omega, 0.0, omega])).max() < 1e-10


def test_single_asymptotic_eigensystem_residual_decay():
    previous = math.inf
    for size in (25, 100, 400, 1600):
        spec = switch_spec(size, size)
        op = reduced_matrix(SINGLE, spec)
        system = reduced_eigensystem(SINGLE, spec)
        assert system.asymptotic
        worst = max(
            np.linalg.norm(op.matrix @ v - lam * v)
            for lam, v in zip(system.values, system.vectors.T)
        )
        assert worst < previous
        previous = worst
    assert previous < 0.05  # ~ c / sqrt(n) by the largest size


def test_single_eigensystem_structure():
    spec = switch_spec(50, 30)
    system = reduced_eigensystem(SINGLE, spec)
    assert system.values[3] == -1.0 and system.values[4] == -1.0
    # with the prescribed weights the slow phase collapses to arcsin(sqrt(2/n1))
    assert system.phases["slow"] == pytest.approx(math.asin(math.sqrt(2 / 50)), abs=1e-12)
    # unit norms; all pairs orthogonal except the degenerate flip pair (3, 4),
    # which shares support on the far-loops coordinate
    vecs = system.vectors
    for i in range(7):
        assert abs(np.linalg.norm(vecs[:, i]) - 1) < 1e-12
        for j in range(i + 1, 7):
            if (i, j) == (3, 4):
                continue
            assert abs(np.vdot(vecs[:, i], vecs[:, j])) < 1e-12


def test_degenerate_pair_spans_numeric_eigenspace():
    # individual flip eigenvectors are basis-ambiguous; compare spans instead
    spec = switch_spec(400, 400)
    op = reduced_matrix(SINGLE, spec)
    system = reduced_eigensystem(SINGLE, spec)
    numeric = numeric_eigensystem(op)
    exact_flip = numeric.vectors[:, np.abs(numeric.values + 1) < 1e-9]
    assert exact_flip.shape[1] == 2
    angles = principal_angles(system.vectors[:, 3:5], exact_flip)
    assert angles.max() < 0.1


def test_embed_project_roundtrip():
    spec = BipartiteSpec(5, 4)
    sub = build_subspace(DIFF, spec)
    rng = np.random.default_rng(8)
    coeffs = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    coeffs /= np.linalg.norm(coeffs)
    back, residual = project(sub, embed(sub, coeffs))
    assert np.linalg.norm(back - coeffs) < 1e-12
    assert residual < 1e-12
    with pytest.raises(ValueError):
        embed(sub, np.ones(3))


def test_projection_residual_of_evolved_subspace_state():
    spec = BipartiteSpec(5, 4)
    sub = build_subspace(DIFF, spec)
    config = DIFF.coin_config(sub.basis)
    rng = np.random.default_rng(9)
    coeffs = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    coeffs /= np.linalg.norm(coeffs)
    evolved = evolve(embed(sub, coeffs), config, 2)
    _, residual = project(sub, evolved)
    assert residual < 1e-12


def test_projection_of_orthogonal_state():
    spec = BipartiteSpec(5, 4)
    sub = build_subspace(DIFF, spec)
    basis = sub.basis
    amps = np.zeros(basis.dimension, dtype=complex)
    basis.block_12(amps)[2, 1] = 1.0  # partition-1 -> partition-2 arc, outside the basis
    coeffs, residual = project(sub, type(sub.states[0])(basis, amps))
    assert np.linalg.norm(coeffs) < 1e-15
    assert abs(residual - 1) < 1e-12


def test_sigma_eigen_coefficients_normalized():
    coeffs = sigma_eigen_coefficients()
    assert abs(np.linalg.norm(coeffs) - 1) < 1e-15


@pytest.mark.parametrize("marked", [Vertex(1, 0), Vertex(2, 1)])
def test_sigma_subspace_coefficients_match_projection(marked):
    spec = BipartiteSpec(6, 9, l1=0.75, l2=0.4)
    scenario = MarkedScenario.single_marked(marked)
    sub = build_subspace(scenario, spec)
    sigma = stationary_state(sub.basis)
    coeffs, residual = project(sub, sigma)
    assert residual < 1e-12  # the stationary state lies inside the subspace
    assert np.linalg.norm(coeffs - sigma_subspace_coefficients(spec, marked)) < 1e-12


def test_sigma_reconstruction_error_values():
    # frozen from the full-space oracle below; decays like sqrt(3 / (2 n))
    err_100 = sigma_reconstruction_error(switch_spec(100, 100), Vertex(1, 0))
    assert err_100 == pytest.approx(0.122399, abs=1e-5)
    err_10k = sigma_reconstruction_error(switch_spec(10_000, 10_000), Vertex(1, 0))
    assert err_10k == pytest.approx(0.0122474, abs=1e-6)
    assert err_10k == pytest.approx(err_100 / 10, rel=2e-3)


def test_sigma_reconstruction_error_against_full_space():
    spec = switch_spec(100, 100)
    scenario = MarkedScenario.single_marked(Vertex(1, 0))
    sub = build_subspace(scenario, spec)
    sigma_coeffs, residual = project(sub, stationary_state(sub.basis))
    assert residual < 1e-12
    system = reduced_eigensystem(scenario, spec)
    reconstruction = system.vectors @ sigma_eigen_coefficients()
    direct = np.linalg.norm(sigma_coeffs - reconstruction)
    assert direct == pytest.approx(sigma_reconstruction_error(spec, Vertex(1, 0)), abs=1e-12)


def test_sigma_limit_matches_reconstruction_at_prescribed_weights():
    # with the prescribed loop weights the fixed-coefficient reconstruction
    # collapses exactly onto the uniform edge form
    spec = switch_spec(64, 81)
    system = reduced_eigensystem(MarkedScenario.single_marked(Vertex(1, 0)), spec)
    reconstruction = system.vectors @ sigma_eigen_coefficients()
    assert np.linalg.norm(reconstruction - sigma_subspace_limit()) < 1e-12
