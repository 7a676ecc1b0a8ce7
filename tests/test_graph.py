import math

import numpy as np
import pytest

from bwalk import (
    BipartiteSpec,
    Vertex,
    build_basis,
    fidelity,
    loop_state,
    random_state,
    receiver_target_state,
    stationary_state,
    uniform_sender_state,
)
from bwalk.graph import WalkState
from bwalk.operators import MarkedScenario, apply_shift, step


def test_dimension_counts():
    assert build_basis(BipartiteSpec(4, 3)).dimension == 24
    assert build_basis(BipartiteSpec(4, 3, l1=0.375, l2=2 / 3)).dimension == 31
    assert build_basis(BipartiteSpec(1, 1)).dimension == 2
    assert build_basis(BipartiteSpec(4, 3, l1=0.5)).dimension == 28  # loops on one side only


def test_spec_validation():
    with pytest.raises(ValueError):
        BipartiteSpec(0, 3)
    with pytest.raises(ValueError):
        BipartiteSpec(3, 0)
    with pytest.raises(ValueError):
        BipartiteSpec(3, 3, l1=-0.1)
    for n1, n2 in ((2.5, 3), (3, 2.0), (True, 3), (3, False), (np.bool_(True), 3)):
        with pytest.raises(ValueError):
            BipartiteSpec(n1, n2)
    for weight in (math.nan, math.inf):
        with pytest.raises(ValueError):
            BipartiteSpec(3, 3, l1=weight)
        with pytest.raises(ValueError):
            BipartiteSpec(3, 3, l2=weight)
    assert BipartiteSpec(np.int64(3), 3).n1 == 3


@pytest.mark.parametrize("spec", [
    BipartiteSpec(4, 3),
    BipartiteSpec(1, 1),
    BipartiteSpec(3, 5, l1=0.7, l2=0.2),
    BipartiteSpec(2, 6, l1=0.0, l2=1.5),
])
def test_label_index_roundtrip(spec):
    basis = build_basis(spec)
    for i in range(basis.dimension):
        frm, to = basis.arc_label(i)
        assert basis.arc_index(frm, to) == i


def test_shift_reverses_every_arc():
    basis = build_basis(BipartiteSpec(3, 4, l1=0.5, l2=0.5))
    for i in range(basis.dimension):
        frm, to = basis.arc_label(i)
        amps = np.zeros(basis.dimension, dtype=np.complex128)
        amps[i] = 1.0
        expected = np.zeros_like(amps)
        expected[basis.arc_index(to, frm)] = 1.0  # a loop (v, v) maps to itself
        assert np.array_equal(apply_shift(WalkState(basis, amps)).amplitudes, expected)


def test_uniform_sender_state():
    basis = build_basis(BipartiteSpec(4, 3))
    state = uniform_sender_state(basis, 0)
    expected = np.zeros(24)
    expected[[basis.arc_index(Vertex(1, 0), Vertex(2, j)) for j in range(3)]] = 1 / math.sqrt(3)
    assert np.allclose(state.amplitudes, expected)
    assert abs(state.norm() - 1) < 1e-12

    tiny = uniform_sender_state(build_basis(BipartiteSpec(1, 1)), 0)
    assert tiny.amplitudes[0] == 1.0

    with pytest.raises(ValueError):
        uniform_sender_state(basis, 4)
    with pytest.raises(ValueError):
        uniform_sender_state(basis, Vertex(2, 0))


def test_sender_loop_amplitude_is_zero_on_loop_walks():
    basis = build_basis(BipartiteSpec(4, 3, l1=0.5, l2=0.5))
    state = uniform_sender_state(basis, 0)
    assert state.amplitudes[basis.loop_index(Vertex(1, 0))] == 0
    assert abs(state.norm() - 1) < 1e-12


def test_loop_state():
    basis = build_basis(BipartiteSpec(4, 3, l1=0.25, l2=0.75))
    s = loop_state(basis, Vertex(1, 0))
    assert s.amplitudes[basis.arc_index(Vertex(1, 0), Vertex(1, 0))] == 1.0
    assert fidelity(s, s) == 1.0
    assert fidelity(s, loop_state(basis, Vertex(1, 1))) == 0.0
    with pytest.raises(ValueError):
        loop_state(build_basis(BipartiteSpec(4, 3)), Vertex(1, 0))


def test_receiver_target_state():
    basis = build_basis(BipartiteSpec(4, 3))
    target2 = receiver_target_state(basis, Vertex(2, 1))
    block = basis.block_21(target2.amplitudes)
    assert np.allclose(block[1, :], 0.5)
    assert abs(target2.norm() - 1) < 1e-12

    target1 = receiver_target_state(basis, Vertex(1, 2))
    assert np.allclose(basis.block_12(target1.amplitudes)[2, :], 1 / math.sqrt(3))

    sender = uniform_sender_state(basis, 0)
    assert fidelity(sender, target1) == 0.0  # disjoint support for s != r
    with pytest.raises(ValueError):
        receiver_target_state(basis, Vertex(2, 3))


def test_stationary_state_amplitudes():
    basis = build_basis(BipartiteSpec(2, 2, l1=0.5, l2=0.5))
    sigma = stationary_state(basis)
    norm = math.sqrt(10)
    assert np.allclose(sigma.amplitudes[basis.edges_12], 1 / norm)
    assert np.allclose(sigma.amplitudes[basis.loops1], math.sqrt(0.5) / norm)
    assert abs(sigma.norm() - 1) < 1e-12
    with pytest.raises(ValueError):
        stationary_state(build_basis(BipartiteSpec(2, 2, l1=0.5)))


def test_stationary_state_is_fixed_point():
    rng = np.random.default_rng(11)
    for _ in range(10):
        spec = BipartiteSpec(
            int(rng.integers(1, 31)),
            int(rng.integers(1, 31)),
            float(rng.uniform(0.05, 2.0)),
            float(rng.uniform(0.05, 2.0)),
        )
        basis = build_basis(spec)
        sigma = stationary_state(basis)
        assert abs(sigma.norm() - 1) < 1e-12
        moved = step(sigma, MarkedScenario.unmarked().coin_config(basis))
        assert np.linalg.norm(moved.amplitudes - sigma.amplitudes) < 1e-12


def test_fidelity_basics():
    basis = build_basis(BipartiteSpec(2, 2))
    x = np.zeros(8, dtype=complex)
    x[0] = 1
    y = np.zeros(8, dtype=complex)
    y[1] = 1
    sx, sy = WalkState(basis, x), WalkState(basis, y)
    assert fidelity(sx, sx) == 1.0
    assert fidelity(sx, sy) == 0.0
    half = WalkState(basis, (x + y) / math.sqrt(2))
    assert abs(fidelity(half, sx) - 0.5) < 1e-15

    other = build_basis(BipartiteSpec(2, 3))
    with pytest.raises(ValueError):
        fidelity(sx, WalkState(other, np.zeros(12, dtype=complex)))


def test_random_state_unit_norm():
    basis = build_basis(BipartiteSpec(5, 7, l1=0.3, l2=0.3))
    state = random_state(basis, np.random.default_rng(0))
    assert abs(state.norm() - 1) < 1e-12
