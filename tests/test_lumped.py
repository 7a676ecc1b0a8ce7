"""The orbit-lumped walk against the arc-space walk it lumps."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bwalk import BipartiteSpec, CoinConfig, CoinKind, Vertex, WalkState, build_basis, lumped, step


@st.composite
def marked_graphs(draw):
    n1, n2 = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    loop = st.one_of(st.just(0.0), st.floats(0.01, 4.0))
    spec = BipartiteSpec(n1, n2, draw(loop), draw(loop))
    vertices = [Vertex(1, i) for i in range(n1)] + [Vertex(2, j) for j in range(n2)]
    marked = draw(st.lists(st.sampled_from(vertices), min_size=1, max_size=2, unique=True))
    overrides = {v: draw(st.sampled_from(list(CoinKind))) for v in marked}
    return spec, overrides, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=300, deadline=None)
@given(marked_graphs())
def test_lumped_step_is_the_full_step_on_orbit_states(case):
    spec, overrides, seed = case
    space = lumped.orbit_space(spec, list(overrides))
    basis = build_basis(spec)
    orbit = np.array([space.orbit_index(*basis.arc_label(i)) for i in range(basis.dimension)])
    assert (lumped.arc_orbits(space, basis) == orbit).all()
    scale = 1.0 / np.sqrt(np.bincount(orbit, minlength=space.dimension))[orbit]
    start = np.random.default_rng(seed).standard_normal(space.dimension)

    moved = step(WalkState(basis, start[orbit] * scale), CoinConfig(basis, overrides)).amplitudes
    projected = np.zeros(space.dimension, dtype=complex)
    np.add.at(projected, orbit, moved * scale)

    assert abs(projected - lumped.walk_operator(space, overrides) @ start).max() < 1e-12
    assert np.linalg.norm(moved - projected[orbit] * scale) < 1e-12  # nothing leaves the orbit states


def test_orbit_space_dimensions():
    loops, plain = BipartiteSpec(1000, 700, 0.5, 0.5), BipartiteSpec(1000, 700)
    s, r_diff, r_same = Vertex(1, 0), Vertex(2, 3), Vertex(1, 3)
    assert lumped.orbit_space(loops, [s, r_diff]).dimension == 12
    assert lumped.orbit_space(loops, [s, r_same]).dimension == 10
    assert lumped.orbit_space(plain, [s, r_diff]).dimension == 8
    assert lumped.orbit_space(plain, [s, r_same]).dimension == 6
    assert lumped.orbit_space(BipartiteSpec(1, 1), [s, Vertex(2, 0)]).dimension == 2  # no rest classes


def test_marking_needs_a_distinguished_vertex():
    space = lumped.orbit_space(BipartiteSpec(5, 4), [Vertex(1, 0)])
    with pytest.raises(ValueError):
        lumped.walk_operator(space, {Vertex(1, 2): CoinKind.GROVER_MINUS})
    with pytest.raises(ValueError):
        lumped.loop_state(space, Vertex(1, 0))  # no loop arcs at l1 = 0
