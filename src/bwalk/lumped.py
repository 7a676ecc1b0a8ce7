"""The walk lumped on arc orbits: exact, with at most 12 numbers per state.

With the marked vertices fixed, the walk commutes with every permutation of
the graph that fixes the distinguished vertices, so a state uniform over
each arc orbit stays uniform.  The vertex classes are the distinguished
vertices, one each, and the rest of each partition (dropped when empty).
The orbits are one edge orbit V -> W per pair of classes in opposite
partitions and one loop orbit per class of a partition with loops; a state
holds one coefficient per normalised uniform orbit state.  This is the
symmetry reduction of Novo, Chakraborty, Mohseni, Neven and Omar (Sci. Rep.
2015); the arc-space simulator (``graph``, ``operators``) is its oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .graph import ArcBasis, BipartiteSpec, Vertex
from .operators import CoinKind

__all__ = ["OrbitSpace", "orbit_space", "arc_orbits", "walk_operator", "evolve", "edge_state", "loop_state", "fidelity"]


@dataclass(frozen=True)
class OrbitSpace:
    """Arc orbits of one graph under the permutations that fix its distinguished vertices."""

    spec: BipartiteSpec
    classes: tuple[tuple[int, Vertex | None, int], ...]  # (partition, the vertex or None for the rest, size)
    orbits: tuple[tuple[int, int], ...]  # (source class, target class); a loop orbit has source == target
    grover: np.ndarray  # coin with no vertex marked: a block 2 w w^T - I per source class
    reverse: np.ndarray  # index of orbit (W, V) for orbit (V, W): the flip-flop shift

    @property
    def dimension(self) -> int:
        return len(self.orbits)

    def class_of(self, v: Vertex, single: bool = False) -> int:
        """Class of ``v``; with ``single``, ``v`` must be alone in its class."""
        self.spec.vertex(*v)
        c = next(c for c, (p, member, _) in enumerate(self.classes) if p == v.partition and member in (v, None))
        if single and self.classes[c][2] != 1:
            raise ValueError(f"vertex {v} is not distinguished in this orbit space")
        return c

    def orbit_index(self, frm: Vertex, to: Vertex) -> int:
        """Orbit of the arc (frm, to); a loop arc when frm == to."""
        key = (self.class_of(frm), self.class_of(to))
        if key not in self.orbits:
            raise ValueError(f"no arc between {frm} and {to}")
        return self.orbits.index(key)


def orbit_space(spec: BipartiteSpec, distinguished: Iterable[Vertex]) -> OrbitSpace:
    """Orbit space of ``spec`` with every vertex of ``distinguished`` in a class of its own."""
    fixed = list(dict.fromkeys(spec.vertex(*v) for v in distinguished))
    classes = []
    for p in (1, 2):
        mine = [(p, v, 1) for v in fixed if v.partition == p]
        rest = spec.partition_size(p) - len(mine)
        classes += mine + ([(p, None, rest)] if rest else [])
    orbits, weights = [], []
    for a, (p, _, _) in enumerate(classes):
        loop = spec.l1 if p == 1 else spec.l2
        degree = spec.partition_size(3 - p) + loop
        for b, (q, _, size) in enumerate(classes):
            if q != p or (a == b and loop > 0):
                orbits.append((a, b))
                weights.append(math.sqrt((loop if a == b else size) / degree))
    source = np.array([a for a, _ in orbits])
    w = np.array(weights)
    grover = np.where(source[:, None] == source, 2.0 * np.outer(w, w), 0.0) - np.eye(len(orbits))
    reverse = np.array([orbits.index((b, a)) for a, b in orbits])
    return OrbitSpace(spec, tuple(classes), tuple(orbits), grover, reverse)


def arc_orbits(space: OrbitSpace, basis: ArcBasis) -> np.ndarray:
    """Orbit index of every arc of ``basis``, a basis of ``space.spec``, in arc order."""
    table = np.zeros((len(space.classes),) * 2, dtype=np.intp)
    table[tuple(zip(*space.orbits))] = np.arange(space.dimension)
    c1, c2 = ([space.class_of(Vertex(p, i)) for i in range(space.spec.partition_size(p))] for p in (1, 2))
    out = np.empty(basis.dimension, dtype=np.intp)
    basis.block_12(out)[:] = table[np.ix_(c1, c2)]
    basis.block_21(out)[:] = table[np.ix_(c2, c1)]
    out[basis.loops1] = table[c1, c1] if basis.has_loops1 else []
    out[basis.loops2] = table[c2, c2] if basis.has_loops2 else []
    return out


def walk_operator(space: OrbitSpace, overrides: dict[Vertex, CoinKind]) -> np.ndarray:
    """One step, coin then flip-flop shift, as a real orthogonal matrix.

    ``overrides`` are the marked vertices' coins as ``CoinConfig`` holds
    them; each marked vertex must be distinguished in ``space``.
    """
    coin = space.grover.copy()
    for v, kind in overrides.items():
        c = space.class_of(v, single=True)
        rows = [a == c for a, _ in space.orbits]
        if kind is CoinKind.GROVER_MINUS:
            coin[rows] *= -1.0
        elif kind is CoinKind.NEG_IDENTITY:
            coin[rows] = -np.eye(space.dimension)[rows]
    return coin[space.reverse]


def evolve(state: np.ndarray, operator: np.ndarray, steps: int) -> np.ndarray:
    """Apply ``operator`` (from ``walk_operator``) ``steps`` times."""
    if steps < 0:
        raise ValueError("step count must be >= 0")
    for _ in range(steps):
        state = operator @ state
    return state


def edge_state(space: OrbitSpace, v: Vertex) -> np.ndarray:
    """Uniform over the edge arcs out of ``v``: the orbit vector of
    ``graph.uniform_sender_state`` and ``graph.receiver_target_state``."""
    c = space.class_of(v, single=True)
    n_opposite = space.spec.partition_size(3 - v.partition)
    return np.array([math.sqrt(space.classes[b][2] / n_opposite) if a == c != b else 0.0 for a, b in space.orbits])


def loop_state(space: OrbitSpace, v: Vertex) -> np.ndarray:
    """The self-loop arc of ``v``: the orbit vector of ``graph.loop_state``."""
    space.class_of(v, single=True)
    return np.eye(space.dimension)[space.orbit_index(v, v)]


def fidelity(a: np.ndarray, b: np.ndarray) -> float:
    """Squared overlap |<a|b>|^2 of two orbit vectors."""
    return float(abs(np.vdot(a, b)) ** 2)
