"""Arc space of the complete bipartite graph and its distinguished states.

The walker lives on directed arcs ``(v, u)`` ("at v, pointing to u") of a
complete bipartite graph with partitions of size ``n1`` and ``n2``.  Each
partition may optionally carry a uniform weighted self-loop, which adds one
loop arc ``(v, v)`` per vertex of that partition.

Arcs are laid out in fixed blocks so that every coin acts on contiguous
rows and the flip-flop shift maps each edge block onto the transpose of the
other, so a coin can write its output straight into the shifted position:

    [0, n1*n2)              arcs v1 -> v2, row-major (v1 outer, v2 inner)
    [n1*n2, 2*n1*n2)        arcs v2 -> v1, row-major (v2 outer, v1 inner)
    next n1 entries         loops on partition-1 vertices (iff l1 > 0)
    next n2 entries         loops on partition-2 vertices (iff l2 > 0)
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

__all__ = [
    "BipartiteSpec",
    "Vertex",
    "ArcBasis",
    "WalkState",
    "build_basis",
    "uniform_sender_state",
    "loop_state",
    "receiver_target_state",
    "stationary_state",
    "random_state",
    "fidelity",
]


class Vertex(NamedTuple):
    """A graph vertex, identified by partition tag (1 or 2) and 0-based index."""

    partition: int
    index: int


@dataclass(frozen=True)
class BipartiteSpec:
    """Dimensions of the graph plus per-partition self-loop weights.

    A loop weight of exactly 0 means that partition has no loop arcs at all
    (plain walk); any positive weight adds one loop arc per vertex and
    enlarges the vertex degree to ``n_opposite + weight``.
    """

    n1: int
    n2: int
    l1: float = 0.0
    l2: float = 0.0

    def __post_init__(self) -> None:
        for n in (self.n1, self.n2):
            if isinstance(n, bool) or not isinstance(n, numbers.Integral):
                raise ValueError(f"partition sizes must be integers, got {n!r}")
        if self.n1 < 1 or self.n2 < 1:
            raise ValueError("partition sizes must be >= 1")
        if not (math.isfinite(self.l1) and math.isfinite(self.l2)):
            raise ValueError("loop weights must be finite")
        if self.l1 < 0 or self.l2 < 0:
            raise ValueError("loop weights must be >= 0")

    def partition_size(self, partition: int) -> int:
        if partition == 1:
            return self.n1
        if partition == 2:
            return self.n2
        raise ValueError(f"unknown partition {partition!r}")

    def vertex(self, partition: int, index: int) -> Vertex:
        v = Vertex(partition, index)
        if not 0 <= index < self.partition_size(partition):
            raise ValueError(f"vertex index {index} out of range for partition {partition}")
        return v


@dataclass(frozen=True)
class ArcBasis:
    """Fixed arc ordering for one graph: block slices, block views and index maps."""

    spec: BipartiteSpec
    dimension: int

    @property
    def n1(self) -> int:
        return self.spec.n1

    @property
    def n2(self) -> int:
        return self.spec.n2

    @property
    def has_loops1(self) -> bool:
        return self.spec.l1 > 0

    @property
    def has_loops2(self) -> bool:
        return self.spec.l2 > 0

    # -- contiguous blocks ------------------------------------------------
    @property
    def edges_12(self) -> slice:
        """Arcs from partition 1 to partition 2."""
        return slice(0, self.n1 * self.n2)

    @property
    def edges_21(self) -> slice:
        """Arcs from partition 2 to partition 1."""
        return slice(self.n1 * self.n2, 2 * self.n1 * self.n2)

    @property
    def loops1(self) -> slice:
        base = 2 * self.n1 * self.n2
        return slice(base, base + (self.n1 if self.has_loops1 else 0))

    @property
    def loops2(self) -> slice:
        base = 2 * self.n1 * self.n2 + (self.n1 if self.has_loops1 else 0)
        return slice(base, base + (self.n2 if self.has_loops2 else 0))

    def block_12(self, amplitudes: np.ndarray) -> np.ndarray:
        """View of the v1->v2 arcs as an (n1, n2) matrix; row = source vertex."""
        return amplitudes[self.edges_12].reshape(self.n1, self.n2)

    def block_21(self, amplitudes: np.ndarray) -> np.ndarray:
        """View of the v2->v1 arcs as an (n2, n1) matrix; row = source vertex."""
        return amplitudes[self.edges_21].reshape(self.n2, self.n1)

    # -- label <-> index --------------------------------------------------
    def arc_index(self, frm: Vertex, to: Vertex) -> int:
        n1, n2 = self.n1, self.n2
        self.spec.vertex(*frm)
        self.spec.vertex(*to)
        if frm == to:
            return self.loop_index(frm)
        if frm.partition == 1 and to.partition == 2:
            return frm.index * n2 + to.index
        if frm.partition == 2 and to.partition == 1:
            return n1 * n2 + frm.index * n1 + to.index
        raise ValueError(f"no arc between {frm} and {to}: vertices share a partition")

    def loop_index(self, v: Vertex) -> int:
        self.spec.vertex(*v)
        if v.partition == 1:
            if not self.has_loops1:
                raise ValueError("partition 1 has no loop arcs (l1 == 0)")
            return self.loops1.start + v.index
        if not self.has_loops2:
            raise ValueError("partition 2 has no loop arcs (l2 == 0)")
        return self.loops2.start + v.index

    def arc_label(self, index: int) -> tuple[Vertex, Vertex]:
        n1, n2 = self.n1, self.n2
        if not 0 <= index < self.dimension:
            raise ValueError(f"arc index {index} out of range")
        if index < n1 * n2:
            i, j = divmod(index, n2)
            return Vertex(1, i), Vertex(2, j)
        if index < 2 * n1 * n2:
            j, i = divmod(index - n1 * n2, n1)
            return Vertex(2, j), Vertex(1, i)
        if self.has_loops1 and index < self.loops1.stop:
            v = Vertex(1, index - self.loops1.start)
            return v, v
        v = Vertex(2, index - self.loops2.start)
        return v, v


def build_basis(spec: BipartiteSpec) -> ArcBasis:
    """Construct the arc basis for ``spec``; O(1), the layout is implicit."""
    n1, n2 = spec.n1, spec.n2
    dim = 2 * n1 * n2 + (n1 if spec.l1 > 0 else 0) + (n2 if spec.l2 > 0 else 0)
    return ArcBasis(spec=spec, dimension=dim)


@dataclass
class WalkState:
    """Complex amplitude vector over the arcs of one basis.

    Treated as an immutable value: every operation returns a fresh state.
    """

    basis: ArcBasis
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        if self.amplitudes.shape != (self.basis.dimension,):
            raise ValueError(
                f"amplitude vector has length {self.amplitudes.shape}, "
                f"basis dimension is {self.basis.dimension}"
            )
        if self.amplitudes.dtype != np.complex128:
            self.amplitudes = self.amplitudes.astype(np.complex128)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


def _require_same_basis(a: WalkState, b: WalkState) -> None:
    if a.basis.spec != b.basis.spec:
        raise ValueError("states live on different bases")


def fidelity(a: WalkState, b: WalkState) -> float:
    """Squared overlap |<a|b>|^2 between two states on the same basis."""
    _require_same_basis(a, b)
    return float(abs(np.vdot(a.amplitudes, b.amplitudes)) ** 2)


def uniform_sender_state(basis: ArcBasis, s: Vertex | int) -> WalkState:
    """Uniform superposition over the arcs leaving the sender toward partition 2.

    The sender must be in partition 1.  When the sender carries a self-loop
    the loop arc deliberately gets amplitude 0: the state is supported on the
    n2 edge arcs only.
    """
    s = Vertex(1, s) if isinstance(s, int) else s
    if s.partition != 1:
        raise ValueError("sender vertex must be in partition 1")
    basis.spec.vertex(*s)
    amps = np.zeros(basis.dimension, dtype=np.complex128)
    basis.block_12(amps)[s.index, :] = 1.0 / math.sqrt(basis.n2)
    return WalkState(basis, amps)


def loop_state(basis: ArcBasis, v: Vertex) -> WalkState:
    """Basis state concentrated on the self-loop arc of ``v``."""
    amps = np.zeros(basis.dimension, dtype=np.complex128)
    amps[basis.loop_index(v)] = 1.0
    return WalkState(basis, amps)


def receiver_target_state(basis: ArcBasis, r: Vertex) -> WalkState:
    """Uniform superposition over the arcs leaving ``r`` toward the opposite partition.

    Loop arcs are excluded; the support is exactly the edge arcs out of ``r``.
    """
    basis.spec.vertex(*r)
    amps = np.zeros(basis.dimension, dtype=np.complex128)
    if r.partition == 1:
        basis.block_12(amps)[r.index, :] = 1.0 / math.sqrt(basis.n2)
    else:
        basis.block_21(amps)[r.index, :] = 1.0 / math.sqrt(basis.n1)
    return WalkState(basis, amps)


def stationary_state(basis: ArcBasis) -> WalkState:
    """Weighted uniform state fixed by the unmarked loop-walk step.

    Amplitude 1 on every edge arc and sqrt(l) on every loop arc of the
    corresponding partition, normalised by sqrt(2*n1*n2 + l1*n1 + l2*n2).
    Requires loops in both partitions.
    """
    spec = basis.spec
    if not (basis.has_loops1 and basis.has_loops2):
        raise ValueError("stationary state requires positive loop weights in both partitions")
    norm = math.sqrt(2 * spec.n1 * spec.n2 + spec.l1 * spec.n1 + spec.l2 * spec.n2)
    amps = np.empty(basis.dimension, dtype=np.complex128)
    amps[basis.edges_12] = 1.0
    amps[basis.edges_21] = 1.0
    amps[basis.loops1] = math.sqrt(spec.l1)
    amps[basis.loops2] = math.sqrt(spec.l2)
    amps /= norm
    return WalkState(basis, amps)


def random_state(basis: ArcBasis, rng: np.random.Generator) -> WalkState:
    """Haar-ish random unit vector, for property checks."""
    amps = rng.standard_normal(basis.dimension) + 1j * rng.standard_normal(basis.dimension)
    amps /= np.linalg.norm(amps)
    return WalkState(basis, amps)
