"""Flip-flop shift, Grover-type coins with marked vertices, and the walk step.

One step of the walk is shift-after-coin.  The coin acts block-locally: at
each vertex it reflects the outgoing-arc amplitudes about the uniform coin
direction (which, on a vertex with a weighted self-loop, includes the loop
direction with amplitude sqrt(l)/sqrt(degree)).  Marked vertices get the
negated reflection or the negated identity instead.  Everything is
matrix-free: a step costs O(dimension).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .graph import ArcBasis, BipartiteSpec, Vertex, WalkState

__all__ = [
    "CoinKind",
    "CoinConfig",
    "MarkedScenario",
    "apply_shift",
    "apply_coin",
    "step",
    "evolve",
]


class CoinKind(Enum):
    """Coin at one vertex; ``GROVER_PLUS`` is the unmarked Grover reflection."""

    GROVER_PLUS = "grover"
    GROVER_MINUS = "neg-grover"
    NEG_IDENTITY = "neg-identity"


@dataclass(frozen=True)
class CoinConfig:
    """Per-vertex coin assignment: the marked vertices and their coin kinds.

    Every vertex not in ``overrides`` gets the Grover reflection
    (``CoinKind.GROVER_PLUS``).
    """

    basis: ArcBasis
    overrides: dict[Vertex, CoinKind] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for v in self.overrides:
            self.basis.spec.vertex(*v)

    def _partition_overrides(self, partition: int) -> list[tuple[int, CoinKind]]:
        return [(v.index, k) for v, k in self.overrides.items() if v.partition == partition]


@dataclass(frozen=True)
class MarkedScenario:
    """Which vertices are marked, how, and with which coin flavor.

    ``kind`` is one of ``"diff"`` (sender in partition 1, receiver in
    partition 2), ``"same"`` (sender and receiver both in partition 1),
    ``"single"`` (one marked vertex, loop walk), or ``"unmarked"``.
    ``flavor`` selects the marked coin: ``"gg"`` negates the Grover
    reflection, ``"gi"`` replaces it with the negated identity.
    """

    kind: str
    flavor: str = "gg"
    sender: Vertex | None = None
    receiver: Vertex | None = None
    marked: Vertex | None = None

    @classmethod
    def diff_partition(cls, s_index: int = 0, r_index: int = 0, flavor: str = "gg") -> "MarkedScenario":
        return cls(kind="diff", flavor=flavor, sender=Vertex(1, s_index), receiver=Vertex(2, r_index))

    @classmethod
    def same_partition(cls, s_index: int = 0, r_index: int = 1, flavor: str = "gg") -> "MarkedScenario":
        if s_index == r_index:
            raise ValueError("same-partition transfer needs distinct sender and receiver")
        return cls(kind="same", flavor=flavor, sender=Vertex(1, s_index), receiver=Vertex(1, r_index))

    @classmethod
    def single_marked(cls, marked: Vertex) -> "MarkedScenario":
        return cls(kind="single", marked=marked)

    @classmethod
    def unmarked(cls) -> "MarkedScenario":
        return cls(kind="unmarked")

    def __post_init__(self) -> None:
        if self.kind not in ("diff", "same", "single", "unmarked"):
            raise ValueError(f"unknown scenario kind {self.kind!r}")
        if self.flavor not in ("gg", "gi"):
            raise ValueError(f"unknown coin flavor {self.flavor!r}")
        if self.kind == "diff":
            if self.sender is None or self.receiver is None:
                raise ValueError("diff scenario needs sender and receiver")
            if self.sender.partition != 1 or self.receiver.partition != 2:
                raise ValueError("diff scenario: sender must be in partition 1, receiver in partition 2")
        if self.kind == "same":
            if self.sender is None or self.receiver is None:
                raise ValueError("same scenario needs sender and receiver")
            if self.sender.partition != 1 or self.receiver.partition != 1:
                raise ValueError("same scenario: sender and receiver must be in partition 1")
            if self.sender == self.receiver:
                raise ValueError("same-partition transfer needs distinct sender and receiver")
        if self.kind == "single" and self.marked is None:
            raise ValueError("single scenario needs the marked vertex")

    @property
    def parity(self) -> str:
        """Step parity at which transfer fidelity can be nonzero (loop-free walks)."""
        if self.kind == "diff":
            return "odd"
        if self.kind == "same":
            return "even"
        return "all"

    def marked_vertices(self) -> tuple[Vertex, ...]:
        if self.kind in ("diff", "same"):
            return (self.sender, self.receiver)
        if self.kind == "single":
            return (self.marked,)
        return ()

    def coin_overrides(self) -> dict[Vertex, CoinKind]:
        """The coin of every marked vertex; all other vertices keep the Grover reflection."""
        marked_kind = CoinKind.GROVER_MINUS if self.flavor == "gg" else CoinKind.NEG_IDENTITY
        return {v: marked_kind for v in self.marked_vertices()}

    def coin_config(self, basis: ArcBasis) -> CoinConfig:
        return CoinConfig(basis=basis, overrides=self.coin_overrides())

    def validate_spec(self, spec: BipartiteSpec) -> None:
        for v in self.marked_vertices():
            spec.vertex(*v)
        if self.kind == "same" and spec.n1 < 2:
            raise ValueError("same-partition scenario needs n1 >= 2")


def _coin_partition(
    out_edges: np.ndarray,
    in_edges: np.ndarray,
    out_loops: np.ndarray | None,
    in_loops: np.ndarray | None,
    loop_weight: float,
    overrides: list[tuple[int, CoinKind]],
) -> None:
    """Apply the coin of one partition: the Grover reflection at every vertex,
    then the marked rows (``overrides``) negated or replaced by ``-in``.

    ``in_edges``/``out_edges`` are (n_vertices, n_opposite) views, one row per
    vertex; loop arrays are the matching per-vertex loop amplitudes or None.
    """
    n_opposite = in_edges.shape[1]
    degree = n_opposite + loop_weight
    inv_sqrt_d = 1.0 / math.sqrt(degree)
    if in_loops is not None:
        sqrt_l = math.sqrt(loop_weight)
        inner = (in_edges.sum(axis=1) + sqrt_l * in_loops) * inv_sqrt_d
        out_edges[:] = (2.0 * inv_sqrt_d) * inner[:, None] - in_edges
        out_loops[:] = (2.0 * sqrt_l * inv_sqrt_d) * inner - in_loops
    else:
        inner = in_edges.sum(axis=1) * inv_sqrt_d
        out_edges[:] = (2.0 * inv_sqrt_d) * inner[:, None] - in_edges

    for idx, kind in overrides:
        if kind is CoinKind.GROVER_MINUS:
            out_edges[idx] *= -1.0
            if out_loops is not None:
                out_loops[idx] *= -1.0
        elif kind is CoinKind.NEG_IDENTITY:
            out_edges[idx] = -in_edges[idx]
            if out_loops is not None:
                out_loops[idx] = -in_loops[idx]


def _step_array(amps: np.ndarray, config: CoinConfig) -> np.ndarray:
    """Coin then flip-flop shift in one pass: each partition's coin writes
    its output through the transposed view of the opposite edge block, which
    is where the shift moves arc (v, u) to arc (u, v)."""
    basis = config.basis
    out = np.empty_like(amps)
    in_loops1 = amps[basis.loops1] if basis.has_loops1 else None
    out_loops1 = out[basis.loops1] if basis.has_loops1 else None
    in_loops2 = amps[basis.loops2] if basis.has_loops2 else None
    out_loops2 = out[basis.loops2] if basis.has_loops2 else None
    _coin_partition(
        basis.block_21(out).T, basis.block_12(amps),
        out_loops1, in_loops1, basis.spec.l1,
        config._partition_overrides(1),
    )
    _coin_partition(
        basis.block_12(out).T, basis.block_21(amps),
        out_loops2, in_loops2, basis.spec.l2,
        config._partition_overrides(2),
    )
    return out


def apply_shift(state: WalkState) -> WalkState:
    """Flip-flop shift: amplitude of arc (v, u) moves to arc (u, v); loops stay put."""
    basis, amps = state.basis, state.amplitudes
    out = amps.copy()
    basis.block_12(out)[:] = basis.block_21(amps).T
    basis.block_21(out)[:] = basis.block_12(amps).T
    return WalkState(basis, out)


def apply_coin(state: WalkState, config: CoinConfig) -> WalkState:
    """Block-local coin: Grover reflection per vertex, sign-flipped where marked.

    Computed as one step followed by the shift again; the shift is an
    involution that only moves values, so the result is exact.
    """
    return apply_shift(step(state, config))


def step(state: WalkState, config: CoinConfig) -> WalkState:
    """One walk step: coin, then flip-flop shift."""
    if config.basis.spec != state.basis.spec:
        raise ValueError("coin config built for a different basis")
    return WalkState(state.basis, _step_array(state.amplitudes, config))


def evolve(state: WalkState, config: CoinConfig, steps: int) -> WalkState:
    """Apply ``steps`` walk steps; 0 steps returns a copy of the input."""
    if steps < 0:
        raise ValueError("step count must be >= 0")
    if config.basis.spec != state.basis.spec:
        raise ValueError("coin config built for a different basis")
    amps = state.amplitudes
    for _ in range(steps):
        amps = _step_array(amps, config)
    return WalkState(state.basis, amps if amps is not state.amplitudes else amps.copy())
