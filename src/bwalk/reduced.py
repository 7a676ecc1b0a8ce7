"""Invariant subspaces of the walk and their reduced operators and spectra.

Three low-dimensional subspaces are closed under the evolution:

* opposite-partition transfer (negated-Grover marking): a 4-dim space of
  partition-2 -> partition-1 arcs, closed under the two-step operator;
* same-partition transfer: a 3-dim space of partition-1 -> partition-2
  arcs, closed under the two-step operator (independent of n2);
* single marked vertex on the loop walk: a 7-dim space closed under a
  single step.

``reduced_matrix`` returns the operator in closed form (columns are the
images of the basis vectors); ``build_subspace`` realises the basis as
full-space states so the closed forms can be cross-checked against the
simulator.  The 7-dim model additionally has a closed-form *asymptotic*
eigenbasis, exact only in the large-graph limit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import lumped
from .analytic import grover_angle
from .graph import ArcBasis, BipartiteSpec, Vertex, WalkState, build_basis
from .operators import MarkedScenario

__all__ = [
    "SubspaceBasis",
    "ReducedOperator",
    "EigenSystem",
    "build_subspace",
    "reduced_matrix",
    "reduced_eigensystem",
    "numeric_eigensystem",
    "embed",
    "project",
    "sigma_eigen_coefficients",
    "sigma_subspace_coefficients",
    "sigma_subspace_limit",
    "sigma_reconstruction_error",
    "principal_angles",
]


@dataclass(frozen=True)
class SubspaceBasis:
    """An orthonormal invariant basis realised as full-space states."""

    scenario: MarkedScenario
    spec: BipartiteSpec
    basis: ArcBasis
    states: tuple[WalkState, ...]

    @property
    def dimension(self) -> int:
        return len(self.states)

    def matrix(self) -> np.ndarray:
        """(full_dim, k) matrix whose columns are the basis vectors."""
        return np.column_stack([s.amplitudes for s in self.states])


@dataclass(frozen=True)
class ReducedOperator:
    """Reduced evolution matrix; column j holds the image of basis vector j.

    ``power`` is the number of walk steps the matrix represents (2 for the
    transfer models, 1 for the single-marked loop walk).
    """

    scenario: MarkedScenario
    spec: BipartiteSpec
    matrix: np.ndarray
    power: int


@dataclass(frozen=True)
class EigenSystem:
    """Eigenvalues/eigenvectors of a reduced operator, plus named phases.

    ``asymptotic`` marks the closed-form 7-dim eigenbasis, which solves the
    operator only up to O(1/sqrt(n)) residuals.
    """

    values: np.ndarray
    vectors: np.ndarray  # column i pairs with values[i]
    phases: dict[str, float]
    asymptotic: bool = False


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ValueError(message)


def _marked_sides(spec: BipartiteSpec, m: Vertex) -> tuple[int, int, float, float]:
    """(size of m's partition, other size, m's loop weight, other loop weight)."""
    if m.partition == 1:
        return spec.n1, spec.n2, spec.l1, spec.l2
    return spec.n2, spec.n1, spec.l2, spec.l1


def _another(partition: int, *taken: Vertex) -> Vertex:
    """A vertex of ``partition`` other than ``taken``, among indices 0..2."""
    return Vertex(partition, min({0, 1, 2} - {v.index for v in taken}))


def build_subspace(scenario: MarkedScenario, spec: BipartiteSpec) -> SubspaceBasis:
    """Realise the invariant basis of ``scenario`` as orthonormal full-space states.

    Every basis state is the uniform state of one arc orbit of the marked
    vertices' orbit space (``lumped``), named below by one of its arcs.
    """
    n1, n2 = spec.n1, spec.n2
    if scenario.kind == "diff":
        _require(scenario.flavor == "gg", "the 4-dim invariant basis holds for the negated-Grover marking only")
        _require(n1 >= 2 and n2 >= 2, "opposite-partition subspace needs n1 >= 2 and n2 >= 2")
        s, r = scenario.sender, scenario.receiver
        o1, o2 = _another(1, s), _another(2, r)
        arcs = [(r, s), (r, o1), (o2, s), (o2, o1)]
    elif scenario.kind == "same":
        _require(scenario.flavor == "gg", "the 3-dim invariant basis holds for the negated-Grover marking only")
        _require(n1 >= 3, "same-partition subspace needs n1 >= 3")
        s, r, w = scenario.sender, scenario.receiver, Vertex(2, 0)
        arcs = [(s, w), (r, w), (_another(1, s, r), w)]
    elif scenario.kind == "single":
        m = scenario.marked
        _require(spec.l1 > 0 and spec.l2 > 0, "single-marked subspace needs loops in both partitions")
        _require(spec.partition_size(m.partition) >= 2, "single-marked subspace needs at least 2 vertices in the marked partition")
        o, w = _another(m.partition, m), Vertex(3 - m.partition, 0)
        arcs = [(m, m), (m, w), (w, m), (w, w), (w, o), (o, w), (o, o)]
    else:
        raise ValueError(f"no invariant basis for scenario kind {scenario.kind!r}")

    basis = build_basis(spec)
    space = lumped.orbit_space(spec, scenario.marked_vertices())
    orbit = lumped.arc_orbits(space, basis)
    scale = 1.0 / np.sqrt(np.bincount(orbit))[orbit]
    states = tuple(WalkState(basis, np.where(orbit == space.orbit_index(*arc), scale, 0.0)) for arc in arcs)
    return SubspaceBasis(scenario=scenario, spec=spec, basis=basis, states=states)


def _diff_matrix(n1: int, n2: int) -> np.ndarray:
    c1, s1 = 1 - 2 / n1, (2 / n1) * math.sqrt(n1 - 1)
    c2, s2 = 1 - 2 / n2, (2 / n2) * math.sqrt(n2 - 1)
    return np.array(
        [
            [c1 * c2, -s1 * c2, c1 * s2, -s1 * s2],
            [s1 * c2, c1 * c2, s1 * s2, c1 * s2],
            [-c1 * s2, s1 * s2, c1 * c2, -s1 * c2],
            [-s1 * s2, -c1 * s2, s1 * c2, c1 * c2],
        ]
    )


def _same_matrix(n1: int) -> np.ndarray:
    q = 2.0 / n1
    r = 2.0 * math.sqrt(n1 - 2) / n1
    return np.array(
        [
            [1 - q, -q, r],
            [-q, 1 - q, r],
            [-r, -r, 1 - 2 * q],
        ]
    )


def _single_matrix(nm: int, no: int, lm: float, lo: float) -> np.ndarray:
    """One-step reduced operator for one marked vertex; marked partition has
    ``nm`` vertices with loop weight ``lm``, the other side ``no`` and ``lo``."""
    dm = no + lm  # degree on the marked side
    do = nm + lo  # degree on the other side
    m = np.zeros((7, 7))
    m[0, 0] = (no - lm) / dm
    m[0, 1] = -2 * math.sqrt(no * lm) / dm
    m[1, 2] = (2 - nm - lo) / do
    m[1, 3] = 2 * math.sqrt(lo) / do
    m[1, 4] = 2 * math.sqrt(nm - 1) / do
    m[2, 0] = -2 * math.sqrt(no * lm) / dm
    m[2, 1] = (lm - no) / dm
    m[3, 2] = 2 * math.sqrt(lo) / do
    m[3, 3] = (lo - nm) / do
    m[3, 4] = 2 * math.sqrt(lo * (nm - 1)) / do
    m[4, 5] = (no - lm) / dm
    m[4, 6] = 2 * math.sqrt(no * lm) / dm
    m[5, 2] = 2 * math.sqrt(nm - 1) / do
    m[5, 3] = 2 * math.sqrt(lo * (nm - 1)) / do
    m[5, 4] = (nm - 2 - lo) / do
    m[6, 5] = 2 * math.sqrt(no * lm) / dm
    m[6, 6] = (lm - no) / dm
    return m


def reduced_matrix(scenario: MarkedScenario, spec: BipartiteSpec) -> ReducedOperator:
    """Closed-form reduced operator for ``scenario`` on ``spec``."""
    if scenario.kind == "diff":
        _require(scenario.flavor == "gg", "reduced operator holds for the negated-Grover marking only")
        _require(spec.n1 >= 2 and spec.n2 >= 2, "opposite-partition model needs n1, n2 >= 2")
        _require(spec.l1 == 0 and spec.l2 == 0, "opposite-partition model is loop-free")
        return ReducedOperator(scenario, spec, _diff_matrix(spec.n1, spec.n2), power=2)
    if scenario.kind == "same":
        _require(scenario.flavor == "gg", "reduced operator holds for the negated-Grover marking only")
        _require(spec.n1 >= 3, "same-partition model needs n1 >= 3")
        _require(spec.l1 == 0 and spec.l2 == 0, "same-partition model is loop-free")
        return ReducedOperator(scenario, spec, _same_matrix(spec.n1), power=2)
    if scenario.kind == "single":
        _require(spec.l1 > 0 and spec.l2 > 0, "single-marked model needs loops in both partitions")
        nm, no, lm, lo = _marked_sides(spec, scenario.marked)
        _require(nm >= 2, "single-marked model needs at least 2 vertices in the marked partition")
        return ReducedOperator(scenario, spec, _single_matrix(nm, no, lm, lo), power=1)
    raise ValueError(f"no reduced operator for scenario kind {scenario.kind!r}")


def _phase_normalized(vec: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    for comp in vec:
        if abs(comp) > tol:
            return vec * (abs(comp) / comp)
    return vec


def _single_asymptotic_vectors(nm: int, no: int, lm: float, lo: float) -> tuple[np.ndarray, np.ndarray]:
    ratio = lm * nm / no
    b = math.sqrt((2 * lm * nm + no) / (4 * lm * nm))
    c = math.sqrt(no / (4 * lm * nm))
    h = math.sqrt((2 * lm * nm + (1 + 2 * lo) * no) / (2 * no))
    g = math.sqrt(2 * lm * nm / no)
    v1 = np.array([1, 0, 0, 0, -math.sqrt(ratio), -math.sqrt(ratio), 0], dtype=complex)
    v1 /= math.sqrt(1 + 2 * ratio)
    n23 = math.sqrt(2 + no / (lm * nm))
    v2 = np.array([1, 1j * b, -1j * b, 0, c, c, 0], dtype=complex) / n23
    v3 = np.array([1, -1j * b, 1j * b, 0, c, c, 0], dtype=complex) / n23
    v4 = np.array([0, 1, 1, 0, 0, 0, math.sqrt(no / (lm * nm))], dtype=complex) / n23
    v5 = np.array([0, 0, 0, 1, 0, 0, math.sqrt(lo * no / (lm * nm))], dtype=complex)
    v5 /= math.sqrt(1 + lo * no / (lm * nm))
    n67 = math.sqrt(2 + 4 * (lm * nm + lo * no) / no)
    inv_sqrt2 = 1 / math.sqrt(2)
    v6 = np.array([0, inv_sqrt2, inv_sqrt2, math.sqrt(2 * lo), -1j * h, 1j * h, -g], dtype=complex) / n67
    v7 = np.array([0, inv_sqrt2, inv_sqrt2, math.sqrt(2 * lo), 1j * h, -1j * h, -g], dtype=complex) / n67
    theta = math.asin(math.sqrt((2 * lm * nm + no) / (nm * no)))
    phi = math.asin(math.sqrt((2 * lm * nm + no + 2 * lo * no) / (nm * no)))
    values = np.array(
        [1.0, np.exp(-1j * theta), np.exp(1j * theta), -1.0, -1.0, -np.exp(1j * phi), -np.exp(-1j * phi)]
    )
    vectors = np.column_stack([v1, v2, v3, v4, v5, v6, v7])
    return values, vectors


def reduced_eigensystem(scenario: MarkedScenario, spec: BipartiteSpec) -> EigenSystem:
    """Eigen-decomposition of the reduced operator.

    Opposite-partition: exact closed form (phases are the sum and difference
    of the two per-partition reflection angles).  Same-partition: numeric
    diagonalisation plus the closed-form rotation phase arccos(1 - 4/n1).
    Single-marked: the closed-form large-graph eigenbasis, flagged asymptotic.
    """
    if scenario.kind == "diff":
        th1, th2 = grover_angle(spec.n1), grover_angle(spec.n2)
        alpha, beta = th1 + th2, th1 - th2
        values = np.array([np.exp(1j * alpha), np.exp(-1j * alpha), np.exp(1j * beta), np.exp(-1j * beta)])
        vectors = 0.5 * np.column_stack(
            [
                np.array([1, -1j, 1j, 1]),
                np.array([1, 1j, -1j, 1]),
                np.array([-1, 1j, 1j, 1]),
                np.array([-1, -1j, -1j, 1]),
            ]
        )
        return EigenSystem(values=values, vectors=vectors, phases={"sum": alpha, "difference": beta})
    if scenario.kind == "same":
        op = reduced_matrix(scenario, spec)
        system = numeric_eigensystem(op)
        system.phases["rotation"] = 2.0 * math.asin(math.sqrt(2 / spec.n1))
        return system
    if scenario.kind == "single":
        _require(spec.l1 > 0 and spec.l2 > 0, "single-marked model needs loops in both partitions")
        nm, no, lm, lo = _marked_sides(spec, scenario.marked)
        _require(nm >= 2, "single-marked model needs at least 2 vertices in the marked partition")
        values, vectors = _single_asymptotic_vectors(nm, no, lm, lo)
        theta = math.asin(math.sqrt((2 * lm * nm + no) / (nm * no)))
        phi = math.asin(math.sqrt((2 * lm * nm + no + 2 * lo * no) / (nm * no)))
        return EigenSystem(
            values=values, vectors=vectors, phases={"slow": theta, "fast": phi}, asymptotic=True
        )
    raise ValueError(f"no eigensystem for scenario kind {scenario.kind!r}")


def numeric_eigensystem(op: ReducedOperator) -> EigenSystem:
    """Exact numeric diagonalisation, deterministic up to eigenvalue ordering.

    Eigenvalues are sorted by phase angle; each eigenvector's first
    sizeable component is rotated to the positive real axis.
    """
    values, vectors = np.linalg.eig(op.matrix.astype(np.complex128))
    order = np.argsort(np.round(np.angle(values), 12), kind="stable")
    values = values[order]
    vectors = vectors[:, order]
    for i in range(vectors.shape[1]):
        vectors[:, i] = _phase_normalized(vectors[:, i])
    return EigenSystem(values=values, vectors=vectors, phases={})


def embed(sub: SubspaceBasis, coeffs: np.ndarray) -> WalkState:
    """Full-space state with the given coordinates in the subspace basis."""
    coeffs = np.asarray(coeffs, dtype=np.complex128)
    if coeffs.shape != (sub.dimension,):
        raise ValueError(f"expected {sub.dimension} coefficients, got {coeffs.shape}")
    return WalkState(sub.basis, sub.matrix() @ coeffs)


def project(sub: SubspaceBasis, state: WalkState) -> tuple[np.ndarray, float]:
    """Coordinates of ``state`` in the subspace basis, plus the out-of-subspace residual norm."""
    if state.basis.spec != sub.spec:
        raise ValueError("state lives on a different basis")
    m = sub.matrix()
    coeffs = m.conj().T @ state.amplitudes
    residual = float(np.linalg.norm(state.amplitudes - m @ coeffs))
    return coeffs, residual


def sigma_eigen_coefficients() -> np.ndarray:
    """Large-graph coordinates of the stationary state in the asymptotic eigenbasis."""
    return np.array([-1 / math.sqrt(2), 0.5, 0.5, 0.0, 0.0, 0.0, 0.0], dtype=complex)


def sigma_subspace_coefficients(spec: BipartiteSpec, marked: Vertex) -> np.ndarray:
    """Exact coordinates of the stationary state in the 7-dim single-marked basis.

    The stationary state lies entirely inside the subspace, so these
    coordinates reproduce it with zero residual at any size.
    """
    _require(spec.l1 > 0 and spec.l2 > 0, "stationary state needs loops in both partitions")
    nm, no, lm, lo = _marked_sides(spec, marked)
    norm = math.sqrt(2 * spec.n1 * spec.n2 + spec.l1 * spec.n1 + spec.l2 * spec.n2)
    raw = np.array(
        [
            math.sqrt(lm),
            math.sqrt(no),
            math.sqrt(no),
            math.sqrt(lo * no),
            math.sqrt(no * (nm - 1)),
            math.sqrt(no * (nm - 1)),
            math.sqrt(lm * (nm - 1)),
        ],
        dtype=complex,
    )
    return raw / norm


def sigma_subspace_limit() -> np.ndarray:
    """Large-graph limit of the stationary state in the 7-dim basis coordinates."""
    inv_sqrt2 = 1 / math.sqrt(2)
    return np.array([0, 0, 0, 0, inv_sqrt2, inv_sqrt2, 0], dtype=complex)


def sigma_reconstruction_error(spec: BipartiteSpec, marked: Vertex) -> float:
    """Euclidean distance between the exact stationary state and its
    fixed-coefficient expansion in the asymptotic eigenbasis.

    Computed entirely in the 7-dim coordinates, so it stays cheap at sizes
    where the full arc space would be enormous.
    """
    scenario = MarkedScenario.single_marked(marked)
    system = reduced_eigensystem(scenario, spec)
    reconstruction = system.vectors @ sigma_eigen_coefficients()
    exact = sigma_subspace_coefficients(spec, marked)
    return float(np.linalg.norm(exact - reconstruction))


def principal_angles(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Principal angles between the column spans of ``a`` and ``b``.

    Used to compare degenerate eigenspaces, where individual eigenvectors
    are basis-ambiguous.
    """
    qa, _ = np.linalg.qr(a)
    qb, _ = np.linalg.qr(b)
    sv = np.linalg.svd(qa.conj().T @ qb, compute_uv=False)
    return np.arccos(np.clip(sv, -1.0, 1.0))
