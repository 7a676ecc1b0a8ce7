"""Closed-form transfer fidelities and the step-count optimizer.

Every fidelity function takes a *step count* (real-valued, so the same
expression describes the continuous envelope and the integer-step walk) and
agrees with full arc-space evolution at integer steps of the right parity
to machine precision.  The curves oscillate slowly (frequency set by the
per-partition reflection angle arccos(1 - 2/n)), so a coarse scan plus
golden-section refinement finds global maxima reliably.

Every angle arccos(1 - 2x) is taken as 2 arcsin(sqrt(x)), which keeps full
relative precision as x -> 0 (arccos is off by 1e-5 relative at n = 1e12).
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

__all__ = [
    "grover_angle",
    "lqw_angle",
    "fidelity_diff_gg",
    "fidelity_diff_gi",
    "fidelity_same",
    "fidelity_lqw",
    "t_max_equal",
    "maximize_fidelity",
    "best_parity_step",
]


def grover_angle(n: int) -> float:
    """Reflection angle of one Grover coin block: arccos(1 - 2/n) = 2 arcsin(1/sqrt(n))."""
    if n < 1:
        raise ValueError("partition size must be >= 1")
    return 2.0 * math.asin(1.0 / math.sqrt(n))


def lqw_angle(n: int) -> float:
    """Rotation angle per step of the single-marked loop walk: arcsin(sqrt(2/n))."""
    if n < 2:
        raise ValueError("partition size must be >= 2")
    return math.asin(math.sqrt(2 / n))


def fidelity_diff_gg(n1: int, n2: int, steps):
    """Transfer fidelity, sender and receiver in opposite partitions, both
    marked with the negated Grover coin.

    Exact for the simulated walk at odd integer ``steps`` (even steps give
    exactly zero and are not described by this envelope).  The envelope is
    parameterised by the half-step count t = (steps + 1) / 2.  Evaluating it
    at t = (steps - 1) / 2 instead gives F(steps - 2), every feature two
    steps late; that curve is not the time-reversed walk, whose fidelities
    equal the walk's (coin and shift are involutions, and the sender and
    receiver states are eigenvectors of the marked coin).
    """
    if n1 < 1 or n2 < 1:
        raise ValueError("partition sizes must be >= 1")
    t = (np.asarray(steps, dtype=float) + 1.0) / 2.0
    th1, th2 = grover_angle(n1), grover_angle(n2)
    a = math.sqrt(n1 - 1) * np.sin(th1 * t) - np.cos(th1 * t)
    b = math.sqrt(n2 - 1) * np.sin(th2 * t) - np.cos(th2 * t)
    out = (a * b) ** 2 / (n1 * n2)
    return out if out.ndim else float(out)


def fidelity_diff_gi(n1: int, n2: int, steps):
    """Transfer fidelity, opposite partitions, marked with the negated identity coin.

    Exact for the simulated walk at odd integer ``steps``; envelope
    parameterised by t = (steps - 1) / 2.
    """
    if n1 < 1 or n2 < 1:
        raise ValueError("partition sizes must be >= 1")
    t = (np.asarray(steps, dtype=float) - 1.0) / 2.0
    omega = 2.0 * math.asin(math.sqrt((n1 + n2 - 1) / (n1 * n2)))  # arccos(1 - 2 (n1 + n2 - 1) / (n1 n2))
    cross = math.sqrt((n1 - 1) * (n2 - 1) * (n1 + n2 - 1))
    num = n1 * n2 - (n1 - 1) * (n2 - 1) * np.cos(omega * t) + cross * np.sin(omega * t)
    out = num**2 / (n1 * n2 * (n1 + n2 - 1) ** 2)
    return out if out.ndim else float(out)


def fidelity_same(n1: int, steps):
    """Transfer fidelity, sender and receiver in the same partition (size n1).

    Independent of the opposite partition's size.  Exact at even integer
    ``steps`` (odd steps give exactly zero): sin^4(omega * steps / 4) with
    omega = arccos(1 - 4/n1) = 2 arcsin(sqrt(2/n1)).
    """
    if n1 < 2:
        raise ValueError("same-partition transfer needs n1 >= 2")
    omega = 2.0 * math.asin(math.sqrt(2 / n1))
    out = np.sin(omega * np.asarray(steps, dtype=float) / 4.0) ** 4
    return out if out.ndim else float(out)


def fidelity_lqw(n1: int, steps):
    """Loop-walk fidelity between the evolved stationary state and the marked
    loop, for a marked vertex in a partition of size n1 (large-graph form).

    Reaches 1 at steps = pi / arcsin(sqrt(2/n1)).
    """
    theta = lqw_angle(n1)
    out = 0.25 * (np.cos(theta * np.asarray(steps, dtype=float)) - 1.0) ** 2
    return out if out.ndim else float(out)


def t_max_equal(n1: int) -> float:
    """First step count (real) where the equal-partition fidelity reaches 1.

    For n1 = n2 the fidelity envelope attains its exact maximum 1 first at
    2*(pi - arctan(sqrt(n1-1)))/arccos(1 - 2/n1) - 1 steps; the nearby odd
    integer gives (almost) perfect transfer.
    """
    if n1 < 2:
        raise ValueError("equal-partition transfer needs n1 >= 2")
    return 2 * (math.pi - math.atan(math.sqrt(n1 - 1))) / grover_angle(n1) - 1


_INV_PHI = (math.sqrt(5) - 1) / 2


def _golden_max(f: Callable[[float], float], a: float, b: float, tol: float) -> float:
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc, fd = float(f(c)), float(f(d))
    while (b - a) > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = float(f(c))
        else:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = float(f(d))
    return 0.5 * (a + b)


def maximize_fidelity(
    f: Callable[[np.ndarray], np.ndarray],
    window: tuple[float, float],
    grid: float = 0.01,
    refine_tol: float = 1e-8,
) -> tuple[float, float]:
    """Global maximum of ``f`` on the open interval ``window``.

    Scans a uniform grid (spacing ``grid``, well below the oscillation
    period for every size), golden-section refines every local maximum that
    comes within grid-sampling error of the top, and among refined near-ties
    returns the earliest maximizer.  The tie rule keeps the result
    deterministic when several peaks reach the same height and favours the
    shortest walk.
    """
    lo, hi = window
    if not hi > lo:
        raise ValueError("empty optimization window")
    count = int(math.floor((hi - lo) / grid))
    xs = lo + grid * np.arange(1, count)
    if xs.size == 0:
        raise ValueError("optimization window smaller than the scan grid")
    ys = np.asarray(f(xs), dtype=float)
    top = float(ys.max())
    # a grid point can undershoot its peak by O(|f''| grid^2); 1e-3 covers
    # every fidelity curve here with two orders of margin
    cut = top - 1e-3 * max(1.0, abs(top))
    inner = (ys[1:-1] >= ys[:-2]) & (ys[1:-1] >= ys[2:]) if ys.size >= 3 else np.zeros(0, bool)
    candidates = [i + 1 for i in np.flatnonzero(inner) if ys[i + 1] >= cut]
    for edge in (0, ys.size - 1):
        if ys[edge] >= cut:
            candidates.append(edge)
    refined = []
    for i in sorted(set(candidates)):
        a = xs[i - 1] if i > 0 else lo
        b = xs[i + 1] if i + 1 < xs.size else hi
        x = _golden_max(lambda v: float(f(v)), float(a), float(b), refine_tol)
        refined.append((x, float(f(x))))
    best_y = max(y for _, y in refined)
    tie = 1e-9 * max(1.0, abs(best_y))
    best_x = min(x for x, y in refined if y >= best_y - tie)
    return best_x, float(f(best_x))


def best_parity_step(f: Callable[[float], float], x_star: float, parity: str) -> int:
    """Integer step of the required parity closest to the continuous maximizer.

    Equidistant candidates are broken by the larger fidelity, then by the
    smaller step count (shorter walk).
    """
    if parity == "odd":
        low = 2 * math.floor((x_star - 1) / 2) + 1
        minimum = 1
    elif parity == "even":
        low = 2 * math.floor(x_star / 2)
        minimum = 2
    else:
        raise ValueError(f"unknown parity {parity!r}")
    high = low + 2
    if low < minimum:
        return max(high, minimum)
    d_low, d_high = x_star - low, high - x_star
    if d_low < d_high:
        return low
    if d_high < d_low:
        return high
    f_low, f_high = float(f(low)), float(f(high))
    return low if f_low >= f_high else high
