import math

import numpy as np
import pytest

from bwalk import (
    best_parity_step,
    fidelity_diff_gg,
    fidelity_diff_gi,
    fidelity_lqw,
    fidelity_same,
    grover_angle,
    lqw_angle,
    maximize_fidelity,
    t_max_equal,
    transfer_window,
)

from helpers import simulated_fidelity_series
from bwalk.graph import BipartiteSpec
from bwalk.operators import MarkedScenario
from bwalk.reduced import reduced_eigensystem


def test_angles():
    assert grover_angle(2) == pytest.approx(math.pi / 2, abs=1e-15)
    assert lqw_angle(2) == pytest.approx(math.pi / 2, abs=1e-15)
    with pytest.raises(ValueError):
        grover_angle(0)
    with pytest.raises(ValueError):
        lqw_angle(1)


def test_angles_keep_full_precision_at_large_sizes():
    # arccos(1 - 2x) loses relative precision as x -> 0 (1.1e-5 at n = 1e12);
    # the angles must match a 40-digit evaluation to 1e-15 relative
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp.clone()
    mp.dps = 40

    def arccos_1_minus_2x(num, den):
        return mp.acos(1 - 2 * mp.mpf(num) / den)

    def close(got, want, rel):
        return abs(got - want) <= rel * abs(want)

    for n in (10, 10**4, 10**8, 10**10, 10**12):
        m = 3 * n + 1
        assert close(grover_angle(n), arccos_1_minus_2x(1, n), 1e-15)
        diff = reduced_eigensystem(MarkedScenario.diff_partition(), BipartiteSpec(n, m))
        assert close(diff.phases["sum"], arccos_1_minus_2x(1, n) + arccos_1_minus_2x(1, m), 1e-15)
        same = reduced_eigensystem(MarkedScenario.same_partition(), BipartiteSpec(n, 3))
        assert close(same.phases["rotation"], arccos_1_minus_2x(2, n), 1e-15)
        # the closed forms at a step where each sits at a quarter turn of its
        # angle; their value moves by about 3x the angle's relative error
        omega = arccos_1_minus_2x(2, n)
        steps = float(mp.pi / omega)
        assert close(fidelity_same(n, steps), mp.sin(omega * steps / 4) ** 4, 1e-14)
        omega = arccos_1_minus_2x(n + m - 1, n * m)
        steps = float(1 + mp.pi / omega)
        t = (mp.mpf(steps) - 1) / 2
        num = n * m - (n - 1) * (m - 1) * mp.cos(omega * t) + mp.sqrt((n - 1) * (m - 1) * (n + m - 1)) * mp.sin(omega * t)
        assert close(fidelity_diff_gi(n, m, steps), num**2 / (n * m * (n + m - 1) ** 2), 1e-14)


def test_diff_gg_reference_values():
    # peak-run values at n1 = n2 = 100; 15 steps reach 0.9907 (published
    # step counts for this curve run two steps late, see fidelity_diff_gg)
    assert fidelity_diff_gg(100, 100, 15) == pytest.approx(0.9907, abs=5e-4)
    assert fidelity_diff_gg(100, 35, 47) == pytest.approx(0.9835, abs=5e-4)
    for n1, n2 in ((2, 2), (7, 3), (100, 35)):
        assert fidelity_diff_gg(n1, n2, 1) == pytest.approx(1 / (n1 * n2), abs=1e-14)


def test_diff_gg_matches_simulation():
    for n1, n2 in ((2, 2), (5, 4), (9, 2)):
        sim = simulated_fidelity_series(BipartiteSpec(n1, n2), MarkedScenario.diff_partition(0, 0, "gg"), 41)
        for steps in range(1, 42, 2):
            assert abs(sim[steps - 1] - fidelity_diff_gg(n1, n2, steps)) < 1e-12


def test_diff_gg_symmetry_and_equal_size_form():
    steps = np.arange(1, 60, 2, dtype=float)
    assert np.array_equal(fidelity_diff_gg(100, 35, steps), fidelity_diff_gg(35, 100, steps))
    n = 100
    t = (steps + 1) / 2
    th = grover_angle(n)
    quartic = (math.sqrt(n - 1) * np.sin(th * t) - np.cos(th * t)) ** 4 / n**2
    assert abs(fidelity_diff_gg(n, n, steps) - quartic).max() < 1e-12


def test_diff_gi_reference_values():
    x, fx = maximize_fidelity(lambda s: fidelity_diff_gi(100, 100, s), transfer_window(100, 100))
    assert fx == pytest.approx(1.0, abs=1e-6)
    assert x == pytest.approx(22.196, abs=0.01)
    x, fx = maximize_fidelity(lambda s: fidelity_diff_gi(100, 10, s), transfer_window(100, 10))
    assert fx == pytest.approx(0.3180, abs=5e-4)
    assert x == pytest.approx(9.337, abs=0.01)
    for n1, n2 in ((2, 2), (7, 3), (100, 10)):
        assert fidelity_diff_gi(n1, n2, 1) == pytest.approx(fidelity_diff_gg(n1, n2, 1), abs=1e-13)


def test_diff_gi_matches_simulation():
    for n1, n2 in ((2, 2), (6, 5), (3, 11)):
        sim = simulated_fidelity_series(BipartiteSpec(n1, n2), MarkedScenario.diff_partition(0, 0, "gi"), 41)
        for steps in range(1, 42, 2):
            assert abs(sim[steps - 1] - fidelity_diff_gi(n1, n2, steps)) < 1e-12


def test_same_partition_values():
    assert fidelity_same(100, 22) == pytest.approx(0.9998, abs=2e-4)
    assert fidelity_same(100, 0) == 0.0
    x, fx = maximize_fidelity(lambda s: fidelity_same(100, s), transfer_window(100, 100))
    assert fx == pytest.approx(1.0, abs=1e-9)
    assert x == pytest.approx(2 * math.pi / math.acos(0.96), abs=1e-4)
    with pytest.raises(ValueError):
        fidelity_same(1, 4)


def test_same_partition_matches_simulation():
    for n1, n2 in ((2, 4), (5, 3), (9, 2)):
        sim = simulated_fidelity_series(BipartiteSpec(n1, n2), MarkedScenario.same_partition(0, 1, "gg"), 40)
        for steps in range(2, 41, 2):
            assert abs(sim[steps - 1] - fidelity_same(n1, steps)) < 1e-12


def test_lqw_fidelity():
    theta = lqw_angle(100)
    assert fidelity_lqw(100, math.pi / theta) == pytest.approx(1.0, abs=1e-12)
    assert fidelity_lqw(100, 0) == 0.0
    assert fidelity_lqw(100, 2 * math.pi / theta) == pytest.approx(0.0, abs=1e-12)


def test_t_max_equal():
    assert t_max_equal(2) == pytest.approx(2.0, abs=1e-12)
    assert t_max_equal(100) == pytest.approx(15.6817, abs=1e-4)
    # agrees with the numeric maximizer of the closed form
    for n in (10, 50, 100, 250):
        x, fx = maximize_fidelity(lambda s, n=n: fidelity_diff_gg(n, n, s), transfer_window(n, n))
        assert fx == pytest.approx(1.0, abs=1e-9)
        assert x == pytest.approx(t_max_equal(n), abs=1e-4)


def test_near_perfect_transfer_at_t_max():
    for n in (50, 100, 200, 350, 500):
        f = lambda s, n=n: fidelity_diff_gg(n, n, s)
        steps = best_parity_step(f, t_max_equal(n), "odd")
        assert f(steps) >= 0.99


def test_fidelity_ranges():
    grid = np.arange(0.05, 80, 0.05)
    for values in (
        fidelity_diff_gg(100, 35, grid),
        fidelity_diff_gi(100, 10, grid),
        fidelity_same(100, grid),
        fidelity_lqw(100, grid),
    ):
        assert values.min() >= 0.0 and values.max() <= 1.0 + 1e-12


def test_maximizer_reference_points():
    x, fx = maximize_fidelity(lambda s: fidelity_diff_gg(100, 100, s), transfer_window(100, 100))
    assert fx == pytest.approx(1.0, abs=1e-9)
    assert x == pytest.approx(15.6817, abs=1e-3)  # earliest of the two unit peaks in the window
    x, fx = maximize_fidelity(lambda s: fidelity_diff_gg(100, 35, s), transfer_window(100, 35))
    assert fx == pytest.approx(0.995204, abs=1e-5)
    assert x == pytest.approx(46.449, abs=1e-2)
    x, fx = maximize_fidelity(lambda s: fidelity_diff_gg(100, 10, s), transfer_window(100, 10))
    assert fx == pytest.approx(0.990224, abs=1e-5)
    assert x == pytest.approx(14.738, abs=1e-2)


def test_maximizer_never_below_grid():
    rng = np.random.default_rng(12)
    for _ in range(8):
        n1, n2 = int(rng.integers(2, 60)), int(rng.integers(2, 60))
        f = lambda s, a=n1, b=n2: fidelity_diff_gg(a, b, s)
        window = transfer_window(n1, n2)
        x, fx = maximize_fidelity(f, window)
        grid = np.arange(1, int(window[1] / 0.01)) * 0.01
        assert fx >= float(f(grid).max()) - 1e-14
        assert window[0] < x < window[1]


def test_maximizer_validation():
    with pytest.raises(ValueError):
        maximize_fidelity(lambda s: s, (3.0, 3.0))
    with pytest.raises(ValueError):
        maximize_fidelity(lambda s: s, (0.0, 0.005))


def test_best_parity_step():
    f = lambda s: fidelity_diff_gg(100, 35, s)
    assert best_parity_step(f, 46.449, "odd") == 47
    assert best_parity_step(f, 15.68, "odd") == 15
    assert best_parity_step(lambda s: fidelity_same(100, s), 22.14, "even") == 22
    # equidistant candidates: the larger fidelity wins
    bumpy = lambda s: float(-abs(s - 18.0)) + (0.25 if s == 19 else 0.0)
    assert best_parity_step(bumpy, 18.0, "odd") == 19
    # exact fidelity tie: the shorter walk wins
    assert best_parity_step(lambda s: 0.5, 18.0, "odd") == 17
    assert best_parity_step(lambda s: 0.5, 0.2, "odd") == 1
    assert best_parity_step(lambda s: 0.5, 0.7, "even") == 2
    with pytest.raises(ValueError):
        best_parity_step(f, 10.0, "any")
