"""Shared test oracle: fidelity series of the full arc-space walk."""

from __future__ import annotations

import numpy as np

from bwalk import fidelity, receiver_target_state, step, uniform_sender_state
from bwalk.graph import BipartiteSpec, build_basis
from bwalk.operators import MarkedScenario


def simulated_fidelity_series(spec: BipartiteSpec, scenario: MarkedScenario, max_steps: int):
    """Fidelity against the receiver state after 1..max_steps walk steps."""
    basis = build_basis(spec)
    config = scenario.coin_config(basis)
    state = uniform_sender_state(basis, scenario.sender)
    target = receiver_target_state(basis, scenario.receiver)
    series = []
    for _ in range(max_steps):
        state = step(state, config)
        series.append(fidelity(state, target))
    return np.array(series)
