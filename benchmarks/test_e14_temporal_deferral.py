"""E14 — Temporal deferral: trading waiting time for spatial tightness.

The paper's Algorithm 1 signature carries a temporal key ``Kt`` and a
temporal tolerance ``sigma_t`` (unused in the demo text) — the classical
spatio-temporal knob: requests that cannot reach ``delta_k`` within a tight
spatial tolerance may *wait* for traffic instead of failing. This
experiment sweeps the temporal budget and measures how much success rate it
buys back, and at what waiting cost.
"""

import statistics

import pytest

from repro import (
    KeyChain,
    PrivacyProfile,
    ReverseCloakEngine,
    TrafficSimulator,
    grid_network,
)
from repro.bench import ResultTable
from repro.errors import CloakingError
from repro.lbs import DeferredCloaking, TemporalTolerance


BUDGETS = (0.0, 10.0, 30.0, 60.0)
USERS = 25
TIGHT = dict(levels=1, base_k=8, k_step=0, base_l=2, l_step=0, max_segments=5)


def _run_budget(budget):
    """Fresh simulation per budget so deferrals do not bleed across runs."""
    network = grid_network(12, 12)
    simulator = TrafficSimulator(network, n_cars=450, seed=14)
    simulator.run(2)
    engine = ReverseCloakEngine(network)
    deferred = DeferredCloaking(engine, simulator)
    profile = PrivacyProfile.uniform(**TIGHT)
    chain = KeyChain.from_passphrases(["e14"])
    users = simulator.snapshot().users()[:USERS]
    successes, waits = 0, []
    for user_id in users:
        try:
            result = deferred.cloak_user(
                user_id, profile, chain,
                TemporalTolerance(budget, retry_interval_seconds=2.0),
            )
        except CloakingError:
            continue
        successes += 1
        waits.append(result.deferred_seconds)
    return successes / len(users), (statistics.mean(waits) if waits else 0.0)


def test_e14_temporal_deferral(benchmark, results_path):
    table = ResultTable(
        "E14",
        f"Success rate vs temporal budget sigma_t (tight sigma_s = "
        f"{TIGHT['max_segments']} segments, k={TIGHT['base_k']}, "
        f"{USERS} users)",
        ["sigma_t_seconds", "success_rate", "mean_wait_seconds"],
    )
    rates = []
    for budget in BUDGETS:
        rate, mean_wait = _run_budget(budget)
        rates.append(rate)
        table.add_row(
            sigma_t_seconds=budget,
            success_rate=round(rate, 2),
            mean_wait_seconds=round(mean_wait, 1),
        )
    table.print_and_save(results_path)

    benchmark(lambda: _run_budget(10.0))

    # Shape: waiting buys success; a generous budget dominates no budget.
    assert rates[-1] > rates[0]
    assert rates == sorted(rates) or rates[-1] >= max(rates[:-1]) - 0.04
