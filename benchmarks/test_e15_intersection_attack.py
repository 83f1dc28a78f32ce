"""E15 — The intersection attack on continuous cloaking.

Snapshot k-anonymity composes badly over time: linking one pseudonym's
cloak stream and intersecting per-tick candidate user sets erodes the
anonymity set far below k. This experiment measures the erosion speed and
how much a larger k delays identification — the standard motivation for
temporal-aware continuous-query defences.
"""

import statistics

import pytest

from repro import (
    PrivacyProfile,
    ReverseCloakEngine,
    TrafficSimulator,
    grid_network,
)
from repro.attacks import IntersectionAttack
from repro.bench import ResultTable
from repro.lbs import ContinuousCloaker


K_SWEEP = (5, 10, 20)
TICKS = 8
VICTIMS = 6


def _attack_for_k(k):
    network = grid_network(12, 12)
    simulator = TrafficSimulator(network, n_cars=600, seed=15)
    simulator.run(2)
    engine = ReverseCloakEngine(network)
    profile = PrivacyProfile.uniform(
        levels=1, base_k=k, k_step=0, base_l=3, l_step=0, max_segments=80
    )
    cloaker = ContinuousCloaker(engine, simulator, profile)
    attack = IntersectionAttack()
    traces = []
    for victim in simulator.snapshot().users()[:VICTIMS]:
        timeline = cloaker.run(victim, ticks=TICKS, interval_seconds=6.0)
        trace = attack.user_candidates(timeline)
        assert victim in trace.final_candidates  # the true user never escapes
        traces.append(trace)
    return traces


def test_e15_intersection_attack(benchmark, results_path):
    table = ResultTable(
        "E15",
        f"Intersection attack on {TICKS}-tick continuous cloaks "
        f"(mean over {VICTIMS} victims)",
        [
            "k",
            "candidates_tick1",
            "candidates_final",
            "identified_fraction",
            "mean_ticks_to_identify",
        ],
    )
    finals = []
    for k in K_SWEEP:
        traces = _attack_for_k(k)
        identified = [t for t in traces if t.identified]
        finals.append(
            statistics.mean(t.candidate_counts[-1] for t in traces)
        )
        table.add_row(
            k=k,
            candidates_tick1=round(
                statistics.mean(t.candidate_counts[0] for t in traces), 1
            ),
            candidates_final=round(finals[-1], 1),
            identified_fraction=round(len(identified) / len(traces), 2),
            mean_ticks_to_identify=(
                round(
                    statistics.mean(t.ticks_to_identify for t in identified) + 1,
                    1,
                )
                if identified
                else "-"
            ),
        )
    table.print_and_save(results_path)

    benchmark(lambda: _attack_for_k(5))

    # Shapes: the first tick honours k; linking erodes it; larger k leaves
    # more residual anonymity after the same number of observations.
    for k, traces in zip(K_SWEEP, map(lambda k: None, K_SWEEP)):
        pass  # per-k assertions done below on fresh traces
    traces_small = _attack_for_k(K_SWEEP[0])
    traces_large = _attack_for_k(K_SWEEP[-1])
    assert statistics.mean(
        t.candidate_counts[0] for t in traces_small
    ) >= K_SWEEP[0]
    assert statistics.mean(
        t.candidate_counts[-1] for t in traces_small
    ) < statistics.mean(t.candidate_counts[0] for t in traces_small)
    assert statistics.mean(
        t.candidate_counts[-1] for t in traces_large
    ) >= statistics.mean(t.candidate_counts[-1] for t in traces_small)
