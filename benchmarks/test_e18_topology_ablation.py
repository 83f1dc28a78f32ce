"""E18 (ablation) — robustness across road-network topologies.

The sweeps use grids (controlled, regular); the paper's map is irregular.
This ablation reruns the core pipeline — cloak, reverse, measure quality —
on three topologies (Manhattan grid, ring-and-spoke, Delaunay
"Atlanta-like") and checks the system's behaviour is topology-robust:
exact reversal everywhere, requirements met everywhere, and timings within
the same order of magnitude.
"""

import statistics

import pytest

from repro import KeyChain, ReverseCloakEngine
from repro.bench import (
    ResultTable,
    pick_user_segments,
    standard_network,
    standard_snapshot,
    sweep_profile,
)
from repro.errors import CloakingError
from repro.metrics import measure, region_quality
from repro.roadnet import network_stats


TOPOLOGIES = (("grid", 16), ("radial", 8), ("atlanta", 20))
K = 10
USERS = 6


def test_e18_topology_ablation(benchmark, results_path):
    table = ResultTable(
        "E18",
        f"Topology ablation (RGE, k={K}): cloak/reverse across map families",
        [
            "map",
            "segments",
            "mean_linked",
            "cloak_ms",
            "peel_ms",
            "region_segments",
            "exact_reversals",
        ],
    )
    chain = KeyChain.from_passphrases(["e18-1", "e18-2"])
    profile = sweep_profile(levels=2, k=K, max_segments=120)
    cloak_times = {}
    for kind, size in TOPOLOGIES:
        network = standard_network(kind, size)
        snapshot = standard_snapshot(kind, size, n_cars=900)
        users = pick_user_segments(snapshot, USERS, seed=18)
        engine = ReverseCloakEngine(network)
        stats = network_stats(network)

        envelopes = []
        exact = 0
        for user_segment in users:
            try:
                envelope = engine.anonymize(user_segment, snapshot, profile, chain)
            except CloakingError:
                continue
            envelopes.append((user_segment, envelope))
            result = engine.deanonymize(envelope, chain, target_level=0)
            if result.region_at(0) == (user_segment,):
                exact += 1
        assert envelopes, f"no cloakable users on {kind}"

        cloak_summary = measure(
            lambda: engine.anonymize(envelopes[0][0], snapshot, profile, chain),
            repeats=5,
        )
        peel_summary = measure(
            lambda: engine.deanonymize(envelopes[0][1], chain, target_level=0),
            repeats=5,
        )
        cloak_times[kind] = cloak_summary.mean_s
        table.add_row(
            map=f"{kind}-{size}",
            segments=network.segment_count,
            mean_linked=round(stats.mean_linked_segments, 2),
            cloak_ms=round(cloak_summary.mean_s * 1000.0, 3),
            peel_ms=round(peel_summary.mean_s * 1000.0, 3),
            region_segments=round(
                statistics.mean(len(env.region) for __, env in envelopes), 1
            ),
            exact_reversals=f"{exact}/{len(envelopes)}",
        )
    table.print_and_save(results_path)

    network = standard_network("atlanta", 20)
    snapshot = standard_snapshot("atlanta", 20, n_cars=900)
    engine = ReverseCloakEngine(network)
    user_segment = pick_user_segments(snapshot, 1, seed=18)[0]
    benchmark(lambda: engine.anonymize(user_segment, snapshot, profile, chain))

    # Robustness: exact reversal on every topology; timings within 20x of
    # each other (same order of magnitude).
    for row in table.rows:
        recovered, total = row["exact_reversals"].split("/")
        assert recovered == total
    slowest, fastest = max(cloak_times.values()), min(cloak_times.values())
    assert slowest / fastest < 20.0
