"""E12 — Anonymous query processing cost vs privacy level.

The paper bounds region size precisely because it drives "the performance
of the anonymous query processing technique": an LBS must return candidate
results valid for the whole region. This experiment measures candidate-set
size and precision as a key-holding requester queries at each level —
the concrete payoff of selective de-anonymization.
"""

import statistics

import pytest

from repro.bench import ResultTable
from repro.lbs import LBSProvider, PoiDirectory

from conftest import profile_for_k


RADIUS = 250.0
POIS = 600


def test_e12_query_cost_by_level(
    network, snapshot, user_segments, rge_engine, chain3, benchmark, results_path
):
    directory = PoiDirectory(network, count=POIS, seed=12)
    provider = LBSProvider(directory)
    profile = profile_for_k(10)

    per_level_counts = {level: [] for level in range(4)}
    per_level_precision = {level: [] for level in range(4)}
    for index, user_segment in enumerate(user_segments):
        pseudonym = f"user-{index}"
        envelope = rge_engine.anonymize(user_segment, snapshot, profile, chain3)
        provider.upload(pseudonym, envelope)
        truth = rge_engine.deanonymize(envelope, chain3, target_level=0)
        for level in range(4):
            result = provider.serve_range_query(
                pseudonym,
                radius=RADIUS,
                region_override=truth.regions[level],
            )
            per_level_counts[level].append(result.candidate_count)
            per_level_precision[level].append(result.precision_for(user_segment))

    table = ResultTable(
        "E12",
        f"Anonymous range-query cost by exposed level (radius {RADIUS:.0f} m, "
        f"{POIS} POIs, mean over {len(user_segments)} users)",
        ["exposed_level", "region_segments", "candidate_pois", "precision"],
    )
    region_sizes = {}
    envelope = rge_engine.anonymize(user_segments[0], snapshot, profile, chain3)
    truth = rge_engine.deanonymize(envelope, chain3, target_level=0)
    for level in range(4):
        region_sizes[level] = len(truth.regions[level])
        table.add_row(
            exposed_level=f"L{level}",
            region_segments=region_sizes[level],
            candidate_pois=round(statistics.mean(per_level_counts[level]), 1),
            precision=round(statistics.mean(per_level_precision[level]), 3),
        )
    table.print_and_save(results_path)

    provider.upload("bench", envelope)
    benchmark(lambda: provider.serve_range_query("bench", radius=RADIUS))

    # Shapes: finer levels -> no more candidates, no less precision.
    means = [statistics.mean(per_level_counts[level]) for level in range(4)]
    assert means == sorted(means)  # candidates grow with level
    precisions = [
        statistics.mean(per_level_precision[level]) for level in range(4)
    ]
    assert precisions[0] >= precisions[-1]  # L0 is the most precise
    assert precisions[0] == pytest.approx(1.0)  # exact at L0
