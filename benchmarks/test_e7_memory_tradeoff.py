"""E7 — The stated RGE/RPLE time-memory trade-off, quantified.

Demo paper, Section III: "RGE has larger anonymization runtime to build
collision-free links on the fly but smaller memory requirement while RPLE
has smaller anonymization runtime but requires larger memory space to store
the collision-free links." This experiment measures both sides across map
sizes, plus the mapping-store baseline whose memory grows per *request*
rather than per map.
"""

import pytest

from repro import PrivacyProfile, PopulationSnapshot
from repro.baselines import MappingStoreCloaking
from repro.bench import ResultTable
from repro.core import Preassignment
from repro.metrics import Timer
from repro.roadnet import grid_network


GRID_SIZES = (8, 12, 16, 24)  # 112 .. 1104 segments


def test_e7_memory_and_preassignment_cost(benchmark, results_path):
    table = ResultTable(
        "E7",
        "RGE vs RPLE memory / pre-assignment cost vs map size "
        "(RPLE T=8; RGE keeps no persistent state)",
        [
            "segments",
            "rple_preassign_ms",
            "rple_table_bytes",
            "rple_bytes_per_segment",
            "rge_persistent_bytes",
        ],
    )
    sizes, bytes_series = [], []
    for size in GRID_SIZES:
        network = grid_network(size, size)
        with Timer() as timer:
            pre = Preassignment(network, list_length=8)
        table.add_row(
            segments=network.segment_count,
            rple_preassign_ms=round(timer.elapsed * 1000.0, 2),
            rple_table_bytes=pre.memory_bytes(),
            rple_bytes_per_segment=round(
                pre.memory_bytes() / network.segment_count, 1
            ),
            rge_persistent_bytes=0,
        )
        sizes.append(network.segment_count)
        bytes_series.append(pre.memory_bytes())
    table.print_and_save(results_path)

    # Mapping-store baseline: memory per *request* instead of per map.
    network = grid_network(12, 12)
    snapshot = PopulationSnapshot.from_counts(
        {segment_id: 2 for segment_id in network.segment_ids()}
    )
    profile = PrivacyProfile.uniform(
        levels=3, base_k=5, k_step=5, base_l=3, l_step=1, max_segments=80
    )
    store = MappingStoreCloaking(network, seed=1)
    store_table = ResultTable(
        "E7b",
        "Mapping-store baseline: server-side state grows with requests "
        "(ReverseCloak stores nothing per request)",
        ["requests", "stored_bytes", "bytes_per_request"],
    )
    for count in (1, 10, 50, 100):
        while store.stored_requests < count:
            store.anonymize(30, snapshot, profile)
        store_table.add_row(
            requests=count,
            stored_bytes=store.storage_bytes(),
            bytes_per_request=round(store.storage_bytes() / count, 1),
        )
    store_table.print_and_save(results_path)

    benchmark(lambda: Preassignment(grid_network(12, 12), list_length=8))

    # Paper shape: RPLE memory is linear in map size; RGE persistent is 0.
    ratio_small = bytes_series[0] / sizes[0]
    ratio_large = bytes_series[-1] / sizes[-1]
    assert ratio_small == pytest.approx(ratio_large, rel=0.01)
    # Mapping-store grows linearly with request volume.
    stored = store_table.column("stored_bytes")
    assert stored[-1] > stored[0] * 50
