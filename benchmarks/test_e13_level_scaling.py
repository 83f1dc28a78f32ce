"""E13 — Scaling with the number of privacy levels N.

The multi-level model's own cost: more levels mean more keyed expansions,
larger outer regions and longer peels. Sweeps N with fixed per-level
increments, reporting cloak time, region size and full-peel time.
"""

import pytest

from repro import KeyChain, PrivacyProfile
from repro.bench import ResultTable
from repro.metrics import measure


LEVELS_SWEEP = (1, 2, 4, 6, 8)
REPEATS = 3


def test_e13_level_count_scaling(
    network, snapshot, user_segments, rge_engine, benchmark, results_path
):
    table = ResultTable(
        "E13",
        f"Scaling with privacy level count N ({network.name}, base k=4, "
        "+2 per level)",
        ["levels", "cloak_ms", "region_segments", "full_peel_ms"],
    )
    region_sizes, cloak_times = [], []
    user_segment = user_segments[0]
    for levels in LEVELS_SWEEP:
        profile = PrivacyProfile.uniform(
            levels=levels,
            base_k=4,
            k_step=2,
            base_l=2,
            l_step=1,
            max_segments=240,
        )
        chain = KeyChain.from_passphrases(
            [f"e13-{levels}-{index}" for index in range(levels)]
        )
        cloak_summary = measure(
            lambda: rge_engine.anonymize(user_segment, snapshot, profile, chain),
            repeats=REPEATS,
        )
        envelope = rge_engine.anonymize(user_segment, snapshot, profile, chain)
        peel_summary = measure(
            lambda: rge_engine.deanonymize(envelope, chain, target_level=0),
            repeats=REPEATS,
        )
        region_sizes.append(len(envelope.region))
        cloak_times.append(cloak_summary.mean_s)
        table.add_row(
            levels=levels,
            cloak_ms=round(cloak_summary.mean_s * 1000.0, 3),
            region_segments=len(envelope.region),
            full_peel_ms=round(peel_summary.mean_s * 1000.0, 3),
        )
    table.print_and_save(results_path)

    profile = PrivacyProfile.uniform(
        levels=4, base_k=4, k_step=2, base_l=2, l_step=1, max_segments=240
    )
    chain = KeyChain.from_passphrases([f"e13-b-{index}" for index in range(4)])
    benchmark(lambda: rge_engine.anonymize(user_segment, snapshot, profile, chain))

    # Shapes: regions grow monotonically with N; so does cloak time overall.
    assert region_sizes == sorted(region_sizes)
    assert cloak_times[-1] > cloak_times[0]
