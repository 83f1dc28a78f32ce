"""E9 — Region quality vs k and l: size, population, spatial exposure.

How much space and population a cloak exposes as the privacy knobs grow —
the quality series of the full paper's evaluation, here for RGE, RPLE and
the one-way baseline (all three must satisfy the same (k, l), so the
series' shapes should coincide; the reversible algorithms pay no systematic
region-size premium).
"""

import statistics

import pytest

from repro import PrivacyProfile
from repro.baselines import RandomExpansionCloaking
from repro.bench import ResultTable
from repro.metrics import region_quality

from conftest import profile_for_k


K_SWEEP = (5, 10, 20, 40)
L_SWEEP = (2, 4, 8, 16)


def test_e9_region_quality_vs_k(
    network,
    snapshot,
    user_segments,
    rge_engine,
    rple_engine,
    chain3,
    benchmark,
    results_path,
):
    table = ResultTable(
        "E9",
        f"Region quality vs k ({network.name}; mean over "
        f"{len(user_segments)} users)",
        ["k", "algorithm", "segments", "users", "road_m", "diagonal_m"],
    )
    mean_segments_by_k = []
    for k in K_SWEEP:
        profile = profile_for_k(k)
        requirement = profile.requirement(profile.level_count)
        for label, engine in (("rge", rge_engine), ("rple", rple_engine)):
            qualities = [
                region_quality(
                    network,
                    set(
                        engine.anonymize(
                            user_segment, snapshot, profile, chain3
                        ).region
                    ),
                    snapshot,
                    requirement,
                )
                for user_segment in user_segments
            ]
            table.add_row(
                k=k,
                algorithm=label,
                segments=round(statistics.mean(q.segments for q in qualities), 1),
                users=round(statistics.mean(q.users for q in qualities), 1),
                road_m=round(
                    statistics.mean(q.total_length for q in qualities), 0
                ),
                diagonal_m=round(
                    statistics.mean(q.diagonal for q in qualities), 0
                ),
            )
            if label == "rge":
                mean_segments_by_k.append(
                    statistics.mean(q.segments for q in qualities)
                )
        baseline = RandomExpansionCloaking(network, seed=9)
        baseline_qualities = [
            region_quality(
                network,
                set(
                    baseline.anonymize(user_segment, snapshot, profile).region_at(
                        profile.level_count
                    )
                ),
                snapshot,
                requirement,
            )
            for user_segment in user_segments
        ]
        table.add_row(
            k=k,
            algorithm="baseline",
            segments=round(
                statistics.mean(q.segments for q in baseline_qualities), 1
            ),
            users=round(statistics.mean(q.users for q in baseline_qualities), 1),
            road_m=round(
                statistics.mean(q.total_length for q in baseline_qualities), 0
            ),
            diagonal_m=round(
                statistics.mean(q.diagonal for q in baseline_qualities), 0
            ),
        )
    table.print_and_save(results_path)

    # l sweep at fixed k: segment l-diversity forces the region floor.
    l_table = ResultTable(
        "E9b",
        "Region size vs l (k=5 fixed, RGE): segment l-diversity floor",
        ["l", "segments", "users"],
    )
    l_sizes = []
    for l in L_SWEEP:
        profile = PrivacyProfile.uniform(
            levels=1, base_k=5, k_step=0, base_l=l, l_step=0, max_segments=240
        )
        chain1 = __import__("repro").KeyChain.from_passphrases(["e9b"])
        sizes = [
            len(rge_engine.anonymize(user_segment, snapshot, profile, chain1).region)
            for user_segment in user_segments
        ]
        l_sizes.append(statistics.mean(sizes))
        l_table.add_row(
            l=l,
            segments=round(statistics.mean(sizes), 1),
            users=round(
                statistics.mean(
                    snapshot.count_in_region(
                        set(
                            rge_engine.anonymize(
                                user_segment, snapshot, profile, chain1
                            ).region
                        )
                    )
                    for user_segment in user_segments
                ),
                1,
            ),
        )
    l_table.print_and_save(results_path)

    profile = profile_for_k(20)
    benchmark(
        lambda: region_quality(
            network,
            set(
                rge_engine.anonymize(
                    user_segments[0], snapshot, profile, chain3
                ).region
            ),
            snapshot,
        )
    )

    # Shapes: region size grows with k and with l; every region meets l >= l.
    assert mean_segments_by_k == sorted(mean_segments_by_k)
    assert l_sizes == sorted(l_sizes)
    assert l_sizes[-1] >= L_SWEEP[-1]
