"""E8 — Success rate vs spatial tolerance.

The tolerance sigma_s bounds the cloaking region; a tolerance too tight for
the requested (k, l) makes anonymization fail ("cloaking failure"). This
sweep measures the success rate over many users as the tolerance tightens —
the classic cliff the full paper's evaluation reports.
"""

import pytest

from repro import KeyChain, PrivacyProfile
from repro.bench import ResultTable, pick_user_segments
from repro.errors import CloakingError


TOLERANCES = (8, 12, 16, 24, 48, 96)
K, LEVELS = 12, 2
USERS = 20


def _success_rate(engine, snapshot, users, tolerance, chain):
    profile = PrivacyProfile.uniform(
        levels=LEVELS,
        base_k=K,
        k_step=K // 2,
        base_l=3,
        l_step=1,
        max_segments=tolerance,
    )
    successes = 0
    for user_segment in users:
        try:
            engine.anonymize(user_segment, snapshot, profile, chain)
        except CloakingError:
            continue
        successes += 1
    return successes / len(users)


def test_e8_success_rate_vs_tolerance(
    network, snapshot, rge_engine, rple_engine, benchmark, results_path
):
    users = pick_user_segments(snapshot, USERS, seed=8)
    chain = KeyChain.from_passphrases(["e8-1", "e8-2"])

    table = ResultTable(
        "E8",
        f"Cloaking success rate vs spatial tolerance (k={K}, "
        f"{USERS} users, {network.name})",
        ["max_segments", "rge_success", "rple_success"],
    )
    rge_series, rple_series = [], []
    for tolerance in TOLERANCES:
        rge_rate = _success_rate(rge_engine, snapshot, users, tolerance, chain)
        rple_rate = _success_rate(rple_engine, snapshot, users, tolerance, chain)
        rge_series.append(rge_rate)
        rple_series.append(rple_rate)
        table.add_row(
            max_segments=tolerance,
            rge_success=round(rge_rate, 2),
            rple_success=round(rple_rate, 2),
        )
    table.print_and_save(results_path)

    benchmark(
        lambda: _success_rate(rge_engine, snapshot, users[:5], TOLERANCES[-1], chain)
    )

    # Shape: loose tolerance succeeds (near) always; the loosest setting
    # must dominate the tightest for both algorithms.
    assert rge_series[-1] == 1.0
    assert rge_series[-1] >= rge_series[0]
    assert rple_series[-1] >= rple_series[0]
    # And the tightest tolerance visibly hurts at least one algorithm.
    assert min(rge_series[0], rple_series[0]) < 1.0
