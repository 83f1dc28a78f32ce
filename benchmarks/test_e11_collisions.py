"""E11 — Reversal collisions: how often does search-mode reversal stay
unambiguous?

The paper's Section III is explicit that collisions are *the* key challenge
of reversal and that RGE/RPLE are designed to avoid them. Hint-mode
envelopes are collision-free by construction (sealed bootstrap + sealed
start anchor); this experiment measures the residual ambiguity of pure
search-mode reversal (no hints, bootstrap enumeration) — and verifies the
crucial safety property: ambiguity is always *detected*, never silently
resolved to a wrong region.
"""

import pytest

from repro import KeyChain
from repro.bench import ResultTable, pick_user_segments
from repro.errors import CollisionError

from conftest import profile_for_k


TRIALS = 12


def _collision_stats(engine, snapshot, users, chain):
    outcomes = {"exact": 0, "collision": 0, "wrong": 0}
    profile = profile_for_k(6, levels=2)
    for index, user_segment in enumerate(users):
        trial_chain = KeyChain.from_passphrases(
            [f"e11-{index}-1", f"e11-{index}-2"]
        )
        envelope = engine.anonymize(
            user_segment, snapshot, profile, trial_chain, include_hints=False
        )
        try:
            result = engine.deanonymize(
                envelope, trial_chain, target_level=0, mode="search"
            )
        except CollisionError:
            outcomes["collision"] += 1
            continue
        if result.region_at(0) == (user_segment,):
            outcomes["exact"] += 1
        else:
            outcomes["wrong"] += 1
    return outcomes


def test_e11_search_mode_collision_rate(
    network, snapshot, rge_engine, rple_engine, chain3, benchmark, results_path
):
    users = pick_user_segments(snapshot, TRIALS, seed=11)
    table = ResultTable(
        "E11",
        f"Search-mode reversal outcomes over {TRIALS} users "
        "(no hints, bootstrap enumeration; hint mode is always exact)",
        ["algorithm", "exact", "detected_collisions", "wrong_region"],
    )
    stats = {}
    for label, engine in (("rge", rge_engine), ("rple", rple_engine)):
        outcome = _collision_stats(engine, snapshot, users, chain3)
        stats[label] = outcome
        table.add_row(
            algorithm=label,
            exact=outcome["exact"],
            detected_collisions=outcome["collision"],
            wrong_region=outcome["wrong"],
        )

    # Hint-mode reference row: always exact.
    profile = profile_for_k(6, levels=2)
    chain = KeyChain.from_passphrases(["e11-h1", "e11-h2"])
    hint_exact = 0
    for user_segment in users:
        envelope = rge_engine.anonymize(user_segment, snapshot, profile, chain)
        result = rge_engine.deanonymize(envelope, chain, target_level=0)
        if result.region_at(0) == (user_segment,):
            hint_exact += 1
    table.add_row(
        algorithm="rge (hint mode)",
        exact=hint_exact,
        detected_collisions=0,
        wrong_region=0,
    )
    table.print_and_save(results_path)

    envelope = rge_engine.anonymize(
        users[0], snapshot, profile, chain, include_hints=False
    )
    benchmark(
        lambda: rge_engine.deanonymize(
            envelope, chain, target_level=0, mode="search"
        )
    )

    # The safety claim: never a silently wrong region, in any mode.
    assert stats["rge"]["wrong"] == 0
    assert stats["rple"]["wrong"] == 0
    assert hint_exact == TRIALS
    # Search mode succeeds for the majority of requests even without hints.
    assert stats["rge"]["exact"] >= TRIALS // 2
