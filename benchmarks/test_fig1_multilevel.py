"""E1 — Figure 1: multi-level reversible anonymization walkthrough.

The paper's Figure 1 shows a small sub-graph where the user's segment (s18,
level L0) is grown by three keyed levels — Key1 adds {s17, s22}, Key2 adds
{s14, s15, s19}, Key3 adds {s9, s21, s24} — and each key selectively removes
exactly its own additions. The exact topology is not recoverable from the
figure, so this experiment reproduces the *walkthrough semantics* on the
fig1 fixture: per-level added sets of the same scale, peeled in reverse
exactly, with every intermediate region recovered.
"""

import pytest

from repro import (
    KeyChain,
    PopulationSnapshot,
    PrivacyProfile,
    ReverseCloakEngine,
    fig1_network,
)
from repro.bench import ResultTable


@pytest.fixture(scope="module")
def setup():
    network = fig1_network()
    # Figure 1's walkthrough: ~2 users per segment makes the level sizes
    # (1, +2, +3, +3) reachable with small k values.
    snapshot = PopulationSnapshot.from_counts(
        {segment_id: 2 for segment_id in network.segment_ids()}
    )
    profile = PrivacyProfile.uniform(
        levels=3, base_k=5, k_step=5, base_l=3, l_step=3, max_segments=20
    )
    chain = KeyChain.from_passphrases(["fig1-k1", "fig1-k2", "fig1-k3"])
    engine = ReverseCloakEngine(network)
    return network, snapshot, profile, chain, engine


def test_fig1_multilevel_walkthrough(setup, benchmark, results_path):
    network, snapshot, profile, chain, engine = setup
    user_segment = 18  # "The segment s18 contains the actual user"

    envelope = benchmark(
        lambda: engine.anonymize(user_segment, snapshot, profile, chain)
    )
    result = engine.deanonymize(envelope, chain, target_level=0)

    table = ResultTable(
        "E1",
        "Figure 1 walkthrough: per-level additions and reverse removal "
        "(fig1 fixture, user on s18)",
        ["level", "region_segments", "added_by_level", "removed_on_peel"],
    )
    table.add_row(
        level="L0", region_segments=1, added_by_level="-", removed_on_peel="-"
    )
    for level in (1, 2, 3):
        added = sorted(
            set(result.regions[level]) - set(result.regions[level - 1])
        )
        table.add_row(
            level=f"L{level}",
            region_segments=len(result.regions[level]),
            added_by_level="{" + ", ".join(f"s{s}" for s in added) + "}",
            removed_on_peel="{" + ", ".join(f"s{s}" for s in result.removed[level]) + "}",
        )
    table.print_and_save(results_path)

    # The walkthrough's invariants:
    assert result.region_at(0) == (user_segment,)
    for level in (1, 2, 3):
        # each key removes exactly its own additions, nothing else
        added = set(result.regions[level]) - set(result.regions[level - 1])
        assert added == set(result.removed[level])
        assert envelope.level_record(level).steps == len(added)
    # multi-level growth matches the figure's scale (a handful per level)
    assert 5 <= len(envelope.region) <= 20
