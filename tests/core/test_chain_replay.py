"""The full-chain peel: one forward replay from the sealed L0 segment.

A holder of every key peels to L0 by unsealing level 1's start (the user's
segment) and replaying each level forward from the level below. These
tests hold that path to independent oracles:

* the forward truth — ``anonymize`` under the same profile cut to ``j``
  levels and the first ``j`` keys publishes exactly ``regions[j]``;
* the from-scratch ``incremental=False`` engine and the top-down
  ``mode="search"`` peel, which never take the replay path;

and check that each guard of the replay fires on records a key holder
forged and re-MACed.
"""

import dataclasses

import pytest

from repro import (
    KeyChain,
    PopulationSnapshot,
    PrivacyProfile,
    ReverseCloakEngine,
    ReversiblePreassignmentExpansion,
    grid_network,
)
from repro.core.envelope import level_mac, seal_anchor
from repro.errors import CollisionError, EnvelopeError, KeyMismatchError
from repro.lbs.wire import OutcomeDoc
from repro.roadnet.generators import random_delaunay_network

USERS = 20
LEVELS = 3

#: Map name -> (map, max_diagonal of the diagonal-tolerance profile in metres).
MAPS = {
    "grid12": (grid_network(12, 12), 450.0),
    "delaunay60": (random_delaunay_network(60, 90, seed=3), 9_000.0),
}


def _profile(levels, max_diagonal=None):
    """The same per-level requirements at any level count: the first ``j``
    levels of a deeper profile equal a ``j``-level profile."""
    if max_diagonal is None:
        return PrivacyProfile.uniform(
            levels=levels, base_k=3, k_step=2, base_l=2, l_step=1,
            max_segments=24,
        )
    return PrivacyProfile.uniform(
        levels=levels, base_k=3, k_step=2, base_l=2, l_step=1,
        max_diagonal=max_diagonal,
    )


def _algorithm(network, name):
    if name == "rge":
        return None
    return ReversiblePreassignmentExpansion.for_network(network)


def _passphrases(map_name, user):
    return [f"replay-{map_name}-{user}-{level}" for level in range(1, LEVELS + 1)]


@pytest.mark.parametrize("tolerance", ["count", "diagonal"])
@pytest.mark.parametrize("algo_name", ["rge", "rple"])
@pytest.mark.parametrize("map_name", sorted(MAPS))
def test_full_peel_equals_forward_truth(map_name, algo_name, tolerance):
    network, max_diagonal = MAPS[map_name]
    algorithm = _algorithm(network, algo_name)
    engine = ReverseCloakEngine(network, algorithm)
    oracle = ReverseCloakEngine(network, algorithm, incremental=False)
    diagonal = max_diagonal if tolerance == "diagonal" else None
    profile = _profile(LEVELS, diagonal)
    prefixes = {j: _profile(j, diagonal) for j in range(1, LEVELS)}
    segment_ids = sorted(network.segment_ids())
    snapshot = PopulationSnapshot.from_counts({sid: 1 for sid in segment_ids})
    users = segment_ids[:: len(segment_ids) // USERS][:USERS]
    searched = 0
    for user in users:
        passphrases = _passphrases(map_name, user)
        chain = KeyChain.from_passphrases(passphrases)
        envelope = engine.anonymize(user, snapshot, profile, chain)
        truth = {
            j: engine.anonymize(
                user, snapshot, prefixes[j],
                KeyChain.from_passphrases(passphrases[:j]),
            ).region
            for j in prefixes
        }
        for mode in ("hint", "auto"):
            result = engine.deanonymize(envelope, chain, 0, mode=mode)
            assert result.regions[0] == (user,)
            for j, region in truth.items():
                assert result.regions[j] == region
            assert result.regions[LEVELS] == envelope.region
            for level in range(1, LEVELS + 1):
                removed = result.removed[level]
                assert len(removed) == envelope.level_record(level).steps
                assert set(removed) == (
                    set(result.regions[level]) - set(result.regions[level - 1])
                )
            assert result == oracle.deanonymize(envelope, chain, 0, mode=mode)
        try:
            searched_result = engine.deanonymize(envelope, chain, 0, mode="search")
        except CollisionError:
            continue
        searched += 1
        assert result == searched_result
    # The search comparison must not degrade to all-collisions.
    assert searched >= USERS // 2


# ----------------------------------------------------------------------
# forged records: every guard of the replay fires
# ----------------------------------------------------------------------
NETWORK = grid_network(8, 8)
SNAPSHOT = PopulationSnapshot.from_counts({sid: 1 for sid in NETWORK.segment_ids()})
PROFILE = PrivacyProfile.uniform(
    levels=3, base_k=4, k_step=4, base_l=3, l_step=2, max_segments=40
)
CHAIN = KeyChain.from_passphrases(["forge-1", "forge-2", "forge-3"])
USER = 60


@pytest.fixture()
def engine():
    return ReverseCloakEngine(NETWORK)


@pytest.fixture()
def envelope(engine):
    return engine.anonymize(USER, SNAPSHOT, PROFILE, CHAIN)


@pytest.fixture()
def forward_calls(engine, monkeypatch):
    """Count the engine algorithm's forward transitions."""
    calls = []
    original = engine.algorithm.forward_step

    def counting(*args, **kwargs):
        calls.append(args[4])
        return original(*args, **kwargs)

    monkeypatch.setattr(engine.algorithm, "forward_step", counting)
    return calls


def _forge(envelope, level, **changes):
    """Replace fields of ``level``'s record and re-MAC it with the right
    key, as a key holder could."""
    record = dataclasses.replace(envelope.level_record(level), **changes)
    record = dataclasses.replace(
        record,
        mac=level_mac(
            CHAIN.key_for(level), level, record.steps, record.sealed_anchor,
            record.sealed_start, record.witnesses, record.digest,
            envelope.algorithm, envelope.net_digest,
        ),
    )
    levels = list(envelope.levels)
    levels[level - 1] = record
    return dataclasses.replace(envelope, levels=tuple(levels))


def test_forged_envelope_still_verifies_its_macs(envelope):
    # The forgery helper itself: an untouched re-MAC reproduces the record.
    assert _forge(envelope, 2) == envelope


def test_forged_step_count_rejected_before_any_transition(
    engine, envelope, forward_calls
):
    record = envelope.level_record(2)
    forged = _forge(
        envelope, 2, steps=record.steps + 1, witnesses=record.witnesses + (0,)
    )
    for mode in ("hint", "auto"):
        with pytest.raises(EnvelopeError, match="additions but the region"):
            engine.deanonymize(forged, CHAIN, 0, mode=mode)
    assert forward_calls == []


def test_start_resealed_outside_region_rejected(engine, envelope, forward_calls):
    outside = min(set(NETWORK.segment_ids()) - set(envelope.region))
    forged = _forge(
        envelope, 1, sealed_start=seal_anchor(CHAIN.key_for(1), outside, "start")
    )
    with pytest.raises(KeyMismatchError, match="start anchor is not in the region"):
        engine.deanonymize(forged, CHAIN, 0, mode="hint")
    assert forward_calls == []


def test_hint_resealed_to_another_member_rejected(engine, envelope):
    key = CHAIN.key_for(2)
    result = engine.deanonymize(envelope, CHAIN, 0)
    true_hint = result.removed[2][0]
    other = next(sid for sid in envelope.region if sid != true_hint)
    forged = _forge(envelope, 2, sealed_anchor=seal_anchor(key, other, "hint"))
    for mode in ("hint", "auto"):
        with pytest.raises(KeyMismatchError, match="sealed bootstrap hint"):
            engine.deanonymize(forged, CHAIN, 0, mode=mode)


def test_start_resealed_off_the_chain_rejected(engine, envelope):
    key = CHAIN.key_for(3)
    true_start = engine.deanonymize(envelope, CHAIN, 0).removed[2][0]
    other = next(sid for sid in envelope.region if sid != true_start)
    forged = _forge(envelope, 3, sealed_start=seal_anchor(key, other, "start"))
    with pytest.raises(KeyMismatchError, match="level 3 matches the sealed"):
        engine.deanonymize(forged, CHAIN, 0, mode="hint")


def test_forged_inner_digest_rejected(engine, envelope):
    forged = _forge(envelope, 1, digest="0" * 16)
    with pytest.raises(KeyMismatchError, match="level-1 forward replay"):
        engine.deanonymize(forged, CHAIN, 0, mode="hint")


@pytest.mark.parametrize("wrong_level", [1, 2, 3])
def test_wrong_key_at_each_level_fails_its_mac(engine, envelope, wrong_level):
    passphrases = ["forge-1", "forge-2", "forge-3"]
    passphrases[wrong_level - 1] = "not-the-key"
    wrong = KeyChain.from_passphrases(passphrases)
    for mode in ("hint", "auto"):
        with pytest.raises(KeyMismatchError) as raised:
            engine.deanonymize(envelope, wrong, 0, mode=mode)
        assert str(raised.value) == (
            f"key {wrong.key_for(wrong_level).fingerprint()} fails the "
            f"level-{wrong_level} MAC"
        )
        assert OutcomeDoc.from_exception(raised.value).error_code == "key_mismatch"
