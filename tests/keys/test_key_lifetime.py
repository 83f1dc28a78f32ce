"""Key-derived state lives on the key objects of one request, and nowhere else.

Each :class:`AccessKey` builds its HMAC pad state on first use and drops it
with the key. A served request parses fresh keys from its wire document, so
once its reply is out nothing key-derived may remain in the process.
"""

import copy
import gc
import json
import pickle

import pytest

from repro import KeyChain, PopulationSnapshot, PrivacyProfile, grid_network
from repro.core.envelope import seal_anchor
from repro.keys import AccessKey, KeyedHmac
from repro.lbs import (
    AnonymizerService,
    BatchOutcomeDoc,
    CloakRequestDoc,
    DeanonymizeBatchDoc,
    DeanonymizeRequestDoc,
    OutcomeDoc,
)


def _pad_states() -> int:
    return sum(1 for obj in gc.get_objects() if type(obj) is KeyedHmac)


def _live_pad_states() -> int:
    gc.collect()
    return _pad_states()


@pytest.fixture()
def snapshot():
    return PopulationSnapshot.from_counts({sid: 2 for sid in range(112)})


@pytest.fixture()
def service(snapshot):
    service = AnonymizerService(grid_network(8, 8))
    service.update_snapshot(snapshot)
    return service


@pytest.fixture()
def profile():
    return PrivacyProfile.uniform(
        levels=2, base_k=4, k_step=4, base_l=2, l_step=1, max_segments=40
    )


def _cloak(service, user_id, profile, chain):
    cloak = CloakRequestDoc(user_id=user_id, profile=profile, chain=chain)
    reply = OutcomeDoc.from_json(service.handle_json(cloak.to_json()))
    assert reply.ok
    return reply.envelope


def test_counting_sees_a_live_pad_state():
    # The lifetime check below is only meaningful if a built pad state
    # shows up in the count.
    before = _live_pad_states()
    key = AccessKey.from_passphrase(1, "counted")
    key.hmac
    assert _live_pad_states() == before + 1
    del key
    assert _live_pad_states() == before


def test_no_pad_state_outlives_its_request(service, snapshot, profile):
    before = _live_pad_states()
    for index, user_id in enumerate(snapshot.users()[:5]):
        chain = KeyChain.from_passphrases([f"life-{index}-1", f"life-{index}-2"])
        cloak = CloakRequestDoc(user_id=user_id, profile=profile, chain=chain)
        reply = OutcomeDoc.from_json(service.handle_json(cloak.to_json()))
        assert reply.ok
        peel = DeanonymizeRequestDoc(
            envelope=reply.envelope, keys=tuple(chain), target_level=0, mode="hint"
        )
        peeled = json.loads(service.handle_json(peel.to_json()))
        assert peeled["status"] == "ok"
        assert peeled["result"]["regions"]["0"] == [snapshot.segment_of(user_id)]
    del chain, cloak, reply, peel, peeled
    assert _live_pad_states() <= before


def test_no_pad_state_outlives_a_failed_peel(service, snapshot, profile):
    # The error path drops the keys it parsed just like a success does.
    before = _live_pad_states()
    user_id = snapshot.users()[0]
    envelope = _cloak(
        service, user_id, profile, KeyChain.from_passphrases(["fail-1", "fail-2"])
    )
    wrong = KeyChain.from_passphrases(["wrong-1", "wrong-2"])
    peel = DeanonymizeRequestDoc(
        envelope=envelope, keys=tuple(wrong), target_level=0, mode="hint"
    )
    reply = OutcomeDoc.from_json(service.handle_json(peel.to_json()))
    assert reply.error_code == "key_mismatch"
    del wrong, peel, reply
    assert _live_pad_states() <= before


def test_no_pad_state_outlives_a_batch(service, snapshot, profile):
    before = _live_pad_states()
    users = snapshot.users()[:3]
    chains = [
        KeyChain.from_passphrases([f"batch-{i}-1", f"batch-{i}-2"])
        for i in range(len(users))
    ]
    envelopes = [
        _cloak(service, user_id, profile, chain)
        for user_id, chain in zip(users, chains)
    ]
    batch = DeanonymizeBatchDoc(
        items=tuple(
            DeanonymizeRequestDoc(
                envelope=envelope, keys=tuple(chain), target_level=0, mode="hint"
            )
            for envelope, chain in zip(envelopes, chains)
        )
    )
    payload = batch.to_json()
    del batch, chains
    reply = BatchOutcomeDoc.from_json(service.handle_json(payload))
    assert [outcome.result.region_at(0) for outcome in reply.outcomes] == [
        (snapshot.segment_of(user_id),) for user_id in users
    ]
    del reply
    assert _live_pad_states() <= before


@pytest.mark.parametrize(
    "clone",
    [lambda key: pickle.loads(pickle.dumps(key)), copy.deepcopy],
    ids=["pickle", "deepcopy"],
)
def test_used_key_copies_as_a_value(clone):
    key = AccessKey.from_passphrase(2, "copied")
    sealed = seal_anchor(key, 1234)
    copied = clone(key)
    assert copied == key
    assert hash(copied) == hash(key)
    assert repr(copied) == repr(key)
    assert copied.to_dict() == key.to_dict()
    assert seal_anchor(copied, 1234) == sealed
    assert copied.hmac is not key.hmac


def test_pad_state_is_not_part_of_the_value():
    used = AccessKey.from_passphrase(1, "value")
    used.hmac
    fresh = AccessKey.from_passphrase(1, "value")
    assert used == fresh
    assert hash(used) == hash(fresh)
    assert repr(used) == repr(fresh)
    assert used.to_dict() == fresh.to_dict()
    assert pickle.dumps(used) == pickle.dumps(fresh)
