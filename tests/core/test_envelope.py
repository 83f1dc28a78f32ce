"""Tests for cloak envelopes, sealing and MACs."""

import pytest

from repro.core import (
    CloakEnvelope,
    LevelRecord,
    ToleranceSpec,
    network_digest,
    region_digest,
    seal_anchor,
    unseal_anchor,
)
from repro.core.envelope import level_mac
from repro.errors import EnvelopeError, KeyMismatchError
from repro.keys import AccessKey
from repro.roadnet import grid_network


@pytest.fixture(scope="module")
def key():
    return AccessKey.from_passphrase(2, "seal-test")


def make_record(key, level=2, steps=3, sealed=None, sealed_start=None,
                witnesses=(), digest="abc", algorithm="rge", net="net1"):
    mac = level_mac(
        key, level, steps, sealed, sealed_start, witnesses, digest, algorithm, net
    )
    return LevelRecord(
        level=level,
        steps=steps,
        k=5,
        l=3,
        tolerance=ToleranceSpec(max_segments=40),
        sealed_anchor=sealed,
        sealed_start=sealed_start,
        witnesses=witnesses,
        mac=mac,
        digest=digest,
    )


class TestDigests:
    def test_region_digest_order_independent(self):
        assert region_digest({3, 1, 2}) == region_digest({2, 3, 1})

    def test_region_digest_distinguishes(self):
        assert region_digest({1, 2}) != region_digest({1, 3})

    def test_network_digest_stable(self):
        a = grid_network(4, 4)
        b = grid_network(4, 4)
        assert network_digest(a) == network_digest(b)

    def test_network_digest_distinguishes(self):
        assert network_digest(grid_network(4, 4)) != network_digest(
            grid_network(4, 5)
        )


class TestSealing:
    def test_round_trip(self, key):
        sealed = seal_anchor(key, 1234)
        assert sealed != 1234  # pad actually masks
        assert unseal_anchor(key, sealed) == 1234

    def test_purposes_use_distinct_pads(self, key):
        assert seal_anchor(key, 77, "hint") != seal_anchor(key, 77, "start")

    def test_wrong_key_unseals_garbage(self, key):
        sealed = seal_anchor(key, 1234)
        other = AccessKey.from_passphrase(2, "other")
        assert unseal_anchor(other, sealed) != 1234

    def test_wrong_level_unseals_garbage(self, key):
        sealed = seal_anchor(key, 1234)
        other_level = AccessKey(3, key.material)
        assert unseal_anchor(other_level, sealed) != 1234

    def test_out_of_range_anchor_rejected(self, key):
        with pytest.raises(EnvelopeError):
            seal_anchor(key, -1)
        with pytest.raises(EnvelopeError):
            seal_anchor(key, 1 << 64)


class TestLevelRecordMac:
    def test_verify_accepts_correct_key(self, key):
        record = make_record(key)
        record.verify_key(key, "rge", "net1")

    def test_verify_rejects_wrong_key(self, key):
        record = make_record(key)
        with pytest.raises(KeyMismatchError):
            record.verify_key(AccessKey.from_passphrase(2, "wrong"), "rge", "net1")

    def test_verify_rejects_wrong_level_key(self, key):
        record = make_record(key)
        with pytest.raises(KeyMismatchError):
            record.verify_key(AccessKey(3, key.material), "rge", "net1")

    def test_verify_rejects_tampered_steps(self, key):
        record = make_record(key)
        tampered = LevelRecord(
            level=record.level,
            steps=record.steps + 1,
            k=record.k,
            l=record.l,
            tolerance=record.tolerance,
            sealed_anchor=record.sealed_anchor,
            sealed_start=record.sealed_start,
            witnesses=record.witnesses,
            mac=record.mac,
            digest=record.digest,
        )
        with pytest.raises(KeyMismatchError):
            tampered.verify_key(key, "rge", "net1")

    def test_verify_rejects_wrong_algorithm_context(self, key):
        record = make_record(key)
        with pytest.raises(KeyMismatchError):
            record.verify_key(key, "rple", "net1")

    def test_record_dict_round_trip(self, key):
        record = make_record(key, sealed=99, sealed_start=42)
        assert LevelRecord.from_dict(record.to_dict()) == record


class TestCloakEnvelope:
    def _envelope(self, key):
        region = (1, 2, 3, 4)
        record1 = make_record(
            AccessKey(1, key.material), level=1, digest=region_digest({1, 2})
        )
        record2 = make_record(key, level=2, digest=region_digest(set(region)))
        return CloakEnvelope(
            algorithm="rge",
            algorithm_params={},
            network_name="test",
            net_digest="net1",
            region=region,
            levels=(record1, record2),
        )

    def test_basic_accessors(self, key):
        envelope = self._envelope(key)
        assert envelope.top_level == 2
        assert envelope.total_steps() == 6
        assert envelope.level_record(1).level == 1
        assert envelope.region_set() == frozenset({1, 2, 3, 4})

    def test_level_bounds(self, key):
        envelope = self._envelope(key)
        with pytest.raises(EnvelopeError):
            envelope.level_record(0)
        with pytest.raises(EnvelopeError):
            envelope.level_record(3)

    def test_unsorted_region_rejected(self, key):
        record = make_record(key, level=1, digest=region_digest({1, 2}))
        with pytest.raises(EnvelopeError):
            CloakEnvelope(
                algorithm="rge",
                algorithm_params={},
                network_name="test",
                net_digest="net1",
                region=(2, 1),
                levels=(record,),
            )

    def test_repeated_segment_id_rejected_from_the_wire(self, key):
        # Sorted but repeated: the level MACs bind only the segment set, so
        # the envelope itself must refuse the duplicate.
        document = self._envelope(key).to_dict()
        document["region"] = [1, 1, 2, 3, 4]
        with pytest.raises(EnvelopeError, match="strictly ascending"):
            CloakEnvelope.from_dict(document)

    def test_empty_region_rejected(self, key):
        with pytest.raises(EnvelopeError):
            CloakEnvelope(
                algorithm="rge",
                algorithm_params={},
                network_name="test",
                net_digest="net1",
                region=(),
                levels=(),
            )

    def test_top_digest_must_match_region(self, key):
        record = make_record(key, level=1, digest="wrong-digest")
        with pytest.raises(EnvelopeError):
            CloakEnvelope(
                algorithm="rge",
                algorithm_params={},
                network_name="test",
                net_digest="net1",
                region=(1, 2),
                levels=(record,),
            )

    def test_gapped_levels_rejected(self, key):
        record2 = make_record(key, level=2, digest=region_digest({1, 2}))
        with pytest.raises(EnvelopeError):
            CloakEnvelope(
                algorithm="rge",
                algorithm_params={},
                network_name="test",
                net_digest="net1",
                region=(1, 2),
                levels=(record2,),
            )

    def test_json_round_trip(self, key):
        envelope = self._envelope(key)
        restored = CloakEnvelope.from_json(envelope.to_json())
        assert restored == envelope

    def test_json_is_canonical(self, key):
        envelope = self._envelope(key)
        assert envelope.to_json() == CloakEnvelope.from_json(
            envelope.to_json()
        ).to_json()

    def test_bad_format_rejected(self):
        with pytest.raises(EnvelopeError):
            CloakEnvelope.from_dict({"format": "nope"})

    def test_bad_version_rejected(self, key):
        document = self._envelope(key).to_dict()
        document["version"] = 99
        with pytest.raises(EnvelopeError):
            CloakEnvelope.from_dict(document)
