"""Tests for the keyed HMAC state and the PRF streams drawn from it."""

import hashlib
import hmac

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.algorithm import _transition_domain, keyed_draw
from repro.core.envelope import level_mac, seal_anchor, witness_byte, witness_bytes
from repro.keys import AccessKey, KeyedHmac, PrfDrawer


def _stdlib_value(key: bytes, domain: bytes, index: int) -> int:
    message = domain + index.to_bytes(8, "big")
    return int.from_bytes(hmac.new(key, message, hashlib.sha256).digest(), "big")


class TestKeyedHmac:
    @given(
        material=st.binary(min_size=8, max_size=200),
        message=st.binary(max_size=300),
    )
    def test_matches_stdlib_hmac(self, material, message):
        # Covers short keys, block-sized keys and keys longer than the
        # 64-byte SHA-256 block (which HMAC pre-hashes).
        assert KeyedHmac(material).digest(message) == hmac.new(
            material, message, hashlib.sha256
        ).digest()

    def test_matches_stdlib_hmac_around_block_size(self):
        # Pins the key lengths around the 64-byte SHA-256 block, where
        # HMAC switches to pre-hashing the key.
        for size in (8, 32, 63, 64, 65, 100, 200):
            material = bytes(range(size))
            state = KeyedHmac(material)
            for message in (b"", b"m", b"x" * 64, b"x" * 200):
                assert state.digest(message) == hmac.new(
                    material, message, hashlib.sha256
                ).digest()

    def test_reusable_across_messages(self):
        state = KeyedHmac(b"k" * 32)
        first = state.digest(b"one")
        state.digest(b"two")
        assert state.digest(b"one") == first

    def test_access_key_owns_one_state(self):
        key = AccessKey.from_passphrase(1, "owner")
        assert isinstance(key.hmac, KeyedHmac)
        assert key.hmac is key.hmac
        assert key.hmac.digest(b"m") == hmac.new(key.material, b"m", hashlib.sha256).digest()

    def test_pad_state_built_on_first_use(self):
        # A key that was never used holds nothing derived from its
        # material; the first keyed digest builds the one state that every
        # later purpose resumes.
        key = AccessKey.from_passphrase(1, "lazy")
        assert "hmac" not in vars(key)
        seal_anchor(key, 0)
        state = vars(key)["hmac"]
        assert isinstance(state, KeyedHmac)
        keyed_draw(key, 1)
        witness_byte(key, 1, 5)
        assert key.hmac is state

    def test_interleaved_purposes_leave_state_intact(self):
        # Every purpose resumes copies of the shared pad states; none may
        # absorb into the originals.
        key = AccessKey.from_passphrase(2, "interleave")
        drawer = PrfDrawer(key.hmac, b"domain")
        first = drawer.value(3)
        seal_anchor(key, 99, "start")
        witness_bytes(key, [4, 5, 6])
        level_mac(key, 2, 1, None, None, (), "abcd", "rge", "net")
        keyed_draw(key, 2, 1)
        assert drawer.value(3) == first
        assert key.hmac.digest(b"probe") == hmac.new(
            key.material, b"probe", hashlib.sha256
        ).digest()
        fresh = AccessKey(2, key.material)
        assert PrfDrawer(fresh.hmac, b"domain").value(3) == first


class TestPrfDrawer:
    def _drawer(self, key=b"key-bytes", domain=b"domain"):
        return PrfDrawer(KeyedHmac(key), domain)

    def test_deterministic(self):
        assert self._drawer().value(5) == self._drawer().value(5)

    def test_matches_stdlib_definition(self):
        for index in (0, 1, 7, 1 << 24, (9 << 24) | 3, 10_000):
            assert self._drawer().value(index) == _stdlib_value(
                b"key-bytes", b"domain", index
            )

    def test_index_sensitivity(self):
        assert self._drawer().value(0) != self._drawer().value(1)

    def test_key_sensitivity(self):
        assert self._drawer(key=b"key-one!").value(0) != self._drawer(
            key=b"key-two!"
        ).value(0)

    def test_domain_sensitivity(self):
        assert self._drawer(domain=b"d1").value(0) != self._drawer(domain=b"d2").value(0)

    def test_values_are_256_bit(self):
        assert 0 <= self._drawer().value(0) < 1 << 256

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            self._drawer().value(-1)

    def test_block_rejects_negative_index(self):
        with pytest.raises(ValueError):
            self._drawer().block([0, -1])
        with pytest.raises(ValueError):
            self._drawer().block(iter([5, 6, 7, -2]))

    def test_same_key_same_domain_agree(self):
        # The property reversibility rests on: both protocol sides, each
        # holding its own key object of the same material, see the
        # identical stream.
        anonymizer = AccessKey.from_passphrase(1, "shared")
        peeler = AccessKey.from_dict(anonymizer.to_dict())
        domain = _transition_domain(1)
        indices = range(10)
        assert PrfDrawer(anonymizer.hmac, domain).block(indices) == PrfDrawer(
            peeler.hmac, domain
        ).block(indices)
        assert [keyed_draw(anonymizer, s) for s in range(1, 6)] == [
            keyed_draw(peeler, s) for s in range(1, 6)
        ]

    def test_levels_draw_independent_streams(self):
        # The same material at two levels draws two unrelated streams, and
        # no level's transition domain is a prefix of another's, so the
        # message ``domain || uint64(index)`` names one (level, index) only.
        material = b"shared-material!"
        low, high = AccessKey(1, material), AccessKey(2, material)
        for step in range(1, 6):
            assert keyed_draw(low, step) != keyed_draw(high, step)
        domains = [_transition_domain(level) for level in range(1, 200)]
        for a in domains:
            for b in domains:
                assert a == b or not b.startswith(a)

    def test_block_matches_value(self):
        drawer = self._drawer()
        indices = [0, 1, 7, 1 << 24, (9 << 24) | 3, 10_000]
        assert drawer.block(indices) == tuple(drawer.value(i) for i in indices)
        assert drawer.block([]) == ()

    @given(st.integers(min_value=0, max_value=10_000))
    def test_no_accidental_collisions_nearby(self, index):
        drawer = self._drawer()
        assert drawer.value(index) != drawer.value(index + 1)

    @given(
        key=st.binary(min_size=8, max_size=80),
        domain=st.binary(max_size=40),
        start=st.integers(min_value=0, max_value=1 << 30),
        count=st.integers(min_value=0, max_value=40),
    )
    def test_block_equals_per_call_property(self, key, domain, start, count):
        # Batched drawing is byte-identical to single draws and to the
        # stdlib definition for arbitrary keys, domains and windows.
        drawer = PrfDrawer(KeyedHmac(key), domain)
        indices = range(start, start + count)
        expected = tuple(_stdlib_value(key, domain, i) for i in indices)
        assert drawer.block(indices) == expected
        assert tuple(drawer.value(i) for i in indices) == expected


class TestKeyedDigests:
    def test_keyed_draw_golden(self):
        # Envelope bytes rest on these values; hard-coded golden vector of
        # HMAC(b"golden-key-bytes", b"reversecloak|level=1|transitions" ||
        # uint64(7 << 24 | 3)).
        assert keyed_draw(AccessKey(1, b"golden-key-bytes"), 7, 3) == int(
            "3638301f52c11120a81226c9ca3421b19d2facf69b3109b6e0a789fc1f756fb1",
            16,
        )

    def test_seal_pad_is_domain_separated(self):
        # The seal pad comes from its own "|pad" message, never from a
        # transition draw of the same key.
        key = AccessKey.from_passphrase(1, "pads")
        pad = seal_anchor(key, 0)
        assert 0 <= pad < 1 << 64
        assert pad == seal_anchor(key, 0)
        assert pad != keyed_draw(key, 1) >> 192

    def test_seal_pad_matches_stdlib_form(self):
        key = AccessKey.from_passphrase(3, "seal-form")
        for purpose in ("hint", "start"):
            message = f"reversecloak|{purpose}|level=3|pad".encode()
            pad = int.from_bytes(
                hmac.new(key.material, message, hashlib.sha256).digest()[:8], "big"
            )
            assert seal_anchor(key, 0, purpose) == pad
            assert seal_anchor(key, 4321, purpose) == 4321 ^ pad

    def test_witness_matches_stdlib_form(self):
        key = AccessKey.from_passphrase(1, "witness-form")
        for step, anchor in ((1, 0), (2, 57), (40, 1 << 33)):
            message = f"witness|{step}|{anchor}".encode()
            assert witness_byte(key, step, anchor) == hmac.new(
                key.material, message, hashlib.sha256
            ).digest()[0]

    def test_witness_bytes_match_per_call(self):
        key = AccessKey.from_passphrase(3, "witness-block")
        anchors = [17, 4, 4, 1 << 40, 0, 923]
        assert witness_bytes(key, anchors) == tuple(
            witness_byte(key, step, anchor)
            for step, anchor in enumerate(anchors, start=1)
        )
        assert witness_bytes(key, []) == ()

    def test_level_mac_matches_stdlib_form(self):
        key = AccessKey.from_passphrase(2, "mac")
        args = (2, 5, 123, 456, (1, 2, 3, 4, 5), "abcd", "rge", "net")
        message = b"v1|2|5|123|456|1,2,3,4,5|abcd|rge|net"
        assert level_mac(key, *args) == hmac.new(
            key.material, message, hashlib.sha256
        ).hexdigest()[:32]
        bare = (2, 5, None, None, (), "abcd", "rple", "net")
        assert level_mac(key, *bare) == hmac.new(
            key.material, b"v1|2|5|-|-||abcd|rple|net", hashlib.sha256
        ).hexdigest()[:32]
