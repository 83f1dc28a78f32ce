"""Tests for access keys and key chains."""

import pytest

from repro.errors import ProfileError
from repro.keys import AccessKey, KeyChain


class TestAccessKey:
    def test_generate_is_random(self):
        assert AccessKey.generate(1).material != AccessKey.generate(1).material

    def test_level_zero_rejected(self):
        with pytest.raises(ProfileError):
            AccessKey(0, b"x" * 32)

    def test_short_material_rejected(self):
        with pytest.raises(ProfileError):
            AccessKey(1, b"short")

    def test_from_passphrase_deterministic(self):
        a = AccessKey.from_passphrase(1, "hello")
        b = AccessKey.from_passphrase(1, "hello")
        assert a.material == b.material

    def test_from_passphrase_level_tagged(self):
        # same phrase, different level -> different key
        assert (
            AccessKey.from_passphrase(1, "hello").material
            != AccessKey.from_passphrase(2, "hello").material
        )

    def test_repr_hides_material(self):
        key = AccessKey.from_passphrase(1, "secret-phrase")
        assert key.material.hex() not in repr(key)
        assert key.fingerprint() in repr(key)

    def test_fingerprint_stable(self):
        key = AccessKey.from_passphrase(1, "x")
        assert key.fingerprint() == key.fingerprint()
        assert len(key.fingerprint()) == 8


class TestKeyChain:
    def test_generate_levels(self):
        chain = KeyChain.generate(4)
        assert chain.levels == 4
        assert [key.level for key in chain] == [1, 2, 3, 4]

    def test_zero_levels_rejected(self):
        with pytest.raises(ProfileError):
            KeyChain.generate(0)

    def test_non_contiguous_levels_rejected(self):
        with pytest.raises(ProfileError):
            KeyChain([AccessKey.from_passphrase(1, "a"), AccessKey.from_passphrase(3, "b")])

    def test_key_for(self):
        chain = KeyChain.from_passphrases(["a", "b"])
        assert chain.key_for(2).level == 2
        with pytest.raises(ProfileError):
            chain.key_for(3)

    def test_has_level(self):
        chain = KeyChain.from_passphrases(["a"])
        assert chain.has_level(1)
        assert not chain.has_level(2)

    def test_suffix_grants(self):
        chain = KeyChain.from_passphrases(["a", "b", "c"])
        suffix = chain.suffix(2)
        assert [key.level for key in suffix] == [2, 3]

    def test_suffix_bounds(self):
        chain = KeyChain.from_passphrases(["a", "b"])
        with pytest.raises(ProfileError):
            chain.suffix(0)
        with pytest.raises(ProfileError):
            chain.suffix(3)

    def test_len_and_iter_ordered(self):
        chain = KeyChain.generate(3)
        assert len(chain) == 3
        assert [key.level for key in chain] == [1, 2, 3]

    def test_hex_round_trip(self):
        chain = KeyChain.generate(3)
        restored = KeyChain.from_hex_list(chain.to_hex_list())
        assert restored.levels == 3
        for level in (1, 2, 3):
            assert restored.key_for(level).material == chain.key_for(level).material

    def test_repr_shows_fingerprints_not_material(self):
        chain = KeyChain.from_passphrases(["a", "b"])
        text = repr(chain)
        assert chain.key_for(1).fingerprint() in text
        assert chain.key_for(1).material.hex() not in text
