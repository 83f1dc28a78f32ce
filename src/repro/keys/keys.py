"""Access keys and per-level key chains.

The paper's multi-level model (Section II.B) associates every privacy level
``L^i`` (``1 <= i <= N-1``) with a shared secret key ``Key^i`` that drives the
anonymization of that level and, symmetrically, its de-anonymization. The
demo GUI offers an "Auto key generation" button; :meth:`KeyChain.generate`
is its programmatic counterpart.

Keys are value objects wrapping raw bytes; they never appear in ``repr`` so
accidental logging does not leak secrets. A key also owns the HMAC pad state
of its material (:attr:`AccessKey.hmac`), built on first use and dropped with
the key.
"""

from __future__ import annotations

import hashlib
import secrets
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from ..errors import ProfileError
from .prf import KeyedHmac

__all__ = ["AccessKey", "KeyChain"]


@dataclass(frozen=True)
class AccessKey:
    """The shared secret key of one privacy level.

    Attributes:
        level: The privacy level this key anonymizes (1-based; level 0 is the
            un-cloaked user segment and has no key).
        material: The raw secret bytes.
    """

    level: int
    material: bytes = field(repr=False)

    def __post_init__(self) -> None:
        if self.level < 1:
            raise ProfileError(f"access keys exist for levels >= 1, got {self.level}")
        if len(self.material) < 8:
            raise ProfileError("key material must be at least 8 bytes")

    @classmethod
    def generate(cls, level: int) -> "AccessKey":
        """A fresh random 256-bit key for ``level``."""
        # Key minting is the one sanctioned entropy source in this package;
        # every oracle downstream of the minted key is deterministic in it.
        # reprolint: disable=determinism
        return cls(level, secrets.token_bytes(32))

    @classmethod
    def from_passphrase(cls, level: int, passphrase: str) -> "AccessKey":
        """Derive a key deterministically from a passphrase (demo-GUI style
        manual key entry). Uses SHA-256 over a level-tagged encoding."""
        digest = hashlib.sha256(f"reversecloak|{level}|{passphrase}".encode()).digest()
        return cls(level, digest)

    @cached_property
    def hmac(self) -> KeyedHmac:
        """The HMAC-SHA256 pad state of this key, built on first use.

        Every keyed digest of the level resumes it: PRF draws, anchor
        seals, witness tags and the level MAC. It is not a dataclass field,
        so equality, hashing, ``repr`` and :meth:`to_dict` ignore it, and it
        goes away with the key.
        """
        return KeyedHmac(self.material)

    def __getstate__(self) -> dict:
        # The pad state's SHA-256 objects do not pickle; a copy rebuilds it
        # from ``material`` on first use.
        state = self.__dict__.copy()
        state.pop("hmac", None)
        return state

    def fingerprint(self) -> str:
        """A short non-secret identifier (first 8 hex chars of SHA-256)."""
        return hashlib.sha256(self.material).hexdigest()[:8]

    def to_dict(self) -> dict:
        """A JSON-round-trippable document of this key.

        The document contains the raw secret material (hex) — it is the
        wire form used *inside* the trusted perimeter (anonymizer workers,
        key-grant delivery), never something to publish alongside an
        envelope.
        """
        return {"level": self.level, "material": self.material.hex()}

    @classmethod
    def from_dict(cls, document: dict) -> "AccessKey":
        """Rebuild a key from :meth:`to_dict` output."""
        if not isinstance(document, dict):
            raise ProfileError(f"access-key document must be a dict, got {type(document).__name__}")
        try:
            level = int(document["level"])
            material = bytes.fromhex(document["material"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ProfileError(f"malformed access-key document: {exc}") from None
        return cls(level, material)

    def __repr__(self) -> str:
        return f"AccessKey(level={self.level}, fingerprint={self.fingerprint()!r})"


class KeyChain:
    """The ordered collection of level keys of one anonymization.

    A chain for ``N`` privacy levels holds keys for levels ``1..N-1``
    (level 0 needs none). The anonymizer holds the full chain; requesters are
    granted suffixes of it — holding ``Key^j..Key^{N-1}`` lets them peel the
    cloak down to level ``j-1`` (paper Section II.B).
    """

    def __init__(self, keys: Iterable[AccessKey]) -> None:
        ordered = sorted(keys, key=lambda k: k.level)
        if not ordered:
            raise ProfileError("a key chain needs at least one key")
        expected = list(range(1, len(ordered) + 1))
        if [k.level for k in ordered] != expected:
            raise ProfileError(
                f"key levels must be exactly 1..{len(ordered)}, got "
                f"{[k.level for k in ordered]}"
            )
        self._keys: Dict[int, AccessKey] = {k.level: k for k in ordered}

    @classmethod
    def generate(cls, levels: int) -> "KeyChain":
        """Auto-generate keys for ``levels`` anonymization levels
        (the demo GUI's "Auto key generation")."""
        if levels < 1:
            raise ProfileError(f"need at least one level, got {levels}")
        return cls(AccessKey.generate(level) for level in range(1, levels + 1))

    @classmethod
    def from_passphrases(cls, passphrases: Iterable[str]) -> "KeyChain":
        """Derive a chain from one passphrase per level, in level order."""
        return cls(
            AccessKey.from_passphrase(level, phrase)
            for level, phrase in enumerate(passphrases, start=1)
        )

    @property
    def levels(self) -> int:
        """Number of keyed levels in the chain."""
        return len(self._keys)

    def key_for(self, level: int) -> AccessKey:
        """The key of ``level`` (raises :class:`ProfileError` if absent)."""
        try:
            return self._keys[level]
        except KeyError:
            raise ProfileError(
                f"no key for level {level} (chain has levels 1..{self.levels})"
            ) from None

    def has_level(self, level: int) -> bool:
        return level in self._keys

    def suffix(self, from_level: int) -> Tuple[AccessKey, ...]:
        """Keys for levels ``from_level..top`` — the grant needed to peel the
        cloak down to level ``from_level - 1``."""
        if not 1 <= from_level <= self.levels:
            raise ProfileError(
                f"from_level must be in 1..{self.levels}, got {from_level}"
            )
        return tuple(self._keys[level] for level in range(from_level, self.levels + 1))

    def to_hex_list(self) -> List[str]:
        """Key material as hex strings, level 1 first (for key files).

        The output is secret — write it only where the data owner's
        'Anonymizer' would store its managed keys.
        """
        return [self._keys[level].material.hex() for level in sorted(self._keys)]

    @classmethod
    def from_hex_list(cls, materials: Iterable[str]) -> "KeyChain":
        """Rebuild a chain from :meth:`to_hex_list` output."""
        return cls(
            AccessKey(level, bytes.fromhex(material))
            for level, material in enumerate(materials, start=1)
        )

    def to_dict(self) -> dict:
        """A JSON-round-trippable document of the whole chain (secret —
        same caveat as :meth:`AccessKey.to_dict`)."""
        return {"keys": [self._keys[level].to_dict() for level in sorted(self._keys)]}

    @classmethod
    def from_dict(cls, document: dict) -> "KeyChain":
        """Rebuild a chain from :meth:`to_dict` output."""
        if not isinstance(document, dict) or not isinstance(document.get("keys"), list):
            raise ProfileError("malformed key-chain document: expected {'keys': [...]}")
        return cls(AccessKey.from_dict(item) for item in document["keys"])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, KeyChain):
            return NotImplemented
        return self._keys == other._keys

    def __hash__(self) -> int:
        return hash(tuple(self._keys[level] for level in sorted(self._keys)))

    def __iter__(self) -> Iterator[AccessKey]:
        return iter(self._keys[level] for level in sorted(self._keys))

    def __len__(self) -> int:
        return len(self._keys)

    def __repr__(self) -> str:
        prints = ", ".join(self._keys[level].fingerprint() for level in sorted(self._keys))
        return f"KeyChain(levels={self.levels}, fingerprints=[{prints}])"


def partial_chain(chain: KeyChain, granted_levels: Iterable[int]) -> Dict[int, AccessKey]:
    """The key subset a requester holds, as ``{level: key}``.

    Helper for access-control code; validates the levels exist.
    """
    grant: Dict[int, AccessKey] = {}
    for level in granted_levels:
        grant[level] = chain.key_for(level)
    return grant
