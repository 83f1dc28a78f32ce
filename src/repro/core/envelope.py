"""The cloaked-region envelope: what the anonymizer publishes to the LBS.

The envelope carries everything a requester needs to *use* and — with keys —
*reverse* the cloak, and nothing that helps a keyless adversary:

* the outermost region (public by design; this is the exposed location),
* per level: the transition count, the privacy parameters ``(k, l,
  sigma_s)`` (the de-anonymizer needs the tolerance to rebuild candidate
  sets exactly), a keyed MAC for instant wrong-key detection, a region
  digest binding the level to its outer region, and — in sealed-hint mode
  (decision D1) — the level's last-added segment id XOR-masked with a
  key-derived one-time pad,
* digests of the road network so both sides detect map mismatches early.

Security note: transition counts reveal the *sizes* of inner regions. The
paper's model already concedes this (every key holder learns the inner
regions outright; sizes follow from the public profile), and knowing how
many segments were added does not reveal *which* — each removal step still
has the full candidate ambiguity the paper's security argument rests on.
The sealed hint is indistinguishable from random without the key because the
pad is a PRF output never reused.
"""

from __future__ import annotations

import hashlib
import hmac as hmac_module
import json
import weakref
from dataclasses import dataclass
from typing import AbstractSet, Dict, Iterable, Optional, Tuple

from ..errors import EnvelopeError, KeyMismatchError
from ..keys.keys import AccessKey
from ..roadnet.graph import RoadNetwork
from .profile import LevelRequirement, ToleranceSpec

__all__ = [
    "LevelRecord",
    "CloakEnvelope",
    "region_digest",
    "network_digest",
    "seal_anchor",
    "unseal_anchor",
    "level_mac",
    "witness_byte",
    "witness_bytes",
]

_ENVELOPE_VERSION = 1
_PAD_BYTES = 8


def region_digest(region: AbstractSet[int]) -> str:
    """A stable digest of a segment set (order-independent)."""
    payload = ",".join(map(str, sorted(region)))
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


#: Per-instance digest memo — RoadNetwork is immutable, and every engine
#: construction and pre-assignment lookup needs the digest, so the O(E)
#: hash runs once per network object instead of once per call.
_NETWORK_DIGEST_CACHE: "weakref.WeakKeyDictionary[RoadNetwork, str]" = (
    weakref.WeakKeyDictionary()
)


def network_digest(network: RoadNetwork) -> str:
    """A stable digest of the full road network topology and lengths."""
    cached = _NETWORK_DIGEST_CACHE.get(network)
    if cached is not None:
        return cached
    hasher = hashlib.sha256()
    for segment_id in network.segment_ids():
        segment = network.segment(segment_id)
        hasher.update(
            f"{segment_id}:{segment.junction_a}:{segment.junction_b}:"
            f"{segment.length!r};".encode()
        )
    digest = hasher.hexdigest()[:16]
    _NETWORK_DIGEST_CACHE[network] = digest
    return digest


def seal_anchor(key: AccessKey, anchor: int, purpose: str = "hint") -> int:
    """XOR-mask a segment id with a key-derived pad.

    Two purposes are sealed per level (decision D1): ``"hint"`` — the
    level's last-added segment (the reversal bootstrap) — and ``"start"`` —
    the level's starting anchor (the last-added segment of the level below;
    for level 1 this is the user's own segment). Distinct purposes use
    distinct PRF domains so the pads are independent.
    """
    if anchor < 0 or anchor >= 1 << (8 * _PAD_BYTES):
        raise EnvelopeError(f"anchor id {anchor} out of sealable range")
    message = f"reversecloak|{purpose}|level={key.level}|pad".encode()
    return anchor ^ int.from_bytes(key.hmac.digest(message)[:_PAD_BYTES], "big")


def unseal_anchor(key: AccessKey, sealed: int, purpose: str = "hint") -> int:
    """Invert :func:`seal_anchor` (XOR is its own inverse)."""
    return seal_anchor(key, sealed, purpose)


def witness_byte(key: AccessKey, step: int, anchor: int) -> int:
    """The keyed per-step witness tag (decision D13).

    One byte binding the level key to the *anchor* of forward step ``step``
    (the segment the step expanded from). Without the key each byte is a PRF
    output — indistinguishable from random and revealing nothing about the
    anchor; with the key the reversal search discards false anchor
    hypotheses with probability 255/256 per step, keeping hinted peels
    linear even through dense regions where the paper's collision problem
    is at its worst.
    """
    return key.hmac.digest(f"witness|{step}|{anchor}".encode())[0]


def witness_bytes(key: AccessKey, anchors: Iterable[int]) -> Tuple[int, ...]:
    """The witness tags of a whole level.

    ``anchors`` are the per-step forward anchors in step order (step 1
    first). Byte-identical to ``tuple(witness_byte(key, step, anchor) ...)``
    with the key's digest method resolved once.
    """
    digest = key.hmac.digest
    return tuple(
        digest(f"witness|{step}|{anchor}".encode())[0]
        for step, anchor in enumerate(anchors, start=1)
    )


def level_mac(
    key: AccessKey,
    level: int,
    steps: int,
    sealed_anchor: Optional[int],
    sealed_start: Optional[int],
    witnesses: Tuple[int, ...],
    digest: str,
    algorithm: str,
    net_digest: str,
) -> str:
    """The keyed MAC written into a :class:`LevelRecord`.

    Binds the level key to the level's public metadata so reversal can detect
    a wrong key (or a tampered envelope) before walking a single transition.
    The MAC is the first 32 hex digits of HMAC-SHA256 over that metadata,
    drawn from the key's own pad state like every other keyed digest.
    """
    message = (
        f"v{_ENVELOPE_VERSION}|{level}|{steps}|"
        f"{'-' if sealed_anchor is None else sealed_anchor}|"
        f"{'-' if sealed_start is None else sealed_start}|"
        f"{','.join(str(w) for w in witnesses)}|{digest}|"
        f"{algorithm}|{net_digest}"
    ).encode()
    return key.hmac.digest(message)[:16].hex()


@dataclass(frozen=True)
class LevelRecord:
    """Public per-level metadata inside an envelope.

    Attributes:
        level: Privacy level (1-based).
        steps: Number of segments this level added.
        k: The level's ``delta_k`` (echoed from the profile).
        l: The level's ``delta_l``.
        tolerance: The level's ``sigma_s``; reversal rebuilds candidate sets
            with exactly this filter.
        sealed_anchor: XOR-sealed last-added segment id, or ``None`` when the
            envelope was produced without hints (pure search-mode artifact).
        sealed_start: XOR-sealed starting-anchor segment id (for level 1:
            the user's segment). Pins the unique reversal chain in hint mode.
        witnesses: Keyed per-step anchor witnesses (decision D13), one byte
            per transition; empty for search-mode envelopes.
        mac: Keyed MAC over the record (see :func:`level_mac`).
        digest: Digest of the outer region this level produced.
    """

    level: int
    steps: int
    k: int
    l: int
    tolerance: ToleranceSpec
    sealed_anchor: Optional[int]
    sealed_start: Optional[int]
    witnesses: Tuple[int, ...]
    mac: str
    digest: str

    def __post_init__(self) -> None:
        if self.witnesses and len(self.witnesses) != self.steps:
            raise EnvelopeError(
                f"level {self.level} carries {len(self.witnesses)} witnesses "
                f"for {self.steps} steps"
            )

    def verify_key(self, key: AccessKey, algorithm: str, net_digest: str) -> None:
        """Raise :class:`KeyMismatchError` unless ``key`` produced this record."""
        if key.level != self.level:
            raise KeyMismatchError(
                f"key for level {key.level} offered against record of level "
                f"{self.level}"
            )
        expected = level_mac(
            key, self.level, self.steps, self.sealed_anchor, self.sealed_start,
            self.witnesses, self.digest, algorithm, net_digest,
        )
        if not hmac_module.compare_digest(expected, self.mac):
            raise KeyMismatchError(
                f"key {key.fingerprint()} fails the level-{self.level} MAC"
            )

    def to_dict(self) -> dict:
        return {
            "level": self.level,
            "steps": self.steps,
            "k": self.k,
            "l": self.l,
            "tolerance": self.tolerance.to_dict(),
            "sealed_anchor": self.sealed_anchor,
            "sealed_start": self.sealed_start,
            "witnesses": list(self.witnesses),
            "mac": self.mac,
            "digest": self.digest,
        }

    @classmethod
    def from_dict(cls, document: dict) -> "LevelRecord":
        if not isinstance(document, dict):
            raise EnvelopeError(
                f"level record document must be a dict, got {type(document).__name__}"
            )

        def _optional_int(field: str) -> Optional[int]:
            value = document.get(field)
            return None if value is None else int(value)

        return cls(
            level=int(document["level"]),
            steps=int(document["steps"]),
            k=int(document["k"]),
            l=int(document["l"]),
            tolerance=ToleranceSpec.from_dict(document["tolerance"]),
            sealed_anchor=_optional_int("sealed_anchor"),
            sealed_start=_optional_int("sealed_start"),
            witnesses=tuple(map(int, document.get("witnesses", ()))),
            mac=str(document["mac"]),
            digest=str(document["digest"]),
        )


@dataclass(frozen=True)
class CloakEnvelope:
    """The published multi-level cloaked location.

    Attributes:
        algorithm: ``"rge"`` or ``"rple"``.
        algorithm_params: Parameters needed to reconstruct the algorithm
            deterministically (e.g. RPLE's ``list_length``).
        network_name: Human-readable map name.
        net_digest: Digest of the map (see :func:`network_digest`).
        region: The outermost cloaking region, ascending segment ids.
        levels: One :class:`LevelRecord` per keyed level, level 1 first.
        snapshot_time: Simulation time of the population snapshot used.
    """

    algorithm: str
    algorithm_params: dict
    network_name: str
    net_digest: str
    region: Tuple[int, ...]
    levels: Tuple[LevelRecord, ...]
    snapshot_time: float = 0.0

    def __post_init__(self) -> None:
        # No repeats either: the level MACs bind only the segment *set*.
        if tuple(sorted(set(self.region))) != self.region:
            raise EnvelopeError("envelope region must be strictly ascending")
        if not self.region:
            raise EnvelopeError("envelope region must be non-empty")
        expected = list(range(1, len(self.levels) + 1))
        if [record.level for record in self.levels] != expected:
            raise EnvelopeError(
                f"level records must cover 1..{len(self.levels)} in order"
            )
        if self.levels and self.levels[-1].digest != region_digest(set(self.region)):
            raise EnvelopeError("outermost level digest does not match region")

    @property
    def top_level(self) -> int:
        """The highest (outermost) privacy level."""
        return len(self.levels)

    def level_record(self, level: int) -> LevelRecord:
        """The record of ``level`` (1-based)."""
        if not 1 <= level <= len(self.levels):
            raise EnvelopeError(
                f"level must be in 1..{len(self.levels)}, got {level}"
            )
        return self.levels[level - 1]

    def total_steps(self) -> int:
        """Total transitions across all levels."""
        return sum(record.steps for record in self.levels)

    def region_set(self) -> frozenset:
        return frozenset(self.region)

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "format": "repro.envelope",
            "version": _ENVELOPE_VERSION,
            "algorithm": self.algorithm,
            "algorithm_params": dict(self.algorithm_params),
            "network_name": self.network_name,
            "net_digest": self.net_digest,
            "region": list(self.region),
            "levels": [record.to_dict() for record in self.levels],
            "snapshot_time": self.snapshot_time,
        }

    @classmethod
    def from_dict(cls, document: dict) -> "CloakEnvelope":
        if not isinstance(document, dict):
            raise EnvelopeError(
                f"envelope document must be a dict, got {type(document).__name__}"
            )
        if document.get("format") != "repro.envelope":
            raise EnvelopeError("not a repro.envelope document")
        if document.get("version") != _ENVELOPE_VERSION:
            raise EnvelopeError(
                f"unsupported envelope version: {document.get('version')}"
            )
        return cls(
            algorithm=str(document["algorithm"]),
            algorithm_params=dict(document.get("algorithm_params", {})),
            network_name=str(document.get("network_name", "")),
            net_digest=str(document["net_digest"]),
            region=tuple(map(int, document["region"])),
            levels=tuple(
                LevelRecord.from_dict(item) for item in document["levels"]
            ),
            snapshot_time=float(document.get("snapshot_time", 0.0)),
        )

    def to_json(self) -> str:
        """A canonical JSON encoding (stable key order)."""
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, payload: str) -> "CloakEnvelope":
        return cls.from_dict(json.loads(payload))
