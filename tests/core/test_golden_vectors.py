"""Frozen golden vectors: SHA-256 digests of envelopes and peel outcomes.

Every case below is a deterministic function of its map, algorithm,
profile, keys and reversal mode. ``golden_vectors.json`` holds the SHA-256
of each case's JSON wire form, so any change to cloaking, keyed draws,
anchor sealing, witness tags, level MACs or the outcome encoding shows up
as a digest mismatch. Refactors of those paths must leave the file as it
is; only a deliberate wire-format change may rewrite it, with

    PYTHONPATH=src python tests/core/test_golden_vectors.py --write
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path
from typing import Callable, Dict, Iterator, Tuple

import pytest

from repro import (
    KeyChain,
    PopulationSnapshot,
    PrivacyProfile,
    ReverseCloakEngine,
    ReversiblePreassignmentExpansion,
    grid_network,
)
from repro.errors import ReverseCloakError
from repro.keys import AccessKey
from repro.lbs.wire import OutcomeDoc
from repro.roadnet.generators import random_delaunay_network

GOLDEN_PATH = Path(__file__).with_name("golden_vectors.json")

#: Map name -> (builder, max_diagonal of the "trio" profile in metres).
_MAPS: Dict[str, Tuple[Callable, float]] = {
    "grid8": (lambda: grid_network(8, 8), 1_500.0),
    "delaunay60": (lambda: random_delaunay_network(60, 90, seed=3), 16_000.0),
}


#: Count-only tolerance: the uniform candidate-filter path.
_PAIR = PrivacyProfile.uniform(
    levels=2, base_k=8, k_step=8, base_l=4, l_step=2, max_segments=40
)


def _profiles(max_diagonal: float) -> Dict[str, PrivacyProfile]:
    return {
        "pair": _PAIR,
        # Diagonal tolerance: the per-candidate filter path.
        "trio": PrivacyProfile.uniform(
            levels=3, base_k=5, k_step=5, base_l=3, l_step=2,
            max_diagonal=max_diagonal,
        ),
    }


def _chain(levels: int) -> KeyChain:
    return KeyChain.from_passphrases([f"golden-{level}" for level in range(1, levels + 1)])


def _long_key_chain() -> KeyChain:
    # 100-byte keys exceed the 64-byte SHA-256 block, so HMAC pre-hashes
    # them: the long-key branch of every keyed digest.
    return KeyChain(
        [AccessKey(1, bytes(range(100))), AccessKey(2, bytes(range(100, 200)))]
    )


def _peel_doc(engine, envelope, keys, target_level: int, mode: str) -> str:
    try:
        result = engine.deanonymize(envelope, keys, target_level, mode=mode)
    except ReverseCloakError as exc:
        return OutcomeDoc.from_exception(exc).to_json()
    return OutcomeDoc.from_result(result).to_json()


def _cases() -> Iterator[Tuple[str, str]]:
    """Yield ``(case name, JSON document)`` for the whole corpus."""
    for map_name, (build, max_diagonal) in _MAPS.items():
        network = build()
        segment_ids = sorted(network.segment_ids())
        snapshot = PopulationSnapshot.from_counts({sid: 1 for sid in segment_ids})
        user = segment_ids[len(segment_ids) // 2]
        algorithms = {
            "rge": None,
            "rple": ReversiblePreassignmentExpansion.for_network(network),
        }
        for algo_name, algorithm in algorithms.items():
            engine = ReverseCloakEngine(network, algorithm)
            for profile_name, profile in _profiles(max_diagonal).items():
                chain = _chain(profile.level_count)
                prefix = f"{map_name}/{algo_name}/{profile_name}"
                hinted = engine.anonymize(user, snapshot, profile, chain)
                bare = engine.anonymize(
                    user, snapshot, profile, chain, include_hints=False
                )
                yield f"{prefix}/hints/envelope", hinted.to_json()
                yield f"{prefix}/bare/envelope", bare.to_json()
                for mode in ("hint", "auto"):
                    yield (
                        f"{prefix}/hints/peel-{mode}",
                        _peel_doc(engine, hinted, chain, 0, mode),
                    )
                # A partial grant: the top key alone peels one level.
                top = profile.level_count
                yield (
                    f"{prefix}/hints/peel-hint-to-{top - 1}",
                    _peel_doc(engine, hinted, chain.suffix(top), top - 1, "hint"),
                )
                # Hint mode on a hint-free envelope is a structured error.
                yield f"{prefix}/bare/peel-hint", _peel_doc(engine, bare, chain, 0, "hint")
                if profile_name == "pair":
                    # Search stays on the small profile: its hypothesis
                    # count grows fast with level size.
                    yield (
                        f"{prefix}/hints/peel-search",
                        _peel_doc(engine, hinted, chain, 0, "search"),
                    )
                    yield f"{prefix}/bare/peel-auto", _peel_doc(engine, bare, chain, 0, "auto")

    network = grid_network(8, 8)
    segment_ids = sorted(network.segment_ids())
    snapshot = PopulationSnapshot.from_counts({sid: 1 for sid in segment_ids})
    engine = ReverseCloakEngine(network)
    chain = _long_key_chain()
    envelope = engine.anonymize(
        segment_ids[len(segment_ids) // 2], snapshot, _PAIR, chain
    )
    yield "grid8/rge/pair/long-key/envelope", envelope.to_json()
    for mode in ("hint", "search"):
        yield (
            f"grid8/rge/pair/long-key/peel-{mode}",
            _peel_doc(engine, envelope, chain, 0, mode),
        )
    # A wrong key fails its level MAC: a structured key_mismatch outcome.
    wrong = KeyChain.from_passphrases(["wrong-1", "wrong-2"])
    yield (
        "grid8/rge/pair/long-key/peel-wrong-key",
        _peel_doc(engine, envelope, wrong, 0, "hint"),
    )


def _documents() -> Dict[str, str]:
    documents: Dict[str, str] = {}
    for name, document in _cases():
        assert name not in documents, f"duplicate golden case {name}"
        documents[name] = document
    return documents


def _digests(documents: Dict[str, str]) -> Dict[str, str]:
    return {
        name: hashlib.sha256(document.encode()).hexdigest()
        for name, document in documents.items()
    }


@pytest.fixture(scope="module")
def documents() -> Dict[str, str]:
    return _documents()


@pytest.fixture(scope="module")
def golden() -> Dict[str, str]:
    return json.loads(GOLDEN_PATH.read_text())


def test_corpus_names_match(documents, golden):
    assert sorted(documents) == sorted(golden)


def test_corpus_digests_match(documents, golden):
    computed = _digests(documents)
    mismatched = sorted(name for name in golden if computed.get(name) != golden[name])
    assert not mismatched, f"golden digests changed: {mismatched}"


def test_corpus_exercises_successes_and_errors(documents):
    # Guard against a corpus that silently degrades to all-error peels.
    peels = [json.loads(doc) for name, doc in documents.items() if "/peel-" in name]
    assert sum(1 for doc in peels if doc["status"] == "ok") >= 20
    assert any(doc["status"] == "error" for doc in peels)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_golden_vectors.py --write")
    GOLDEN_PATH.write_text(json.dumps(_digests(_documents()), indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")
