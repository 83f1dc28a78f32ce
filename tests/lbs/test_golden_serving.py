"""Frozen serving answers: SHA-256 digests of what the service replies.

Every case below is a deterministic function of its map, snapshot,
algorithm, keys and request document. ``golden_serving.json`` holds the
SHA-256 of each answer's canonical JSON, for an RGE and an RPLE service:

* ``handle_batch`` of the whole corpus, in one call;
* ``handle`` of each document on its own;
* the object API (``cloak``, ``cloak_segment``, ``cloak_batch``,
  ``deanonymize`` with a ``KeyChain``, a ``{level: key}`` dict and a key
  tuple, ``deanonymize_batch``), recorded as the result's JSON or as the
  exception's class and message;
* ``stats()`` after each of those phases.

The same digests must come back on the inline backend and on a two-worker
process pool under every start method in ``REPRO_TEST_START_METHODS``, so
the file pins both what serving answers and that every backend answers
alike. Refactors of the serving path must leave the file as it is; only a
deliberate change of a serving answer may rewrite it, with

    PYTHONPATH=src python tests/lbs/test_golden_serving.py --write
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from pathlib import Path
from typing import Callable, Dict, List, Tuple

import pytest

from repro import (
    KeyChain,
    PopulationSnapshot,
    PrivacyProfile,
    ReverseCloakEngine,
    ReversiblePreassignmentExpansion,
    grid_network,
)
from repro.core import LevelRequirement, ToleranceSpec
from repro.core import PrivacyProfile as CoreProfile
from repro.errors import ReverseCloakError
from repro.lbs import AnonymizerService, InlineBackend, ProcessPoolBackend
from repro.lbs.wire import (
    PING_REQUEST_FORMAT,
    STATS_REQUEST_FORMAT,
    WIRE_VERSION,
    CloakRequest,
    CloakRequestDoc,
    DeanonymizeBatchDoc,
    DeanonymizeRequestDoc,
    OutcomeDoc,
)

GOLDEN_PATH = Path(__file__).with_name("golden_serving.json")

START_METHODS = tuple(
    method.strip()
    for method in os.environ.get("REPRO_TEST_START_METHODS", "fork").split(",")
    if method.strip()
)

NETWORK = grid_network(6, 6)
SNAPSHOT = PopulationSnapshot.from_counts(
    {sid: 1 + sid % 3 for sid in NETWORK.segment_ids()}
)
PROFILE = PrivacyProfile.uniform(
    levels=2, base_k=3, k_step=3, base_l=2, l_step=1, max_segments=40
)
IMPOSSIBLE = CoreProfile(
    [LevelRequirement(k=10_000, l=2, tolerance=ToleranceSpec(max_segments=5))]
)


def _chain(tag: str) -> KeyChain:
    return KeyChain.from_passphrases([f"{tag}-1", f"{tag}-2"])


def _algorithms() -> Dict[str, Callable]:
    return {
        "rge": lambda: None,
        "rple": lambda: ReversiblePreassignmentExpansion.for_network(NETWORK),
    }


def _envelopes():
    """Envelopes to peel: one per algorithm on this map, one foreign."""
    envelopes = {}
    for name, make in _algorithms().items():
        engine = ReverseCloakEngine(NETWORK, make())
        envelopes[name] = engine.anonymize(
            SNAPSHOT.segment_of(7), SNAPSHOT, PROFILE, _chain(f"env-{name}")
        )
    foreign_map = grid_network(4, 4)
    foreign_snapshot = PopulationSnapshot.from_counts(
        {sid: 3 for sid in foreign_map.segment_ids()}
    )
    envelopes["foreign"] = ReverseCloakEngine(foreign_map).anonymize(
        5, foreign_snapshot, PROFILE, _chain("env-foreign")
    )
    return envelopes


def _cloak_doc(user_id, tag: str, **fields) -> dict:
    document = CloakRequestDoc(
        user_id=0 if not isinstance(user_id, int) else user_id,
        profile=PROFILE,
        chain=_chain(tag),
    ).to_dict()
    document["user_id"] = user_id
    document.update(fields)
    return document


def _peel_doc(envelope, chain: KeyChain, target_level=0, mode="auto", levels=None):
    keys = tuple(key for key in chain if levels is None or key.level in levels)
    return DeanonymizeRequestDoc(
        envelope=envelope, keys=keys, target_level=target_level, mode=mode
    ).to_dict()


def _corpus(envelopes) -> List[Tuple[str, object]]:
    """The request documents, in the order ``handle_batch`` receives them."""
    impossible = CloakRequestDoc(
        user_id=3, profile=IMPOSSIBLE, chain=KeyChain.from_passphrases(["imp-1"])
    ).to_dict()
    corpus: List[Tuple[str, object]] = [
        ("cloak-user-a", _cloak_doc(11, "user-a")),
        ("cloak-user-b", _cloak_doc(40, "user-b")),
        ("cloak-segment", _cloak_doc(0, "seg", user_segment=17)),
        ("cloak-segment-unknown-user", _cloak_doc(10**6, "seg-u", user_segment=23)),
        ("cloak-string-user-id", _cloak_doc("12", "str-user")),
        ("cloak-unknown-user", _cloak_doc(10**6, "unknown")),
        ("cloak-nonint-user-id", _cloak_doc("abc", "nonint")),
        ("cloak-junk-profile", _cloak_doc(13, "junk", profile={"junk": 1})),
        ("cloak-impossible-profile", impossible),
        ("cloak-deadline-zero", _cloak_doc(14, "late", deadline_ms=0)),
        ("stats", {"format": STATS_REQUEST_FORMAT, "version": WIRE_VERSION}),
    ]
    for name in ("rge", "rple"):
        envelope = envelopes[name]
        chain = _chain(f"env-{name}")
        corpus += [
            (f"peel-{name}-hint", _peel_doc(envelope, chain, mode="hint")),
            (f"peel-{name}-search", _peel_doc(envelope, chain, mode="search")),
            (f"peel-{name}-auto", _peel_doc(envelope, chain)),
            (
                f"peel-{name}-partial",
                _peel_doc(envelope, chain, target_level=1, levels={2}),
            ),
            (f"peel-{name}-wrong-key", _peel_doc(envelope, _chain("wrong"))),
            (f"peel-{name}-bad-level", _peel_doc(envelope, chain, target_level=7)),
        ]
    rge, rge_chain = envelopes["rge"], _chain("env-rge")
    junk_keys = _peel_doc(rge, rge_chain)
    junk_keys["keys"] = "junk"
    corpus += [
        ("peel-foreign-map", _peel_doc(envelopes["foreign"], _chain("env-foreign"))),
        ("peel-junk-keys", junk_keys),
        (
            "peel-batch",
            DeanonymizeBatchDoc(
                items=(
                    DeanonymizeRequestDoc.from_dict(
                        _peel_doc(rge, rge_chain, mode="hint")
                    ),
                    DeanonymizeRequestDoc.from_dict(_peel_doc(rge, _chain("wrong"))),
                    DeanonymizeRequestDoc(
                        envelope=rge,
                        keys=tuple(rge_chain),
                        target_level=0,
                        mode="search",
                        deadline_ms=0.0,
                    ),
                    DeanonymizeRequestDoc.from_dict(
                        _peel_doc(envelopes["rple"], _chain("env-rple"), mode="search")
                    ),
                ),
                deadline_ms=600_000.0,
            ).to_dict(),
        ),
        ("ping", {"format": PING_REQUEST_FORMAT, "version": WIRE_VERSION}),
        ("unknown-format", {"format": "repro.nope", "version": WIRE_VERSION}),
        ("non-dict", ["not", "a", "dict"]),
        ("stats-again", {"format": STATS_REQUEST_FORMAT, "version": WIRE_VERSION}),
    ]
    return corpus


def _canonical(document) -> str:
    return json.dumps(document, sort_keys=True)


def _attempt(call) -> str:
    """The JSON of a successful object-API result, or the exception's
    class and message."""
    try:
        value = call()
    except ReverseCloakError as exc:
        return f"{type(exc).__name__}: {exc}"
    return _result_json(value)


def _result_json(value) -> str:
    if isinstance(value, str):  # a batch, already rendered
        return value
    if hasattr(value, "to_json"):
        return value.to_json()
    return OutcomeDoc.from_result(value).to_json()


def _batch_json(outcomes) -> str:
    return _canonical(
        [
            f"{type(o.error).__name__}: {o.error}"
            if not o.ok
            else _result_json(o.envelope if hasattr(o, "envelope") else o.result)
            for o in outcomes
        ]
    )


def _object_cases(service, envelopes) -> List[Tuple[str, Callable]]:
    rge, rge_chain = envelopes["rge"], _chain("env-rge")
    rple, rple_chain = envelopes["rple"], _chain("env-rple")
    user_a = CloakRequest(user_id=11, profile=PROFILE, chain=_chain("obj-a"))
    unknown = CloakRequest(user_id=10**6, profile=PROFILE, chain=_chain("obj-u"))
    impossible = CloakRequest(
        user_id=3, profile=IMPOSSIBLE, chain=KeyChain.from_passphrases(["obj-imp"])
    )
    user_b = CloakRequest(
        user_id=40, profile=PROFILE, chain=_chain("obj-b"), deadline_ms=600_000.0
    )
    late = CloakRequest(
        user_id=14, profile=PROFILE, chain=_chain("obj-late"), deadline_ms=0.0
    )
    def peel(envelope, chain, target_level=0, mode="auto"):
        return DeanonymizeRequestDoc(
            envelope=envelope, keys=tuple(chain), target_level=target_level, mode=mode
        )

    batch = [
        peel(rge, rge_chain, mode="hint"),
        peel(rge, _chain("wrong")),
        peel(rge, rge_chain, target_level=7),
        peel(envelopes["foreign"], _chain("env-foreign")),
        peel(rple, rple_chain, mode="search"),
    ]
    return [
        ("cloak", lambda: service.cloak(user_a)),
        ("cloak-unknown-user", lambda: service.cloak(unknown)),
        ("cloak-impossible", lambda: service.cloak(impossible)),
        ("cloak-deadline-zero", lambda: service.cloak(late)),
        (
            "cloak-segment",
            lambda: service.cloak_segment(17, PROFILE, _chain("obj-seg")),
        ),
        (
            "cloak-segment-deadline",
            lambda: service.cloak_segment(
                19, PROFILE, _chain("obj-seg-d"), deadline_ms=600_000.0
            ),
        ),
        (
            "cloak-batch",
            lambda: _batch_json(
                service.cloak_batch([user_a, unknown, impossible, user_b, late])
            ),
        ),
        ("deanonymize-chain", lambda: service.deanonymize(rge, rge_chain, 0)),
        (
            "deanonymize-dict",
            lambda: service.deanonymize(
                rge, {key.level: key for key in rge_chain}, 0, mode="search"
            ),
        ),
        (
            "deanonymize-tuple",
            lambda: service.deanonymize(rple, tuple(rple_chain), 1, mode="hint"),
        ),
        ("deanonymize-wrong-key", lambda: service.deanonymize(rge, _chain("wrong"), 0)),
        ("deanonymize-bad-level", lambda: service.deanonymize(rge, rge_chain, 5)),
        (
            "deanonymize-foreign-map",
            lambda: service.deanonymize(envelopes["foreign"], _chain("env-foreign"), 0),
        ),
        ("deanonymize-batch", lambda: _batch_json(service.deanonymize_batch(batch))),
    ]


def _documents(make_backend: Callable) -> Dict[str, str]:
    """Every recorded answer, as canonical JSON, keyed by case name."""
    envelopes = _envelopes()
    corpus = _corpus(envelopes)
    documents: Dict[str, str] = {}
    for algorithm, make in _algorithms().items():
        with AnonymizerService(NETWORK, make(), backend=make_backend()) as service:
            service.update_snapshot(SNAPSHOT)
            outcomes = service.handle_batch([document for _, document in corpus])
            for (name, _), outcome in zip(corpus, outcomes):
                documents[f"{algorithm}/handle_batch/{name}"] = _canonical(outcome)
            documents[f"{algorithm}/handle_batch/stats()"] = _canonical(service.stats())
            for name, document in corpus:
                documents[f"{algorithm}/handle/{name}"] = _canonical(
                    service.handle(document)
                )
            documents[f"{algorithm}/handle/stats()"] = _canonical(service.stats())
            for name, call in _object_cases(service, envelopes):
                result = _attempt(call)
                documents[f"{algorithm}/object/{name}"] = result
            documents[f"{algorithm}/object/stats()"] = _canonical(service.stats())
    return documents


def _digests(documents: Dict[str, str]) -> Dict[str, str]:
    return {
        name: hashlib.sha256(document.encode()).hexdigest()
        for name, document in documents.items()
    }


def _backends():
    backends = [pytest.param(InlineBackend, id="inline")]
    for method in START_METHODS:
        backends.append(
            pytest.param(
                lambda method=method: ProcessPoolBackend(2, start_method=method),
                id=f"process-2-{method}",
            )
        )
    return backends


@pytest.fixture(scope="module")
def golden() -> Dict[str, str]:
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("make_backend", _backends())
def test_serving_answers_match_golden(make_backend, golden):
    documents = _documents(make_backend)
    assert sorted(documents) == sorted(golden)
    computed = _digests(documents)
    mismatched = sorted(name for name in golden if computed[name] != golden[name])
    assert not mismatched, f"serving answers changed: {mismatched}"


def test_corpus_exercises_successes_and_errors():
    documents = _documents(InlineBackend)
    answers = [
        json.loads(document)
        for name, document in documents.items()
        if "/handle/" in name and not name.endswith("stats()")
    ]
    statuses = [answer.get("status") for answer in answers if isinstance(answer, dict)]
    assert statuses.count("ok") >= 20
    assert statuses.count("error") >= 20
    objects = [d for name, d in documents.items() if "/object/" in name]
    assert any(d.startswith("{") for d in objects)
    assert any(not d.startswith(("{", "[")) for d in objects)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_golden_serving.py --write")
    GOLDEN_PATH.write_text(
        json.dumps(_digests(_documents(InlineBackend)), indent=2, sort_keys=True)
        + "\n"
    )
    print(f"wrote {GOLDEN_PATH}")
