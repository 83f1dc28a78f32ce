"""One serving seam: every document answers as it would alone.

``handle`` serves a single cloak or peel as a lane of one, and
``handle_batch`` groups a front-end's documents into one lane per
direction; both reach the backend through the same two raw-document lanes.
The contract pinned here:

* one bad document in a coalesced lane answers in place and never changes
  a neighbour's answer — an off-map ``user_segment``, a negative, NaN,
  infinite or non-numeric ``deadline_ms``, unusable RPLE parameters in an
  envelope — on the inline backend, on the process pool, and through the
  socket front-end;
* ``handle`` honours a single peel's ``deadline_ms`` exactly as
  ``handle_batch`` does;
* ``handle_batch(docs)`` equals ``[handle(d) for d in docs]`` as canonical
  JSON, with equal serving counters, for any draw from the corpus
  (hypothesis, fixed example budget).
"""

from __future__ import annotations

import asyncio
import copy
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.lbs import (
    AnonymizerService,
    FrontendClient,
    FrontendServer,
    InlineBackend,
    ProcessPoolBackend,
)
from repro.lbs.wire import MALFORMED_DOCUMENT
from test_golden_serving import (
    NETWORK,
    SNAPSHOT,
    START_METHODS,
    _chain,
    _cloak_doc,
    _corpus,
    _envelopes,
    _peel_doc,
)

ENVELOPES = _envelopes()
LONG_MS = 600_000.0


def _canonical(document) -> str:
    return json.dumps(document, sort_keys=True)


def _peel(name: str, mode: str, **fields) -> dict:
    document = _peel_doc(ENVELOPES[name], _chain(f"env-{name}"), mode=mode)
    document.update(fields)
    return document


def _rple_params(params: dict) -> dict:
    """A hint peel whose RPLE envelope names ``params``."""
    document = _peel("rple", "hint", deadline_ms=LONG_MS)
    document["envelope"] = dict(document["envelope"], algorithm_params=params)
    return document


#: Valid documents that share a lane with each bad one. Every one carries
#: a usable deadline, so a process-pool chunk holding a bad document is a
#: chunk in which every document has a deadline.
NEIGHBOURS = [
    _cloak_doc(11, "nb-a", deadline_ms=LONG_MS),
    _cloak_doc(40, "nb-b", deadline_ms=LONG_MS),
    _cloak_doc(0, "nb-seg", user_segment=17, deadline_ms=LONG_MS),
    _peel("rge", "hint", deadline_ms=LONG_MS),
    _cloak_doc(12, "nb-c", deadline_ms=LONG_MS),
    _peel("rple", "search", deadline_ms=LONG_MS),
]

BAD = {
    "cloak-segment-off-map": _cloak_doc(
        13, "bad", user_segment=999_999, deadline_ms=LONG_MS
    ),
    "cloak-segment-negative": _cloak_doc(
        13, "bad", user_segment=-1, deadline_ms=LONG_MS
    ),
    "cloak-deadline-negative": _cloak_doc(13, "bad", deadline_ms=-5.0),
    "cloak-deadline-infinity": _cloak_doc(13, "bad", deadline_ms=float("inf")),
    "cloak-deadline-nan": _cloak_doc(13, "bad", deadline_ms=float("nan")),
    "cloak-deadline-string": _cloak_doc(13, "bad", deadline_ms="soon"),
    "peel-deadline-negative": _peel("rge", "search", deadline_ms=-5.0),
    "peel-deadline-infinity": _peel("rge", "search", deadline_ms=float("inf")),
    "peel-rple-list-length-zero": _rple_params({"list_length": 0, "max_hops": 4}),
    "peel-rple-max-hops-string": _rple_params({"list_length": 8, "max_hops": "x"}),
    "peel-rple-list-length-list": _rple_params({"list_length": [1], "max_hops": 4}),
    "peel-rple-list-length-huge": _rple_params({"list_length": 1e300, "max_hops": 4}),
}

#: Bad documents the parser already rejected per document; inline serving
#: never mixed them into a neighbour's answer, the pool's wait did.
_POOL_ONLY = {"cloak-deadline-string"}


def _backend_ids():
    return ["inline"] + [f"process-2-{method}" for method in START_METHODS]


def _make_backend(backend_id: str):
    if backend_id == "inline":
        return InlineBackend()
    return ProcessPoolBackend(2, start_method=backend_id.rsplit("-", 1)[1])


@pytest.fixture(scope="module")
def services():
    """One RGE service per backend, with each neighbour's lone answer."""
    made = {}
    for backend_id in _backend_ids():
        service = AnonymizerService(NETWORK, backend=_make_backend(backend_id))
        service.update_snapshot(SNAPSHOT)
        alone = [_canonical(service.handle(document)) for document in NEIGHBOURS]
        made[backend_id] = (service, alone)
    yield made
    for service, _ in made.values():
        service.close()


def _cases():
    return [
        pytest.param(backend_id, bad, id=f"{backend_id}-{bad}")
        for backend_id in _backend_ids()
        for bad in sorted(BAD)
        if backend_id != "inline" or bad not in _POOL_ONLY
    ]


@pytest.mark.parametrize("backend_id,bad", _cases())
def test_bad_document_leaves_neighbours_alone(services, backend_id, bad):
    service, alone = services[backend_id]
    documents = NEIGHBOURS[:2] + [BAD[bad]] + NEIGHBOURS[2:]
    outcomes = service.handle_batch(copy.deepcopy(documents))
    answers = [_canonical(outcome) for outcome in outcomes]
    assert answers[:2] + answers[3:] == alone
    assert outcomes[2]["status"] == "error"
    assert answers[2] == _canonical(service.handle(copy.deepcopy(BAD[bad])))


@pytest.mark.parametrize("method", START_METHODS)
def test_pool_wait_ignores_deadlines_too_long_to_bound(services, method):
    # A deadline past the longest wait a pipe poll accepts (2**31 ms) is
    # valid, but it must not become the dispatch wait's timeout.
    documents = [
        _cloak_doc(30 + index, f"long-{index}", deadline_ms=1e12)
        for index in range(4)
    ]
    inline, _ = services["inline"]
    expected = [_canonical(inline.handle(document)) for document in documents]
    pool, _ = services[f"process-2-{method}"]
    answers = [_canonical(outcome) for outcome in pool.handle_batch(documents)]
    assert answers == expected
    assert all(json.loads(answer)["status"] == "ok" for answer in answers)


@pytest.mark.parametrize("backend_id", _backend_ids())
@pytest.mark.parametrize("mode", ["hint", "search"])
def test_handle_honours_a_single_peels_deadline(services, backend_id, mode):
    service, _ = services[backend_id]
    document = _peel("rge", mode, deadline_ms=0)
    alone = service.handle(copy.deepcopy(document))
    assert alone["status"] == "error"
    assert alone["error"]["code"] == "deadline_exceeded"
    assert _canonical(alone) == _canonical(service.handle_batch([document])[0])


@pytest.mark.parametrize("method", START_METHODS)
@pytest.mark.parametrize("deadline", ["soon", float("inf")], ids=["string", "infinity"])
def test_frontend_window_with_unusable_deadline(method, deadline):
    # Six deadlined cloak frames reach the pool as one coalesced lane; the
    # last one's deadline cannot bound a wait and must fail alone.
    documents = [
        _cloak_doc(20 + index, f"fe-{index}", deadline_ms=LONG_MS)
        for index in range(5)
    ]
    documents.append(_cloak_doc(25, "fe-bad", deadline_ms=deadline))
    reference = AnonymizerService(NETWORK)
    reference.update_snapshot(SNAPSHOT)
    expected = [_canonical(reference.handle(document)) for document in documents[:5]]
    service = AnonymizerService(
        NETWORK, backend=ProcessPoolBackend(2, start_method=method)
    )
    service.update_snapshot(SNAPSHOT)

    async def main():
        async with FrontendServer(service, batch_window_ms=50.0) as server:
            client = await FrontendClient.connect(server.host, server.port)
            outcomes = await asyncio.wait_for(
                asyncio.gather(*[client.submit(document) for document in documents]),
                timeout=60,
            )
            stats = await client.stats()
            await client.close()
            return outcomes, stats

    try:
        outcomes, stats = asyncio.run(main())
    finally:
        service.close()
    assert stats["counters"]["batches_coalesced"] == 1
    assert [_canonical(outcome) for outcome in outcomes[:5]] == expected
    assert outcomes[5]["status"] == "error"
    assert outcomes[5]["error"]["code"] == MALFORMED_DOCUMENT


#: Every document the property draws from: the golden corpus (less its
#: stats requests, whose answer depends on when they are read), the bad
#: documents above and deadline-0 peels.
PROPERTY_CORPUS = (
    [document for name, document in _corpus(ENVELOPES) if not name.startswith("stats")]
    + [BAD[name] for name in sorted(BAD)]
    + [_peel("rge", mode, deadline_ms=0) for mode in ("hint", "search")]
)


def _fresh_service() -> AnonymizerService:
    service = AnonymizerService(NETWORK)
    service.update_snapshot(SNAPSHOT)
    return service


def _counters(service: AnonymizerService) -> tuple:
    return (
        service.requests_served,
        service.failures,
        service.reversals_served,
        service.reversal_failures,
    )


@settings(
    max_examples=40,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    st.lists(
        st.integers(min_value=0, max_value=len(PROPERTY_CORPUS) - 1),
        min_size=1,
        max_size=12,
    )
)
def test_handle_batch_answers_as_handle(indices):
    documents = [PROPERTY_CORPUS[index] for index in indices]
    batched = _fresh_service()
    single = _fresh_service()
    batch_answers = batched.handle_batch(copy.deepcopy(documents))
    lone_answers = [single.handle(copy.deepcopy(document)) for document in documents]
    assert [_canonical(answer) for answer in batch_answers] == [
        _canonical(answer) for answer in lone_answers
    ]
    assert _counters(batched) == _counters(single)
