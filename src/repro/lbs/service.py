"""The anonymization service facade.

Paper, Section II-B: *"a trusted anonymizer obtains the raw location
information from the mobile clients with the user-defined profile"*, and
Section IV's deployment adds the symmetric server-side capability — the
anonymizer also answers de-anonymization requests from key-holding
requesters.

:class:`AnonymizerService` is that component, built around two seams:

* **the wire protocol** (:mod:`repro.lbs.wire`) — :meth:`handle` accepts a
  raw request document and returns an outcome document, so an
  HTTP/gRPC/queue front-end needs zero knowledge of domain objects;
* **the execution backend** (:mod:`repro.lbs.backends`) — where the work
  runs (inline, thread pool, sharded process pool) is a constructor
  choice, not a code path. A backend serves two lanes of raw documents,
  one for cloaks and one for peels, and every request reaches it through
  one of them.

:meth:`handle_batch` groups a front-end's coalesced documents into one
call per lane; :meth:`handle` serves a single cloak or peel as a lane of
one, so both answer each document alike. The object API (:meth:`cloak`,
:meth:`cloak_segment`, :meth:`cloak_batch`, :meth:`deanonymize`,
:meth:`deanonymize_batch`) converts at the edge: requests become wire
documents, outcome documents become envelopes, results or raised errors.

The service retains *no* per-request state — the defining advantage over
the mapping-store baseline — apart from lock-guarded bookkeeping counters
used by experiments. It is thread-safe: batches are pinned to the snapshot
installed when they start, and a concurrent :meth:`update_snapshot` never
tears a batch.
"""

from __future__ import annotations

import json
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple, Union

from ..core.algorithm import CloakingAlgorithm
from ..core.engine import DeanonymizationResult, _normalize_keys
from ..core.envelope import CloakEnvelope
from ..core.profile import PrivacyProfile
from ..core.rge import ReversibleGlobalExpansion
from ..errors import (
    CloakingError,
    DeanonymizationError,
    EnvelopeError,
    MobilityError,
    OverloadedError,
    ProfileError,
    ReverseCloakError,
    WireFormatError,
)
from ..keys.keys import KeyChain
from ..mobility.snapshot import PopulationSnapshot
from ..roadnet.graph import RoadNetwork
from .backends import BackendSpec, ExecutionBackend, InlineBackend
from .wire import (
    BATCH_OUTCOME_FORMAT,
    CLOAK_REQUEST_FORMAT,
    DEANONYMIZE_BATCH_FORMAT,
    DEANONYMIZE_REQUEST_FORMAT,
    PING_FORMAT,
    PING_REQUEST_FORMAT,
    STATS_FORMAT,
    STATS_REQUEST_FORMAT,
    WIRE_VERSION,
    CloakRequest,
    CloakRequestDoc,
    DeanonymizeBatchDoc,
    DeanonymizeRequestDoc,
    OutcomeDoc,
    error_class_for_code,
)

__all__ = ["AnonymizerService", "BatchOutcome", "ReversalOutcome"]

#: The typed per-request failure union of :meth:`AnonymizerService.cloak_batch`.
#: Any other error outcome is a bug or an infrastructure failure and raises.
ServingError = Union[CloakingError, MobilityError]

#: The typed per-item failure union of
#: :meth:`AnonymizerService.deanonymize_batch`: wrong or missing keys,
#: collisions, malformed or foreign envelopes, bad levels. Any other error
#: outcome raises.
ReversalServingError = Union[DeanonymizationError, EnvelopeError, ProfileError]

_SERVING_ERRORS = (CloakingError, MobilityError)
_REVERSAL_ERRORS = (DeanonymizationError, EnvelopeError, ProfileError)


@dataclass(frozen=True)
class BatchOutcome:
    """The result of one request inside a batch.

    Exactly one of :attr:`envelope` / :attr:`error` is set. Batch serving
    never lets one failing request abort its siblings; the error object is
    returned in place so the caller can retry or report per request.

    Attributes:
        request: The request this outcome answers (same position as in the
            submitted batch).
        envelope: The cloaked envelope on success.
        error: The :class:`~repro.errors.CloakingError` or
            :class:`~repro.errors.MobilityError` the request failed with —
            the only failures kept in place; any other error raises out of
            the batch call.
    """

    request: CloakRequest
    envelope: Optional[CloakEnvelope] = None
    error: Optional[ServingError] = None

    @property
    def ok(self) -> bool:
        return self.envelope is not None


@dataclass(frozen=True)
class ReversalOutcome:
    """The result of one de-anonymization request inside a batch.

    Exactly one of :attr:`result` / :attr:`error` is set; failures sit in
    place so one bad item (wrong key, tampered envelope, collision) never
    aborts its siblings.

    Attributes:
        request: The reversal request this outcome answers (same position
            as in the submitted batch).
        result: The recovered per-level regions on success.
        error: The typed :data:`ReversalServingError` the item failed with
            — the only failures kept in place; any other error raises out
            of the batch call.
    """

    request: DeanonymizeRequestDoc
    result: Optional[DeanonymizationResult] = None
    error: Optional[ReversalServingError] = None

    @property
    def ok(self) -> bool:
        return self.result is not None


def _tally(outcomes: Sequence[dict], counts_as_failure) -> Tuple[int, int]:
    """(successes, counted failures) of outcome documents: an error counts
    when ``counts_as_failure`` accepts the exception class of its code."""
    ok = failures = 0
    for outcome in outcomes:
        if outcome.get("status") == "ok":
            ok += 1
        else:
            code = str((outcome.get("error") or {}).get("code", ""))
            failures += bool(counts_as_failure(error_class_for_code(code)))
    return ok, failures


class AnonymizerService:
    """The anonymization service of the ReverseCloak deployment.

    Args:
        network: The shared road map.
        algorithm: Cloaking algorithm (defaults to RGE).
        include_hints: Produce sealed-hint envelopes (decision D1).
        backend: The :class:`~repro.lbs.backends.ExecutionBackend` every
            request runs on; defaults to
            :class:`~repro.lbs.backends.InlineBackend`. The service binds
            (and, on :meth:`close`, releases) it.
        max_inflight: Optional admission-control budget: the maximum
            number of requests (batch items count individually) allowed in
            flight at once across every serving entry point. Work beyond
            the budget is *shed* — rejected up front with
            :class:`~repro.errors.OverloadedError` (the structured
            ``overloaded`` outcome on the wire path) before any engine
            work runs, instead of queuing unboundedly. A batch is admitted
            all-or-nothing. ``None`` (default) admits everything.

    Example:
        >>> from repro import grid_network, PopulationSnapshot
        >>> from repro import KeyChain, PrivacyProfile
        >>> network = grid_network(6, 6)
        >>> service = AnonymizerService(network)
        >>> service.update_snapshot(PopulationSnapshot.from_counts(
        ...     {sid: 2 for sid in network.segment_ids()}))
        >>> profile = PrivacyProfile.uniform(levels=2, base_k=4, k_step=4,
        ...                                  base_l=3, l_step=2,
        ...                                  max_segments=30)
        >>> chain = KeyChain.generate(profile.level_count)
        >>> envelope = service.cloak_segment(30, profile, chain)
        >>> service.deanonymize(envelope, chain, target_level=0).region_at(0)
        (30,)
    """

    def __init__(
        self,
        network: RoadNetwork,
        algorithm: Optional[CloakingAlgorithm] = None,
        include_hints: bool = True,
        backend: Optional[ExecutionBackend] = None,
        max_inflight: Optional[int] = None,
    ) -> None:
        if max_inflight is not None and max_inflight < 1:
            raise ProfileError(
                f"max_inflight must be >= 1, got {max_inflight}"
            )
        self._network = network
        self._include_hints = include_hints
        self._spec = BackendSpec(
            network=network,
            algorithm=algorithm or ReversibleGlobalExpansion(),
            include_hints=include_hints,
        )
        self._backend = backend if backend is not None else InlineBackend()
        self._backend.bind(self._spec)
        self._snapshot: Optional[PopulationSnapshot] = None
        # Counter lock: lanes run concurrently and bare ``+= 1`` would
        # drop increments under that interleaving.
        self._counter_lock = threading.Lock()
        self._requests_served = 0
        self._failures = 0
        self._reversals_served = 0
        self._reversal_failures = 0
        # Admission control: a bounded in-flight budget shared by every
        # serving entry point. The counter is all the state load-shedding
        # needs — there is no queue to bound because the service never
        # queues; work beyond the budget is rejected at the door.
        self._max_inflight = max_inflight
        self._inflight = 0
        self._requests_shed = 0

    # ------------------------------------------------------------------
    # configuration and bookkeeping
    # ------------------------------------------------------------------
    @property
    def network(self) -> RoadNetwork:
        return self._network

    @property
    def backend(self) -> ExecutionBackend:
        return self._backend

    @property
    def include_hints(self) -> bool:
        return self._include_hints

    @property
    def requests_served(self) -> int:
        with self._counter_lock:
            return self._requests_served

    @property
    def failures(self) -> int:
        """Total serving failures, cloaking *and* reversal."""
        with self._counter_lock:
            return self._failures

    @property
    def reversals_served(self) -> int:
        with self._counter_lock:
            return self._reversals_served

    @property
    def reversal_failures(self) -> int:
        """The reversal-side share of :attr:`failures`."""
        with self._counter_lock:
            return self._reversal_failures

    @property
    def max_inflight(self) -> Optional[int]:
        return self._max_inflight

    @property
    def inflight(self) -> int:
        """Requests currently being served (batch items counted singly)."""
        with self._counter_lock:
            return self._inflight

    @property
    def requests_shed(self) -> int:
        """Requests rejected by admission control (never executed; not
        part of :attr:`failures` — shedding is backpressure, not a serving
        failure)."""
        with self._counter_lock:
            return self._requests_shed

    def stats(self) -> dict:
        """One consistent reading of every serving counter.

        The payload of the ``repro.stats_request`` wire format (see
        :meth:`handle`): the service-level counters under one lock
        acquisition, plus the bound backend's supervision counters
        (``worker_restarts``/``inline_fallbacks``; zero for backends
        without supervision). Transport front-ends merge their own
        counters into the same flat mapping.
        """
        with self._counter_lock:
            counters = {
                "requests_served": self._requests_served,
                "failures": self._failures,
                "reversals_served": self._reversals_served,
                "reversal_failures": self._reversal_failures,
                "requests_shed": self._requests_shed,
                "inflight": self._inflight,
            }
        counters["worker_restarts"] = int(
            getattr(self._backend, "worker_restarts", 0)
        )
        counters["inline_fallbacks"] = int(
            getattr(self._backend, "inline_fallbacks", 0)
        )
        return counters

    @contextmanager
    def _admit(self, units: int):
        """Hold ``units`` of the in-flight budget for the enclosed work.

        Raises :class:`~repro.errors.OverloadedError` — and counts the
        shed — when granting ``units`` would push the in-flight total past
        ``max_inflight``. Admission is all-or-nothing per call, so one
        oversized batch cannot starve by partial execution.
        """
        limit = self._max_inflight
        if limit is None:
            yield
            return
        with self._counter_lock:
            if self._inflight + units > limit:
                self._requests_shed += units
                inflight = self._inflight
            else:
                self._inflight += units
                inflight = None
        if inflight is not None:
            raise OverloadedError(
                f"admitting {units} request(s) would exceed the in-flight "
                f"budget ({inflight}/{limit} in flight); shed — retry later"
            )
        try:
            yield
        finally:
            with self._counter_lock:
                self._inflight -= units

    def update_snapshot(self, snapshot: PopulationSnapshot) -> None:
        """Install the current population snapshot (called per tick by the
        deployment; the anonymizer never looks at stale positions).

        Snapshots are immutable; in-flight batches keep serving against the
        snapshot they captured at submission.
        """
        self._snapshot = snapshot

    def close(self) -> None:
        """Release the backend's worker resources (idempotent)."""
        self._backend.close()

    def __enter__(self) -> "AnonymizerService":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # cloaking (object API)
    # ------------------------------------------------------------------
    def cloak(self, request: CloakRequest) -> CloakEnvelope:
        """Serve one anonymization request.

        Looks up the user's current segment in the snapshot, expands per the
        profile, and returns the envelope; a failure raises its typed
        error.
        """
        document = CloakRequestDoc.from_request(request).to_dict()
        return self._serve_one(self._cloak_lane, document).envelope

    def cloak_segment(
        self,
        user_segment: int,
        profile: PrivacyProfile,
        chain: KeyChain,
        deadline_ms: Optional[float] = None,
    ) -> CloakEnvelope:
        """Cloak an explicit segment (bypasses the user lookup; used by
        experiments that sweep positions directly), under an optional
        cooperative ``deadline_ms``."""
        document = CloakRequestDoc(
            # A document carrying ``user_segment`` is never resolved, so
            # nothing on its path reads ``user_id``; 0 only fills the field.
            user_id=0,
            profile=profile,
            chain=chain,
            user_segment=user_segment,
            deadline_ms=deadline_ms,
        ).to_dict()
        return self._serve_one(self._cloak_lane, document).envelope

    def cloak_batch(self, requests: Sequence[CloakRequest]) -> List[BatchOutcome]:
        """Serve a batch of requests on the execution backend.

        Every request is cloaked against the snapshot installed when the
        batch starts (one immutable capture for the whole batch). Outcomes
        come back in request order; a request failing with a
        :class:`~repro.errors.CloakingError` or
        :class:`~repro.errors.MobilityError` yields a
        :class:`BatchOutcome` carrying that error instead of aborting the
        batch — any other error raises.

        Raises:
            MobilityError: No snapshot is installed.
        """
        self._require_snapshot()
        if not requests:
            return []
        outcomes = self._cloak_lane(
            [CloakRequestDoc.from_request(request).to_dict() for request in requests]
        )
        return self._typed_outcomes(
            requests,
            outcomes,
            _SERVING_ERRORS,
            lambda request, doc, error: BatchOutcome(request, doc.envelope, error),
        )

    # ------------------------------------------------------------------
    # de-anonymization (object API)
    # ------------------------------------------------------------------
    def deanonymize(
        self,
        envelope: CloakEnvelope,
        keys,
        target_level: int,
        mode: str = "auto",
    ) -> DeanonymizationResult:
        """Peel ``envelope`` down to ``target_level`` for a key-holding
        requester.

        ``keys`` is a :class:`~repro.keys.keys.KeyChain`, a ``{level: key}``
        mapping or any iterable of keys. The reversal engine is configured
        from the envelope's own algorithm metadata, so the service can
        reverse envelopes produced with any algorithm on this map —
        including by other anonymizer instances.
        """
        document = DeanonymizeRequestDoc(
            envelope=envelope,
            keys=tuple(_normalize_keys(keys).values()),
            target_level=target_level,
            mode=mode,
        ).to_dict()
        return self._serve_one(self._peel_lane, document).result

    def deanonymize_batch(
        self, requests: Sequence[DeanonymizeRequestDoc]
    ) -> List[ReversalOutcome]:
        """Serve a batch of reversal requests on the execution backend.

        Outcomes come back in request order; per-item failures (wrong
        keys, collisions, foreign envelopes) ride in place as typed
        :class:`ReversalOutcome` errors, any other error raises, and the
        results are byte-identical whichever backend the service was
        configured with — the process pool peels shards in parallel.
        """
        if not requests:
            return []
        outcomes = self._peel_lane([request.to_dict() for request in requests])
        return self._typed_outcomes(
            requests,
            outcomes,
            _REVERSAL_ERRORS,
            lambda request, doc, error: ReversalOutcome(request, doc.result, error),
        )

    @staticmethod
    def _serve_one(lane, document: dict) -> OutcomeDoc:
        """One document through ``lane``: its success outcome, or its
        error raised."""
        return OutcomeDoc.from_dict(lane([document])[0]).raise_if_error()

    @staticmethod
    def _typed_outcomes(requests, outcomes, kept, build) -> list:
        """Outcome documents as typed outcome objects, built by
        ``build(request, outcome_doc, error)``: successes and errors in
        ``kept`` in place, the first other error raised."""
        typed = []
        unexpected: Optional[ReverseCloakError] = None
        for request, outcome in zip(requests, outcomes):
            doc = OutcomeDoc.from_dict(outcome)
            error = None if doc.ok else doc.to_exception()
            if error is not None and not isinstance(error, kept):
                unexpected = unexpected or error
                continue
            typed.append(build(request, doc, error))
        if unexpected is not None:
            raise unexpected
        return typed

    # ------------------------------------------------------------------
    # transport-neutral entry point
    # ------------------------------------------------------------------
    def handle(self, document: dict) -> dict:
        """Serve one raw wire document and return an outcome document.

        Dispatches on the document's ``format`` tag. A cloak
        (:data:`~repro.lbs.wire.CLOAK_REQUEST_FORMAT`) or a peel
        (:data:`~repro.lbs.wire.DEANONYMIZE_REQUEST_FORMAT`) is served as a
        lane of one, exactly as :meth:`handle_batch` serves it; the items
        of a :data:`~repro.lbs.wire.DEANONYMIZE_BATCH_FORMAT` document go
        through the peel lane together and answer with a
        :class:`~repro.lbs.wire.BatchOutcomeDoc`, per-item errors in
        place. Every :class:`~repro.errors.ReverseCloakError` — including
        malformed documents, shed load (``overloaded``) and expired
        deadlines (``deadline_exceeded``) — comes back as a structured
        error outcome; only genuinely unexpected exceptions propagate. This
        is the single method a transport adapter needs.

        A batch document's ``deadline_ms`` is applied as the default
        cooperative deadline of every item that does not carry its own.
        """
        try:
            kind = document.get("format") if isinstance(document, dict) else None
            if kind == CLOAK_REQUEST_FORMAT:
                return self._answer_lane(self._cloak_lane, [document])[0]
            if kind == DEANONYMIZE_REQUEST_FORMAT:
                return self._answer_lane(self._peel_lane, [document])[0]
            if kind == DEANONYMIZE_BATCH_FORMAT:
                batch_doc = DeanonymizeBatchDoc.from_dict(document)
                items = document["items"]
                if batch_doc.deadline_ms is not None:
                    # The batch-level deadline is a default, not a cap:
                    # items carrying their own deadline keep it.
                    items = [
                        item
                        if item.get("deadline_ms") is not None
                        else dict(item, deadline_ms=batch_doc.deadline_ms)
                        for item in items
                    ]
                return {
                    "format": BATCH_OUTCOME_FORMAT,
                    "version": WIRE_VERSION,
                    "outcomes": self._peel_lane(items),
                }
            if kind == STATS_REQUEST_FORMAT:
                version = document.get("version")
                if version != WIRE_VERSION:
                    raise WireFormatError(
                        f"unsupported {STATS_REQUEST_FORMAT} version: {version!r}"
                    )
                return {
                    "format": STATS_FORMAT,
                    "version": WIRE_VERSION,
                    "status": "ok",
                    "counters": self.stats(),
                }
            if kind == PING_REQUEST_FORMAT:
                # The liveness probe: no counters, no lock, nothing that
                # can block — a probe must answer even when serving hurts.
                version = document.get("version")
                if version != WIRE_VERSION:
                    raise WireFormatError(
                        f"unsupported {PING_REQUEST_FORMAT} version: {version!r}"
                    )
                return {
                    "format": PING_FORMAT,
                    "version": WIRE_VERSION,
                    "status": "ok",
                }
            raise WireFormatError(self._unknown_format_message(document, kind))
        except ReverseCloakError as exc:
            return OutcomeDoc.from_exception(exc).to_dict()

    @staticmethod
    def _unknown_format_message(document, kind) -> str:
        """Name the offending top-level key(s) of an undispatchable
        document: a bare ``unknown document format: None`` used to leave a
        client with a typo'd ``"fromat"`` key nothing to grep for."""
        if not isinstance(document, dict):
            return (
                "unknown document format: request must be a JSON object, "
                f"got {type(document).__name__}"
            )
        if "format" not in document:
            keys = ", ".join(repr(str(key)) for key in sorted(map(str, document)))
            return (
                "unknown document format: no 'format' key; offending "
                f"top-level key(s): [{keys}]"
            )
        return f"unknown document format: 'format' is {kind!r}"

    def handle_json(self, payload: str) -> str:
        """:meth:`handle` over JSON strings (byte-transport adapters)."""
        try:
            document = json.loads(payload)
        except ValueError as exc:
            malformed = WireFormatError(f"request is not valid JSON: {exc}")
            return OutcomeDoc.from_exception(malformed).to_json()
        return json.dumps(self.handle(document), sort_keys=True)

    def handle_json(self, payload: str) -> str:
        """:meth:`handle` over JSON strings (byte-transport adapters)."""
        try:
            document = json.loads(payload)
        except ValueError as exc:
            malformed = WireFormatError(f"request is not valid JSON: {exc}")
            return OutcomeDoc.from_exception(malformed).to_json()
        return json.dumps(self.handle(document), sort_keys=True)

    def handle_batch(self, documents: Sequence[dict]) -> List[dict]:
        """Serve many *independent* wire documents as coalesced batches.

        The transport-batching twin of :meth:`handle`, built for
        front-ends that accumulate compatible requests
        (:mod:`repro.lbs.frontend`): one outcome document per input
        document, positionally, each answering exactly what :meth:`handle`
        would have answered for that document alone — but single cloak and
        single reversal documents are grouped into one lane each, so a
        process-pool backend pays its dispatch overhead once per coalesced
        batch instead of once per request. Every other format (reversal
        batches, stats, unknown) is served individually through
        :meth:`handle`, before the lanes.

        Admission control is per lane, all-or-nothing like any batch; a
        shed lane answers structured ``overloaded`` outcomes in place.
        Parse failures, unknown users and serving failures all ride in
        place too — this method never raises for a bad document.
        """
        results: List[Optional[dict]] = [None] * len(documents)
        cloaks: List[int] = []
        peels: List[int] = []
        for position, document in enumerate(documents):
            kind = document.get("format") if isinstance(document, dict) else None
            if kind == CLOAK_REQUEST_FORMAT:
                cloaks.append(position)
            elif kind == DEANONYMIZE_REQUEST_FORMAT:
                peels.append(position)
            else:
                results[position] = self.handle(document)
        for positions, lane in ((cloaks, self._cloak_lane), (peels, self._peel_lane)):
            if positions:
                outcomes = self._answer_lane(
                    lane, [documents[position] for position in positions]
                )
                for position, outcome in zip(positions, outcomes):
                    results[position] = outcome
        return results  # type: ignore[return-value]

    # ------------------------------------------------------------------
    # the two lanes
    # ------------------------------------------------------------------
    @staticmethod
    def _answer_lane(
        lane: Callable[[Sequence[dict]], List[dict]], documents: Sequence[dict]
    ) -> List[dict]:
        """Serve ``documents`` through ``lane``, answering a lane-wide
        failure (no snapshot, shed load) in place for every document."""
        try:
            return lane(documents)
        except ReverseCloakError as exc:
            outcome = OutcomeDoc.from_exception(exc).to_dict()
            return [dict(outcome) for _ in documents]

    def _cloak_lane(self, documents: Sequence[dict]) -> List[dict]:
        """Cloak request documents through the backend, outcomes in order.

        Users are resolved here, once, against the snapshot: the backend
        receives every document with its ``user_segment`` set. A document
        that fails resolution answers in place; only cloaking errors count
        as failures (a malformed or unknown-user document counts as
        neither).

        Raises:
            MobilityError: No snapshot is installed.
            OverloadedError: The lane was shed.
        """
        snapshot = self._require_snapshot()
        outcomes: List[Optional[dict]] = [None] * len(documents)
        with self._admit(len(documents)):
            resolved: List[dict] = []
            positions: List[int] = []
            for position, document in enumerate(documents):
                try:
                    resolved.append(self._resolve_user(snapshot, document))
                except ReverseCloakError as exc:
                    outcomes[position] = OutcomeDoc.from_exception(exc).to_dict()
                    continue
                positions.append(position)
            if resolved:
                served = self._backend.cloak_batch_raw(snapshot, resolved)
                for position, outcome in zip(positions, served):
                    outcomes[position] = outcome
        ok, failures = _tally(outcomes, lambda cls: issubclass(cls, CloakingError))
        self._count(served=ok, failures=failures)
        return outcomes  # type: ignore[return-value]

    @staticmethod
    def _resolve_user(snapshot: PopulationSnapshot, document: dict) -> dict:
        """``document`` with the user's segment patched into a copy.

        A literal int ``user_id`` the snapshot knows takes the fast path;
        anything else is parsed first, so a malformed document fails as
        malformed, never as merely unknown. A document that already
        carries ``user_segment`` passes through unresolved.
        """
        if document.get("user_segment") is not None:
            return document
        user_id = document.get("user_id")
        # `type` not `isinstance`: bool subclasses int, and from_dict's
        # int() coercion stays the one authority on anything else.
        if not (type(user_id) is int and snapshot.has_user(user_id)):
            user_id = CloakRequestDoc.from_dict(document).user_id
            if not snapshot.has_user(user_id):
                raise MobilityError(
                    f"user {user_id} is not in the current snapshot"
                )
        return dict(document, user_segment=snapshot.segment_of(user_id))

    def _peel_lane(self, documents: Sequence[dict]) -> List[dict]:
        """Reversal request documents through the backend, outcomes in
        order. Malformed documents count as neither served nor failed.

        Raises:
            OverloadedError: The lane was shed.
        """
        with self._admit(len(documents)):
            outcomes = self._backend.deanonymize_batch_raw(documents)
        ok, failures = _tally(
            outcomes, lambda cls: not issubclass(cls, WireFormatError)
        )
        self._count(reversals=ok, reversal_failures=failures)
        return outcomes

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _require_snapshot(self) -> PopulationSnapshot:
        snapshot = self._snapshot
        if snapshot is None:
            raise MobilityError("anonymizer has no population snapshot")
        return snapshot

    def _count(
        self,
        served: int = 0,
        failures: int = 0,
        reversals: int = 0,
        reversal_failures: int = 0,
    ) -> None:
        with self._counter_lock:
            self._requests_served += served
            self._failures += failures + reversal_failures
            self._reversals_served += reversals
            self._reversal_failures += reversal_failures
