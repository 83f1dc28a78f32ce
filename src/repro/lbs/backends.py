"""Pluggable execution backends of the anonymization service.

The serving facade (:class:`~repro.lbs.service.AnonymizerService`) owns the
protocol — request in, outcome out — and delegates *where the work runs*
to an :class:`ExecutionBackend`. A backend serves exactly two lanes, both
in raw wire documents:

* :meth:`ExecutionBackend.cloak_batch_raw` — cloak request documents
  (:class:`~repro.lbs.wire.CloakRequestDoc` dicts) against one population
  snapshot. The service resolves every user to its segment before the
  lane, so each document arrives carrying ``user_segment`` and a worker
  needs only the snapshot's counts;
* :meth:`ExecutionBackend.deanonymize_batch_raw` — reversal request
  documents (:class:`~repro.lbs.wire.DeanonymizeRequestDoc` dicts).
  Reversal is snapshot-free: each envelope names its own algorithm, and
  its engine comes from a bounded :class:`ReversalEngineCache`.

Both return one :class:`~repro.lbs.wire.OutcomeDoc` dict per document, in
order. Every backend serves a lane through the same per-document pair,
:func:`_serve_chunk_docs` and :func:`_peel_chunk_docs`, which the
process-pool workers also run. Their error rule: any
:class:`~repro.errors.ReverseCloakError` one document raises — malformed,
expired, unknown segment, bad key, foreign envelope — becomes that
document's structured error outcome, in place; anything else is a bug or
an infrastructure failure and propagates out of the lane. One bad
document therefore never changes a neighbour's answer.

* :class:`InlineBackend` — the calling thread, one engine. The reference
  every other backend must match byte for byte.
* :class:`ThreadPoolBackend` — a persistent thread pool with one engine per
  worker thread. Cloaking is pure Python, so on GIL builds this adds
  scheduling overhead rather than parallelism.
* :class:`ProcessPoolBackend` — N supervised worker processes, each
  holding an engine rebuilt from wire documents. Documents cross the
  boundary as they are, so serving is byte-identical to inline; a dead
  worker is respawned and its chunk re-driven, degrading to inline
  execution rather than losing a batch (exercised through
  :mod:`repro.lbs.faults`).

Every backend enforces each document's cooperative ``deadline_ms``
(surfacing as ``deadline_exceeded``). A backend is bound once to an
immutable :class:`BackendSpec` and then serves any number of batches.
"""

from __future__ import annotations

import json
import os
import stat
import threading
import time
from abc import ABC, abstractmethod
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..core.algorithm import CloakingAlgorithm
from ..core.engine import ReverseCloakEngine, algorithm_from_spec
from ..core.envelope import CloakEnvelope
from ..core.reversal import DrawsCache
from ..errors import (
    CloakingError,
    MobilityError,
    ProfileError,
    ReverseCloakError,
    WorkerCrashedError,
)
from ..mobility.snapshot import PopulationSnapshot
from ..roadnet.graph import RoadNetwork
from ..roadnet.io import network_from_dict, network_to_dict
from .faults import Deadline, FaultInjector, FaultPlan
from .wire import (
    CloakRequestDoc,
    DeanonymizeRequestDoc,
    OutcomeDoc,
    snapshot_from_dict,
    snapshot_to_dict,
)

__all__ = [
    "BackendSpec",
    "ReversalEngineCache",
    "ExecutionBackend",
    "InlineBackend",
    "ThreadPoolBackend",
    "ProcessPoolBackend",
]


class ReversalEngineCache:
    """Bounded, lock-guarded LRU of reversal engines keyed by algorithm spec.

    Envelopes name their own algorithm and parameters, and those fields are
    attacker-controlled on the wire endpoints — an unbounded
    ``{(algorithm, params): engine}`` dict lets churning parameters grow
    engine objects (and their pre-assignment tables) without limit, the
    same bug class PR 4 fixed in the transition-domain memo. This cache
    caps the live set (move-to-end on hit, evict oldest past ``cap``) and
    keeps the common case allocation-free: a ``default`` engine matching
    its own algorithm spec is answered without touching the LRU at all.

    Thread-safe; engines themselves hold only immutable shared structures,
    so handing one instance to several serving threads is fine.
    """

    def __init__(
        self,
        network: RoadNetwork,
        default: Optional[ReverseCloakEngine] = None,
        cap: int = 32,
    ) -> None:
        if cap < 1:
            raise ProfileError(f"engine cache cap must be >= 1, got {cap}")
        self._network = network
        self._default = default
        # The default's spec, computed once: algorithm instances are
        # immutable, and rebuilding the params dict per lookup would put
        # an allocation on every peel's fast path.
        self._default_spec = (
            (default.algorithm.name, default.algorithm.params())
            if default is not None
            else None
        )
        self._cap = cap
        self._lock = threading.Lock()
        self._engines: "OrderedDict[Tuple[str, str], ReverseCloakEngine]" = (
            OrderedDict()
        )

    def __len__(self) -> int:
        with self._lock:
            return len(self._engines)

    def engine_for(self, envelope: CloakEnvelope) -> ReverseCloakEngine:
        """The reversal engine of ``envelope``'s algorithm metadata.

        Raises:
            EnvelopeError: The envelope names an unknown algorithm.
        """
        default_spec = self._default_spec
        if default_spec is not None and (
            (envelope.algorithm, envelope.algorithm_params) == default_spec
        ):
            return self._default
        cache_key = (
            envelope.algorithm,
            json.dumps(envelope.algorithm_params, sort_keys=True),
        )
        with self._lock:
            engine = self._engines.get(cache_key)
            if engine is not None:
                self._engines.move_to_end(cache_key)
                return engine
        # Build outside the lock (RPLE pre-assignment can be expensive);
        # a racing builder of the same spec just loses its copy.
        engine = ReverseCloakEngine.for_envelope(self._network, envelope)
        with self._lock:
            existing = self._engines.get(cache_key)
            if existing is not None:
                self._engines.move_to_end(cache_key)
                return existing
            self._engines[cache_key] = engine
            while len(self._engines) > self._cap:
                self._engines.popitem(last=False)
        return engine


@dataclass(frozen=True)
class BackendSpec:
    """Everything a backend needs to run the cloaking work anywhere.

    Attributes:
        network: The shared road map.
        algorithm: The cloaking algorithm instance (its ``name``/``params()``
            are the wire spec process workers rebuild it from).
        include_hints: Sealed-hint envelope policy (decision D1).
    """

    network: RoadNetwork
    algorithm: CloakingAlgorithm
    include_hints: bool = True

    def build_engine(self) -> ReverseCloakEngine:
        return ReverseCloakEngine(self.network, self.algorithm)


def _serve_chunk_docs(
    engine: ReverseCloakEngine,
    snapshot: PopulationSnapshot,
    include_hints: bool,
    request_docs: Sequence[dict],
    injector: Optional[FaultInjector] = None,
    chunk: int = 0,
) -> List[dict]:
    """Serve cloak request documents against an engine, outcomes in order.

    The one cloaking path of every backend: inline and thread serving call
    it directly, process workers call it on their chunk, and the pool's
    inline degradation calls it in the parent. Each document is expanded
    under its own cooperative deadline; any
    :class:`~repro.errors.ReverseCloakError` it raises becomes its error
    outcome in place, and anything else propagates. Documents must carry
    ``user_segment``: workers hold only population counts, so users are
    resolved by the service before the lane.
    """
    results: list = []
    for item, doc in enumerate(_parsed(CloakRequestDoc.from_dict, request_docs)):
        if isinstance(doc, ReverseCloakError):
            results.append(doc)
            continue
        try:
            if doc.user_segment is None:
                raise MobilityError(
                    f"user {doc.user_id} was not resolved to a segment "
                    "before serving"
                )
            deadline = Deadline.start(doc.deadline_ms)
            if injector is not None:
                injector.on_item(chunk, item, "cloak", deadline)
            results.append(
                engine.anonymize(
                    doc.user_segment,
                    snapshot,
                    doc.profile,
                    doc.chain,
                    include_hints=include_hints,
                    checkpoint=deadline.check if deadline.active else None,
                )
            )
        except ReverseCloakError as exc:
            results.append(exc)
    return _outcome_docs(results, OutcomeDoc.from_envelope)


def _peel_chunk_docs(
    engines: ReversalEngineCache,
    request_docs: Sequence[dict],
    draws_cache: Optional[DrawsCache] = None,
    injector: Optional[FaultInjector] = None,
    chunk: int = 0,
) -> List[dict]:
    """Serve reversal request documents against an engine cache, outcomes
    in order.

    The one reversal path of every backend (see :func:`_serve_chunk_docs`,
    whose error rule it shares): each document's engine is resolved from
    its envelope's own algorithm metadata, the documents share one
    keyed-draw cache, and each peels under its own cooperative deadline.
    """
    results: list = []
    for item, doc in enumerate(_parsed(DeanonymizeRequestDoc.from_dict, request_docs)):
        if isinstance(doc, ReverseCloakError):
            results.append(doc)
            continue
        try:
            deadline = Deadline.start(doc.deadline_ms)
            if injector is not None:
                injector.on_item(chunk, item, "peel", deadline)
            results.append(
                engines.engine_for(doc.envelope).deanonymize(
                    doc.envelope,
                    doc.key_map(),
                    doc.target_level,
                    mode=doc.mode,
                    draws_cache=draws_cache,
                    checkpoint=deadline.check if deadline.active else None,
                )
            )
        except ReverseCloakError as exc:
            results.append(exc)
    return _outcome_docs(results, OutcomeDoc.from_result)


def _parsed(parse, request_docs: Sequence[dict]) -> list:
    """Each document parsed by ``parse``, or the error it raised.

    The per-document functions parse, serve and encode a lane in three
    passes rather than one document at a time. In process on the
    benchmark's 71x71 map (2-vCPU VM, Python 3.11), that served a 64-cloak
    lane 14% faster for 1-level cloaks and 4% faster for 2-level ones,
    with byte-identical outcomes.
    """
    parsed: list = []
    for request_doc in request_docs:
        try:
            parsed.append(parse(request_doc))
        except ReverseCloakError as exc:
            parsed.append(exc)
    return parsed


def _outcome_docs(results: list, success) -> List[dict]:
    """Outcome documents of served results: ``success(result)`` for each
    result, the structured error outcome for each error."""
    return [
        OutcomeDoc.from_exception(result).to_dict()
        if isinstance(result, ReverseCloakError)
        else success(result).to_dict()
        for result in results
    ]


class ExecutionBackend(ABC):
    """Where the serving work of one anonymization service runs.

    Lifecycle: the service calls :meth:`bind` exactly once with its
    immutable :class:`BackendSpec`, then any number of
    :meth:`cloak_batch_raw` / :meth:`deanonymize_batch_raw` calls, then
    :meth:`close`. Backends are thread-safe for concurrent batch
    submissions.
    """

    _spec: Optional[BackendSpec] = None

    def bind(self, spec: BackendSpec) -> None:
        """Pin this backend to its serving configuration (idempotent for
        the same spec; a backend never serves two configurations)."""
        if self._spec is not None and self._spec is not spec:
            raise CloakingError("backend is already bound to another service")
        self._spec = spec

    @property
    def spec(self) -> BackendSpec:
        if self._spec is None:
            raise CloakingError("backend is not bound to a service yet")
        return self._spec

    @abstractmethod
    def cloak_batch_raw(
        self, snapshot: PopulationSnapshot, documents: Sequence[dict]
    ) -> List[dict]:
        """Serve cloak request documents against ``snapshot``; outcome
        documents in order, per-document failures in place."""

    @abstractmethod
    def deanonymize_batch_raw(self, documents: Sequence[dict]) -> List[dict]:
        """Serve reversal request documents; outcome documents in order,
        per-document failures in place. Snapshot-free."""

    def close(self) -> None:
        """Release worker resources (idempotent)."""

    def __enter__(self) -> "ExecutionBackend":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


class InlineBackend(ExecutionBackend):
    """Serve every batch sequentially on the calling thread.

    The reference implementation: every other backend must match its
    results byte for byte. Reversal serving reuses one bounded engine
    cache across batches and shares one keyed-draw cache within each
    batch.

    Args:
        fault_plan: Optional :class:`~repro.lbs.faults.FaultPlan`
            (defaults to the ambient :data:`~repro.lbs.faults.FAULT_PLAN_ENV`
            plan). Inline serving presents to the plan as worker ``0``,
            incarnation ``0``, with each batch as one chunk — but only
            ``delay`` faults apply: kill and drop faults are inert
            in-process (there is no worker to lose).
    """

    def __init__(self, fault_plan: Optional[FaultPlan] = None) -> None:
        self._engine: Optional[ReverseCloakEngine] = None
        self._reversal_engines: Optional[ReversalEngineCache] = None
        self._injector = FaultInjector(
            fault_plan if fault_plan is not None else FaultPlan.from_env()
        )
        self._chunk_lock = threading.Lock()
        self._chunk_counter = 0

    def bind(self, spec: BackendSpec) -> None:
        super().bind(spec)
        if self._engine is None:
            self._engine = spec.build_engine()
            self._reversal_engines = ReversalEngineCache(
                spec.network, default=self._engine
            )

    def _next_chunk(self) -> int:
        # Services share one backend across request threads; an unguarded
        # read-increment pair here hands the same chunk id (and therefore
        # the same fault-plan row) to two concurrent batches.
        with self._chunk_lock:
            chunk = self._chunk_counter
            self._chunk_counter += 1
            return chunk

    def _fault_args(self) -> Tuple[Optional[FaultInjector], int]:
        """The (injector, chunk id) of one batch; no chunk id is drawn
        when no fault plan is active."""
        if not self._injector:
            return None, 0
        return self._injector, self._next_chunk()

    def cloak_batch_raw(
        self, snapshot: PopulationSnapshot, documents: Sequence[dict]
    ) -> List[dict]:
        if not documents:
            return []
        include_hints = self.spec.include_hints
        return _serve_chunk_docs(
            self._engine, snapshot, include_hints, documents, *self._fault_args()
        )

    def deanonymize_batch_raw(self, documents: Sequence[dict]) -> List[dict]:
        if not documents:
            return []
        self.spec  # raise the unbound error before any work
        return _peel_chunk_docs(
            self._reversal_engines, documents, DrawsCache(), *self._fault_args()
        )


class ThreadPoolBackend(ExecutionBackend):
    """Serve batches across a persistent thread pool.

    Each worker thread lazily builds one engine and reuses it for every
    request it ever serves (engines hold only immutable shared structures:
    the network, the algorithm and its pre-assignment tables). All requests
    of a batch run against the one snapshot the batch was submitted with.

    GIL caveat: cloaking is pure Python, so on GIL-bound builds the pool
    adds scheduling overhead without adding parallelism — every measured
    width was slower than inline serving on a 1-CPU container
    (``BENCH_serving.json``). A width of 1 therefore short-circuits to
    inline execution on the calling thread (same engine-per-thread reuse,
    no pool hop); widths > 1 remain the right backend only for workloads
    that actually block (I/O-heavy algorithms, free-threaded builds) —
    otherwise prefer :class:`InlineBackend` or
    :class:`ProcessPoolBackend`.

    Args:
        max_workers: Pool width; ``None`` picks ``min(8, cpu_count)``.
    """

    def __init__(self, max_workers: Optional[int] = None) -> None:
        if max_workers is not None and max_workers < 1:
            raise CloakingError(f"max_workers must be >= 1, got {max_workers}")
        self._max_workers = max_workers or min(8, os.cpu_count() or 1)
        self._pool: Optional[ThreadPoolExecutor] = None
        self._pool_lock = threading.Lock()
        self._engines = threading.local()

    @property
    def max_workers(self) -> int:
        return self._max_workers

    def _worker_engine(self) -> ReverseCloakEngine:
        engine = getattr(self._engines, "engine", None)
        if engine is None:
            engine = self.spec.build_engine()
            self._engines.engine = engine
        return engine

    def _worker_reversal_engines(self) -> ReversalEngineCache:
        """This worker thread's bounded reversal-engine cache (per worker,
        so reversal serving stays lock-free on the hot path)."""
        engines = getattr(self._engines, "reversal", None)
        if engines is None:
            engines = ReversalEngineCache(
                self.spec.network, default=self._worker_engine()
            )
            self._engines.reversal = engines
        return engines

    def _ensure_pool(self) -> ThreadPoolExecutor:
        with self._pool_lock:
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=self._max_workers,
                    thread_name_prefix="reversecloak-serve",
                )
            return self._pool

    def cloak_batch_raw(
        self, snapshot: PopulationSnapshot, documents: Sequence[dict]
    ) -> List[dict]:
        if not documents:
            return []
        include_hints = self.spec.include_hints
        if self._max_workers == 1:
            # A one-thread pool is pure overhead (submission hop + GIL
            # handoff per request, see the class docstring): serve on the
            # calling thread with the same per-thread engine reuse.
            return _serve_chunk_docs(
                self._worker_engine(), snapshot, include_hints, documents
            )
        return list(
            self._ensure_pool().map(
                lambda document: _serve_chunk_docs(
                    self._worker_engine(), snapshot, include_hints, (document,)
                )[0],
                documents,
            )
        )

    def deanonymize_batch_raw(self, documents: Sequence[dict]) -> List[dict]:
        if not documents:
            return []
        self.spec  # raise the unbound error before any work
        if self._max_workers == 1:
            # Same short-circuit as the cloak lane — and serving on the
            # calling thread lets the whole batch share one draws cache.
            return _peel_chunk_docs(
                self._worker_reversal_engines(), documents, DrawsCache()
            )
        # No cross-item draws cache here: LevelDraws buffers are per-thread
        # scratch and items of one batch land on different workers. Each
        # peel still shares draws internally across its own hypotheses.
        return list(
            self._ensure_pool().map(
                lambda document: _peel_chunk_docs(
                    self._worker_reversal_engines(), (document,)
                )[0],
                documents,
            )
        )

    def close(self) -> None:
        with self._pool_lock:
            if self._pool is not None:
                self._pool.shutdown(wait=True)
                self._pool = None


# ----------------------------------------------------------------------
# process-pool backend
# ----------------------------------------------------------------------
#: Chunk reply meaning "this worker has not seen the batch's snapshot yet";
#: the parent re-submits the chunk with the snapshot document attached.
_NEED_SNAPSHOT = "__need_snapshot__"

#: Per-process worker state, populated by :func:`_worker_init` (one engine
#: per worker process, plus the cache of the last snapshot it deserialized).
_WORKER_STATE: dict = {}


def _worker_init(
    network_blob: str, algorithm_name: str, params_blob: str, include_hints: bool
) -> None:
    """Process-pool worker initializer (module-level: ``spawn`` pickles the
    function by qualified name). Rebuilds the engine from wire documents —
    the worker never shares live objects with the parent."""
    network = network_from_dict(json.loads(network_blob))
    algorithm = algorithm_from_spec(network, algorithm_name, json.loads(params_blob))
    engine = ReverseCloakEngine(network, algorithm)
    _WORKER_STATE.clear()
    _WORKER_STATE.update(
        engine=engine,
        # Reversal engines are rebuilt worker-side from each envelope's own
        # algorithm metadata; the bounded cache mirrors the parent's.
        reversal_engines=ReversalEngineCache(network, default=engine),
        include_hints=include_hints,
        snapshot_token=None,
        snapshot=None,
    )


def _worker_serve_chunk(
    snapshot_token: int,
    snapshot_blob: Optional[str],
    request_docs: Tuple[dict, ...],
    injector: Optional[FaultInjector] = None,
    chunk: int = 0,
):
    """Serve one cloaking chunk inside a worker process.

    Returns outcome documents (plain dicts) in chunk order, or the
    :data:`_NEED_SNAPSHOT` sentinel when the worker's cached snapshot is
    stale and the chunk carried no snapshot document. Expected serving
    failures become error outcomes; anything else propagates and surfaces
    in the parent.
    """
    state = _WORKER_STATE
    if state.get("snapshot_token") != snapshot_token:
        if snapshot_blob is None:
            return _NEED_SNAPSHOT
        state["snapshot"] = snapshot_from_dict(json.loads(snapshot_blob))
        state["snapshot_token"] = snapshot_token
    return _serve_chunk_docs(
        state["engine"],
        state["snapshot"],
        state["include_hints"],
        request_docs,
        injector=injector,
        chunk=chunk,
    )


def _worker_peel_chunk(
    request_docs: Tuple[dict, ...],
    injector: Optional[FaultInjector] = None,
    chunk: int = 0,
):
    """Serve one reversal chunk inside a worker process."""
    return _peel_chunk_docs(
        _WORKER_STATE["reversal_engines"],
        request_docs,
        DrawsCache(),
        injector=injector,
        chunk=chunk,
    )


def _close_inherited_sockets(keep_fd: int) -> None:
    """Close socket FDs a ``fork``-started worker inherited from the parent.

    A worker forked while the parent is serving (first lazy spawn under
    load, or a supervised respawn) inherits duplicates of every open
    socket: the front-end listener and every accepted connection. Those
    duplicates keep the TCP connections alive after the parent closes its
    own copies, so evictions, drains and shutdowns would never surface to
    the peers as FIN/RST. Workers rebuild all state from wire documents by
    design and own no socket except their dispatch pipe (itself a
    socketpair end — ``keep_fd``), so every other inherited socket is
    safe to close. Under ``spawn``/``forkserver`` nothing is inherited and
    this is a no-op; without procfs (macOS) it degrades to a no-op too,
    which matches the platform's ``spawn`` default.
    """
    try:
        fd_names = os.listdir("/proc/self/fd")
    except OSError:
        return
    for name in fd_names:
        try:
            fd = int(name)
        except ValueError:
            continue
        if fd == keep_fd or fd < 3:
            continue
        try:
            if stat.S_ISSOCK(os.fstat(fd).st_mode):
                os.close(fd)
        except OSError:
            continue


def _worker_main(
    connection,
    network_blob: str,
    algorithm_name: str,
    params_blob: str,
    include_hints: bool,
    plan_blob: Optional[str] = None,
    worker_index: int = 0,
    incarnation: int = 0,
) -> None:
    """The serve loop of one sharded worker process.

    Module-level so the ``spawn`` start method can import it by qualified
    name. The worker rebuilds its engine from the wire documents it was
    started with, then answers tagged messages on its dedicated pipe until
    it receives ``None``:

    * ``("cloak", token, snapshot_blob, request_docs)`` — one cloaking
      chunk against the token's snapshot;
    * ``("peel", request_docs)`` — one de-anonymization chunk
      (snapshot-free).

    Replies are ``("ok", outcome_docs)``, ``("ok", _NEED_SNAPSHOT)`` for a
    stale snapshot cache, or ``("raise", exception)`` for unexpected
    failures (re-raised in the parent).

    ``plan_blob``/``worker_index``/``incarnation`` configure the worker's
    deterministic :class:`~repro.lbs.faults.FaultInjector` (the plan ships
    as JSON so it survives ``spawn``). Chunk ordinals count the messages
    *this incarnation* has received, so a respawned worker starts from
    chunk 0 — and, because faults default to incarnation 0, does not
    re-trigger the fault that killed its predecessor.
    """
    _close_inherited_sockets(connection.fileno())
    _worker_init(network_blob, algorithm_name, params_blob, include_hints)
    plan = FaultPlan.from_json(plan_blob) if plan_blob else None
    injector = FaultInjector(
        plan, worker_index, incarnation, process_worker=True
    )
    injector.install_signal_faults()
    chunk_counter = 0
    while True:
        message = connection.recv()
        if message is None:
            if injector.ignore_shutdown():
                continue
            break
        chunk = chunk_counter
        chunk_counter += 1
        op = "peel" if message[0] == "peel" else "cloak"
        try:
            injector.on_chunk(chunk, op)
            kind = message[0]
            if kind == "cloak":
                _, token, snapshot_blob, request_docs = message
                reply = _worker_serve_chunk(
                    token, snapshot_blob, request_docs, injector, chunk
                )
            elif kind == "peel":
                reply = _worker_peel_chunk(message[1], injector, chunk)
            else:
                raise RuntimeError(f"unknown worker message kind: {kind!r}")
        except BaseException as exc:  # ship unexpected failures to the parent
            try:
                connection.send(("raise", exc))
            except Exception:
                connection.send(
                    ("raise", RuntimeError(f"worker failure: {exc!r}"))
                )
        else:
            if injector.drop_reply(chunk, op):
                continue
            connection.send(("ok", reply))
    connection.close()


class _WedgedWorkerError(Exception):
    """Internal: a worker missed its dispatch-wait timeout (wedged or its
    reply was lost); treated exactly like a dead pipe by supervision."""


#: What supervision treats as "the worker is gone": a dead pipe (EOF /
#: broken pipe / reset, all OSError subclasses) or a missed dispatch wait.
_TRANSPORT_ERRORS = (EOFError, OSError, _WedgedWorkerError)

#: Grace added on top of a chunk's largest item deadline when the parent
#: bounds its dispatch wait with it: deadlines are cooperative, so a worker
#: may legitimately finish (and report expiry itself) slightly late.
_DEADLINE_WAIT_GRACE_S = 1.0

#: The longest deadline that can bound a dispatch wait: ``Connection.poll``
#: takes its timeout as a C int of milliseconds (2**31 ms, about 24.8
#: days, raises ``OverflowError``). A longer deadline bounds nothing.
_MAX_WAIT_DEADLINE_MS = 2**31 - 1 - 1000.0 * _DEADLINE_WAIT_GRACE_S


def _usable_deadline(document) -> Optional[float]:
    """A raw document's ``deadline_ms`` if it is a number from 0 to
    :data:`_MAX_WAIT_DEADLINE_MS`."""
    value = document.get("deadline_ms") if isinstance(document, dict) else None
    if (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and 0 <= value <= _MAX_WAIT_DEADLINE_MS
    ):
        return value
    return None


@dataclass
class _WorkerHandle:
    """One live worker shard: its process, private pipe, stable slot index
    and incarnation number (bumped on every supervised respawn)."""

    process: object
    connection: object
    index: int
    incarnation: int


class ProcessPoolBackend(ExecutionBackend):
    """Serve batches across N sharded worker processes, one engine each.

    The workers are dedicated processes on private pipes (not a task
    queue): the parent splits every batch into one contiguous chunk per
    worker, writes each chunk to its worker, and reads the replies back —
    no shared queues, no management threads, so the per-batch dispatch
    overhead stays flat as workers are added.

    Everything crossing the process boundary is a wire document:

    * at start-up each worker rebuilds the road network and algorithm from
      their serialized forms (:func:`_worker_init`);
    * per batch, the snapshot ships as a counts document under a
      monotonically increasing token — workers cache the parsed snapshot
      by token, so a steady stream of batches against one snapshot pays
      the (de)serialization once per worker, not once per batch;
    * cloak documents ship as they arrived, with the user already resolved
      to a segment by the service (workers only ever need counts), and
      results return as :class:`~repro.lbs.wire.OutcomeDoc` dicts;
    * reversal documents ship the same way, snapshot-free; workers rebuild
      each envelope's reversal engine from its own algorithm metadata
      through a bounded per-worker cache.

    Wire documents round-trip exactly, so the envelopes and recovered
    regions a worker produces are byte-identical to inline serving —
    asserted by the backend tests.

    Batches are dispatched one at a time (a lock serializes the two
    lanes' callers); parallelism lives *inside* a batch.

    **Supervision.** Worker death is an operational event, not a batch
    failure: when a pipe dies (EOF, broken pipe, reset) or a dispatch wait
    times out, the parent respawns the slot — incarnation bumped, engine
    rebuilt from the same wire documents — and re-drives *only the lost
    chunk*, with exponential backoff, up to ``max_chunk_retries`` times.
    A chunk that outlives its retry budget degrades to inline execution on
    the parent (byte-identical by the counts-only snapshot equivalence the
    wire protocol already guarantees), so a batch is never lost; with
    ``inline_fallback=False`` the chunk's items surface as structured
    ``worker_crashed`` outcomes instead. Failures a worker *reports*
    (``("raise", exc)``) are not crashes: the pool stays up, the remaining
    replies are drained, and the failure re-raises as before.
    :attr:`worker_restarts` and :attr:`inline_fallbacks` count the
    recovery events.

    Args:
        max_workers: Number of worker processes; ``None`` picks
            ``min(4, cpu_count)``.
        start_method: ``multiprocessing`` start method (``"fork"``,
            ``"spawn"``, ``"forkserver"``); ``None`` uses the platform
            default. Everything shipped to workers is picklable under
            ``spawn``, so macOS/Windows semantics are covered.
        fault_plan: Optional :class:`~repro.lbs.faults.FaultPlan` shipped
            to every worker (as JSON, so it survives ``spawn``); defaults
            to the ambient :data:`~repro.lbs.faults.FAULT_PLAN_ENV` plan.
        max_chunk_retries: Respawn-and-redrive attempts per lost chunk
            before degrading it.
        retry_backoff_s: Base of the exponential backoff between respawn
            attempts (``retry_backoff_s * 2**(attempt-1)`` seconds).
        dispatch_timeout_s: Optional bound on each dispatch wait; a worker
            that misses it is treated as wedged (killed, respawned, chunk
            re-driven). Required for ``drop_reply`` faults to be
            recoverable — without it, and without per-item deadlines, a
            silently dropped reply would block the parent forever.
        inline_fallback: Degrade retry-exhausted chunks to inline
            execution (default) instead of ``worker_crashed`` outcomes.
        shutdown_join_s: Join timeout of each teardown escalation stage
            (sentinel → ``terminate()`` → ``kill()``).
    """

    def __init__(
        self,
        max_workers: Optional[int] = None,
        start_method: Optional[str] = None,
        fault_plan: Optional[FaultPlan] = None,
        max_chunk_retries: int = 2,
        retry_backoff_s: float = 0.05,
        dispatch_timeout_s: Optional[float] = None,
        inline_fallback: bool = True,
        shutdown_join_s: float = 5.0,
    ) -> None:
        if max_workers is not None and max_workers < 1:
            raise CloakingError(f"max_workers must be >= 1, got {max_workers}")
        if max_chunk_retries < 0:
            raise CloakingError(
                f"max_chunk_retries must be >= 0, got {max_chunk_retries}"
            )
        self._max_workers = max_workers or min(4, os.cpu_count() or 1)
        self._start_method = start_method
        self._fault_plan = (
            fault_plan if fault_plan is not None else FaultPlan.from_env()
        )
        self._plan_blob = (
            self._fault_plan.to_json() if self._fault_plan else None
        )
        self._max_chunk_retries = max_chunk_retries
        self._retry_backoff_s = retry_backoff_s
        self._dispatch_timeout_s = dispatch_timeout_s
        self._inline_fallback = inline_fallback
        self._shutdown_join_s = shutdown_join_s
        self._dispatch_lock = threading.Lock()
        self._context = None
        self._init_args: Optional[tuple] = None
        self._workers: List[_WorkerHandle] = []
        # The degradation engines are built lazily on the first retry
        # exhaustion — the happy path never pays for them.
        self._fallback_engine: Optional[ReverseCloakEngine] = None
        self._fallback_reversal: Optional[ReversalEngineCache] = None
        #: Supervised respawns performed (observability; tests assert on it).
        self.worker_restarts = 0
        #: Chunks degraded to inline execution after retry exhaustion.
        self.inline_fallbacks = 0
        # Snapshot shipping state: one token per distinct snapshot object,
        # blob serialized once; workers that have not seen the batch's
        # token answer _NEED_SNAPSHOT and get a resend with the blob.
        self._snapshot_token = 0
        self._snapshot_seen: Optional[PopulationSnapshot] = None
        self._snapshot_blob: Optional[str] = None
        self._cold_token = True

    @property
    def max_workers(self) -> int:
        return self._max_workers

    def _spawn_worker(self, index: int, incarnation: int) -> _WorkerHandle:
        parent_end, child_end = self._context.Pipe()
        process = self._context.Process(
            target=_worker_main,
            args=(child_end,)
            + self._init_args
            + (self._plan_blob, index, incarnation),
            daemon=True,
        )
        process.start()
        child_end.close()
        return _WorkerHandle(process, parent_end, index, incarnation)

    def _ensure_workers(self) -> List[_WorkerHandle]:
        """Spawn the worker shards on first use (dispatch lock held)."""
        if not self._workers:
            if self._context is None:
                import multiprocessing

                self._context = multiprocessing.get_context(self._start_method)
            spec = self.spec
            self._init_args = (
                json.dumps(network_to_dict(spec.network)),
                spec.algorithm.name,
                json.dumps(spec.algorithm.params()),
                spec.include_hints,
            )
            for index in range(self._max_workers):
                self._workers.append(self._spawn_worker(index, incarnation=0))
        return self._workers

    def _reap_worker(self, handle: _WorkerHandle) -> None:
        """Put one worker down for good: terminate, escalate to kill, close
        the pipe. Used on respawn and by teardown."""
        process = handle.process
        if process.is_alive():
            process.terminate()
            process.join(timeout=self._shutdown_join_s)
        if process.is_alive():  # SIGTERM ignored or wedged: cannot be refused
            process.kill()
            process.join(timeout=self._shutdown_join_s)
        try:
            handle.connection.close()
        except OSError:  # pragma: no cover - already torn down
            pass

    def _respawn(self, slot: int) -> _WorkerHandle:
        """Replace the worker in ``slot`` with a fresh incarnation
        (dispatch lock held). The replacement rebuilds its engine from the
        same wire documents; its snapshot cache starts cold, so re-driven
        cloak chunks must carry the snapshot blob."""
        handle = self._workers[slot]
        self._reap_worker(handle)
        replacement = self._spawn_worker(handle.index, handle.incarnation + 1)
        self._workers[slot] = replacement
        self.worker_restarts += 1
        return replacement

    def _snapshot_wire(self, snapshot: PopulationSnapshot) -> Tuple[int, str]:
        """The (token, counts blob) of ``snapshot``, serialized once per
        distinct snapshot object (snapshots are immutable)."""
        if snapshot is not self._snapshot_seen:
            self._snapshot_token += 1
            self._snapshot_seen = snapshot
            self._snapshot_blob = json.dumps(
                snapshot_to_dict(snapshot, counts_only=True)
            )
            self._cold_token = True
        return self._snapshot_token, self._snapshot_blob

    def cloak_batch_raw(
        self, snapshot: PopulationSnapshot, documents: Sequence[dict]
    ) -> List[dict]:
        """Fan cloak documents out to the worker shards, unparsed: each
        shard parses every document it serves, and a malformed one answers
        in place from there."""
        if not documents:
            return []
        self.spec  # raise the unbound error before spawning anything
        with self._dispatch_lock:
            return self._dispatch(snapshot, list(documents))

    def deanonymize_batch_raw(self, documents: Sequence[dict]) -> List[dict]:
        """Fan reversal documents out to the worker shards, unparsed.

        Each shard peels its contiguous chunk with its own engines, so on
        multi-core hardware reversal scales with workers. Key material
        rides inside the documents exactly as on the single-request wire
        path; no snapshot is shipped.
        """
        if not documents:
            return []
        self.spec  # raise the unbound error before spawning anything
        with self._dispatch_lock:
            return self._drive("peel", self._chunk(list(documents)))

    def _dispatch(
        self, snapshot: PopulationSnapshot, chunk_docs: List[dict]
    ) -> List[dict]:
        """Fan the batch out to the worker shards; replies in batch order.

        Dispatch lock held. A worker answering :data:`_NEED_SNAPSHOT` gets
        its chunk once more with the snapshot document attached. Failures a
        worker *reports* (``("raise", exc)``) keep the pipes aligned — the
        other replies are drained before re-raising; a *transport* failure
        (dead worker, broken pipe, missed dispatch wait) is recovered by
        supervision (see :meth:`_collect_chunk`): the slot is respawned and
        only the lost chunk re-driven, so the surviving workers' replies
        are never discarded.
        """
        token, blob = self._snapshot_wire(snapshot)
        ship_blob = blob if self._cold_token else None
        replies = self._drive(
            "cloak",
            self._chunk(chunk_docs),
            snapshot=snapshot,
            token=token,
            blob=blob,
            ship_blob=ship_blob,
        )
        self._cold_token = False
        return replies

    def _message(
        self, op: str, chunk: List[dict], token: Optional[int], blob: Optional[str]
    ) -> tuple:
        if op == "cloak":
            return ("cloak", token, blob, tuple(chunk))
        return ("peel", tuple(chunk))

    def _chunk_timeout(self, chunk: List[dict]) -> Optional[float]:
        """How long a dispatch wait on ``chunk`` may block.

        ``dispatch_timeout_s`` when configured; additionally, when *every*
        item carries a usable deadline (:func:`_usable_deadline`), the
        worker must have answered by the largest one (plus cooperative
        grace) — this is the parent-side deadline enforcement on dispatch
        waits. Documents travel unparsed: any other ``deadline_ms`` bounds
        nothing here, and the worker's parse decides whether it is valid.
        ``None`` blocks forever.
        """
        timeout = self._dispatch_timeout_s
        deadlines = [_usable_deadline(doc) for doc in chunk]
        if deadlines and None not in deadlines:
            bound = max(deadlines) / 1000.0 + _DEADLINE_WAIT_GRACE_S
            timeout = bound if timeout is None else min(timeout, bound)
        return timeout

    def _recv_reply(self, handle: _WorkerHandle, timeout: Optional[float]):
        if timeout is not None and not handle.connection.poll(timeout):
            raise _WedgedWorkerError(
                f"worker {handle.index} (incarnation {handle.incarnation}) "
                f"sent no reply within {timeout:g}s"
            )
        return handle.connection.recv()

    def _drive(
        self,
        op: str,
        chunks: List[List[dict]],
        snapshot: Optional[PopulationSnapshot] = None,
        token: Optional[int] = None,
        blob: Optional[str] = None,
        ship_blob: Optional[str] = None,
    ) -> List[dict]:
        """Send every chunk to its shard, then collect replies in order.

        Dispatch lock held. The fan-out phase keeps all shards busy in
        parallel; the collect phase runs per-slot supervision
        (:meth:`_collect_chunk`), so a crash on one shard never discards
        another shard's work. Worker-*reported* failures drain the
        remaining replies before re-raising, exactly as before.
        """
        self._ensure_workers()
        sent: List[bool] = []
        for slot, chunk in enumerate(chunks):
            try:
                self._workers[slot].connection.send(
                    self._message(op, chunk, token, ship_blob)
                )
                sent.append(True)
            except (OSError, ValueError):
                # Dead before the batch even reached it: leave the send to
                # the supervised collect pass, which will respawn the slot.
                sent.append(False)
        replies: List[dict] = []
        failure: Optional[BaseException] = None
        for slot, chunk in enumerate(chunks):
            kind, payload = self._collect_chunk(
                op, slot, chunk, token, blob, sent[slot], snapshot
            )
            if kind == "raise":
                failure = failure or payload
                continue
            replies.extend(payload)
        if failure is not None:
            raise failure
        return replies

    def _collect_chunk(
        self,
        op: str,
        slot: int,
        chunk: List[dict],
        token: Optional[int],
        blob: Optional[str],
        sent: bool,
        snapshot: Optional[PopulationSnapshot],
    ):
        """Collect one shard's reply, recovering the chunk through worker
        death: respawn with exponential backoff and re-drive (re-driven
        cloak chunks always carry the snapshot blob — a fresh incarnation's
        snapshot cache is cold), degrade after ``max_chunk_retries``.
        Returns ``("ok", outcome_docs)`` or ``("raise", exc)``.
        """
        timeout = self._chunk_timeout(chunk)
        attempt = 0
        while True:
            handle = self._workers[slot]
            try:
                if not sent:
                    handle.connection.send(self._message(op, chunk, token, blob))
                    sent = True
                kind, payload = self._recv_reply(handle, timeout)
                if kind == "ok" and payload == _NEED_SNAPSHOT:
                    handle.connection.send(("cloak", token, blob, tuple(chunk)))
                    kind, payload = self._recv_reply(handle, timeout)
                return kind, payload
            except _TRANSPORT_ERRORS:
                attempt += 1
                # Replace the dead/wedged incarnation either way, so the
                # pool is whole for the remaining slots and later batches.
                self._respawn(slot)
                if attempt > self._max_chunk_retries:
                    return "ok", self._degraded_chunk(op, chunk, snapshot)
                time.sleep(self._retry_backoff_s * (2 ** (attempt - 1)))
                sent = False

    def _degraded_chunk(
        self,
        op: str,
        chunk: List[dict],
        snapshot: Optional[PopulationSnapshot],
    ) -> List[dict]:
        """The outcome documents of a chunk whose retry budget ran out:
        inline execution on the parent (graceful degradation — byte-
        identical, the batch is never lost), or per-item ``worker_crashed``
        outcomes when ``inline_fallback`` is off."""
        if not self._inline_fallback:
            error = WorkerCrashedError(
                f"worker chunk lost {self._max_chunk_retries + 1} times; "
                "retries exhausted and inline fallback is disabled"
            )
            doc = OutcomeDoc.from_exception(error).to_dict()
            return [dict(doc) for _ in chunk]
        self.inline_fallbacks += 1
        if op == "cloak":
            return _serve_chunk_docs(
                self._fallback_cloak_engine(),
                snapshot,
                self.spec.include_hints,
                chunk,
            )
        return _peel_chunk_docs(
            self._fallback_reversal_engines(), chunk, DrawsCache()
        )

    def _fallback_cloak_engine(self) -> ReverseCloakEngine:
        if self._fallback_engine is None:
            self._fallback_engine = self.spec.build_engine()
        return self._fallback_engine

    def _fallback_reversal_engines(self) -> ReversalEngineCache:
        if self._fallback_reversal is None:
            self._fallback_reversal = ReversalEngineCache(
                self.spec.network, default=self._fallback_cloak_engine()
            )
        return self._fallback_reversal

    def _chunk(self, docs: List[dict]) -> List[List[dict]]:
        """Split the batch into one contiguous chunk per worker."""
        workers = min(self._max_workers, len(docs))
        base, extra = divmod(len(docs), workers)
        chunks: List[List[dict]] = []
        start = 0
        for index in range(workers):
            size = base + (1 if index < extra else 0)
            chunks.append(docs[start : start + size])
            start += size
        return chunks

    def _teardown_workers(self) -> None:
        """Shut every worker down and reset snapshot-shipping state
        (dispatch lock held). The next batch spawns a fresh pool.

        Escalation ladder per worker: cooperative shutdown sentinel →
        ``join(shutdown_join_s)`` → ``terminate()`` (SIGTERM) → join →
        ``kill()`` (SIGKILL, cannot be ignored) → join. ``close()``
        therefore never leaks a live child, even against a worker that
        ignores the sentinel and SIGTERM.
        """
        for handle in self._workers:
            try:
                handle.connection.send(None)
            except (OSError, ValueError):
                pass
        for handle in self._workers:
            process = handle.process
            process.join(timeout=self._shutdown_join_s)
            if process.is_alive():
                process.terminate()
                process.join(timeout=self._shutdown_join_s)
            if process.is_alive():
                process.kill()
                process.join(timeout=self._shutdown_join_s)
            try:
                handle.connection.close()
            except OSError:  # pragma: no cover - already torn down
                pass
        self._workers.clear()
        self._snapshot_seen = None
        self._snapshot_blob = None
        self._cold_token = True

    def close(self) -> None:
        with self._dispatch_lock:
            self._teardown_workers()
