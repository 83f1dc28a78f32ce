"""Layer spans for the traced benchmark pass, recorded from outside the program.

:func:`install` wraps the public functions at each layer boundary of the
serving stack (framing, front-end, service, backend, wire documents, engine,
keyed draws, envelope MACs) in the *server* process. Every wrapped call is a
span with a name, a start, an end and the span that encloses it on the same
thread; spans are aggregated in memory as they close — calls, total time and
self time (the span's duration minus the time its child spans cover) — and
read once when the server exits. Per-request span identities would need ids
threaded through the coalesced batches, which only the program itself can do.

``ReversibleGlobalExpansion.forward_step`` is wrapped count-only: it runs tens
of times per request and timing it would cost more than it tells.

Wrappers are installed before any process-pool worker forks, so workers carry
them too, but what they record stays in the worker: on the process-pool
workload only parent-side layers report.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Dict, List, Optional


class Tracer:
    """Per-name span aggregates: ``[calls, total_ns, self_ns, items]``."""

    def __init__(self) -> None:
        self._local = threading.local()
        self.records: Dict[str, List[int]] = {}
        self.batch_sizes: List[int] = []

    def record(self, name: str) -> List[int]:
        return self.records.setdefault(name, [0, 0, 0, 0])

    def reset(self) -> None:
        """Zero every aggregate in place (wrappers hold the lists)."""
        for rec in self.records.values():
            rec[:] = [0, 0, 0, 0]
        self.batch_sizes.clear()

    def snapshot(self) -> dict:
        return {
            "records": {name: list(rec) for name, rec in self.records.items()},
            "batch_sizes": list(self.batch_sizes),
        }

    def timed(
        self,
        fn: Callable,
        name: str,
        items: Optional[Callable] = None,
    ) -> Callable:
        """``fn`` wrapped as a span; ``items(args, result)`` adds to the
        record's item count (frames decoded, batch documents)."""
        rec = self.record(name)
        local = self._local
        clock = time.perf_counter_ns

        def span(*args, **kwargs):
            # ``stack`` holds, per open span of this thread, the time its
            # closed children covered.
            try:
                stack = local.stack
            except AttributeError:
                stack = local.stack = []
            stack.append(0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = stack.pop()
                if stack:
                    stack[-1] += elapsed
                rec[0] += 1
                rec[1] += elapsed
                rec[2] += elapsed - children
            if items is not None:
                rec[3] += items(args, result)
            return result

        return span

    def counted(self, fn: Callable, name: str) -> Callable:
        rec = self.record(name)

        def count(*args, **kwargs):
            rec[0] += 1
            return fn(*args, **kwargs)

        return count


def _batch_items(tracer: Tracer) -> Callable:
    def items(args, _result) -> int:
        size = len(args[1])
        tracer.batch_sizes.append(size)
        return size

    return items


def install(tracer: Tracer) -> None:
    """Wrap every traced layer boundary (call before the server starts)."""
    from repro.core import engine as engine_module
    from repro.core.algorithm import LevelDraws
    from repro.core.rge import ReversibleGlobalExpansion
    from repro.lbs import backends, frontend
    from repro.lbs.framing import FrameDecoder
    from repro.lbs.service import AnonymizerService
    from repro.lbs.wire import CloakRequestDoc, DeanonymizeRequestDoc, OutcomeDoc

    def wrap_method(cls, attr: str, name: str, items=None) -> None:
        setattr(cls, attr, tracer.timed(cls.__dict__[attr], name, items))

    def wrap_classmethod(cls, attr: str, name: str) -> None:
        setattr(
            cls,
            attr,
            classmethod(tracer.timed(cls.__dict__[attr].__func__, name)),
        )

    wrap_method(
        FrameDecoder,
        "feed",
        "lbs.framing.FrameDecoder.feed",
        lambda _args, frames: len(frames),
    )
    setattr(
        frontend,
        "encode_frame",
        tracer.timed(frontend.encode_frame, "lbs.framing.encode_frame"),
    )
    wrap_method(
        AnonymizerService,
        "handle_batch",
        "lbs.service.AnonymizerService.handle_batch",
        _batch_items(tracer),
    )
    for cls in (
        backends.ExecutionBackend,
        backends.InlineBackend,
        backends.ThreadPoolBackend,
        backends.ProcessPoolBackend,
    ):
        for attr in ("cloak_batch_raw", "deanonymize_batch_raw"):
            if attr in cls.__dict__:
                wrap_method(cls, attr, f"lbs.backends.{attr}")
    wrap_classmethod(CloakRequestDoc, "from_dict", "lbs.wire.CloakRequestDoc.from_dict")
    wrap_classmethod(
        DeanonymizeRequestDoc, "from_dict", "lbs.wire.DeanonymizeRequestDoc.from_dict"
    )
    wrap_classmethod(OutcomeDoc, "from_envelope", "lbs.wire.OutcomeDoc.from_envelope")
    wrap_classmethod(OutcomeDoc, "from_result", "lbs.wire.OutcomeDoc.from_result")
    wrap_method(OutcomeDoc, "to_dict", "lbs.wire.OutcomeDoc.to_dict")

    engine_cls = engine_module.ReverseCloakEngine
    wrap_method(engine_cls, "anonymize", "core.engine.anonymize")
    original = engine_cls.__dict__["deanonymize"]
    peel = {
        mode: tracer.timed(original, f"core.engine.peel.{mode}")
        for mode in ("hint", "search", "auto")
    }

    def deanonymize(self, *args, **kwargs):
        # Serving passes ``mode`` by keyword; one span name per mode.
        return peel.get(kwargs.get("mode", "auto"), original)(self, *args, **kwargs)

    setattr(engine_cls, "deanonymize", deanonymize)
    setattr(
        ReversibleGlobalExpansion,
        "forward_step",
        tracer.counted(
            ReversibleGlobalExpansion.__dict__["forward_step"],
            "core.rge.forward_step",
        ),
    )
    wrap_method(LevelDraws, "draw", "keys.prf.LevelDraws.draw")
    for attr in ("level_mac", "seal_anchor", "witness_bytes"):
        setattr(
            engine_module,
            attr,
            tracer.timed(getattr(engine_module, attr), f"core.envelope.{attr}"),
        )
