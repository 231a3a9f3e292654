"""Span tracing for the benchmark's traced run.

Spans are recorded by :class:`repro.obs.profiler.Profiler` at every
layer boundary the benchmark wraps: name, start, duration, parent span,
and a ``request`` label with the ids of the serve requests the work
belongs to.  Boundaries that fire ~10^5 times per run (DMA transfers,
metadata allocations, cache lookups) are aggregated into per-name
counts, quantities and total seconds instead of one span per call.  A
span's self time is its duration minus the part its child spans and
aggregated children cover; because the simulator runs on one thread,
children never overlap, so the self times of all spans plus the
aggregated totals sum exactly to the root span.

:class:`Instrumentation` installs the wrappers where the callers look
them up -- class methods on the class, and a module-level function at
every name it was imported under (for example ``backtrace`` in
``repro.pim.kernel``) -- and restores the originals on exit.  Nothing
under ``src/`` is modified.
"""

from __future__ import annotations

import json
import sys
from collections import Counter, defaultdict, deque
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from typing import Iterator

from repro.obs.profiler import Profiler, SpanRecord

__all__ = ["Tracer", "Instrumentation"]


class Tracer:
    """Profiler spans plus aggregated counters for hot boundaries."""

    def __init__(self) -> None:
        self.profiler = Profiler()
        self.counts: Counter = Counter()
        self.quantities: Counter = Counter()
        self.totals: defaultdict = defaultdict(float)
        #: ids of the serve requests the current work belongs to
        self.request: tuple = ()
        #: aggregated seconds under each open span (innermost last) and,
        #: once closed, by span id
        self._open_leaf_s: list[float] = []
        self._leaf_s: dict[int, float] = {}

    @property
    def spans(self) -> list[SpanRecord]:
        return self.profiler.records

    @contextmanager
    def span(self, name: str, **labels: object) -> Iterator[SpanRecord]:
        if self.request:
            labels["request"] = ",".join(self.request)
        with self.profiler.span(name, **labels) as rec:
            self._open_leaf_s.append(0.0)
            try:
                yield rec
            finally:
                self._leaf_s[rec.span_id] = self._open_leaf_s.pop()

    def leaf(self, name: str, seconds: float, quantity: int = 0) -> None:
        """Aggregate one call of a hot boundary into ``name``'s totals."""
        self.counts[name] += 1
        self.quantities[name] += quantity
        self.totals[name] += seconds
        if self._open_leaf_s:
            self._open_leaf_s[-1] += seconds

    def named(self, name: str) -> list[SpanRecord]:
        return self.profiler.spans(name)

    def self_times(self) -> dict[int, float]:
        """Self seconds of every closed span, by span id."""
        covered = defaultdict(float, self._leaf_s)
        for rec in self.spans:
            if rec.parent_id is not None:
                covered[rec.parent_id] += rec.wall_seconds
        return {r.span_id: r.wall_seconds - covered[r.span_id] for r in self.spans}

    def self_seconds(self, *names: str) -> float:
        own = self.self_times()
        return sum(own[r.span_id] for r in self.spans if r.name in names)

    def write(self, path: Path) -> None:
        """Write every span (JSON lines) and the aggregated counters."""
        path.parent.mkdir(parents=True, exist_ok=True)
        own = self.self_times()
        with open(path, "w", encoding="utf-8") as handle:
            for rec in self.spans:
                row = {**rec.to_dict(), "self_seconds": own[rec.span_id]}
                handle.write(json.dumps(row) + "\n")
            for name in sorted(self.counts):
                handle.write(
                    json.dumps(
                        {
                            "aggregate": name,
                            "count": self.counts[name],
                            "quantity": self.quantities[name],
                            "total_s": self.totals[name],
                        }
                    )
                    + "\n"
                )


# -- wrappers ------------------------------------------------------------------


def _spanned(tracer: Tracer, name: str, orig, labels=None):
    """Wrap a callable in a span; ``labels(result)`` annotates it."""

    def wrapper(*args, **kwargs):
        with tracer.span(name) as rec:
            result = orig(*args, **kwargs)
            if labels is not None:
                rec.labels.update({k: str(v) for k, v in labels(result).items()})
            return result

    return wrapper


class Instrumentation:
    """Installs the tracer's wrappers into ``repro``; restores on exit.

    Spans: ``pim.system`` (PimSystem.align), ``pim.parallel.job``
    (run_dpu_job, per attempt), ``pim.kernel`` (WfaDpuKernel.run),
    ``core.wfa_batch`` (+ ``.init``), ``core.wfa``, ``core.backtrace``,
    ``pim.transfer.push`` / ``pim.transfer.pull``, ``pim.scheduler``
    (BatchScheduler.run), ``pim.fleet`` (FleetCoordinator.run),
    ``serve.service`` (AlignmentService.submit) and ``serve.dispatcher``
    (BatchDispatcher.dispatch).  Aggregated: ``pim.dma`` (quantity =
    bytes), ``pim.allocator`` (count only), ``pim.transport.deliver``
    (quantity = wire attempts), ``serve.batcher`` and ``serve.cache``
    (quantity = hits).  Formed serve batches are also kept as
    ``(pairs, modeled wait seconds)`` in :attr:`batches`.
    """

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.batches: list[tuple[int, float]] = []
        self._formed: deque = deque()
        self._seq_request: dict[int, str] = {}
        self._saved: list[tuple[object, str, object]] = []

    def _patch(self, owner, attr: str, replacement) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def _rebind(self, orig, replacement) -> None:
        """Replace every binding of function ``orig`` in the loaded
        ``repro`` modules (``from x import f`` copies the name)."""
        for name, module in list(sys.modules.items()):
            if name == "repro" or name.startswith("repro."):
                for attr, value in list(vars(module).items()):
                    if value is orig:
                        self._patch(module, attr, replacement)

    def __enter__(self) -> "Instrumentation":
        from repro.core.backtrace import backtrace
        from repro.core.wfa import WfaEngine
        from repro.core.wfa_batch import BatchWfaEngine
        from repro.pim.allocator import TaskletAllocator
        from repro.pim.dma import DmaEngine
        from repro.pim.fleet import FleetCoordinator
        from repro.pim.kernel import WfaDpuKernel
        from repro.pim.parallel import run_dpu_job
        from repro.pim.scheduler import BatchScheduler
        from repro.pim.system import PimSystem
        from repro.pim.transfer import HostTransferEngine
        from repro.pim.transport import ShardTransport
        from repro.serve.batcher import MicroBatcher
        from repro.serve.cache import ResultCache
        from repro.serve.dispatcher import BatchDispatcher
        from repro.serve.service import AlignmentService

        t = self.tracer
        patch = self._patch
        patch(PimSystem, "align", _spanned(t, "pim.system", PimSystem.align))
        self._rebind(run_dpu_job, self._job_wrapper(run_dpu_job))
        patch(WfaDpuKernel, "run", _spanned(t, "pim.kernel", WfaDpuKernel.run))
        patch(
            BatchWfaEngine,
            "__init__",
            _spanned(t, "core.wfa_batch.init", BatchWfaEngine.__init__),
        )
        patch(
            BatchWfaEngine,
            "run",
            _spanned(
                t, "core.wfa_batch", BatchWfaEngine.run, lambda views: {"pairs": len(views)}
            ),
        )
        patch(WfaEngine, "run", _spanned(t, "core.wfa", WfaEngine.run))
        self._rebind(backtrace, _spanned(t, "core.backtrace", backtrace))
        patch(DmaEngine, "read", self._dma_wrapper(DmaEngine.read))
        patch(DmaEngine, "write", self._dma_wrapper(DmaEngine.write))
        patch(
            TaskletAllocator,
            "alloc_metadata",
            self._count_wrapper("pim.allocator", TaskletAllocator.alloc_metadata),
        )
        patch(
            HostTransferEngine,
            "push_batch",
            _spanned(
                t,
                "pim.transfer.push",
                HostTransferEngine.push_batch,
                lambda moved: {"bytes": moved},
            ),
        )
        patch(
            HostTransferEngine,
            "pull_results_full",
            _spanned(
                t,
                "pim.transfer.pull",
                HostTransferEngine.pull_results_full,
                lambda out: {"bytes": out[1]},
            ),
        )
        patch(BatchScheduler, "run", _spanned(t, "pim.scheduler", BatchScheduler.run))
        patch(FleetCoordinator, "run", _spanned(t, "pim.fleet", FleetCoordinator.run))
        patch(ShardTransport, "deliver", self._deliver_wrapper(ShardTransport.deliver))
        patch(AlignmentService, "submit", self._submit_wrapper(AlignmentService.submit))
        patch(
            BatchDispatcher, "dispatch", self._dispatch_wrapper(BatchDispatcher.dispatch)
        )
        for method in ("add", "take_due", "drain"):
            patch(
                MicroBatcher,
                method,
                self._batcher_wrapper(MicroBatcher.__dict__[method], method == "add"),
            )
        patch(ResultCache, "get", self._cache_wrapper(ResultCache.get))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- per-boundary wrappers ------------------------------------------------

    def _job_wrapper(self, orig):
        tracer = self.tracer

        def run_dpu_job(job):
            with tracer.span("pim.parallel.job", attempt=job.attempt):
                return orig(job)

        return run_dpu_job

    def _dma_wrapper(self, orig):
        leaf = self.tracer.leaf

        def transfer(engine, a, b, size):
            t0 = perf_counter()
            try:
                return orig(engine, a, b, size)
            finally:
                leaf("pim.dma", perf_counter() - t0, size)

        return transfer

    def _count_wrapper(self, name: str, orig):
        counts = self.tracer.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return orig(*args, **kwargs)

        return counted

    def _deliver_wrapper(self, orig):
        leaf = self.tracer.leaf

        def deliver(transport, *args, **kwargs):
            t0 = perf_counter()
            delivery = orig(transport, *args, **kwargs)
            leaf("pim.transport.deliver", perf_counter() - t0, delivery.attempts)
            return delivery

        return deliver

    def _submit_wrapper(self, orig):
        tracer = self.tracer

        def submit(service, request):
            outer = tracer.request
            tracer.request = (request.request_id,)
            try:
                with tracer.span("serve.service"):
                    return orig(service, request)
            finally:
                tracer.request = outer

        return submit

    def _dispatch_wrapper(self, orig):
        tracer = self.tracer

        def dispatch(dispatcher, pairs, now):
            # batches are dispatched in the order the batcher formed them
            batch = self._formed.popleft() if self._formed else None
            outer = tracer.request
            if batch is not None:
                tracer.request = tuple(
                    sorted(
                        {
                            self._seq_request[item.request_seq]
                            for item in batch.items
                            if item.request_seq in self._seq_request
                        }
                    )
                )
            try:
                with tracer.span("serve.dispatcher"):
                    return orig(dispatcher, pairs, now)
            finally:
                tracer.request = outer

        return dispatch

    def _batcher_wrapper(self, orig, adds_items: bool):
        tracer = self.tracer

        def formed(batcher, *args):
            if adds_items:
                # remember which request each new pair belongs to
                items = list(args[0])
                args = (items,) + args[1:]
                if tracer.request:
                    for item in items:
                        self._seq_request[item.request_seq] = tracer.request[0]
            t0 = perf_counter()
            batches = orig(batcher, *args)
            tracer.leaf("serve.batcher", perf_counter() - t0, len(batches))
            for batch in batches:
                self.batches.append((batch.num_pairs, batch.wait_s))
                self._formed.append(batch)
            return batches

        return formed

    def _cache_wrapper(self, orig):
        leaf = self.tracer.leaf

        def get(cache, key):
            t0 = perf_counter()
            value = orig(cache, key)
            leaf("serve.cache", perf_counter() - t0, value is not None)
            return value

        return get
