"""Host-parallel execution of independent per-DPU simulations.

The simulator's cost center is the per-DPU functional kernel: every
simulated DPU runs push -> kernel -> pull over its private batch, and no
DPU ever touches another DPU's state.  That makes the per-DPU loop in
:class:`~repro.pim.system.PimSystem` embarrassingly parallel on the
*host* — exactly the fan-out the real UPMEM runtime performs across
ranks, and the structure the authors' follow-up framework paper builds
its host orchestration around.

This module packages one simulated DPU's work as a picklable
:class:`DpuJob`, executes jobs either in-process or over a
``concurrent.futures.ProcessPoolExecutor``, and returns picklable
:class:`DpuJobResult` records.  Determinism guarantee: a job's outcome
depends only on the job description (never on which worker ran it or
in what order), and callers merge records sorted by ``dpu_id`` — so a
parallel run is result-identical to a sequential run, including the
modeled timings and the :class:`~repro.pim.transfer.TransferStats`
accounting.

:func:`fan_out` is the one process fan-out of the package: per-DPU
jobs here, fleet shards (:mod:`repro.pim.fleet`) and campaign cells
(:mod:`repro.qa.campaign`) all go through it.  It runs inline when

* ``workers <= 1``, or there is at most one item; or
* the process pool cannot be started or dies underneath us
  (``OSError`` on fork/spawn, ``BrokenProcessPool``) — e.g. in
  sandboxes that forbid subprocesses; every item then reruns inline.

Genuine simulation errors (:class:`~repro.errors.ReproError` subclasses
raised inside a worker) propagate to the caller unchanged, as they
would sequentially.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable, Iterable, Iterator, Optional, TypeVar

from repro.core.cigar import Cigar
from repro.data.generator import ReadPair, ReadPairGenerator
from repro.errors import (
    ConfigError,
    CorruptResultError,
    FaultError,
    KernelError,
    LayoutError,
    TaskletStallError,
)
from repro.obs.metrics import MetricsRegistry
from repro.pim.faults import (
    FaultPlan,
    JobRecoveryRecord,
    RecoveryReport,
    RetryPolicy,
)
from repro.pim.config import DpuConfig, HostTransferConfig
from repro.pim.dpu import Dpu, DpuKernelStats
from repro.pim.kernel import KernelConfig, WfaDpuKernel
from repro.pim.layout import MramLayout
from repro.pim.trace import KernelTrace
from repro.pim.transfer import HostTransferEngine, TransferStats

__all__ = [
    "GeneratorSpec",
    "DpuJob",
    "DpuJobResult",
    "ResilientOutcome",
    "run_dpu_job",
    "run_dpu_job_resilient",
    "execute_jobs",
    "execute_jobs_resilient",
    "fan_out",
    "resolve_workers",
]

T = TypeVar("T")
R = TypeVar("R")


@dataclass(frozen=True)
class GeneratorSpec:
    """Recipe for a worker to synthesize its own batch (``model_run``).

    Shipping the seed instead of the pairs keeps the job payload tiny
    and reproduces the exact per-DPU sample stream the sequential path
    draws: the seed is derived from the DPU id alone, never from the
    execution schedule.
    """

    length: int
    error_rate: float
    seed: int
    error_model: str
    count: int

    def pairs(self) -> list[ReadPair]:
        gen = ReadPairGenerator(
            length=self.length,
            error_rate=self.error_rate,
            seed=self.seed,
            error_model=self.error_model,
        )
        return gen.pairs(self.count)


@dataclass(frozen=True)
class DpuJob:
    """A self-contained description of one simulated DPU's work.

    Everything a worker process needs — configs, layout, and either a
    concrete batch or a generator recipe — travels in the job; the
    worker builds its own :class:`Dpu`, kernel, and transfer engine.
    """

    dpu_id: int
    layout: MramLayout
    dpu_config: DpuConfig
    transfer_config: HostTransferConfig
    kernel_config: KernelConfig
    metadata_policy: str
    tasklets: int
    #: concrete batch (``align`` path); mutually exclusive with ``generator``
    pairs: Optional[tuple[ReadPair, ...]] = None
    #: batch recipe (``model_run`` path)
    generator: Optional[GeneratorSpec] = None
    #: gather result records (full pull: score, CIGAR, region starts)
    pull: bool = True
    #: record per-pair kernel phase events and ship the trace home
    collect_trace: bool = False
    #: count per-DPU metrics into a worker registry and ship its snapshot
    collect_metrics: bool = False
    #: declarative fault plan this job executes under (None = fault-free)
    fault_plan: Optional[FaultPlan] = None
    #: recovery attempt counter (0 = first try); selects which
    #: attempt-scoped faults of the plan fire
    attempt: int = 0
    #: physical DPU the job is placed on; fault plans key on this, while
    #: ``dpu_id`` stays the *logical* identity (index mapping, traces).
    #: ``None`` means the logical and physical ids coincide.
    physical_dpu_id: Optional[int] = None
    #: spare healthy placements recovery may requeue this job onto
    requeue_placements: tuple[int, ...] = ()
    #: verify gathered records against the input batch (CIGAR validity +
    #: score reconstruction); any mismatch raises
    #: :class:`~repro.errors.CorruptResultError` instead of returning a
    #: silently wrong alignment.  Enabled automatically under fault plans.
    verify: bool = False

    @property
    def placement(self) -> int:
        """The physical DPU this job runs on."""
        return self.dpu_id if self.physical_dpu_id is None else self.physical_dpu_id

    @property
    def num_pairs(self) -> int:
        """Batch size, without drawing a generator job's sample."""
        if self.pairs is not None:
            return len(self.pairs)
        if self.generator is not None:
            return self.generator.count
        raise ConfigError("DpuJob needs either pairs or a generator spec")

    def batch(self) -> list[ReadPair]:
        if self.pairs is not None:
            return list(self.pairs)
        if self.generator is not None:
            return self.generator.pairs()
        raise ConfigError("DpuJob needs either pairs or a generator spec")


@dataclass
class DpuJobResult:
    """What one DPU simulation sends back to the host.

    ``results`` holds *local* record indices; the host converts them to
    global pair indices during the deterministic merge (see
    :attr:`~repro.pim.system.PimRunResult.results` for the contract).
    """

    dpu_id: int
    num_pairs: int
    stats: DpuKernelStats
    #: (local index, score, cigar, pattern_start, text_start)
    results: list[tuple[int, int, Optional[Cigar], int, int]] = field(
        default_factory=list
    )
    transfer_stats: TransferStats = field(default_factory=TransferStats)
    #: per-pair kernel phase events (``collect_trace`` jobs only);
    #: events carry this DPU's ``dpu_id``, so host-side merges keep
    #: attribution.
    trace: Optional[KernelTrace] = None
    #: picklable :meth:`~repro.obs.metrics.MetricsRegistry.snapshot`
    #: (``collect_metrics`` jobs only); merges deterministically on the
    #: host regardless of completion order.
    metrics: Optional[dict] = None


def run_dpu_job(job: DpuJob) -> DpuJobResult:
    """Run one DPU's push -> kernel -> pull cycle; picklable in and out.

    With ``collect_metrics`` the worker counts its own activity into a
    private :class:`~repro.obs.metrics.MetricsRegistry` (transfer bytes
    via the engine's hooks, kernel work from the summarized stats) and
    ships the snapshot home; with ``collect_trace`` the kernel's phase
    events ride along.  Both are pure functions of the job description,
    preserving the parallel ≡ sequential guarantee.
    """
    batch = job.batch()
    registry = MetricsRegistry() if job.collect_metrics else None
    transfer = HostTransferEngine(job.transfer_config, registry=registry)
    kernel = WfaDpuKernel(job.kernel_config)
    dpu = Dpu(job.dpu_config, dpu_id=job.dpu_id)
    trace = KernelTrace() if job.collect_trace else None
    injector = None
    if job.fault_plan is not None and job.fault_plan.targets(job.placement):
        injector = job.fault_plan.injector(job.placement, job.attempt)
        injector.check_launch()
        injector.attach_dma(dpu)
        transfer.injector = injector
    transfer.push_batch(dpu, job.layout, batch)
    assignments = [
        list(range(t, len(batch), job.tasklets)) for t in range(job.tasklets)
    ]
    try:
        tasklet_stats, _ = kernel.run(
            dpu, job.layout, assignments, job.metadata_policy, trace=trace
        )
    except (KernelError, LayoutError) as exc:
        if injector is None:
            raise
        # Under an active fault plan targeting this placement, a kernel
        # that chokes on its MRAM inputs means injected corruption landed
        # in the input region: surface it typed (hence retryable), never
        # as a plausible-but-wrong alignment.
        raise CorruptResultError(
            f"kernel rejected its MRAM inputs: {exc}", dpu_id=job.placement
        ) from exc
    results: list[tuple[int, int, Optional[Cigar], int, int]] = []
    if job.pull or job.verify:
        pulled, _ = transfer.pull_results_full(dpu, job.layout, len(batch))
        if job.verify:
            _verify_pulled(job, batch, pulled)
        for local, (score, cigar, p_start, t_start) in enumerate(pulled):
            results.append((local, score, cigar, p_start, t_start))
        if not job.pull:
            results = []
    stats = dpu.summarize(tasklet_stats)
    if registry is not None:
        dpu_label = str(job.dpu_id)
        registry.counter(
            "pim_dpu_pairs_total", "pairs aligned per simulated DPU"
        ).inc(stats.pairs_done, dpu=dpu_label)
        registry.counter(
            "pim_dpu_instructions_total", "kernel instructions per simulated DPU"
        ).inc(stats.instructions, dpu=dpu_label)
        registry.counter(
            "pim_dpu_dma_bytes_total", "kernel MRAM<->WRAM DMA bytes per DPU"
        ).inc(stats.dma_bytes, dpu=dpu_label)
        registry.gauge(
            "pim_dpu_kernel_cycles", "modeled kernel cycles per simulated DPU"
        ).set(stats.cycles, dpu=dpu_label)
    return DpuJobResult(
        dpu_id=job.dpu_id,
        num_pairs=len(batch),
        stats=stats,
        results=results,
        transfer_stats=transfer.stats,
        trace=trace,
        metrics=registry.snapshot() if registry is not None else None,
    )


def _verify_pulled(
    job: DpuJob,
    batch: list[ReadPair],
    pulled: list[tuple[int, Optional[Cigar], int, int]],
) -> None:
    """End-to-end integrity check of gathered records against the batch.

    Catches what parsing alone cannot: corruption (of inputs *or*
    outputs) that yields a structurally valid record whose CIGAR no
    longer reproduces the original pair, or whose score no longer
    matches its CIGAR.  The guarantee fault-injection tests pin: a fault
    is surfaced as a typed error, never as a silently wrong alignment.
    """
    penalties = job.kernel_config.penalties
    for local, (score, cigar, p_start, t_start) in enumerate(pulled):
        if cigar is None:
            continue
        pair = batch[local]
        try:
            cigar.validate(
                pair.pattern[p_start : p_start + cigar.pattern_length()],
                pair.text[t_start : t_start + cigar.text_length()],
            )
        except Exception as exc:
            raise CorruptResultError(
                f"record {local}: CIGAR does not reproduce its pair: {exc}",
                dpu_id=job.placement,
            ) from exc
        rescored = cigar.score(penalties)
        if rescored != score:
            raise CorruptResultError(
                f"record {local}: score {score} != CIGAR rescoring {rescored}",
                dpu_id=job.placement,
            )


def run_dpu_job_resilient(
    job: DpuJob, policy: RetryPolicy
) -> "ResilientOutcome":
    """Run one job under a recovery policy; picklable in and out.

    Attempts the job up to ``policy.max_attempts`` times on its primary
    placement, then on each of up to ``policy.max_requeues`` spare
    placements (``job.requeue_placements``).  The attempt counter is
    monotone across placements, so attempt-scoped faults fire exactly
    once per *job*, not once per placement.  Only
    :class:`~repro.errors.FaultError` subclasses are retried —
    programming errors propagate unchanged.

    Modeled-time accounting: backoff is charged only when another
    attempt actually follows the failure — the terminal failure before
    abandonment waits for nothing, so charging it would double-count
    recovery cost across scheduler rounds.  A
    :class:`~repro.errors.TaskletStallError` additionally charges
    ``policy.launch_watchdog_s`` per trip: a stall is *detected* by the
    watchdog deadline expiring, so its detection latency is paid on
    every stall, including a terminal one.
    """
    record = JobRecoveryRecord(dpu_id=job.dpu_id, num_pairs=job.num_pairs)
    placements = [job.placement]
    placements += [
        p for p in job.requeue_placements[: policy.max_requeues]
        if p != job.placement
    ]
    total_budget = len(placements) * policy.max_attempts
    attempt = 0
    errors: list[str] = []
    attempts_log: list[tuple[int, str]] = []
    backoff = 0.0
    watchdog = 0.0
    retry_index = 0
    tried: list[int] = []
    for placement in placements:
        tried.append(placement)
        for _ in range(policy.max_attempts):
            try:
                result = run_dpu_job(
                    replace(job, physical_dpu_id=placement, attempt=attempt)
                )
            except FaultError as exc:
                errors.append(type(exc).__name__)
                attempts_log.append((placement, type(exc).__name__))
                if isinstance(exc, TaskletStallError):
                    watchdog += policy.launch_watchdog_s
                attempt += 1
                if attempt < total_budget:
                    backoff += policy.backoff_seconds(retry_index)
                retry_index += 1
                continue
            record.attempts = attempt + 1
            record.placements = tuple(tried)
            record.final_placement = placement
            record.errors = tuple(errors)
            record.attempts_log = tuple(attempts_log)
            record.backoff_seconds = backoff
            record.watchdog_seconds = watchdog
            return ResilientOutcome(result=result, record=record)
    record.attempts = attempt
    record.placements = tuple(tried)
    record.errors = tuple(errors)
    record.attempts_log = tuple(attempts_log)
    record.backoff_seconds = backoff
    record.watchdog_seconds = watchdog
    record.abandoned = True
    return ResilientOutcome(result=None, record=record)


@dataclass
class ResilientOutcome:
    """Result of one job's recovery loop (``result`` is ``None`` when
    the job was abandoned after exhausting the policy)."""

    record: JobRecoveryRecord
    result: Optional[DpuJobResult] = None


def resolve_workers(workers: int, num_jobs: int) -> int:
    """Effective worker count: ``0`` means all cores, capped at the jobs."""
    if workers < 0:
        raise ConfigError(f"workers must be >= 0, got {workers}")
    if workers == 0:
        workers = os.cpu_count() or 1
    return max(1, min(workers, num_jobs))


def fan_out(fn: Callable[[T], R], items: Iterable[T], workers: int) -> Iterator[R]:
    """Yield ``fn(item)`` for every item, in item order.

    With ``workers <= 1`` or at most one item the calls run inline and
    lazily — each result is yielded before the next call starts.
    Otherwise they run over ``min(workers, len(items))`` processes
    (``fn`` and the items must pickle); if the pool cannot start or
    breaks, every item reruns inline, which is result-identical because
    ``fn`` is a pure function of its item.
    """
    items = list(items)
    if workers > 1 and len(items) > 1:
        try:
            with ProcessPoolExecutor(max_workers=min(workers, len(items))) as pool:
                results = list(pool.map(fn, items))
        except (OSError, BrokenProcessPool):
            pass
        else:
            yield from results
            return
    yield from map(fn, items)


def execute_jobs(jobs: Iterable[DpuJob], workers: int = 1) -> list[DpuJobResult]:
    """Execute DPU jobs, in-process or over a process pool.

    Returns records sorted by ``dpu_id`` regardless of completion order,
    so callers can merge without re-deriving the schedule.
    """
    jobs = list(jobs)
    records = list(fan_out(run_dpu_job, jobs, resolve_workers(workers, len(jobs))))
    records.sort(key=lambda r: r.dpu_id)
    return records


def execute_jobs_resilient(
    jobs: Iterable[DpuJob],
    workers: int = 1,
    policy: Optional[RetryPolicy] = None,
) -> tuple[list[DpuJobResult], RecoveryReport]:
    """Fault-tolerant :func:`execute_jobs`: recover per job, report.

    Each job carries its own :class:`~repro.pim.faults.FaultPlan` slice
    and spare placements; recovery runs *inside* the worker, so the
    parallel and sequential paths make identical recovery decisions.
    Returns successful records sorted by ``dpu_id`` plus a
    :class:`~repro.pim.faults.RecoveryReport` whose per-job records are
    in the same order (pair-index attribution is the caller's job — see
    :func:`repro.pim.faults.assign_pairs`).
    """
    jobs = list(jobs)
    if policy is None:
        policy = RetryPolicy()
    run = partial(run_dpu_job_resilient, policy=policy)
    outcomes = list(fan_out(run, jobs, resolve_workers(workers, len(jobs))))
    outcomes.sort(key=lambda o: o.record.dpu_id)
    report = RecoveryReport(records=[o.record for o in outcomes])
    records = [o.result for o in outcomes if o.result is not None]
    return records, report
