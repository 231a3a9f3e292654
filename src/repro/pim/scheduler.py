"""Host-side batch scheduler for workloads larger than one MRAM fill.

The paper's experiment fits 5M pairs into one distribution round (~430 KB
per DPU against 64 MB banks), but a production workload — or longer
reads — can exceed what the input+output regions of a bank can hold.
The scheduler splits such workloads into rounds sized to MRAM capacity
and runs distribute → launch → gather per round, modeling both the
serialized schedule the paper's host loop implies and an overlapped
(double-buffered) schedule where round ``i+1``'s transfer proceeds while
round ``i``'s kernel runs — the standard optimization the paper's
"Total vs Kernel" gap begs for.
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Optional, Union

from repro.data.generator import ReadPair
from repro.errors import ConfigError
from repro.pim.faults import FaultPlan, RecoveryReport, RetryPolicy
from repro.pim.layout import HEADER_BYTES
from repro.pim.system import PimRunResult, PimSystem

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.pim.health import FleetHealth
    from repro.pim.journal import RunJournal

__all__ = ["BatchSchedule", "ScheduledRun", "BatchScheduler"]


@dataclass(frozen=True)
class BatchSchedule:
    """How a workload splits into MRAM-sized rounds."""

    total_pairs: int
    pairs_per_round: int

    @property
    def rounds(self) -> int:
        return math.ceil(self.total_pairs / self.pairs_per_round)

    def round_sizes(self) -> list[int]:
        # An empty workload has zero rounds; the general expression below
        # would fabricate a phantom round of ``pairs_per_round`` pairs
        # (list of -1 copies is empty, then the append contributes
        # ``total - per * (0 - 1) = per``).
        if self.total_pairs == 0:
            return []
        sizes = [self.pairs_per_round] * (self.rounds - 1)
        sizes.append(self.total_pairs - self.pairs_per_round * (self.rounds - 1))
        return sizes


@dataclass
class ScheduledRun:
    """Aggregate timing of a multi-round run."""

    schedule: BatchSchedule
    per_round: list[PimRunResult] = field(default_factory=list)
    overlapped: bool = False
    #: aggregate graceful-degradation report across rounds, with pair
    #: indices rebased to the full workload (``None`` without faults).
    recovery: Optional[RecoveryReport] = None
    #: rounds replayed from a journal instead of executed (resume path)
    rounds_replayed: int = 0

    @property
    def kernel_seconds(self) -> float:
        return sum(r.kernel_seconds for r in self.per_round)

    @property
    def transfer_seconds(self) -> float:
        return sum(r.transfer_seconds for r in self.per_round)

    @property
    def recovery_seconds(self) -> float:
        """Modeled host recovery overhead across rounds (backoff waits +
        watchdog detection latency).  Serial host work either way — it
        cannot hide behind the overlapped pipeline."""
        return sum(r.recovery_overhead_seconds for r in self.per_round)

    @property
    def total_seconds(self) -> float:
        """Serialized: sum of round totals.  Overlapped: transfers of
        round i+1 hide behind the kernel of round i (classic double
        buffering), so each inner round costs max(kernel, transfer).
        Recovery overhead (retry backoff, watchdog expiry) is exposed
        host time in both schedules."""
        if not self.per_round:
            return 0.0
        if not self.overlapped:
            launches = sum(r.launch_seconds for r in self.per_round)
            return (
                self.kernel_seconds
                + self.transfer_seconds
                + launches
                + self.recovery_seconds
            )
        # pipeline: first in-transfer exposed, last out-transfer exposed,
        # middle stages bounded by the slower of kernel / transfer.
        # Launch overhead is host-side software work; while round i's
        # kernel occupies the DPUs the host is idle and preps round
        # i+1's launch, so inner launches pipeline behind the
        # max(kernel, transfer) stages — only the first round's launch
        # (nothing to hide behind yet) is exposed.
        first_in = self.per_round[0].transfer_in_seconds
        last_out = self.per_round[-1].transfer_out_seconds
        exposed_launch = self.per_round[0].launch_seconds
        middle = sum(
            max(r.kernel_seconds, r.transfer_seconds) for r in self.per_round
        )
        return first_in + exposed_launch + middle + last_out + self.recovery_seconds

    def throughput(self) -> float:
        total = self.schedule.total_pairs
        return total / self.total_seconds if self.total_seconds else 0.0


class BatchScheduler:
    """Runs workloads through a :class:`PimSystem` in MRAM-sized rounds."""

    def __init__(
        self,
        system: PimSystem,
        overlapped: bool = False,
        workers: Optional[int] = None,
    ) -> None:
        self.system = system
        self.overlapped = overlapped
        #: host worker processes per round (None = the system's config).
        self.workers = workers

    def max_pairs_per_round(self, mram_budget_fraction: float = 0.9) -> int:
        """Pairs per DPU batch that fit the MRAM input+output regions."""
        if not 0 < mram_budget_fraction <= 1:
            raise ConfigError("mram_budget_fraction must be in (0, 1]")
        probe = self.system.plan_layout(1)
        per_pair = probe.input_record_size + probe.result_record_size
        fixed = (
            HEADER_BYTES
            + self.system.config.tasklets * probe.metadata_bytes_per_tasklet
        )
        budget = int(self.system.config.dpu.mram_bytes * mram_budget_fraction) - fixed
        per_dpu_pairs = max(1, budget // per_pair)
        return per_dpu_pairs * self.system.config.num_dpus

    def plan(self, total_pairs: int, pairs_per_round: Optional[int] = None) -> BatchSchedule:
        """Split ``total_pairs`` into rounds (capacity-sized by default).

        ``total_pairs == 0`` is a valid degenerate workload: the schedule
        has zero rounds and ``round_sizes()`` is empty, so ``run([])``
        performs no device work and returns an empty
        :class:`ScheduledRun`.
        """
        if total_pairs < 0:
            raise ConfigError(f"total_pairs must be >= 0, got {total_pairs}")
        cap = self.max_pairs_per_round()
        if pairs_per_round is None:
            pairs_per_round = cap
        if pairs_per_round < 1:
            raise ConfigError("pairs_per_round must be >= 1")
        if pairs_per_round > cap:
            raise ConfigError(
                f"pairs_per_round {pairs_per_round} exceeds MRAM capacity {cap}"
            )
        return BatchSchedule(total_pairs=total_pairs, pairs_per_round=pairs_per_round)

    def _fingerprint(
        self,
        pairs: list[ReadPair],
        schedule: BatchSchedule,
        collect_results: bool,
        fault_plan: Optional[FaultPlan],
        retry_policy: Optional[RetryPolicy],
        health: Optional["FleetHealth"],
    ) -> dict:
        """Journal fingerprint of this run's outcome-determining inputs."""
        from repro.pim.journal import workload_fingerprint

        plan = fault_plan if fault_plan is not None else self.system.fault_plan
        policy: Optional[RetryPolicy] = None
        if plan is not None:
            policy = (
                retry_policy
                if retry_policy is not None
                else (
                    self.system.retry_policy
                    if self.system.retry_policy is not None
                    else RetryPolicy()
                )
            )
        return workload_fingerprint(
            pairs,
            schedule.pairs_per_round,
            self.system.config.num_dpus,
            self.system.config.tasklets,
            self.system.config.metadata_policy,
            collect_results,
            fault_plan=plan,
            retry_policy=policy,
            health_policy=health.policy if health is not None else None,
        )

    def run(
        self,
        pairs: list[ReadPair],
        pairs_per_round: Optional[int] = None,
        collect_results: bool = False,
        fault_plan: Optional[FaultPlan] = None,
        retry_policy: Optional[RetryPolicy] = None,
        health: Optional["FleetHealth"] = None,
        journal: Optional[Union[str, Path, "RunJournal"]] = None,
        now: float = 0.0,
        replay: Optional[dict[int, PimRunResult]] = None,
    ) -> ScheduledRun:
        """Align a concrete batch in rounds.

        With telemetry attached to the system, each round records a
        wall-time ``scheduler_round`` span and bumps
        ``pim_scheduler_rounds_total``; the rounds' model-time sections
        stack serially on the telemetry timeline (the serialized
        schedule — the overlapped aggregate stays available via
        :attr:`ScheduledRun.total_seconds`).

        With a ``fault_plan`` (or one configured on the system), each
        round runs fault-tolerantly and the per-round recovery reports
        are folded — pair indices rebased to the whole workload — into
        :attr:`ScheduledRun.recovery`.

        With a ``health`` ledger (:class:`~repro.pim.health.FleetHealth`),
        each round is placed only on DPUs the ledger allows — breaker-open
        DPUs are quarantined out of the round instead of burning retries
        — and each round's outcomes (per-placement failures, successes)
        feed back into the ledger at the round's modeled start time.
        ``now`` is the modeled start of the whole run (a serve
        dispatcher passes its device-timeline clock so the shared
        ledger's time never moves backwards between batches).

        With a ``journal`` (a path starts a fresh
        ``repro.pim.journal/v1`` file; an open
        :class:`~repro.pim.journal.RunJournal` continues one), every
        completed round is appended atomically before the next begins.
        ``replay`` maps round indices to already-completed results
        (resume path — see :meth:`resume_run`): replayed rounds skip
        device work entirely but still feed the health ledger and the
        aggregate report, so a resumed run reconstructs the exact state
        an uninterrupted run would have reached.
        """
        schedule = self.plan(len(pairs), pairs_per_round)
        out = ScheduledRun(schedule=schedule, overlapped=self.overlapped)
        replay = replay if replay is not None else {}
        telemetry = self.system.telemetry
        if isinstance(journal, (str, Path)):
            from repro.pim.journal import RunJournal

            journal = RunJournal.create(
                journal,
                self._fingerprint(
                    pairs, schedule, collect_results, fault_plan, retry_policy, health
                ),
            )
        if telemetry is not None:
            telemetry.registry.gauge(
                "pim_scheduler_pairs_per_round",
                "pairs per MRAM-sized distribution round",
            ).set(schedule.pairs_per_round)
        start = 0
        clock = now
        for index, size in enumerate(schedule.round_sizes()):
            chunk = pairs[start : start + size]
            if index in replay:
                # checkpointed round: splice the journaled result in —
                # recovery is already rebased to global pair indices and
                # the journal-write is already durable.
                result = replay[index]
                out.rounds_replayed += 1
                if telemetry is not None:
                    telemetry.registry.counter(
                        "pim_journal_rounds_replayed_total",
                        "scheduler rounds restored from a journal on resume",
                    ).inc()
                    from repro.obs.events import JOURNAL_REPLAY

                    telemetry.events.publish(
                        JOURNAL_REPLAY, clock, round=index, pairs=size
                    )
            else:
                active: Optional[tuple[int, ...]] = None
                if health is not None:
                    active = health.plan_round(now=clock)
                    if len(active) == self.system.config.num_dpus:
                        active = None
                span = nullcontext()
                if telemetry is not None:
                    telemetry.registry.counter(
                        "pim_scheduler_rounds_total",
                        "distribute->launch->gather rounds executed",
                    ).inc()
                    span = telemetry.profiler.span(
                        "scheduler_round", round=index, pairs=size
                    )
                with span:
                    result = self.system.align(
                        chunk,
                        collect_results=collect_results,
                        workers=self.workers,
                        fault_plan=fault_plan,
                        retry_policy=retry_policy,
                        active_dpus=active,
                    )
                if result.recovery is not None:
                    result.recovery.shift_pairs(start)
                    if telemetry is not None:
                        from repro.obs.events import WATCHDOG

                        # records are kept sorted by logical pair id, so
                        # the published order is deterministic.
                        for rec in result.recovery.records:
                            for placement, kind in rec.attempts_log:
                                if kind == "TaskletStallError":
                                    telemetry.events.publish(
                                        WATCHDOG,
                                        clock,
                                        dpu=placement,
                                        round=index,
                                    )
                if journal is not None:
                    journal.append_round(index, start, size, result)
            if health is not None:
                if result.recovery is not None:
                    health.observe_report(result.recovery, now=clock)
                else:
                    participants = (
                        result.active_dpus
                        if result.active_dpus is not None
                        else range(self.system.config.num_dpus)
                    )
                    health.observe_success(participants, now=clock)
            out.per_round.append(result)
            if result.recovery is not None:
                if out.recovery is None:
                    out.recovery = RecoveryReport()
                out.recovery.merge(result.recovery)
            start += size
            clock += result.total_seconds + result.recovery_overhead_seconds
        return out

    def resume_run(
        self,
        journal_path: Union[str, Path, "RunJournal"],
        pairs: list[ReadPair],
        pairs_per_round: Optional[int] = None,
        collect_results: bool = False,
        fault_plan: Optional[FaultPlan] = None,
        retry_policy: Optional[RetryPolicy] = None,
        health: Optional["FleetHealth"] = None,
        now: float = 0.0,
    ) -> ScheduledRun:
        """Resume a journaled run after a crash.

        Loads the journal, refuses a fingerprint mismatch (wrong
        workload, round size, fault plan, policy, or system shape —
        :class:`~repro.errors.JournalError`), replays every journaled
        round idempotently, executes only the remainder, and keeps
        journaling the fresh rounds.  The returned
        :class:`ScheduledRun` is byte-identical to an uninterrupted
        run's (same results, same recovery report, same totals);
        :attr:`ScheduledRun.rounds_replayed` says how much work the
        journal saved.
        """
        from repro.pim.journal import RunJournal, result_from_dict

        journal = (
            journal_path
            if isinstance(journal_path, RunJournal)
            else RunJournal.load(journal_path)
        )
        schedule = self.plan(len(pairs), pairs_per_round)
        journal.validate_fingerprint(
            self._fingerprint(
                pairs, schedule, collect_results, fault_plan, retry_policy, health
            )
        )
        num_rounds = schedule.rounds
        replay: dict[int, PimRunResult] = {}
        for index, record in journal.rounds().items():
            if not 0 <= index < num_rounds:
                from repro.errors import JournalError

                raise JournalError(
                    f"journal round {index} out of range for a "
                    f"{num_rounds}-round schedule"
                )
            replay[index] = result_from_dict(record["result"])
        return self.run(
            pairs,
            pairs_per_round=pairs_per_round,
            collect_results=collect_results,
            fault_plan=fault_plan,
            retry_policy=retry_policy,
            health=health,
            journal=journal,
            now=now,
            replay=replay,
        )
