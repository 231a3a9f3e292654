"""The benchmark's workloads: seeded inputs, the stack, one unit of work.

Every workload makes its inputs from the seed alone and hands the
program only the generated pairs or request trace.  The stack is built
through a public entry point and every number below the end-to-end
metrics comes from public result objects (``PimRunResult.per_dpu``,
``ScheduledRun.per_round``, ``FleetRun.transport``,
``FleetRun.recovery`` and the ``LoadReport`` records).  All stacks run
with ``workers=1`` (and ``shard_workers=1``), so the load comes from one
process; reads are 100 bp at E=4% with affine penalties, full CIGAR and
the vector engine.

* ``offline_paper`` -- :meth:`PimSystem.align` with ``verify=True`` on
  64 DPUs x 16 tasklets with MRAM metadata: the paper's operating point
  in miniature.  Per-DPU batches are large, so the engine is amortised
  and metadata/DMA accounting dominates host time.
* ``serve_trickle`` -- an open-loop uniform replay through
  :func:`build_service` and :mod:`repro.serve.loadgen` on the virtual
  clock, 16 DPUs x 16 tasklets, 2 pairs per request, result cache on
  and about half the draws repeated.  Batches are striped so the engine
  runs on ~1 pair per call: per-call costs dominate.
* ``fleet_faults`` -- :meth:`FleetCoordinator.run` over 4 shards x 16
  DPUs with a health policy, a seeded lossy network with hedging and a
  seeded global fault plan (one dead DPU, one corrupted input record,
  tasklet-stall DMA budgets on a quarter of the DPUs).  The kernel and
  DMA layers run with fault hooks armed, through retries, requeue,
  verification and redelivery.
"""

from __future__ import annotations

import math
import random
import warnings
from dataclasses import dataclass, field, replace
from typing import Optional

from repro.core.penalties import AffinePenalties
from repro.data.generator import ReadPair, ReadPairGenerator
from repro.errors import DegradedCapacity, ReproError, ServeError
from repro.pim.config import PimSystemConfig
from repro.pim.faults import DpuDeath, FaultPlan, MramCorruption, TaskletStall
from repro.pim.fleet import FleetCoordinator, FleetRun
from repro.pim.health import HealthPolicy
from repro.pim.kernel import KernelConfig
from repro.pim.system import PimRunResult, PimSystem
from repro.pim.transport import (
    LinkDrop,
    LinkDuplicate,
    NetworkFaultPlan,
    TransportPolicy,
)
from repro.serve.loadgen import LoadgenConfig, LoadReport, build_trace, percentile, replay
from repro.serve.service import ServiceConfig, build_service

__all__ = ["WORKLOADS", "UnitResult", "make_workload", "kernel_config"]

READ_LENGTH = 100
ERROR_RATE = 0.04
PENALTIES = AffinePenalties()
#: The kernel reserves 2 * max_edits + 3 CIGAR runs per result record.
#: A pair with the generator's 4 edits scores at most 4 * 8 = 32 under
#: affine penalties, and its optimal alignment may spend that score on
#: up to 8 edit runs (mismatches are cheaper than gaps), i.e. 17 CIGAR
#: runs.  With max_edits=4 the 11-run slot overflows on about one pair
#: in 8000 and aborts the whole align with LayoutError; 7 is the
#: smallest bound that holds every such pair -- see
#: ``test_cigar_slot_holds_every_in_budget_alignment``.
MAX_EDITS = 7

#: the serve latency limit the rate ladder is judged against
LATENCY_LIMIT_S = 0.025


def kernel_config() -> KernelConfig:
    return KernelConfig(
        penalties=PENALTIES,
        max_read_len=READ_LENGTH,
        max_edits=MAX_EDITS,
        engine="vector",
    )


def system_config(num_dpus: int) -> PimSystemConfig:
    return PimSystemConfig(
        num_dpus=num_dpus,
        num_ranks=1,
        tasklets=16,
        num_simulated_dpus=num_dpus,
        workers=1,
    )


def _sub_seeds(seed: int, count: int) -> list[int]:
    rng = random.Random(seed)
    return [rng.randrange(2**32) for _ in range(count)]


@dataclass
class UnitResult:
    """What one execution of one unit of work returned.

    ``answers[i]`` is ``(score, cigar string)`` for ``pairs[i]``, or
    ``None`` when the program returned nothing for it (missing,
    abandoned, or its request rejected).
    """

    pairs: list[ReadPair]
    answers: list[Optional[tuple[int, str]]]
    #: ``model.*`` numbers; must be bit-identical on every execution
    model: dict[str, float]
    #: raw modeled quantities the end-to-end metrics are computed from
    modeled: dict = field(default_factory=dict)
    #: per-layer counters read from public result objects
    layers: dict[str, float] = field(default_factory=dict)
    #: extra consistency groups: lists of pair positions whose answers
    #: must agree (a cached response against the fresh one)
    same_answer_groups: list[list[int]] = field(default_factory=list)
    error: Optional[str] = None


def _model(rounds: list[PimRunResult], net_s: float = 0.0) -> dict[str, float]:
    """``model.*`` numbers summed over per-round result objects."""
    dpus = [d for r in rounds for d in r.per_dpu]
    cycles = sum(d.cycles for d in dpus)
    return {
        "model.kernel_s": sum(r.kernel_seconds for r in rounds),
        "model.transfer_in_s": sum(r.transfer_in_seconds for r in rounds),
        "model.transfer_out_s": sum(r.transfer_out_seconds for r in rounds),
        "model.launch_s": sum(r.launch_seconds for r in rounds),
        "model.recovery_s": sum(r.recovery_overhead_seconds for r in rounds),
        "model.net_s": net_s,
        "model.dma_cycle_share": (
            sum(d.dma_cycles for d in dpus) / cycles if cycles else 0.0
        ),
        "model.instructions": sum(d.instructions for d in dpus),
        "model.dma_bytes": sum(d.dma_bytes for d in dpus),
    }


def _failed_unit(pairs: list[ReadPair], exc: Exception) -> UnitResult:
    return UnitResult(
        pairs=pairs,
        answers=[None] * len(pairs),
        model={},
        error=f"{type(exc).__name__}: {exc}",
    )


def _latency_ms(latencies_s: list[float]) -> tuple[float, float]:
    ordered = sorted(latencies_s)
    return 1e3 * percentile(ordered, 50), 1e3 * percentile(ordered, 99)


# -- offline_paper ---------------------------------------------------------------


class OfflinePaper:
    """One ``PimSystem.align(verify=True)`` per unit, 4 seeded pair sets.

    The modeled kernel time is the slowest of 64 DPUs, which moves a few
    percent with the pairs drawn; pooling four sets per seed keeps the
    modeled metrics steady across seeds.
    """

    name = "offline_paper"

    def __init__(self, seed: int, sets: int = 4, pairs_per_set: int = 2000) -> None:
        self.seed = seed
        self.units = [
            ReadPairGenerator(
                length=READ_LENGTH, error_rate=ERROR_RATE, seed=s
            ).pairs(pairs_per_set)
            for s in _sub_seeds(seed, sets)
        ]

    @staticmethod
    def build(seed: int = 0) -> PimSystem:
        return PimSystem(system_config(64), kernel_config())

    def run(self, system: PimSystem, unit: int) -> UnitResult:
        pairs = self.units[unit]
        try:
            run = system.align(pairs, verify=True)
        except ReproError as exc:
            return _failed_unit(pairs, exc)
        answers: list[Optional[tuple[int, str]]] = [None] * len(pairs)
        for index, score, cigar in run.results:
            answers[index] = (score, str(cigar))
        return UnitResult(
            pairs=pairs,
            answers=answers,
            model=_model([run]),
            modeled={
                "pairs": run.num_pairs,
                "total_s": run.total_seconds,
                "kernel_s": run.kernel_seconds,
            },
        )

    @staticmethod
    def modeled_metrics(units: list[UnitResult]) -> dict[str, float]:
        pairs = sum(u.modeled["pairs"] for u in units)
        # every pair of one align call is on the host when the call's
        # modeled total (transfers + kernel + launch) has elapsed
        latencies = [u.modeled["total_s"] for u in units for _ in u.pairs]
        p50, p99 = _latency_ms(latencies)
        return {
            "modeled_pairs_per_s": pairs / sum(u.modeled["total_s"] for u in units),
            "modeled_kernel_pairs_per_s": pairs
            / sum(u.modeled["kernel_s"] for u in units),
            "modeled_latency_p50_ms": p50,
            "modeled_latency_p99_ms": p99,
        }


# -- serve_trickle ---------------------------------------------------------------


class ServeTrickle:
    """Open-loop replay at a fixed operating rate below the knee.

    The knee sits near 90 single-request batches per modeled second;
    the latency metrics come from the 50 req/s operating rate, with
    1000 requests so at least 10 samples lie beyond p99.  The rate
    ladder (traced run only) ascends through the knee and stops at the
    first rung that misses the limit.
    """

    name = "serve_trickle"
    OPERATING_RATE = 50.0
    LADDER = (25.0, 50.0, 75.0, 100.0, 125.0)

    def __init__(self, seed: int, requests: int = 1000) -> None:
        self.seed = seed
        # a pool 1.25x the request count makes about half of the
        # 2-pair draws repeats, so the result cache serves ~half
        self.config = LoadgenConfig(
            requests=requests,
            rate=self.OPERATING_RATE,
            process="uniform",
            pairs_per_request=2,
            clients=4,
            length=READ_LENGTH,
            error_rate=ERROR_RATE,
            seed=seed,
            pool=max(1, round(1.25 * requests)),
        )
        self.units = [build_trace(self.config)]

    @staticmethod
    def build(seed: int = 0):
        return build_service(
            num_dpus=16,
            tasklets=16,
            workers=1,
            max_read_len=READ_LENGTH,
            max_edits=MAX_EDITS,
            penalties=PENALTIES,
            config=ServiceConfig(cache_pairs=1 << 16),
            engine="vector",
        )

    def run(self, service, unit: int) -> UnitResult:
        return self.replay(service, self.units[unit], self.config)

    def replay(self, service, trace, config: LoadgenConfig) -> UnitResult:
        submitted: list = []
        runs: list = []
        dispatcher = service.dispatcher

        # capture the futures and batch runs the replay produces; the
        # class attribute is looked up per call so a traced run's
        # wrappers stay in the path
        def submit(request):
            future = type(service).submit(service, request)
            submitted.append((request, future))
            return future

        def dispatch(pairs, now):
            outcome = type(dispatcher).dispatch(dispatcher, pairs, now)
            if outcome.run is not None:
                runs.append(outcome.run)
            return outcome

        service.submit = submit
        dispatcher.dispatch = dispatch
        try:
            report = replay(service, service.clock, trace, config)
        finally:
            del service.submit
            del dispatcher.dispatch
        return self._unit(trace, submitted, runs, report)

    @staticmethod
    def _unit(trace, submitted, runs, report: LoadReport) -> UnitResult:
        futures = {request.request_id: future for request, future in submitted}
        pairs: list[ReadPair] = []
        answers: list[Optional[tuple[int, str]]] = []
        first_fresh: dict[tuple[str, str], int] = {}
        cached_positions: list[tuple[tuple[str, str], int]] = []
        for _, request in trace:
            future = futures.get(request.request_id)
            response = None
            if future is not None:
                try:
                    response = future.result()
                except ServeError:
                    response = None
            for offset, pair in enumerate(request.pairs):
                position = len(pairs)
                pairs.append(pair)
                if response is None:
                    answers.append(None)
                    continue
                answers.append((response.scores[offset], response.cigars[offset]))
                key = (pair.pattern, pair.text)
                if response.cached[offset]:
                    cached_positions.append((key, position))
                else:
                    first_fresh.setdefault(key, position)
        groups: dict[int, list[int]] = {}
        for key, position in cached_positions:
            fresh = first_fresh.get(key)
            if fresh is not None:
                groups.setdefault(fresh, [fresh]).append(position)

        rounds = [r for run in runs for r in run.per_round]
        # a rejected request misses every latency limit
        latencies = [
            r.latency_s if r.status == "ok" else math.inf for r in report.records
        ]
        summary = report.summary()
        return UnitResult(
            pairs=pairs,
            answers=answers,
            model=_model(rounds),
            modeled={
                "latencies_s": latencies,
                "rejected": summary["rejected"],
                "device_pairs": sum(r.num_pairs for r in rounds),
                "device_s": sum(r.total_seconds for r in rounds),
                "kernel_s": sum(r.kernel_seconds for r in rounds),
            },
            same_answer_groups=list(groups.values()),
        )

    @staticmethod
    def modeled_metrics(units: list[UnitResult]) -> dict[str, float]:
        (unit,) = units
        p50, p99 = _latency_ms(unit.modeled["latencies_s"])
        # below the knee the replay's own pairs/s is the offered load,
        # so throughput is taken over the device's busy time instead
        return {
            "modeled_pairs_per_s": unit.modeled["device_pairs"]
            / unit.modeled["device_s"],
            "modeled_kernel_pairs_per_s": unit.modeled["device_pairs"]
            / unit.modeled["kernel_s"],
            "modeled_latency_p50_ms": p50,
            "modeled_latency_p99_ms": p99,
        }

    def ladder(self, check) -> tuple[float, list[dict]]:
        """Replay the ladder; returns (max passing rate, per-rung rows).

        A rung passes when its modeled p99 is within the limit, nothing
        was rejected and the last tenth of the requests also met the
        limit (no growing backlog).  ``check`` receives each rung's
        :class:`UnitResult` for correctness accounting.
        """
        best = 0.0
        rows = []
        for rate in self.LADDER:
            config = replace(self.config, rate=rate)
            unit = self.replay(self.build(), build_trace(config), config)
            check(unit)
            latencies = unit.modeled["latencies_s"]
            p50, p99 = _latency_ms(latencies)
            tail = latencies[-max(1, len(latencies) // 10) :]
            ok = (
                p99 <= LATENCY_LIMIT_S * 1e3
                and unit.modeled["rejected"] == 0
                and max(tail) <= LATENCY_LIMIT_S
            )
            rows.append({"rate": rate, "p50_ms": p50, "p99_ms": p99, "ok": ok})
            if not ok:
                break
            best = rate
        return best, rows


# -- fleet_faults ----------------------------------------------------------------


class FleetFaults:
    """Faulted ``FleetCoordinator.run`` calls of 16 rounds x 256 pairs.

    Two seeded pair sets per seed are pooled: which rounds the lossy
    links redeliver moves the makespan by a few percent per run.
    """

    name = "fleet_faults"
    SHARDS = 4
    DPUS_PER_SHARD = 16
    PAIRS_PER_ROUND = 256

    def __init__(self, seed: int, sets: int = 2, pairs_per_set: int = 4096) -> None:
        self.seed = seed
        self.units = [
            ReadPairGenerator(
                length=READ_LENGTH, error_rate=ERROR_RATE, seed=s
            ).pairs(pairs_per_set)
            for s in _sub_seeds(seed, sets)
        ]
        self.fault_plan = self.make_fault_plan(seed)

    @classmethod
    def make_fault_plan(cls, seed: int) -> FaultPlan:
        """Global-domain plan, seeded for its bit flips.

        The placement is fixed and balanced so that the seed moves the
        pairs and the network, not which shard carries the faults:
        DPU 9 is dead; one input record of DPU 26 is corrupted (caught
        by verification, then retried); a quarter of the DPUs (locals
        2, 6, 10, 14 of every shard) have stall budgets armed, half of
        them far below the ~2000 DMA transfers of a 16-pair job, so
        they trip, and half far above it.

        The corruption targets an *input* record: a flipped CIGAR-op
        byte in an *output* record escapes as an untyped ``CigarError``
        (``HostTransferEngine._unpack`` maps only ``LayoutError``) and
        aborts the run on about a quarter of the attempts -- see
        ``test_corrupted_output_cigar_op_is_retried``.
        """
        stalls = tuple(
            TaskletStall(
                dpu_id=shard * cls.DPUS_PER_SHARD + local,
                dma_budget=500 if j % 2 == 0 else 50_000,
            )
            for shard in range(cls.SHARDS)
            for j, local in enumerate((2, 6, 10, 14))
        )
        return FaultPlan(
            seed=seed,
            deaths=(DpuDeath(dpu_id=9),),
            corruptions=(MramCorruption(dpu_id=26, region="input", record=0),),
            stalls=stalls,
        )

    @classmethod
    def make_net_plan(cls, seed: int) -> NetworkFaultPlan:
        links = range(cls.SHARDS)
        return NetworkFaultPlan(
            seed=seed,
            drops=tuple(LinkDrop(shard_id=s, p=0.1) for s in links),
            duplicates=tuple(LinkDuplicate(shard_id=s, p=0.05) for s in links),
        )

    @classmethod
    def build(cls, seed: int = 0) -> FleetCoordinator:
        return FleetCoordinator(
            system_config(cls.DPUS_PER_SHARD),
            kernel_config(),
            shards=cls.SHARDS,
            shard_workers=1,
            health_policy=HealthPolicy(),
            net_plan=cls.make_net_plan(seed),
            transport_policy=TransportPolicy(hedge=True),
        )

    def run(self, fleet: FleetCoordinator, unit: int) -> UnitResult:
        return self._run(fleet, unit, self.fault_plan)

    def run_calm(self, unit: int) -> UnitResult:
        """The same pairs on a calm, fault-free fleet (the reference)."""
        calm = FleetCoordinator(
            system_config(self.DPUS_PER_SHARD), kernel_config(), shards=self.SHARDS
        )
        return self._run(calm, unit, None)

    def _run(
        self, fleet: FleetCoordinator, unit: int, fault_plan: Optional[FaultPlan]
    ) -> UnitResult:
        pairs = self.units[unit]
        with warnings.catch_warnings():
            # quarantine announces itself as a warning on every rebalance
            warnings.simplefilter("ignore", DegradedCapacity)
            try:
                run = fleet.run(
                    pairs,
                    pairs_per_round=self.PAIRS_PER_ROUND,
                    collect_results=True,
                    fault_plan=fault_plan,
                )
            except ReproError as exc:
                return _failed_unit(pairs, exc)
        answers: list[Optional[tuple[int, str]]] = [None] * len(pairs)
        for index, score, cigar in run.results():
            answers[index] = (score, str(cigar))
        return UnitResult(
            pairs=pairs,
            answers=answers,
            model=_model(run.per_round, net_s=self._net_seconds(run)),
            modeled=self._modeled(run),
            layers=self._layers(fleet, run),
        )

    @staticmethod
    def _shard_of_rounds(run: FleetRun) -> list[int]:
        if run.transport is None:
            return list(run.placements)
        return [run.transport.survivors[r] for r in range(run.schedule.rounds)]

    @classmethod
    def _net_seconds(cls, run: FleetRun) -> float:
        """Makespan the busiest shard's own round work does not explain:
        the time rounds spent on (and waiting for) the network."""
        busy: dict[int, float] = {}
        for shard, result in zip(cls._shard_of_rounds(run), run.per_round):
            busy[shard] = (
                busy.get(shard, 0.0)
                + result.total_seconds
                + result.recovery_overhead_seconds
            )
        return run.total_seconds - max(busy.values(), default=0.0)

    @classmethod
    def _modeled(cls, run: FleetRun) -> dict:
        transport = run.transport
        sizes = run.schedule.round_sizes()
        if transport is not None:
            done = [transport.receipts[r] - transport.start_s for r in range(len(sizes))]
        else:
            done = [run.total_seconds] * len(sizes)
        kernel_by_shard: dict[int, float] = {}
        for shard, result in zip(cls._shard_of_rounds(run), run.per_round):
            kernel_by_shard[shard] = kernel_by_shard.get(shard, 0.0) + result.kernel_seconds
        return {
            "pairs": run.schedule.total_pairs,
            "rounds": run.schedule.rounds,
            "total_s": run.total_seconds,
            # shards run concurrently: the kernel critical path is the
            # busiest shard's summed kernel time
            "kernel_s": max(kernel_by_shard.values()),
            "latencies_s": [t for t, size in zip(done, sizes) for _ in range(size)],
        }

    @staticmethod
    def _layers(fleet: FleetCoordinator, run: FleetRun) -> dict[str, float]:
        report = run.transport
        return {
            "pim.health.quarantined_dpus": sum(
                len(h.quarantined()) for h in fleet.shard_healths if h is not None
            ),
            "pim.transport.redeliveries": report.redeliveries if report else 0,
            "pim.transport.duplicates_absorbed": (
                report.duplicates_absorbed if report else 0
            ),
            "pim.transport.steals": report.steals if report else 0,
        }

    @staticmethod
    def modeled_metrics(units: list[UnitResult]) -> dict[str, float]:
        pairs = sum(u.modeled["pairs"] for u in units)
        p50, p99 = _latency_ms([t for u in units for t in u.modeled["latencies_s"]])
        return {
            "modeled_pairs_per_s": pairs / sum(u.modeled["total_s"] for u in units),
            "modeled_kernel_pairs_per_s": pairs
            / sum(u.modeled["kernel_s"] for u in units),
            "modeled_latency_p50_ms": p50,
            "modeled_latency_p99_ms": p99,
        }


WORKLOADS = {w.name: w for w in (OfflinePaper, ServeTrickle, FleetFaults)}

#: input sizes of the tiny smoke runs the benchmark's own tests use
TINY = {
    "offline_paper": {"sets": 2, "pairs_per_set": 96},
    "serve_trickle": {"requests": 40},
    "fleet_faults": {"sets": 1, "pairs_per_set": 512},
}


def make_workload(name: str, seed: int, tiny: bool = False):
    cls = WORKLOADS[name]
    return cls(seed, **(TINY[name] if tiny else {}))
