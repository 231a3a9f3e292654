"""Measurement loop, per-layer attribution and the result record.

A *unit* is one fixed piece of a workload's work (one ``align`` call,
one request-trace replay, one fleet run).  Each execution builds a
fresh stack untimed, then times only the unit.  The first execution of
a unit is its canonical result: it is checked in full against the
oracle, and every later execution must return the same answers and
bit-identical ``model.*`` numbers.

With tracing off the run reports the end-to-end metrics; with tracing
on it alternates untraced and traced executions of the same unit and
reports the per-layer metrics plus ``trace.overhead_ratio``.
"""

from __future__ import annotations

import gc
import math
import resource
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter
from typing import Optional

from checks import Checker
from tracer import Instrumentation, Tracer
from workloads import PENALTIES, UnitResult, make_workload

__all__ = ["END_TO_END", "PER_LAYER", "run_benchmark"]

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: set-up is sub-second and host noise only ever adds to it, so each
#: run takes the minimum of this many fresh-interpreter set-ups, spread
#: through the timed phase so one burst of noise touches few of them
SETUP_PROBES = 12
#: fewest timed executions a run makes, whatever ``seconds`` says
MIN_EXECUTIONS = 3

END_TO_END = {
    "host_pairs_per_s": "pairs/s",
    "modeled_pairs_per_s": "pairs/s",
    "modeled_kernel_pairs_per_s": "pairs/s",
    "modeled_latency_p50_ms": "ms",
    "modeled_latency_p99_ms": "ms",
    "paper_ratio_max_dev": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}

PER_LAYER = {
    "pim.kernel.self_s": "s",
    "pim.dma.transfers": "count",
    "pim.dma.bytes": "bytes",
    "pim.dma.self_s": "s",
    "pim.allocator.metadata_allocs": "count",
    "core.wfa_batch.calls": "count",
    "core.wfa_batch.pairs_per_call": "pairs",
    "core.wfa_batch.self_s": "s",
    "core.backtrace.calls": "count",
    "core.backtrace.self_s": "s",
    "core.wfa.calls": "count",
    "pim.transfer.push_s": "s",
    "pim.transfer.pull_s": "s",
    "pim.transfer.bytes_in": "bytes",
    "pim.transfer.bytes_out": "bytes",
    "pim.parallel.jobs": "count",
    "pim.parallel.job_s_p50": "s",
    "pim.parallel.job_s_p99": "s",
    "pim.parallel.useful_job_ratio": "ratio",
    "pim.system.align_calls": "count",
    "pim.system.self_s": "s",
    "pim.scheduler.rounds": "count",
    "pim.scheduler.round_s_p50": "s",
    "pim.scheduler.round_s_p99": "s",
    "pim.health.quarantined_dpus": "count",
    "pim.fleet.self_s": "s",
    "pim.transport.deliveries": "count",
    "pim.transport.redeliveries": "count",
    "pim.transport.duplicates_absorbed": "count",
    "pim.transport.steals": "count",
    "pim.transport.useful_delivery_ratio": "ratio",
    "serve.batcher.batches": "count",
    "serve.batcher.pairs_per_batch": "pairs",
    "serve.batcher.queue_wait_ms_p50": "ms",
    "serve.batcher.queue_wait_ms_p99": "ms",
    "serve.dispatcher.dispatch_s_p50": "s",
    "serve.dispatcher.dispatch_s_p99": "s",
    "serve.service.submit_s_p50": "s",
    "serve.service.submit_s_p99": "s",
    "serve.cache.lookups": "count",
    "serve.cache.hit_ratio": "ratio",
    "serve.loadgen.max_rps": "requests/s",
    "model.kernel_s": "s",
    "model.transfer_in_s": "s",
    "model.transfer_out_s": "s",
    "model.launch_s": "s",
    "model.recovery_s": "s",
    "model.net_s": "s",
    "model.dma_cycle_share": "ratio",
    "model.instructions": "count",
    "model.dma_bytes": "bytes",
    "trace.overhead_ratio": "ratio",
}


def _pct(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0 for an empty sample."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q / 100 * len(ordered))) - 1]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def setup_seconds(name: str, seed: int) -> float:
    """One set-up, timed inside a fresh interpreter (see setup_probe.py)."""
    done = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), name, str(seed)],
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
        cwd=ROOT,
    )
    return float(done.stdout.split()[-1])


def paper_ratio_max_dev() -> float:
    """Max |measured/paper - 1| over the four Fig. 1 headline ratios,
    from the default ``run_fig1`` configuration."""
    from repro.experiments.fig1 import run_fig1

    rows = run_fig1().comparison_rows()
    return max(abs(measured / paper - 1.0) for _, paper, measured in rows)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def execute(workload, unit: int) -> tuple[UnitResult, float]:
    # collect the previous execution's garbage cycles now, untimed, so
    # neither the timing nor the peak memory depends on when the
    # collector happens to run
    gc.collect()
    stack = workload.build(workload.seed)
    t0 = perf_counter()
    result = workload.run(stack, unit)
    return result, perf_counter() - t0


def execute_traced(workload, unit: int) -> tuple[UnitResult, float, Tracer, Instrumentation]:
    gc.collect()
    stack = workload.build(workload.seed)
    tracer = Tracer()
    with Instrumentation(tracer) as inst:
        with tracer.span("perfbench.unit") as root:
            result = workload.run(stack, unit)
    return result, root.wall_seconds, tracer, inst


def layer_metrics(tracer: Tracer, inst: Instrumentation, unit: UnitResult) -> dict:
    """Per-layer numbers of one traced execution."""
    jobs = tracer.named("pim.parallel.job")
    aligns = tracer.named("pim.system")
    schedulers = {s.span_id for s in tracer.named("pim.scheduler")}
    rounds = [s.wall_seconds for s in aligns if s.parent_id in schedulers]
    batch_runs = tracer.named("core.wfa_batch")
    waits_ms = [1e3 * wait for _, wait in inst.batches]
    dispatches = [s.wall_seconds for s in tracer.named("serve.dispatcher")]
    submits = [s.wall_seconds for s in tracer.named("serve.service")]
    lookups = tracer.counts["serve.cache"]
    wire = tracer.quantities["pim.transport.deliver"]
    out = {
        "pim.kernel.self_s": tracer.self_seconds("pim.kernel"),
        "pim.dma.transfers": tracer.counts["pim.dma"],
        "pim.dma.bytes": tracer.quantities["pim.dma"],
        "pim.dma.self_s": tracer.totals["pim.dma"],
        "pim.allocator.metadata_allocs": tracer.counts["pim.allocator"],
        "core.wfa_batch.calls": len(batch_runs),
        "core.wfa_batch.pairs_per_call": _ratio(
            sum(int(s.labels["pairs"]) for s in batch_runs), len(batch_runs)
        ),
        "core.wfa_batch.self_s": tracer.self_seconds(
            "core.wfa_batch", "core.wfa_batch.init"
        ),
        "core.backtrace.calls": len(tracer.named("core.backtrace")),
        "core.backtrace.self_s": tracer.self_seconds("core.backtrace"),
        "core.wfa.calls": len(tracer.named("core.wfa")),
        "pim.transfer.push_s": tracer.self_seconds("pim.transfer.push"),
        "pim.transfer.pull_s": tracer.self_seconds("pim.transfer.pull"),
        "pim.transfer.bytes_in": sum(
            int(s.labels["bytes"]) for s in tracer.named("pim.transfer.push")
        ),
        "pim.transfer.bytes_out": sum(
            int(s.labels["bytes"]) for s in tracer.named("pim.transfer.pull")
        ),
        "pim.parallel.jobs": len(jobs),
        "pim.parallel.job_s_p50": _pct([s.wall_seconds for s in jobs], 50),
        "pim.parallel.job_s_p99": _pct([s.wall_seconds for s in jobs], 99),
        "pim.parallel.useful_job_ratio": _ratio(
            sum(1 for s in jobs if s.labels["attempt"] == "0"), len(jobs)
        ),
        "pim.system.align_calls": len(aligns),
        "pim.system.self_s": tracer.self_seconds("pim.system"),
        "pim.scheduler.rounds": len(rounds),
        "pim.scheduler.round_s_p50": _pct(rounds, 50),
        "pim.scheduler.round_s_p99": _pct(rounds, 99),
        "pim.fleet.self_s": tracer.self_seconds("pim.fleet"),
        "pim.transport.deliveries": tracer.counts["pim.transport.deliver"],
        # each round needs one work and one result envelope on the wire
        "pim.transport.useful_delivery_ratio": _ratio(
            2 * unit.modeled.get("rounds", 0), wire
        ),
        "serve.batcher.batches": len(inst.batches),
        "serve.batcher.pairs_per_batch": _ratio(
            sum(n for n, _ in inst.batches), len(inst.batches)
        ),
        "serve.batcher.queue_wait_ms_p50": _pct(waits_ms, 50),
        "serve.batcher.queue_wait_ms_p99": _pct(waits_ms, 99),
        "serve.dispatcher.dispatch_s_p50": _pct(dispatches, 50),
        "serve.dispatcher.dispatch_s_p99": _pct(dispatches, 99),
        "serve.service.submit_s_p50": _pct(submits, 50),
        "serve.service.submit_s_p99": _pct(submits, 99),
        "serve.cache.lookups": lookups,
        "serve.cache.hit_ratio": _ratio(tracer.quantities["serve.cache"], lookups),
    }
    out.update(unit.layers)  # counters read from the run's result objects
    return out


class Ledger:
    """Executions of a run, checked after the timed phase.

    Only each unit's canonical (first) result is kept, plus any later
    execution that differs from it, so memory does not grow with the
    number of executions.
    """

    def __init__(self, workload) -> None:
        self.workload = workload
        self.canon: dict[int, UnitResult] = {}
        self.repeats: Counter = Counter()
        self.differing: list[tuple[int, UnitResult]] = []
        self.model_identical = True

    def add(self, unit: int, result: UnitResult) -> None:
        canon = self.canon.setdefault(unit, result)
        if canon is result:
            return
        self.model_identical &= result.model == canon.model
        if (result.answers, result.same_answer_groups, result.error) == (
            canon.answers,
            canon.same_answer_groups,
            canon.error,
        ):
            self.repeats[unit] += 1
        else:
            self.differing.append((unit, result))

    def canonical(self) -> list[UnitResult]:
        return [self.canon[u] for u in sorted(self.canon)]

    def check(self, checker: Checker) -> dict:
        """Account every execution; returns the identity/self-check flags."""
        wl = self.workload
        references = (
            {u: wl.run_calm(u).answers for u in self.canon}
            if hasattr(wl, "run_calm")
            else {}
        )

        def failures(unit: int, result: UnitResult) -> int:
            return checker.count_failures(
                result.pairs,
                result.answers,
                references.get(unit),
                result.same_answer_groups,
            )

        for unit, canon in self.canon.items():
            executions = 1 + self.repeats[unit]
            checker.record(
                executions * len(canon.pairs), executions * failures(unit, canon)
            )
        for unit, result in self.differing:
            checker.record(len(result.pairs), failures(unit, result))
        results = list(self.canon.values()) + [r for _, r in self.differing]
        return {
            "model_identical": self.model_identical,
            "planted_check": all(
                checker.planted_check(r.pairs, r.answers) for r in self.canon.values()
            ),
            "errors": [r.error for r in results if r.error],
        }


def _timed_loop(units: int, seconds: float, step) -> int:
    """Call ``step(unit)`` (returning the timed seconds it spent) over
    units ``0..units-1`` in turn until ``seconds`` of timed work and
    every unit have run."""
    spent = 0.0
    i = 0
    while spent < seconds or i < max(units, MIN_EXECUTIONS):
        spent += step(i % units)
        i += 1
    return i


def run_benchmark(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    tiny: bool = False,
    spans_path: Optional[Path] = None,
) -> dict:
    """Run one workload; returns the result record and a report."""
    workload = make_workload(name, seed, tiny=tiny)
    checker = Checker(PENALTIES)
    ledger = Ledger(workload)
    report: dict = {"workload": name, "seed": seed, "trace": trace}

    warm, _ = execute(workload, 0)  # lazy set-up and first-call paths
    ledger.add(0, warm)

    if not trace:
        rates: list[float] = []
        setup: list[float] = []
        timed = 0.0

        def step(unit: int) -> float:
            nonlocal timed
            result, dt = execute(workload, unit)
            ledger.add(unit, result)
            rates.append(len(result.pairs) / dt)
            timed += dt
            # the set-up probes run between executions, untimed
            due = SETUP_PROBES * min(1.0, timed / seconds) if seconds else 0
            while len(setup) < due:
                setup.append(setup_seconds(name, seed))
            return dt

        report["executions"] = _timed_loop(len(workload.units), seconds, step)
        while len(setup) < SETUP_PROBES:
            setup.append(setup_seconds(name, seed))
        rss = peak_rss_mb()
        flags = ledger.check(checker)
        metrics = {
            "host_pairs_per_s": statistics.median(rates),
            **workload.modeled_metrics(ledger.canonical()),
            "paper_ratio_max_dev": paper_ratio_max_dev(),
            "setup_s": min(setup),
            "peak_rss_mb": rss,
        }
        units = END_TO_END
    else:
        ratios: list[float] = []
        layers: list[dict] = []
        last: list[Tracer] = []

        def step(unit: int) -> float:
            plain, dt_plain = execute(workload, unit)
            traced, dt_traced, tracer, inst = execute_traced(workload, unit)
            ledger.add(unit, plain)
            ledger.add(unit, traced)
            ratios.append(dt_traced / dt_plain)
            layers.append(layer_metrics(tracer, inst, traced))
            last[:] = [tracer]
            return dt_plain + dt_traced

        # per-layer numbers describe one unit, so only unit 0 is traced
        report["executions"] = 2 * _timed_loop(1, seconds, step)
        max_rps = 0.0
        if hasattr(workload, "ladder"):

            def check_rung(unit: UnitResult) -> None:
                checker.record(
                    len(unit.pairs),
                    checker.count_failures(
                        unit.pairs, unit.answers, None, unit.same_answer_groups
                    ),
                )

            max_rps, report["ladder"] = workload.ladder(check_rung)
        flags = ledger.check(checker)
        metrics = {k: statistics.median(rep[k] for rep in layers) for k in layers[0]}
        metrics.update(ledger.canon[0].model)
        metrics["serve.loadgen.max_rps"] = max_rps
        metrics["trace.overhead_ratio"] = statistics.median(ratios) - 1.0
        metrics = {k: metrics.get(k, 0.0) for k in PER_LAYER}
        units = PER_LAYER
        if spans_path is not None:
            last[0].write(spans_path)
            report["spans"] = str(spans_path)

    report.update(flags)
    correct = (
        checker.failed == 0
        and flags["model_identical"]
        and flags["planted_check"]
        and not flags["errors"]
    )
    record = {
        "correct": correct,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    return {"record": record, "report": report}
