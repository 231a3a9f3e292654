"""Tests for the host-parallel DPU execution engine.

The load-bearing guarantee: a parallel run (any worker count) is
result-identical to a sequential run — scores, CIGARs, regions, per-DPU
stats, modeled timings, and transfer accounting all match exactly.
"""

import pickle
from dataclasses import astuple, replace

import pytest

from repro.baselines.gotoh import gotoh_score
from repro.core.penalties import AffinePenalties
from repro.data.datasets import DatasetSpec
from repro.data.generator import ReadPairGenerator
from repro.errors import ConfigError
from repro.pim import parallel as parallel_mod
from repro.pim.config import PimSystemConfig
from repro.pim.faults import DpuDeath, FaultPlan
from repro.pim.kernel import KernelConfig
from repro.pim.parallel import (
    DpuJob,
    GeneratorSpec,
    execute_jobs,
    fan_out,
    resolve_workers,
    run_dpu_job,
)
from repro.pim.scheduler import BatchScheduler
from repro.pim.system import PimSystem

PEN = AffinePenalties(4, 6, 2)


def make_system(
    workers: int = 1,
    tasklets: int = 2,
    policy: str = "mram",
    num_dpus: int = 4,
) -> PimSystem:
    cfg = PimSystemConfig(
        num_dpus=num_dpus,
        num_ranks=1,
        tasklets=tasklets,
        num_simulated_dpus=num_dpus,
        metadata_policy=policy,
        workers=workers,
    )
    kc = KernelConfig(penalties=PEN, max_read_len=50, max_edits=2)
    return PimSystem(cfg, kc)


def run_signature(res):
    """Everything a PimRunResult carries, in comparable form."""
    return (
        res.num_pairs,
        res.pairs_simulated,
        res.tasklets,
        res.metadata_policy,
        res.kernel_seconds,
        res.transfer_in_seconds,
        res.transfer_out_seconds,
        res.launch_seconds,
        res.bytes_in,
        res.bytes_out,
        res.scale_factor,
        [astuple(s) for s in res.per_dpu],
        [(i, s, None if c is None else str(c)) for i, s, c in res.results],
        sorted(res.regions.items()),
    )


class TestEquivalence:
    @pytest.mark.parametrize("workers", [2, 4])
    @pytest.mark.parametrize(
        "seed,tasklets,policy",
        [(1, 2, "mram"), (2, 4, "mram"), (3, 2, "wram")],
    )
    def test_align_matches_sequential(self, workers, seed, tasklets, policy):
        pairs = ReadPairGenerator(length=50, error_rate=0.04, seed=seed).pairs(14)
        seq_sys = make_system(workers=1, tasklets=tasklets, policy=policy)
        par_sys = make_system(workers=workers, tasklets=tasklets, policy=policy)
        seq = seq_sys.align(pairs)
        par = par_sys.align(pairs)
        assert run_signature(par) == run_signature(seq)
        assert par_sys.transfer.stats == seq_sys.transfer.stats
        # and the results are actually correct, not just consistent
        for idx, score, cigar in par.results:
            assert score == gotoh_score(pairs[idx].pattern, pairs[idx].text, PEN)
            cigar.validate(pairs[idx].pattern, pairs[idx].text)

    @pytest.mark.parametrize("workers", [2, 4])
    def test_model_run_matches_sequential(self, workers):
        spec = DatasetSpec(num_pairs=64, length=50, error_rate=0.04, seed=5)
        seq = make_system(workers=1, num_dpus=8).model_run(
            spec, sample_pairs_per_dpu=4, collect_results=True
        )
        par = make_system(workers=workers, num_dpus=8).model_run(
            spec, sample_pairs_per_dpu=4, collect_results=True
        )
        assert run_signature(par) == run_signature(seq)

    def test_scheduler_matches_sequential(self):
        pairs = ReadPairGenerator(length=50, error_rate=0.02, seed=8).pairs(18)
        seq = BatchScheduler(make_system()).run(
            pairs, pairs_per_round=8, collect_results=True
        )
        par = BatchScheduler(make_system(workers=2)).run(
            pairs, pairs_per_round=8, collect_results=True
        )
        assert seq.schedule == par.schedule
        assert [run_signature(r) for r in par.per_round] == [
            run_signature(r) for r in seq.per_round
        ]
        assert par.total_seconds == seq.total_seconds

    def test_workers_override_per_call(self):
        """A worker count set through ``config.with_`` on an otherwise
        identical system changes nothing the run returns."""
        pairs = ReadPairGenerator(length=50, error_rate=0.02, seed=9).pairs(8)
        system = make_system(workers=1)
        seq = system.align(pairs)
        par = PimSystem(system.config.with_(workers=2), system.kernel_config).align(
            pairs
        )
        assert run_signature(par) == run_signature(seq)


class TestTelemetryEquivalence:
    """Traces and metric snapshots shipped home by workers must match the
    sequential path event for event and sample for sample."""

    def _run(self, workers):
        from repro.obs import RunTelemetry

        tel = RunTelemetry()
        cfg = PimSystemConfig(
            num_dpus=4,
            num_ranks=1,
            tasklets=2,
            num_simulated_dpus=4,
            workers=workers,
        )
        kc = KernelConfig(penalties=PEN, max_read_len=50, max_edits=2)
        system = PimSystem(cfg, kc, telemetry=tel)
        pairs = ReadPairGenerator(length=50, error_rate=0.04, seed=6).pairs(12)
        system.align(pairs)
        return tel

    @pytest.mark.parametrize("workers", [2, 4])
    def test_trace_events_identical(self, workers):
        seq, par = self._run(1), self._run(workers)
        assert seq.segments[0].trace.events == par.segments[0].trace.events

    @pytest.mark.parametrize("workers", [2, 4])
    def test_metric_snapshots_identical(self, workers):
        seq, par = self._run(1), self._run(workers)
        assert seq.registry.snapshot() == par.registry.snapshot()

    def test_collect_flags_off_ship_nothing(self):
        system = make_system()
        pairs = ReadPairGenerator(length=50, error_rate=0.02, seed=3).pairs(4)
        layout = system.plan_layout(len(pairs))
        job = system._make_job(0, layout, pairs=tuple(pairs))
        rec = run_dpu_job(job)
        assert rec.trace is None
        assert rec.metrics is None

    def test_collecting_job_round_trips_through_pickle(self):
        system = make_system()
        pairs = ReadPairGenerator(length=50, error_rate=0.02, seed=3).pairs(4)
        layout = system.plan_layout(len(pairs))
        job = replace(
            system._make_job(0, layout, pairs=tuple(pairs)),
            collect_trace=True,
            collect_metrics=True,
        )
        rec = pickle.loads(pickle.dumps(run_dpu_job(pickle.loads(pickle.dumps(job)))))
        assert rec.trace is not None and len(rec.trace.events) == 16  # 4 pairs x 4
        assert all(e.dpu_id == 0 for e in rec.trace.events)
        assert rec.metrics is not None
        assert rec.metrics["schema"] == "repro.obs.metrics/v1"

    def test_collection_does_not_change_results(self):
        """Turning telemetry on must not perturb the simulation."""
        from repro.obs import RunTelemetry

        pairs = ReadPairGenerator(length=50, error_rate=0.04, seed=10).pairs(10)
        plain = make_system().align(pairs)
        cfg = PimSystemConfig(
            num_dpus=4, num_ranks=1, tasklets=2, num_simulated_dpus=4, workers=1
        )
        kc = KernelConfig(penalties=PEN, max_read_len=50, max_edits=2)
        observed = PimSystem(cfg, kc, telemetry=RunTelemetry()).align(pairs)
        assert run_signature(observed) == run_signature(plain)


class TestEngine:
    def _job(self, dpu_id=0, **kw):
        system = make_system()
        pairs = ReadPairGenerator(length=50, error_rate=0.02, seed=3).pairs(4)
        layout = system.plan_layout(len(pairs))
        return system._make_job(dpu_id, layout, pairs=tuple(pairs), **kw)

    def test_job_and_result_picklable(self):
        job = self._job()
        clone = pickle.loads(pickle.dumps(job))
        rec = run_dpu_job(clone)
        rec2 = pickle.loads(pickle.dumps(rec))
        assert rec2.dpu_id == rec.dpu_id
        assert rec2.num_pairs == 4
        assert astuple(rec2.stats) == astuple(rec.stats)
        assert [(i, s, str(c), ps, ts) for i, s, c, ps, ts in rec2.results] == [
            (i, s, str(c), ps, ts) for i, s, c, ps, ts in rec.results
        ]

    def test_generator_spec_job(self):
        system = make_system()
        layout = system.plan_layout(4)
        gen = GeneratorSpec(
            length=50, error_rate=0.02, seed=11, error_model="exact", count=4
        )
        job = system._make_job(1, layout, generator=gen)
        rec = run_dpu_job(job)
        assert rec.num_pairs == 4
        expected = ReadPairGenerator(length=50, error_rate=0.02, seed=11).pairs(4)
        for (local, score, _c, _ps, _ts), pair in zip(rec.results, expected):
            assert score == gotoh_score(pair.pattern, pair.text, PEN)

    def test_job_without_payload_rejected(self):
        system = make_system()
        layout = system.plan_layout(1)
        job = system._make_job(0, layout)
        with pytest.raises(ConfigError):
            job.batch()

    def test_records_sorted_by_dpu_id(self):
        jobs = [self._job(dpu_id=d) for d in (2, 0, 1)]
        records = execute_jobs(jobs, workers=1)
        assert [r.dpu_id for r in records] == [0, 1, 2]

    def test_pull_false_returns_no_results(self):
        rec = run_dpu_job(self._job(pull=False))
        assert rec.results == []
        assert rec.transfer_stats.pulls == 0
        assert rec.transfer_stats.pushes == 1

    def test_resolve_workers(self):
        assert resolve_workers(1, 8) == 1
        assert resolve_workers(4, 2) == 2  # capped at the job count
        assert resolve_workers(0, 8) >= 1  # 0 = auto (cpu count)
        with pytest.raises(ConfigError):
            resolve_workers(-1, 8)

    def test_negative_workers_rejected_in_config(self):
        with pytest.raises(ConfigError):
            PimSystemConfig(
                num_dpus=2, num_ranks=1, tasklets=2, num_simulated_dpus=2, workers=-1
            ).validate()

    def test_pool_failure_falls_back_to_sequential(self, monkeypatch):
        """If the process pool cannot start, results still come back."""

        class ExplodingPool:
            def __init__(self, *a, **kw):
                raise OSError("fork forbidden")

        monkeypatch.setattr(parallel_mod, "ProcessPoolExecutor", ExplodingPool)
        jobs = [self._job(dpu_id=d) for d in range(3)]
        records = execute_jobs(jobs, workers=3)
        assert [r.dpu_id for r in records] == [0, 1, 2]
        assert all(r.num_pairs == 4 for r in records)

    def test_job_num_pairs_does_not_draw_the_sample(self, monkeypatch):
        def no_draw(self):
            raise AssertionError("num_pairs must not generate pairs")

        monkeypatch.setattr(GeneratorSpec, "pairs", no_draw)
        gen = GeneratorSpec(
            length=50, error_rate=0.02, seed=1, error_model="exact", count=6
        )
        system = make_system()
        job = system._make_job(1, system.plan_layout(6), generator=gen)
        assert job.num_pairs == 6
        assert self._job().num_pairs == 4

    def test_generator_job_draws_its_sample_once_per_attempt(self, monkeypatch):
        """A fault-tolerant model_run draws each DPU's sample exactly once
        per attempt — never again just to count it."""
        draws = []
        real_pairs = GeneratorSpec.pairs

        def counting_pairs(self):
            draws.append(self.seed)
            return real_pairs(self)

        monkeypatch.setattr(GeneratorSpec, "pairs", counting_pairs)
        spec = DatasetSpec(num_pairs=64, length=50, error_rate=0.02, seed=5)
        run = make_system().model_run(
            spec,
            sample_pairs_per_dpu=4,
            fault_plan=FaultPlan(deaths=(DpuDeath(dpu_id=1),)),
        )
        attempts = [record.attempts for record in run.recovery.records]
        assert sum(attempts) > len(attempts)  # the death forced retries
        assert len(draws) == sum(attempts)


class TestFanOut:
    @pytest.fixture
    def pools_built(self, monkeypatch):
        """Replace the process pool with one that records its width and
        then fails to start, as in sandboxes that forbid subprocesses."""
        built = []

        class ExplodingPool:
            def __init__(self, max_workers=None):
                built.append(max_workers)
                raise OSError("fork forbidden")

        monkeypatch.setattr(parallel_mod, "ProcessPoolExecutor", ExplodingPool)
        return built

    def test_yields_in_item_order(self):
        assert list(fan_out(abs, [-3, 1, -2], 1)) == [3, 1, 2]
        assert list(fan_out(abs, [-3, 1, -2], 2)) == [3, 1, 2]
        assert list(fan_out(abs, [], 4)) == []

    def test_inline_path_is_lazy(self):
        calls = []

        def record(x):
            calls.append(x)
            return x

        results = fan_out(record, [1, 2, 3], 1)
        assert calls == []
        assert next(results) == 1
        assert calls == [1]  # the next item waits for the next request

    def test_pool_width_capped_at_items(self, pools_built):
        assert list(fan_out(abs, [-1, -2, -3], 8)) == [1, 2, 3]
        assert pools_built == [3]

    def test_one_item_or_one_worker_never_builds_a_pool(self, pools_built):
        assert list(fan_out(abs, [-1], 8)) == [1]
        assert list(fan_out(abs, [-1, -2], 1)) == [1, 2]
        assert list(fan_out(abs, [-1, -2], 0)) == [1, 2]
        assert pools_built == []

    def test_broken_pool_reruns_every_item_inline(self, monkeypatch):
        from concurrent.futures.process import BrokenProcessPool

        class BreakingPool:
            def __init__(self, max_workers=None):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                yield fn(items[0])
                raise BrokenProcessPool("worker killed")

        monkeypatch.setattr(parallel_mod, "ProcessPoolExecutor", BreakingPool)
        assert list(fan_out(abs, [-1, -2, -3], 2)) == [1, 2, 3]

    @pytest.mark.filterwarnings("ignore::repro.errors.DegradedCapacity")
    def test_fleet_shards_go_through_the_one_fan_out(self, pools_built):
        """A pool failure under shard_workers=2 reruns every shard inline
        through run_fleet_shard; health, metrics and events federate to
        exactly what the inline fleet produces."""
        from repro.obs.telemetry import RunTelemetry
        from repro.pim.fleet import FleetCoordinator
        from repro.pim.health import HealthPolicy
        from repro.pim.journal import result_to_dict

        pairs = ReadPairGenerator(length=50, error_rate=0.02, seed=11).pairs(24)

        def observe(shard_workers):
            fleet = FleetCoordinator(
                make_system().config,
                make_system().kernel_config,
                shards=2,
                shard_workers=shard_workers,
                health_policy=HealthPolicy(),
                telemetry=RunTelemetry(),
            )
            run = fleet.run(
                pairs,
                pairs_per_round=4,
                collect_results=True,
                fault_plan=FaultPlan(deaths=(DpuDeath(dpu_id=1),)),
            )
            return (
                [result_to_dict(r) for r in run.per_round],
                run.recovery.to_dict(),
                fleet.health_doc(),
                fleet.metrics_snapshot(),
                fleet.event_records(),
            )

        inline = observe(1)
        assert pools_built == []
        fanned = observe(2)
        assert pools_built == [2]
        assert fanned == inline

    def test_campaign_cells_go_through_the_one_fan_out(self, pools_built, tmp_path):
        from repro.pim.ablation import AblationConfig
        from repro.qa.campaign import CampaignConfig, FaultGridPoint, run_campaign

        config = CampaignConfig(
            pairs=8,
            pairs_per_round=4,
            serve_requests=0,
            ablations=(
                AblationConfig(name="baseline"),
                AblationConfig(name="requeue_off", requeue=False),
            ),
            grid=(FaultGridPoint(name="dead_dpu", dead_dpus=1),),
        )
        run_campaign(config, workers=1, report_path=tmp_path / "inline.jsonl")
        assert pools_built == []
        run_campaign(config, workers=2, report_path=tmp_path / "fanned.jsonl")
        assert pools_built == [2]
        assert (tmp_path / "fanned.jsonl").read_bytes() == (
            tmp_path / "inline.jsonl"
        ).read_bytes()

    def test_inline_campaign_writes_each_cell_before_the_next(
        self, tmp_path, monkeypatch
    ):
        """The crash-resume contract: a cell's record is on disk before
        the next cell starts computing."""
        from repro.pim.ablation import AblationConfig
        from repro.qa import campaign as campaign_mod

        config = campaign_mod.CampaignConfig(
            pairs=8,
            pairs_per_round=4,
            serve_requests=0,
            ablations=(
                AblationConfig(name="baseline"),
                AblationConfig(name="requeue_off", requeue=False),
            ),
            grid=(campaign_mod.FaultGridPoint(name="calm"),),
        )
        path = tmp_path / "report.jsonl"
        lines_at_start = []
        real_run_cell = campaign_mod.run_cell

        def observed_run_cell(task):
            lines_at_start.append(len(path.read_text().splitlines()))
            return real_run_cell(task)

        monkeypatch.setattr(campaign_mod, "run_cell", observed_run_cell)
        campaign_mod.run_campaign(config, workers=0, report_path=path)
        assert lines_at_start == [1, 2]  # header, then header + first cell
