"""Write-ahead journal + crash-resume (repro.pim.journal)."""

from __future__ import annotations

import json
import os
import warnings

import pytest

from repro.core.penalties import EditPenalties
from repro.data.generator import ReadPairGenerator
from repro.errors import DegradedCapacity, JournalError
from repro.obs.metrics import MetricsRegistry
from repro.pim.config import PimSystemConfig
from repro.pim.faults import DpuDeath, FaultPlan, RetryPolicy
from repro.pim.health import FleetHealth, HealthPolicy
from repro.pim.journal import (
    JOURNAL_SCHEMA,
    RunJournal,
    result_from_dict,
    result_to_dict,
    workload_fingerprint,
    write_atomic,
)
from repro.pim.scheduler import BatchScheduler
from repro.pim.system import PimSystem

NUM_DPUS = 4


def small_system(workers=1) -> PimSystem:
    return PimSystem(
        PimSystemConfig(
            num_dpus=NUM_DPUS,
            num_ranks=1,
            tasklets=4,
            num_simulated_dpus=NUM_DPUS,
            workers=workers,
        ),
        kernel_config=KernelConfig(
            penalties=EditPenalties(), max_read_len=40, max_edits=4
        ),
    )


from repro.pim.kernel import KernelConfig  # noqa: E402


def workload(n: int = 30):
    return ReadPairGenerator(length=32, error_rate=0.05, seed=7).pairs(n)


def run_key(run) -> list:
    """Everything a caller can observe from a ScheduledRun, JSON-stable."""
    return [
        [result_to_dict(r) for r in run.per_round],
        run.recovery.to_dict() if run.recovery is not None else None,
        run.total_seconds,
        run.kernel_seconds,
        run.recovery_seconds,
    ]


class TestFingerprint:
    def test_same_inputs_same_fingerprint(self):
        pairs = workload(8)
        a = workload_fingerprint(pairs, 4, 4, 4, "mram", True)
        b = workload_fingerprint(workload(8), 4, 4, 4, "mram", True)
        assert a == b

    def test_outcome_determining_inputs_change_it(self):
        pairs = workload(8)
        base = workload_fingerprint(pairs, 4, 4, 4, "mram", True)
        assert workload_fingerprint(pairs[:-1], 4, 4, 4, "mram", True) != base
        assert workload_fingerprint(pairs, 8, 4, 4, "mram", True) != base
        assert workload_fingerprint(pairs, 4, 8, 4, "mram", True) != base
        assert (
            workload_fingerprint(
                pairs, 4, 4, 4, "mram", True,
                fault_plan=FaultPlan(deaths=(DpuDeath(dpu_id=0),)),
                retry_policy=RetryPolicy(),
            )
            != base
        )
        assert (
            workload_fingerprint(
                pairs, 4, 4, 4, "mram", True, health_policy=HealthPolicy()
            )
            != base
        )

    def test_fingerprint_is_json_stable(self):
        doc = workload_fingerprint(
            workload(4), 4, 4, 4, "mram", False,
            fault_plan=FaultPlan(deaths=(DpuDeath(dpu_id=1),)),
            retry_policy=RetryPolicy(),
            health_policy=HealthPolicy(),
        )
        assert json.loads(json.dumps(doc)) == doc

    def test_placement_knobs_stay_out_of_the_fingerprint(self):
        """Regression pin: neither ``workers`` nor ``shards`` may ever
        enter the fingerprint.  Host parallelism and shard placement
        cannot change results, so a run journaled under one layout
        must resume under any other.  The shard count is still pinned
        against accidental mixing — but in the fleet manifest
        (``repro.pim.fleet/v1``), where
        :meth:`~repro.pim.fleet.FleetCoordinator.resume_run` checks it
        explicitly instead of through the fingerprint.
        """
        doc = workload_fingerprint(
            workload(4), 4, 4, 4, "mram", True,
            fault_plan=FaultPlan(deaths=(DpuDeath(dpu_id=1),)),
            retry_policy=RetryPolicy(),
            health_policy=HealthPolicy(),
        )
        assert "workers" not in doc
        assert "shards" not in doc

    def test_shards_live_in_the_fleet_manifest_instead(self, tmp_path):
        from repro.pim.config import PimSystemConfig
        from repro.pim.fleet import FleetCoordinator

        fleet = FleetCoordinator(
            PimSystemConfig(
                num_dpus=NUM_DPUS, num_ranks=1, tasklets=4,
                num_simulated_dpus=NUM_DPUS,
            ),
            KernelConfig(penalties=EditPenalties(), max_read_len=40, max_edits=4),
            shards=2,
        )
        journal = tmp_path / "journal"
        fleet.run(workload(12), pairs_per_round=4, journal=journal)
        manifest = FleetCoordinator.load_manifest(journal)
        assert manifest["shards"] == 2
        assert "shards" not in manifest["fingerprint"]
        assert "workers" not in manifest["fingerprint"]
        # and the manifest-level pin actually bites
        mismatched = FleetCoordinator(
            PimSystemConfig(
                num_dpus=NUM_DPUS, num_ranks=1, tasklets=4,
                num_simulated_dpus=NUM_DPUS,
            ),
            KernelConfig(penalties=EditPenalties(), max_read_len=40, max_edits=4),
            shards=4,
        )
        with pytest.raises(JournalError, match="shards"):
            mismatched.resume_run(journal, workload(12), pairs_per_round=4)


class TestResultRoundTrip:
    def test_plain_run_round_trips(self):
        run = small_system().align(workload(12), collect_results=True)
        rebuilt = result_from_dict(json.loads(json.dumps(result_to_dict(run))))
        assert result_to_dict(rebuilt) == result_to_dict(run)
        assert rebuilt.total_seconds == run.total_seconds
        assert [(i, s, str(c)) for i, s, c in rebuilt.results] == [
            (i, s, str(c)) for i, s, c in run.results
        ]

    def test_faulty_run_round_trips_recovery(self):
        plan = FaultPlan(deaths=(DpuDeath(dpu_id=1, attempts=(0,)),))
        run = small_system().align(
            workload(12), collect_results=True, fault_plan=plan
        )
        rebuilt = result_from_dict(json.loads(json.dumps(result_to_dict(run))))
        assert rebuilt.recovery is not None
        assert rebuilt.recovery.to_dict() == run.recovery.to_dict()
        assert rebuilt.recovery_overhead_seconds == run.recovery_overhead_seconds

    def test_malformed_record_raises_journal_error(self):
        with pytest.raises(JournalError, match="malformed round record"):
            result_from_dict({"num_pairs": 1})


class TestRunJournalFile:
    def fingerprint(self):
        return workload_fingerprint(workload(4), 4, NUM_DPUS, 4, "mram", True)

    def test_create_load_round_trip(self, tmp_path):
        path = tmp_path / "run.jsonl"
        journal = RunJournal.create(path, self.fingerprint())
        run = small_system().align(workload(4), collect_results=True)
        journal.append_round(0, 0, 4, run)
        loaded = RunJournal.load(path)
        assert loaded.header["schema"] == JOURNAL_SCHEMA
        assert loaded.fingerprint == self.fingerprint()
        assert list(loaded.rounds()) == [0]
        assert loaded.rounds()[0]["result"] == result_to_dict(run)

    def test_torn_trailing_line_is_dropped(self, tmp_path):
        path = tmp_path / "run.jsonl"
        journal = RunJournal.create(path, self.fingerprint())
        run = small_system().align(workload(4), collect_results=True)
        journal.append_round(0, 0, 4, run)
        with open(path, "a") as fh:
            fh.write('{"type": "round", "index": 1, "trunc')  # torn write
        loaded = RunJournal.load(path)
        assert list(loaded.rounds()) == [0]

    def test_malformed_middle_record_raises(self, tmp_path):
        path = tmp_path / "run.jsonl"
        RunJournal.create(path, self.fingerprint())
        with open(path, "a") as fh:
            fh.write("not json\n")
            fh.write('{"type": "round", "index": 0}\n')
        with pytest.raises(JournalError, match="malformed record at line 2"):
            RunJournal.load(path)

    def test_missing_empty_and_foreign_files_raise(self, tmp_path):
        with pytest.raises(JournalError, match="cannot read"):
            RunJournal.load(tmp_path / "absent.jsonl")
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        with pytest.raises(JournalError, match="empty"):
            RunJournal.load(empty)
        foreign = tmp_path / "foreign.jsonl"
        foreign.write_text('{"schema": "something/else"}\n')
        with pytest.raises(JournalError, match="not a repro.pim.journal/v1"):
            RunJournal.load(foreign)

    def test_fingerprint_mismatch_names_the_keys(self, tmp_path):
        path = tmp_path / "run.jsonl"
        journal = RunJournal.create(path, self.fingerprint())
        other = workload_fingerprint(workload(4), 2, NUM_DPUS, 4, "mram", True)
        with pytest.raises(JournalError, match="pairs_per_round"):
            journal.validate_fingerprint(other)

    def test_first_record_per_index_wins(self, tmp_path):
        path = tmp_path / "run.jsonl"
        journal = RunJournal.create(path, self.fingerprint())
        run = small_system().align(workload(4), collect_results=True)
        journal.append_round(0, 0, 4, run)
        doctored = dict(journal.records[0])
        doctored["size"] = 999
        journal._records.append(doctored)
        assert journal.rounds()[0]["size"] == 4


class TestDurableWrites:
    """The one atomic writer syncs the temp file before the rename and the
    directory after it, for journals and fleet manifests alike."""

    @pytest.fixture
    def synced(self, monkeypatch):
        real_fsync = os.fsync
        inodes: list[int] = []

        def recording_fsync(fd):
            inodes.append(os.fstat(fd).st_ino)
            real_fsync(fd)

        monkeypatch.setattr(os, "fsync", recording_fsync)
        return inodes

    def test_journal_append_syncs_file_and_directory(self, tmp_path, synced):
        path = tmp_path / "run.jsonl"
        journal = RunJournal.create(
            path, workload_fingerprint(workload(4), 4, NUM_DPUS, 4, "mram", True)
        )
        run = small_system().align(workload(4), collect_results=True)
        synced.clear()
        journal.append_round(0, 0, 4, run)
        assert synced == [os.stat(path).st_ino, os.stat(tmp_path).st_ino]

    def test_fleet_manifest_syncs_file_and_directory(self, tmp_path, synced):
        from repro.pim.fleet import MANIFEST_NAME, FleetCoordinator

        fleet = FleetCoordinator(small_system().config, small_system().kernel_config)
        journal_dir = tmp_path / "fleet"
        fleet.run(workload(8), pairs_per_round=4, journal=journal_dir)
        # the manifest is written before any shard journal
        assert synced[:2] == [
            os.stat(journal_dir / MANIFEST_NAME).st_ino,
            os.stat(journal_dir).st_ino,
        ]

    def test_failed_write_leaves_the_old_file_and_no_temp(
        self, tmp_path, monkeypatch
    ):
        path = tmp_path / "doc.txt"
        write_atomic(path, "old\n")

        def failing_replace(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", failing_replace)
        with pytest.raises(OSError, match="disk full"):
            write_atomic(path, "new\n")
        assert path.read_text() == "old\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["doc.txt"]


def truncate_after(path, k: int) -> None:
    """Simulate a crash: keep the header plus the first ``k`` records."""
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[: 1 + k]) + "\n")


class TestCrashResume:
    @pytest.mark.parametrize("workers", [0, 2])
    def test_resume_is_byte_identical(self, tmp_path, workers):
        """Acceptance pin: truncate the journal at a record boundary
        after round k, resume, and get byte-identical results, recovery
        report, and recovery-metric snapshots — sequential and pooled."""
        pairs = workload(30)
        plan = FaultPlan(seed=5, deaths=(DpuDeath(dpu_id=1, attempts=(0,)),))
        policy = RetryPolicy(max_attempts=2, backoff_base_s=1e-3)

        full_path = tmp_path / "full.jsonl"
        uninterrupted = BatchScheduler(small_system(workers=workers)).run(
            pairs, pairs_per_round=10, collect_results=True,
            fault_plan=plan, retry_policy=policy, journal=full_path,
        )
        assert uninterrupted.rounds_replayed == 0

        for k in range(3):  # crash after round k completes, k = 0..2
            crash_path = tmp_path / f"crash{k}.jsonl"
            crash_path.write_text(full_path.read_text())
            truncate_after(crash_path, k + 1)
            resumed = BatchScheduler(small_system(workers=workers)).resume_run(
                crash_path, pairs, pairs_per_round=10, collect_results=True,
                fault_plan=plan, retry_policy=policy,
            )
            assert resumed.rounds_replayed == k + 1
            assert run_key(resumed) == run_key(uninterrupted)
            # the resumed journal is rebuilt to the full three rounds
            assert crash_path.read_text() == full_path.read_text()
            # recovery-derived metrics agree exactly
            reg_a, reg_b = MetricsRegistry(), MetricsRegistry()
            uninterrupted.recovery.count_into(reg_a)
            resumed.recovery.count_into(reg_b)
            assert reg_a.snapshot() == reg_b.snapshot()

    def test_resume_with_health_reconstructs_quarantine(self, tmp_path):
        """Breaker decisions replay identically: a resume that replays
        the round that opened a breaker must quarantine the same DPU at
        the same modeled time in the remaining rounds."""
        pairs = workload(30)
        plan = FaultPlan(deaths=(DpuDeath(dpu_id=2),))
        policy = RetryPolicy(max_attempts=2, backoff_base_s=1e-3)
        health_policy = HealthPolicy(window=4, failure_threshold=2, cooldown_s=1e9)

        def fresh_health():
            return FleetHealth(NUM_DPUS, policy=health_policy)

        full_path = tmp_path / "full.jsonl"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegradedCapacity)
            h1 = fresh_health()
            uninterrupted = BatchScheduler(small_system()).run(
                pairs, pairs_per_round=10, collect_results=True,
                fault_plan=plan, retry_policy=policy, health=h1,
                journal=full_path,
            )
            crash_path = tmp_path / "crash.jsonl"
            crash_path.write_text(full_path.read_text())
            truncate_after(crash_path, 2)
            h2 = fresh_health()
            resumed = BatchScheduler(small_system()).resume_run(
                crash_path, pairs, pairs_per_round=10, collect_results=True,
                fault_plan=plan, retry_policy=policy, health=h2,
            )
        assert resumed.rounds_replayed == 2
        assert run_key(resumed) == run_key(uninterrupted)
        assert h1.states() == h2.states()
        assert h1.states()[2] == "open"
        assert [r.active_dpus for r in resumed.per_round] == [
            r.active_dpus for r in uninterrupted.per_round
        ]

    def test_resume_refuses_wrong_workload(self, tmp_path):
        pairs = workload(20)
        path = tmp_path / "run.jsonl"
        BatchScheduler(small_system()).run(
            pairs, pairs_per_round=10, collect_results=True, journal=path
        )
        with pytest.raises(JournalError, match="fingerprint"):
            BatchScheduler(small_system()).resume_run(
                path, workload(10), pairs_per_round=10, collect_results=True
            )

    def test_resume_refuses_out_of_range_round(self, tmp_path):
        pairs = workload(20)
        path = tmp_path / "run.jsonl"
        journal_run = BatchScheduler(small_system()).run(
            pairs, pairs_per_round=10, collect_results=True, journal=path
        )
        assert journal_run.schedule.rounds == 2
        doc = json.loads(path.read_text().splitlines()[1])
        doc["index"] = 7
        with open(path, "a") as fh:
            fh.write(json.dumps(doc) + "\n")
        with pytest.raises(JournalError, match="out of range"):
            BatchScheduler(small_system()).resume_run(
                path, pairs, pairs_per_round=10, collect_results=True
            )

    def test_fully_journaled_run_resumes_without_device_work(self, tmp_path):
        pairs = workload(20)
        path = tmp_path / "run.jsonl"
        first = BatchScheduler(small_system()).run(
            pairs, pairs_per_round=10, collect_results=True, journal=path
        )
        resumed = BatchScheduler(small_system()).resume_run(
            path, pairs, pairs_per_round=10, collect_results=True
        )
        assert resumed.rounds_replayed == 2
        assert run_key(resumed) == run_key(first)


class TestJournalCli:
    def test_pim_align_journal_and_resume(self, tmp_path, capsys):
        from repro.cli import main
        from repro.data.seqio import write_seq

        reads = tmp_path / "reads.seq"
        write_seq(reads, workload(24))
        journal = tmp_path / "run.jsonl"
        args = [
            "pim-align", "-i", str(reads), "--dpus", "4", "--tasklets", "2",
            "--pairs-per-round", "8", "--journal", str(journal),
        ]
        assert main(args) == 0
        full = journal.read_text()
        assert len(full.splitlines()) == 4  # header + 3 rounds
        capsys.readouterr()

        truncate_after(journal, 1)
        assert main(args + ["--resume"]) == 0
        out = capsys.readouterr().out
        assert "3 (1)" in out  # 3 rounds, 1 replayed
        assert journal.read_text() == full

    def test_resume_without_journal_errors(self, tmp_path, capsys):
        from repro.cli import main
        from repro.data.seqio import write_seq

        reads = tmp_path / "reads.seq"
        write_seq(reads, workload(4))
        assert main(["pim-align", "-i", str(reads), "--resume"]) == 1
        assert "--resume requires --journal" in capsys.readouterr().err
