"""The benchmark's own tests: ``python3 -m pytest perfbench`` from the root."""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

from checks import Checker  # noqa: E402
from harness import END_TO_END, PER_LAYER, execute, execute_traced, run_benchmark  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import (  # noqa: E402
    PENALTIES,
    WORKLOADS,
    make_workload,
    system_config,
)

from repro.data.generator import ReadPairGenerator  # noqa: E402
from repro.errors import CigarError, LayoutError  # noqa: E402
from repro.pim.kernel import KernelConfig  # noqa: E402
from repro.pim.faults import FaultPlan, MramCorruption  # noqa: E402
from repro.pim.system import PimSystem  # noqa: E402


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_run_emits_every_metric(name, trace):
    record = run_benchmark(name, seed=3, seconds=0.0, trace=trace, tiny=True)["record"]
    expected = PER_LAYER if trace else END_TO_END
    assert set(record) == {"correct", "attempted", "failed", "metrics"}
    assert record["correct"] is True
    assert record["failed"] == 0 and record["attempted"] >= 1
    assert list(record["metrics"]) == list(expected)
    for metric, entry in record["metrics"].items():
        assert entry["unit"] == expected[metric]
        assert isinstance(entry["value"], (int, float))
        assert math.isfinite(entry["value"]), metric
    if not trace:
        assert all(entry["value"] > 0 for entry in record["metrics"].values())


def test_modeled_metrics_repeat_exactly():
    runs = [
        run_benchmark("fleet_faults", seed=5, seconds=0.0, trace=False, tiny=True)
        for _ in range(2)
    ]
    modeled = [
        {k: v["value"] for k, v in r["record"]["metrics"].items() if k.startswith("modeled")}
        for r in runs
    ]
    assert modeled[0] == modeled[1]


def test_self_times_sum_to_root_on_synthetic_spans():
    tracer = Tracer()
    with tracer.span("root") as root:
        with tracer.span("child") as child:
            with tracer.span("grandchild") as grandchild:
                sum(range(20000))
            tracer.leaf("hot", 0.0005, quantity=8)
        with tracer.span("child") as sibling:
            sum(range(20000))
    own = tracer.self_times()
    total = sum(own.values()) + sum(tracer.totals.values())
    assert total == pytest.approx(root.wall_seconds, rel=1e-12, abs=1e-12)
    assert child.parent_id == root.span_id and grandchild.parent_id == child.span_id
    assert tracer.self_seconds("child") == pytest.approx(
        child.wall_seconds + sibling.wall_seconds - grandchild.wall_seconds - 0.0005
    )


def test_self_times_sum_to_root_on_a_traced_unit():
    workload = make_workload("offline_paper", seed=2, tiny=True)
    _, seconds, tracer, _ = execute_traced(workload, 0)
    (root,) = [s for s in tracer.spans if s.parent_id is None]
    total = sum(tracer.self_times().values()) + sum(tracer.totals.values())
    assert root.wall_seconds == seconds
    assert total == pytest.approx(seconds, rel=1e-9)
    names = {s.name for s in tracer.spans}
    assert {"pim.system", "pim.parallel.job", "pim.kernel", "core.backtrace"} <= names
    assert tracer.counts["pim.dma"] > 0 and tracer.counts["pim.allocator"] > 0


def test_serve_spans_carry_request_ids():
    workload = make_workload("serve_trickle", seed=2, tiny=True)
    _, _, tracer, inst = execute_traced(workload, 0)
    submits = tracer.named("serve.service")
    assert len(submits) == workload.config.requests
    assert all("," not in s.labels["request"] for s in submits)
    by_id = {s.span_id: s for s in tracer.spans}
    dispatched = tracer.named("serve.dispatcher")
    assert dispatched and all(s.labels.get("request") for s in dispatched)
    # every span below a dispatch belongs to the dispatch's requests
    for span in tracer.spans:
        parent = by_id.get(span.parent_id)
        if parent is not None and parent.name == "serve.dispatcher":
            assert span.labels.get("request") == parent.labels["request"]
    assert len(inst.batches) == len(dispatched)


def test_planted_bad_results_are_counted_as_failed():
    workload = make_workload("offline_paper", seed=4, tiny=True)
    result, _ = execute(workload, 0)
    checker = Checker(PENALTIES)
    pairs, answers = result.pairs, result.answers
    assert checker.count_failures(pairs, answers) == 0
    score, cigar = answers[0]
    wrong_score = list(answers)
    wrong_score[0] = (score + 1, cigar)
    assert checker.count_failures(pairs, wrong_score) == 1
    missing = list(answers)
    missing[1] = None
    assert checker.count_failures(pairs, missing) == 1
    other = answers[2]
    swapped = list(answers)
    swapped[3] = other  # a valid CIGAR of another pair does not replay
    assert checker.count_failures(pairs, swapped) == 1
    # a calm reference and cached/fresh groups catch disagreements too
    assert checker.count_failures(pairs, answers, reference=wrong_score) == 1
    # a cached answer that differs from its fresh one fails even when the
    # fresh one is the wrong one
    twice = [pairs[0], pairs[0]]
    assert checker.count_failures(
        twice, [wrong_score[0], answers[0]], same_answer_groups=[[0, 1]]
    ) == 2
    assert checker.planted_check(pairs, answers)


@pytest.mark.xfail(
    strict=True,
    raises=CigarError,
    reason="a flipped CIGAR-op byte in a result record escapes the pull as an "
    "untyped CigarError instead of a retryable CorruptResultError",
)
def test_corrupted_output_cigar_op_is_retried():
    """Why ``fleet_faults`` corrupts an input record, not an output one."""
    pairs = ReadPairGenerator(length=100, error_rate=0.04, seed=1).pairs(8)
    config = KernelConfig(max_read_len=100, max_edits=4, engine="vector")
    system = PimSystem(system_config(2), config)
    plan = FaultPlan(seed=4, corruptions=(MramCorruption(0, region="output", record=0),))
    run = system.align(pairs, fault_plan=plan)
    assert run.recovery is not None and run.recovery.all_ok


@pytest.mark.xfail(
    strict=True,
    raises=LayoutError,
    reason="KernelConfig sizes the CIGAR slot as 2 * max_edits + 3 runs, but an "
    "alignment within max_score can need more runs than that",
)
def test_cigar_slot_holds_every_in_budget_alignment():
    """Why the workloads run with max_edits=7 rather than the E=4% budget."""
    pair = ReadPairGenerator(length=100, error_rate=0.04, seed=2610620699).pairs(318)[-1]
    config = KernelConfig(max_read_len=100, max_edits=4, engine="vector")
    run = PimSystem(system_config(2), config).align([pair], verify=True)
    assert run.results[0][1] == 32


def test_missing_sources_exit_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    start = perf_counter()
    done = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "offline_paper",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert perf_counter() - start < 180
    for line in done.stdout.splitlines():
        with pytest.raises(json.JSONDecodeError):
            json.loads(line)


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS)
