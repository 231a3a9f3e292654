"""The kernel's closed-form metadata DMA charging, checked against a replay.

Under the ``"mram"`` policy the kernel charges each alignment's metadata
staging in closed form (:meth:`~repro.pim.dma.DmaEngine.charge_staged`):
transfers, bytes and cycles per wavefront, with no bytes moved.  The
reference below is the per-transfer replay that closed form replaced:
every staging goes through ``DmaEngine.read/write/read_large/write_large``
and copies (meaningless) staging-buffer bytes through the simulated MRAM
and WRAM.  Both must leave every modeled and observable effect equal:
per-tasklet stats (floats bit for bit), DMA engine counters, metadata
arena marks, trace events, results, and the failure paths.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import affine_penalties, linear_penalties, similar_pair
from repro.core.penalties import (
    AffinePenalties,
    EditPenalties,
    LinearPenalties,
    TwoPieceAffinePenalties,
)
from repro.data.generator import ReadPair, ReadPairGenerator
from repro.errors import KernelError, ReproError, TaskletStallError
from repro.pim.config import DpuConfig, DpuTimingConfig, HostTransferConfig
from repro.pim.dma import DmaEngine, aligned_size
from repro.pim.dpu import Dpu
from repro.pim.faults import FaultInjector, FaultPlan, RetryPolicy, TaskletStall
from repro.pim.kernel import KernelConfig, WfaDpuKernel
from repro.pim.layout import MramLayout
from repro.pim.memory import Mram, Wram
from repro.pim.system import PimSystem, PimSystemConfig
from repro.pim.trace import KernelTrace
from repro.pim.transfer import HostTransferEngine

PEN = AffinePenalties(4, 6, 2)


def _stage(dma, stage, mram_addr, nbytes, chunk, write) -> float:
    """Move ``nbytes`` between the staging buffer and MRAM, transfer by transfer."""
    if chunk is None:
        if write:
            return dma.write_large(stage, mram_addr, nbytes)
        return dma.read_large(mram_addr, stage, nbytes)
    cycles = 0.0
    done = 0
    while done < nbytes:
        piece = min(chunk, nbytes - done)
        if write:
            cycles += dma.write(stage, mram_addr + done, piece)
        else:
            cycles += dma.read(mram_addr + done, stage, piece)
        done += piece
    return cycles


class PerTransferKernel(WfaDpuKernel):
    """The kernel with the byte-moving, per-transfer metadata replay.

    Stage-in counts are written as a table of recurrence-source offsets
    (the kernel computes them case by case), and the per-tasklet
    transfer count takes the engine's real transfers per stage.
    """

    def _replay_metadata(self, dpu, ctx, counters, metadata_policy):
        log = counters.wavefront_log
        if not log:
            return
        if metadata_policy == "wram":
            for _score, _comp, lo, hi in log:
                ctx.allocator.alloc_metadata(4 * (hi - lo + 1))
            return
        computed = {score for score, _c, _l, _h in log}
        pen = self.config.penalties
        if isinstance(pen, TwoPieceAffinePenalties):
            sources = {
                "M": (
                    pen.mismatch,
                    pen.gap_open1 + pen.gap_extend1,
                    pen.gap_open2 + pen.gap_extend2,
                ),
                "I": (pen.gap_extend1,),
                "D": (pen.gap_extend1,),
                "I2": (pen.gap_extend2,),
                "D2": (pen.gap_extend2,),
            }
        elif isinstance(pen, AffinePenalties):
            sources = {
                "M": (pen.mismatch, pen.gap_open + pen.gap_extend),
                "I": (pen.gap_extend,),
                "D": (pen.gap_extend,),
            }
        elif isinstance(pen, LinearPenalties):
            sources = {"M": (pen.mismatch, pen.indel)}
        else:
            sources = {"M": (1,)}
        stage = ctx.staging_buffers[0] if ctx.staging_buffers else ctx.input_buffer
        chunk = self.config.staging_chunk_bytes
        for score, comp, lo, hi in log:
            nbytes = aligned_size(4 * (hi - lo + 1))
            alloc = ctx.allocator.alloc_metadata(nbytes)
            reads = sum(score + d in computed for d in sources[comp])
            if self.config.traceback:
                reads += 1
            for use in range(1 + reads):
                before = dpu.dma.transfers
                cycles = _stage(dpu.dma, stage, alloc.addr, nbytes, chunk, use == 0)
                ctx.stats.add_dma(cycles, nbytes, dpu.dma.transfers - before)


class _RecordsArenas:
    """Keeps each tasklet's allocator so its arena marks can be compared."""

    def _replay_metadata(self, dpu, ctx, counters, metadata_policy):
        self.allocators[ctx.tasklet_id] = ctx.allocator
        super()._replay_metadata(dpu, ctx, counters, metadata_policy)


class ClosedForm(_RecordsArenas, WfaDpuKernel):
    pass


class Reference(_RecordsArenas, PerTransferKernel):
    pass


def _layout(pairs, kc: KernelConfig, tasklets: int, policy: str) -> MramLayout:
    return MramLayout.plan(
        num_pairs=len(pairs),
        max_pattern_len=kc.max_seq_len,
        max_text_len=kc.max_seq_len,
        max_cigar_ops=kc.max_cigar_ops,
        tasklets=tasklets,
        metadata_bytes_per_tasklet=kc.metadata_peak_bytes() if policy == "mram" else 0,
    )


def _floats_as_bits(values: tuple) -> tuple:
    return tuple(v.hex() if isinstance(v, float) else v for v in values)


def _launch(kernel_cls, pairs, kc, tasklets, policy, layout=None, dpu_config=None):
    """One kernel launch; returns every observable effect, or the error."""
    kernel = kernel_cls(kc)
    kernel.allocators = {}
    layout = layout if layout is not None else _layout(pairs, kc, tasklets, policy)
    dpu = Dpu(dpu_config or DpuConfig())
    HostTransferEngine(HostTransferConfig()).push_batch(dpu, layout, pairs)
    assignments = [list(range(t, len(pairs), tasklets)) for t in range(tasklets)]
    trace = KernelTrace()
    dma = dpu.dma
    try:
        stats, results = kernel.run(
            dpu, layout, assignments, policy, collect_results=True, trace=trace
        )
    except ReproError as exc:
        # A failed launch is abandoned with its tasklet contexts: only
        # the error, the engine counters and the trace remain to compare.
        outcome = (type(exc).__name__, str(exc))
        arenas = None
    else:
        outcome = (
            [_floats_as_bits(astuple(s)) for s in stats],
            [(i, r.score, str(r.cigar), r.pattern_start, r.text_start)
             for i, r in results],
            dpu.mram.read(layout.output_base, len(pairs) * layout.result_record_size),
        )
        arenas = {
            t: [
                (arena.cursor, arena.high_water, arena.allocations)
                for arena in (a.mram, a.wram)
            ]
            for t, a in kernel.allocators.items()
        }
    events = [_floats_as_bits(astuple(e)) for e in trace.events]
    counters = (dma.transfers, dma.bytes_moved, dma.cycles.hex())
    return outcome, counters, arenas, events


penalties = st.one_of(
    affine_penalties,
    linear_penalties,
    st.just(EditPenalties()),
    st.just(TwoPieceAffinePenalties()),
    st.just(TwoPieceAffinePenalties(3, 4, 3, 10, 1)),
)


@pytest.mark.parametrize(
    "policy, chunk",
    [("mram", None), ("mram", 8), ("mram", 32), ("mram", 2048), ("wram", None)],
)
@settings(max_examples=15, deadline=None)
@given(
    raw_pairs=st.lists(similar_pair(max_len=40, max_edits=5), min_size=1, max_size=5),
    pen=penalties,
    traceback=st.booleans(),
    engine=st.sampled_from(["scalar", "vector"]),
    tasklets=st.integers(min_value=1, max_value=3),
)
def test_closed_form_matches_per_transfer_replay(
    policy, chunk, raw_pairs, pen, traceback, engine, tasklets
):
    pairs = [ReadPair(p, t) for p, t in raw_pairs]
    kc = KernelConfig(
        penalties=pen,
        max_read_len=max(1, *(p.max_length() for p in pairs)),
        max_edits=6,
        traceback=traceback,
        staging_chunk_bytes=chunk,
        engine=engine,
    )
    expected = _launch(Reference, pairs, kc, tasklets, policy)
    assert _launch(ClosedForm, pairs, kc, tasklets, policy) == expected


@pytest.mark.parametrize("chunk", [None, 8, 32, 2048])
@pytest.mark.parametrize("engine", ["scalar", "vector"])
def test_closed_form_matches_replay_on_generated_reads(chunk, engine):
    pairs = ReadPairGenerator(length=70, error_rate=0.05, seed=10).pairs(8)
    kc = KernelConfig(
        penalties=PEN, max_read_len=70, max_edits=4,
        staging_chunk_bytes=chunk, engine=engine,
    )
    expected = _launch(Reference, pairs, kc, 2, "mram")
    assert expected[2] is not None  # a successful launch, not a shared error
    assert _launch(ClosedForm, pairs, kc, 2, "mram") == expected


# -- failure paths, pinned to the strings the per-transfer replay raised ------

FAIL_PAIRS = ReadPairGenerator(length=40, error_rate=0.1, seed=5).pairs(4)
CHUNKED = KernelConfig(
    penalties=PEN, max_read_len=40, max_edits=4, staging_chunk_bytes=8
)


def _stalled_launch(kernel_cls, budget: int):
    layout = _layout(FAIL_PAIRS, CHUNKED, 1, "mram")
    dpu = Dpu(DpuConfig())
    HostTransferEngine(HostTransferConfig()).push_batch(dpu, layout, FAIL_PAIRS)
    plan = FaultPlan(stalls=(TaskletStall(dpu_id=0, dma_budget=budget),))
    FaultInjector(plan, dpu_id=0).attach_dma(dpu)
    with pytest.raises(TaskletStallError) as info:
        kernel_cls(CHUNKED).run(dpu, layout, [list(range(len(FAIL_PAIRS)))], "mram")
    dma = dpu.dma
    return str(info.value), (dma.transfers, dma.bytes_moved, dma.cycles.hex())


class TestFailurePaths:
    def test_stall_mid_metadata_stage(self):
        # transfer 1001 is the third of a seven-transfer metadata stage
        message, counters = _stalled_launch(WfaDpuKernel, 1000)
        assert message == (
            "DPU 0: tasklet stalled: DMA transfer 1001 exceeds budget 1000 (attempt 0)"
        )
        assert counters == (1000, 8400, "0x1.42edfffffffe4p+16")
        assert _stalled_launch(PerTransferKernel, 1000) == (message, counters)

    @pytest.mark.parametrize("budget", [0, 1, 37, 300, 999, 1001])
    def test_stall_trips_at_the_same_transfer_as_the_replay(self, budget):
        assert _stalled_launch(WfaDpuKernel, budget) == _stalled_launch(
            PerTransferKernel, budget
        )

    def test_stall_recovery_report(self):
        system = PimSystem(
            PimSystemConfig(
                num_dpus=4, num_ranks=1, tasklets=2, num_simulated_dpus=4, workers=1
            ),
            kernel_config=CHUNKED,
        )
        pairs = ReadPairGenerator(length=40, error_rate=0.1, seed=6).pairs(16)
        result = system.align(
            pairs,
            fault_plan=FaultPlan(
                seed=3,
                stalls=(TaskletStall(dpu_id=1, dma_budget=1000, attempts=(0,)),),
            ),
            retry_policy=RetryPolicy(max_attempts=2),
        )
        clean = {
            "abandoned": False, "attempts": 1, "attempts_log": [],
            "backoff_seconds": 0.0, "errors": [], "num_pairs": 4,
            "watchdog_seconds": 0.0,
        }
        jobs = [
            dict(clean, dpu_id=d, final_placement=d, placements=[d]) for d in range(4)
        ]
        jobs[1].update(
            attempts=2,
            attempts_log=[[1, "TaskletStallError"]],
            backoff_seconds=0.001,
            errors=["TaskletStallError"],
            watchdog_seconds=0.005,
        )
        assert result.recovery.to_dict() == {
            "abandoned_pairs": [],
            "all_ok": True,
            "backoff_seconds": 0.001,
            "completed_pairs": list(range(16)),
            "faults_seen": 1,
            "jobs": jobs,
            "rerun_pairs": [1, 5, 9, 13],
            "schema": "repro.pim.recovery/v1",
            "watchdog_seconds": 0.005,
        }

    def test_metadata_region_one_block_too_small(self):
        need = 1568  # the largest per-pair metadata footprint of FAIL_PAIRS
        kc = KernelConfig(penalties=PEN, max_read_len=40, max_edits=4)
        layout = MramLayout.plan(
            num_pairs=len(FAIL_PAIRS),
            max_pattern_len=kc.max_seq_len,
            max_text_len=kc.max_seq_len,
            max_cigar_ops=kc.max_cigar_ops,
            tasklets=2,
            metadata_bytes_per_tasklet=need - 8,
        )
        outcome, counters, _, _ = _launch(
            ClosedForm, FAIL_PAIRS, kc, 2, "mram", layout=layout
        )
        assert outcome == (
            "KernelError",
            "metadata arena overflow on pair 3 (policy='mram'): "
            "mram arena exhausted: need 88 bytes, 80 of 1560 free",
        )
        assert counters == (339, 14928, "0x1.1aa6cccccccc8p+15")
        assert _launch(Reference, FAIL_PAIRS, kc, 2, "mram", layout=layout)[:2] == (
            outcome,
            counters,
        )

    def test_wram_arena_overflow(self):
        @dataclass(frozen=True)
        class Underplanned(KernelConfig):
            """Plans WRAM as if metadata needed one block."""

            def metadata_peak_bytes(self) -> int:
                return 8

        kc = Underplanned(penalties=PEN, max_read_len=40, max_edits=4)
        kernel = WfaDpuKernel(kc)
        layout = _layout(FAIL_PAIRS, kc, 8, "wram")
        dpu = Dpu(DpuConfig(wram_bytes=8192))
        HostTransferEngine(HostTransferConfig()).push_batch(dpu, layout, FAIL_PAIRS)
        assignments = [list(range(len(FAIL_PAIRS)))] + [[] for _ in range(7)]
        with pytest.raises(KernelError) as info:
            kernel.run(dpu, layout, assignments, "wram")
        assert str(info.value) == (
            "metadata arena overflow on pair 0 (policy='wram'): "
            "wram arena exhausted: need 72 bytes, 16 of 1024 free"
        )



# -- faults inside charge_staged, against issuing the same transfers -----------


def _engine_outcome(charge, hooked: bool, chunk, mram_addr: int, wram_addr: int):
    dma = DmaEngine(Mram(4096), Wram(1024), DpuTimingConfig())
    ticks: list[int] = []
    if hooked:
        dma.fault_hook = ticks.append
    plan = dma.stage_plan(48, chunk)
    blocks = [(0, plan, 2), (mram_addr, plan, 3)]
    try:
        charge(dma, wram_addr, blocks, chunk)
    except ReproError as exc:
        error = (type(exc).__name__, str(exc))
    else:
        error = None
    return error, ticks, dma.transfers, dma.bytes_moved, dma.cycles.hex()


def _issue_each(dma, wram_addr, blocks, chunk):
    for mram_addr, plan, uses in blocks:
        for use in range(uses):
            _stage(dma, wram_addr, mram_addr, plan.nbytes, chunk, use == 0)


@pytest.mark.parametrize("hooked", [False, True])
@pytest.mark.parametrize("chunk", [None, 8, 32])
@pytest.mark.parametrize(
    "mram_addr, wram_addr",
    [
        (64, 0), (68, 0), (64, 4), (4072, 0), (-8, 0),
        (64, 1008), (64, -8), (4072, 1008),
    ],
)
def test_charge_staged_faults_like_read_and_write(hooked, chunk, mram_addr, wram_addr):
    closed = _engine_outcome(
        lambda dma, wram, blocks, _chunk: dma.charge_staged(wram, blocks),
        hooked, chunk, mram_addr, wram_addr,
    )
    assert closed == _engine_outcome(_issue_each, hooked, chunk, mram_addr, wram_addr)
    fits = mram_addr == 64 and (wram_addr == 0 or (wram_addr == 1008 and chunk == 8))
    assert (closed[0] is None) == fits


@pytest.mark.parametrize("chunk", [None, 8])
def test_metadata_region_past_the_end_of_mram(chunk):
    kc = KernelConfig(
        penalties=PEN, max_read_len=40, max_edits=4, staging_chunk_bytes=chunk
    )
    layout = _layout(FAIL_PAIRS, kc, 2, "mram")
    small = DpuConfig(mram_bytes=layout.metadata_base + 1000)
    expected = _launch(Reference, FAIL_PAIRS, kc, 2, "mram", dpu_config=small)
    assert expected[0][0] == "MemoryFault"
    assert _launch(ClosedForm, FAIL_PAIRS, kc, 2, "mram", dpu_config=small) == expected
