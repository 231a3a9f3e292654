"""Tests for the WFA DPU kernel: planning, execution, fidelity."""

import pytest

from repro.baselines.gotoh import gotoh_score
from repro.core.penalties import AffinePenalties, EditPenalties
from repro.data.generator import ReadPairGenerator
from repro.errors import KernelError
from repro.pim.config import DpuConfig
from repro.pim.dpu import Dpu
from repro.pim.kernel import (
    KernelConfig,
    WfaDpuKernel,
    max_supported_tasklets,
    per_edit_cost,
)
from repro.pim.layout import MramLayout
from repro.pim.transfer import HostTransferEngine
from repro.pim.config import HostTransferConfig

PEN = AffinePenalties(4, 6, 2)


def setup_dpu(pairs, kc: KernelConfig, tasklets: int = 4, policy: str = "mram"):
    """Build a DPU with pushed inputs plus the layout and assignments."""
    kernel = WfaDpuKernel(kc)
    dpu = Dpu(DpuConfig())
    layout = MramLayout.plan(
        num_pairs=len(pairs),
        max_pattern_len=kc.max_seq_len,
        max_text_len=kc.max_seq_len,
        max_cigar_ops=kc.max_cigar_ops,
        tasklets=tasklets,
        metadata_bytes_per_tasklet=(
            kc.metadata_peak_bytes() if policy == "mram" else 0
        ),
    )
    transfer = HostTransferEngine(HostTransferConfig())
    transfer.push_batch(dpu, layout, pairs)
    assignments = [list(range(t, len(pairs), tasklets)) for t in range(tasklets)]
    return kernel, dpu, layout, assignments


class TestKernelConfig:
    def test_max_score_bound(self):
        kc = KernelConfig(penalties=PEN, max_edits=2)
        assert kc.max_score == 2 * max(4, 8) == 16
        assert KernelConfig(penalties=EditPenalties(), max_edits=3).max_score == 3

    def test_per_edit_cost(self):
        assert per_edit_cost(PEN) == 8
        assert per_edit_cost(EditPenalties()) == 1

    def test_derived_sizes(self):
        kc = KernelConfig(penalties=PEN, max_edits=2)
        assert kc.max_wavefront_width == 2 * 16 + 3
        assert kc.max_cigar_ops == 7
        assert kc.wavefront_components == 3
        assert kc.metadata_peak_bytes() > 0

    def test_validation(self):
        with pytest.raises(KernelError):
            KernelConfig(max_read_len=0)
        with pytest.raises(KernelError):
            KernelConfig(max_edits=-1)


class TestWramPlanning:
    def test_mram_policy_admits_all_24_tasklets(self):
        kernel = WfaDpuKernel(KernelConfig(penalties=PEN, max_edits=4))
        assert max_supported_tasklets(kernel, DpuConfig(), "mram") == 24

    def test_wram_policy_caps_tasklets(self):
        """The paper's WRAM-pressure argument, quantified."""
        kernel = WfaDpuKernel(KernelConfig(penalties=PEN, max_edits=4))
        cap = max_supported_tasklets(kernel, DpuConfig(), "wram")
        assert 1 <= cap < 8

    def test_wram_cap_shrinks_with_error_budget(self):
        caps = [
            max_supported_tasklets(
                WfaDpuKernel(KernelConfig(penalties=PEN, max_edits=e)),
                DpuConfig(),
                "wram",
            )
            for e in (1, 2, 4, 8)
        ]
        assert caps == sorted(caps, reverse=True)
        assert caps[0] > caps[-1]

    def test_plan_rejects_impossible(self):
        kernel = WfaDpuKernel(KernelConfig(penalties=PEN, max_edits=40))
        with pytest.raises(KernelError, match="WRAM"):
            kernel.plan_wram(DpuConfig(), 24, "wram")

    def test_plan_rejects_bad_tasklets(self):
        kernel = WfaDpuKernel(KernelConfig())
        with pytest.raises(KernelError):
            kernel.plan_wram(DpuConfig(), 0, "mram")
        with pytest.raises(KernelError):
            kernel.plan_wram(DpuConfig(), 25, "mram")
        with pytest.raises(KernelError):
            kernel.plan_wram(DpuConfig(), 4, "cache")

    def test_plan_fits_slice(self):
        kernel = WfaDpuKernel(KernelConfig(penalties=PEN, max_edits=4))
        plan = kernel.plan_wram(DpuConfig(), 16, "mram")
        assert plan.used_bytes <= plan.slice_bytes
        assert plan.staging_buffers == 7
        assert plan.staging_buffer_bytes % 8 == 0


class TestKernelExecution:
    def test_results_match_gotoh(self):
        pairs = ReadPairGenerator(length=80, error_rate=0.04, seed=2).pairs(24)
        kc = KernelConfig(penalties=PEN, max_read_len=80, max_edits=4)
        kernel, dpu, layout, assignments = setup_dpu(pairs, kc)
        stats, results = kernel.run(
            dpu, layout, assignments, "mram", collect_results=True
        )
        assert sum(s.pairs_done for s in stats) == 24
        for index, res in results:
            pair = pairs[index]
            assert res.score == gotoh_score(pair.pattern, pair.text, PEN)
            res.cigar.validate(pair.pattern, pair.text)

    def test_results_written_to_mram(self):
        pairs = ReadPairGenerator(length=50, error_rate=0.02, seed=3).pairs(8)
        kc = KernelConfig(penalties=PEN, max_read_len=50, max_edits=1)
        kernel, dpu, layout, assignments = setup_dpu(pairs, kc, tasklets=2)
        kernel.run(dpu, layout, assignments, "mram")
        for i, pair in enumerate(pairs):
            record = dpu.mram.read(layout.result_addr(i), layout.result_record_size)
            score, cigar = layout.unpack_result(record)
            assert score == gotoh_score(pair.pattern, pair.text, PEN)
            cigar.validate(pair.pattern, pair.text)

    def test_score_only_mode(self):
        pairs = ReadPairGenerator(length=60, error_rate=0.05, seed=4).pairs(6)
        kc = KernelConfig(penalties=PEN, max_read_len=60, max_edits=3, traceback=False)
        kernel, dpu, layout, assignments = setup_dpu(pairs, kc, tasklets=2)
        stats, results = kernel.run(
            dpu, layout, assignments, "mram", collect_results=True
        )
        for index, res in results:
            assert res.cigar is None
            pair = pairs[index]
            assert res.score == gotoh_score(pair.pattern, pair.text, PEN)

    def test_out_of_budget_pair_raises(self):
        pairs = [ReadPairGenerator(length=40, error_rate=0.0, seed=1).pair()]
        # Corrupt the pair to exceed the kernel's edit budget.
        from repro.data.generator import ReadPair

        bad = ReadPair(pattern="A" * 40, text="T" * 40)
        kc = KernelConfig(penalties=PEN, max_read_len=40, max_edits=1)
        kernel, dpu, layout, assignments = setup_dpu([bad], kc, tasklets=1)
        with pytest.raises(KernelError, match="score bound"):
            kernel.run(dpu, layout, assignments, "mram")

    def test_stats_accumulate(self):
        pairs = ReadPairGenerator(length=60, error_rate=0.03, seed=5).pairs(12)
        kc = KernelConfig(penalties=PEN, max_read_len=60, max_edits=2)
        kernel, dpu, layout, assignments = setup_dpu(pairs, kc, tasklets=3)
        stats, _ = kernel.run(dpu, layout, assignments, "mram")
        for s in stats:
            assert s.instructions > 0
            assert s.dma_cycles > 0
            assert s.dma_bytes > 0
            assert s.cells_computed > 0

    def test_mram_policy_moves_more_dma_bytes_than_wram(self):
        pairs = ReadPairGenerator(length=60, error_rate=0.05, seed=6).pairs(8)
        kc = KernelConfig(penalties=PEN, max_read_len=60, max_edits=3)
        k1, d1, l1, a1 = setup_dpu(pairs, kc, tasklets=2, policy="mram")
        s_mram, _ = k1.run(d1, l1, a1, "mram")
        k2, d2, l2, a2 = setup_dpu(pairs, kc, tasklets=2, policy="wram")
        s_wram, _ = k2.run(d2, l2, a2, "wram")
        assert sum(t.dma_bytes for t in s_mram) > sum(t.dma_bytes for t in s_wram)
        # functional outcome identical either way
        for dpu, layout in ((d1, l1), (d2, l2)):
            score, _ = layout.unpack_result(
                dpu.mram.read(layout.result_addr(0), layout.result_record_size)
            )
            assert score == gotoh_score(pairs[0].pattern, pairs[0].text, PEN)

    def test_edit_metric_kernel(self):
        pairs = ReadPairGenerator(length=50, error_rate=0.04, seed=7).pairs(6)
        kc = KernelConfig(
            penalties=EditPenalties(), max_read_len=50, max_edits=2
        )
        kernel, dpu, layout, assignments = setup_dpu(pairs, kc, tasklets=2)
        _, results = kernel.run(dpu, layout, assignments, "mram", collect_results=True)
        from repro.baselines.bitparallel import levenshtein_dp

        for index, res in results:
            assert res.score == levenshtein_dp(
                pairs[index].pattern, pairs[index].text
            )

    def test_adaptive_kernel_mode(self):
        """The DPU kernel with WFA-Adapt: results remain valid CIGARs."""
        pairs = ReadPairGenerator(length=80, error_rate=0.03, seed=11).pairs(8)
        kc = KernelConfig(penalties=PEN, max_read_len=80, max_edits=6, adaptive=True)
        kernel, dpu, layout, assignments = setup_dpu(pairs, kc, tasklets=2)
        _, results = kernel.run(dpu, layout, assignments, "mram", collect_results=True)
        for index, res in results:
            pair = pairs[index]
            exact = gotoh_score(pair.pattern, pair.text, PEN)
            assert res.score >= exact
            assert not res.exact
            res.cigar.validate(pair.pattern, pair.text)

    def test_chunked_staging_same_results_more_transfers(self):
        pairs = ReadPairGenerator(length=70, error_rate=0.05, seed=10).pairs(8)
        kc_whole = KernelConfig(penalties=PEN, max_read_len=70, max_edits=4)
        kc_chunk = KernelConfig(
            penalties=PEN, max_read_len=70, max_edits=4, staging_chunk_bytes=32
        )
        k1, d1, l1, a1 = setup_dpu(pairs, kc_whole, tasklets=2)
        s1, r1 = k1.run(d1, l1, a1, "mram", collect_results=True)
        kernel2 = WfaDpuKernel(kc_chunk)
        d2 = Dpu(DpuConfig())
        HostTransferEngine(HostTransferConfig()).push_batch(d2, l1, pairs)
        s2, r2 = kernel2.run(d2, l1, a1, "mram", collect_results=True)
        # identical functional results
        assert [(i, res.score) for i, res in r1] == [(i, res.score) for i, res in r2]
        # same bytes moved, but more (smaller) transfers -> more DMA cycles
        assert sum(t.dma_bytes for t in s2) == sum(t.dma_bytes for t in s1)
        assert d2.dma.transfers > d1.dma.transfers
        assert sum(t.dma_cycles for t in s2) > sum(t.dma_cycles for t in s1)

    @pytest.mark.parametrize("chunk", [None, 32])
    def test_tasklet_dma_transfers_count_engine_transfers(self, chunk):
        # chunked staging splits each stage into several DMA transfers;
        # the tasklet totals count transfers, not stages
        pairs = ReadPairGenerator(length=70, error_rate=0.05, seed=10).pairs(8)
        kc = KernelConfig(
            penalties=PEN, max_read_len=70, max_edits=4, staging_chunk_bytes=chunk
        )
        kernel, dpu, layout, assignments = setup_dpu(pairs, kc, tasklets=2)
        stats, _ = kernel.run(dpu, layout, assignments, "mram")
        assert sum(t.dma_transfers for t in stats) == dpu.dma.transfers
        assert dpu.dma.transfers == (904 if chunk is None else 1964)

    def test_chunked_staging_shrinks_wram_plan(self):
        kc_whole = KernelConfig(penalties=PEN, max_read_len=1000, max_edits=20)
        kc_chunk = KernelConfig(
            penalties=PEN,
            max_read_len=1000,
            max_edits=20,
            staging_chunk_bytes=256,
        )
        whole_cap = max_supported_tasklets(WfaDpuKernel(kc_whole), DpuConfig(), "mram")
        chunk_cap = max_supported_tasklets(WfaDpuKernel(kc_chunk), DpuConfig(), "mram")
        assert chunk_cap > whole_cap

    def test_invalid_chunk_sizes_rejected(self):
        for bad in (4, 12, 0, 4096):
            with pytest.raises(KernelError):
                KernelConfig(penalties=PEN, staging_chunk_bytes=bad)

    def test_layout_cigar_slot_too_small_rejected(self):
        pairs = ReadPairGenerator(length=40, seed=8).pairs(2)
        kc = KernelConfig(penalties=PEN, max_read_len=40, max_edits=4)
        kernel = WfaDpuKernel(kc)
        dpu = Dpu(DpuConfig())
        layout = MramLayout.plan(
            num_pairs=2,
            max_pattern_len=48,
            max_text_len=48,
            max_cigar_ops=2,  # smaller than the kernel may emit
            tasklets=1,
            metadata_bytes_per_tasklet=kc.metadata_peak_bytes(),
        )
        with pytest.raises(KernelError, match="CIGAR"):
            kernel.run(dpu, layout, [[0, 1]], "mram")
