"""The MRAM<->WRAM DMA engine of one DPU.

UPMEM tasklets cannot load/store MRAM directly: they issue DMA transfers
(``mram_read``/``mram_write`` in the SDK) with hard restrictions that this
model enforces exactly:

* the MRAM address must be **8-byte aligned**;
* the WRAM address must be 8-byte aligned (the SDK requires the buffer
  to be 8-byte aligned for correctness at all sizes);
* the size must be a **multiple of 8** between **8 and 2048** bytes.

These restrictions are the reason the paper replaces WFA's allocator: a
malloc that hands out unaligned, oddly-sized blocks cannot be staged to
MRAM.  :meth:`DmaEngine.read`/:meth:`DmaEngine.write` raise
:class:`AlignmentFault` on any violation — the simulator fails the same
way the hardware (or its simulator) would.

Each DPU has a single DMA engine shared by all tasklets, so DMA cycles
are accumulated globally per DPU (and per tasklet for occupancy
accounting); the DPU timing model treats total DMA cycles as one of its
bounding terms.

The kernel's metadata staging moves bytes nothing reads, so it is
charged without moving them: :meth:`DmaEngine.stage_plan` works out the
transfers of a staged size once, and :meth:`DmaEngine.charge_staged`
charges them with the same counters, checks and fault-hook ticks as
:meth:`DmaEngine.read`/:meth:`DmaEngine.write` would.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.errors import AlignmentFault
from repro.pim.config import DpuTimingConfig
from repro.pim.memory import Mram, Wram

__all__ = [
    "DMA_MIN", "DMA_MAX", "DMA_ALIGN", "DmaEngine", "StagePlan", "aligned_size",
    "transfer_count",
]

DMA_ALIGN = 8
DMA_MIN = 8
DMA_MAX = 2048


def aligned_size(nbytes: int) -> int:
    """Round ``nbytes`` up to the DMA granularity (multiple of 8)."""
    return (nbytes + DMA_ALIGN - 1) // DMA_ALIGN * DMA_ALIGN


def transfer_count(size: int) -> int:
    """Transfers :meth:`DmaEngine.read_large`/``write_large`` issue for ``size``."""
    return -(-size // DMA_MAX)


@dataclass(frozen=True)
class StagePlan:
    """The transfers that stage one metadata block, worked out once.

    Whole-block staging (``chunk=None``) splits the block into
    <=2048-byte transfers that walk WRAM alongside MRAM, like
    :meth:`DmaEngine.read_large`; chunked staging loops one fixed-size
    WRAM buffer over the block.
    """

    nbytes: int
    pieces: tuple[int, ...]
    #: per-transfer cycles, in transfer order
    costs: tuple[float, ...]
    #: the block's cycles, summed in transfer order from 0.0
    cycles: float
    #: whether the WRAM address advances with the MRAM address
    wram_walks: bool
    #: bytes of WRAM the transfers touch past the buffer address
    wram_span: int


class DmaEngine:
    """Per-DPU DMA engine: validates, moves bytes, accounts cycles."""

    def __init__(self, mram: Mram, wram: Wram, timing: DpuTimingConfig) -> None:
        self.mram = mram
        self.wram = wram
        self.timing = timing
        self.transfers = 0
        self.bytes_moved = 0
        self.cycles = 0.0
        #: fault-injection hook: called with the transfer size before any
        #: bytes move; may raise (e.g. a tasklet-stall watchdog trip).
        #: See :class:`repro.pim.faults.FaultInjector`.
        self.fault_hook: "Callable[[int], None] | None" = None
        self._plans: dict[tuple[int, Optional[int]], StagePlan] = {}

    def _validate(self, mram_addr: int, wram_addr: int, size: int) -> None:
        if mram_addr % DMA_ALIGN != 0:
            raise AlignmentFault(
                f"MRAM address {mram_addr:#x} not {DMA_ALIGN}-byte aligned"
            )
        if wram_addr % DMA_ALIGN != 0:
            raise AlignmentFault(
                f"WRAM address {wram_addr:#x} not {DMA_ALIGN}-byte aligned"
            )
        if size % DMA_ALIGN != 0 or not DMA_MIN <= size <= DMA_MAX:
            raise AlignmentFault(
                f"DMA size {size} invalid: must be a multiple of {DMA_ALIGN} "
                f"in [{DMA_MIN}, {DMA_MAX}]"
            )

    def _charge(self, size: int) -> float:
        cycles = self.timing.dma_cycles(size)
        self.transfers += 1
        self.bytes_moved += size
        self.cycles += cycles
        return cycles

    def read(self, mram_addr: int, wram_addr: int, size: int) -> float:
        """MRAM -> WRAM transfer; returns the cycles charged."""
        self._validate(mram_addr, wram_addr, size)
        if self.fault_hook is not None:
            self.fault_hook(size)
        data = self.mram.read(mram_addr, size)
        self.wram.write(wram_addr, data)
        return self._charge(size)

    def write(self, wram_addr: int, mram_addr: int, size: int) -> float:
        """WRAM -> MRAM transfer; returns the cycles charged."""
        self._validate(mram_addr, wram_addr, size)
        if self.fault_hook is not None:
            self.fault_hook(size)
        data = self.wram.read(wram_addr, size)
        self.mram.write(mram_addr, data)
        return self._charge(size)

    def read_large(self, mram_addr: int, wram_addr: int, size: int) -> float:
        """Read of any 8-aligned size, split into <=2048-byte transfers.

        Mirrors the chunking loop every real DPU program writes around
        ``mram_read`` for buffers above the 2048-byte DMA limit.
        """
        if size % DMA_ALIGN != 0:
            raise AlignmentFault(f"read_large size {size} not a multiple of 8")
        cycles = 0.0
        done = 0
        while done < size:
            chunk = min(DMA_MAX, size - done)
            cycles += self.read(mram_addr + done, wram_addr + done, chunk)
            done += chunk
        return cycles

    def write_large(self, wram_addr: int, mram_addr: int, size: int) -> float:
        """Write counterpart of :meth:`read_large`."""
        if size % DMA_ALIGN != 0:
            raise AlignmentFault(f"write_large size {size} not a multiple of 8")
        cycles = 0.0
        done = 0
        while done < size:
            chunk = min(DMA_MAX, size - done)
            cycles += self.write(wram_addr + done, mram_addr + done, chunk)
            done += chunk
        return cycles

    def stage_plan(self, nbytes: int, chunk: Optional[int]) -> StagePlan:
        """The (memoised) :class:`StagePlan` of an ``nbytes`` block.

        Every transfer size is validated here, once per staged size: the
        sizes do not depend on where the block sits.
        """
        key = (nbytes, chunk)
        plan = self._plans.get(key)
        if plan is None:
            step = DMA_MAX if chunk is None else chunk
            pieces = tuple(min(step, nbytes - done) for done in range(0, nbytes, step))
            for piece in pieces:
                self._validate(0, 0, piece)
            costs = tuple(self.timing.dma_cycles(piece) for piece in pieces)
            cycles = 0.0  # as read_large sums; sum() compensates on Python 3.12+
            for cost in costs:
                cycles += cost
            plan = StagePlan(
                nbytes=nbytes,
                pieces=pieces,
                costs=costs,
                cycles=cycles,
                wram_walks=chunk is None,
                wram_span=nbytes if chunk is None else max(pieces, default=0),
            )
            self._plans[key] = plan
        return plan

    def charge_staged(
        self, wram_addr: int, blocks: list[tuple[int, StagePlan, int]]
    ) -> None:
        """Account metadata stagings through one WRAM buffer, moving no bytes.

        Each ``(mram_addr, plan, uses)`` block is staged ``uses`` times:
        first out (WRAM -> MRAM write), then back in (MRAM -> WRAM reads).
        Counters, address validation, bounds checks and fault-hook ticks
        are exactly those of issuing the same transfers, in the same
        order, through :meth:`write` and :meth:`read`; only the copy of
        the bytes, which nothing reads, is skipped.
        """
        hook = self.fault_hook
        wram_room = self.wram.capacity - wram_addr
        mram_cap = self.mram.capacity
        in_bounds = (
            wram_addr % DMA_ALIGN == 0
            and wram_addr >= 0
            and all(
                mram_addr % DMA_ALIGN == 0
                and 0 <= mram_addr <= mram_cap - plan.nbytes
                and plan.wram_span <= wram_room
                for mram_addr, plan, _ in blocks
            )
        )
        if in_bounds and hook is None:
            # No transfer can fail or be observed: charge in bulk.
            transfers = nbytes = 0
            cycles = self.cycles
            for _, plan, uses in blocks:
                transfers += uses * len(plan.pieces)
                nbytes += uses * plan.nbytes
                for cost in plan.costs * uses:
                    cycles += cost
            self.transfers += transfers
            self.bytes_moved += nbytes
            self.cycles = cycles
            return
        # Transfer by transfer: the hook sees each one, and a block that
        # could fault goes through the checks read/write make, in order.
        for mram_addr, plan, uses in blocks:
            for use in range(uses):
                mram, wram = mram_addr, wram_addr
                for piece, cost in zip(plan.pieces, plan.costs):
                    if not in_bounds:
                        self._validate(mram, wram, piece)
                    if hook is not None:
                        hook(piece)
                    if not in_bounds:
                        if use == 0:
                            self.wram._check(wram, piece)
                            self.mram._check(mram, piece)
                        else:
                            self.mram._check(mram, piece)
                            self.wram._check(wram, piece)
                    self.transfers += 1
                    self.bytes_moved += piece
                    self.cycles += cost
                    mram += piece
                    if plan.wram_walks:
                        wram += piece

    def reset_counters(self) -> None:
        self.transfers = 0
        self.bytes_moved = 0
        self.cycles = 0.0
