"""Per-warp issue traces recorded by the megablock tier.

A recording megablock run (``FunctionalEngine.run_range(...,
recorder=WarpTraceRecorder(launch))``) executes the launch exactly as a
plain one and, alongside, reports every grid-level issue step to the
recorder: a straight-line block, a control instruction, or a frame
falling off the end of the kernel.  The recorder expands each step into
one event per issuing warp, in the order that warp issues it, which is
the order a scalar :class:`repro.functional.simt.SimtStack` would step
the same warp (the vector machine reproduces the per-warp stacks).

:meth:`WarpTraceRecorder.finish` returns a :class:`WarpTrace`: compact
arrays, one contiguous slice per warp of the launch, holding

* ``pc`` — the issued pc, or ``-1`` for a step that retires the lanes
  of a frame that ran past the last instruction (the scalar engine's
  uncounted implicit exit);
* ``lanes`` — active lanes *after the guard*, as the scalar engine's
  ``ExecRecord.active_lanes`` counts them (a predicated ``bra`` counts
  its taken lanes);
* ``mem`` — for ld/st, an index into the memory-entry arrays, whose
  ``[mem_lo, mem_hi)`` slice of ``addr`` lists the per-lane addresses in
  lane order (space, width and direction are static per pc); ``addr``
  is ``uint32`` when every address fits, else ``uint64``.

The timing model replays these streams (:mod:`repro.timing.replay`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.ptx.values import MASK64


@dataclass
class WarpTrace:
    """Recorded issue streams of one launch (see module docstring)."""

    pc: np.ndarray
    lanes: np.ndarray
    mem: np.ndarray
    #: warp ``g`` (``cta_linear * warps_per_block + warp_index``) owns
    #: events ``warp_start[g]:warp_start[g + 1]``.
    warp_start: np.ndarray
    mem_pc: np.ndarray
    mem_lo: np.ndarray
    mem_hi: np.ndarray
    addr: np.ndarray


class WarpTraceRecorder:
    """Collects issue events from a recording megablock run.

    Steps are kept compact while the launch runs (the issuing warps and
    their lane counts, plus per-pc overrides for guarded and memory
    instructions) and expanded into per-event arrays once, in
    :meth:`finish`.
    """

    def __init__(self, launch) -> None:
        self.launch = launch
        #: (pc or block start, block end or None, warps, lanes, overrides)
        self._steps: list[tuple] = []
        self._events = 0
        self._mem: list[tuple[np.ndarray, ...]] = []
        self._addr: list[np.ndarray] = []
        self._n_mem = 0
        self._n_addr = 0
        #: pc -> guard mask or (addr, pm), reported by the block function
        #: that is running; consumed by :meth:`block`.
        self._pending: dict[int, object] = {}

    # -- called by MegaMachine ------------------------------------------
    def begin_chunk(self, machine) -> None:
        """Adopt the warp numbering of the chunk *machine* is starting."""
        self._wid = machine.wid
        self._warps = machine.warp_count
        self._base = machine.cta_start * self.launch.warps_per_block

    def _counts(self, mask: np.ndarray) -> np.ndarray:
        return np.bincount(self._wid[mask], minlength=self._warps)

    def guard(self, pc: int, guard: np.ndarray) -> None:
        """The running block's predicated instruction at *pc* has
        *guard* as its active threads."""
        self._pending[pc] = guard

    def mem(self, pc: int, addr, pm: np.ndarray) -> None:
        """The running block's ld/st at *pc* accesses *addr* (array or
        uniform int) for the threads in *pm*."""
        self._pending[pc] = (addr, pm)

    def block(self, start: int, end: int, mask: np.ndarray) -> None:
        """A straight-line block ran for the frame *mask*."""
        counts = self._counts(mask)
        warps = np.flatnonzero(counts)
        overrides = []
        for pc, info in self._pending.items():
            if isinstance(info, tuple):
                addr, pm = info
                overrides.append((pc - start, self._counts(pm)[warps],
                                  self._mem_entries(pc, addr, pm, warps)))
            else:
                overrides.append((pc - start, self._counts(info)[warps],
                                  None))
        self._pending.clear()
        self._add(start, end, warps, counts[warps], overrides)

    def control(self, pc: int, mask: np.ndarray,
                active: np.ndarray) -> None:
        """A control instruction issued for the frame *mask*; *active*
        holds the lanes its guard left on."""
        counts = self._counts(mask)
        warps = np.flatnonzero(counts)
        if active is not mask:
            counts = self._counts(active)
        self._add(pc, pc + 1, warps, counts[warps], ())

    def fall_off(self, mask: np.ndarray) -> None:
        """The frame *mask* ran past the last instruction."""
        warps = np.flatnonzero(self._counts(mask))
        self._add(-1, None, warps, -1, ())

    def _add(self, start, end, warps, lanes, overrides) -> None:
        self._steps.append((start, end,
                            (warps + self._base).astype(np.int32),
                            lanes, overrides))
        self._events += len(warps) * (1 if end is None else end - start)

    def _mem_entries(self, pc: int, addr, pm: np.ndarray,
                     warps: np.ndarray) -> np.ndarray:
        threads = np.flatnonzero(pm)
        if isinstance(addr, np.ndarray):
            lane_addr = addr[threads]
        else:
            lane_addr = np.full(len(threads),
                                np.uint64(int(addr) & MASK64))
        # Threads ascend, and warp ids ascend with them, so each warp's
        # lanes form one run in lane order.
        owner = self._wid[threads]
        lo = np.searchsorted(owner, warps, "left") + self._n_addr
        hi = np.searchsorted(owner, warps, "right") + self._n_addr
        n = len(warps)
        self._mem.append((np.full(n, pc, np.int32), lo, hi))
        if len(lane_addr) and int(lane_addr.max()) < 1 << 32:
            # Most addresses fit 32 bits; concatenation widens a mix.
            lane_addr = lane_addr.astype(np.uint32)
        self._addr.append(lane_addr)
        self._n_addr += len(threads)
        ids = np.arange(self._n_mem, self._n_mem + n, dtype=np.int32)
        self._n_mem += n
        return ids

    # -- result ---------------------------------------------------------
    def finish(self) -> WarpTrace:
        """Expand the steps into events grouped by warp, each warp's in
        issue order."""

        def cat(parts, column, dtype):
            if not parts:
                return np.zeros(0, dtype)
            return np.concatenate([part[column] for part in parts])

        # Join (and drop) the memory parts before the event arrays grow.
        addr = cat([(part,) for part in self._addr], 0, np.uint32)
        self._addr = []
        mem_pc, mem_lo, mem_hi = (cat(self._mem, 0, np.int32),
                                  cat(self._mem, 1, np.int64),
                                  cat(self._mem, 2, np.int64))
        self._mem = []
        launch = self.launch
        total = launch.num_ctas * launch.warps_per_block
        size = self._events
        warp = np.empty(size, np.int32)
        pc = np.empty(size, np.int32)
        lanes = np.empty(size, np.int16)
        mem = np.full(size, -1, np.int32)
        row = 0
        for start, end, warps, counts, overrides in self._steps:
            n = len(warps)
            if end is None:  # fall-off: one uncounted step per warp
                span = slice(row, row + n)
                warp[span], pc[span], lanes[span] = warps, -1, -1
                row += n
                continue
            k = end - start
            span = slice(row, row + k * n)
            warp[span] = np.tile(warps, k)
            pc[span] = np.repeat(np.arange(start, end, dtype=np.int32), n)
            lanes[span] = np.tile(counts, k)
            for offset, override, ids in overrides:
                at = slice(row + offset * n, row + (offset + 1) * n)
                lanes[at] = override
                if ids is not None:
                    mem[at] = ids
            row += k * n
        self._steps = []
        order = np.argsort(warp, kind="stable")
        warp_start = np.concatenate(
            ([0], np.cumsum(np.bincount(warp, minlength=total))))
        del warp
        return WarpTrace(
            pc=pc[order], lanes=lanes[order], mem=mem[order],
            warp_start=warp_start, mem_pc=mem_pc, mem_lo=mem_lo,
            mem_hi=mem_hi, addr=addr)
