"""Trace-driven feed for the timing model.

Execution-driven timing asks the scalar functional engine for one
:class:`repro.functional.executor.ExecRecord` per issued warp
instruction.  For a launch the megablock tier runs whole, the same
records can come from a per-warp trace instead: one recording megablock
run (:mod:`repro.functional.warptrace`) produces every warp's issue
stream, and :class:`TraceFeed` hands it to the unchanged SM, cache and
DRAM model through the engine contract the model already uses —
``step_warp(warp)`` and ``try_release_barrier(cta)`` — with slim replay
warps that carry no registers.

The streams are exact because, for a race-free kernel, what a warp
issues (pcs, active lanes, addresses) depends only on its own data, not
on how the timing model interleaves it with other warps.  Memory
accesses are stored coalesced: per warp instruction, the first lane of
each distinct ``(space, first line, last line)`` group, in lane order.
``SMCore`` reduces a record's accesses to the same line sets (built in
the same insertion order) and per-space flags, so its cycles, cache
traffic and stall accounting come out identical to the full per-lane
list.
"""

from __future__ import annotations

import numpy as np

from repro.functional.executor import AT_BARRIER
from repro.functional.warptrace import WarpTrace
from repro.ptx.instructions import BAR, OP_CLASS
from repro.ptx.instructions.memory import _vector_width


class ReplayRecord:
    """What ``SMCore`` reads of one issued instruction."""

    __slots__ = ("inst", "op_class", "active_lanes", "mem_accesses",
                 "parks")

    def __init__(self, inst, active_lanes: int,
                 mem_accesses: tuple = ()) -> None:
        self.inst = inst
        self.parks = inst.opcode == "bar"
        self.op_class = (BAR if self.parks
                         else OP_CLASS.get(inst.opcode, "alu"))
        self.active_lanes = active_lanes
        self.mem_accesses = mem_accesses


class ReplayWarp:
    """A warp reduced to its issue stream and the two flags the SM
    model reads (``finished``, ``at_barrier``)."""

    __slots__ = ("warp_index", "finished", "at_barrier",
                 "dynamic_warp_id", "records", "next", "end")

    def __init__(self, warp_index: int, records: list) -> None:
        self.warp_index = warp_index
        self.records = records
        self.next = 0
        self.end = len(records)
        self.finished = not records
        self.at_barrier = False
        self.dynamic_warp_id = 0


class ReplayCTA:
    """A CTA of replay warps (the trace-fed twin of ``CTAState``)."""

    __slots__ = ("warps",)

    def __init__(self, warps: list[ReplayWarp]) -> None:
        self.warps = warps

    @property
    def finished(self) -> bool:
        """True once every warp has issued its last event."""
        return all(warp.finished for warp in self.warps)


class _PlainRecords(dict):
    """``pc * 64 + lanes + 1`` -> shared record of a non-memory
    instruction (``None`` for a fall-off step), built on first use."""

    def __init__(self, body) -> None:
        super().__init__()
        self.body = body

    def __missing__(self, key: int):
        pc, lanes = divmod(key, 64)
        record = None if pc < 0 else ReplayRecord(self.body[pc], lanes - 1)
        self[key] = record
        return record


class TraceFeed:
    """Replays a :class:`WarpTrace` through the engine contract.

    Record lists are built per CTA when the timing model admits it, so
    only resident CTAs hold theirs.
    """

    def __init__(self, trace: WarpTrace, launch, line_size: int) -> None:
        self.trace = trace
        self.body = launch.kernel.body
        self.line_size = line_size
        self.warps_per_block = launch.warps_per_block
        self._start = trace.warp_start.tolist()
        self._plain = _PlainRecords(self.body)

    def cta(self, cta_linear: int) -> ReplayCTA:
        """A fresh replay CTA (the trace-fed twin of ``CTAState``)."""
        trace = self.trace
        first = cta_linear * self.warps_per_block
        bounds = self._start[first:first + self.warps_per_block + 1]
        lo, hi = bounds[0], bounds[-1]
        # Records without memory accesses depend only on (pc, lanes)
        # and are shared.
        keys = (trace.pc[lo:hi].astype(np.int64) * 64
                + trace.lanes[lo:hi] + 1)
        plain = self._plain
        records = [plain[key] for key in keys.tolist()]
        mem = trace.mem[lo:hi]
        rows = np.flatnonzero(mem >= 0)
        if rows.size:
            entries = mem[rows]
            accesses = _coalesced_accesses(trace, entries, self.body,
                                           self.line_size)
            body = self.body
            for row, pc, count, access in zip(
                    rows.tolist(), trace.mem_pc[entries].tolist(),
                    trace.lanes[lo:hi][rows].tolist(), accesses):
                records[row] = ReplayRecord(body[pc], count, access)
        warps = [ReplayWarp(index, records[bounds[index] - lo:
                                           bounds[index + 1] - lo])
                 for index in range(self.warps_per_block)]
        return ReplayCTA(warps)

    # -- the engine contract SMCore drives ------------------------------
    @staticmethod
    def step_warp(warp: ReplayWarp):
        """The warp's next record, ``AT_BARRIER`` while it is parked, or
        ``None`` (finished, or an uncounted fall-off step)."""
        if warp.finished:
            return None
        if warp.at_barrier:
            return AT_BARRIER
        index = warp.next
        record = warp.records[index]
        index += 1
        warp.next = index
        if index == warp.end:
            warp.finished = True
        elif record is not None and record.parks:
            warp.at_barrier = True
        return record

    @staticmethod
    def try_release_barrier(cta: ReplayCTA) -> bool:
        """Release the CTA barrier if every live warp has arrived."""
        live = [warp for warp in cta.warps if not warp.finished]
        if not live or not all(warp.at_barrier for warp in live):
            return False
        for warp in live:
            warp.at_barrier = False
        return True


def _coalesced_accesses(trace: WarpTrace, entries: np.ndarray, body,
                        line_size: int) -> list[tuple]:
    """Access tuples of each memory entry in *entries*, keeping only the
    first lane of each distinct (first line, last line) pair — or,
    outside global memory, only the first lane (``SMCore`` reads a
    space flag there, not addresses)."""
    spaces = []
    for pc in trace.mem_pc[entries].tolist():
        inst = body[pc]
        spaces.append((inst.space,
                       inst.dtype.bytes * _vector_width(inst),
                       inst.opcode == "st"))
    lo, hi, addr = trace.mem_lo[entries], trace.mem_hi[entries], trace.addr
    busy = hi > lo
    first_lane = addr[np.where(busy, lo, 0)].tolist() if len(addr) \
        else [0] * len(spaces)
    out = [((space, lane, nb, is_write),) if used else ()
           for (space, nb, is_write), lane, used
           in zip(spaces, first_lane, busy.tolist())]
    glob = np.flatnonzero(busy & np.array(
        [space == "global" for space, _, _ in spaces], bool))
    if not glob.size:
        return out
    # Global lanes only, gathered entry by entry in lane order.
    lengths = hi[glob] - lo[glob]
    starts = np.cumsum(lengths) - lengths
    lane = (np.repeat(lo[glob] - starts, lengths)
            + np.arange(int(lengths.sum())))
    owner = np.repeat(np.arange(len(glob), dtype=np.int32), lengths)
    gaddr = addr[lane]
    line = np.uint64(line_size)
    nbytes = np.repeat(
        np.array([spaces[e][1] for e in glob.tolist()], np.uint64),
        lengths)
    first = gaddr // line
    last = first + (gaddr % line + nbytes - np.uint64(1)) // line
    order = np.lexsort((last, first, owner))
    new = np.ones(len(order), bool)
    o, f, l = owner[order], first[order], last[order]
    new[1:] = (o[1:] != o[:-1]) | (f[1:] != f[:-1]) | (l[1:] != l[:-1])
    # Earliest lane of each group, back in lane order.
    keep = np.sort(np.minimum.reduceat(order, np.flatnonzero(new)))
    kept_addr = gaddr[keep].tolist()
    cuts = np.searchsorted(owner[keep], np.arange(len(glob) + 1)).tolist()
    for index, entry in enumerate(glob.tolist()):
        space, nb, is_write = spaces[entry]
        out[entry] = tuple((space, a, nb, is_write)
                           for a in kept_addr[cuts[index]:cuts[index + 1]])
    return out
