"""Top-level performance simulator (the "Performance simulation mode").

SM schedulers pull one record per issued warp instruction from a
*feed*.  A launch the megablock tier runs whole, with nothing that can
stop it early, is trace-driven: one recording megablock run yields
every warp's issue stream and :class:`repro.timing.replay.TraceFeed`
replays it.  Every other launch is execution-driven: the scalar
functional engine executes each instruction at issue time, as in
GPGPU-Sim.  Both feeds drive the same SM, cache and DRAM model and give
identical statistics (DESIGN.md §5 states the selection rule).

The main loop is cycle-based with an idle-jump
optimisation — when no scheduler can issue, time skips to the next
event/wake-up, with the skipped scheduler-cycles charged to the
appropriate W0 stall bucket so AerialVision's warp-issue breakdown stays
exact.

If no warp can ever become ready and no event is in flight while CTAs
remain, the simulator raises :class:`TimingDeadlockError` instead of
hanging — the paper fixed GPGPU-Sim bugs of exactly this kind
("timing-model deadlocks", Section III-D.2).
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable

from repro.errors import CycleBudgetExceededError, TimingDeadlockError
from repro.functional.executor import FunctionalEngine
from repro.functional.state import CTAState, LaunchContext
from repro.timing.config import GPUConfig, TINY
from repro.timing.memsys import MemRequest, MemorySubsystem
from repro.timing.shader import SMCore
from repro.timing.stats import (
    KernelStats, SampleBlock, W0_ALU, W0_IDLE, W0_MEM)
from repro.trace.clock import SimClock

_MAX_CYCLES_DEFAULT = 50_000_000


class GpuTiming:
    """Simulates one kernel launch cycle-by-cycle."""

    def __init__(self, config: GPUConfig = TINY, *,
                 max_cycles: int = _MAX_CYCLES_DEFAULT,
                 reconverge_at_exit: bool = False,
                 mem_fault_filter=None) -> None:
        self.config = config
        self.max_cycles = max_cycles
        self.reconverge_at_exit = reconverge_at_exit
        #: Fault-injection hook forwarded to the memory subsystem: a
        #: predicate over MemRequest that makes the interconnect "lose"
        #: matching requests (repro.faultinject's dropped-response site).
        self.mem_fault_filter = mem_fault_filter
        #: Feed of the last simulated launch ("trace" or "execution")
        #: and, for an execution-driven one, why it could not be traced.
        self.feed = ""
        self.feed_reason: str | None = None

    def simulate(self, launch: LaunchContext, *,
                 first_cta: int = 0,
                 premade_ctas: dict[int, CTAState] | None = None
                 ) -> tuple[KernelStats, SampleBlock]:
        """Simulate one launch.

        ``first_cta``/``premade_ctas`` support the checkpoint-resume flow
        of the paper's Figure 5: CTAs below ``first_cta`` are skipped and
        restored CTAs (with their Data1 state already loaded) are taken
        from ``premade_ctas`` instead of being freshly initialised.
        """
        config = self.config
        stats = KernelStats()
        # One monotonic clock drives the whole kernel: the main loop,
        # event delivery, and the SampleBlock's final cycle count all
        # read it, so interval bins can never disagree with the span
        # stamps derived from the same run.
        clock = SimClock()
        samples = SampleBlock(config.sample_interval, config.num_sms,
                              config.num_partitions,
                              config.banks_per_partition, clock=clock)
        events: list[tuple[float, int, Callable[[float], None]]] = []
        sequence = itertools.count()

        def schedule(time: float, fn: Callable[[float], None]) -> None:
            heapq.heappush(events, (time, next(sequence), fn))

        def respond(time: float, req: MemRequest) -> None:
            def deliver(_t: float, resident=req.warp_token) -> None:
                resident.mem_pending -= 1
            schedule(time, deliver)

        engine, reason = self._select_feed(launch, first_cta, premade_ctas)
        self.feed_reason = reason
        if reason is None:
            # Imported here: a process that never traces never pays.
            from repro.functional.warptrace import WarpTraceRecorder
            from repro.timing.replay import TraceFeed
            self.feed = "trace"
            recorder = WarpTraceRecorder(launch)
            engine.run_range(0, launch.num_ctas, recorder=recorder)
            feed = TraceFeed(recorder.finish(), launch, config.line_size)
            new_cta = feed.cta
        else:
            self.feed = "execution"
            feed = engine

            def new_cta(cta_linear: int) -> CTAState:
                return CTAState(launch, cta_linear)
        memsys = MemorySubsystem(config, stats, samples, schedule, respond,
                                 fault_filter=self.mem_fault_filter)
        sms = [SMCore(sm_id, config, feed, memsys, stats, samples)
               for sm_id in range(config.num_sms)]

        next_cta = first_cta
        total_ctas = launch.num_ctas
        premade = premade_ctas or {}

        def refill() -> int:
            # Round-robin CTA issue, one per SM per pass (GPGPU-Sim's
            # breadth-first CTA scheduler).
            nonlocal next_cta
            assigned = 0
            progressing = True
            while progressing and next_cta < total_ctas:
                progressing = False
                for sm in sms:
                    if next_cta >= total_ctas:
                        break
                    if not sm.can_accept_cta:
                        continue
                    cta = premade.get(next_cta) or new_cta(next_cta)
                    next_cta += 1
                    if not cta.finished:
                        sm.assign_cta(cta)
                        assigned += 1
                        progressing = True
            return assigned

        refill()
        stagnant = 0
        while True:
            now = clock.now
            # Deliver due events.
            while events and events[0][0] <= now:
                _t, _seq, fn = heapq.heappop(events)
                fn(now)
            issued = 0
            any_resident = False
            for sm in sms:
                if not sm.busy:
                    continue
                any_resident = True
                count, finished = sm.issue_cycle(now)
                issued += count
                if finished:
                    refill()
            done = (next_cta >= total_ctas and not any_resident
                    and not events)
            if done:
                break
            if now >= self.max_cycles:
                raise CycleBudgetExceededError(
                    f"kernel exceeded {self.max_cycles} cycles "
                    f"({launch.kernel.name})")
            if issued:
                clock.advance(1.0)
                stagnant = 0
                continue
            # Idle jump: advance to the next event or warp wake-up.
            candidates = []
            if events:
                candidates.append(events[0][0])
            for sm in sms:
                t = sm.next_ready_time(now)
                if t is not None:
                    candidates.append(t)
            if not candidates:
                if next_cta < total_ctas and refill():
                    continue
                raise TimingDeadlockError(
                    "timing model made no progress: warps blocked with "
                    "no memory responses in flight "
                    f"({launch.kernel.name})")
            target = max(now + 1.0, min(candidates))
            self._charge_idle(sms, samples, stats, now, target)
            clock.advance_to(target)
            stagnant += 1
            if stagnant > 1_000_000:
                raise TimingDeadlockError(
                    f"livelock detected in {launch.kernel.name}")
        memsys.drain_active(clock.now)
        stats.cycles = clock.cycles
        samples.finalize()
        self._fold_cache_stats(sms, memsys, stats)
        return stats, samples

    def _select_feed(self, launch: LaunchContext, first_cta: int,
                     premade_ctas) -> tuple[FunctionalEngine, str | None]:
        """The launch's engine and why it cannot be trace-driven (None
        when it can).

        A trace needs a whole launch the megablock tier runs without a
        bailout (an eligible plan, no barrier a divergent branch can
        reach) under the plan's own reconvergence map.  Launches that
        may stop partway — a fault filter can wedge them, an explicit
        cycle budget can cut them off — stay execution-driven so memory
        is left exactly as far as the execution got.
        """
        reason = None
        if first_cta or premade_ctas:
            reason = "resumed from a checkpoint"
        elif self.reconverge_at_exit:
            reason = "reconverge_at_exit ablation"
        elif self.mem_fault_filter is not None:
            reason = "memory fault filter armed"
        elif self.max_cycles != _MAX_CYCLES_DEFAULT:
            reason = "explicit cycle budget"
        if reason is not None:
            return FunctionalEngine(
                launch, reconverge_at_exit=self.reconverge_at_exit), reason
        engine = FunctionalEngine(launch, fast_mode="megablock")
        plan = engine._megaplan
        if plan is None:
            why = engine.megablock_fallback
            reason = (f"no megablock plan: {why[0]}" if why
                      else "no megablock plan: legacy quirks")
        elif any(ctrl["op"] == "bar" and ctrl["div"]
                 for ctrl in plan.controls.values()):
            reason = "barrier reachable from a divergent branch"
        elif plan.reconvergence != launch.kernel.reconvergence:
            reason = "reconvergence map differs from the plan's"
        return engine, reason

    @staticmethod
    def _charge_idle(sms: list[SMCore], samples: SampleBlock,
                     stats: KernelStats, t0: float, t1: float) -> None:
        """Attribute skipped scheduler-cycles to W0 buckets.

        The skipped cycles span [t0 + 1, t1) — the first cycle was
        already charged by issue_cycle — and are spread across every
        sample interval the jump covers, so a long idle jump shows up as
        a flat W0 band in AerialVision rather than one spiked bin at t0.
        """
        span = int(t1 - t0)
        if span <= 1:
            return
        extra = span - 1
        for sm in sms:
            for scheduler in sm.schedulers:
                if not scheduler.warps:
                    bucket = W0_IDLE
                    stats.idle_scheduler_cycles += extra
                elif any(rw.blocked_on_mem() for rw in scheduler.warps):
                    bucket = W0_MEM
                    stats.stall_mem_cycles += extra
                else:
                    bucket = W0_ALU
                    stats.stall_alu_cycles += extra
                samples.issue_span(bucket, t0 + 1, t1)

    @staticmethod
    def _fold_cache_stats(sms: list[SMCore], memsys: MemorySubsystem,
                          stats: KernelStats) -> None:
        l1_accesses = sum(sm.l1.stats.accesses for sm in sms)
        l1_hits = sum(sm.l1.stats.hits for sm in sms)
        stats.extra["l1_accesses"] = l1_accesses
        stats.extra["l1_hit_rate"] = (l1_hits / l1_accesses
                                      if l1_accesses else 0.0)
        l2_accesses = sum(p.l2.stats.accesses for p in memsys.partitions)
        l2_hits = sum(p.l2.stats.hits for p in memsys.partitions)
        stats.extra["l2_accesses"] = l2_accesses
        stats.extra["l2_hit_rate"] = (l2_hits / l2_accesses
                                      if l2_accesses else 0.0)
