"""SM (streaming multiprocessor) timing model.

Each SM hosts up to ``max_ctas_per_sm`` CTAs; warps are statically
assigned to ``schedulers_per_sm`` loose-round-robin schedulers.  A warp
is *ready* when its latency timer expired and it has no outstanding
memory transactions (a serial-dependence simplification of GPGPU-Sim's
scoreboard — see DESIGN.md §5).  Issue pulls the next instruction's
record from the launch's feed: the functional engine itself
(execution-driven, like GPGPU-Sim) or a replayed per-warp trace
(:mod:`repro.timing.replay`); both honour the same ``step_warp`` /
``try_release_barrier`` contract.

Per-cycle issue outcomes feed the warp-issue breakdown (W0 idle / W0
data-hazard / W1..W32 by active-lane count) that AerialVision's warp
divergence plots show.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.functional.executor import AT_BARRIER, FunctionalEngine
from repro.functional.state import CTAState, WarpState
from repro.timing.config import GPUConfig
from repro.timing.memsys import MemRequest, MemorySubsystem
from repro.timing.stats import (
    KernelStats, SampleBlock, W0_ALU, W0_BARRIER, W0_IDLE, W0_MEM,
    lane_bucket)


@dataclass
class ResidentWarp:
    warp: WarpState
    cta: CTAState
    ready_at: float = 0.0
    mem_pending: int = 0

    @property
    def finished(self) -> bool:
        return self.warp.finished

    def ready(self, now: float) -> bool:
        return (not self.warp.finished and not self.warp.at_barrier
                and self.mem_pending == 0 and self.ready_at <= now)

    def blocked_on_mem(self) -> bool:
        return self.mem_pending > 0


@dataclass
class Scheduler:
    """Warp picker: loose round robin or greedy-then-oldest."""

    policy: str = "lrr"
    warps: list[ResidentWarp] = field(default_factory=list)
    next_index: int = 0
    greedy: ResidentWarp | None = None

    def pick(self, now: float) -> ResidentWarp | None:
        if self.policy == "gto":
            return self._pick_gto(now)
        count = len(self.warps)
        for step in range(count):
            candidate = self.warps[(self.next_index + step) % count]
            if candidate.ready(now):
                self.next_index = (self.next_index + step + 1) % count
                return candidate
        return None

    def _pick_gto(self, now: float) -> ResidentWarp | None:
        # Greedy: keep issuing the same warp while it stays ready.
        if (self.greedy is not None and self.greedy in self.warps
                and self.greedy.ready(now)):
            return self.greedy
        # Then oldest: first ready warp in arrival order.
        for candidate in self.warps:
            if candidate.ready(now):
                self.greedy = candidate
                return candidate
        return None


class SMCore:
    """One streaming multiprocessor."""

    def __init__(self, sm_id: int, config: GPUConfig,
                 engine: FunctionalEngine, memsys: MemorySubsystem,
                 stats: KernelStats, samples: SampleBlock) -> None:
        self.sm_id = sm_id
        self.config = config
        self.engine = engine
        self.memsys = memsys
        self.stats = stats
        self.samples = samples
        from repro.timing.cache import Cache
        self.l1 = Cache(config.l1_sets, config.l1_ways, config.line_size)
        self.ctas: list[CTAState] = []
        self.schedulers = [Scheduler(policy=config.warp_scheduler)
                           for _ in range(config.schedulers_per_sm)]
        self.resident: list[ResidentWarp] = []

    # ------------------------------------------------------------------
    # CTA management
    # ------------------------------------------------------------------
    @property
    def can_accept_cta(self) -> bool:
        return len(self.ctas) < self.config.max_ctas_per_sm

    def assign_cta(self, cta: CTAState) -> None:
        self.ctas.append(cta)
        for warp in cta.warps:
            resident = ResidentWarp(warp=warp, cta=cta)
            self.resident.append(resident)
            scheduler = self.schedulers[
                warp.warp_index % len(self.schedulers)]
            scheduler.warps.append(resident)

    def _retire_cta(self, cta: CTAState) -> None:
        self.ctas.remove(cta)
        dead = [rw for rw in self.resident if rw.cta is cta]
        for resident in dead:
            self.resident.remove(resident)
            for scheduler in self.schedulers:
                if resident in scheduler.warps:
                    scheduler.warps.remove(resident)
                    scheduler.next_index = 0
                    if scheduler.greedy is resident:
                        scheduler.greedy = None

    @property
    def busy(self) -> bool:
        return bool(self.ctas)

    # ------------------------------------------------------------------
    # Issue
    # ------------------------------------------------------------------
    def issue_cycle(self, now: float) -> tuple[int, list[CTAState]]:
        """Issue up to one instruction per scheduler; returns
        (instructions issued, CTAs that completed this cycle)."""
        issued = 0
        finished_ctas: list[CTAState] = []
        for scheduler in self.schedulers:
            if not scheduler.warps:
                self.samples.issue_event(now, W0_IDLE)
                self.stats.idle_scheduler_cycles += 1
                continue
            resident = scheduler.pick(now)
            if resident is None:
                self._record_stall(now, scheduler)
                continue
            record = self.engine.step_warp(resident.warp)
            if record is None or record == AT_BARRIER:
                continue
            issued += 1
            lanes = record.active_lanes
            self.stats.instructions += lanes
            self.stats.warp_instructions += 1
            self.samples.commit(now, self.sm_id, lanes)
            self.samples.issue_event(now, lane_bucket(lanes))
            self._apply_latency(resident, record, now)
            if record.inst.opcode == "bar":
                self.engine.try_release_barrier(resident.cta)
            if resident.warp.finished and resident.cta.finished:
                if (resident.cta in self.ctas
                        and resident.cta not in finished_ctas):
                    finished_ctas.append(resident.cta)
        for cta in finished_ctas:
            self._retire_cta(cta)
        if issued:
            self.stats.active_sm_cycles += 1
        return issued, finished_ctas

    def _record_stall(self, now: float, scheduler: Scheduler) -> None:
        if any(rw.blocked_on_mem() for rw in scheduler.warps):
            self.samples.issue_event(now, W0_MEM)
            self.stats.stall_mem_cycles += 1
        elif any(rw.warp.at_barrier for rw in scheduler.warps
                 if not rw.finished):
            self.samples.issue_event(now, W0_BARRIER)
        else:
            self.samples.issue_event(now, W0_ALU)
            self.stats.stall_alu_cycles += 1

    # ------------------------------------------------------------------
    # Latency / memory handling
    # ------------------------------------------------------------------
    def _apply_latency(self, resident: ResidentWarp, record,
                       now: float) -> None:
        config = self.config
        op_class = record.op_class
        if op_class == "sfu":
            self.stats.sfu_ops += 1
            resident.ready_at = now + config.sfu_latency
        elif op_class == "bar":
            self.stats.barriers += 1
            resident.ready_at = now + config.bar_latency
        elif op_class in ("mem", "tex") or record.mem_accesses:
            self._issue_memory(resident, record, now)
        else:
            self.stats.alu_ops += 1
            resident.ready_at = now + config.alu_latency
        resident.warp.dynamic_warp_id += 1

    def _issue_memory(self, resident: ResidentWarp, record,
                      now: float) -> None:
        config = self.config
        global_lines_read: set[int] = set()
        global_lines_write: set[int] = set()
        touched_shared = False
        touched_tex = False
        touched_other = False
        for space, addr, nbytes, is_write in record.mem_accesses:
            if space == "global":
                first = addr // config.line_size
                last = (addr + max(nbytes, 1) - 1) // config.line_size
                target = (global_lines_write if is_write
                          else global_lines_read)
                for line in range(first, last + 1):
                    target.add(line)
            elif space == "shared":
                touched_shared = True
            elif space == "tex":
                touched_tex = True
            else:
                touched_other = True
        if record.inst.opcode in ("atom", "red"):
            self.stats.atom_ops += 1
        if touched_shared:
            self.stats.shared_ops += 1
            resident.ready_at = max(resident.ready_at,
                                    now + config.shared_mem_latency)
        if touched_tex:
            self.stats.tex_ops += 1
            resident.ready_at = max(resident.ready_at,
                                    now + config.tex_latency)
        if touched_other:
            resident.ready_at = max(resident.ready_at,
                                    now + config.const_latency)
        if not global_lines_read and not global_lines_write:
            return
        self.stats.gmem_read_transactions += len(global_lines_read)
        self.stats.gmem_write_transactions += len(global_lines_write)
        resident.ready_at = max(resident.ready_at,
                                now + config.l1_hit_latency)
        for line in global_lines_read:
            if self.l1.access(line * config.line_size, is_write=False):
                self.stats.l1_hits += 1
                continue
            self.stats.l1_misses += 1
            resident.mem_pending += 1
            self.memsys.submit(MemRequest(
                line_addr=line, is_write=False, sm_id=self.sm_id,
                warp_token=resident, issued_at=now), now)
        for line in global_lines_write:
            # Write-through, no allocate: traffic only, no blocking.
            self.l1.access(line * config.line_size, is_write=True)
            self.memsys.submit(MemRequest(
                line_addr=line, is_write=True, sm_id=self.sm_id,
                warp_token=resident, issued_at=now), now)

    # ------------------------------------------------------------------
    # Wake-up helpers for the idle-jump optimisation
    # ------------------------------------------------------------------
    def next_ready_time(self, now: float) -> float | None:
        best: float | None = None
        for resident in self.resident:
            if resident.finished or resident.warp.at_barrier:
                continue
            if resident.mem_pending > 0:
                continue  # woken by a response event instead
            t = max(resident.ready_at, now + 1)
            if best is None or t < best:
                best = t
        return best
