"""Runtime backend running every launch through the timing model."""

from __future__ import annotations

from dataclasses import asdict

from repro.cuda.runtime import KernelRunResult
from repro.functional.state import LaunchContext
from repro.timing.config import GPUConfig, TINY
from repro.timing.gpu import GpuTiming
from repro.timing.stats import KernelStats
from repro.trace.tracer import NULL_TRACER


class TimingBackend:
    """Performance-simulation backend for :class:`CudaRuntime`.

    The paper notes performance mode is "generally 7-8 times slower than
    the Functional simulation mode" — here, too, each launch pays for
    cycle-level scheduling, caches and DRAM on top of the functional
    execution it drives.
    """

    name = "performance"

    def __init__(self, config: GPUConfig = TINY, *,
                 max_cycles: int = 50_000_000,
                 reconverge_at_exit: bool = False,
                 mem_fault_filter=None) -> None:
        self.config = config
        self.gpu = GpuTiming(config, max_cycles=max_cycles,
                             reconverge_at_exit=reconverge_at_exit,
                             mem_fault_filter=mem_fault_filter)
        self.kernel_stats: list[KernelStats] = []
        #: Set by the owning CudaRuntime when tracing is on.
        self.tracer = NULL_TRACER

    def execute(self, launch: LaunchContext) -> KernelRunResult:
        gpu = self.gpu
        stats, samples = gpu.simulate(launch)
        self.kernel_stats.append(stats)
        if self.tracer.enabled:
            args = {"tier": "timing", "feed": gpu.feed,
                    "cycles": stats.cycles,
                    "instructions": stats.warp_instructions,
                    "ipc": round(stats.warp_instructions / stats.cycles,
                                 4) if stats.cycles else 0.0}
            if gpu.feed_reason is not None:
                args["feed_reason"] = gpu.feed_reason
            self.tracer.complete(
                f"timing:{launch.kernel.name}",
                ts=self.tracer.clock.now, dur=float(stats.cycles),
                cat="engine", args=args)
        payload = asdict(stats)
        payload.pop("extra", None)
        payload.update(stats.extra)
        return KernelRunResult(
            instructions=stats.warp_instructions,
            cycles=stats.cycles,
            stats=payload,
            samples=samples,
        )
