"""Warp-lockstep functional execution engine.

The engine owns SIMT control flow (branches, reconvergence, exit,
barriers) and defers everything else to the dispatch table in
:mod:`repro.ptx.instructions`.  It serves two masters:

* **Functional simulation mode** — :meth:`FunctionalEngine.run` executes
  the whole grid CTA-by-CTA as fast as possible (the mode the paper says
  is 7-8x faster than performance simulation).  When nothing observes
  per-instruction state it issues whole *superblocks* — straight-line
  runs fused into one closure by :mod:`repro.functional.superblock` —
  and synthesises aggregate stats from static block metadata.
* **Performance simulation mode** — the timing model issues one warp
  instruction at a time through :meth:`step_warp` and uses the returned
  :class:`ExecRecord` (opcode class, per-lane memory addresses) to charge
  cycles.  This contract is untouched by superblocks: one record per
  issued instruction, always.  A launch the megablock tier runs whole
  is instead recorded once (``run_range(..., recorder=...)``) and its
  per-warp streams replayed (:mod:`repro.timing.replay`).

The interpreter tiers are ablatable through ``fast_mode``:
``"reference"`` (generic dispatch only), ``"fastpath"`` (per-instruction
closures), ``"superblock"`` (fastpath + fused blocks, the default), and
``"megablock"`` (whole-grid NumPy vectorization via
:mod:`repro.functional.megablock`, with compiled plans persisted across
processes by :mod:`repro.functional.kernelcache`).  A kernel the
megablock codegen cannot vectorize falls back to the superblock tier
(``engine.megablock_fallback`` records why); hooks that observe
per-instruction state (``on_exec``, ``exec_override``, CTA-span
tracing) always take the scalar path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterator, Sequence

from repro.errors import SimulationFault, TimingDeadlockError
from repro.functional.cfg import prepare_kernel
from repro.functional.state import CTAState, LaunchContext, WarpState
from repro.functional.simt import NO_RECONVERGE
from repro.ptx import ast
from repro.ptx.instructions import BAR, CTRL, OP_CLASS, lookup

#: Sentinel returned by step_warp when the warp is parked at a barrier.
AT_BARRIER = "barrier"

#: Interpreter tiers, fastest first.  See FunctionalEngine(fast_mode=).
FAST_MODES = ("megablock", "superblock", "fastpath", "reference")

#: mask -> tuple of active lane indices (masks repeat heavily).
_LANES_CACHE: dict[int, tuple[int, ...]] = {}


def lanes_of(mask: int) -> tuple[int, ...]:
    lanes = _LANES_CACHE.get(mask)
    if lanes is None:
        lanes = tuple(lane for lane in range(32) if mask & (1 << lane))
        _LANES_CACHE[mask] = lanes
    return lanes


@dataclass
class ExecRecord:
    """What the timing model needs to know about one issued instruction."""

    pc: int
    inst: ast.Instruction
    active_mask: int
    active_lanes: int
    op_class: str
    mem_accesses: tuple[tuple[str, int, int, bool], ...] = ()
    warp: WarpState | None = None

    @property
    def is_memory(self) -> bool:
        return bool(self.mem_accesses)


@dataclass
class RunStats:
    """Aggregate counts from a functional run."""

    instructions: int = 0
    warps_launched: int = 0
    ctas_launched: int = 0
    dynamic_per_opcode: dict[str, int] = field(default_factory=dict)

    def merge(self, other: "RunStats") -> None:
        """Fold *other* (e.g. one CTA shard's counts) into this record.

        Addition is exact and order-independent, so merging per-shard
        stats in any order reproduces the single-process totals
        bit-identically.
        """
        self.instructions += other.instructions
        self.warps_launched += other.warps_launched
        self.ctas_launched += other.ctas_launched
        for opcode, count in other.dynamic_per_opcode.items():
            self.dynamic_per_opcode[opcode] = (
                self.dynamic_per_opcode.get(opcode, 0) + count)


def partition_ctas(num_ctas: int, shards: int) -> list[tuple[int, int]]:
    """Split ``range(num_ctas)`` into at most *shards* contiguous
    ``(first, limit)`` ranges, balanced to within one CTA.

    Contiguity matters: global-memory write merging resolves overlapping
    writes in ascending shard order, which then coincides with ascending
    CTA order — the order the single-process engine runs them in.
    """
    if shards < 1:
        raise ValueError(f"need at least one shard, got {shards}")
    shards = min(shards, max(num_ctas, 1))
    base, extra = divmod(num_ctas, shards)
    ranges: list[tuple[int, int]] = []
    start = 0
    for index in range(shards):
        count = base + (1 if index < extra else 0)
        if count == 0:
            continue
        ranges.append((start, start + count))
        start += count
    return ranges


class FunctionalEngine:
    """Executes one kernel launch, warp-lockstep."""

    def __init__(self, launch: LaunchContext, *,
                 on_exec: Callable[[ExecRecord], None] | None = None,
                 exec_override: Callable[
                     [ast.Instruction, WarpState, Sequence[int], int],
                     bool] | None = None,
                 reconverge_at_exit: bool = False,
                 contract_fp16: bool = False,
                 verify: bool = False,
                 fast_mode: str = "superblock",
                 sanitize=None,
                 tracer=None) -> None:
        if fast_mode not in FAST_MODES:
            raise ValueError(f"unknown fast_mode {fast_mode!r}; "
                             f"expected one of {FAST_MODES}")
        self.launch = launch
        self.kernel = launch.kernel
        if tracer is None:
            from repro.trace.tracer import NULL_TRACER
            tracer = NULL_TRACER
        #: Observability sink (repro.trace).  Instrumentation here is
        #: kernel/CTA-granular only — step_warp and the superblock loop
        #: carry no tracer checks, keeping the disabled path free.
        self.tracer = tracer
        if verify:
            # Opt-in pre-launch gate: run the static verifier + lints
            # and refuse the launch on error-severity findings (raises
            # repro.errors.VerificationError).  Off by default — it
            # costs a CFG + dataflow solve per launch.
            from repro.analysis import verify_launch
            with tracer.span(f"verify:{self.kernel.name}", cat="engine"):
                verify_launch(self.kernel, quirks=launch.quirks)
        self.on_exec = on_exec
        #: Fault-injection hook: called as (inst, warp, lanes, pc) before
        #: normal dispatch; returning True means the override performed
        #: the (deliberately wrong) semantics and dispatch is skipped.
        self.exec_override = exec_override
        self.contract_fp16 = contract_fp16
        #: Why a requested megablock launch fell back (None if it held).
        self.megablock_fallback: tuple[str, ...] | None = None
        #: Chunks this engine handed to the scalar engine mid-run.
        self.megablock_bailouts = 0
        self._megaplan = None
        _quirks = launch.quirks
        if (fast_mode == "megablock" and not contract_fp16
                and not (_quirks.rem_ignores_type
                         or _quirks.bfe_unsigned_only
                         or _quirks.brev_unsupported
                         or _quirks.fp16_unsupported)):
            # Load (disk cache) or compile the vector plan first: a warm
            # cache entry carries the reconvergence map, letting the
            # prepare_kernel CFG pass below be skipped entirely.
            plan = self._load_megaplan()
            if plan.eligible:
                self._megaplan = plan
            else:
                self.megablock_fallback = tuple(plan.reasons)
                from repro.functional.megablock import EVENTS
                EVENTS["fallbacks"] += 1
                # Surface *why* the kernel left the fast tier: one
                # instant per fallback (reasons attached) plus the
                # running tier-event counter series for Chrome traces.
                tracer.instant(
                    f"megablock-fallback:{self.kernel.name}",
                    cat="engine",
                    args={"reasons": list(plan.reasons)[:8]})
                tracer.counter("megablock", dict(EVENTS))
                fast_mode = "superblock"
        if (not self.kernel.reconvergence
                and any(i.opcode == "bra" and i.pred is not None
                        for i in self.kernel.body)):
            prepare_kernel(self.kernel,
                           reconverge_at_exit=reconverge_at_exit)
        self._body = self.kernel.body
        self._body_len = len(self._body)
        quirks = launch.quirks
        if (quirks.rem_ignores_type or quirks.bfe_unsigned_only
                or quirks.brev_unsupported or quirks.fp16_unsupported):
            # Legacy semantics in play: take the reference interpreter
            # everywhere so quirky behaviour is modelled exactly.
            fast_mode = "reference"
        self._contract_sites = (
            self._find_fp16_contractions() if contract_fp16 else {})
        if fast_mode in ("superblock", "megablock") and contract_fp16:
            # Contraction rewrites mul+add pairs at issue time; fused
            # blocks would execute the pair unfused.  Step instead.
            fast_mode = "fastpath"
        self.fast_mode = fast_mode
        #: Armed sanitizer (repro.sanitize.core.Sanitizer) or None.
        self.sanitizer = None
        if sanitize:
            if sanitize is True:
                from repro.sanitize.core import Sanitizer
                sanitize = Sanitizer()
            self.sanitizer = sanitize
            if sanitize.tracer is None:
                sanitize.tracer = tracer
            # A megablock plan carries its affine memory facts; reuse
            # them so arming costs no extra dataflow solve.  The proof
            # sets are launch-specific and always re-evaluated.
            facts = (self._megaplan.facts
                     if self._megaplan is not None else None)
            sanitize.begin_launch(launch, facts=facts)
            if self._megaplan is None:
                # Scalar tiers observe through on_exec.  Chaining keeps
                # an existing observer (fault injection, timing feed)
                # first so the sanitizer sees post-hook state.  The
                # megablock tier instead runs vectorized checks inside
                # MegaMachine and must keep on_exec clear (it is a
                # vector-tier admission condition).
                prev = self.on_exec
                if prev is None:
                    self.on_exec = sanitize.hook
                else:
                    hook = sanitize.hook

                    def chained(record, _prev=prev, _hook=hook):
                        _prev(record)
                        _hook(record)

                    self.on_exec = chained

    # ------------------------------------------------------------------
    # Scalar tiers, compiled on first scalar use
    # ------------------------------------------------------------------
    # A launch the megablock tier runs whole never steps a warp, so the
    # per-instruction closures and fused blocks are built only when
    # something first reads them: step_warp, run_cta, a fallback or a
    # bailout.  cached_property stores the result in the instance dict,
    # so every later read is a plain attribute hit with no check.
    @cached_property
    def _fast(self) -> list:
        if self.fast_mode == "reference":
            return [None] * self._body_len
        fast = getattr(self.kernel, "_fastpath", None)
        if fast is None or len(fast) != self._body_len:
            from repro.functional.fastpath import compile_kernel
            fast = compile_kernel(self.kernel)
            self.kernel._fastpath = fast
        return fast

    @cached_property
    def _superblocks(self) -> dict:
        if self.fast_mode not in ("superblock", "megablock"):
            return {}
        # The megablock tier needs superblocks too: they run the scalar
        # continuation after a divergent-barrier bailout and every
        # external-driver path (iter_ctas / run_cta).
        from repro.functional.superblock import compile_superblocks
        # Cache keyed on the fastpath list identity: if tests swap
        # kernel._fastpath, stale blocks must not survive.
        fast = self._fast
        cached = getattr(self.kernel, "_superblock", None)
        if cached is not None and cached[0] is fast:
            return cached[1]
        blocks = compile_superblocks(self.kernel, fast)
        self.kernel._superblock = (fast, blocks)
        return blocks

    # ------------------------------------------------------------------
    # Megablock plan loading (disk cache -> in-process cache -> compile)
    # ------------------------------------------------------------------
    def _load_megaplan(self):
        from repro.analysis.vectorize import ANALYSIS_VERSION
        from repro.functional import kernelcache
        from repro.functional.megablock import (
            PLAN_FORMAT, compile_megaplan, plan_from_payload)
        kernel = self.kernel
        versions = (PLAN_FORMAT, ANALYSIS_VERSION)
        cached = getattr(kernel, "_megablock", None)
        if cached is not None and cached[0] == versions:
            return cached[1]
        tracer = self.tracer
        plan = None
        payload = kernelcache.load(kernel, "megablock",
                                   plan_format=PLAN_FORMAT,
                                   analysis_version=ANALYSIS_VERSION)
        if payload is not None:
            try:
                plan = plan_from_payload(payload)
            except Exception:  # malformed payload: treat as a miss
                plan = None
        if (plan is not None and plan.kernel_name == kernel.name
                and plan.body_len == len(kernel.body)):
            if not kernel.reconvergence and plan.reconvergence:
                # Warm load: reuse the cached IPDOM map; the CFG /
                # dominator pass never runs in this process.
                kernel.reconvergence = dict(plan.reconvergence)
            tracer.instant(f"kernelcache:hit:{kernel.name}",
                           cat="kernelcache")
        else:
            tracer.instant(f"kernelcache:miss:{kernel.name}",
                           cat="kernelcache")
            with tracer.span(f"megablock-compile:{kernel.name}",
                             cat="engine"):
                plan = compile_megaplan(kernel)
            kernelcache.store(kernel, "megablock", plan.to_payload(),
                              plan_format=PLAN_FORMAT,
                              analysis_version=ANALYSIS_VERSION)
        tracer.counter("kernelcache", kernelcache.counters())
        kernel._megablock = (versions, plan)
        return plan

    # ------------------------------------------------------------------
    # Single-instruction stepping (used by both modes)
    # ------------------------------------------------------------------
    def step_warp(self, warp: WarpState) -> ExecRecord | str | None:
        """Execute the next instruction of *warp*.

        Returns an :class:`ExecRecord`, ``AT_BARRIER`` if the warp parked
        at a barrier, or ``None`` if the warp has finished.
        """
        if warp.finished:
            return None
        if warp.at_barrier:
            return AT_BARRIER
        pc = warp.simt.pc
        if pc >= self._body_len:
            # Fell off the end of the kernel: implicit exit.
            warp.simt.retire_lanes(warp.simt.active_mask)
            return None
        inst = self._body[pc]
        mask = warp.simt.active_mask
        lanes = lanes_of(mask)
        if inst.pred is not None:
            # Fold the guard into a bitmask so the (heavily repeated)
            # lane tuple comes out of the lanes_of cache instead of a
            # fresh list per issue.
            regs = warp.regs
            name = inst.pred
            taken = 0
            for lane in lanes:
                if regs[lane].get(name, 0) & 1:
                    taken |= 1 << lane
            if inst.pred_negated:
                taken = mask & ~taken
            lanes = lanes_of(taken)
        opcode = inst.opcode
        self.launch.clock += 1
        warp.instructions_executed += 1
        record = ExecRecord(
            pc=pc, inst=inst, active_mask=mask, active_lanes=len(lanes),
            op_class=OP_CLASS.get(opcode, "alu"), warp=warp)

        if pc in self._contract_sites and lanes:
            # NVIDIA's assembler turns this FP16 mul + add/sub pair into
            # a fused SASS FMA with full intermediate precision — the
            # mismatch the paper traced and left as future work.
            self._exec_contracted(warp, pc, lanes)
            warp.instructions_executed += 1  # the absorbed add/sub
            warp.simt.advance(pc + 2)
            if self.on_exec is not None:
                self.on_exec(record)
            return record
        if opcode == "bra":
            self._exec_branch(warp, inst, pc, lanes)
        elif opcode in ("exit", "ret"):
            self._exec_exit(warp, pc, lanes)
        elif opcode == "bar":
            warp.at_barrier = True
            record.op_class = BAR
        else:
            if lanes:
                warp.mem_trace.clear()
                if (self.exec_override is not None
                        and self.exec_override(inst, warp, lanes, pc)):
                    pass  # an injected fault supplied the semantics
                else:
                    fast = self._fast[pc]
                    if fast is not None:
                        fast(warp, lanes)
                    else:
                        lookup(opcode)(inst, warp, lanes)
                if warp.mem_trace:
                    record.mem_accesses = tuple(warp.mem_trace)
            warp.simt.advance(pc + 1)
        if self.on_exec is not None:
            self.on_exec(record)
        return record

    def _exec_branch(self, warp: WarpState, inst: ast.Instruction,
                     pc: int, lanes: Sequence[int]) -> None:
        target = None
        for operand in inst.operands:
            if operand.kind == ast.LABEL:
                target = self.kernel.labels[operand.name]
                break
        if target is None:
            raise SimulationFault(f"bra without target: {inst.text}")
        active_mask = warp.simt.active_mask
        taken_mask = 0
        for lane in lanes:
            taken_mask |= 1 << lane
        not_taken_mask = active_mask & ~taken_mask
        if not_taken_mask == 0:
            warp.simt.advance(target)
        elif taken_mask == 0:
            warp.simt.advance(pc + 1)
        else:
            rpc = self.kernel.reconvergence.get(pc, NO_RECONVERGE)
            warp.simt.diverge(rpc, target, taken_mask, pc + 1,
                              not_taken_mask)

    def _find_fp16_contractions(self) -> dict[int, tuple]:
        """pcs where an f16 mul is immediately consumed by an f16
        add/sub of its destination (the assembler's fusion pattern)."""
        sites: dict[int, tuple] = {}
        body = self._body
        for index in range(len(body) - 1):
            mul, nxt = body[index], body[index + 1]
            if (mul.opcode != "mul" or mul.dtype.name != "f16"
                    or mul.has_mod("wide") or mul.has_mod("hi")):
                continue
            if nxt.opcode not in ("add", "sub") or nxt.dtype.name != "f16":
                continue
            if mul.pred is not None or nxt.pred is not None:
                continue
            dst = mul.operands[0]
            if dst.kind != ast.REG:
                continue
            uses = [op for op in nxt.operands[1:]
                    if op.kind == ast.REG and op.name == dst.name]
            if not uses:
                continue
            sites[index] = (mul, nxt)
        return sites

    def _exec_contracted(self, warp: WarpState, pc: int,
                         lanes) -> None:
        from repro.ptx.dtypes import F16
        from repro.ptx.instructions.common import write_union
        from repro.ptx.values import write_typed
        mul, nxt = self._contract_sites[pc]
        a_op, b_op = mul.operands[1], mul.operands[2]
        for lane in lanes:
            a = warp.operand_value(a_op, F16, lane)
            b = warp.operand_value(b_op, F16, lane)
            product_full = a * b  # NOT rounded to f16: the fused extra
            # Architecturally the mul destination still gets the rounded
            # product (only the consumer sees the fused value).
            write_union(warp, mul.operands[0].name,
                        write_typed(product_full, F16), 16, lane)
            sources = []
            for op in nxt.operands[1:]:
                if op.kind == ast.REG and op.name == mul.operands[0].name:
                    sources.append(product_full)
                else:
                    sources.append(warp.operand_value(op, F16, lane))
            if nxt.opcode == "add":
                result = sources[0] + sources[1]
            else:
                result = sources[0] - sources[1]
            write_union(warp, nxt.operands[0].name,
                        write_typed(result, F16), 16, lane)

    def _exec_exit(self, warp: WarpState, pc: int,
                   lanes: Sequence[int]) -> None:
        exit_mask = 0
        for lane in lanes:
            exit_mask |= 1 << lane
        warp.simt.retire_lanes(exit_mask)
        if not warp.simt.empty and warp.simt.pc == pc:
            warp.simt.advance(pc + 1)

    # ------------------------------------------------------------------
    # Barriers
    # ------------------------------------------------------------------
    def try_release_barrier(self, cta: CTAState) -> bool:
        """Release the CTA barrier if every live warp has arrived."""
        live = [warp for warp in cta.warps if not warp.finished]
        if not live or not all(warp.at_barrier for warp in live):
            return False
        for warp in live:
            warp.at_barrier = False
            warp.simt.advance(warp.simt.pc + 1)
        return True

    # ------------------------------------------------------------------
    # Functional-mode whole-grid execution
    # ------------------------------------------------------------------
    def iter_ctas(self) -> Iterator[CTAState]:
        for cta_linear in range(self.launch.num_ctas):
            yield CTAState(self.launch, cta_linear)

    def run_cta(self, cta: CTAState, stats: RunStats | None = None,
                max_warp_instructions: int | None = None) -> None:
        """Run one CTA to completion (or to an instruction budget)."""
        while not cta.finished:
            progressed = False
            for warp in cta.warps:
                if warp.finished or warp.at_barrier:
                    continue
                if (max_warp_instructions is not None
                        and warp.instructions_executed
                        >= max_warp_instructions):
                    continue
                budget = (max_warp_instructions
                          - warp.instructions_executed
                          if max_warp_instructions is not None else None)
                progressed |= self._run_warp_slice(warp, stats, budget)
            if self.try_release_barrier(cta):
                progressed = True
            if not progressed:
                if max_warp_instructions is not None:
                    return  # budget exhausted mid-CTA (checkpoint slice)
                raise TimingDeadlockError(
                    f"CTA {cta.cta_linear} deadlocked: live warps stuck "
                    "at a barrier that can never be released")

    def _run_warp_slice(self, warp: WarpState, stats: RunStats | None,
                        budget: int | None) -> bool:
        """Run a warp until it finishes, parks, or exhausts *budget*."""
        if (budget is None and self._superblocks
                and self.on_exec is None and self.exec_override is None):
            # Functional mode with nothing observing per-instruction
            # state: issue whole fused blocks.  Budgeted runs (partial
            # checkpoint CTAs) and instrumented runs must step.
            return self._run_warp_slice_fast(warp, stats)
        executed = 0
        while not warp.finished and not warp.at_barrier:
            if budget is not None and executed >= budget:
                break
            result = self.step_warp(warp)
            if result is None or result == AT_BARRIER:
                break
            executed += 1
            if stats is not None:
                stats.instructions += 1
                opcode = result.inst.opcode
                stats.dynamic_per_opcode[opcode] = (
                    stats.dynamic_per_opcode.get(opcode, 0) + 1)
        return executed > 0

    def _run_warp_slice_fast(self, warp: WarpState,
                             stats: RunStats | None) -> bool:
        """Superblock issue loop for functional mode.

        Whole fused blocks execute in one call — no ``ExecRecord``, no
        per-instruction dispatch; aggregate stats come from each block's
        static metadata.  Any pc without a block (predicated code,
        control flow, a mid-block pc restored from a checkpoint) falls
        back to :meth:`step_warp` until the next block entry.
        """
        blocks = self._superblocks
        simt = warp.simt
        launch = self.launch
        per_opcode = stats.dynamic_per_opcode if stats is not None else None
        executed = 0
        while not simt.empty and not warp.at_barrier:
            block = blocks.get(simt.pc)
            if block is None:
                result = self.step_warp(warp)
                if result is None or result == AT_BARRIER:
                    break
                executed += 1
                if per_opcode is not None:
                    opcode = result.inst.opcode
                    per_opcode[opcode] = per_opcode.get(opcode, 0) + 1
                continue
            block.execute(warp, lanes_of(simt.active_mask))
            count = block.count
            executed += count
            warp.instructions_executed += count
            launch.clock += count
            simt.advance(block.end)
            if per_opcode is not None:
                for opcode, times in block.opcode_counts.items():
                    per_opcode[opcode] = per_opcode.get(opcode, 0) + times
        if stats is not None:
            stats.instructions += executed
        return executed > 0

    def run(self) -> RunStats:
        """Execute the whole grid in functional simulation mode."""
        return self.run_range(0, self.launch.num_ctas)

    def run_range(self, first_cta: int, limit_cta: int,
                  stats: RunStats | None = None, *,
                  recorder=None) -> RunStats:
        """Execute CTAs ``first_cta .. limit_cta-1`` (a shard of the
        grid) in functional simulation mode.

        CTAs are independent in functional mode, so a launch partitioned
        with :func:`partition_ctas` and executed range-by-range — in any
        process — produces the same architectural state as :meth:`run`,
        provided CTA write sets do not overlap (and in ascending-range
        order even when they do).

        A *recorder* (:class:`repro.functional.warptrace.
        WarpTraceRecorder`) is handed every issue of the run; only the
        megablock tier records, so a launch that would run on a scalar
        tier raises ``ValueError``.
        """
        stats = RunStats() if stats is None else stats
        if not 0 <= first_cta <= limit_cta <= self.launch.num_ctas:
            raise ValueError(
                f"CTA range [{first_cta}, {limit_cta}) outside grid of "
                f"{self.launch.num_ctas} CTAs")
        tracer = self.tracer
        trace_ctas = tracer.enabled and tracer.cta_spans
        if (self._megaplan is not None and self.on_exec is None
                and self.exec_override is None and not trace_ctas):
            from repro.functional.megablock import EVENTS, MegaMachine
            with tracer.span(f"megablock:{self.kernel.name}",
                             cat="engine"):
                machine = MegaMachine(self, self._megaplan, recorder)
                machine.run(stats, first_cta=first_cta,
                            num_ctas=limit_cta - first_cta)
            self.megablock_bailouts += machine.bailouts
            if tracer.enabled:
                tracer.counter("megablock", dict(EVENTS))
            return stats
        if recorder is not None:
            raise ValueError(
                f"{self.kernel.name}: only a megablock launch can record "
                "a warp trace")
        restore_hook = False
        if self.sanitizer is not None and self.on_exec is None:
            # A megaplan normally keeps on_exec clear (vector-tier
            # checks run inside MegaMachine); when tracing forces this
            # scalar fallback, the step path must observe instead.
            self.on_exec = self.sanitizer.hook
            restore_hook = True
        try:
            self._run_range_scalar(first_cta, limit_cta, stats,
                                   trace_ctas)
        finally:
            if restore_hook:
                self.on_exec = None
        return stats

    def _run_range_scalar(self, first_cta: int, limit_cta: int,
                          stats: RunStats, trace_ctas: bool) -> None:
        tracer = self.tracer
        for cta_linear in range(first_cta, limit_cta):
            cta = CTAState(self.launch, cta_linear)
            stats.ctas_launched += 1
            stats.warps_launched += len(cta.warps)
            if trace_ctas:
                # CTA spans ride the kernel's intra-launch clock: the
                # runtime advances sim time only after the whole kernel,
                # so launch.clock (instructions issued so far) gives the
                # CTAs distinct, monotonic stamps inside the slice.
                base = tracer.clock.now
                tracer.begin(f"cta {cta.cta_linear}", cat="cta",
                             ts=base + self.launch.clock)
                self.run_cta(cta, stats)
                tracer.end(ts=base + self.launch.clock)
            else:
                self.run_cta(cta, stats)
