"""Vectorizability classification for the megablock execution tier.

The intra-warp :func:`repro.analysis.dataflow.variance` taint answers
"can this branch diverge *within a warp*?".  The megablock tier
(:mod:`repro.functional.megablock`) executes every thread of a grid
chunk in one lockstep vector, so it needs the stronger *grid* question:
"can this value differ between **any** two threads of the grid?".  A
branch whose predicate is grid-uniform moves the whole vector frame as
one — no mask arithmetic, no frame splits — which is the fast path that
keeps loop-heavy kernels (GEMM tiles, FFT stages) at array speed.

The grid analysis is the same forward taint with a wider seed set:
``%ctaid`` and ``%warpid`` are uniform within a warp but obviously not
across the grid, so they join ``%tid``/``%laneid``/``%clock`` as
variance sources.  ``%ntid``/``%nctaid`` remain uniform everywhere.

:data:`ANALYSIS_VERSION` stamps both this classification and the
compiled-plan payloads in the disk kernel cache
(:mod:`repro.functional.kernelcache`); bump it whenever the taint rules
or the classification shape change so stale cache entries are discarded
rather than trusted.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.dataflow import (
    Solution, _Variance, _is_special, defs_of, solve, uses_of)
from repro.ptx.ast import LABEL, Kernel

#: Version of the vectorizability facts (cache-key component).
#: 2: megablock plans additionally carry affine memory facts from
#: :mod:`repro.analysis.ranges`.
#: 3: barrier divergence is per barrier (reachability from a divergent
#: branch) instead of kernel-granular.
ANALYSIS_VERSION = 3

#: Specials that may differ between two threads *of the grid*.
_GRID_VARIANT_SPECIALS = ("%tid", "%laneid", "%clock", "%ctaid", "%warpid")


class _GridVariance(_Variance):
    """Forward taint seeded with every non-grid-uniform special."""

    def transfer(self, inst, facts):
        # The base class consults the narrower intra-warp special list;
        # widen by tainting any def that reads a grid-variant special.
        facts = super().transfer(inst, facts)
        written = defs_of(inst)
        if not written or written <= facts:
            return facts
        for name in uses_of(inst):
            if _is_special(name) and name.startswith(_GRID_VARIANT_SPECIALS):
                return facts | written
        return facts


def grid_variance(kernel: Kernel) -> Solution:
    """Registers that may differ between any two grid threads."""
    return solve(kernel, _GridVariance())


@dataclass
class VectorReport:
    """Branch-level vectorizability facts for one kernel.

    ``uniform_branches`` — predicated ``bra`` pcs whose guard is
    grid-uniform: every thread takes the same side, so the vector tier
    can move a whole frame without computing masks.
    ``divergent_branches`` — the rest: mask splits with IPDOM
    reconvergence frames.
    ``variant_after`` — per-pc grid-variant register sets (the raw
    facts, kept for lints and debugging).
    ``barrier_pcs`` — every ``bar`` pc, for the barrier admission rule.
    ``divergent_barriers`` — the bars some divergent branch can reach.
    """

    kernel: str
    uniform_branches: frozenset[int] = frozenset()
    divergent_branches: frozenset[int] = frozenset()
    variant_after: dict[int, frozenset] = field(default_factory=dict)
    barrier_pcs: frozenset[int] = frozenset()
    divergent_barriers: frozenset[int] = frozenset()

    @property
    def has_divergence(self) -> bool:
        return bool(self.divergent_branches)

    def barrier_divergence(self) -> dict[int, bool]:
        """Per-barrier divergence fact feeding megablock plan admission.

        ``False`` proves the barrier can only ever be reached by a full
        frame, so the vector machine may skip its runtime containment
        proof; ``True`` keeps the runtime check (and the park/bail
        protocol) armed.  A frame splits only at a divergent branch and
        every frame born of a split sits at a pc reachable from that
        branch, so a bar no divergent branch can reach meets the one
        unsplit frame of its chunk.
        """
        return {pc: pc in self.divergent_barriers
                for pc in self.barrier_pcs}


def _reachable_from(kernel: Kernel, branches) -> frozenset[int]:
    """pcs reachable from the successors of *branches* (excluded
    themselves unless a path loops back to them)."""
    body = kernel.body
    size = len(body)
    seen: set[int] = set()
    work: list[int] = []

    def successors(pc: int) -> list[int]:
        inst = body[pc]
        out = []
        if inst.opcode == "bra":
            for op in inst.operands:
                if op.kind == LABEL:
                    out.append(kernel.labels[op.name])
                    break
            if inst.pred is not None:
                out.append(pc + 1)
        elif inst.opcode in ("exit", "ret"):
            if inst.pred is not None:
                out.append(pc + 1)
        else:
            out.append(pc + 1)
        return [nxt for nxt in out if nxt < size]

    for pc in branches:
        work.extend(successors(pc))
    while work:
        pc = work.pop()
        if pc in seen:
            continue
        seen.add(pc)
        work.extend(successors(pc))
    return frozenset(seen)


def classify_kernel(kernel: Kernel) -> VectorReport:
    """Split the kernel's conditional branches by grid uniformity."""
    solution = grid_variance(kernel)
    uniform: set[int] = set()
    divergent: set[int] = set()
    barriers: set[int] = set()
    for inst in kernel.body:
        if inst.opcode == "bar":
            barriers.add(inst.index)
            continue
        if inst.opcode != "bra" or inst.pred is None:
            continue
        before = solution.before.get(inst.index, frozenset())
        if inst.pred in before:
            divergent.add(inst.index)
        else:
            uniform.add(inst.index)
    reached = _reachable_from(kernel, divergent) if barriers else ()
    return VectorReport(
        kernel=kernel.name,
        uniform_branches=frozenset(uniform),
        divergent_branches=frozenset(divergent),
        variant_after=dict(solution.after),
        barrier_pcs=frozenset(barriers),
        divergent_barriers=frozenset(barriers & set(reached)))
