"""Megablock: whole-grid vectorized execution tier.

The superblock tier fuses straight-line PTX runs into per-warp closures
but still loops over 32 lanes in Python.  The megablock tier goes one
level up: it compiles each straight-line block into a single NumPy
function over *every thread of a grid chunk* at once.  Register state
becomes a dict of ``(T,)`` ``uint64`` payload arrays (one element per
thread), predication becomes boolean masks, and SIMT control flow runs
on an array-mask reconvergence stack that mirrors
:class:`repro.functional.simt.SimtStack` exactly — same IPDOM
reconvergence pcs, same push/pop discipline, so issue counts and the
launch clock come out identical to the scalar tiers.

Eligibility is all-or-nothing per kernel: every non-control instruction
needs a vector emitter (atomics, textures, ``%clock`` reads and other
exotica have none), otherwise the engine falls back to the superblock
tier.  Predicated instructions vectorize by mask-blend: the result is
computed over every lane, then merged into the destination array with
``np.where(guard, new, old)`` (stores scatter only the guarded lanes
into the memory mirror).  Branches whose predicate is grid-uniform
(:func:`repro.analysis.vectorize.classify_kernel`) move a whole frame
without mask arithmetic.  A CTA barrier is legal in vector lockstep
when, for every CTA with a thread in the current frame, the frame
covers *all* live threads of that CTA; a barrier reached by a
warp-disjoint divergent frame *parks* that frame and re-merges it once
every live warp of the CTA has arrived (the vector twin of the scalar
``at_barrier`` / ``try_release_barrier`` protocol).  Only when neither
holds — intra-warp divergence at a barrier — does the machine write its
memory mirror back, materialise exact per-warp scalar state (registers,
SIMT stacks, barrier parking) and hand the chunk's CTAs to the scalar
engine: a bailout, not an error.

Grids wider than one 64Ki-thread chunk run their chunks *overlapped* on
a thread pool (chunks are CTA-disjoint, so they commute exactly like
the CTA shards of :mod:`repro.service.pool`); each chunk executes
against a private copy of the dense memory mirror and the per-chunk
write sets merge back in ascending chunk order, keeping results
bit-identical to the sequential schedule.

A *recording* run (:mod:`repro.functional.warptrace`) executes the
same plan through twins of its block functions that also report every
predicated instruction's guard and every ld/st's addresses, and the
machine reports each block, control instruction and fall-off step; the
timing model replays the per-warp streams this yields instead of
stepping the scalar engine.  A plain run executes none of it.

Generated block sources are plain strings binding only ``np``/``H``
(:mod:`repro.functional.npops`) plus the runtime ``VM`` object, which
makes them JSON-serialisable; :mod:`repro.functional.kernelcache`
persists compiled plans across processes keyed on the PTX fingerprint,
tier and analysis version.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from repro.analysis.dataflow import liveness
from repro.analysis.ranges import (
    ALIGN, BOUNDS, INIT, INJECTIVE, facts_from_payload, kernel_facts)
from repro.analysis.vectorize import classify_kernel
from repro.errors import SimulationFault
from repro.functional import npops
from repro.functional.cfg import block_leaders, compute_reconvergence
from repro.functional.memory import GLOBAL_BASE
from repro.functional.simt import NO_RECONVERGE, SimtEntry, SimtStack
from repro.functional.state import CTAState, thread_tables
from repro.ptx import ast
from repro.ptx.dtypes import DType
from repro.ptx.values import MASK64

#: Bump when the generated-code shape or plan schema changes (cache key).
#: 2: predicated mask-blend codegen, per-barrier divergence flag.
#: 3: pc-tagged VM.ld/VM.st calls + range-fact payload (sanitizer).
PLAN_FORMAT = 3

#: Threads per lockstep chunk (whole CTAs; at least one per chunk).
CHUNK_THREADS = 65536

#: Process-wide tier event counters (reset with :func:`reset_events`).
#: ``fallbacks`` counts kernels that left the tier at plan time,
#: ``bailouts`` chunks handed to the scalar engine mid-run,
#: ``parked_barriers``/``released_barriers`` the frame park/re-merge
#: protocol, and ``overlapped_chunks`` chunks run on the worker pool.
EVENTS = {"fallbacks": 0, "bailouts": 0, "parked_barriers": 0,
          "released_barriers": 0, "overlapped_chunks": 0}


def reset_events() -> None:
    """Zero the process-wide tier event counters."""
    for key in EVENTS:
        EVENTS[key] = 0


def chunk_workers() -> int:
    """Worker threads for overlapped chunk execution.

    ``REPRO_MEGABLOCK_WORKERS`` overrides (``1`` disables overlap —
    service shard workers set this so a fan-out of processes does not
    multiply into a fan-out of thread pools); the default caps at four
    because chunk workers only overlap in the GIL-releasing NumPy ops.
    """
    raw = os.environ.get("REPRO_MEGABLOCK_WORKERS")
    if raw:
        try:
            return max(1, int(raw))
        except ValueError:
            return 1
    return min(4, os.cpu_count() or 1)

_CONTROL = ("bra", "exit", "ret", "bar")

_INT_SYMS = {"add": "+", "sub": "-", "and": "&", "or": "|", "xor": "^"}

_CMP_SYMS = {"eq": "==", "ne": "!=", "lt": "<", "le": "<=", "gt": ">",
             "ge": ">=", "lo": "<", "ls": "<=", "hi": ">", "hs": ">="}

_SFU_FNS = {"rcp": "H.rcp", "rsqrt": "H.rsqrt", "sqrt": "H.sqrt",
            "sin": "H.sin", "cos": "H.cos", "lg2": "H.lg2",
            "ex2": "H.ex2"}

_LD_SPACES = ("global", "shared", "param", "const")


class _Reject(Exception):
    """An emitter hit a form it cannot vectorize."""


# ----------------------------------------------------------------------
# Code generation
# ----------------------------------------------------------------------
class _VecGen:
    """Accumulates the source of one block function.

    The generated function has the shape::

        def _block(VM, R, m, full):
            <register/special hoists>
            <straight-line body over (T,) arrays>
            <flush of live written registers, merged under mask m>

    ``full`` short-circuits the mask merge when the frame covers every
    thread (the common case for kernels without divergence).
    """

    def __init__(self, record: bool = False) -> None:
        #: Recording variant (trace-driven timing): every predicated
        #: instruction reports its guard and every ld/st its per-thread
        #: addresses to the machine's warp-trace recorder.
        self.record = record
        self.pre: list[str] = []
        self.body: list[str] = []
        self._n = 0
        self._entry: dict[str, str] = {}
        self._specials: dict[str, str] = {}
        self._forward: dict[str, str] = {}
        self._writes: dict[str, str] = {}
        self._guards: dict[tuple[str, str], str] = {}
        self._auto_pm: str | None = None

    def _tmp(self) -> str:
        self._n += 1
        return f"_t{self._n}"

    def entry(self, name: str) -> str:
        """Local holding the block-entry value of a register."""
        local = self._entry.get(name)
        if local is None:
            local = f"_e{len(self._entry)}"
            self._entry[name] = local
            self.pre.append(f"    {local} = VM.reg({name!r})")
        return local

    def reg(self, name: str) -> str:
        """Current payload local for a register (forwarded if written)."""
        return self._forward.get(name) or self.entry(name)

    def special(self, name: str) -> str:
        local = self._specials.get(name)
        if local is None:
            local = f"_s{len(self._specials)}"
            self._specials[name] = local
            self.pre.append(f"    {local} = VM.sp({name!r})")
        return local

    # -- operand reading ------------------------------------------------
    def payload(self, op: ast.Operand, dtype: DType) -> str | None:
        from repro.functional.fastpath import _is_special, _payload_reader
        if op.kind == ast.IMM:
            reader = _payload_reader(op, dtype)
            if reader is None:
                return None
            return repr(int(reader(None, 0)))
        if op.kind == ast.REG:
            name = op.name
            if name.startswith("%clock"):
                return None
            if _is_special(name):
                return self.special(name)
            return self.reg(name)
        return None

    @staticmethod
    def const(value) -> str:
        if isinstance(value, float):
            if value != value:
                return "np.float64(np.nan)"
            if value == float("inf"):
                return "np.float64(np.inf)"
            if value == float("-inf"):
                return "np.float64(-np.inf)"
            return f"np.float64({value!r})"
        return repr(int(value))

    def value(self, op: ast.Operand, dtype: DType) -> str | None:
        from repro.functional.fastpath import _value_reader
        if op.kind == ast.IMM:
            reader = _value_reader(op, dtype)
            if reader is None:
                return None
            return self.const(reader(None, 0))
        p = self.payload(op, dtype)
        if p is None:
            return None
        if dtype.is_float:
            return {16: "H.f16", 32: "H.f32", 64: "H.f64"}.get(
                dtype.bits, "") + f"({p})" if dtype.bits in (16, 32, 64) \
                else None
        if dtype.is_signed:
            return f"H.s({p}, {dtype.bits})"
        return f"H.u({p}, {dtype.bits})"

    # -- writing --------------------------------------------------------
    def write(self, name: str, bits: int, expr: str,
              pm: str | None = None) -> None:
        from repro.functional.fastpath import _is_special
        if _is_special(name) or name.startswith("%clock"):
            raise _Reject(f"write to special {name}")
        if pm is None:
            # Predicated instruction: mask-blend into the destination
            # (compute over all lanes, keep old values where the guard
            # is off — the scalar tier simply skips those lanes).
            pm = self._auto_pm
        old = self.reg(name) if (bits < 64 or pm is not None) else None
        t = self._tmp()
        if bits >= 64:
            self.body.append(f"    {t} = VM.arr(H.p64({expr}))")
        else:
            keep = (~((1 << bits) - 1)) & MASK64
            self.body.append(
                f"    {t} = ({old} & {keep:#x}) | "
                f"(H.p64({expr}) & {(1 << bits) - 1:#x})")
        if pm is not None:
            t2 = self._tmp()
            self.body.append(f"    {t2} = np.where({pm}, {t}, {old})")
            t = t2
        self._forward[name] = t
        self._writes[name] = t

    def write_raw(self, name: str, local: str,
                  pm: str | None = None) -> None:
        """Forward an already-computed full-64 payload local."""
        from repro.functional.fastpath import _is_special
        if _is_special(name) or name.startswith("%clock"):
            raise _Reject(f"write to special {name}")
        if pm is None:
            pm = self._auto_pm
        if pm is not None:
            old = self.reg(name)
            t = self._tmp()
            self.body.append(f"    {t} = np.where({pm}, {local}, {old})")
            local = t
        self._forward[name] = local
        self._writes[name] = local

    def guard(self, inst: ast.Instruction) -> str:
        """Effective mask for a predicated instruction (``m & pred``).

        Memoised on the predicate's *current local* (not its register
        name), so consecutive ``@%p`` instructions share one mask array
        while a redefinition of ``%p`` in between forces a fresh one.
        """
        if inst.pred is None:
            return "m"
        p = self.reg(inst.pred)
        cmp = "==" if inst.pred_negated else "!="
        cached = self._guards.get((p, cmp))
        if cached is not None:
            return cached
        t = self._tmp()
        self.body.append(f"    {t} = m & ((({p}) & 1) {cmp} 0)")
        self._guards[(p, cmp)] = t
        return t

    def begin_inst(self, inst: ast.Instruction) -> None:
        """Arm the implicit write mask before emitting *inst*.

        Register writes of a predicated instruction blend under its
        guard by default; unpredicated instructions write through."""
        self._auto_pm = None if inst.pred is None else self.guard(inst)
        if (self.record and self._auto_pm is not None
                and inst.opcode not in ("ld", "st")):
            self.body.append(f"    VM.rec_guard({inst.index}, "
                             f"{self._auto_pm})")

    # -- assembly -------------------------------------------------------
    def build(self, live_out: frozenset) -> tuple[str, list[str]]:
        pruned = sorted(n for n in self._writes if n not in live_out)
        flushes = [(name, local) for name, local in self._writes.items()
                   if name in live_out]
        # Resolve entry locals for the masked merge *before* assembling
        # (entry() appends hoists to self.pre).
        bases = {name: self.entry(name) for name, _ in flushes}
        lines = ["def _block(VM, R, m, full):"]
        lines += self.pre
        lines += self.body
        if flushes:
            lines.append("    if full:")
            for name, local in flushes:
                lines.append(f"        R[{name!r}] = {local}")
            lines.append("    else:")
            for name, local in flushes:
                lines.append(
                    f"        R[{name!r}] = "
                    f"np.where(m, {local}, {bases[name]})")
        if len(lines) == 1:
            lines.append("    pass")
        return "\n".join(lines) + "\n", pruned


# ----------------------------------------------------------------------
# Per-opcode emitters
# ----------------------------------------------------------------------
def _float_enc(bits: int) -> str:
    return {16: "H.ef16", 32: "H.ef32", 64: "H.ef64"}[bits]


def _e_binary(inst: ast.Instruction, g: _VecGen) -> bool:
    op = inst.opcode
    dtype = inst.dtype
    if inst.has_mod("sat"):
        return False
    dst, a, b = inst.operands[0], inst.operands[1], inst.operands[2]
    if dst.kind != ast.REG:
        return False
    if dtype.is_float:
        if dtype.bits not in (32, 64):
            return False
        va, vb = g.value(a, dtype), g.value(b, dtype)
        if va is None or vb is None:
            return False
        if op in ("add", "sub", "mul"):
            sym = {"add": "+", "sub": "-", "mul": "*"}[op]
            expr = f"({va}) {sym} ({vb})"
        elif op == "div":
            expr = f"H.fdiv({va}, {vb})"
        elif op == "min":
            expr = f"H.fmin({va}, {vb})"
        elif op == "max":
            expr = f"H.fmax({va}, {vb})"
        else:
            return False
        g.write(dst.name, dtype.bits, f"{_float_enc(dtype.bits)}({expr})")
        return True
    if op in _INT_SYMS:
        pa, pb = g.payload(a, dtype), g.payload(b, dtype)
        if pa is None or pb is None:
            return False
        g.write(dst.name, dtype.bits, f"({pa}) {_INT_SYMS[op]} ({pb})")
        return True
    va, vb = g.value(a, dtype), g.value(b, dtype)
    if va is None or vb is None:
        return False
    if op in ("min", "max"):
        sym = "<" if op == "min" else ">"
        g.write(dst.name, dtype.bits,
                f"np.where(({vb}) {sym} ({va}), {vb}, {va})")
        return True
    if op == "div":
        fn = "H.sdiv" if dtype.is_signed else "H.udiv"
        g.write(dst.name, dtype.bits, f"{fn}({va}, {vb}, {dtype.bits})")
        return True
    if op == "rem":
        fn = "H.srem" if dtype.is_signed else "H.urem"
        g.write(dst.name, dtype.bits, f"{fn}({va}, {vb})")
        return True
    return False


def _e_mul(inst: ast.Instruction, g: _VecGen) -> bool:
    dtype = inst.dtype
    if dtype.is_float:
        return _e_binary(inst, g)
    if inst.has_mod("hi"):
        return False
    dst, a, b = inst.operands[0], inst.operands[1], inst.operands[2]
    if inst.has_mod("wide"):
        va, vb = g.value(a, dtype), g.value(b, dtype)
        if va is None or vb is None:
            return False
        g.write(dst.name, dtype.bits * 2, f"({va}) * ({vb})")
        return True
    pa, pb = g.payload(a, dtype), g.payload(b, dtype)
    if pa is None or pb is None:
        return False
    g.write(dst.name, dtype.bits, f"({pa}) * ({pb})")
    return True


def _e_mad(inst: ast.Instruction, g: _VecGen) -> bool:
    dtype = inst.dtype
    if dtype.is_float or inst.has_mod("hi"):
        return False
    dst, a, b, c = (inst.operands[0], inst.operands[1],
                    inst.operands[2], inst.operands[3])
    if inst.has_mod("wide"):
        out_bits = dtype.bits * 2
        va, vb = g.value(a, dtype), g.value(b, dtype)
        vc = g.value(c, DType(dtype.kind, out_bits))
        if va is None or vb is None or vc is None:
            return False
        g.write(dst.name, out_bits, f"({va}) * ({vb}) + ({vc})")
        return True
    pa, pb, pc = (g.payload(a, dtype), g.payload(b, dtype),
                  g.payload(c, dtype))
    if pa is None or pb is None or pc is None:
        return False
    g.write(dst.name, dtype.bits, f"({pa}) * ({pb}) + ({pc})")
    return True


def _e_fma(inst: ast.Instruction, g: _VecGen) -> bool:
    dtype = inst.dtype
    if not dtype.is_float or dtype.bits not in (32, 64):
        return False
    dst, a, b, c = (inst.operands[0], inst.operands[1],
                    inst.operands[2], inst.operands[3])
    va, vb, vc = (g.value(a, dtype), g.value(b, dtype),
                  g.value(c, dtype))
    if va is None or vb is None or vc is None:
        return False
    g.write(dst.name, dtype.bits,
            f"{_float_enc(dtype.bits)}(({va}) * ({vb}) + ({vc}))")
    return True


def _e_neg(inst: ast.Instruction, g: _VecGen) -> bool:
    dtype = inst.dtype
    dst, a = inst.operands[0], inst.operands[1]
    if dtype.is_float:
        if dtype.bits not in (32, 64):
            return False
        va = g.value(a, dtype)
        if va is None:
            return False
        g.write(dst.name, dtype.bits,
                f"{_float_enc(dtype.bits)}(-({va}))")
        return True
    pa = g.payload(a, dtype)
    if pa is None:
        return False
    g.write(dst.name, dtype.bits, f"np.uint64(0) - ({pa})")
    return True


def _e_setp(inst: ast.Instruction, g: _VecGen) -> bool:
    if len(inst.operands) != 3:
        return False
    sym = _CMP_SYMS.get(inst.cmp)
    if sym is None:
        return False
    dtype = inst.dtype
    if dtype.is_float and dtype.bits not in (32, 64):
        return False
    dst, a, b = inst.operands[0], inst.operands[1], inst.operands[2]
    va, vb = g.value(a, dtype), g.value(b, dtype)
    if va is None or vb is None:
        return False
    # NumPy's ordered comparisons natively match the scalar NaN
    # semantics (False for everything except ne).
    g.write(dst.name, 64, f"({va}) {sym} ({vb})")
    return True


def _e_selp(inst: ast.Instruction, g: _VecGen) -> bool:
    dtype = inst.dtype
    dst, a, b, p = (inst.operands[0], inst.operands[1],
                    inst.operands[2], inst.operands[3])
    if p.kind != ast.REG:
        return False
    pa, pb = g.payload(a, dtype), g.payload(b, dtype)
    if pa is None or pb is None:
        return False
    pp = g.reg(p.name)
    g.write(dst.name, dtype.bits,
            f"np.where((({pp}) & 1) != 0, {pa}, {pb})")
    return True


def _e_sfu(inst: ast.Instruction, g: _VecGen) -> bool:
    dtype = inst.dtype
    if not dtype.is_float or dtype.bits != 32:
        return False
    dst, a = inst.operands[0], inst.operands[1]
    va = g.value(a, dtype)
    if va is None:
        return False
    fn = _SFU_FNS[inst.opcode]
    g.write(dst.name, 32, f"H.ef32({fn}({va}))")
    return True


def _e_shl(inst: ast.Instruction, g: _VecGen) -> bool:
    dtype = inst.dtype
    dst, a, b = inst.operands[0], inst.operands[1], inst.operands[2]
    pa, pb = g.payload(a, dtype), g.payload(b, dtype)
    if pa is None or pb is None:
        return False
    g.write(dst.name, dtype.bits,
            f"H.shl({pa}, H.p64({pb}), {dtype.bits})")
    return True


def _e_shr(inst: ast.Instruction, g: _VecGen) -> bool:
    dtype = inst.dtype
    dst, a, b = inst.operands[0], inst.operands[1], inst.operands[2]
    pb = g.payload(b, dtype)
    if pb is None:
        return False
    if dtype.is_signed:
        va = g.value(a, dtype)
        if va is None:
            return False
        expr = f"H.shr_s({va}, H.p64({pb}), {dtype.bits})"
    else:
        pa = g.payload(a, dtype)
        if pa is None:
            return False
        expr = f"H.shr_u(H.u({pa}, {dtype.bits}), H.p64({pb}), {dtype.bits})"
    g.write(dst.name, dtype.bits, expr)
    return True


def _e_brev(inst: ast.Instruction, g: _VecGen) -> bool:
    if inst.dtype.bits != 32:
        return False
    dst, a = inst.operands[0], inst.operands[1]
    pa = g.payload(a, inst.dtype)
    if pa is None:
        return False
    g.write(dst.name, 32, f"H.brev32({pa})")
    return True


def _e_mov(inst: ast.Instruction, g: _VecGen) -> bool:
    dtype = inst.dtype
    dst, src = inst.operands[0], inst.operands[1]
    if dst.kind != ast.REG or src.kind == ast.VEC:
        return False
    if dtype.kind == "p":
        p = g.payload(src, dtype)
        if p is None:
            return False
        g.write(dst.name, 64, f"({p}) != 0")
        return True
    if src.kind == ast.SYM:
        g.write(dst.name, dtype.bits,
                f"VM.fill(VM.sym_addr({src.name!r}, {src.offset or 0}))")
        return True
    p = g.payload(src, dtype)
    if p is None:
        return False
    g.write(dst.name, dtype.bits, p)
    return True


def _e_cvt(inst: ast.Instruction, g: _VecGen) -> bool:
    if inst.has_mod("sat") or len(inst.dtypes) < 2:
        return False
    dt, st = inst.dtypes[0], inst.dtypes[1]
    dst, src = inst.operands[0], inst.operands[1]
    if dst.kind != ast.REG:
        return False
    if dt.is_float and st.is_float:
        if dt.bits not in (16, 32, 64) or st.bits not in (16, 32, 64):
            return False
        va = g.value(src, st)
        if va is None:
            return False
        g.write(dst.name, dt.bits, f"{_float_enc(dt.bits)}({va})")
        return True
    if dt.is_float and st.is_integer:
        if dt.bits not in (32, 64):
            return False
        va = g.value(src, st)
        if va is None:
            return False
        g.write(dst.name, dt.bits,
                f"{_float_enc(dt.bits)}(H.i2f({va}))")
        return True
    if dt.is_integer and st.is_float:
        if st.bits not in (32, 64):
            return False
        va = g.value(src, st)
        if va is None:
            return False
        rounder = next((m for m in inst.modifiers
                        if m in ("rni", "rzi", "rmi", "rpi")), "rzi")
        g.write(dst.name, dt.bits,
                f"H.f2i({va}, {rounder!r}, {dt.bits}, {dt.is_signed})")
        return True
    if dt.is_integer and st.is_integer:
        va = g.value(src, st)
        if va is None:
            return False
        g.write(dst.name, dt.bits, va)
        return True
    return False


def _ld_dests(inst: ast.Instruction):
    dst = inst.operands[0]
    if dst.kind == ast.REG:
        return [dst]
    if dst.kind == ast.VEC and dst.elems \
            and all(e.kind == ast.REG for e in dst.elems) \
            and len(dst.elems) in (2, 4):
        return list(dst.elems)
    return None


def _addr_local(inst: ast.Instruction, g: _VecGen, mem: ast.Operand):
    """Local (array) or expression (uniform int) for the base address."""
    from repro.functional.fastpath import _is_special
    if mem.is_reg_base:
        name = mem.name
        if name.startswith("%clock"):
            return None
        base = g.special(name) if _is_special(name) else g.reg(name)
        offset = mem.offset or 0
        if not offset:
            return base
        t = g._tmp()
        g.body.append(
            f"    {t} = ({base}) + np.uint64({offset & MASK64})")
        return t
    t = g._tmp()
    g.body.append(
        f"    {t} = VM.sym_addr({mem.name!r}, {mem.offset or 0})")
    return t


def _e_ld(inst: ast.Instruction, g: _VecGen) -> bool:
    space = inst.space
    if space not in _LD_SPACES:
        return False
    dtype = inst.dtype
    nbytes = dtype.bytes
    mem = inst.operands[1]
    if mem.kind != ast.MEM:
        return False
    dests = _ld_dests(inst)
    if dests is None:
        return False
    pm = g.guard(inst)
    addr = _addr_local(inst, g, mem)
    if addr is None:
        return False
    signed = dtype.is_signed and dtype.bits < 64
    merge = pm if inst.pred is not None else None
    if g.record:
        g.body.append(f"    VM.rec_mem({inst.index}, {addr}, {pm})")
    for index, d in enumerate(dests):
        a_expr = addr if index == 0 \
            else f"({addr}) + np.uint64({index * nbytes})"
        t = g._tmp()
        g.body.append(
            f"    {t} = VM.ld({inst.index}, {space!r}, {nbytes}, "
            f"{a_expr}, {pm}, {signed}, {dtype.bits})")
        g.write_raw(d.name, t, merge)
    return True


def _e_st(inst: ast.Instruction, g: _VecGen) -> bool:
    space = inst.space
    if space not in ("global", "shared"):
        return False
    dtype = inst.dtype
    nbytes = dtype.bytes
    mem, src = inst.operands[0], inst.operands[1]
    if mem.kind != ast.MEM:
        return False
    if src.kind == ast.VEC:
        if not src.elems or len(src.elems) not in (2, 4):
            return False
        srcs = list(src.elems)
    else:
        srcs = [src]
    values = [g.payload(s, dtype) for s in srcs]
    if any(v is None for v in values):
        return False
    pm = g.guard(inst)
    addr = _addr_local(inst, g, mem)
    if addr is None:
        return False
    if g.record:
        g.body.append(f"    VM.rec_mem({inst.index}, {addr}, {pm})")
    for index, val in enumerate(values):
        a_expr = addr if index == 0 \
            else f"({addr}) + np.uint64({index * nbytes})"
        g.body.append(
            f"    VM.st({inst.index}, {space!r}, {nbytes}, {a_expr}, "
            f"H.p64({val}), {pm})")
    return True


_EMITTERS = {
    "add": _e_binary, "sub": _e_binary, "and": _e_binary,
    "or": _e_binary, "xor": _e_binary, "min": _e_binary,
    "max": _e_binary, "div": _e_binary, "rem": _e_binary,
    "mul": _e_mul, "mad": _e_mad, "fma": _e_fma, "neg": _e_neg,
    "setp": _e_setp, "selp": _e_selp, "shl": _e_shl, "shr": _e_shr,
    "brev": _e_brev, "mov": _e_mov, "cvt": _e_cvt,
    "ld": _e_ld, "st": _e_st,
    "rcp": _e_sfu, "rsqrt": _e_sfu, "sqrt": _e_sfu, "sin": _e_sfu,
    "cos": _e_sfu, "lg2": _e_sfu, "ex2": _e_sfu,
}


def _emit(inst: ast.Instruction, g: _VecGen) -> bool:
    handler = _EMITTERS.get(inst.opcode)
    if handler is None:
        return False
    try:
        return bool(handler(inst, g))
    except (_Reject, KeyError, IndexError, AttributeError):
        return False


# ----------------------------------------------------------------------
# Plans
# ----------------------------------------------------------------------
class _VecBlock:
    __slots__ = ("start", "end", "count", "opcode_counts", "source",
                 "pruned", "fn")

    def __init__(self, start, end, opcode_counts, source, pruned, fn):
        self.start = start
        self.end = end
        self.count = end - start
        self.opcode_counts = opcode_counts
        self.source = source
        self.pruned = pruned
        self.fn = fn


def _compile_source(source: str, tag: str):
    namespace = {"np": np, "H": npops}
    exec(compile(source, f"<megablock:{tag}>", "exec"), namespace)
    return namespace["_block"]


class MegaPlan:
    """Compiled vector plan for one kernel (serialisable)."""

    def __init__(self, kernel_name: str, body_len: int, eligible: bool,
                 reasons: list[str], blocks: dict, controls: dict,
                 reconvergence: dict, facts: dict | None = None) -> None:
        self.kernel_name = kernel_name
        self.body_len = body_len
        self.eligible = eligible
        self.reasons = reasons
        self.blocks = blocks  # start pc -> _VecBlock
        self.controls = controls  # pc -> control descriptor dict
        self.reconvergence = reconvergence
        #: pc -> MemFact: the range pass's affine memory facts, carried
        #: in the plan so a cached kernel (whose body never re-parses)
        #: still arms the sanitizer's launch-time proofs.
        self.facts = facts if facts is not None else {}
        #: start pc -> recording twin of the block function, built on
        #: the first recording run (see :func:`recording_blocks`).
        self._recording: dict | None = None

    @property
    def pruned(self) -> dict:
        """start pc -> register names whose block-end flush was elided."""
        return {start: list(block.pruned)
                for start, block in self.blocks.items() if block.pruned}

    def to_payload(self) -> dict:
        return {
            "kernel": self.kernel_name,
            "body_len": self.body_len,
            "eligible": self.eligible,
            "reasons": list(self.reasons),
            "blocks": [
                {"start": b.start, "end": b.end,
                 "opcode_counts": dict(b.opcode_counts),
                 "source": b.source, "pruned": list(b.pruned)}
                for b in self.blocks.values()],
            "controls": {str(pc): dict(ctrl)
                         for pc, ctrl in self.controls.items()},
            "reconvergence": {str(pc): rpc
                              for pc, rpc in self.reconvergence.items()},
            "facts": [self.facts[pc].to_dict()
                      for pc in sorted(self.facts)],
        }


def plan_from_payload(payload: dict) -> MegaPlan:
    """Rebuild (and recompile) a plan from its JSON payload.

    Raises KeyError/TypeError/SyntaxError on malformed payloads — the
    kernel cache treats any exception as a discard.
    """
    blocks = {}
    for b in payload["blocks"]:
        start, end = int(b["start"]), int(b["end"])
        fn = _compile_source(b["source"],
                             f"{payload['kernel']}:{start}")
        blocks[start] = _VecBlock(
            start, end,
            {str(op): int(c) for op, c in b["opcode_counts"].items()},
            b["source"], [str(n) for n in b["pruned"]], fn)
    controls = {}
    for pc, ctrl in payload["controls"].items():
        controls[int(pc)] = {
            "op": str(ctrl["op"]), "kind": str(ctrl["kind"]),
            "pred": ctrl["pred"], "neg": bool(ctrl["neg"]),
            "target": (None if ctrl["target"] is None
                       else int(ctrl["target"])),
            "rpc": int(ctrl["rpc"]), "uniform": bool(ctrl["uniform"]),
            # Conservative default for pre-"div" payloads: assume the
            # kernel can diverge (only ever costs the containment check).
            "div": bool(ctrl.get("div", True)),
        }
    return MegaPlan(
        kernel_name=str(payload["kernel"]),
        body_len=int(payload["body_len"]),
        eligible=bool(payload["eligible"]),
        reasons=[str(r) for r in payload["reasons"]],
        blocks=blocks, controls=controls,
        reconvergence={int(pc): int(rpc) for pc, rpc
                       in payload["reconvergence"].items()},
        facts=facts_from_payload(payload.get("facts", [])))


def compile_megaplan(kernel) -> MegaPlan:
    """Classify, segment and compile *kernel* into a vector plan.

    The plan carries the IPDOM reconvergence map computed here, never
    one already attached to the kernel: an exit-reconvergence ablation
    engine may have attached its own, and a plan persisted with it
    would mis-time every later process that loads the plan.
    """
    reconvergence = compute_reconvergence(kernel)
    if not kernel.reconvergence:
        kernel.reconvergence = dict(reconvergence)
    body = kernel.body
    n = len(body)
    reasons: list[str] = []
    report = classify_kernel(kernel)
    bar_div = report.barrier_divergence()
    live = liveness(kernel)
    leaders = block_leaders(kernel)
    blocks: dict[int, _VecBlock] = {}
    controls: dict[int, dict] = {}
    pc = 0
    while pc < n:
        inst = body[pc]
        if inst.opcode in _CONTROL:
            # "div": can any branch of this kernel diverge across the
            # grid?  A bar in a divergence-free kernel always meets a
            # full frame, so the runtime containment proof is skipped.
            ctrl = {"op": inst.opcode,
                    "kind": ("exit" if inst.opcode in ("exit", "ret")
                             else inst.opcode),
                    "pred": inst.pred, "neg": bool(inst.pred_negated),
                    "target": None, "rpc": NO_RECONVERGE,
                    "uniform": False,
                    "div": (bool(bar_div.get(pc, True))
                            if inst.opcode == "bar"
                            else report.has_divergence)}
            if inst.opcode != "bra" and inst.pred is not None:
                reasons.append(f"pc {pc}: predicated {inst.opcode}")
            if inst.opcode == "bra":
                target = None
                for op in inst.operands:
                    if op.kind == ast.LABEL:
                        target = kernel.labels[op.name]
                        break
                if target is None:
                    reasons.append(f"pc {pc}: bra without label target")
                ctrl["target"] = target
                if inst.pred is not None:
                    ctrl["rpc"] = reconvergence.get(pc, NO_RECONVERGE)
                    ctrl["uniform"] = pc in report.uniform_branches
            controls[pc] = ctrl
            pc += 1
            continue
        start = pc
        gen = _VecGen()
        ok = True
        opcode_counts: dict[str, int] = {}
        while pc < n and body[pc].opcode not in _CONTROL \
                and (pc == start or pc not in leaders):
            cur = body[pc]
            gen.begin_inst(cur)
            if not _emit(cur, gen):
                ok = False
                reasons.append(
                    f"pc {pc}: no vector emitter for {cur.opcode} "
                    f"({(cur.text or '').strip()})")
            opcode_counts[cur.opcode] = opcode_counts.get(
                cur.opcode, 0) + 1
            pc += 1
        if not ok:
            continue
        live_out = live.before.get(pc, frozenset()) if pc < n \
            else frozenset()
        source, pruned = gen.build(live_out)
        fn = _compile_source(source, f"{kernel.name}:{start}") \
            if not reasons else None
        blocks[start] = _VecBlock(start, pc, opcode_counts, source,
                                  pruned, fn)
    eligible = not reasons
    if eligible:
        # A reason found after a block compiled lazily is impossible
        # here (fn skipped only when reasons existed at build time), but
        # guard against partial compilation anyway.
        for block in blocks.values():
            if block.fn is None:
                block.fn = _compile_source(
                    block.source, f"{kernel.name}:{block.start}")
    return MegaPlan(kernel_name=kernel.name, body_len=n,
                    eligible=eligible, reasons=reasons, blocks=blocks,
                    controls=controls,
                    reconvergence=reconvergence,
                    facts=kernel_facts(kernel))


def recording_blocks(plan: MegaPlan, kernel) -> dict:
    """Recording twins of an eligible plan's block functions.

    Same segmentation, same code and the same flush set as the plan's
    own blocks, plus ``VM.rec_guard``/``VM.rec_mem`` calls that hand
    each predicated instruction's guard and each ld/st's addresses to
    the machine's recorder.  Built once per plan, on the first recording
    run, so a plain megablock launch never pays for them.
    """
    if plan._recording is None:
        body = kernel.body
        fns = {}
        for start, block in plan.blocks.items():
            gen = _VecGen(record=True)
            for pc in range(start, block.end):
                gen.begin_inst(body[pc])
                if not _emit(body[pc], gen):
                    raise SimulationFault(
                        f"pc {pc}: no recording form for "
                        f"{body[pc].opcode}")
            pruned = set(block.pruned)
            source, _ = gen.build(frozenset(
                name for name in gen._writes if name not in pruned))
            fns[start] = _compile_source(source,
                                         f"{kernel.name}:{start}:rec")
        plan._recording = fns
    return plan._recording


# ----------------------------------------------------------------------
# The vector machine
# ----------------------------------------------------------------------
class _Frame:
    """One array-mask SIMT stack entry (mirrors SimtEntry)."""

    __slots__ = ("pc", "rpc", "mask", "wa", "full")

    def __init__(self, pc, rpc, mask, wa, full):
        self.pc = pc
        self.rpc = rpc
        self.mask = mask
        self.wa = wa  # cached count of warps with >=1 active thread
        self.full = full  # cached mask.all()


_GATHER_DT = {2: np.uint16, 4: np.uint32, 8: np.uint64}
_GATHER_SHIFT = {2: np.uint64(1), 4: np.uint64(2), 8: np.uint64(3)}


class MegaMachine:
    """Executes a whole launch in lockstep grid chunks."""

    def __init__(self, engine, plan: MegaPlan, recorder=None) -> None:
        self.engine = engine
        self.launch = engine.launch
        self.plan = plan
        #: WarpTraceRecorder (or None): every issue is reported to it.
        self._rec = recorder
        #: armed Sanitizer (or None): ld/st run masked shadow checks,
        #: bars run the synccheck and advance the racecheck epoch.
        self._san = getattr(engine, "sanitizer", None)
        #: chunks that hit an unparkable barrier and finished scalar.
        self.bailouts = 0
        #: divergent frames parked at a barrier / re-merged past one.
        self.parks = 0
        self.releases = 0

    # -- public entry ---------------------------------------------------
    def run(self, stats, first_cta: int = 0,
            num_ctas: int | None = None) -> None:
        """Run CTAs ``first_cta .. first_cta+num_ctas-1`` (the whole
        grid by default).  Shard executors pass a subrange; chunking is
        relative to the range, so a shard behaves exactly like a small
        grid that happens to start at ``first_cta``."""
        launch = self.launch
        tpb = launch.threads_per_block
        nct_chunk = max(1, CHUNK_THREADS // tpb)
        if num_ctas is None:
            num_ctas = launch.num_ctas - first_cta
        limit = first_cta + num_ctas
        chunks = []
        start = first_cta
        while start < limit:
            nct = min(nct_chunk, limit - start)
            chunks.append((start, nct))
            start += nct
        workers = chunk_workers()
        if (len(chunks) > 1 and workers > 1 and self._san is None
                and self._rec is None
                and not any(c["op"] == "bar"
                            for c in self.plan.controls.values())):
            # Chunks are CTA-disjoint, so they commute exactly like the
            # service layer's CTA shards.  Barrier kernels stay on the
            # sequential path: a park/bailout mutates launch-wide state
            # (scalar continuation, tracer) that must not race.  The
            # sanitizer also forces sequential chunks — its finding
            # funnel and shadow absorption are not thread-safe — and so
            # does a recorder, which appends in issue order.
            self._run_overlapped(chunks, stats, workers)
            return
        # Casting f64->f32 with overflow emits RuntimeWarnings the
        # scalar tier never sees; suppress for the whole vector run.
        with np.errstate(all="ignore"):
            for start, nct in chunks:
                stats.ctas_launched += nct
                stats.warps_launched += nct * launch.warps_per_block
                delta = self._run_chunk(start, nct, stats)
                if delta is not None:
                    launch.clock += delta
                    stats.instructions += delta

    def _run_overlapped(self, chunks, stats, workers: int) -> None:
        """Dispatch independent chunks onto a thread pool.

        Every chunk runs on a private machine against a private copy of
        the dense memory mirror; the parent merges each chunk's exact
        write set back in ascending chunk order (identical conflict
        resolution to the sequential schedule and to the sharded
        service).  NumPy kernels over 64Ki-lane arrays release the GIL,
        which is where the overlap comes from.
        """
        launch = self.launch
        gm = launch.global_mem
        snap = gm.dense_mirror()
        snap.extend(b"\x00" * ((-len(snap)) % 8))
        base = (np.frombuffer(bytes(snap), np.uint8) if snap
                else np.zeros(0, np.uint8))

        def job(start: int, nct: int):
            machine = MegaMachine(self.engine, self.plan)
            part = type(stats)()
            part.ctas_launched += nct
            part.warps_launched += nct * launch.warps_per_block
            # np.errstate is thread-local; arm it per worker.
            with np.errstate(all="ignore"):
                delta = machine._run_chunk(start, nct, part, base=base,
                                           writeback=False)
            part.instructions += delta
            return machine, part, delta

        EVENTS["overlapped_chunks"] += len(chunks)
        with ThreadPoolExecutor(
                max_workers=min(workers, len(chunks))) as pool:
            futures = [pool.submit(job, start, nct)
                       for start, nct in chunks]
        final = base.copy()
        error = None
        for future in futures:  # ascending chunk order
            if error is not None:
                break
            try:
                machine, part, delta = future.result()
            except Exception as exc:  # noqa: BLE001 - re-raised below
                # Match the sequential schedule: chunks before the
                # faulting one commit, the faulting one is discarded.
                error = exc
                continue
            changed = np.flatnonzero(machine.gmem != base)
            final[changed] = machine.gmem[changed]
            launch.clock += delta
            stats.merge(part)
        gm.write_dense(final)
        if error is not None:
            raise error

    # -- chunk setup ----------------------------------------------------
    @staticmethod
    def _arena_np(arena) -> tuple[np.ndarray, int]:
        data = bytes(arena.data)
        real = len(data)
        data += b"\x00" * ((-real) % 8)
        return (np.frombuffer(data, np.uint8) if data
                else np.zeros(0, np.uint8)), real

    def _setup(self, cta_start: int, nct: int,
               base: np.ndarray | None = None) -> None:
        launch = self.launch
        self.cta_start = cta_start
        self.nct = nct
        tpb = launch.threads_per_block
        self.T = nct * tpb
        tables = thread_tables(launch, cta_start, nct)
        self.specials = tables["specials"]
        self.ctaidx = tables["cta_index"]
        self.wid = tables["warp_of"]
        self.warp_count = nct * launch.warps_per_block
        self.R: dict[str, np.ndarray] = {}
        self.alive = np.ones(self.T, bool)
        gm = launch.global_mem
        lo, nxt = gm.dense_bounds()
        self.gspan = nxt - lo
        if base is not None:
            # Overlapped chunk: private copy of the shared snapshot (the
            # parent merges write sets back in ascending chunk order).
            self.gmem = base.copy()
            self._gbuf = self.gmem
        else:
            buf = gm.dense_mirror()
            buf.extend(b"\x00" * ((-len(buf)) % 8))
            self._gbuf = buf
            self.gmem = (np.frombuffer(buf, np.uint8) if buf
                         else np.zeros(0, np.uint8))
        span = max(launch.shared_bytes, 16)
        self.S_real = span
        span += (-span) % 8
        self.S = span
        self.smem = np.zeros(nct * span, np.uint8)
        self.srow = (self.ctaidx * span).astype(np.uint64)
        self.pmem, self.p_len = self._arena_np(launch.param_mem)
        self.cmem, self.c_len = self._arena_np(launch.const_mem)
        self._views: dict[tuple, np.ndarray] = {}
        self._init = None
        if self._san is not None:
            self._setup_sanitize(gm, span)

    def _setup_sanitize(self, gm, span: int) -> None:
        """Chunk-local shadow state mirroring the scalar hook's tables.

        Global: a sorted allocation interval table for vectorized
        bounds proofs plus a dense 0/1 init mirror (exported from the
        launch's :class:`ShadowMemory`, absorbed back at chunk end).
        Shared: flat last-writer / last-reader tables (epoch, thread)
        over every CTA's shared window, advanced per completed barrier.
        """
        allocs = gm.allocations
        bases = sorted(allocs)
        self._ab = np.array(bases, np.uint64)
        self._ae = self._ab + np.array(
            [allocs[b] for b in bases], np.uint64)
        shadow = gm.shadow
        if shadow is not None:
            self._init = shadow.dense_init(GLOBAL_BASE, self.gspan)
        #: retirement pc per thread (body_len + 1 = still running) —
        #: the synccheck excuses only exits that precede the bar.
        self._exit_pc = np.full(self.T, self.plan.body_len + 1,
                                np.int64)
        tpb = self.launch.threads_per_block
        self._tid_in_cta = (np.arange(self.T, dtype=np.int64)
                            - self.ctaidx.astype(np.int64) * tpb)
        ns = self.nct * span
        self._sw_epoch = np.full(ns, -1, np.int64)
        self._sw_thread = np.full(ns, -1, np.int64)
        self._sr_epoch = np.full(ns, -1, np.int64)
        self._sr_thread = np.full(ns, -1, np.int64)
        self._san_epoch = np.zeros(self.nct, np.int64)

    # -- generated-code runtime API ------------------------------------
    def reg(self, name: str) -> np.ndarray:
        arr = self.R.get(name)
        if arr is None:
            arr = np.zeros(self.T, np.uint64)
            self.R[name] = arr
        return arr

    def sp(self, name: str) -> np.ndarray:
        return self.specials[name]

    def rec_guard(self, pc: int, guard: np.ndarray) -> None:
        """Recording block functions: report a predicated guard."""
        self._rec.guard(pc, guard)

    def rec_mem(self, pc: int, addr, pm: np.ndarray) -> None:
        """Recording block functions: report a ld/st's addresses."""
        self._rec.mem(pc, addr, pm)

    def fill(self, value: int) -> np.ndarray:
        return np.full(self.T, np.uint64(int(value) & MASK64))

    def arr(self, x: np.ndarray) -> np.ndarray:
        return x if x.ndim else np.full(self.T, x)

    def sym_addr(self, name: str, offset: int) -> int:
        launch = self.launch
        if name in launch.param_offsets:
            return launch.param_offsets[name] + offset
        if name in launch.shared_offsets:
            return launch.shared_offsets[name] + offset
        symbol = launch.module_symbols.get(name)
        if symbol is not None:
            return symbol[1] + offset
        raise SimulationFault(f"unknown symbol {name!r}")

    def _view(self, key: str, buf: np.ndarray,
              nbytes: int) -> np.ndarray:
        view = self._views.get((key, nbytes))
        if view is None:
            view = buf.view(_GATHER_DT[nbytes])
            self._views[(key, nbytes)] = view
        return view

    def _gather(self, key: str, buf: np.ndarray, idx: np.ndarray,
                nbytes: int) -> np.ndarray:
        if nbytes in _GATHER_DT \
                and not (idx & np.uint64(nbytes - 1)).any():
            view = self._view(key, buf, nbytes)
            return view[(idx >> _GATHER_SHIFT[nbytes])
                        .astype(np.int64)].astype(np.uint64)
        out = np.zeros(len(idx), np.uint64)
        ii = idx.astype(np.int64)
        for k in range(nbytes):
            out |= buf[ii + k].astype(np.uint64) << np.uint64(8 * k)
        return out

    def _fault(self, addr_arr, bad, nbytes: int, size: int):
        i = int(np.argmax(bad))
        a = int(addr_arr[i])
        raise SimulationFault(
            f"access [{a}, {a + nbytes}) outside arena of {size} bytes")

    def ld(self, pc: int, space: str, nbytes: int, addr, pm,
           signed: bool, bits: int) -> np.ndarray:
        if not isinstance(addr, np.ndarray):
            if space in ("param", "const"):
                # Truly uniform (one arena for the whole grid): read
                # once through the scalar arena (same fault semantics)
                # and broadcast.
                arena = (self.launch.param_mem if space == "param"
                         else self.launch.const_mem)
                value = arena.read_uint(int(addr), nbytes)
                if signed:
                    sign = 1 << (bits - 1)
                    value = ((value ^ sign) - sign) & MASK64
                return np.full(self.T, np.uint64(value))
            addr = np.full(self.T, np.uint64(int(addr) & MASK64))
        ok = None
        if space == "global":
            if self._san is not None:
                self._san_global(pc, addr, pm, nbytes, False)
            rel = addr - np.uint64(GLOBAL_BASE)
            if self.gspan >= nbytes:
                ok = rel <= np.uint64(self.gspan - nbytes)
            else:
                ok = np.zeros(self.T, bool)
            idx = np.where(ok, rel, np.uint64(0))
            raw = self._gather("g", self.gmem, idx, nbytes)
            # Reads outside the mirror see zeroed fresh pages — exactly
            # what the sparse auto-paging store returns.
            raw = np.where(ok, raw, np.uint64(0))
        elif space == "shared":
            limit = self.S_real - nbytes
            bad = pm & (addr > np.uint64(limit))
            if bad.any():
                self._fault(addr, bad, nbytes, self.S_real)
            if self._san is not None:
                self._san_shared(pc, addr, pm, nbytes, False)
            idx = self.srow + np.where(pm, addr, np.uint64(0))
            raw = self._gather("s", self.smem, idx, nbytes)
        else:  # param / const
            buf, real = ((self.pmem, self.p_len) if space == "param"
                         else (self.cmem, self.c_len))
            limit = real - nbytes
            bad = pm if limit < 0 else pm & (addr > np.uint64(limit))
            if bad.any():
                self._fault(addr, bad, nbytes, real)
            idx = np.where(pm, addr, np.uint64(0))
            raw = self._gather(space, buf, idx, nbytes)
        if signed:
            raw = npops.p64(npops.s(raw, bits))
        return raw

    def st(self, pc: int, space: str, nbytes: int, addr, val,
           pm) -> None:
        if not isinstance(addr, np.ndarray):
            addr = np.full(self.T, np.uint64(int(addr) & MASK64))
        val = np.asarray(val)
        if val.ndim == 0:
            val = np.broadcast_to(val.astype(np.uint64), (self.T,))
        if space == "global":
            if self._san is not None:
                self._san_global(pc, addr, pm, nbytes, True)
            rel = addr - np.uint64(GLOBAL_BASE)
            if self.gspan >= nbytes:
                ok = pm & (rel <= np.uint64(self.gspan - nbytes))
            else:
                ok = np.zeros(self.T, bool)
            sel = np.nonzero(ok)[0]
            if not sel.size:
                return
            idx = rel[sel]
            if self._init is not None:
                # Mirror gm.write's auto-marking: these bytes are now
                # initialized (absorbed into the shadow at chunk end).
                ii = idx.astype(np.int64)
                for k in range(nbytes):
                    self._init[ii + k] = 1
            key, buf = "g", self.gmem
        elif space == "shared":
            limit = self.S_real - nbytes
            bad = pm & (addr > np.uint64(limit))
            if bad.any():
                self._fault(addr, bad, nbytes, self.S_real)
            if self._san is not None:
                self._san_shared(pc, addr, pm, nbytes, True)
            sel = np.nonzero(pm)[0]
            if not sel.size:
                return
            idx = self.srow[sel] + addr[sel]
            key, buf = "s", self.smem
        else:
            raise SimulationFault(f"vector store to space {space!r}")
        v = val[sel]
        if nbytes in _GATHER_DT \
                and not (idx & np.uint64(nbytes - 1)).any():
            view = self._view(key, buf, nbytes)
            view[(idx >> _GATHER_SHIFT[nbytes]).astype(np.int64)] = \
                v.astype(_GATHER_DT[nbytes])
        else:
            ii = idx.astype(np.int64)
            for k in range(nbytes):
                buf[ii + k] = ((v >> np.uint64(8 * k))
                               & np.uint64(0xFF)).astype(np.uint8)

    # -- sanitizer checks (vector twins of Sanitizer._check_*) ----------
    def _san_global(self, pc: int, addr: np.ndarray, pm: np.ndarray,
                    nbytes: int, is_write: bool) -> None:
        """Masked bounds / alignment / init check for one global op.

        Runs the same rule set as ``Sanitizer._check_global`` over the
        whole chunk at once, skipping exactly the checks the range pass
        proved for this pc.  Findings funnel through the shared
        :meth:`Sanitizer.record`, so the (kernel, rule, pc) key is
        identical to the scalar tiers'.
        """
        san = self._san
        proofs = san.proofs.get(pc, frozenset())
        sel = np.flatnonzero(pm)
        if not sel.size:
            return
        a = addr[sel]
        n = int(sel.size)
        kname = self.launch.kernel.name
        kind = "store" if is_write else "load"
        counters = san.counters
        inb = np.ones(n, bool)
        if BOUNDS in proofs:
            counters["skipped_proven"] += n
        else:
            counters["checked_accesses"] += n
            pos = np.searchsorted(self._ab, a,
                                  side="right").astype(np.int64) - 1
            has = pos >= 0
            end = self._ae[np.where(has, pos, 0)]
            inb = has & (a + np.uint64(nbytes) <= end)
            bad = ~inb
            if bad.any():
                ai = int(a[int(np.flatnonzero(bad)[0])])
                span = self.launch.global_mem.allocation_containing(ai)
                if span is None:
                    msg = (f"out-of-bounds global {kind} of {nbytes} "
                           f"bytes at {ai:#x}: no live allocation "
                           "contains the address")
                else:
                    msg = (f"out-of-bounds global {kind} of {nbytes} "
                           f"bytes at {ai:#x}: overruns allocation "
                           f"[{span[0]:#x}, {span[0] + span[1]:#x})")
                san.record("S601", kname, pc, msg,
                           count=int(bad.sum()))
        if nbytes in (2, 4, 8, 16):
            if ALIGN in proofs:
                counters["skipped_proven"] += n
            else:
                mis = (a & np.uint64(nbytes - 1)) != 0
                if mis.any():
                    ai = int(a[int(np.flatnonzero(mis)[0])])
                    san.record(
                        "S605", kname, pc,
                        f"misaligned global {kind}: address {ai:#x} is "
                        f"not {nbytes}-byte aligned",
                        count=int(mis.sum()))
        if not is_write:
            if INIT in proofs:
                counters["skipped_proven"] += n
            elif self._init is not None:
                chk = np.flatnonzero(inb)
                if chk.size:
                    ri = (a[chk]
                          - np.uint64(GLOBAL_BASE)).astype(np.int64)
                    flags = np.ones(chk.size, bool)
                    for k in range(nbytes):
                        flags &= self._init[ri + k] != 0
                    unin = ~flags
                    if unin.any():
                        i = chk[int(np.flatnonzero(unin)[0])]
                        san.record(
                            "S602", kname, pc,
                            f"global load of {nbytes} uninitialized "
                            f"bytes at {int(a[i]):#x} (never written "
                            "by host or device)",
                            count=int(unin.sum()))

    def _san_shared(self, pc: int, addr: np.ndarray, pm: np.ndarray,
                    nbytes: int, is_write: bool) -> None:
        """Byte-granular barrier-interval racecheck, vectorized.

        Accesses are checked against the chunk's last-writer /
        last-reader tables (epoch-stamped, -1 = never), then against
        each other (an intra-op duplicate byte with two different
        threads is the all-lanes-write-one-slot race the scalar tier
        catches lane by lane), then folded into the tables.  An
        INJECTIVE proof waives only write-vs-write, like the scalar
        check.
        """
        san = self._san
        proofs = san.proofs.get(pc, frozenset())
        sel = np.flatnonzero(pm)
        if not sel.size:
            return
        idx0 = (self.srow[sel] + addr[sel]).astype(np.int64)
        thr = self._tid_in_cta[sel]
        san.counters["checked_accesses"] += int(sel.size)
        b = (idx0[:, None]
             + np.arange(nbytes, dtype=np.int64)).ravel()
        t = np.repeat(thr, nbytes)
        ep = self._san_epoch[b // self.S]
        kname = self.launch.kernel.name
        ww_waived = is_write and INJECTIVE in proofs
        if ww_waived:
            san.counters["skipped_proven"] += int(sel.size)
        pw = (self._sw_epoch[b] == ep) & (self._sw_thread[b] != t)
        if not ww_waived and pw.any():
            i = int(np.flatnonzero(pw)[0])
            what = ("write-after-write" if is_write
                    else "read-after-write")
            san.record(
                "S603", kname, pc,
                f"shared-memory race: {what} on byte "
                f"{int(b[i]) % self.S:#x} by threads "
                f"{int(self._sw_thread[b[i]])} and {int(t[i])} with "
                "no barrier between them", count=int(pw.sum()))
        if is_write:
            pr = (self._sr_epoch[b] == ep) & (self._sr_thread[b] != t)
            if pr.any():
                i = int(np.flatnonzero(pr)[0])
                rt = int(self._sr_thread[b[i]])
                reader = ("multiple threads" if rt == -2
                          else f"thread {rt}")
                san.record(
                    "S603", kname, pc,
                    f"shared-memory race: write-after-read on byte "
                    f"{int(b[i]) % self.S:#x} — {reader} read it, "
                    f"thread {int(t[i])} overwrites it with no "
                    "barrier between them", count=int(pr.sum()))
        order = np.argsort(b, kind="stable")
        bs, ts = b[order], t[order]
        dup = (bs[1:] == bs[:-1]) & (ts[1:] != ts[:-1])
        if is_write:
            if not ww_waived and dup.any():
                i = int(np.flatnonzero(dup)[0])
                san.record(
                    "S603", kname, pc,
                    f"shared-memory race: write-after-write on byte "
                    f"{int(bs[i + 1]) % self.S:#x} by threads "
                    f"{int(ts[i])} and {int(ts[i + 1])} with no "
                    "barrier between them", count=int(dup.sum()))
            self._sw_epoch[b] = ep
            self._sw_thread[b] = t
        else:
            many = ((self._sr_epoch[b] == ep)
                    & (self._sr_thread[b] != t))
            self._sr_epoch[b] = ep
            self._sr_thread[b] = np.where(many, np.int64(-2), t)
            shared = bs[1:][dup]
            if shared.size:
                self._sr_thread[shared] = -2

    def _san_bar(self, pc: int, mask: np.ndarray) -> None:
        """Synccheck at a bar issue (twin of ``_check_barrier``).

        A warp's expected arrival set is every thread that did not
        retire at a pc *before* the bar — a guard-style early exit is
        excused, a lane that exited past the bar (or is still running
        elsewhere) got separated from the rendezvous and is flagged.
        """
        san = self._san
        must = self._exit_pc >= pc
        arrived = np.bincount(self.wid[mask],
                              minlength=self.warp_count)
        expect = np.bincount(self.wid[must],
                             minlength=self.warp_count)
        bad = (arrived > 0) & (arrived != expect)
        nbad = int(bad.sum())
        if nbad:
            w = int(np.flatnonzero(bad)[0])
            san.record(
                "S604", self.launch.kernel.name, pc,
                f"divergent barrier: warp {w} arrived with "
                f"{int(arrived[w])} of {int(expect[w])} expected "
                "threads — some threads of the warp can never reach "
                "this bar.sync", count=nbad)

    def _san_epoch_advance(self, mask: np.ndarray) -> None:
        """End the barrier interval of every CTA covered by *mask*."""
        done = np.zeros(self.nct, bool)
        done[self.ctaidx[mask]] = True
        self._san_epoch[done] += 1

    # -- frame bookkeeping ----------------------------------------------
    def _wa(self, mask: np.ndarray) -> int:
        hit = np.zeros(self.warp_count, bool)
        hit[self.wid[mask]] = True
        return int(hit.sum())

    @staticmethod
    def _advance(stack: list, next_pc: int) -> None:
        stack[-1].pc = next_pc
        while stack and stack[-1].pc == stack[-1].rpc:
            stack.pop()

    def _retire(self, stack: list, em: np.ndarray) -> None:
        keep = ~em
        self.alive &= keep
        kept = []
        for frame in stack:
            if not (frame.mask & em).any():
                kept.append(frame)
                continue
            nm = frame.mask & keep
            if nm.any():
                frame.mask = nm
                frame.wa = self._wa(nm)
                frame.full = False
                kept.append(frame)
        stack[:] = kept

    def _diverge(self, stack: list, frame: "_Frame", pc: int,
                 target: int, rpc: int, taken: np.ndarray,
                 not_taken: np.ndarray) -> None:
        """Split *frame* exactly the way the per-warp scalar stacks do.

        The scalar engine keeps one SIMT stack *per warp*, so a branch
        whose outcome differs between warps mutates those stacks
        differently: a warp whose lanes all agree simply advances its
        top entry (``SimtStack.advance``), while a mixed warp
        repositions it at the reconvergence pc and pushes two children
        (``SimtStack.diverge``) — children that legitimately run
        *ahead* of the reconvergence point when the taken target equals
        it.  A single grid-wide frame cannot express that asymmetry, so
        reproduce the union of the per-warp stacks: one frame per
        direction for the self-agreeing warps (dissolved immediately
        when it lands on its own rpc, as ``advance`` would), plus the
        parent/children triple for the mixed warps.
        """
        wid = self.wid
        tw = np.zeros(self.warp_count, bool)
        tw[wid[taken]] = True
        nw = np.zeros(self.warp_count, bool)
        nw[wid[not_taken]] = True
        mixed_w = tw & nw
        prev_rpc = frame.rpc
        stack.pop()
        if not mixed_w.any():
            # Every warp agrees with itself: plain advances, one
            # independent frame per direction.
            for npc, nm in ((pc + 1, not_taken), (target, taken)):
                if npc != prev_rpc:
                    stack.append(_Frame(npc, prev_rpc, nm,
                                        self._wa(nm), False))
            return
        mixed = mixed_w[wid] & frame.mask
        for npc, nm in ((pc + 1, not_taken & ~mixed),
                        (target, taken & ~mixed)):
            if nm.any() and npc != prev_rpc:
                stack.append(_Frame(npc, prev_rpc, nm,
                                    self._wa(nm), False))
        if rpc != prev_rpc:
            stack.append(_Frame(rpc, prev_rpc, mixed, self._wa(mixed),
                                frame.full and bool(mixed.all())))
        m_nt = not_taken & mixed
        m_tk = taken & mixed
        stack.append(_Frame(pc + 1, rpc, m_nt, self._wa(m_nt), False))
        stack.append(_Frame(target, rpc, m_tk, self._wa(m_tk), False))

    def _bar_contained(self, m: np.ndarray) -> bool:
        """True iff the frame covers all live threads of its CTAs."""
        viol = self.alive & ~m
        if not viol.any():
            return True
        at_bar = np.zeros(self.nct, bool)
        at_bar[self.ctaidx[m]] = True
        stuck = np.zeros(self.nct, bool)
        stuck[self.ctaidx[viol]] = True
        return not (at_bar & stuck).any()

    # -- interpreter ----------------------------------------------------
    def _run_chunk(self, cta_start: int, nct: int, stats, *,
                   base: np.ndarray | None = None,
                   writeback: bool = True) -> int | None:
        """Run one chunk; return its clock delta, or ``None`` if the
        chunk bailed out (the bailout path settles the launch clock,
        stats and memory itself before handing CTAs to the scalar
        engine).  The caller applies the returned delta — overlapped
        chunks account their deltas in ascending merge order."""
        self._setup(cta_start, nct, base)
        plan = self.plan
        blocks = plan.blocks
        controls = plan.controls
        body_len = plan.body_len
        per_op = stats.dynamic_per_opcode
        R = self.R
        m0 = np.ones(self.T, bool)
        stack = [_Frame(0, NO_RECONVERGE, m0, self._wa(m0), True)]
        parked: list[_Frame] = []
        clock = 0
        rec = self._rec
        if rec is not None:
            rec.begin_chunk(self)
            rec_fns = recording_blocks(plan, self.launch.kernel)
        while stack or parked:
            if not stack:
                self._release_parked(stack, parked)
                if not stack:
                    # Unreachable with warp-disjoint parking (no runner
                    # left means no CTA is blocked), but never spin.
                    raise SimulationFault(
                        f"megablock barrier deadlock: {len(parked)} "
                        "parked frames with no releasable CTA")
                continue
            frame = stack[-1]
            pc = frame.pc
            if pc >= body_len:
                # Fell off the end: implicit exit, not counted (the
                # scalar step returns before charging the clock).
                if self._san is not None:
                    self._exit_pc[frame.mask] = pc
                if rec is not None:
                    rec.fall_off(frame.mask)
                self._retire(stack, frame.mask)
                if parked:
                    self._release_parked(stack, parked)
                continue
            block = blocks.get(pc)
            if block is not None:
                if rec is None:
                    block.fn(self, R, frame.mask, frame.full)
                else:
                    rec_fns[pc](self, R, frame.mask, frame.full)
                    rec.block(pc, block.end, frame.mask)
                wa = frame.wa
                clock += wa * block.count
                for op, times in block.opcode_counts.items():
                    per_op[op] = per_op.get(op, 0) + wa * times
                self._advance(stack, block.end)
                continue
            ctrl = controls[pc]
            wa = frame.wa
            clock += wa
            op = ctrl["op"]
            per_op[op] = per_op.get(op, 0) + wa
            kind = ctrl["kind"]
            if kind == "bra":
                pred = ctrl["pred"]
                if pred is None:
                    if rec is not None:
                        rec.control(pc, frame.mask, frame.mask)
                    self._advance(stack, ctrl["target"])
                    continue
                parr = R.get(pred)
                if parr is None:
                    pv = np.zeros(self.T, bool)
                else:
                    pv = (parr & np.uint64(1)) != 0
                if ctrl["neg"]:
                    pv = ~pv
                taken = frame.mask & pv
                if rec is not None:
                    rec.control(pc, frame.mask, taken)
                if not taken.any():
                    self._advance(stack, pc + 1)
                    continue
                not_taken = frame.mask & ~pv
                if not not_taken.any():
                    self._advance(stack, ctrl["target"])
                    continue
                self._diverge(stack, frame, pc, ctrl["target"],
                              ctrl["rpc"], taken, not_taken)
                continue
            if rec is not None:
                # exit and bar: predicated forms are ineligible, so the
                # whole frame is active.
                rec.control(pc, frame.mask, frame.mask)
            if kind == "exit":
                em = frame.mask
                if self._san is not None:
                    self._exit_pc[em] = pc
                self._retire(stack, em)
                # Scalar _exec_exit: if the *same warp's* next entry
                # waits exactly at the exit pc, it slides past the
                # exit uncounted.  Warps that did not exit here still
                # owe an exit of their own, so split the frame.
                if stack and stack[-1].pc == pc:
                    top = stack[-1]
                    ew = np.zeros(self.warp_count, bool)
                    ew[self.wid[em]] = True
                    skip = ew[self.wid] & top.mask
                    if skip.all():
                        self._advance(stack, pc + 1)
                    elif skip.any():
                        stack.pop()
                        stay = top.mask & ~skip
                        stack.append(_Frame(pc, top.rpc, stay,
                                            self._wa(stay), False))
                        if pc + 1 != top.rpc:
                            stack.append(_Frame(pc + 1, top.rpc, skip,
                                                self._wa(skip), False))
                if parked:
                    # Retiring threads can complete a barrier: a CTA
                    # whose remaining live warps are all parked releases
                    # now, exactly like try_release_barrier after the
                    # last running warp exits.
                    self._release_parked(stack, parked)
                continue
            # bar — counted (issued) above, like the scalar park.  A
            # divergence-free kernel (ctrl["div"] is False, a plan-time
            # fact from repro.analysis.vectorize) always meets the bar
            # with a full frame, so the containment proof is skipped.
            if self._san is not None and ctrl["div"]:
                self._san_bar(pc, frame.mask)
            if not ctrl["div"] or self._bar_contained(frame.mask):
                if self._san is not None:
                    self._san_epoch_advance(frame.mask)
                self._advance(stack, pc + 1)
                continue
            if self._park(stack, parked, frame, pc):
                self._release_parked(stack, parked)
                continue
            # Intra-warp divergence reached a barrier: no faithful
            # vector parking exists, so finish the chunk's CTAs on the
            # scalar engine.
            if rec is not None:
                raise SimulationFault(
                    f"pc {pc}: warp-trace recording cannot follow a "
                    "barrier bailout")
            self.launch.clock += clock
            stats.instructions += clock
            self._bailout(stack, parked, stats)
            return None
        if writeback:
            self.launch.global_mem.write_dense(self._gbuf)
        self._absorb_init()
        return clock

    def _absorb_init(self) -> None:
        """Fold the chunk's init-mirror store marks into the shadow."""
        if self._init is None:
            return
        shadow = self.launch.global_mem.shadow
        if shadow is not None:
            shadow.absorb_dense(GLOBAL_BASE, self._init)

    # -- barrier parking ------------------------------------------------
    def _park(self, stack: list, parked: list, frame: "_Frame",
              pc: int) -> bool:
        """Try to park the top frame at the bar it just issued.

        Parking is scalar-faithful only when the frame is the *sole*
        owner of its warps: each such warp's per-warp scalar stack is
        then exactly this one entry, sitting at the bar with
        ``at_barrier`` set.  A frame with a finite reconvergence pc has
        a parent entry holding the same warps somewhere below, and a
        frame sharing warps with any other (stacked or parked) frame
        means intra-warp divergence reached the bar — both cases bail
        to the scalar engine instead of parking.
        """
        if frame.rpc != NO_RECONVERGE:
            return False
        fw = np.zeros(self.warp_count, bool)
        fw[self.wid[frame.mask]] = True
        for other in stack[:-1] + parked:
            if fw[self.wid[other.mask]].any():
                return False
        stack.pop()
        parked.append(frame)
        self.parks += 1
        EVENTS["parked_barriers"] += 1
        return True

    def _release_parked(self, stack: list, parked: list) -> None:
        """Re-merge parked frames whose CTAs have fully arrived.

        Mirrors :meth:`FunctionalEngine.try_release_barrier`: a CTA
        releases when every live warp is parked, and the release
        advances each frame past its bar *uncounted* (the bar was
        charged when the frame parked).  A parked frame spanning
        several CTAs splits along CTA boundaries — warps never straddle
        CTAs, so the split keeps per-warp state exact.
        """
        if not parked:
            return
        parked_threads = np.zeros(self.T, bool)
        for fr in parked:
            parked_threads |= fr.mask
        runner = self.alive & ~parked_threads
        blocked = np.zeros(self.nct, bool)
        blocked[self.ctaidx[runner]] = True
        waiting = np.zeros(self.nct, bool)
        for fr in parked:
            waiting[self.ctaidx[fr.mask]] = True
        release = waiting & ~blocked
        if not release.any():
            return
        if self._san is not None:
            # A released CTA completed its rendezvous: new race epoch.
            self._san_epoch[release] += 1
        released_threads = release[self.ctaidx]
        keep: list[_Frame] = []
        for fr in parked:
            go = fr.mask & released_threads
            if not go.any():
                keep.append(fr)
                continue
            stay = fr.mask & ~released_threads
            if stay.any():
                keep.append(_Frame(fr.pc, fr.rpc, stay,
                                   self._wa(stay), False))
            stack.append(_Frame(fr.pc + 1, fr.rpc, go, self._wa(go),
                                bool(go.all())))
            self.releases += 1
            EVENTS["released_barriers"] += 1
        parked[:] = keep

    # -- bailout --------------------------------------------------------
    def _bailout(self, stack: list, parked: list, stats) -> None:
        """Materialise exact scalar state and finish the chunk there."""
        engine = self.engine
        launch = self.launch
        self.bailouts += 1
        EVENTS["bailouts"] += 1
        engine.tracer.instant(
            f"megablock-bailout:{launch.kernel.name}", cat="engine",
            args={"parked_frames": len(parked)})
        launch.global_mem.write_dense(self._gbuf)
        san = self._san
        self._absorb_init()
        tpb = launch.threads_per_block
        top = stack[-1]
        # Warps whose topmost entry already *issued* its bar: the
        # bailing frame plus every parked frame.  They must come out
        # with at_barrier set, or the scalar continuation would execute
        # — and re-count — a bar the vector clock already charged.
        at_bar_ids = {id(top)}
        at_bar_ids.update(id(fr) for fr in parked)
        frames = list(stack) + list(parked)
        reg_items = list(self.R.items())
        prev_hook = engine.on_exec
        if san is not None:
            # The scalar continuation reports through the same hook the
            # stepping tiers use; restore afterwards so the next chunk
            # re-enters the vector path.
            engine.on_exec = san.hook
        try:
            self._bailout_ctas(stats, frames, at_bar_ids, reg_items,
                               tpb)
        finally:
            engine.on_exec = prev_hook

    def _bailout_ctas(self, stats, frames, at_bar_ids, reg_items,
                      tpb) -> None:
        engine = self.engine
        launch = self.launch
        san = self._san
        for ci in range(self.nct):
            cta = CTAState(launch, self.cta_start + ci)
            base = ci * tpb
            row = self.smem[ci * self.S:(ci + 1) * self.S]
            nshare = len(cta.shared.data)
            cta.shared.data[:] = row[:nshare].tobytes()
            for warp in cta.warps:
                w0 = base + warp.warp_index * 32
                lanes_n = min(32, tpb - warp.warp_index * 32)
                entries = []
                at_barrier = False
                for fr in frames:
                    sub = fr.mask[w0:w0 + lanes_n]
                    if not sub.any():
                        continue
                    bits = int.from_bytes(
                        np.packbits(sub, bitorder="little").tobytes(),
                        "little")
                    entries.append(SimtEntry(fr.pc, fr.rpc, bits))
                    at_barrier = id(fr) in at_bar_ids
                warp.simt = SimtStack(entries)
                # Warps at a counted bar come out with at_barrier set —
                # exactly the scalar park state; try_release_barrier
                # will advance them past the bar without re-counting.
                warp.at_barrier = at_barrier
                if san is not None:
                    # Lanes retired in the vector portion never exit in
                    # the continuation; seed their exit pcs so later
                    # bars compute the right expected arrival masks.
                    for lane in range(lanes_n):
                        t = w0 + lane
                        if not self.alive[t]:
                            san.seed_exit(cta.cta_linear,
                                          warp.warp_index,
                                          int(self._exit_pc[t]),
                                          1 << lane)
                # instructions_executed is a per-warp budget counter;
                # the vector tier accounts issue counts in aggregate,
                # so the scalar continuation restarts it at zero.
                for lane in range(lanes_n):
                    t = w0 + lane
                    regs = warp.regs[lane]
                    for name, arr in reg_items:
                        value = int(arr[t])
                        if value:
                            regs[name] = value
            engine.run_cta(cta, stats)
