"""Layer spans recorded from outside the simulator.

The traced run of the benchmark wraps the public entry points of each
layer (``repro.nn`` -> ``repro.cudnn`` -> ``repro.cuda`` ->
``repro.functional`` / ``repro.timing`` -> ``repro.service``) and
records one B/E span per call into a :class:`repro.trace.Tracer`.  No
file under ``src/`` is changed: the wrappers are installed on the
classes at run time, in the measuring process only, and removed again
by :meth:`LayerTracer.uninstall`.

Span stamps are host wall-clock microseconds since the tracer started
(not simulated cycles), one track per host thread.  Counts ride on the
span's ``E`` event (bytes copied, step_warp calls) or on counter
events (kernel-cache and megablock event counters), so every per-layer
number is computed from the written Chrome trace by :func:`spans_of`.

``FunctionalEngine.step_warp`` runs once per simulated warp
instruction; a span per call would dwarf the trace, so its time and
call count are summed and attached to the enclosing
``timing.simulate`` span instead.
"""

from __future__ import annotations

import functools
import os
import threading
import time

#: CudaRuntime methods whose self time is host<->device copy time.
MEMCPY_METHODS = ("memcpy_h2d", "memcpy_d2h", "memcpy_d2d",
                  "memcpy_h2d_async", "upload_f32", "download_f32")


def _nbytes(value) -> int:
    size = getattr(value, "nbytes", None)
    return int(size) if size is not None else len(value)


#: Bytes moved by the leaf copy calls (upload/download nest inside
#: these, so counting only the leaves counts each byte once).
_COPY_BYTES = {
    "memcpy_h2d": lambda args: _nbytes(args[2]),
    "memcpy_d2h": lambda args: int(args[2]),
    "memcpy_d2d": lambda args: int(args[3]),
}


class LayerTracer:
    """Installs span-recording wrappers on the simulator's layer APIs."""

    def __init__(self, tracer) -> None:
        self.tracer = tracer
        self.pid = os.getpid()
        self.t0 = time.perf_counter()
        self._tids: dict[int, int] = {}
        self._tid_lock = threading.Lock()
        self._patches: list[tuple[type, str, object]] = []
        #: step_warp time/calls since the enclosing simulate began.
        self._feed_s = 0.0
        self._feed_calls = 0

    # -- stamps and tracks ----------------------------------------------
    def now_us(self) -> float:
        """Wall-clock microseconds since the tracer started."""
        return (time.perf_counter() - self.t0) * 1e6

    def tid(self) -> int:
        """Track id of the calling thread (tracks 100, 101, ...)."""
        ident = threading.get_ident()
        tid = self._tids.get(ident)
        if tid is None:
            with self._tid_lock:
                tid = self._tids.setdefault(ident, 100 + len(self._tids))
                self.tracer.name_track(tid, threading.current_thread().name)
        return tid

    def begin(self, name: str, cat: str, args: dict | None = None) -> int:
        tid = self.tid()
        self.tracer.begin(name, tid=tid, cat=cat, args=args,
                          ts=self.now_us())
        return tid

    def end(self, tid: int, args: dict | None = None) -> None:
        self.tracer.end(tid=tid, ts=self.now_us(), args=args)

    def mark(self, name: str, args: dict | None = None) -> None:
        """An instant on the calling thread's track (phase boundaries)."""
        self.tracer.instant(name, tid=self.tid(), cat="bench", args=args,
                            ts=self.now_us())

    def counters(self, name: str, values: dict) -> None:
        self.tracer.counter(name, dict(values), ts=self.now_us(),
                            tid=self.tid(), cat="bench")

    # -- patching --------------------------------------------------------
    def wrap(self, owner: type, attr: str, name, cat: str,
             end_args=None) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        *name* is a string or a callable of the call's arguments;
        *end_args* maps ``(args, result)`` to the ``E`` event's args.
        Calls from another process (forked pool workers inherit the
        patched classes) pass straight through.
        """
        original = owner.__dict__[attr]
        layer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if os.getpid() != layer.pid:
                return original(*args, **kwargs)
            label = name(args) if callable(name) else name
            tid = layer.begin(label, cat)
            extra = None
            try:
                result = original(*args, **kwargs)
                if end_args is not None:
                    extra = end_args(args, result)
                return result
            finally:
                layer.end(tid, extra)

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def wrap_public(self, owner: type, prefix: str, cat: str) -> None:
        """Wrap every public plain function defined on *owner*."""
        for attr, value in list(vars(owner).items()):
            if attr.startswith("_") or not callable(value):
                continue
            self.wrap(owner, attr, f"{prefix}.{attr}", cat,
                      end_args=_copy_args(attr))

    def uninstall(self) -> None:
        """Restore every wrapped attribute."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def install(self) -> None:
        """Wrap the public entry points of every simulator layer."""
        from repro.cuda.runtime import CudaRuntime, FunctionalBackend
        from repro.cudnn.api import Cudnn
        from repro.functional.executor import FunctionalEngine
        from repro.functional.memory import GlobalMemory
        from repro.nn.lenet import LeNet
        from repro.nn.modules import Module
        from repro.service.pool import ShardedFunctionalBackend, ShardExecutor
        from repro.timing.backend import TimingBackend
        from repro.timing.gpu import GpuTiming

        self.wrap(LeNet, "forward", "nn.LeNet.forward", "nn")
        self.wrap(Module, "__call__",
                  lambda args: f"nn.{type(args[0]).__name__}", "nn")
        self.wrap_public(Cudnn, "cudnn", "cudnn")
        self.wrap_public(CudaRuntime, "cuda", "cuda")
        for backend in (FunctionalBackend, ShardedFunctionalBackend,
                        TimingBackend):
            self.wrap(backend, "execute", "cuda.launch", "backend")
        self.wrap(FunctionalEngine, "__init__", "functional.engine_init",
                  "functional", end_args=lambda args, _none: {
                      "megablock": (args[0].fast_mode == "megablock"
                                    or args[0].megablock_fallback
                                    is not None)})
        self.wrap(FunctionalEngine, "run_range", "functional.engine_run",
                  "functional")
        self.wrap(ShardExecutor, "execute", "service.shard_execute",
                  "service")
        self.wrap(GlobalMemory, "snapshot", "service.snapshot", "service",
                  end_args=lambda args, state: {"bytes": sum(
                      len(page) for page in state["pages"].values())})
        self._install_timing(GpuTiming, FunctionalEngine)

    def _install_timing(self, gpu_timing: type, engine: type) -> None:
        step_warp = engine.__dict__["step_warp"]
        layer = self
        clock = time.perf_counter

        def timed_step_warp(self_engine, warp):
            start = clock()
            try:
                return step_warp(self_engine, warp)
            finally:
                layer._feed_s += clock() - start
                layer._feed_calls += 1

        setattr(engine, "step_warp", timed_step_warp)
        self._patches.append((engine, "step_warp", step_warp))

        simulate = gpu_timing.__dict__["simulate"]

        def traced_simulate(self_gpu, launch, **kwargs):
            layer._feed_s, layer._feed_calls = 0.0, 0
            tid = layer.begin("timing.simulate", "timing",
                              {"kernel": launch.kernel.name})
            try:
                return simulate(self_gpu, launch, **kwargs)
            finally:
                feed = {"feed_s": layer._feed_s,
                        "step_warp_calls": layer._feed_calls}
                layer.end(tid, feed)

        setattr(gpu_timing, "simulate", traced_simulate)
        self._patches.append((gpu_timing, "simulate", simulate))


def _copy_args(method: str):
    size = _COPY_BYTES.get(method)
    if size is None:
        return None
    return lambda args, _result: {"bytes": size(args)}


# ---------------------------------------------------------------------------
# Reading the trace back
# ---------------------------------------------------------------------------
class SpanRecord:
    """One closed span read back from a Chrome trace."""

    __slots__ = ("name", "cat", "begin", "end", "self_us", "args")

    def __init__(self, name, cat, begin, args) -> None:
        self.name = name
        self.cat = cat
        self.begin = begin
        self.end = begin
        self.self_us = 0.0
        self.args = dict(args or {})

    @property
    def dur_us(self) -> float:
        return self.end - self.begin


def spans_of(events: list[dict]) -> tuple[list[SpanRecord], list[dict]]:
    """Pair B/E events per track into spans with self time.

    A span's self time is its duration minus the time its direct child
    spans on the same track cover.  Returns ``(spans, others)`` where
    *others* are the instant and counter events, in trace order.
    """
    spans: list[SpanRecord] = []
    others: list[dict] = []
    stacks: dict[tuple, list[SpanRecord]] = {}
    for event in events:
        ph = event.get("ph")
        track = (event.get("pid"), event.get("tid"))
        if ph == "B":
            span = SpanRecord(event.get("name", ""), event.get("cat", ""),
                              float(event["ts"]), event.get("args"))
            stacks.setdefault(track, []).append(span)
        elif ph == "E":
            span = stacks[track].pop()
            span.end = float(event["ts"])
            span.args.update(event.get("args") or {})
            span.self_us += span.dur_us
            if stacks[track]:
                stacks[track][-1].self_us -= span.dur_us
            spans.append(span)
        elif ph in ("i", "C"):
            others.append(event)
    return spans, others
