"""Trace-driven timing fence.

A launch the megablock tier runs whole is timed from a recorded per-warp
trace instead of the scalar engine's ``step_warp``.  The two feeds must
be indistinguishable: every ``KernelStats`` field (``extra`` included),
every AerialVision ``SampleBlock`` series and every byte of device
memory.  The execution-driven leg is forced by wrapping the feed
selector, not through any public option.

The routing cases pin the launches that must stay execution-driven —
``%clock`` readers, atomics, divergent barriers, the exit-reconvergence
ablation, checkpoint resume, the dropped-response fault and an explicit
cycle budget — and check their results do not change.
"""

from __future__ import annotations

from dataclasses import asdict, replace

import numpy as np
import pytest

from repro.checkpoint import CheckpointingBackend, ResumeBackend
from repro.cuda import CudaRuntime, FunctionalBackend
from repro.cudnn import ActivationDescriptor, ConvBwdFilterAlgo, \
    ConvFwdAlgo, Cudnn
from repro.errors import CycleBudgetExceededError, TimingDeadlockError
from repro.faultinject import FaultSpec, faulty_runtime_factory
from repro.functional.executor import FunctionalEngine
from repro.ptx.builder import PTXBuilder, f32
from repro.timing import GTX1080TI, TINY, TimingBackend
from repro.timing.gpu import GpuTiming
from repro.trace import Tracer, write_chrome_trace
from repro.trace.cli import main as repro_trace
from repro.workloads.conv_sample import ConvSample, ConvSampleConfig

#: The Section V harness geometry (benchmarks/case_cache.py).
HARNESS_SAMPLE = ConvSampleConfig(batch=1, channels=3, height=10,
                                  width=10, filters=4)

_SERIES = ("global_ipc_series", "shader_ipc_matrix",
           "dram_efficiency_matrix", "dram_utilization_matrix",
           "bank_access_matrix")


@pytest.fixture()
def force_execution(monkeypatch):
    """Make every launch execution-driven, as before trace feeds."""
    select = GpuTiming._select_feed

    def execution_only(self, launch, first_cta, premade_ctas):
        _engine, reason = select(self, launch, first_cta, premade_ctas)
        engine = FunctionalEngine(
            launch, reconverge_at_exit=self.reconverge_at_exit)
        return engine, reason or "forced by the fence test"

    def arm():
        monkeypatch.setattr(GpuTiming, "_select_feed", execution_only)
    return arm


def _series(samples) -> dict:
    out = {name: getattr(samples, name)() for name in _SERIES}
    out.update(samples.warp_issue_matrix())
    out["cycles"] = samples.cycles
    return out


def _observe(rt: CudaRuntime, backend: TimingBackend) -> dict:
    """Everything a launch sequence leaves behind, feed included."""
    return {
        "kernels": [(p.name, asdict(stats)) for p, stats
                    in zip(rt.profiles, backend.kernel_stats)],
        "series": [_series(p.result.samples) for p in rt.profiles],
        "memory": rt.global_mem.snapshot(),
    }


def _assert_same(trace: dict, execution: dict) -> None:
    assert trace["kernels"] == execution["kernels"]
    assert len(trace["series"]) == len(execution["series"])
    for got, want in zip(trace["series"], execution["series"]):
        assert got.keys() == want.keys()
        for name in got:
            assert np.array_equal(got[name], want[name]), name
    assert trace["memory"] == execution["memory"]


def _feeds(backend: TimingBackend, rt: CudaRuntime, run) -> list:
    """Run *run* launch by launch, recording each launch's feed."""
    feeds = []
    simulate = backend.gpu.simulate

    def recording(launch, **kwargs):
        result = simulate(launch, **kwargs)
        feeds.append((backend.gpu.feed, backend.gpu.feed_reason))
        return result

    backend.gpu.simulate = recording
    run(rt)
    rt.synchronize()
    return feeds


# ---------------------------------------------------------------------------
# Trace-driven == execution-driven
# ---------------------------------------------------------------------------
def _conv_forward(config, sample):
    backend = TimingBackend(config)
    rt = CudaRuntime(backend=backend)
    workload = ConvSample(rt, sample)

    def run(rt):
        y = rt.malloc(workload.y_desc.nbytes)
        for algo in (ConvFwdAlgo.WINOGRAD_NONFUSED,
                     ConvFwdAlgo.IMPLICIT_GEMM):
            workload.dnn.convolution_forward(
                workload.x_desc, workload.x, workload.w_desc, workload.w,
                workload.conv, algo, y=y)
    feeds = _feeds(backend, rt, run)
    return feeds, _observe(rt, backend)


@pytest.mark.parametrize("config,sample", [
    (TINY, ConvSampleConfig(seed=1)),
    (replace(TINY, warp_scheduler="gto"), HARNESS_SAMPLE),
    (GTX1080TI, HARNESS_SAMPLE),
    (replace(GTX1080TI, warp_scheduler="gto"), HARNESS_SAMPLE),
], ids=["tiny-lrr", "tiny-gto", "1080ti-lrr", "1080ti-gto"])
def test_conv_sample_forward_feeds_agree(config, sample, force_execution):
    feeds, traced = _conv_forward(config, sample)
    # Winograd Nonfused: input, filter, sgemm, output transforms;
    # then Implicit GEMM — every launch trace-driven.
    assert len(feeds) == 5
    assert all(feed == ("trace", None) for feed in feeds)
    force_execution()
    feeds, executed = _conv_forward(config, sample)
    assert all(feed == "execution" for feed, _ in feeds)
    _assert_same(traced, executed)


def _winograd_bwd_filter():
    """Figs. 20-21: Winograd Nonfused backward filter on GTX1080TI."""
    backend = TimingBackend(GTX1080TI)
    rt = CudaRuntime(backend=backend)
    workload = ConvSample(rt, HARNESS_SAMPLE)
    feeds = _feeds(backend, rt, lambda rt: workload.run_backward_filter(
        ConvBwdFilterAlgo.WINOGRAD_NONFUSED))
    return feeds, _observe(rt, backend)


def test_figure_harness_case_feeds_agree(force_execution):
    feeds, traced = _winograd_bwd_filter()
    assert feeds and all(feed == ("trace", None) for feed in feeds)
    force_execution()
    _, executed = _winograd_bwd_filter()
    _assert_same(traced, executed)


def _features_kernel() -> str:
    """Every stream event kind in one trace-fed kernel: predicated
    arithmetic and stores, a ``v2`` load, a barrier no divergent branch
    reaches, a divergent branch without a reconvergence point whose
    taken side runs off the end of the kernel (an uncounted fall-off
    step mid-stream, since the other side still has to exit), and a
    partial last warp (48 threads per CTA)."""
    b = PTXBuilder("trace_features", [("xs", "u64"), ("ys", "u64")])
    b.shared("buf", "f32", 48)
    xs = b.ld_param("u64", "xs")
    ys = b.ld_param("u64", "ys")
    tid = b.special("%tid.x")
    gtid = b.global_tid_x()
    base = b.reg("u64")
    b.ins("mov.u64", base, "buf")
    x = b.reg("f32")
    b.ins("ld.global.f32", x, f"[{b.elem_addr(xs, gtid)}]")
    even = b.reg("u32")
    b.ins("and.b32", even, gtid, "-2")
    lo, hi = b.reg("f32"), b.reg("f32")
    b.ins("ld.global.v2.f32", f"{{{lo}, {hi}}}",
          f"[{b.elem_addr(xs, even)}]")
    b.ins("st.shared.f32", f"[{b.elem_addr(base, tid)}]", x)
    b.bar_sync()
    mirror = b.reg("u32")
    b.ins("sub.u32", mirror, "47", tid)
    y = b.reg("f32")
    b.ins("ld.shared.f32", y, f"[{b.elem_addr(base, mirror)}]")
    positive = b.reg("pred")
    b.ins("setp.gt.f32", positive, x, f32(0.0))
    t = b.reg("f32")
    b.ins("mul.f32", t, x, f32(2.0), pred=positive)
    b.ins("add.f32", t, y, lo, pred=positive, pred_neg=True)
    out = b.elem_addr(ys, gtid)
    b.ins("st.global.f32", f"[{out}]", t, pred=positive)
    low = b.reg("pred")
    b.ins("setp.lt.u32", low, tid, "20")
    tail = b.fresh_label("tail")
    b.ins(f"bra {tail}", pred=low)
    b.ins("add.f32", t, t, hi)
    b.ins("st.global.f32", f"[{out}]", t)
    b.exit()
    b.place(tail)
    b.ins("add.f32", t, t, f32(1.0))
    b.ins("st.global.f32", f"[{out}]", t)
    source = b.build()
    # Drop the exit build() appends, so the taken side falls off.
    head, _, rest = source.rpartition("    exit;\n")
    return head + rest


def _features(config):
    backend = TimingBackend(config)
    rt = CudaRuntime(backend=backend)
    rt.load_ptx(_features_kernel(), "features.cu")
    threads = 6 * 48
    xs = rt.upload_f32(np.random.default_rng(5).standard_normal(
        threads).astype(np.float32))
    ys = rt.malloc(4 * threads)
    feeds = _feeds(backend, rt, lambda rt: rt.launch(
        "trace_features", 6, 48, [xs, ys]))
    return feeds, _observe(rt, backend)


@pytest.mark.parametrize("config", [TINY, replace(TINY,
                                                  warp_scheduler="gto")],
                         ids=["lrr", "gto"])
def test_stream_event_kinds_feeds_agree(config, force_execution):
    feeds, traced = _features(config)
    assert feeds == [("trace", None)]
    force_execution()
    _, executed = _features(config)
    _assert_same(traced, executed)


def test_trace_event_names_the_feed(tmp_path, capsys):
    tracer = Tracer()
    rt = CudaRuntime(backend=TimingBackend(TINY), tracer=tracer)
    rt.load_ptx(_clock_kernel() + _saxpy_kernel(), "feeds.cu")
    out = rt.malloc(4 * 64)
    rt.launch("saxpy_like", 1, 64, [out, 64])
    rt.launch("clock_reader", 1, 32, [out])
    rt.synchronize()
    feeds = [e.args for e in tracer.events
             if e.ph == "X" and e.name.startswith("timing:")]
    assert [args["feed"] for args in feeds] == ["trace", "execution"]
    assert "feed_reason" not in feeds[0]
    assert feeds[1]["feed_reason"].startswith("no megablock plan")
    path = tmp_path / "feeds.json"
    write_chrome_trace(path, tracer)
    assert repro_trace(["summary", str(path)]) == 0
    printed = capsys.readouterr().out
    assert "timing feeds: execution=1, trace=1" in printed


# ---------------------------------------------------------------------------
# Routing: launches that stay execution-driven
# ---------------------------------------------------------------------------
def _saxpy_kernel() -> str:
    b = PTXBuilder("saxpy_like", [("out", "u64"), ("n", "u32")])
    out = b.ld_param("u64", "out")
    n = b.ld_param("u32", "n")
    tid = b.global_tid_x()
    b.guard_tid_below(tid, n)
    value = b.reg("u32")
    b.ins("mad.lo.u32", value, tid, "3", "7")
    b.ins("st.global.u32", f"[{b.elem_addr(out, tid)}]", value)
    return b.build()


def _clock_kernel() -> str:
    b = PTXBuilder("clock_reader", [("out", "u64")])
    out = b.ld_param("u64", "out")
    tid = b.special("%tid.x")
    stamp = b.reg("u32")
    b.ins("mov.u32", stamp, "%clock")
    b.ins("st.global.u32", f"[{b.elem_addr(out, tid)}]", stamp)
    return b.build()


def _atom_kernel() -> str:
    b = PTXBuilder("atom_counter", [("out", "u64")])
    out = b.ld_param("u64", "out")
    old = b.reg("u32")
    b.ins("atom.global.add.u32", old, f"[{out}]", "1")
    return b.build()


def _divergent_barrier_kernel() -> str:
    b = PTXBuilder("divergent_bar", [("out", "u64")])
    b.shared("buf", "u32", 64)
    out = b.ld_param("u64", "out")
    tid = b.special("%tid.x")
    base = b.reg("u64")
    b.ins("mov.u64", base, "buf")
    value = b.reg("u32")
    low = b.reg("pred")
    b.ins("setp.lt.u32", low, tid, "32")
    high = b.fresh_label("high")
    join = b.fresh_label("join")
    b.ins(f"bra {high}", pred=low, pred_neg=True)
    b.ins("add.u32", value, tid, "1000")
    b.ins("st.shared.u32", f"[{b.elem_addr(base, tid)}]", value)
    b.bar_sync()
    b.ins(f"bra {join}")
    b.place(high)
    b.ins("add.u32", value, tid, "2000")
    b.ins("st.shared.u32", f"[{b.elem_addr(base, tid)}]", value)
    b.bar_sync()
    b.place(join)
    mirror = b.reg("u32")
    b.ins("sub.u32", mirror, "63", tid)
    got = b.reg("u32")
    b.ins("ld.shared.u32", got, f"[{b.elem_addr(base, mirror)}]")
    b.ins("st.global.u32", f"[{b.elem_addr(out, tid)}]", got)
    return b.build()


def _run_single(source: str, kernel: str, threads: int, backend,
                extra=()):
    rt = CudaRuntime(backend=backend)
    rt.load_ptx(source, f"{kernel}.cu")
    out = rt.malloc(4 * threads)
    rt.memset(out, 0, 4 * threads)
    feeds = _feeds(backend, rt, lambda rt: rt.launch(
        kernel, 1, threads, [out, *extra]))
    return feeds, _observe(rt, backend), rt.memcpy_d2h(out, 4 * threads)


@pytest.mark.parametrize("source,kernel,threads,reason", [
    (_clock_kernel, "clock_reader", 32, "no megablock plan"),
    (_atom_kernel, "atom_counter", 64, "no vector emitter for atom"),
    (_divergent_barrier_kernel, "divergent_bar", 64,
     "barrier reachable from a divergent branch"),
], ids=["clock", "atom", "divergent-barrier"])
def test_kernels_outside_the_trace_rule_stay_execution_driven(
        source, kernel, threads, reason, force_execution):
    feeds, routed, out = _run_single(source(), kernel, threads,
                                     TimingBackend(TINY))
    assert len(feeds) == 1 and feeds[0][0] == "execution"
    assert reason in feeds[0][1]
    force_execution()
    _, forced, forced_out = _run_single(source(), kernel, threads,
                                        TimingBackend(TINY))
    _assert_same(routed, forced)
    assert out == forced_out
    if kernel == "atom_counter":
        assert int.from_bytes(out[:4], "little") == threads


def test_reconverge_at_exit_stays_execution_driven(force_execution):
    def run():
        backend = TimingBackend(TINY, reconverge_at_exit=True)
        return _run_single(_saxpy_kernel().replace(
            "saxpy_like", "exit_ablation"), "exit_ablation", 48, backend,
            extra=(40,))
    feeds, routed, out = run()
    assert feeds == [("execution", "reconverge_at_exit ablation")]
    force_execution()
    _, forced, forced_out = run()
    _assert_same(routed, forced)
    assert out == forced_out


def test_checkpoint_resume_stays_execution_driven():
    source = _saxpy_kernel()

    def workload(rt):
        rt.load_ptx(source, "resume.cu")
        out = rt.malloc(4 * 96)
        rt.launch("saxpy_like", 3, 32, [out, 96])
        rt.launch("saxpy_like", 3, 32, [out, 96])
        rt.synchronize()
        return rt.memcpy_d2h(out, 4 * 96)

    capture = CheckpointingBackend(1, 1, 1, 4)
    workload(CudaRuntime(backend=capture))
    timing = TimingBackend(TINY)
    resume = ResumeBackend(capture.checkpoint, timing)
    rt = CudaRuntime(backend=resume)
    feeds = []
    simulate = timing.gpu.simulate

    def recording(launch, **kwargs):
        result = simulate(launch, **kwargs)
        feeds.append((timing.gpu.feed, timing.gpu.feed_reason))
        return result

    timing.gpu.simulate = recording
    got = workload(rt)
    assert feeds == [("execution", "resumed from a checkpoint")]
    assert got == workload(CudaRuntime(backend=FunctionalBackend()))


def test_dropped_response_fault_still_deadlocks(app_binary, rng):
    spec = FaultSpec(fault_id="md", site="mem_drop_response", dyn_index=0)
    backends = []

    def backend_factory():
        backends.append(TimingBackend(TINY))
        return backends[-1]

    runtime = faulty_runtime_factory(
        spec, backend_factory=backend_factory)()
    runtime.load_binary(app_binary)
    dnn = Cudnn(runtime)
    x_ptr = runtime.upload_f32(rng.standard_normal(64).astype(np.float32))
    dnn.activation_forward(ActivationDescriptor("relu"), x_ptr,
                           runtime.malloc(256), 64)
    with pytest.raises(TimingDeadlockError):
        runtime.synchronize()
    assert backends[0].gpu.feed == "execution"
    assert backends[0].gpu.feed_reason == "memory fault filter armed"


def test_cycle_budget_guard_stays_execution_driven():
    backend = TimingBackend(TINY, max_cycles=50)
    rt = CudaRuntime(backend=backend)
    rt.load_ptx(_saxpy_kernel(), "budget.cu")
    out = rt.malloc(4 * 512)
    rt.launch("saxpy_like", 4, 128, [out, 512])
    with pytest.raises(CycleBudgetExceededError, match="exceeded"):
        rt.synchronize()
    assert backend.gpu.feed == "execution"
    assert backend.gpu.feed_reason == "explicit cycle budget"
