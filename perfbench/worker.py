"""One fresh simulator process of the benchmark.

``perfbench/run.py`` starts this script once per measured process:

    python3 perfbench/worker.py <spec.json> <t_spawn>

The spec names the workload, the inputs file and whether to trace;
``t_spawn`` is the parent's ``time.perf_counter()`` just before the
spawn (on Linux the counter is the system-wide monotonic clock, so
ready minus ``t_spawn`` is process start to ready, interpreter
start-up and imports included).  The process sets up, runs its first
op, then a fixed number of steady ops, checks nothing itself, and
prints one JSON object as the last line of stdout: set-up and first-op
time, one record per op (host seconds, simulated warp instructions and
cycles, the raw outputs) and peak host memory.  ``run.py`` checks the outputs.

With ``"traced": true`` the layer wrappers of :mod:`layers` record
spans into a :class:`repro.trace.Tracer`, written as a Chrome trace to
``spec["trace_path"]``.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

#: Op order of one conv_timing process.  Stats of the timing model
#: depend on the allocation history, so every process runs the same
#: sequence and each position has its own fence entry.
CONV_SEQUENCE = ("implicit_gemm", "winograd", "implicit_gemm")


def _peak_rss_mb(pool_workers: int = 0) -> float:
    """Peak RSS of this process, plus *pool_workers* times the peak of
    its largest waited-for child (the shard pool), in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + pool_workers * child) / 1024.0


class SequentialProcess:
    """A measured process whose ops run one after another: op 0 is the
    first op, then ``steady_ops`` more.  Subclasses define ``op``."""

    #: Set by :func:`run` in the traced process.
    layer = None
    steady_ops = 2

    def first_op(self) -> dict:
        return self._op(0)

    def steady(self) -> tuple[list[dict], float, None]:
        start = time.perf_counter()
        ops = [self._op(i) for i in range(1, 1 + self.steady_ops)]
        return ops, time.perf_counter() - start, None

    def _op(self, index: int) -> dict:
        if self.layer is None:
            return self.op(index)
        tid = self.layer.begin("bench.op", "bench", {"index": index})
        try:
            return self.op(index)
        finally:
            self.layer.end(tid)


# ---------------------------------------------------------------------------
# LeNet forward, in process or 2-shard
# ---------------------------------------------------------------------------
class LenetProcess(SequentialProcess):
    """Full LeNetConfig forward passes on batches of 2 images."""

    def __init__(self, spec: dict) -> None:
        import numpy as np
        from repro.cuda import CudaRuntime, FunctionalBackend
        from repro.cudnn import Cudnn, build_application_binary
        from repro.nn import LeNet, LeNetConfig
        from repro.service.pool import ShardedFunctionalBackend
        inputs = np.load(spec["inputs"])
        self.batches = [inputs[f"batch{i}"] for i in range(2)]
        self.shards = spec["shards"]
        if self.shards:
            self.backend = ShardedFunctionalBackend(
                self.shards, fast_mode="megablock")
        else:
            self.backend = FunctionalBackend(fast_mode="megablock")
        self.rt = CudaRuntime(backend=self.backend)
        self.rt.load_binary(build_application_binary())
        self.model = LeNet(Cudnn(self.rt),
                           LeNetConfig(seed=int(inputs["weights_seed"])))

    def op(self, index: int) -> dict:
        batch = index % len(self.batches)
        first, clock = len(self.rt.profiles), self.rt.now
        start = time.perf_counter()
        logits = self.model.forward(self.batches[batch])
        elapsed = time.perf_counter() - start
        return {"case": f"batch{batch}", "t": elapsed,
                "winst": sum(p.instructions
                             for p in self.rt.profiles[first:]),
                "cycles": self.rt.now - clock,
                "out": logits.tobytes().hex()}

    def close(self) -> float:
        if self.shards:
            self.backend.close()
        return _peak_rss_mb(self.shards)


# ---------------------------------------------------------------------------
# conv_sample forward under the timing model
# ---------------------------------------------------------------------------
#: KernelStats fields recorded per kernel for the simulated-stats fence.
FENCE_FIELDS = ("cycles", "warp_instructions", "l1_hits", "l1_misses",
                "l2_hits", "l2_misses", "dram_reads", "dram_row_hits",
                "stall_mem_cycles")


class ConvProcess(SequentialProcess):
    """conv_sample forward, one (Winograd Nonfused | Implicit GEMM)
    case per op, on ``TimingBackend(TINY)`` or a functional tier."""

    def __init__(self, spec: dict) -> None:
        from repro.cuda import CudaRuntime, FunctionalBackend
        from repro.cudnn import ConvFwdAlgo
        from repro.timing import TINY, TimingBackend
        from repro.workloads.conv_sample import ConvSample, ConvSampleConfig
        tier = spec.get("tier", "timing")
        if tier == "timing":
            self.backend = TimingBackend(TINY)
        else:
            self.backend = FunctionalBackend(fast_mode=tier)
        self.rt = CudaRuntime(backend=self.backend)
        self.sample = ConvSample(self.rt,
                                 ConvSampleConfig(seed=spec["conv_seed"]))
        self.algos = {"implicit_gemm": ConvFwdAlgo.IMPLICIT_GEMM,
                      "winograd": ConvFwdAlgo.WINOGRAD_NONFUSED}
        nbytes = self.sample.y_desc.nbytes
        self.outputs = {case: self.rt.malloc(nbytes) for case in self.algos}
        self.sequence = spec.get("sequence", CONV_SEQUENCE)
        self.steady_ops = spec.get("steady_ops", len(CONV_SEQUENCE) - 1)

    def op(self, index: int) -> dict:
        case = self.sequence[index % len(self.sequence)]
        s, rt, y = self.sample, self.rt, self.outputs[case]
        # Poison the output first, so an op that writes nothing fails.
        rt.memset(y, 0xFF, s.y_desc.nbytes)
        first = len(rt.profiles)
        start = time.perf_counter()
        s.dnn.convolution_forward(s.x_desc, s.x, s.w_desc, s.w, s.conv,
                                  self.algos[case], y=y)
        rt.synchronize()
        elapsed = time.perf_counter() - start
        profiles = rt.profiles[first:]
        kernels = [{"name": p.name,
                    **{f: int(p.result.stats.get(f, 0)) for f in FENCE_FIELDS}}
                   for p in profiles]
        out = rt.memcpy_d2h(y, s.y_desc.nbytes)
        return {"case": case, "t": elapsed,
                "winst": sum(p.instructions for p in profiles),
                "cycles": sum(p.cycles for p in profiles),
                "kernels": kernels, "out": out.hex()}

    def close(self) -> float:
        return _peak_rss_mb()


# ---------------------------------------------------------------------------
# The service, over loopback
# ---------------------------------------------------------------------------
class ServiceProcess:
    """``ClusterScheduler(gpus=2, fifo, memo_path=None)`` behind the REST
    front door, driven by a closed loop of two ``ServiceClient``
    threads (each submits, then waits for the result)."""

    CLIENTS = 2

    #: Set by :func:`run` in the traced process.
    layer = None

    def __init__(self, spec: dict) -> None:
        from repro.service.client import ServiceClient
        from repro.service.rest import make_server
        from repro.service.scheduler import ClusterScheduler
        with open(spec["inputs"]) as handle:
            inputs = json.load(handle)
        self.first_job = inputs["first"]
        self.jobs = inputs["jobs"]
        self.scheduler = ClusterScheduler(gpus=2, policy="fifo",
                                          memo_path=None)
        self.server = make_server(self.scheduler, quiet=True)
        self.server_thread = threading.Thread(
            target=self.server.serve_forever, name="rest-server")
        self.server_thread.start()
        host, port = self.server.server_address[:2]
        self.clients = [ServiceClient(f"http://{host}:{port}")
                        for _ in range(self.CLIENTS)]

    def _job(self, client, spec: dict) -> dict:
        tid = None
        if self.layer is not None:
            tid = self.layer.begin("rest.round_trip", "rest",
                                   {"workload": spec["workload"]})
        start = time.perf_counter()
        record = {"case": spec["workload"], "workload": spec["workload"],
                  "config": spec["config"], "seed": spec["seed"]}
        try:
            submitted = client.submit(spec["workload"], spec["config"],
                                      spec["seed"])
            if submitted.get("state") == "done":
                result = submitted["result"]
            else:
                result = client.result(submitted["job_id"], timeout=60.0)
            record["job_id"] = submitted["job_id"]
            record["memo_hit"] = submitted["memo_hit"]
            record["out"] = result["digest"]
            # Jobs run on functional tiers, whose runtime clock advances
            # one cycle per warp instruction.
            record["winst"] = record["cycles"] = int(result["instructions"])
        except Exception as exc:  # counted as a failed op by run.py
            record["error"] = f"{type(exc).__name__}: {exc}"
        record["t"] = time.perf_counter() - start
        if tid is not None:
            self.layer.end(tid)
        return record

    def first_op(self) -> dict:
        return self._job(self.clients[0], self.first_job)

    def steady(self) -> tuple[list[dict], float, dict]:
        """Run the closed loop over the job list; returns the op
        records, the loop's wall time and per-layer service numbers."""
        records: list[dict] = []
        lock = threading.Lock()
        pending = iter(self.jobs)

        def client_loop(client) -> None:
            while True:
                with lock:
                    spec = next(pending, None)
                if spec is None:
                    return
                record = self._job(client, spec)
                with lock:
                    records.append(record)

        busy0 = sum(g["busy_s"] for g in
                    self.scheduler.cluster_stats()["gpus"])
        counters0 = self.scheduler.stats()
        start = time.perf_counter()
        threads = [threading.Thread(target=client_loop, args=(client,),
                                    name=f"client-{i}")
                   for i, client in enumerate(self.clients)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - start
        busy = sum(g["busy_s"] for g in
                   self.scheduler.cluster_stats()["gpus"]) - busy0
        counters = self.scheduler.stats()
        layer = {"wall_s": wall, "busy_s": busy, "gpus": 2,
                 "submitted": counters["submitted"] - counters0["submitted"],
                 "memo_hits": counters["memo_hits"] - counters0["memo_hits"],
                 "coalesced": counters["coalesced"] - counters0["coalesced"]}
        timings = []
        for record in records:
            if "job_id" not in record:
                continue
            job = self.scheduler.status(record["job_id"])
            timings.append({
                "memo_hit": job["memo_hit"],
                "submitted_at": job["submitted_at"],
                "assigned_at": job["assigned_at"],
                "finished_at": job["finished_at"],
                "round_trip_s": record["t"]})
        layer["jobs"] = timings
        return records, wall, layer

    def close(self) -> float:
        self.server.shutdown()
        self.server.server_close()
        self.server_thread.join()
        self.scheduler.shutdown(wait=True)
        return _peak_rss_mb()


# ---------------------------------------------------------------------------
def _layer_tracer(spec: dict):
    if not spec.get("traced"):
        return None
    from repro.trace import Tracer
    from layers import LayerTracer
    layer = LayerTracer(Tracer(process_name=f"perfbench {spec['workload']}"))
    layer.install()
    return layer


def _census(layer) -> None:
    """Record the process-global simulator counters at a phase mark."""
    from repro.functional import kernelcache
    from repro.functional.megablock import EVENTS
    layer.counters("kernelcache", kernelcache.counters())
    layer.counters("megablock", EVENTS)


def run(spec: dict, t_spawn: float) -> dict:
    layer = _layer_tracer(spec)
    kind = {"lenet_fwd": LenetProcess, "conv_timing": ConvProcess,
            "service_mix": ServiceProcess}
    proc = kind[spec["workload"]](spec)
    ready = time.perf_counter()
    out: dict = {"setup_s": ready - t_spawn}
    if layer is not None:
        proc.layer = layer
        _census(layer)
        layer.mark("bench.ready")
    try:
        first = proc.first_op()
        out["first_op_s"] = first["t"]
        if layer is not None:
            _census(layer)
            layer.mark("bench.steady")
        steady, out["steady_wall_s"], service = proc.steady()
        if service is not None:
            out["service"] = service
    finally:
        out["peak_rss_mb"] = proc.close()
    out["ops"] = [first] + steady
    if layer is not None:
        _census(layer)
        layer.mark("bench.end", {"steady_ops": len(steady)})
        layer.uninstall()
        from repro.trace import write_chrome_trace
        write_chrome_trace(spec["trace_path"], layer.tracer)
    return out


def main(argv: list[str]) -> int:
    if len(argv) != 3:
        print("usage: worker.py <spec.json> <t_spawn>", file=sys.stderr)
        return 2
    with open(argv[1]) as handle:
        spec = json.load(handle)
    sys.path.insert(0, os.path.join(spec["root"], "src"))
    print(json.dumps(run(spec, float(argv[2]))))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
