"""The simulator's benchmark: two workloads, end-to-end and per-layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload lenet_fwd --seed 1 --seconds 50 --trace 0

``--trace 0`` prints every end-to-end metric; ``--trace 1`` runs one
untraced and one traced process (plus, on ``lenet_fwd``, a traced
2-shard process and a traced service process) and prints every
per-layer metric,
read back from the Chrome trace the traced process writes under
``.perfbench_run/traces/``.  The last line of stdout is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the lines before it
are the same numbers for people.  See ``perfbench/README.md`` for the
workloads, metric definitions and what each layer metric should move.

Every op's output is checked (see :meth:`Bench.check_op`); a failed
check counts as a failed op.  Each run gets its own ``REPRO_CACHE_DIR``
under ``.perfbench_run/``, warmed by the in-process preparation below
before any timed process starts, so ``first_op_s`` always measures the
warm-disk-cache case and the user's cache is never read or written.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from layers import MEMCPY_METHODS, spans_of  # noqa: E402
from worker import FENCE_FIELDS  # noqa: E402

WORKLOADS = ("lenet_fwd", "conv_timing")

#: LeNet.self_check's tolerance, used for logits and conv outputs.
ATOL, RTOL = 1e-2, 1e-3

#: Fresh processes per run at least, so set-up and first-op time are
#: medians of an odd number of samples.
MIN_PROCESSES = 3
MAX_PROCESSES = 16

#: A process that has not finished by then is killed (the run must end
#: within 180 s).
RUN_LIMIT_S = 165.0

FENCE_PATH = os.path.join(HERE, "fence_conv_timing.json")

CONV_CASES = ("winograd", "implicit_gemm")

#: (name, unit) of every end-to-end metric, in print order.
END_TO_END = (
    ("setup_s", "s"), ("first_op_s", "s"), ("winst_per_s", "1/s"),
    ("sim_cycles_per_s", "1/s"), ("peak_rss_mb", "MiB"))


def per_layer_names() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in print order."""
    names = [
        ("cuda.load_binary_s", "s"), ("functional.engine_init_s", "s"),
        ("functional.kernelcache_hits", "count"),
        ("functional.kernelcache_misses", "count"),
        ("functional.kernelcache_hit_ratio", "ratio"),
        ("functional.engine_run_s", "s"), ("functional.launches", "count"),
        ("functional.megablock_fallbacks", "count"),
        ("functional.megablock_bailouts", "count"),
        ("functional.megablock_coverage", "ratio"),
        ("cuda.memcpy_s", "s"), ("cuda.memcpy_bytes", "B"),
        ("cuda.launch_s", "s"), ("cuda.self_s", "s"),
        ("cudnn.self_s", "s"), ("nn.self_s", "s"),
        ("service.shard_execute_s", "s"), ("service.snapshot_s", "s"),
        ("service.snapshot_bytes", "B"), ("service.fanouts", "count"),
        ("service.sharded_over_inprocess", "x")]
    for case in CONV_CASES:
        names += [(f"timing.simulate_s.{case}", "s"),
                  (f"timing.feed_s.{case}", "s"),
                  (f"timing.cycle_loop_s.{case}", "s"),
                  (f"timing.step_warp_calls.{case}", "count")]
    for case in CONV_CASES:
        names += [(f"timing.{field}.{case}", "count")
                  for field in FENCE_FIELDS]
    names += [
        ("timing.slowdown_over_functional.megablock", "x"),
        ("timing.slowdown_over_functional.superblock", "x"),
        ("scheduler.wait_s_p50", "s"), ("scheduler.wait_s_p90", "s"),
        ("scheduler.run_s_p50", "s"), ("scheduler.gpu_busy_frac", "ratio"),
        ("rest.overhead_s_p50", "s"), ("jobs.memo_hit_ratio", "ratio"),
        ("jobs.coalesced", "count"), ("service.jobs_per_s", "1/s"),
        ("service.job_latency_s_p50", "s"),
        ("service.job_latency_s_p90", "s"),
        ("trace.traced_over_untraced", "x")]
    return names


def p90(values: list[float]) -> float:
    """90th percentile, interpolated between the samples around it."""
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def derive(seed: int, tag: str) -> int:
    """A stable 31-bit seed for one input stream of the run."""
    digest = hashlib.sha256(f"{seed}:{tag}".encode()).digest()
    return int.from_bytes(digest[:4], "little") >> 1


def service_jobs(seed: int) -> dict:
    """The job mix, 120 submissions with seeded job seeds.

    The structure is the same for every seed, so that every seed loads
    the service the same way: 96 distinct jobs (58 saxpy over four
    sizes, 24 conv over the eight geometries, 14 reduced-LeNet forwards
    of 1 or 2 images) in one fixed shuffled order, plus 24 submissions
    at fixed places, about one in five, that repeat an earlier job (the
    same workload, config and seed), so the memo-hit path runs beside
    the execute path.  The seed draws every job's seed, i.e. its data.
    The slowest tenth of the jobs are LeNet executions, so the p90
    latency falls inside one job kind.
    """
    structure = random.Random(0)
    values = random.Random(derive(seed, "service"))
    fresh = [{"workload": "saxpy", "config": {"n": n}}
             for n in (64, 256, 1024, 4096) for _ in range(15)][:58]
    fresh += [{"workload": "conv",
               "config": {"batch": 1, "channels": 1, "height": h,
                          "width": w, "filters": f,
                          "algos": ["IMPLICIT_GEMM"]}}
              for h in (8, 12) for w in (8, 12) for f in (2, 4)
              for _ in range(3)]
    fresh += [{"workload": "lenet", "config": {"images": 1 + i % 2}}
              for i in range(14)]
    structure.shuffle(fresh)
    for spec in fresh:
        spec["seed"] = values.randrange(1 << 30)
    repeat_at = set(structure.sample(range(1, 120), 24))
    jobs: list[dict] = []
    for index in range(120):
        if index in repeat_at:
            jobs.append(dict(structure.choice(jobs)))
        else:
            jobs.append(fresh.pop())
    first = {"workload": "lenet", "config": {"images": 1},
             "seed": derive(seed, "service-first")}
    return {"first": first, "jobs": jobs}


def job_key(spec: dict) -> str:
    return json.dumps([spec["workload"], spec["config"], spec["seed"]],
                      sort_keys=True)


class Bench:
    """One benchmark run: prepare inputs and expectations in process,
    time fresh worker processes, check every output, report."""

    def __init__(self, args: argparse.Namespace, root: str,
                 work: str) -> None:
        self.args = args
        self.workload = args.workload
        self.root = root
        self.work = work
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.started = time.perf_counter()
        self.notes: list[str] = []
        self.spawned = 0

    # -- inputs and expected outputs (untimed, in this process) ---------
    def prepare(self) -> None:
        """Generate the seeded inputs, compute every expected output and
        warm this run's plan cache."""
        if self.workload == "lenet_fwd":
            self._prepare_lenet()
        else:
            self._prepare_conv()

    def _prepare_lenet(self) -> None:
        import numpy as np
        from repro.cuda import CudaRuntime, FunctionalBackend
        from repro.cudnn import Cudnn, build_application_binary
        from repro.nn import (
            LeNet, LeNetConfig, reference_forward, synthetic_mnist)
        seed = self.args.seed
        batches = [synthetic_mnist(2, seed=derive(seed, f"batch{i}"))[0]
                   for i in range(2)]
        weights_seed = derive(seed, "weights")
        self.inputs = os.path.join(self.work, "inputs.npz")
        np.savez(self.inputs, batch0=batches[0], batch1=batches[1],
                 weights_seed=weights_seed)
        rt = CudaRuntime(backend=FunctionalBackend(fast_mode="megablock"))
        rt.load_binary(build_application_binary())
        model = LeNet(Cudnn(rt), LeNetConfig(seed=weights_seed))
        # In-process megablock logits: every pass, in process or
        # sharded, must reproduce them byte for byte.
        self.expected = {}
        for i, batch in enumerate(batches):
            logits = model.forward(batch)
            reference = reference_forward(model, batch)
            if not np.allclose(logits, reference, atol=ATOL, rtol=RTOL):
                self.fail(f"in-process batch{i} logits differ from "
                          "reference_forward")
            self.expected[f"batch{i}"] = (logits.tobytes(), reference)
        digest = hashlib.sha256(b"".join(
            self.expected[f"batch{i}"][0] for i in range(2))).hexdigest()
        self.notes.append(f"logits sha256 (in-process megablock, both "
                          f"batches): {digest}")

    def _prepare_conv(self) -> None:
        import numpy as np
        from repro.cuda import CudaRuntime, FunctionalBackend
        from repro.cudnn import ConvFwdAlgo
        from repro.nn.reference import conv2d_ref
        from repro.workloads.conv_sample import ConvSample, ConvSampleConfig
        self.conv_seed = derive(self.args.seed, "conv")
        rt = CudaRuntime(backend=FunctionalBackend(fast_mode="megablock"))
        sample = ConvSample(rt, ConvSampleConfig(seed=self.conv_seed))
        for algo in (ConvFwdAlgo.WINOGRAD_NONFUSED, ConvFwdAlgo.IMPLICIT_GEMM):
            sample.run_forward(algo)          # warms the megablock plans
        self.expected_conv = conv2d_ref(
            sample.x_host.astype(np.float64),
            sample.w_host.astype(np.float64), None, sample.config.pad, 1)
        with open(FENCE_PATH) as handle:
            self.fence = json.load(handle)["sequence"]

    def _prepare_service(self) -> None:
        """Inputs and expected digests of the service process that
        ``lenet_fwd``'s traced run adds."""
        from repro.service.jobs import REGISTRY
        inputs = service_jobs(self.args.seed)
        self.jobs_path = os.path.join(self.work, "jobs.json")
        with open(self.jobs_path, "w") as handle:
            json.dump(inputs, handle)
        # Each job's digest must equal its runner's, called in process
        # on the same (workload, config, seed); this also warms the
        # plan cache the service's first job reads.
        self.expected_digests = {}
        for spec in [inputs["first"]] + inputs["jobs"]:
            key = job_key(spec)
            if key not in self.expected_digests:
                result = REGISTRY[spec["workload"]](spec["config"],
                                                    spec["seed"])
                self.expected_digests[key] = result["digest"]

    # -- processes --------------------------------------------------------
    def spec(self, workload: str | None = None, **extra) -> dict:
        """A worker spec for *workload* (``service_mix`` is the service
        process of ``lenet_fwd``'s traced run), default this run's."""
        workload = workload or self.workload
        spec = {"workload": workload, "root": self.root, "traced": False}
        if workload == "lenet_fwd":
            spec["inputs"] = self.inputs
            spec["shards"] = 0
        elif workload == "conv_timing":
            spec["conv_seed"] = self.conv_seed
        else:
            spec["inputs"] = self.jobs_path
        spec.update(extra)
        return spec

    def spawn(self, spec: dict) -> dict | None:
        """Run one worker process to completion; None if it failed."""
        self.spawned += 1
        path = os.path.join(self.work, f"spec{self.spawned}.json")
        with open(path, "w") as handle:
            json.dump(spec, handle)
        budget = RUN_LIMIT_S - (time.perf_counter() - self.started)
        if budget < 5:
            self.fail("no time left for another process")
            return None
        t_spawn = time.perf_counter()
        try:
            done = subprocess.run(
                [sys.executable, os.path.join(HERE, "worker.py"), path,
                 repr(t_spawn)],
                cwd=self.root, capture_output=True, text=True,
                timeout=budget)
        except subprocess.TimeoutExpired:
            self.fail(f"worker timed out after {budget:.0f}s")
            return None
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            tail = done.stderr.strip().splitlines()[-3:]
            self.fail(f"worker exited {done.returncode}: {' | '.join(tail)}")
            return None
        out = json.loads(lines[-1])
        out["spec"] = spec
        self.check(out)
        return out

    def measure(self) -> list[dict]:
        """Fresh processes, each with the same fixed ops, for about
        ``--seconds`` (at least MIN_PROCESSES, so set-up and first-op
        time are medians of several): another process starts only if
        it would end nearer to ``--seconds`` than stopping now."""
        outs: list[dict] = []
        start = time.perf_counter()
        while len(outs) < MAX_PROCESSES:
            elapsed = time.perf_counter() - start
            if len(outs) >= MIN_PROCESSES and \
                    elapsed + elapsed / len(outs) / 2 > self.args.seconds:
                break
            out = self.spawn(self.spec())
            if out is None:
                break
            outs.append(out)
        return outs

    # -- checks -----------------------------------------------------------
    def fail(self, message: str) -> None:
        """A failed check outside any op counts as one failed op."""
        self.attempted += 1
        self.failed += 1
        self.problems.append(message)

    def check(self, out: dict) -> None:
        for position, op in enumerate(out["ops"]):
            self.attempted += 1
            problem = self.check_op(out["spec"], position, op)
            if problem is not None:
                self.failed += 1
                if len(self.problems) < 20:
                    self.problems.append(f"op {position} ({op['case']}): "
                                         f"{problem}")

    def check_op(self, spec: dict, position: int, op: dict) -> str | None:
        """None if the op's output is right, else why not."""
        import numpy as np
        if "error" in op:
            return op["error"]
        if spec["workload"] == "lenet_fwd":
            logits, reference = self.expected[op["case"]]
            got = bytes.fromhex(op["out"])
            if got != logits:
                return "logits differ from the in-process megablock bytes"
            values = np.frombuffer(got, dtype=np.float32).reshape(
                reference.shape)
            if not np.allclose(values, reference, atol=ATOL, rtol=RTOL):
                return "logits differ from reference_forward"
        elif spec["workload"] == "conv_timing":
            got = np.frombuffer(bytes.fromhex(op["out"]), dtype=np.float32)
            expected = self.expected_conv.reshape(-1)
            if not np.allclose(got, expected, atol=ATOL, rtol=RTOL):
                return "output differs from conv2d_ref"
            if spec.get("tier", "timing") == "timing":
                fence = self.fence[position]
                if op["case"] != fence["case"] \
                        or op["kernels"] != fence["kernels"]:
                    return ("simulated statistics differ from "
                            "fence_conv_timing.json")
        else:
            if op["out"] != self.expected_digests[job_key(op)]:
                return "job digest differs from the in-process runner"
        return None

    # -- end-to-end metrics -----------------------------------------------
    def end_to_end(self, outs: list[dict]) -> dict:
        """Every end-to-end metric, for either workload.  Each is a
        median over samples spread across the run, so a few seconds in
        which the host runs faster or slower than usual move it little:
        per process, per steady LeNet pass, or per conv case."""
        steady = [op for o in outs for op in o["ops"][1:]]

        def per_process(key: str) -> float:
            return statistics.median(o[key] for o in outs)

        values = {name: per_process(name)
                  for name in ("setup_s", "first_op_s", "peak_rss_mb")}
        if self.workload == "lenet_fwd":
            values["winst_per_s"] = statistics.median(
                op["winst"] / op["t"] for op in steady)
            values["sim_cycles_per_s"] = statistics.median(
                op["cycles"] / op["t"] for op in steady)
        else:
            values.update(conv_rates(steady))
        self.notes.append(f"{len(outs)} processes, {len(steady)} steady "
                          f"ops (set-up and first op: {len(outs)} samples)")
        return values

    # -- traced run ---------------------------------------------------------
    def traced(self) -> dict:
        """One untraced and one traced process, plus on conv_timing the
        two cases on two functional tiers, and on lenet_fwd a traced
        2-shard process and a traced service process; per-layer
        metrics from the traces and the scheduler's own records."""
        traces = os.path.join(self.root, ".perfbench_run", "traces")
        os.makedirs(traces, exist_ok=True)
        stem = os.path.join(traces, f"{self.workload}-seed{self.args.seed}")
        untraced = self.spawn(self.spec())
        traced = self.spawn(self.spec(traced=True,
                                      trace_path=f"{stem}.json"))
        extra = {}
        if self.workload == "lenet_fwd":
            # The same passes through ShardedFunctionalBackend(2), for
            # the service.* pool metrics, and the REST service under its
            # closed loop, for the scheduler, rest and jobs metrics.
            extra["sharded"] = self.spawn(self.spec(
                shards=2, traced=True, trace_path=f"{stem}-2shard.json"))
            self._prepare_service()
            extra["service"] = self.spawn(self.spec(
                "service_mix", traced=True,
                trace_path=f"{stem}-service.json"))
        else:
            for tier in ("megablock", "superblock"):
                extra[tier] = self.spawn(self.spec(
                    tier=tier, sequence=list(reversed(CONV_CASES)),
                    steady_ops=3))
        if untraced is None or traced is None or None in extra.values():
            return {}
        from repro.trace import load_chrome_trace
        from repro.trace.cli import main as repro_trace
        paths = [out["spec"]["trace_path"]
                 for out in [traced, *extra.values()] if out["spec"]["traced"]]
        for path in paths:
            for command in ("validate", "summary"):
                with contextlib.redirect_stdout(io.StringIO()):
                    status = repro_trace([command, path])
                if status != 0:
                    self.fail(f"repro-trace {command} rejected {path}")
            self.notes.append(f"trace: {path}")
        events = load_chrome_trace(paths[0])
        metrics = layer_metrics(events, traced)
        metrics["trace.traced_over_untraced"] = (
            steady_rate(self.workload, traced)
            / steady_rate(self.workload, untraced))
        sharded = extra.get("sharded")
        metrics["service.sharded_over_inprocess"] = 0.0
        if sharded is not None:
            metrics.update(
                (name, value) for name, value in layer_metrics(
                    load_chrome_trace(sharded["spec"]["trace_path"]),
                    sharded).items()
                if name.startswith("service."))
            # Both processes traced, so the ratio carries no overhead.
            metrics["service.sharded_over_inprocess"] = (
                steady_rate(self.workload, sharded)
                / steady_rate(self.workload, traced))
        metrics.update(service_metrics(extra.get("service")))
        timing = conv_case_times(untraced["ops"][1:]) \
            if self.workload == "conv_timing" else {}
        for tier in ("megablock", "superblock"):
            # Host seconds for one Winograd plus one Implicit GEMM case
            # under the timing model over the same on a functional tier.
            metrics[f"timing.slowdown_over_functional.{tier}"] = (
                sum(timing.values())
                / sum(conv_case_times(extra[tier]["ops"][1:]).values())
                if timing else 0.0)
        self_times = layer_self_times(events)
        self.notes.append("self time per layer in the traced process "
                          "(all phases): " + ", ".join(
                              f"{cat}={sec:.3f}s"
                              for cat, sec in self_times.items()))
        return metrics

    # -- driver -------------------------------------------------------------
    def run(self) -> dict:
        self.prepare()
        if self.args.trace:
            metrics = self.traced()
            names = per_layer_names()
        else:
            outs = self.measure()
            metrics = self.end_to_end(outs) if outs else {}
            names = END_TO_END
        missing = [name for name, _ in names if name not in metrics]
        if missing:
            self.fail(f"{len(missing)} metrics not measured, e.g. "
                      f"{missing[0]}")
        return {name: {"value": float(metrics[name]), "unit": unit}
                for name, unit in names if name in metrics}


def conv_case_times(ops: list[dict]) -> dict[str, float]:
    """Median host seconds per conv case over *ops*."""
    return {case: statistics.median(op["t"] for op in ops
                                    if op["case"] == case)
            for case in CONV_CASES}


def conv_rates(steady: list[dict]) -> dict[str, float]:
    """Warp instructions and cycles per host second for one Winograd
    plus one Implicit GEMM case, from each case's median time, so the
    rate does not depend on how many ops of each case ran."""
    times = conv_case_times(steady)
    winst = sum(statistics.median(op["winst"] for op in steady
                                  if op["case"] == c) for c in CONV_CASES)
    cycles = sum(statistics.median(op["cycles"] for op in steady
                                   if op["case"] == c) for c in CONV_CASES)
    total = sum(times.values())
    return {"winst_per_s": winst / total, "sim_cycles_per_s": cycles / total}


def steady_rate(workload: str, out: dict) -> float:
    """The steady-state rate the tracing overhead is stated against."""
    steady = out["ops"][1:]
    if workload == "lenet_fwd":
        return statistics.median(op["winst"] / op["t"] for op in steady)
    return conv_rates(steady)["winst_per_s"]


def layer_self_times(events: list[dict]) -> dict[str, float]:
    spans, _ = spans_of(events)
    totals: dict[str, float] = {}
    for span in spans:
        if span.cat != "bench":
            totals[span.cat] = totals.get(span.cat, 0.0) + span.self_us / 1e6
    return dict(sorted(totals.items()))


def layer_metrics(events: list[dict], out: dict) -> dict:
    """Per-layer metrics of the traced process, from its trace.

    Set-up-facing metrics (load_binary, engine init, kernel cache) are
    totals before steady state, i.e. set-up plus the first op; all
    other time and count metrics are per steady op.
    """
    spans, others = spans_of(events)
    marks = {e["name"]: e for e in others if e.get("ph") == "i"}
    census = {"kernelcache": [], "megablock": []}
    for event in others:
        if event.get("ph") == "C" and event.get("name") in census:
            args = dict(event["args"])
            args.pop("wall_s", None)
            census[event["name"]].append(args)
    steady_ts = marks["bench.steady"]["ts"]
    n = max(1, marks["bench.end"]["args"]["steady_ops"])
    pre = [s for s in spans if s.begin < steady_ts]
    post = [s for s in spans if s.begin >= steady_ts]

    def total(group, name):
        return sum(s.dur_us for s in group if s.name == name) / 1e6

    def arg_sum(group, names, key):
        return sum(s.args.get(key, 0) for s in group if s.name in names)

    def self_of(group, cat):
        return sum(s.self_us for s in group if s.cat == cat) / 1e6

    cache = census["kernelcache"][1]        # after the first op
    lookups = cache["hits"] + cache["misses"]
    mega_before, mega_after = census["megablock"][1], census["megablock"][2]
    launches = [s for s in post if s.name == "functional.engine_init"]
    mega_launches = sum(1 for s in launches if s.args.get("megablock"))
    fallbacks = mega_after["fallbacks"] - mega_before["fallbacks"]
    memcpy = {f"cuda.{m}" for m in MEMCPY_METHODS}
    metrics = {
        "cuda.load_binary_s": total(pre, "cuda.load_binary"),
        "functional.engine_init_s": total(pre, "functional.engine_init"),
        "functional.kernelcache_hits": cache["hits"],
        "functional.kernelcache_misses": cache["misses"],
        "functional.kernelcache_hit_ratio":
            cache["hits"] / lookups if lookups else 0.0,
        "functional.engine_run_s": total(post, "functional.engine_run") / n,
        "functional.launches": len(launches) / n,
        "functional.megablock_fallbacks": fallbacks / n,
        "functional.megablock_bailouts":
            (mega_after["bailouts"] - mega_before["bailouts"]) / n,
        "functional.megablock_coverage":
            (mega_launches - fallbacks) / mega_launches
            if mega_launches else 0.0,
        "cuda.memcpy_s": sum(s.self_us for s in post
                             if s.name in memcpy) / 1e6 / n,
        "cuda.memcpy_bytes": arg_sum(post, memcpy, "bytes") / n,
        "cuda.launch_s": total(post, "cuda.launch") / n,
        "cuda.self_s": self_of(post, "cuda") / n,
        "cudnn.self_s": self_of(post, "cudnn") / n,
        "nn.self_s": self_of(post, "nn") / n,
        "service.shard_execute_s": total(post, "service.shard_execute") / n,
        "service.snapshot_s": total(post, "service.snapshot") / n,
        "service.snapshot_bytes":
            arg_sum(post, {"service.snapshot"}, "bytes") / n,
        "service.fanouts": sum(1 for s in post
                               if s.name == "service.shard_execute") / n,
    }
    metrics.update(timing_metrics(spans, out))
    return metrics


def timing_metrics(spans, out: dict) -> dict:
    """Per conv case: host time split of ``GpuTiming.simulate`` (median
    per op) and the modelled counts of the case's first op."""
    metrics = {}
    ops = sorted((s for s in spans if s.name == "bench.op"),
                 key=lambda s: s.begin)
    simulate = [s for s in spans if s.name == "timing.simulate"]
    records = out["ops"]
    for case in CONV_CASES:
        split = []
        for op_span in ops:
            if records[op_span.args["index"]]["case"] != case:
                continue
            inside = [s for s in simulate
                      if op_span.begin <= s.begin <= op_span.end]
            sim = sum(s.dur_us for s in inside) / 1e6
            feed = sum(s.args["feed_s"] for s in inside)
            calls = sum(s.args["step_warp_calls"] for s in inside)
            split.append((sim, feed, calls))
        first = next((r for r in records if r.get("case") == case
                      and "kernels" in r), None)
        for column, label in enumerate(("simulate_s", "feed_s")):
            metrics[f"timing.{label}.{case}"] = statistics.median(
                row[column] for row in split) if split else 0.0
        metrics[f"timing.cycle_loop_s.{case}"] = statistics.median(
            row[0] - row[1] for row in split) if split else 0.0
        metrics[f"timing.step_warp_calls.{case}"] = statistics.median(
            row[2] for row in split) if split else 0
        for field in FENCE_FIELDS:
            metrics[f"timing.{field}.{case}"] = sum(
                k[field] for k in first["kernels"]) if first else 0
    return metrics


def service_metrics(out: dict | None) -> dict:
    """Scheduler, REST and memo numbers of the service process's steady
    phase, from the scheduler's own job records and counters, and the
    job rate and round-trip latency its clients saw (all 0 without a
    service process)."""
    names = ("scheduler.wait_s_p50", "scheduler.wait_s_p90",
             "scheduler.run_s_p50", "scheduler.gpu_busy_frac",
             "rest.overhead_s_p50", "jobs.memo_hit_ratio", "jobs.coalesced",
             "service.jobs_per_s", "service.job_latency_s_p50",
             "service.job_latency_s_p90")
    if out is None:
        return {name: 0.0 for name in names}
    service = out["service"]
    round_trips = [op["t"] for op in out["ops"][1:]]
    jobs = service["jobs"]
    executed = [j for j in jobs if j["assigned_at"] is not None]
    waits = [j["assigned_at"] - j["submitted_at"] for j in executed]
    runs = [j["finished_at"] - j["assigned_at"] for j in executed]
    overheads = [j["round_trip_s"] - (j["finished_at"] - j["submitted_at"])
                 for j in jobs]
    return {
        "scheduler.wait_s_p50": statistics.median(waits),
        "scheduler.wait_s_p90": p90(waits),
        "scheduler.run_s_p50": statistics.median(runs),
        "scheduler.gpu_busy_frac":
            service["busy_s"] / (service["gpus"] * service["wall_s"]),
        "rest.overhead_s_p50": statistics.median(overheads),
        "jobs.memo_hit_ratio": service["memo_hits"] / service["submitted"],
        "jobs.coalesced": service["coalesced"],
        "service.jobs_per_s": len(round_trips) / out["steady_wall_s"],
        "service.job_latency_s_p50": statistics.median(round_trips),
        "service.job_latency_s_p90": p90(round_trips),
    }


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    # On SIGTERM unwind normally: subprocess.run kills and waits for the
    # running worker, and the run directory is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(f"perfbench: no simulator sources under {src}; run from the "
              "root of a checkout", file=sys.stderr)
        return 2
    work = os.path.join(root, ".perfbench_run",
                        f"{args.workload}-seed{args.seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(os.path.join(work, "tmp"))
    # Isolated state: this run's plan cache, temp files and XDG cache
    # live under the checkout, never under the user's home.
    os.environ.update({"REPRO_CACHE_DIR": os.path.join(work, "cache"),
                       "XDG_CACHE_HOME": os.path.join(work, "xdg"),
                       "TMPDIR": os.path.join(work, "tmp"),
                       "PYTHONPATH": src})
    os.environ.pop("REPRO_CACHE_DISABLE", None)
    sys.path.insert(0, src)
    import repro
    if not os.path.abspath(repro.__file__).startswith(src + os.sep):
        print(f"perfbench: imported repro from {repro.__file__}, not "
              f"{src}", file=sys.stderr)
        return 2
    bench = Bench(args, root, work)
    metrics: dict = {}
    try:
        metrics = bench.run()
    except Exception as exc:  # a broken program still gets a result line
        traceback.print_exc()
        bench.fail(f"benchmark error: {type(exc).__name__}: {exc}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if bench.attempted == 0:
        bench.fail("no op ran")
    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    for note in bench.notes:
        print(f"  {note}")
    for name, metric in metrics.items():
        print(f"  {name:46s} {metric['value']:>16.6g} {metric['unit']}")
    print(f"  {'failed_frac':46s} {bench.failed / bench.attempted:>16.6g} "
          f"({bench.failed} of {bench.attempted} ops)")
    for problem in bench.problems:
        print(f"  FAILED: {problem}")
    print(json.dumps({"correct": bench.failed == 0,
                      "attempted": bench.attempted, "failed": bench.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
