"""Section III-F — checkpointing and the functional/performance gap.

Paper: "the Performance simulation mode is generally 7-8 times slower
than the Functional simulation mode", which is why checkpoints exist:
run functionally to the region of interest, then resume in performance
mode.  Shape targets: performance mode is substantially slower (wall
clock), and a resumed run reproduces the full run's results bit-exactly
while skipping the pre-checkpoint work.
"""

import statistics
import time
from collections import Counter

import numpy as np

from bench_utils import run_once

from repro.checkpoint import CheckpointingBackend, ResumeBackend
from repro.cuda import CudaRuntime, FunctionalBackend
from repro.cudnn import ConvFwdAlgo
from repro.nn.lenet import LeNetConfig
from repro.timing import TINY, TimingBackend
from repro.workloads.mnist_sample import MnistSample, MnistSampleConfig

SAMPLE = MnistSampleConfig(
    images=1,
    lenet=LeNetConfig.reduced(
        conv1_fwd=ConvFwdAlgo.IMPLICIT_GEMM,
        conv2_fwd=ConvFwdAlgo.WINOGRAD_NONFUSED,
        conv1_channels=3, conv2_channels=4, fc_hidden=24))


def _run(backend=None):
    runtime = (CudaRuntime(backend=backend) if backend is not None
               else CudaRuntime())
    sample = MnistSample(runtime, SAMPLE)
    result = sample.run(self_check=False)
    return runtime, result


#: Warm runs timed per mode (after one untimed run fills every cache).
WARM_RUNS = 3


def _warm_wall(make_backend) -> float:
    """Median wall seconds of a warm whole-app run on one backend."""
    _run(make_backend())
    walls = []
    for _ in range(WARM_RUNS):
        start = time.perf_counter()
        _run(make_backend())
        walls.append(time.perf_counter() - start)
    return statistics.median(walls)


def _timing_backend(feeds: Counter) -> TimingBackend:
    """TimingBackend(TINY) that tallies which feed drove each launch."""
    backend = TimingBackend(TINY)
    gpu = backend.gpu
    simulate = gpu.simulate

    def tallied(launch, **kwargs):
        result = simulate(launch, **kwargs)
        feeds[(gpu.feed, gpu.feed_reason)] += 1
        return result

    gpu.simulate = tallied
    return backend


def test_sec3f_performance_mode_slowdown(benchmark, record):
    superblock = _warm_wall(lambda: FunctionalBackend(
        fast_mode="superblock"))
    megablock = _warm_wall(lambda: FunctionalBackend(
        fast_mode="megablock"))
    feeds: Counter = Counter()
    performance = _warm_wall(lambda: _timing_backend(feeds))
    run_once(benchmark, lambda: _run(_timing_backend(Counter())))
    census = ", ".join(
        f"{feed}={count // (WARM_RUNS + 1)}"
        + (f" ({reason})" if reason else "")
        for (feed, reason), count in sorted(
            feeds.items(), key=lambda item: (item[0][0],
                                             item[0][1] or "")))
    record("sec3f_mode_slowdown",
           f"warm whole-app wall, median of {WARM_RUNS} runs each\n"
           f"functional mode, superblock tier: {superblock:.2f}s\n"
           f"functional mode, megablock tier: {megablock:.2f}s\n"
           f"performance mode, TimingBackend(TINY): {performance:.2f}s\n"
           f"performance-mode launches by feed: {census}\n"
           f"slowdown over superblock: {performance / superblock:.1f}x\n"
           f"slowdown over megablock: {performance / megablock:.1f}x "
           f"(paper: 7-8x)\n")
    # Against the fastest functional tier: performance mode pays for
    # the cycle model on top of the same execution, so it costs more.
    assert performance > 1.02 * megablock, \
        "performance mode should cost more"


def test_sec3f_checkpoint_resume_bit_exact(benchmark, record):
    # Full functional run = ground truth.
    _rt, truth = _run()

    def checkpoint_and_resume():
        checkpointer = CheckpointingBackend(
            kernel_ordinal=3, first_cta=0, partial_ctas=1,
            warp_instruction_budget=24)
        _run(checkpointer)
        assert checkpointer.taken
        resume = ResumeBackend(checkpointer.checkpoint,
                               TimingBackend(TINY))
        _rt2, resumed = _run(resume)
        return checkpointer.checkpoint, resumed

    checkpoint, resumed = run_once(benchmark, checkpoint_and_resume)
    record("sec3f_checkpoint_resume",
           f"checkpoint at kernel #{checkpoint.kernel_ordinal} "
           f"({checkpoint.kernel_name}), CTA {checkpoint.first_cta}, "
           f"{checkpoint.partial_ctas} partial CTA(s), "
           f"y={checkpoint.warp_instruction_budget} instructions/warp\n"
           f"Data1: {len(checkpoint.cta_snapshots)} CTA snapshot(s)\n"
           f"resumed logits match full run: "
           f"{np.allclose(resumed.logits, truth.logits, atol=1e-4)}\n")
    assert np.allclose(resumed.logits, truth.logits, atol=1e-4)
