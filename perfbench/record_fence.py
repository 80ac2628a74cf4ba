"""Record ``fence_conv_timing.json``: the timing model's exact per-kernel
statistics for every op position of a conv_timing process.

    python3 perfbench/record_fence.py

The statistics do not depend on the input data, so two seeds are run
and must agree before the file is written.  A change meant only to
speed up the simulator must leave this file unchanged; rerun it only
for a change to the modelled hardware, and say so in that change.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from worker import CONV_SEQUENCE, ConvProcess  # noqa: E402


def record(conv_seed: int) -> list[dict]:
    proc = ConvProcess({"conv_seed": conv_seed})
    return [{"case": op["case"], "kernels": op["kernels"]}
            for op in (proc.op(i) for i in range(len(CONV_SEQUENCE)))]


def main() -> int:
    first, second = record(1), record(2)
    if first != second:
        print("timing statistics depend on the input data; no fence "
              "written", file=sys.stderr)
        return 1
    path = os.path.join(HERE, "fence_conv_timing.json")
    with open(path, "w") as handle:
        json.dump({"config": "TimingBackend(TINY), ConvSampleConfig() "
                             "geometry", "sequence": first},
                  handle, indent=1)
        handle.write("\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
