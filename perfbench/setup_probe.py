"""One set-up sample, taken in a fresh interpreter.

Times the ``cavityfilter`` import and the building of one workload's
inputs (config parse, prior state), then one host-speed reference
sample in the same process, and prints the three as one JSON line.
Nothing heavy is imported before the clock starts.

    python3 perfbench/setup_probe.py <workload> <seed> <size> <workdir>
"""

import json
import sys
import time

t0 = time.perf_counter()
import cavityfilter  # noqa: E402,F401

t1 = time.perf_counter()
import workloads  # noqa: E402

name, seed, size, workdir = sys.argv[1], int(sys.argv[2]), sys.argv[3], sys.argv[4]
workloads.build(name, seed, workdir, size)
t2 = time.perf_counter()
import hostspeed  # noqa: E402

print(json.dumps({"import_s": t1 - t0, "build_s": t2 - t1,
                  "reference_s": hostspeed.sample()}))
