"""One invocation of an offline workload, in its own process.

Run by ``perfbench/run.py`` with ``PYTHONPATH`` pointing at the
program's sources; prints one JSON line with its timings, CPU time,
peak RSS, memo-cache counts and the result digest.  ``--setup-only``
stops after set-up (import plus configs).
"""

import argparse
import json
import resource
import time

parser = argparse.ArgumentParser()
parser.add_argument("--workload", required=True)
parser.add_argument("--seed", type=int, required=True)
parser.add_argument("--setup-only", action="store_true")
args = parser.parse_args()

from bench import studies  # noqa: E402
from repro.core.configs import bench_configs, sweep_configs  # noqa: E402
from repro.engine import memo  # noqa: E402

import repro.core.study  # noqa: E402,F401
import repro.core.sweep  # noqa: E402,F401

bench_configs()
sweep_configs()
ready = time.perf_counter()
report = {"ready": ready}
if not args.setup_only:
    caches = (("kernel", memo.KERNEL_CACHE), ("plan", memo.PLAN_CACHE))
    before = {name: cache.snapshot() for name, cache in caches}
    usage = resource.getrusage(resource.RUSAGE_SELF)
    work_start = time.perf_counter()
    outcome = studies.WORKLOADS[args.workload](args.seed, "vector")
    work_end = time.perf_counter()
    after = resource.getrusage(resource.RUSAGE_SELF)
    report.update(outcome)
    report.update({
        "work_start": work_start,
        "work_end": work_end,
        "cpu_s": (after.ru_utime - usage.ru_utime) + (after.ru_stime - usage.ru_stime),
        "peak_rss_mb": after.ru_maxrss / 1024,
        "caches": {
            name: [delta.hits, delta.misses]
            for name, cache in caches
            for delta in [cache.snapshot().since(before[name])]
        },
    })
print(json.dumps(report), flush=True)
