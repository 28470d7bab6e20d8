"""Start-up hook of traced benchmark runs.

``perfbench/run.py --trace 1`` puts this directory on ``PYTHONPATH`` and
names a span directory in ``PERFBENCH_TRACE_DIR``.  Python imports
``sitecustomize`` at interpreter start, so every program process of the
run -- including shard processes that ``multiprocessing`` starts with
the spawn method -- installs the layer wrappers before it does any work.
Without the variable this module does nothing.
"""

import os

if os.environ.get("PERFBENCH_TRACE_DIR"):
    import perfbench_trace

    perfbench_trace.install(os.environ["PERFBENCH_TRACE_DIR"])
