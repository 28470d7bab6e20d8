"""The repository's benchmark: one workload per invocation.

    python3 perfbench/run.py --workload study-paper --seed 1 --seconds 30 --trace 0

Run from the repository root.  The last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  The line before it is a report with the machine
fingerprint and the raw observations behind every number; the same
report is kept under ``.perfbench_work/results/``.

``--write-reference`` regenerates ``perfbench/reference.json`` from the
scalar oracle (``engine="scalar"``); see ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time
import uuid
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("study-paper", "sweep-dense", "serve-mixed")


class Context:
    """Paths and process environment shared by every workload."""

    #: Traced runs must attribute this share of wall time or better.
    tiling_limit = 0.05

    def __init__(self) -> None:
        self.root = ROOT
        self.bench_dir = BENCH_DIR
        self.work = ROOT / ".perfbench_work" / f"run-{os.getpid()}-{uuid.uuid4().hex[:8]}"
        self.work.mkdir(parents=True)
        self._reference: dict | None = None

    @property
    def reference(self) -> dict:
        if self._reference is None:
            self._reference = json.loads((BENCH_DIR / "reference.json").read_text())
        return self._reference

    def fresh_dir(self, prefix: str) -> Path:
        path = self.work / f"{prefix}-{uuid.uuid4().hex[:8]}"
        path.mkdir()
        return path

    def program_env(self, trace_dir: Path | None = None) -> dict:
        """The program's environment: its sources on ``PYTHONPATH``, plus
        the span hook when ``trace_dir`` is given."""
        env = {k: v for k, v in os.environ.items()
               if not k.startswith(("PERFBENCH_", "REPRO_"))}
        path = [str(ROOT / "src")]
        if trace_dir is not None:
            path.insert(0, str(BENCH_DIR / "hook"))
            env["PERFBENCH_TRACE_DIR"] = str(trace_dir)
        env["PYTHONPATH"] = os.pathsep.join(path)
        env["PYTHONUNBUFFERED"] = "1"
        return env

    def cleanup(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)


def _save(report: dict, workload: str, seed: int, trace: int) -> None:
    results = ROOT / ".perfbench_work" / "results"
    results.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    path = results / f"{workload}-seed{seed}-trace{trace}-{stamp}-{os.getpid()}.json"
    path.write_text(json.dumps(report, indent=1, default=str))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        help="measured seconds (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args()
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: no program sources at src/repro; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.write_reference:
        from bench import reference

        reference.write(BENCH_DIR / "reference.json")
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    from bench import layers, machine

    declared_seconds = layers.check_declared(ROOT / "BENCHMARK.json")
    if args.seconds is None:
        args.seconds = float(declared_seconds)
    if args.workload in ("study-paper", "sweep-dense"):
        from bench import offline as module
    else:
        from bench import serving as module

    ctx = Context()
    try:
        outcome = module.run(ctx, args.workload, args.seed, args.seconds, bool(args.trace))
    finally:
        ctx.cleanup()
    declared = layers.PER_LAYER if args.trace else layers.END_TO_END
    result = {
        "correct": bool(outcome["correct"]),
        "attempted": int(outcome["attempted"]),
        "failed": int(outcome["failed"]),
        "metrics": {name: {"value": float(outcome["metrics"][name]), "unit": unit}
                    for name, unit in declared},
    }
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "fingerprint": machine.fingerprint(ROOT),
        "detail": outcome["detail"], "result": result,
    }
    _save(report, args.workload, args.seed, args.trace)
    print(json.dumps({"perfbench_report": report}, default=str))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
