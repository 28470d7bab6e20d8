"""Regenerate ``perfbench/reference.json`` from the scalar oracle.

    python3 perfbench/run.py --write-reference

Every value comes from ``engine="scalar"`` (one port simulation per
cell), never from the columnar engine the workloads run, so the
reference is independent of the code path under measurement.
"""

from __future__ import annotations

import json
from pathlib import Path

from . import studies


def _presets() -> list[dict]:
    from repro.exec.retry import RetryPolicy, run_with_retry
    from repro.serve.warmup import preset_specs

    rows = []
    for spec in preset_specs(("bench",)):
        result = run_with_retry(spec, RetryPolicy()).result
        rows.append({
            "app": spec.app, "model": spec.model, "platform": spec.platform,
            "precision": spec.precision.value,
            "seconds": result.seconds.hex(),
            "kernel_seconds": result.kernel_seconds.hex(),
            "joules": result.joules.hex(),
        })
    return rows


def write(path: Path) -> None:
    doc = {
        "generator": "perfbench/run.py --write-reference (engine=scalar)",
        "study-paper": studies.study_paper(0, "scalar")["digest"],
        "sweep-dense": {
            str(variant): studies.sweep_dense(variant, "scalar")["digest"]
            for variant in range(studies.SWEEP_VARIANTS)
        },
        "presets": _presets(),
    }
    path.write_text(json.dumps(doc, indent=1) + "\n")
