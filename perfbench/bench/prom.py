"""Prometheus text scrapes: parse, subtract, and read quantiles from
histogram buckets."""

from __future__ import annotations

from .launch import get


def scrape(url: str) -> dict[tuple[str, frozenset], float]:
    """``(series name, labels) -> value`` from ``GET <url>/metrics``."""
    _status, body = get(url + "/metrics", timeout=30)
    text = body.decode()
    samples: dict[tuple[str, frozenset], float] = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        line = line.split(" # ", 1)[0]  # drop an OpenMetrics exemplar
        series, _, value = line.rpartition(" ")
        name, _, labels = series.partition("{")
        pairs = []
        for item in labels.rstrip("}").split('",') if labels else ():
            key, _, val = item.partition("=")
            pairs.append((key.strip(), val.strip().strip('"')))
        samples[(name, frozenset(pairs))] = float(value)
    return samples


def delta(after: dict, before: dict) -> dict:
    return {key: value - before.get(key, 0.0) for key, value in after.items()}


def total(samples: dict, name: str, **labels: str) -> float:
    want = set(labels.items())
    return sum(v for (n, lab), v in samples.items() if n == name and want <= lab)


def quantile(samples: dict, name: str, q: float, **labels: str) -> float:
    """Linear interpolation inside the bucket holding quantile ``q`` of a
    histogram (cumulative ``_bucket`` series); 0 without samples."""
    want = set(labels.items())
    buckets: dict[float, float] = {}
    for (n, lab), value in samples.items():
        if n != name + "_bucket" or not want <= lab:
            continue
        bound = float(dict(lab)["le"])
        buckets[bound] = buckets.get(bound, 0.0) + value
    bounds = sorted(buckets)
    if not bounds or buckets[bounds[-1]] <= 0:
        return 0.0
    rank = q * buckets[bounds[-1]]
    lower, below = 0.0, 0.0
    for bound in bounds:
        count = buckets[bound]
        if count >= rank:
            if bound == float("inf"):
                return lower
            inside = count - below
            return lower + (bound - lower) * ((rank - below) / inside if inside else 1.0)
        lower, below = bound, count
    return lower
