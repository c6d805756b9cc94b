"""Summary statistics for the benchmark's samples."""

from __future__ import annotations

import statistics
from dataclasses import dataclass

EXCEPTION = "exception"
TIMEOUT = "timeout"
WRONG = "wrong_answer"
CAUSES = (EXCEPTION, TIMEOUT, WRONG)


def tail(values: list[float], per_cycle: int) -> dict:
    """Each whole cycle's slowest request, and the median of those over the
    run's cycles.  A run holds a few dozen requests at most, too few for a
    high percentile with 10 samples beyond it; the cycle maximum still moves
    when only the dearest request of a cycle slows down.  ``values`` are in
    the order run, whole cycles of ``per_cycle`` requests.  The percentile
    recorded is the share of all samples at or below the value."""
    if not values:
        raise ValueError("no samples")
    if per_cycle < 1 or len(values) % per_cycle:
        raise ValueError("samples are not whole cycles")
    maxima = [max(values[i:i + per_cycle]) for i in range(0, len(values), per_cycle)]
    value = statistics.median(maxima)
    at_or_below = sum(v <= value for v in values)
    return {"value": value, "rule": "median of per-cycle maxima", "cycles": len(maxima),
            "samples": len(values), "percentile": 100.0 * at_or_below / len(values),
            "beyond": len(values) - at_or_below}


@dataclass
class Outcome:
    """One request as the answer check sees it."""

    label: str
    latency_s: float
    status: str | None = None  # None when the request raised
    error: str | None = None
    mismatch: str | None = None

    @property
    def cause(self) -> str | None:
        if self.error is not None:
            return EXCEPTION
        if self.status == TIMEOUT:
            return TIMEOUT
        if self.mismatch is not None:
            return WRONG
        return None


def failures(outcomes: list[Outcome]) -> dict:
    """Failed requests by cause, each request counted once, and the ratio
    to requests attempted."""
    by_cause = {c: 0 for c in CAUSES}
    listed = []
    for i, o in enumerate(outcomes):
        if o.cause is not None:
            by_cause[o.cause] += 1
            listed.append({"request": i, "label": o.label, "cause": o.cause,
                           "detail": o.error or o.mismatch or o.status})
    failed = sum(by_cause.values())
    return {"attempted": len(outcomes), "failed": failed,
            "failed_ratio": failed / len(outcomes) if outcomes else 0.0,
            "by_cause": by_cause, "requests": listed}


def spread(values: list[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
