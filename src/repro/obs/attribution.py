"""Per-stage self time, read from the stage histograms.

Every timed stage of the serving path -- the front door's ``route`` and
``queue``, ``channel[...]``, ``allocation[...]``, ``cache``,
``solve[<tier>]``, ``throughput`` and the solver sub-stages -- is one
:class:`repro.tracecontext.stage`.  A stage always observes its *self*
time (its own time minus that of the stages nested in it) into the
``stage.self_seconds`` histogram under its ``stage`` label, traced or
not.  This module reads those histograms back as a table: the
per-stage delta between two readings, so a replay reports what *it*
spent, sorted by self time -- the top row is where the latency went.

No tracer and no span buffer are involved, so nothing can truncate the
table.  A batched stage window is observed once, however many requests
share it: the table is wall time, not time weighted by request.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "STAGE_HISTOGRAM",
    "attribution_table",
    "render_attribution",
    "stage_totals",
]

#: The histogram every :class:`repro.tracecontext.stage` observes into.
STAGE_HISTOGRAM = "stage.self_seconds"

#: Stage key -> (observations, cumulative self seconds).
StageTotals = Dict[str, Tuple[int, float]]


def stage_totals(registries: Iterable[Any]) -> StageTotals:
    """Cumulative per-stage totals, summed over *registries*.

    *registries* are :class:`repro.runtime.metrics.MetricsRegistry`
    objects (anything with ``histogram_sums`` duck-types).  Stages
    registered but never observed are left out.
    """
    totals: StageTotals = {}
    for registry in registries:
        for labels, (count, seconds) in registry.histogram_sums(
            STAGE_HISTOGRAM
        ).items():
            if not count:
                continue
            key = dict(labels).get("stage", "")
            prior_count, prior_seconds = totals.get(key, (0, 0.0))
            totals[key] = (prior_count + count, prior_seconds + seconds)
    return totals


def attribution_table(
    after: StageTotals, before: Optional[StageTotals] = None
) -> List[Dict[str, Any]]:
    """Per-stage rows for the observations between *before* and *after*.

    Each row carries the stage key, its observation count, its self
    time and its share of the total self time.  Stages without a new
    observation are left out; rows are sorted by descending self time.
    """
    before = before or {}
    deltas: Dict[str, Tuple[int, float]] = {}
    for key, (count, seconds) in after.items():
        prior_count, prior_seconds = before.get(key, (0, 0.0))
        if count > prior_count:
            deltas[key] = (count - prior_count, seconds - prior_seconds)
    total = sum(seconds for _, seconds in deltas.values())
    table = [
        {
            "stage": key,
            "count": count,
            "self_ms": 1e3 * seconds,
            "self_fraction": seconds / total if total > 0 else 0.0,
        }
        for key, (count, seconds) in deltas.items()
    ]
    table.sort(key=lambda row: (-row["self_ms"], row["stage"]))
    return table


def render_attribution(table: Sequence[Dict[str, Any]]) -> List[str]:
    """The attribution table as aligned text lines (empty -> empty)."""
    if not table:
        return []
    lines = [f"{'stage':<24} {'count':>7} {'self ms':>10} {'self %':>7}"]
    for row in table:
        lines.append(
            f"{row['stage']:<24} {row['count']:>7d} "
            f"{row['self_ms']:>10.3f} {100 * row['self_fraction']:>6.1f}%"
        )
    return lines
