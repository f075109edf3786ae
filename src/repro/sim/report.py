"""Plain-text reporting of sweep results (the rows behind each paper figure)."""

from __future__ import annotations

from collections import Counter, OrderedDict
from typing import Dict, Iterable, List, Optional, Sequence


def metric_columns(
    summary,
    prefix: str,
    percentiles: Sequence[float] = (50.0, 95.0),
) -> "OrderedDict[str, float]":
    """Row columns for one :class:`~repro.sim.metrics.MetricSummary`.

    Works for exact and streaming summaries alike (the mean column keeps
    the historical ``{prefix}_bytes`` name so fleet rows line up with
    figure rows; percentile columns are ``{prefix}_p{q}_bytes``).
    """
    columns: "OrderedDict[str, float]" = OrderedDict()
    columns[f"{prefix}_bytes"] = summary.mean
    for q in percentiles:
        key = f"{prefix}_p{q:g}_bytes"
        columns[key] = summary.percentile(q)
    return columns


def format_table(
    rows: Sequence[Dict[str, object]],
    columns: Optional[Sequence[str]] = None,
    title: Optional[str] = None,
    float_format: str = "{:.3g}",
) -> str:
    """Render a list of row dictionaries as an aligned text table."""
    rows = list(rows)
    if not rows:
        return f"{title or 'table'}: (no rows)"
    if columns is None:
        columns = list(rows[0].keys())

    def fmt(value: object) -> str:
        if isinstance(value, float):
            return float_format.format(value)
        return str(value)

    header = [str(c) for c in columns]
    body = [[fmt(row.get(c, "")) for c in columns] for row in rows]
    widths = [
        max(len(header[i]), *(len(line[i]) for line in body)) for i in range(len(columns))
    ]
    lines: List[str] = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(header, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for line in body:
        lines.append("  ".join(v.ljust(w) for v, w in zip(line, widths)))
    return "\n".join(lines)


def pivot_metric(
    rows: Sequence[Dict[str, object]],
    x_key: str,
    metric: str,
    series_key: str = "index",
) -> List[Dict[str, object]]:
    """Reshape sweep rows into one row per x value with one column per series.

    This matches how the paper's figures are read: x axis = ``x_key`` (packet
    capacity, k, WinSideRatio...), one curve per index.
    """
    xs: List[object] = []
    series: List[str] = []
    values: Dict[object, Dict[str, object]] = {}
    for row in rows:
        x = row[x_key]
        s = str(row[series_key])
        if x not in values:
            values[x] = {}
            xs.append(x)
        if s not in series:
            series.append(s)
        values[x][s] = row.get(metric)
    out = []
    for x in xs:
        entry: Dict[str, object] = {x_key: x}
        for s in series:
            entry[s] = values[x].get(s)
        out.append(entry)
    return out


def kernel_coverage(rows: Sequence[Dict[str, object]]) -> "OrderedDict[str, object]":
    """Aggregate fleet-row ``backend``/``backend_reason`` into one stat.

    Fleet-mode cells tag every row with the simulation backend that
    produced it (``"numpy"`` for the structure-of-arrays kernels,
    ``"reference"`` for the scalar fallback) plus the decline reason when a
    kernel stood down.
    This rolls a whole experiment grid up so a regression in kernel
    applicability -- a gate accidentally widened, a new config shape the
    kernels decline -- shows as a ``kernel_fraction`` drop at a glance
    instead of hiding in per-row columns.

    Rows without a ``backend`` column (figure rows, per-trial cells) are
    skipped; an all-skipped grid reports zero coverage over zero rows.
    """
    backends: Counter = Counter()
    reasons: Counter = Counter()
    for row in rows:
        backend = row.get("backend")
        if not backend:
            continue
        backends[str(backend)] += 1
        reason = row.get("backend_reason")
        if str(backend) == "reference" and reason:
            reasons[str(reason)] += 1
    total = sum(backends.values())
    kernel_rows = total - backends.get("reference", 0)
    stat: "OrderedDict[str, object]" = OrderedDict()
    stat["rows"] = total
    stat["kernel_rows"] = kernel_rows
    stat["kernel_fraction"] = (kernel_rows / total) if total else 0.0
    stat["backends"] = OrderedDict(sorted(backends.items()))
    stat["decline_reasons"] = OrderedDict(
        sorted(reasons.items(), key=lambda kv: (-kv[1], kv[0]))
    )
    return stat


def kernel_coverage_report(rows: Sequence[Dict[str, object]]) -> str:
    """Render :func:`kernel_coverage` as a short text block."""
    stat = kernel_coverage(rows)
    lines = [
        "kernel coverage: {kernel_rows}/{rows} rows on a kernel backend "
        "({frac:.0%})".format(
            kernel_rows=stat["kernel_rows"], rows=stat["rows"],
            frac=stat["kernel_fraction"],
        )
    ]
    for backend, count in stat["backends"].items():
        lines.append(f"  {backend}: {count}")
    if stat["decline_reasons"]:
        lines.append("  decline reasons:")
        for reason, count in stat["decline_reasons"].items():
            lines.append(f"    {count}x {reason}")
    return "\n".join(lines)


def figure_report(
    rows: Sequence[Dict[str, object]],
    x_key: str,
    title: str,
    series_key: str = "index",
    metrics: Sequence[str] = ("latency_bytes", "tuning_bytes"),
) -> str:
    """Render the latency and tuning panels of one figure as text tables."""
    parts: List[str] = []
    for metric in metrics:
        pivot = pivot_metric(rows, x_key=x_key, metric=metric, series_key=series_key)
        parts.append(format_table(pivot, title=f"{title} -- {metric}"))
    return "\n\n".join(parts)
