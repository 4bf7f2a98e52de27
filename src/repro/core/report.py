"""Human-readable report rendering.

The output format follows the excerpt in the paper's artifact appendix
(Section A.6): one section per issue category with per-finding rows showing
the share of program time attributable to the finding, the volume involved,
the repeat count and the source attribution, followed by an overall
optimization-potential summary.

Every section reads the report's per-class row tables
(:class:`~repro.core.detectors.finding_columns.FindingRows`), never the
``*Group`` objects, so rendering a report analysed from a stream builds no
event objects.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.core.detectors.finding_columns import REASONS
from repro.dwarf.attribution import format_location
from repro.util.tables import Table, format_bytes, format_seconds

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.analysis import AnalysisReport


def _percent_of_runtime(seconds: float, runtime: float) -> str:
    if runtime <= 0.0:
        return "0.00%"
    return f"{100.0 * seconds / runtime:.2f}%"


def _section(report: "AnalysisReport", index: int, title: str, headers, cells, empty: str) -> str:
    """One issue section: the class's findings by wasted time, descending.

    ``cells(rows, order)`` returns the class-specific columns (after the
    two time columns, before the source location) for the findings in
    ``order``.  The sort is stable, so equal wasted times keep detection
    order.
    """
    rows = report.rows[index]
    table = Table(["time (%)", "wasted time", *headers, "source location"], title=title)
    runtime = report.trace.runtime
    order = np.argsort(-rows.wasted_time, kind="stable")
    wasted = rows.wasted_time[order].tolist()
    codeptr = rows.codeptr[order].tolist()
    has_codeptr = rows.has_codeptr[order].tolist()
    for seconds, middle, ptr, has_ptr in zip(wasted, cells(rows, order), codeptr, has_codeptr):
        table.add_row(
            [
                _percent_of_runtime(seconds, runtime),
                format_seconds(seconds),
                *middle,
                format_location(ptr if has_ptr else None, report.debug_info),
            ]
        )
    if not len(rows):
        return table.render() + "\n" + empty
    return table.render()


def _count_bytes_device(rows, order):
    return zip(
        rows.count[order].tolist(),
        map(format_bytes, rows.nbytes[order].tolist()),
        rows.device[order].tolist(),
    )


def render_duplicate_section(report: "AnalysisReport") -> str:
    return _section(
        report, 0, "OpenMP Duplicate Target Data Transfer Analysis",
        ["count", "bytes", "dest device"], _count_bytes_device,
        "No duplicate data transfers detected.",
    )


def render_round_trip_section(report: "AnalysisReport") -> str:
    def cells(rows, order):
        sources = rows.keys["src_device"][order].tolist()
        routes = (
            f"dev{src} <-> dev{dst}" for src, dst in zip(sources, rows.device[order].tolist())
        )
        return zip(
            rows.count[order].tolist(),
            map(format_bytes, rows.nbytes[order].tolist()),
            routes,
        )

    return _section(
        report, 1, "OpenMP Round-Trip Target Data Transfer Analysis",
        ["trips", "bytes", "route"], cells,
        "No round-trip data transfers detected.",
    )


def render_repeated_alloc_section(report: "AnalysisReport") -> str:
    return _section(
        report, 2, "OpenMP Repeated Device Memory Allocation Analysis",
        ["count", "bytes", "device"], _count_bytes_device,
        "No repeated device memory allocations detected.",
    )


def render_unused_alloc_section(report: "AnalysisReport") -> str:
    def cells(rows, order):
        return zip(map(format_bytes, rows.nbytes[order].tolist()), rows.device[order].tolist())

    return _section(
        report, 3, "OpenMP Unused Device Memory Allocation Analysis",
        ["bytes", "device"], cells,
        "No unused device memory allocations detected.",
    )


def render_unused_transfer_section(report: "AnalysisReport") -> str:
    def cells(rows, order):
        return zip(
            map(format_bytes, rows.nbytes[order].tolist()),
            rows.device[order].tolist(),
            (REASONS[code] for code in rows.keys["reason"][order].tolist()),
        )

    return _section(
        report, 4, "OpenMP Unused Data Transfer Analysis",
        ["bytes", "device", "reason"], cells,
        "No unused data transfers detected.",
    )


def render_potential_section(report: "AnalysisReport") -> str:
    potential = report.potential
    lines = [
        "=== Optimization Potential ===",
        f"measured runtime          : {format_seconds(potential.measured_runtime)}",
        f"predicted time savings    : {format_seconds(potential.predicted_time_saved)} "
        f"({100.0 * potential.predicted_saved_fraction:.1f}% of runtime)",
        f"predicted runtime         : {format_seconds(potential.predicted_runtime)}",
        f"predicted speedup         : {potential.predicted_speedup:.2f}x",
        f"removable data operations : {potential.predicted_ops_saved}",
        f"removable transfer volume : {format_bytes(potential.predicted_bytes_saved)}",
    ]
    return "\n".join(lines)


def render_summary_line(report: "AnalysisReport") -> str:
    counts = report.counts.as_dict()
    rendered = ", ".join(f"{name}={value}" for name, value in counts.items())
    program = report.trace.program_name or "<program>"
    return f"{program}: {rendered}"


def render_report(report: "AnalysisReport") -> str:
    """Render the full multi-section analysis report."""
    sections = [
        render_summary_line(report),
        render_duplicate_section(report),
        render_round_trip_section(report),
        render_repeated_alloc_section(report),
        render_unused_alloc_section(report),
        render_unused_transfer_section(report),
        render_potential_section(report),
    ]
    return "\n\n".join(sections)
