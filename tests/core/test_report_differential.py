"""Differential test of the rendered report: object path vs every engine.

Stream reports compute their counts, potential and rendered text from
finding columns; object reports from the reference detectors' groups fed
through the same row tables.  For hostile traces, a trace without
findings and traces with a single finding class, the rendered text must
be byte-identical and the potential bit-identical between
``analyze_trace`` over the object trace and ``analyze_stream`` on the
serial, process and distributed engines — and every ``*_groups`` view
must equal the object reference list.

The performance property is guarded too: ``analyze_stream`` followed by
``render_report`` never materialises event objects; the ``*Group`` views
do, on first access only, once per class.
"""

from __future__ import annotations

import functools
import operator
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core.analysis import analyze_stream, analyze_trace
from repro.core.detectors import finding_columns
from repro.core.detectors.finding_columns import segment_sums
from repro.core.distributed import DistributedEngine
from repro.core.analysis import IssueCounts
from repro.core.potential import OptimizationPotential
from repro.core.report import render_potential_section, render_report, render_summary_line
from repro.dwarf.attribution import format_location
from repro.events.columnar import ColumnarTrace, as_object_trace
from repro.events.hostile import make_hostile_trace, write_hostile_store
from repro.events.store import shard_trace
from repro.util.tables import Table, format_bytes, format_seconds

from tests.conftest import TraceBuilder

VIEWS = (
    "duplicate_groups",
    "round_trip_groups",
    "repeated_alloc_groups",
    "unused_allocations",
    "unused_transfers",
)


def _no_findings():
    b = TraceBuilder()
    b.alloc(0x100, 0xA000)
    b.h2d(0x100, 0xA000, content_hash=1)
    b.kernel()
    b.d2h(0x100, 0xA000, content_hash=2)
    b.delete(0x100, 0xA000)
    return b.build()


def _only_duplicates():
    b = TraceBuilder()
    b.alloc(0x100, 0xA000, codeptr=0x40)
    for _ in range(3):
        b.h2d(0x100, 0xA000, content_hash=7, codeptr=0x44)
        b.kernel()
    b.d2h(0x100, 0xA000, content_hash=8)
    b.delete(0x100, 0xA000)
    return b.build()


def _only_round_trips():
    b = TraceBuilder(num_devices=2)
    b.alloc(0x100, 0xA000)
    b.h2d(0x100, 0xA000, content_hash=5, codeptr=0x50)
    b.kernel()
    b.d2h(0x100, 0xA000, content_hash=5, codeptr=0x54)
    b.delete(0x100, 0xA000)
    return b.build()


def _only_repeated_allocs():
    b = TraceBuilder()
    for _ in range(3):
        b.alloc(0x100, 0xA000, nbytes=4096, codeptr=0x60)
        b.kernel()
        b.delete(0x100, 0xA000, nbytes=4096)
    return b.build()


def _only_unused_allocs():
    b = TraceBuilder()
    b.alloc(0x100, 0xA000, codeptr=0x70)
    b.delete(0x100, 0xA000)
    b.alloc(0x200, 0xB000)  # never deleted, never used
    b.kernel(duration=0.0)
    b.idle(1e-3)
    return b.build()


def _only_unused_transfers():
    b = TraceBuilder()
    b.kernel()
    b.alloc(0x100, 0xA000)
    b.h2d(0x100, 0xA000, content_hash=1, codeptr=0x80)
    b.h2d(0x100, 0xA000, content_hash=2)  # overwrites the first
    b.kernel()
    b.h2d(0x100, 0xA000, content_hash=3)  # after the last kernel
    return b.build()


SINGLE_CLASS = {
    "DD": _only_duplicates,
    "RT": _only_round_trips,
    "RA": _only_repeated_allocs,
    "UA": _only_unused_allocs,
    "UT": _only_unused_transfers,
}


def _distributed(worker_mode: str = "thread"):
    return DistributedEngine(worker_mode=worker_mode, poll_interval=0.01, run_timeout=120.0)


def _assert_same_report(expected, actual):
    assert render_report(actual) == render_report(expected)
    assert actual.potential == expected.potential
    # bit identity, not just float equality (e.g. 0 vs 0.0 would slip by)
    assert repr(actual.potential.predicted_time_saved) == repr(
        expected.potential.predicted_time_saved
    )
    assert actual.counts == expected.counts
    for name in VIEWS:
        assert getattr(actual, name) == getattr(expected, name), name


def _check_all_engines(trace, store):
    expected = analyze_trace(as_object_trace(trace))
    for engine in ("serial", "process", _distributed()):
        _assert_same_report(expected, analyze_stream(store, engine=engine, jobs=2))
    return expected


@pytest.mark.parametrize("seed", [1, 5, 11])
def test_hostile_reports_render_identically_on_every_engine(seed, tmp_path):
    trace = make_hostile_trace(3000, seed=seed)
    store = write_hostile_store(
        trace, tmp_path / "h.store", seed=seed, min_shard_events=32, max_shard_events=400
    )
    expected = _check_all_engines(trace, store)
    assert expected.counts.total > 0


def test_report_without_findings_renders_identically(tmp_path):
    trace = _no_findings()
    store = shard_trace(ColumnarTrace.from_trace(trace), tmp_path / "e.store", shard_events=2)
    expected = _check_all_engines(trace, store)
    assert expected.counts.total == 0
    assert "No duplicate data transfers detected." in render_report(expected)


@pytest.mark.parametrize("issue_class", sorted(SINGLE_CLASS))
def test_single_class_reports_render_identically(issue_class, tmp_path):
    trace = SINGLE_CLASS[issue_class]()
    store = shard_trace(ColumnarTrace.from_trace(trace), tmp_path / "s.store", shard_events=2)
    expected = _check_all_engines(trace, store)
    assert expected.counts.issue_classes() == [issue_class]


def test_loopback_process_workers_render_identically(tmp_path):
    """The default distributed shape: coordinator plus worker processes."""
    trace = make_hostile_trace(2000, seed=3)
    store = write_hostile_store(trace, tmp_path / "h.store", seed=3, max_shard_events=300)
    expected = analyze_trace(as_object_trace(trace))
    actual = analyze_stream(store, engine=_distributed("process"), jobs=2)
    _assert_same_report(expected, actual)


@pytest.mark.parametrize("engine", ["serial", "process", "distributed"])
def test_analysis_and_rendering_materialise_no_events(engine, tmp_path, monkeypatch):
    calls: list[int] = []
    real = finding_columns.materialize_data_op_events

    def counting(stream, gpos):
        calls.append(len(gpos))
        return real(stream, gpos)

    monkeypatch.setattr(finding_columns, "materialize_data_op_events", counting)
    trace = make_hostile_trace(2500, seed=9)
    store = write_hostile_store(trace, tmp_path / "h.store", seed=9, max_shard_events=300)
    resolved = _distributed() if engine == "distributed" else engine
    report = analyze_stream(store, engine=resolved, jobs=2)
    render_report(report)
    assert calls == []

    expected = analyze_trace(as_object_trace(trace))
    for name in VIEWS:
        before = len(calls)
        assert getattr(report, name) == getattr(expected, name)
        assert len(calls) - before == (1 if getattr(expected, name) else 0), name
        getattr(report, name)  # cached: no second materialisation
        assert len(calls) - before <= 1, name
    assert len(calls) == sum(1 for name in VIEWS if getattr(expected, name))


def _left_to_right(values) -> float:
    return functools.reduce(operator.add, values, 0.0)


def test_segment_sums_add_left_to_right():
    rng = np.random.default_rng(0)
    lengths = rng.integers(0, 80, size=300)  # short (stepped) and long segments
    offsets = np.concatenate([[0], np.cumsum(lengths)])
    values = rng.random(int(offsets[-1])) * 10.0 ** rng.integers(-9, 3, int(offsets[-1]))
    got = segment_sums(values, offsets)
    expected = [
        _left_to_right(values[lo:hi].tolist()) for lo, hi in zip(offsets[:-1], offsets[1:])
    ]
    assert got.tolist() == expected


def test_row_tables_reproduce_the_group_objects(tmp_path):
    """Every printed and summed number of a stream report's row tables is
    the one its ``*Group`` objects give, summed left to right."""
    trace = make_hostile_trace(3000, seed=4)
    store = write_hostile_store(trace, tmp_path / "h.store", seed=4, max_shard_events=300)
    report = analyze_stream(store)
    dup, rt, ra, ua, ut = report.rows

    def check(rows, groups, removable, count, nbytes, device, representative):
        assert rows.wasted_time.tolist() == [
            _left_to_right([e.duration for e in removable(g)]) for g in groups
        ]
        assert rows.count.tolist() == [count(g) for g in groups]
        assert rows.nbytes.tolist() == [nbytes(g) for g in groups]
        assert rows.device.tolist() == [device(g) for g in groups]
        assert rows.codeptr.tolist() == [representative(g).codeptr or 0 for g in groups]
        assert rows.removable["seq"].tolist() == [
            e.seq for g in groups for e in g.removable_events()
        ]

    check(dup, report.duplicate_groups, lambda g: g.events[1:], lambda g: g.num_redundant,
          lambda g: g.nbytes, lambda g: g.dest_device_num, lambda g: g.events[1])
    check(ra, report.repeated_alloc_groups, lambda g: list(g.removable_events()),
          lambda g: g.num_redundant, lambda g: g.nbytes, lambda g: g.device_num,
          lambda g: g.allocations[1].alloc_event)
    check(ua, report.unused_allocations, lambda f: list(f.removable_events()), lambda f: 1,
          lambda f: f.nbytes, lambda f: f.device_num, lambda f: f.pair.alloc_event)
    check(ut, report.unused_transfers, lambda f: [f.event], lambda f: 1,
          lambda f: f.nbytes, lambda f: f.device_num, lambda f: f.event)
    # A round trip costs out + back; the group sums its trips left to right.
    trips = report.round_trip_groups
    assert rt.wasted_time.tolist() == [
        _left_to_right([t.tx_event.duration + t.rx_event.duration for t in g.trips])
        for g in trips
    ]
    assert rt.removable["seq"].tolist() == [e.seq for g in trips for e in g.removable_events()]
    assert all(len(rows) for rows in report.rows)  # every class is exercised
    assert max(len(g.events) for g in report.duplicate_groups) > 33  # a long segment


# --------------------------------------------------------------------- #
# The object renderer the row tables replaced, kept as the reference
# --------------------------------------------------------------------- #
def _percent(seconds, runtime):
    return "0.00%" if runtime <= 0.0 else f"{100.0 * seconds / runtime:.2f}%"


def _reference_section(title, headers, findings, wasted, cells, location, empty, trace):
    table = Table(["time (%)", "wasted time", *headers, "source location"], title=title)
    for finding in sorted(findings, key=wasted, reverse=True):
        table.add_row([
            _percent(wasted(finding), trace.runtime),
            format_seconds(wasted(finding)),
            *cells(finding),
            format_location(location(finding), None),
        ])
    return table.render() + ("" if findings else "\n" + empty)


def _reference_potential(trace, *findings) -> OptimizationPotential:
    """Removable events unioned by ``seq`` in first-insertion order, their
    durations summed left to right."""
    removable = {}
    for finding in [f for per_class in findings for f in per_class]:
        for event in finding.removable_events():
            removable.setdefault(event.seq, event)
    events = list(removable.values())
    return OptimizationPotential(
        measured_runtime=trace.runtime,
        predicted_time_saved=_left_to_right([e.duration for e in events]) if events else 0,
        predicted_bytes_saved=sum(e.nbytes for e in events if e.is_transfer),
        predicted_ops_saved=len(events),
        removable_event_seqs=frozenset(removable),
    )


def _reference_render(trace, dup, rt, ra, ua, ut) -> str:
    """Render from ``*Group`` objects: Python's stable ``sorted`` by wasted
    time and every sum taken left to right."""

    def removable_time(finding):
        return _left_to_right([e.duration for e in finding.removable_events()])

    def trip_time(group):
        return _left_to_right([t.tx_event.duration + t.rx_event.duration for t in group.trips])

    potential = _reference_potential(trace, dup, rt, ra, ua, ut)
    counts = IssueCounts(
        sum(g.num_redundant for g in dup), sum(g.num_trips for g in rt),
        sum(g.num_redundant for g in ra), len(ua), len(ut),
    )
    sections = [
        render_summary_line(SimpleNamespace(counts=counts, trace=trace)),
        _reference_section(
            "OpenMP Duplicate Target Data Transfer Analysis",
            ["count", "bytes", "dest device"], dup, removable_time,
            lambda g: [g.num_redundant, format_bytes(g.nbytes), g.dest_device_num],
            lambda g: g.events[1].codeptr, "No duplicate data transfers detected.", trace,
        ),
        _reference_section(
            "OpenMP Round-Trip Target Data Transfer Analysis",
            ["trips", "bytes", "route"], rt, trip_time,
            lambda g: [
                g.num_trips, format_bytes(g.trips[0].tx_event.nbytes),
                f"dev{g.src_device_num} <-> dev{g.dest_device_num}",
            ],
            lambda g: g.trips[0].rx_event.codeptr, "No round-trip data transfers detected.",
            trace,
        ),
        _reference_section(
            "OpenMP Repeated Device Memory Allocation Analysis",
            ["count", "bytes", "device"], ra, removable_time,
            lambda g: [g.num_redundant, format_bytes(g.nbytes), g.device_num],
            lambda g: g.allocations[1].alloc_event.codeptr,
            "No repeated device memory allocations detected.", trace,
        ),
        _reference_section(
            "OpenMP Unused Device Memory Allocation Analysis",
            ["bytes", "device"], ua, removable_time,
            lambda f: [format_bytes(f.nbytes), f.device_num],
            lambda f: f.pair.alloc_event.codeptr,
            "No unused device memory allocations detected.", trace,
        ),
        _reference_section(
            "OpenMP Unused Data Transfer Analysis",
            ["bytes", "device", "reason"], ut, lambda f: f.event.duration,
            lambda f: [format_bytes(f.nbytes), f.device_num, f.reason],
            lambda f: f.event.codeptr, "No unused data transfers detected.", trace,
        ),
        render_potential_section(SimpleNamespace(potential=potential)),
    ]
    return "\n\n".join(sections)


@pytest.mark.parametrize("case", ["hostile-2", "hostile-7", *sorted(SINGLE_CLASS)])
def test_render_matches_the_object_reference_renderer(case, tmp_path):
    if case.startswith("hostile-"):
        seed = int(case.split("-")[1])
        trace = make_hostile_trace(4000, seed=seed)
        store = write_hostile_store(trace, tmp_path / "h.store", seed=seed, max_shard_events=500)
    else:  # hand-written traces: these carry code pointers
        trace = SINGLE_CLASS[case]()
        store = shard_trace(ColumnarTrace.from_trace(trace), tmp_path / "s.store", shard_events=2)
    report = analyze_stream(store)
    expected = analyze_trace(as_object_trace(trace))
    groups = [getattr(expected, name) for name in VIEWS]
    reference = _reference_render(report.trace, *groups)
    assert render_report(report) == reference
    assert render_report(expected) == reference
    potential = _reference_potential(report.trace, *groups)
    assert report.potential == potential
    assert report.potential.predicted_time_saved.hex() == potential.predicted_time_saved.hex()
