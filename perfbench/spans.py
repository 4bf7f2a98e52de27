"""In-memory span recording around the public calls into each layer.

The traced run wraps, from the benchmark's side, the functions at each
layer boundary of the analysis (store open/load/decode/map, the five
detector passes' fold/merge/finalize, the key table, materialisation,
potential estimation, the engines, the warm pool, the carry codec, the
distributed coordinator and its queue transport).  Nothing under ``src/``
changes: the wrappers are installed by :func:`install` at run time.

A span is ``(id, parent, name, start, end, thread)`` within one process.
Spans stay in memory; the analysis process exports its own at the end,
while worker processes (forked pool workers inherit the wrappers; the
distributed engine's subprocess workers install them through
``hook/sitecustomize.py``) append each finished span tree to
``spans-<pid>.jsonl`` in the span directory, so the analysis process can
fold them in after the timed region.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import os
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

#: Environment variable naming the directory worker processes flush to.
SPAN_DIR_ENV = "PERFBENCH_SPAN_DIR"

#: Every per-layer metric the traced run reports, with its unit.  A layer
#: a workload does not use reports 0.
PASSES = ("duplicates", "round_trips", "repeated_allocs", "unused_allocs", "unused_transfers")
LAYER_METRICS: list[tuple[str, str]] = [
    ("events.store.open_s", "s"),
    ("events.store.load_batch_s", "s"),
    ("events.store.load_batch_n", "count"),
    ("events.store.decode_s", "s"),
    ("events.store.decode_n", "count"),
    ("events.store.map_s", "s"),
    ("events.store.map_n", "count"),
    ("events.validation.validate_s", "s"),
    *[(f"core.detectors.fold.{p}_s", "s") for p in PASSES],
    ("core.detectors.key_table.fold_s", "s"),
    ("core.detectors.key_table.fold_n", "count"),
    ("core.detectors.key_table.keys_n", "count"),
    *[(f"core.detectors.merge.{p}_s", "s") for p in PASSES],
    *[(f"core.detectors.finalize.{p}_s", "s") for p in PASSES],
    ("events.stream.materialise_s", "s"),
    ("events.stream.materialise_rows_n", "count"),
    ("core.potential.estimate_s", "s"),
    ("core.report.render_s", "s"),
    ("core.engine.run_s", "s"),
    ("core.pool.spawn_s", "s"),
    ("core.pool.collect_s", "s"),
    ("core.pool.worker_fold_s", "s"),
    ("core.pool.worker_open_s", "s"),
    ("core.pool.worker_map_s", "s"),
    ("core.pool.worker_decode_s", "s"),
    ("core.carrycodec.encode_s", "s"),
    ("core.carrycodec.decode_s", "s"),
    ("core.carrycodec.bytes_n", "bytes"),
    ("core.distributed.read_results_s", "s"),
    ("core.distributed.fold_in_s", "s"),
    ("core.distributed.requeued_n", "count"),
    ("core.distributed.respawned_n", "count"),
    ("core.distributed.speculative_n", "count"),
    ("core.distributed.debris_n", "count"),
    ("core.distributed.peak_unmerged_chains_n", "count"),
    ("events.transport.read_n", "count"),
    ("events.transport.write_n", "count"),
    ("events.transport.list_n", "count"),
    ("events.transport.rename_n", "count"),
    ("events.transport.read_s", "s"),
    ("events.transport.write_s", "s"),
    ("events.transport.list_s", "s"),
    ("events.transport.claim_ok_ratio", "ratio"),
    ("trace.uncovered_share", "fraction"),
    ("trace.events_per_s_ratio", "ratio"),
]

#: Spans whose call count is also a metric (``<name>_n``).
COUNTED_SPANS = (
    "events.store.load_batch",
    "events.store.decode",
    "events.store.map",
    "core.detectors.key_table.fold",
    "events.transport.read",
    "events.transport.write",
    "events.transport.list",
    "events.transport.rename",
)

#: Counters that hold a per-process peak: across processes, the largest
#: counts (a key table lives in one process); every other counter adds up.
PEAK_COUNTERS = frozenset({"core.detectors.key_table.keys_n"})


def merge_counters(into: dict[str, float], more: dict[str, float]) -> None:
    for key, value in more.items():
        into[key] = max(into[key], value) if key in PEAK_COUNTERS else into[key] + value


class SpanRecorder:
    """Nested timed spans and counters for one process, kept in memory.

    ``origin_pid`` is the process that exports its spans itself; in any
    other process (a forked worker inherits the recorder) finished span
    trees are appended to ``out_dir`` as soon as a thread's stack empties.
    """

    def __init__(self, out_dir: str, origin_pid: int | None = None) -> None:
        self.out_dir = out_dir
        self.origin_pid = origin_pid
        self._reset()

    def _reset(self) -> None:
        self.pid = os.getpid()
        self.done: list[tuple] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _check_fork(self) -> None:
        if os.getpid() != self.pid:  # first use in a forked worker
            self._reset()

    def _stack(self) -> list:
        self._check_fork()
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> tuple:
        stack = self._stack()
        frame = (next(self._ids), stack[-1][0] if stack else 0, name, time.perf_counter())
        stack.append(frame)
        return frame

    def end(self, frame: tuple) -> None:
        ended = time.perf_counter()
        stack = self._stack()
        stack.pop()
        span_id, parent, name, started = frame
        self.done.append((span_id, parent, name, started, ended, threading.get_ident()))
        if not stack and self.pid != self.origin_pid:
            self.flush()

    @contextlib.contextmanager
    def span(self, name: str):
        frame = self.begin(name)
        try:
            yield
        finally:
            self.end(frame)

    def add(self, name: str, value: float) -> None:
        self._check_fork()
        self.counters[name] += value

    def peak(self, name: str, value: float) -> None:
        self._check_fork()
        self.counters[name] = max(self.counters[name], value)

    def flush(self) -> None:
        """Append finished spans and the counters so far to this pid's file."""
        with self._lock:
            spans, self.done = self.done, []
            line = json.dumps({"pid": self.pid, "spans": spans, "counters": dict(self.counters)})
            with open(Path(self.out_dir) / f"spans-{self.pid}.jsonl", "a", encoding="utf-8") as fh:
                fh.write(line + "\n")


def _wrap(recorder: SpanRecorder, name: str, fn, after=None, when=None):
    """``fn`` inside a span (only for calls where ``when(self)`` holds, if given)."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if when is not None and not when(args[0]):
            return fn(*args, **kwargs)
        with recorder.span(name):
            result = fn(*args, **kwargs)
            if after is not None:
                after(result, *args)
            return result

    return wrapper


def _patch_method(recorder, cls, attr, name, after=None, when=None) -> None:
    raw = cls.__dict__[attr]
    if isinstance(raw, classmethod):
        setattr(cls, attr, classmethod(_wrap(recorder, name, raw.__func__, after)))
    else:
        setattr(cls, attr, _wrap(recorder, name, raw, after, when))


def _patch_function(recorder, module, attr, name, after=None) -> None:
    """Wrap a module function and every ``from module import f`` copy of it."""
    original = getattr(module, attr)
    wrapped = _wrap(recorder, name, original, after)
    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").startswith("repro") and getattr(mod, attr, None) is original:
            setattr(mod, attr, wrapped)


def install(recorder: SpanRecorder) -> None:
    """Wrap the layer-boundary calls of the analysis path with spans."""
    from repro.core import carrycodec, distributed, potential
    from repro.core.detectors import _streaming
    from repro.core.detectors.duplicates import DuplicateTransferPass
    from repro.core.detectors.repeated_allocs import RepeatedAllocationPass
    from repro.core.detectors.roundtrips import RoundTripPass
    from repro.core.detectors.unused_allocs import UnusedAllocationPass
    from repro.core.detectors.unused_transfers import UnusedTransferPass
    from repro.core.distributed import CarryFolder, DistributedEngine, TaskQueue
    from repro.core.engine import ProcessEngine, SerialEngine
    from repro.core.pool import WarmWorkerPool
    from repro.events import stream
    from repro.events.columnar import ColumnarTrace
    from repro.events.store import ShardedTraceStore
    from repro.events.transport import LocalDirTransport

    rec = recorder
    _patch_method(rec, ShardedTraceStore, "open", "events.store.open")
    _patch_method(rec, ShardedTraceStore, "load_batch", "events.store.load_batch")
    _patch_method(rec, ShardedTraceStore, "_load_flat_shard", "events.store.map")
    _patch_method(rec, ColumnarTrace, "from_binary_bytes", "events.store.decode")

    passes = (
        DuplicateTransferPass, RoundTripPass, RepeatedAllocationPass,
        UnusedAllocationPass, UnusedTransferPass,
    )
    for cls, label in zip(passes, PASSES):
        for step in ("fold", "merge", "finalize"):
            _patch_method(rec, cls, step, f"core.detectors.{step}.{label}")
    _patch_method(
        rec, _streaming.CompositeKeyCounter, "fold", "core.detectors.key_table.fold",
        after=lambda _r, table, *_: rec.peak("core.detectors.key_table.keys_n", table.num_keys),
    )
    _patch_function(
        rec, stream, "materialize_data_op_events", "events.stream.materialise",
        after=lambda rows, *_: rec.add("events.stream.materialise_rows_n", len(rows)),
    )
    _patch_function(rec, potential, "estimate_potential", "core.potential.estimate")

    for cls in (SerialEngine, ProcessEngine, DistributedEngine):
        _patch_method(rec, cls, "run", "core.engine.run")
    _patch_method(rec, WarmWorkerPool, "__init__", "core.pool.spawn")
    _patch_method(rec, WarmWorkerPool, "collect", "core.pool.collect")
    _patch_function(
        rec, carrycodec, "encode_carries", "core.carrycodec.encode",
        after=lambda data, *_: rec.add("core.carrycodec.bytes_n", len(data)),
    )
    _patch_function(rec, carrycodec, "decode_carries", "core.carrycodec.decode")

    _patch_function(rec, distributed, "_decode_result_batch", "core.distributed.read_results")
    _patch_method(rec, CarryFolder, "add", "core.distributed.fold_in")

    def claimed(claim, *_):
        rec.add("events.transport.claims_tried", 1)
        rec.add("events.transport.claims_won", claim is not None)

    _patch_method(rec, TaskQueue, "claim", "events.transport.claim", after=claimed)

    # Store shards also travel through LocalDirTransport; only the
    # distributed engine's scratch queue (a directory named "queue") is
    # the transport layer measured here.
    def is_queue(transport) -> bool:
        return Path(transport.path).name == "queue"

    for attr, op in (("read_blob", "read"), ("write_blob", "write"),
                     ("list_blobs", "list"), ("rename_blob", "rename")):
        _patch_method(rec, LocalDirTransport, attr, f"events.transport.{op}", when=is_queue)


def load_worker_spans(span_dir: str) -> tuple[list[tuple], dict[str, float]]:
    """Spans (tagged with their pid) and merged counters flushed by workers."""
    spans: list[tuple] = []
    counters: dict[str, float] = defaultdict(float)
    for path in sorted(Path(span_dir).glob("spans-*.jsonl")):
        last: dict = {}
        for line in path.read_text(encoding="utf-8").splitlines():
            record = json.loads(line)
            spans.extend((record["pid"], *span) for span in record["spans"])
            last = record["counters"]
        merge_counters(counters, last)
    return spans, counters


def layer_metrics(
    spans: list[tuple], counters: dict[str, float], main: tuple[int, int], wall: float
) -> dict[str, float]:
    """Self time per span name, call counts, counters and uncovered share.

    ``spans`` are ``(pid, id, parent, name, start, end, thread)``; self
    time is a span's duration minus its direct children's, summed over
    every process (so worker time adds up as busy time, not wall time).
    ``main`` is the (pid, thread) of the timed analysis; the share of
    ``wall`` its root spans leave uncovered is ``trace.uncovered_share``.
    """
    child_time: dict[tuple[int, int], float] = defaultdict(float)
    for pid, _id, parent, _name, start, end, _tid in spans:
        if parent:
            child_time[(pid, parent)] += end - start
    out: dict[str, float] = defaultdict(float)
    covered = 0.0
    for pid, span_id, parent, name, start, end, tid in spans:
        out[f"{name}_s"] += (end - start) - child_time[(pid, span_id)]
        if name in COUNTED_SPANS:
            out[f"{name}_n"] += 1
        if not parent and (pid, tid) == main:
            covered += end - start
    for key, value in counters.items():
        out[key] += value
    tried = out.pop("events.transport.claims_tried", 0.0)
    won = out.pop("events.transport.claims_won", 0.0)
    out["events.transport.claim_ok_ratio"] = won / tried if tried else 0.0
    out["trace.uncovered_share"] = max(0.0, 1.0 - covered / wall) if wall > 0 else 0.0
    return dict(out)
