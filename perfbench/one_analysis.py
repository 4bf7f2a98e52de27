"""One timed analysis, in a fresh interpreter: store open to rendered report.

``run.py`` starts this once per repeat, so no analysis inherits heap,
pools or caches from the one before it.  The timed region is the user's
path: ``load_trace`` -> ``validate_stream`` -> ``analyze_stream`` ->
``render_report``.  After it, outside any timing, the findings are
compared with the reference findings ``run.py`` pickled from the object
detectors.  The last line of stdout is one JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import pickle
import sys
import tempfile
import threading
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent


def _peak_rss_bytes() -> int:
    """This process's resident high-water mark (``VmHWM``) since its exec.

    ``ru_maxrss`` would also count the RSS a process inherited from its
    forking parent before exec, i.e. ``run.py``'s heap.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        line = next(ln for ln in fh if ln.startswith("VmHWM:"))
    return int(line.split()[1]) * 1024


def _pss_bytes(pid: int) -> int:
    """A process's proportional set size: shared pages split among sharers."""
    with open(f"/proc/{pid}/smaps_rollup", encoding="ascii") as fh:
        line = next(ln for ln in fh if ln.startswith("Pss:"))
    return int(line.split()[1]) * 1024


def _descendants(pid: int) -> list[int]:
    found, todo = [], [pid]
    while todo:
        current = todo.pop()
        try:
            for task in os.listdir(f"/proc/{current}/task"):
                with open(f"/proc/{current}/task/{task}/children", encoding="ascii") as fh:
                    children = [int(child) for child in fh.read().split()]
                found.extend(children)
                todo.extend(children)
        except (FileNotFoundError, ProcessLookupError):
            continue  # exited between listing and reading
    return found


class PssPeakSampler:
    """Peak summed PSS of this process and its descendants, every 50 ms.

    PSS charges a page shared by ``k`` processes ``1/k`` to each, so pages
    a forked worker shares copy-on-write with the analysis process count
    once in the sum.
    """

    def __init__(self, interval: float = 0.05) -> None:
        self.peak = 0
        self._interval = interval
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _sample(self) -> None:
        pid = os.getpid()
        total = 0
        for proc in [pid, *_descendants(pid)]:
            try:
                total += _pss_bytes(proc)
            except (FileNotFoundError, ProcessLookupError, StopIteration):
                continue  # exited, or a zombie without memory counters
        self.peak = max(self.peak, total)

    def _run(self) -> None:
        self._sample()
        while not self._stop.wait(self._interval):
            self._sample()

    def __enter__(self) -> "PssPeakSampler":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()


def _findings(report) -> tuple:
    return (
        report.duplicate_groups,
        report.round_trip_groups,
        report.repeated_alloc_groups,
        report.unused_allocations,
        report.unused_transfers,
    )


def _engine_layer_metrics(engine_name: str, stats: dict) -> dict[str, float]:
    """Per-layer numbers the engines already count (worker side, recovery)."""
    if engine_name == "process":
        return {
            "core.pool.worker_fold_s": stats.get("fold_seconds", 0.0),
            "core.pool.worker_open_s": stats.get("open_seconds", 0.0),
            "core.pool.worker_map_s": stats.get("map_seconds", 0.0),
            "core.pool.worker_decode_s": stats.get("decode_seconds", 0.0),
        }
    if engine_name == "distributed":
        return {
            "core.distributed.requeued_n": stats.get("requeued", 0),
            "core.distributed.respawned_n": stats.get("respawned", 0),
            "core.distributed.speculative_n": stats.get("speculative_launches", 0),
            "core.distributed.debris_n": stats.get("debris_blobs", 0),
            "core.distributed.peak_unmerged_chains_n": stats.get("peak_unmerged_chains", 0),
        }
    return {}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--store", required=True)
    parser.add_argument("--engine", required=True)
    parser.add_argument("--jobs", type=int, required=True)
    parser.add_argument("--reference", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans-out", help="where a traced run writes its span list")
    args = parser.parse_args(argv)

    from repro.core.analysis import analyze_stream
    from repro.core.report import render_report
    from repro.events import load_trace, validate_stream

    recorder = span_dir = None
    if args.trace:
        import spans

        span_dir = tempfile.mkdtemp(prefix="spans-")
        recorder = spans.SpanRecorder(span_dir, origin_pid=os.getpid())
        spans.install(recorder)
        # Subprocess workers (the distributed engine's) inherit these and
        # install the same wrappers through hook/sitecustomize.py.
        os.environ[spans.SPAN_DIR_ENV] = span_dir
        os.environ["PYTHONPATH"] = os.pathsep.join(
            [str(HERE / "hook"), os.environ.get("PYTHONPATH", "")]
        )

    def span(name: str):
        return recorder.span(name) if recorder is not None else contextlib.nullcontext()

    result: dict = {"error": None, "match": False}
    report = None
    gc.collect()
    with PssPeakSampler() as sampler:
        started = perf_counter()
        try:
            store = load_trace(args.store)
            with span("events.validation.validate"):
                validate_stream(store)
            report = analyze_stream(store, engine=args.engine, jobs=args.jobs)
            with span("core.report.render"):
                text = render_report(report)
            seconds = perf_counter() - started
            result.update(seconds=seconds, events=len(store), report_chars=len(text))
        except Exception:  # noqa: BLE001 - a failed analysis is a counted error
            result["error"] = traceback.format_exc()
    # Both are lower bounds on the true peak: samples can miss a short
    # spike, and the analysis process's own high-water mark catches it
    # whenever that process alone holds the memory (always, when serial).
    result["peak_rss_mb"] = max(sampler.peak, _peak_rss_bytes()) / 2**20

    if recorder is not None and "seconds" in result:
        worker_spans, counters = spans.load_worker_spans(span_dir)
        own = [(recorder.pid, *done) for done in recorder.done]
        spans.merge_counters(counters, recorder.counters)
        layers = spans.layer_metrics(
            own + worker_spans, counters, (recorder.pid, threading.get_ident()), result["seconds"]
        )
        layers.update(_engine_layer_metrics(report.engine_name, report.engine_stats))
        result["layers"] = layers
        if args.spans_out:
            names = ("pid", "id", "parent", "name", "start", "end", "thread")
            Path(args.spans_out).write_text(
                json.dumps([dict(zip(names, record)) for record in own + worker_spans]),
                encoding="utf-8",
            )

    if report is not None:
        gc.disable()  # unpickling allocates ~10^5 objects that form no cycles
        with open(args.reference, "rb") as fh:
            reference = pickle.load(fh)
        result["match"] = _findings(report) == reference
        result["engine"] = report.engine_name
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    code = main()
    os._exit(code)  # skip tearing down a heap of findings nobody reads
