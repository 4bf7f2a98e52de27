"""The benchmark's workloads: how each trace store is generated from a seed.

Every workload analyses a sharded trace store generated from the seed
alone; the analysis never sees the seed.  The reference findings come
from the object detectors (``find_*`` over ``as_object_trace``), the
repo's arbiter of correct findings.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass

import numpy as np

from repro.core.detectors import (
    find_duplicate_transfers,
    find_repeated_allocations,
    find_round_trips,
    find_unused_allocations,
    find_unused_transfers,
)
from repro.events import as_object_trace, shard_trace
from repro.events.hostile import make_hostile_trace, write_hostile_store
from repro.events.synth import make_synthetic_columnar_trace

SYNTH_EVENTS = 1_000_000
#: The synthetic generator has no RNG; the seed moves its size (and so
#: every shard cut) by up to this many events either way.
SYNTH_JITTER = 15_000
SYNTH_SHARD_EVENTS = 131_072
HOSTILE_EVENTS = 300_000


@dataclass(frozen=True)
class Workload:
    trace: str  # "synth" or "hostile"
    engine: str
    jobs: int


WORKLOADS = {
    "hostile_300k_process2": Workload("hostile", "process", 2),
    "synth_1m_distributed2": Workload("synth", "distributed", 2),
}


def generate(kind: str, seed: int):
    if kind == "synth":
        jitter = int(np.random.default_rng(seed).integers(-SYNTH_JITTER, SYNTH_JITTER + 1))
        return make_synthetic_columnar_trace(SYNTH_EVENTS + jitter)
    return make_hostile_trace(HOSTILE_EVENTS, seed=seed)


def write_store(kind: str, trace, path, seed: int):
    if kind == "synth":
        return shard_trace(trace, path, shard_events=SYNTH_SHARD_EVENTS)
    return write_hostile_store(trace, path, seed=seed)


def reference_findings(trace) -> tuple:
    """The object detectors' findings, in ``analyze_stream``'s pass order."""
    gc.disable()  # millions of event objects; nothing here forms cycles
    try:
        obj = as_object_trace(trace)
        data_ops, targets = obj.data_op_events, obj.target_events
        num_devices = max(obj.num_devices, 1)
        return (
            find_duplicate_transfers(data_ops),
            find_round_trips(data_ops),
            find_repeated_allocations(data_ops),
            find_unused_allocations(targets, data_ops, num_devices),
            find_unused_transfers(targets, data_ops, num_devices),
        )
    finally:
        gc.enable()
