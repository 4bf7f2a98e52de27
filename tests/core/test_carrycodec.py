"""Property tests for the compact binary carry codec.

The carry codec replaces pickle on every parallel-engine wire: the warm
pool's result queue and the distributed queue's result blobs both carry
``encode_carries`` payloads.  Correctness therefore means *bit-identical
findings*: for any partition cut, folding partitions, shipping the
carries through the codec, merging and finalizing must produce exactly
what the pickle round-trip (and the serial path) produces — for all five
detectors at once.  Hypothesis drives the cut points: shard size and
worker count together determine where the trace is split, which decides
what lives in each carry (open allocations, pending transfers, partial
key-counter tables, device cursors).
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.analysis import analyze_stream
from repro.core.carrycodec import (
    CarryCodecError,
    decode_carries,
    decode_value,
    encode_carries,
    encode_value,
)
from repro.core.detectors.duplicates import DuplicateTransferPass
from repro.core.detectors.repeated_allocs import RepeatedAllocationPass
from repro.core.detectors.roundtrips import RoundTripPass
from repro.core.detectors.unused_allocs import UnusedAllocationPass
from repro.core.detectors.unused_transfers import UnusedTransferPass
from repro.core.engine import (
    PassSpec,
    _finalize_all,
    _fold_partition,
    _merge_partition_carries,
)
from repro.events.columnar import ColumnarTrace
from repro.events.stream import as_event_stream, partition_stream
from repro.events.synth import make_synthetic_columnar_trace

TRACE = make_synthetic_columnar_trace(900)


def _pass_specs(stream) -> tuple[PassSpec, ...]:
    num_devices = max(stream.num_devices, 1)
    return (
        PassSpec(DuplicateTransferPass),
        PassSpec(RoundTripPass),
        PassSpec(RepeatedAllocationPass),
        PassSpec(UnusedAllocationPass, {"num_devices": num_devices}),
        PassSpec(UnusedTransferPass, {"num_devices": num_devices}),
    )


@settings(max_examples=30, deadline=None)
@given(
    shard_events=st.integers(min_value=1, max_value=250),
    workers=st.integers(min_value=2, max_value=5),
)
def test_codec_round_trip_matches_pickle_path(shard_events, workers):
    """encode → decode → merge → finalize == the pickle path, bit for bit."""
    stream = as_event_stream(TRACE, shard_events)
    specs = _pass_specs(stream)
    partitions = partition_stream(stream, workers)
    if len(partitions) <= 1:
        return  # nothing crosses a wire for single-partition cuts

    chains_pickle = []
    chains_codec = []
    for partition in partitions:
        passes = _fold_partition(specs, partition)
        chains_pickle.append(pickle.loads(pickle.dumps(passes)))
        payload = encode_carries(passes)
        # Encode stability: re-encoding a decoded carry reproduces the
        # exact payload (no hidden state leaks into the wire format).
        assert encode_carries(decode_carries(payload)) == payload
        chains_codec.append(decode_carries(payload))

    via_pickle = _finalize_all(_merge_partition_carries(chains_pickle), stream, 1)
    via_codec = _finalize_all(_merge_partition_carries(chains_codec), stream, 1)
    assert via_codec == via_pickle

    # And both equal the engine-independent serial analysis.
    report = analyze_stream(as_event_stream(TRACE, shard_events))
    serial = [
        report.duplicate_groups,
        report.round_trip_groups,
        report.repeated_alloc_groups,
        report.unused_allocations,
        report.unused_transfers,
    ]
    assert via_codec == serial


_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**70), max_value=2**70),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=40),
    st.binary(max_size=40),
)
_VALUES = st.recursive(
    _SCALARS,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.dictionaries(st.text(max_size=10), children, max_size=5),
    ),
    max_leaves=25,
)


@settings(max_examples=200, deadline=None)
@given(_VALUES)
def test_value_round_trip_is_stable(value):
    """decode(encode(x)) re-encodes to the same bytes (NaN-safe equality)."""
    payload = encode_value(value)
    assert encode_value(decode_value(payload)) == payload


def test_numpy_values_round_trip_exactly():
    arr = np.arange(12, dtype=np.uint32).reshape(3, 4)
    out = decode_value(encode_value(arr))
    assert out.dtype == arr.dtype and out.shape == arr.shape
    assert (out == arr).all()
    assert out.flags.writeable  # carries are mutated by merge()

    empty = np.empty(0, dtype=np.float64)
    out = decode_value(encode_value(empty))
    assert out.dtype == empty.dtype and out.shape == (0,)

    scalar = np.float32(1.5)
    out = decode_value(encode_value(scalar))
    assert isinstance(out, np.float32) and out == scalar

    dtype = np.dtype("<i8")
    assert decode_value(encode_value(dtype)) == dtype


def test_codec_rejects_garbage():
    with pytest.raises(CarryCodecError):
        decode_carries(b"NOPE" + b"\x00" * 16)
    with pytest.raises(CarryCodecError):
        decode_value(encode_value(1) + b"\x00")  # trailing bytes
    with pytest.raises(CarryCodecError):
        encode_value(object())  # unregistered type never silently pickles


# --------------------------------------------------------------------- #
# Finding columns (what finalize ships back over the pool pipe)
# --------------------------------------------------------------------- #
BIG_HASH = 2**64 - 5  # above 2**63: only a uint64 column holds it


def _edge_case_trace():
    from tests.conftest import TraceBuilder

    b = TraceBuilder()
    b.alloc(0x100, 0xA000)
    b.h2d(0x100, 0xA000, content_hash=BIG_HASH, codeptr=2**63 + 1)
    b.h2d(0x100, 0xA000, content_hash=3)  # overwrites the first: "overwritten"
    b.kernel()
    b.h2d(0x100, 0xA000, content_hash=BIG_HASH)  # duplicate receipt
    b.kernel()
    b.idle(1e-5)
    b.h2d(0x100, 0xA000, content_hash=4)  # "after_last_kernel"
    b.delete(0x100, 0xA000)
    b.alloc(0x200, 0xB000)  # unused and never deleted: the -1 sentinel
    return b.build()


def _finalized_columns(trace):
    from repro.core.engine import SerialEngine

    stream = as_event_stream(ColumnarTrace.from_trace(trace), 2)
    return stream, SerialEngine().run(_pass_specs(stream), stream)


def test_finding_columns_round_trip_through_the_codec():
    from repro.core.analysis import analyze_trace
    from repro.core.detectors.finding_columns import FindingColumns

    trace = _edge_case_trace()
    stream, findings = _finalized_columns(trace)
    payload = encode_carries(findings)
    assert encode_carries(decode_carries(payload)) == payload
    decoded = decode_carries(payload)
    assert all(isinstance(columns, FindingColumns) for columns in decoded)
    assert decoded == findings

    duplicates, _, _, unused_allocs, unused_transfers = decoded
    hashes = duplicates.keys["content_hash"]
    assert hashes.dtype == np.uint64 and int(hashes[0]) == BIG_HASH
    assert duplicates.legs["codeptr"].dtype == np.uint64
    assert -1 in unused_allocs.partner.tolist()
    assert sorted(set(unused_transfers.keys["reason"].tolist())) == [0, 1]

    # Decoded columns carry no stream; bound to one, their views equal
    # the object reference findings.
    with pytest.raises(RuntimeError, match="bound to no stream"):
        duplicates.groups()
    reference = analyze_trace(trace)
    for columns in decoded:
        columns.bind(stream)
    assert decoded[0] == reference.duplicate_groups
    assert decoded[0].groups()[0].content_hash == BIG_HASH
    assert decoded[3] == reference.unused_allocations
    assert decoded[3].groups()[-1].pair.delete_event is None
    assert decoded[4] == reference.unused_transfers
    assert {f.reason for f in decoded[4].groups()} == {"overwritten", "after_last_kernel"}


def test_empty_finding_columns_round_trip_through_the_codec():
    from tests.conftest import TraceBuilder

    b = TraceBuilder()
    b.kernel()
    _, findings = _finalized_columns(b.build())
    payload = encode_carries(findings)
    decoded = decode_carries(payload)
    assert encode_carries(decoded) == payload
    assert decoded == findings
    for columns in decoded:
        assert len(columns) == 0 and columns.offsets.tolist() == [0]
        assert columns.groups() == []  # nothing to materialise, no stream needed
