"""Algorithm 2: identify round-trip data transfers.

A round-trip data transfer occurs when device A sends data to device B and
later receives the same unmodified data back from device B (Definition 4.2).
Matching is content based: the return leg carries the same hash as the
outbound leg.

The implementation follows the paper's Algorithm 2: a map of received
transfers keyed by ``(hash, receiving device)`` holding queues in
chronological order; for every transfer event we check whether its *source*
device later receives the same hash, and we dequeue the outbound event from
the received map so that it cannot also be counted as the completion of some
other trip.  One guard is added on top of the published pseudocode: a
candidate return leg must *start after the outbound leg ended* — without it,
a pathological trace in which the same payload reaches a device twice before
ever travelling back could match a return leg that precedes its outbound
leg.  The guard can only remove false positives, never add matches.
"""

from __future__ import annotations

from collections import defaultdict, deque
from typing import Sequence

import numpy as np

from repro.core.detectors._streaming import (
    ColumnBuffer,
    StreamingPass,
    first_missing_hash_seq,
    run_streaming_pass,
)
from repro.core.detectors.finding_columns import ROUND_TRIPS, FindingColumns
from repro.core.detectors.findings import RoundTripGroup, RoundTripPair
from repro.events.columnar import ColumnarTrace
from repro.events.protocol import EventStream
from repro.events.records import DataOpEvent


def find_round_trips(
    data_op_events: Sequence[DataOpEvent],
    *,
    require_chronological: bool = True,
) -> list[RoundTripGroup]:
    """Find round-trip data transfers (Algorithm 2).

    Returns one :class:`RoundTripGroup` per ``(hash, initial device,
    intermediate device)`` triple, in the order the first trip of each group
    completed.
    """
    transfers = [e for e in data_op_events if e.is_transfer]
    for event in transfers:
        if event.content_hash is None:
            raise ValueError(f"transfer event seq={event.seq} is missing its content hash")

    # Map of received transfers: (hash, receiving device) -> queue of events.
    received: dict[tuple[int, int], deque[DataOpEvent]] = defaultdict(deque)
    for event in transfers:
        received[(event.content_hash, event.dest_device_num)].append(event)

    round_trips: dict[tuple[int, int, int], list[RoundTripPair]] = {}
    group_order: list[tuple[int, int, int]] = []

    for tx_event in transfers:
        rx_key = (tx_event.content_hash, tx_event.src_device_num)
        queue = received.get(rx_key)
        if not queue:
            # Not a round trip: the data never travels back to the sender.
            continue

        rx_event = queue[0]
        if require_chronological and rx_event.start_time < tx_event.end_time:
            # The oldest candidate return leg predates this outbound leg;
            # it cannot be the completion of this trip.
            continue

        trip_key = (
            tx_event.content_hash,
            tx_event.src_device_num,
            tx_event.dest_device_num,
        )
        if trip_key not in round_trips:
            round_trips[trip_key] = []
            group_order.append(trip_key)
        round_trips[trip_key].append(RoundTripPair(tx_event=tx_event, rx_event=rx_event))

        # Remove the outbound event from the received map so it is not later
        # counted as the completion of another transfer's round trip.
        tx_key = (tx_event.content_hash, tx_event.dest_device_num)
        tx_queue = received.get(tx_key)
        if tx_queue:
            tx_queue.popleft()

    groups: list[RoundTripGroup] = []
    for key in group_order:
        content_hash, src_device_num, dest_device_num = key
        groups.append(
            RoundTripGroup(
                content_hash=content_hash,
                src_device_num=src_device_num,
                dest_device_num=dest_device_num,
                trips=tuple(round_trips[key]),
            )
        )
    return groups


def find_round_trips_columnar(
    trace: ColumnarTrace,
    *,
    require_chronological: bool = True,
) -> list[RoundTripGroup]:
    """Vectorised Algorithm 2 over a columnar trace.

    The queue semantics of the object implementation (the reference oracle)
    are inherently sequential — a recorded trip pops the oldest receipt of
    its outbound key, which changes what later transfers can match — so the
    match loop itself cannot be replaced by array ops without changing the
    findings.  What *can* be vectorised is the work that dominates: the
    ``(hash, device)`` keys of all transfers are interned into integer ids
    with one ``np.unique`` pass, per-key receipt queues become slices of one
    argsort, and the Python loop then only visits *candidate* transfers —
    those whose payload is ever received back by their source device.  A
    transfer with no matching receipt key has no side effects in the object
    algorithm (no trip, no pop), so skipping it is exact; in realistic
    traces candidates are a small fraction of all transfers.
    """
    tr = np.flatnonzero(trace.transfer_mask())
    if tr.size == 0:
        return []
    missing = ~trace.do_has_content_hash[tr]
    if missing.any():
        seq = int(trace.do_seq[tr[np.flatnonzero(missing)[0]]])
        raise ValueError(f"transfer event seq={seq} is missing its content hash")

    group_order, round_trips = _match_trips(
        trace.do_content_hash[tr],
        trace.do_src_device_num[tr],
        trace.do_dest_device_num[tr],
        trace.do_start_time[tr],
        trace.do_end_time[tr],
        require_chronological=require_chronological,
    )

    # One bulk materialisation for every leg of every recorded trip.
    legs: list[int] = []
    for key in group_order:
        for i, j in round_trips[key]:
            legs.append(i)
            legs.append(j)
    events = trace.data_op_events_at(tr[np.asarray(legs, dtype=np.int64)])
    return _build_groups(group_order, round_trips, lambda cursor: events[cursor])


def _match_trips(
    hashes: np.ndarray,
    src: np.ndarray,
    dst: np.ndarray,
    start: np.ndarray,
    end: np.ndarray,
    *,
    require_chronological: bool,
) -> tuple[list[tuple[int, int, int]], dict[tuple[int, int, int], list[tuple[int, int]]]]:
    """The queue-matching core of Algorithm 2 over transfer leg arrays.

    Returns the trip-group keys in first-completion order and, per key, the
    recorded trips as ``(outbound, return)`` index pairs into the inputs.
    Shared by the columnar fast path (indices into the transfer subset) and
    the streaming variant (global positions).

    Only *candidate* transfers — those whose payload is ever received back
    by their source device — enter the Python loop, and only their columns
    are unboxed to lists; the full-width arrays (``start`` for arbitrary
    return legs, the receipt queue) stay NumPy, so memory stays O(transfers
    × 8 B) instead of O(transfers × boxed objects).
    """
    # Intern the (hash, device) keys: hashes are factorised once, devices
    # are small, so the composite is exact int64 arithmetic; one pooled
    # ``np.unique`` compacts the rx/tx key spaces together.
    _, hash_id = np.unique(hashes, return_inverse=True)
    width = int(max(int(src.max()), int(dst.max()))) + 1
    pooled = np.concatenate([
        hash_id * width + src.astype(np.int64),
        hash_id * width + dst.astype(np.int64),
    ])
    uniq, inv = np.unique(pooled, return_inverse=True)
    del pooled
    n = hashes.size
    rx_id, tx_id = inv[:n], inv[n:]
    num_keys = uniq.size

    # Receipt queues: for key k, positions queue_order[queue_start[k] + head].
    queue_order = np.argsort(tx_id, kind="stable")
    queue_len = np.bincount(tx_id, minlength=num_keys)
    queue_start = np.concatenate(([0], np.cumsum(queue_len)[:-1]))

    # A transfer is a candidate iff some receipt carries its (hash, src) key.
    candidates = np.flatnonzero((queue_len > 0)[rx_id])

    cand_end = end[candidates].tolist()
    cand_hash = hashes[candidates].tolist()
    cand_src = src[candidates].tolist()
    cand_dst = dst[candidates].tolist()
    cand_rx = rx_id[candidates].tolist()
    cand_tx = tx_id[candidates].tolist()
    qstart_list = queue_start.tolist()
    len_list = queue_len.tolist()
    heads = [0] * num_keys

    round_trips: dict[tuple[int, int, int], list[tuple[int, int]]] = {}
    group_order: list[tuple[int, int, int]] = []

    for k, i in enumerate(candidates.tolist()):
        rx_key = cand_rx[k]
        head = heads[rx_key]
        if head >= len_list[rx_key]:
            continue  # every receipt of this key has been consumed
        j = int(queue_order[qstart_list[rx_key] + head])
        if require_chronological and start[j] < cand_end[k]:
            continue

        trip_key = (cand_hash[k], cand_src[k], cand_dst[k])
        trips = round_trips.get(trip_key)
        if trips is None:
            trips = round_trips[trip_key] = []
            group_order.append(trip_key)
        trips.append((i, j))

        tx_key = cand_tx[k]
        if heads[tx_key] < len_list[tx_key]:
            heads[tx_key] += 1  # popleft: the outbound leg is consumed

    return group_order, round_trips


def _build_groups(group_order, round_trips, event_at) -> list[RoundTripGroup]:
    groups: list[RoundTripGroup] = []
    cursor = 0
    for key in group_order:
        content_hash, src_device_num, dest_device_num = key
        trips = []
        for _ in round_trips[key]:
            trips.append(
                RoundTripPair(tx_event=event_at(cursor), rx_event=event_at(cursor + 1))
            )
            cursor += 2
        groups.append(
            RoundTripGroup(
                content_hash=content_hash,
                src_device_num=src_device_num,
                dest_device_num=dest_device_num,
                trips=tuple(trips),
            )
        )
    return groups


class RoundTripPass(StreamingPass):
    """Incremental Algorithm 2: fold legs, match at finalize.

    A round trip's return leg typically arrives long after its outbound
    leg, and the queue semantics make *every* transfer a potential receipt
    for a later outbound leg — so the carry here is inherently the pending
    legs themselves.  They are folded shard by shard into six flat arrays
    (hash, devices, start/end, position): ~40 bytes per transfer and no
    Python objects, versus the full event record either batch path holds
    in memory.  The match loop runs once at finalize over the compact
    arrays, which returns the recorded trips as :class:`FindingColumns`.
    """

    def __init__(self, *, require_chronological: bool = True) -> None:
        self.require_chronological = require_chronological
        self._hash = ColumnBuffer()
        self._src = ColumnBuffer()
        self._dst = ColumnBuffer()
        self._start = ColumnBuffer()
        self._end = ColumnBuffer()
        self._gpos = ColumnBuffer()

    def fold(self, batch, offset: int) -> None:
        tr = np.flatnonzero(batch.transfer_mask())
        if tr.size == 0:
            return
        bad_seq = first_missing_hash_seq(batch, tr)
        if bad_seq is not None:
            raise ValueError(
                f"transfer event seq={bad_seq} is missing its content hash"
            )
        self._hash.append(batch.do_content_hash[tr])
        self._src.append(batch.do_src_device_num[tr])
        self._dst.append(batch.do_dest_device_num[tr])
        self._start.append(batch.do_start_time[tr])
        self._end.append(batch.do_end_time[tr])
        self._gpos.append(offset + tr)

    def merge(self, other: "RoundTripPass") -> None:
        """Join the pending legs of a pass folded over the following range.

        The carry *is* the pending legs (matching happens only at
        finalize), so merging is concatenation — this partition's legs
        precede ``other``'s chronologically, which is all the finalize-time
        queue matching needs.
        """
        self._hash.absorb(other._hash)
        self._src.absorb(other._src)
        self._dst.absorb(other._dst)
        self._start.absorb(other._start)
        self._end.absorb(other._end)
        self._gpos.absorb(other._gpos)

    def finalize(self, stream) -> FindingColumns:
        gpos = self._gpos.concat()
        if gpos.size == 0:
            group_order, round_trips = [], {}
        else:
            group_order, round_trips = _match_trips(
                self._hash.concat(),
                self._src.concat(),
                self._dst.concat(),
                self._start.concat(),
                self._end.concat(),
                require_chronological=self.require_chronological,
            )
        sizes = np.fromiter(
            (len(round_trips[key]) for key in group_order), dtype=np.int64,
            count=len(group_order),
        )
        offsets = np.zeros(sizes.size + 1, dtype=np.int64)
        np.cumsum(sizes, out=offsets[1:])
        legs = np.fromiter(
            (leg for key in group_order for trip in round_trips[key] for leg in trip),
            dtype=np.int64, count=2 * int(offsets[-1]),
        ).reshape(-1, 2)
        keys = np.array(group_order, dtype=np.uint64).reshape(-1, 3)
        return FindingColumns.gathered(
            ROUND_TRIPS,
            stream,
            offsets,
            gpos[legs[:, 0]],
            partner=gpos[legs[:, 1]],
            content_hash=keys[:, 0],
            src_device=keys[:, 1],
            device=keys[:, 2],
        )


def find_round_trips_streaming(
    stream: EventStream,
    *,
    require_chronological: bool = True,
) -> list[RoundTripGroup]:
    """Incremental Algorithm 2 over an event stream."""
    return run_streaming_pass(
        RoundTripPass(require_chronological=require_chronological), stream
    ).groups()


def count_round_trips(groups: Sequence[RoundTripGroup]) -> int:
    """Total number of completed round trips (the "RT" count of Table 1)."""
    return sum(g.num_trips for g in groups)
