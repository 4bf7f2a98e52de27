"""Algorithm 1: identify duplicate data transfers.

A duplicate data transfer occurs when a device (or the host) receives data
it had previously received (Definition 4.1).  Detection is content based:
transfers are grouped by ``(content hash, destination device)`` and any group
with two or more members is a duplicate group.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Sequence

import numpy as np

from repro.core.detectors._columns import group_rows_by_key
from repro.core.detectors._streaming import (
    ColumnBuffer,
    CompositeKeyCounter,
    StreamingPass,
    first_missing_hash_seq,
    merge_uid_buffers,
    run_streaming_pass,
)
from repro.core.detectors.finding_columns import DUPLICATES, FindingColumns, group_members
from repro.core.detectors.findings import DuplicateTransferGroup
from repro.events.columnar import ColumnarTrace
from repro.events.protocol import EventStream
from repro.events.records import DataOpEvent


def find_duplicate_transfers(
    data_op_events: Sequence[DataOpEvent],
    *,
    min_bytes: int = 0,
) -> list[DuplicateTransferGroup]:
    """Find duplicate data transfers (Algorithm 1).

    Parameters
    ----------
    data_op_events:
        Data-operation events in chronological order (non-transfer events
        are ignored).
    min_bytes:
        Ignore transfers smaller than this many bytes.  The paper's tool
        reports everything; the threshold exists so callers can filter the
        scalar-sized noise when exploring large traces interactively.

    Returns
    -------
    One :class:`DuplicateTransferGroup` per ``(hash, destination device)``
    pair that received the same payload at least twice, ordered by the first
    receipt.
    """
    if min_bytes < 0:
        raise ValueError("min_bytes cannot be negative")

    received: dict[tuple[int, int], list[DataOpEvent]] = defaultdict(list)
    first_seen_order: list[tuple[int, int]] = []

    for event in data_op_events:
        if not event.is_transfer or event.nbytes < min_bytes:
            continue
        if event.content_hash is None:
            raise ValueError(f"transfer event seq={event.seq} is missing its content hash")
        key = (event.content_hash, event.dest_device_num)
        if key not in received:
            first_seen_order.append(key)
        received[key].append(event)

    groups: list[DuplicateTransferGroup] = []
    for key in first_seen_order:
        events = received[key]
        if len(events) < 2:
            continue
        content_hash, dest_device_num = key
        groups.append(
            DuplicateTransferGroup(
                content_hash=content_hash,
                dest_device_num=dest_device_num,
                events=tuple(events),
            )
        )
    return groups


def find_duplicate_transfers_columnar(
    trace: ColumnarTrace,
    *,
    min_bytes: int = 0,
) -> list[DuplicateTransferGroup]:
    """Vectorised Algorithm 1 over a columnar trace.

    Produces findings identical to :func:`find_duplicate_transfers` run over
    the object events (the object implementation is the reference oracle):
    the grouping is a masked select plus one ``np.unique`` pass, and object
    events are materialised only for the rows that appear in findings.
    """
    if min_bytes < 0:
        raise ValueError("min_bytes cannot be negative")

    mask = trace.transfer_mask()
    if min_bytes:
        mask &= trace.do_nbytes >= min_bytes
    idx = np.flatnonzero(mask)
    if idx.size == 0:
        return []

    missing = ~trace.do_has_content_hash[idx]
    if missing.any():
        seq = int(trace.do_seq[idx[np.flatnonzero(missing)[0]]])
        raise ValueError(f"transfer event seq={seq} is missing its content hash")

    hashes = trace.do_content_hash[idx]
    dests = trace.do_dest_device_num[idx]
    member_lists = list(group_rows_by_key(hashes, dests, min_size=2))
    if not member_lists:
        return []
    # One bulk materialisation for every event implicated in any group.
    flat_rows = idx[np.concatenate(member_lists)]
    events = trace.data_op_events_at(flat_rows)
    groups: list[DuplicateTransferGroup] = []
    offset = 0
    for members in member_lists:
        group_events = tuple(events[offset : offset + members.size])
        offset += members.size
        groups.append(
            DuplicateTransferGroup(
                content_hash=int(hashes[members[0]]),
                dest_device_num=int(dests[members[0]]),
                events=group_events,
            )
        )
    return groups


class DuplicateTransferPass(StreamingPass):
    """Incremental Algorithm 1: fold shards, finalize to finding columns.

    Findings are identical to the batch implementations.  Carry state is a
    :class:`CompositeKeyCounter` over ``(hash, destination device)`` —
    count and first position per distinct key, the streaming analogue of
    the native tool's hash map — plus the positions of members of keys
    that reached the group threshold (O(findings)).  When a key crosses
    from one member to two, its retained first position is pulled into the
    member set, so no rescan is needed for counting.  Finalize returns
    the groups as :class:`FindingColumns`.
    """

    def __init__(self, *, min_bytes: int = 0) -> None:
        if min_bytes < 0:
            raise ValueError("min_bytes cannot be negative")
        self.min_bytes = min_bytes
        self._counter = CompositeKeyCounter()
        self._gpos = ColumnBuffer()
        self._group = ColumnBuffer()  # stable uid of the member's key
        self._hash = ColumnBuffer()
        self._dest = ColumnBuffer()

    def fold(self, batch, offset: int) -> None:
        mask = batch.transfer_mask()
        if self.min_bytes:
            mask &= batch.do_nbytes >= self.min_bytes
        idx = np.flatnonzero(mask)
        if idx.size == 0:
            return
        bad_seq = first_missing_hash_seq(batch, idx)
        if bad_seq is not None:
            raise ValueError(
                f"transfer event seq={bad_seq} is missing its content hash"
            )
        hashes = batch.do_content_hash[idx]
        dests = batch.do_dest_device_num[idx]
        gpos = offset + idx
        fold = self._counter.fold((hashes, dests), gpos)

        qualified = fold.total_count[fold.inverse] >= 2
        if qualified.any():
            self._gpos.append(gpos[qualified])
            self._group.append(fold.key_uid[fold.inverse][qualified])
            self._hash.append(hashes[qualified])
            self._dest.append(dests[qualified])
        crossed = (fold.prior_count == 1) & (fold.total_count >= 2)
        if crossed.any():
            # The key's single retained member (counted while the key was
            # still a singleton) joins the group now.
            self._gpos.append(fold.prior_first_gpos[crossed])
            self._group.append(fold.key_uid[crossed])
            # recover the key columns from a batch member of the key
            representative = fold.representative[crossed]
            self._hash.append(hashes[representative])
            self._dest.append(dests[representative])

    def merge(self, other: "DuplicateTransferPass") -> None:
        """Absorb a pass folded over a disjoint row range.

        The key tables union (counts add, first positions take the
        minimum); members recorded on either side are kept with their uids
        remapped into the merged table, and keys whose two sides were both
        below the group threshold contribute their retained singletons as
        promoted members — the cross-partition analogue of the ``crossed``
        recovery in :meth:`fold`.  The carry is order-insensitive, so no
        ``eager`` distinction exists for this pass.
        """
        km = self._counter.merge(other._counter)
        self._group = merge_uid_buffers(km, self._group, other._group)
        self._gpos.absorb(other._gpos)
        self._hash.absorb(other._hash)
        self._dest.absorb(other._dest)
        if km.promoted_gpos.size:
            self._gpos.append(km.promoted_gpos)
            self._hash.append(km.promoted_keys[0])
            self._dest.append(km.promoted_keys[1])

    def finalize(self, stream) -> FindingColumns:
        # Members grouped by stable key uid, chronological inside each
        # group; groups in order of their first (earliest) member,
        # matching the oracle's first-occurrence ordering.
        all_gpos = self._gpos.concat()
        offsets, rows = group_members(all_gpos, self._group.concat())
        heads = rows[offsets[:-1]]
        return FindingColumns.gathered(
            DUPLICATES,
            stream,
            offsets,
            all_gpos[rows],
            content_hash=self._hash.concat()[heads],
            device=self._dest.concat()[heads],
        )


def find_duplicate_transfers_streaming(
    stream: EventStream,
    *,
    min_bytes: int = 0,
) -> list[DuplicateTransferGroup]:
    """Incremental Algorithm 1 over an event stream (one shard at a time)."""
    return run_streaming_pass(DuplicateTransferPass(min_bytes=min_bytes), stream).groups()


def count_redundant_transfers(groups: Sequence[DuplicateTransferGroup]) -> int:
    """Total number of redundant transfer events across all duplicate groups.

    This is the "DD" count reported in Table 1: every receipt beyond the
    first in each group.
    """
    return sum(g.num_redundant for g in groups)
