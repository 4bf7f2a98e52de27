"""Algorithm 3: identify repeated device memory allocations.

A repeated device memory allocation occurs when memory on a target device is
allocated, and subsequently deleted, more than once to accommodate the
mapping of the same variable (Definition 4.3).  Allocation/deletion events
are paired, then grouped by ``(host address, target device, allocation
size)``; the allocation size is part of the key to avoid conflating distinct
variables that happen to reuse the same host address over the program's
lifetime (Section 5.3).
"""

from __future__ import annotations

from collections import defaultdict
from typing import Sequence

import numpy as np

from repro.core.detectors._columns import alloc_delete_pair_rows, group_rows_by_key
from repro.core.detectors._streaming import (
    ColumnBuffer,
    CompositeKeyCounter,
    StreamingAllocPairer,
    StreamingPass,
    merge_uid_buffers,
    run_streaming_pass,
)
from repro.core.detectors.finding_columns import (
    REPEATED_ALLOCS,
    FindingColumns,
    group_members,
)
from repro.core.detectors.findings import RepeatedAllocationGroup
from repro.events.columnar import ColumnarTrace
from repro.events.protocol import EventStream
from repro.events.records import AllocationPair, DataOpEvent, get_alloc_delete_pairs


def find_repeated_allocations(
    data_op_events: Sequence[DataOpEvent],
    *,
    require_deletion: bool = True,
) -> list[RepeatedAllocationGroup]:
    """Find repeated device memory allocations (Algorithm 3).

    Parameters
    ----------
    data_op_events:
        Data-operation events in chronological order.
    require_deletion:
        Per Definition 4.3 an allocation only counts towards a repeat if it
        was also deleted (allocated *and subsequently deleted* more than
        once).  Setting this to ``False`` also counts a trailing allocation
        that is still live at program exit, which is occasionally useful when
        analysing truncated traces.

    Returns
    -------
    One :class:`RepeatedAllocationGroup` per ``(host address, device, size)``
    key with at least two qualifying allocations, ordered by first allocation.
    """
    pairs = get_alloc_delete_pairs(data_op_events)

    grouped: dict[tuple[int, int, int], list[AllocationPair]] = defaultdict(list)
    order: list[tuple[int, int, int]] = []
    for pair in pairs:
        if require_deletion and pair.delete_event is None:
            continue
        key = (pair.host_addr, pair.device_num, pair.nbytes)
        if key not in grouped:
            order.append(key)
        grouped[key].append(pair)

    groups: list[RepeatedAllocationGroup] = []
    for key in order:
        allocations = grouped[key]
        if len(allocations) < 2:
            continue
        host_addr, device_num, nbytes = key
        groups.append(
            RepeatedAllocationGroup(
                host_addr=host_addr,
                device_num=device_num,
                nbytes=nbytes,
                allocations=tuple(allocations),
            )
        )
    return groups


def find_repeated_allocations_columnar(
    trace: ColumnarTrace,
    *,
    require_deletion: bool = True,
) -> list[RepeatedAllocationGroup]:
    """Vectorised Algorithm 3 over a columnar trace.

    Findings are identical to :func:`find_repeated_allocations` over the
    object events (the reference oracle).  Alloc/delete pairing and the
    ``(host address, device, size)`` grouping both run as array passes;
    :class:`AllocationPair` objects are materialised only for the groups
    that qualify as repeats.
    """
    alloc_rows, delete_rows = alloc_delete_pair_rows(trace)
    if alloc_rows.size == 0:
        return []

    if require_deletion:
        keep = delete_rows >= 0
        alloc_rows = alloc_rows[keep]
        delete_rows = delete_rows[keep]
        if alloc_rows.size == 0:
            return []

    host_addr = trace.do_src_addr[alloc_rows]
    device = trace.do_dest_device_num[alloc_rows]
    nbytes = trace.do_nbytes[alloc_rows]

    member_lists = list(group_rows_by_key(host_addr, device, nbytes, min_size=2))
    if not member_lists:
        return []
    # One bulk materialisation for every pair implicated in any group.
    flat = np.concatenate(member_lists)
    alloc_events = trace.data_op_events_at(alloc_rows[flat])
    flat_deletes = delete_rows[flat]
    delete_events = iter(trace.data_op_events_at(flat_deletes[flat_deletes >= 0]))
    pairs = [
        AllocationPair(
            alloc_event=alloc_events[k],
            delete_event=next(delete_events) if flat_deletes[k] >= 0 else None,
        )
        for k in range(flat.size)
    ]

    groups: list[RepeatedAllocationGroup] = []
    offset = 0
    for members in member_lists:
        allocations = tuple(pairs[offset : offset + members.size])
        offset += members.size
        groups.append(
            RepeatedAllocationGroup(
                host_addr=int(host_addr[members[0]]),
                device_num=int(device[members[0]]),
                nbytes=int(nbytes[members[0]]),
                allocations=allocations,
            )
        )
    return groups


class RepeatedAllocationPass(StreamingPass):
    """Incremental Algorithm 3: fold pairs, finalize to finding columns.

    Carry state: the open allocations (a :class:`StreamingAllocPairer`,
    O(live mappings)) and a :class:`CompositeKeyCounter` over the
    ``(host address, device, size)`` mapping keys, holding count and first
    pair per key.  Completed pairs are counted as their deletes arrive;
    pairs of keys that reached two members are kept as position pairs
    (O(findings)), which finalize returns as :class:`FindingColumns`.
    """

    def __init__(self, *, require_deletion: bool = True) -> None:
        self.require_deletion = require_deletion
        self._pairer = StreamingAllocPairer(
            alloc_cols=("src_addr", "dest_device_num", "nbytes")
        )
        self._counter = CompositeKeyCounter()
        self._alloc = ColumnBuffer()
        self._delete = ColumnBuffer()
        self._group = ColumnBuffer()
        self._host = ColumnBuffer()
        self._dev = ColumnBuffer()
        self._nbytes = ColumnBuffer()

    def _count(self, pairs) -> None:
        if pairs.size == 0:
            return
        host = pairs.alloc["src_addr"]
        dev = pairs.alloc["dest_device_num"]
        nbytes = pairs.alloc["nbytes"]
        fold = self._counter.fold(
            (host, dev, nbytes), pairs.alloc_gpos, payload=pairs.delete_gpos
        )
        qualified = fold.total_count[fold.inverse] >= 2
        if qualified.any():
            self._alloc.append(pairs.alloc_gpos[qualified])
            self._delete.append(pairs.delete_gpos[qualified])
            self._group.append(fold.key_uid[fold.inverse][qualified])
            self._host.append(host[qualified])
            self._dev.append(dev[qualified])
            self._nbytes.append(nbytes[qualified])
        crossed = (fold.prior_count == 1) & (fold.total_count >= 2)
        if crossed.any():
            # Recover the key's single retained pair — the one counted
            # while the key was still a singleton (NOT the post-merge
            # minimum: pairs complete in delete order, so this batch's
            # pair may predate the retained one).
            self._alloc.append(fold.prior_first_gpos[crossed])
            self._delete.append(fold.prior_payload[crossed])
            self._group.append(fold.key_uid[crossed])
            representative = fold.representative[crossed]
            self._host.append(host[representative])
            self._dev.append(dev[representative])
            self._nbytes.append(nbytes[representative])

    def fold(self, batch, offset: int) -> None:
        self._count(self._pairer.fold(batch, offset))

    def merge(self, other: "RepeatedAllocationPass") -> None:
        """Absorb a pass folded over the immediately following row range.

        Allocations left open by this partition stitch to ``other``'s
        pending deletes first; the key tables then union (with uid
        remapping and retained-singleton promotion, as in the duplicate
        pass), and finally the stitched pairs — invisible to both sides'
        folds — are counted against the merged table, reusing the exact
        qualification/crossing logic of a normal fold.
        """
        stitched = self._pairer.merge(other._pairer)
        km = self._counter.merge(other._counter)
        self._group = merge_uid_buffers(km, self._group, other._group)
        self._alloc.absorb(other._alloc)
        self._delete.absorb(other._delete)
        self._host.absorb(other._host)
        self._dev.absorb(other._dev)
        self._nbytes.absorb(other._nbytes)
        if km.promoted_gpos.size:
            self._alloc.append(km.promoted_gpos)
            self._delete.append(km.promoted_payload)
            self._host.append(km.promoted_keys[0])
            self._dev.append(km.promoted_keys[1])
            self._nbytes.append(km.promoted_keys[2])
        self._count(stitched)

    def finalize(self, stream) -> FindingColumns:
        if not self.require_deletion:
            self._count(self._pairer.finalize())

        # Pairs grouped by stable key uid, alloc-ordered inside each group;
        # groups in order of their earliest counted pair, matching the
        # oracle's first-qualifying-pair ordering.
        alloc_gpos = self._alloc.concat()
        offsets, rows = group_members(alloc_gpos, self._group.concat())
        heads = rows[offsets[:-1]]
        return FindingColumns.gathered(
            REPEATED_ALLOCS,
            stream,
            offsets,
            alloc_gpos[rows],
            partner=self._delete.concat()[rows],
            host_addr=self._host.concat()[heads],
            device=self._dev.concat()[heads],
            nbytes=self._nbytes.concat()[heads],
        )


def find_repeated_allocations_streaming(
    stream: EventStream,
    *,
    require_deletion: bool = True,
) -> list[RepeatedAllocationGroup]:
    """Incremental Algorithm 3 over an event stream."""
    return run_streaming_pass(
        RepeatedAllocationPass(require_deletion=require_deletion), stream
    ).groups()


def count_redundant_allocations(groups: Sequence[RepeatedAllocationGroup]) -> int:
    """Total redundant allocations (the "RA" count of Table 1)."""
    return sum(g.num_redundant for g in groups)
