"""Shared plumbing for the incremental (streaming) detector variants.

The ``find_*_streaming`` detectors fold one columnar batch at a time into
small carry state and never hold a whole trace.  The carries they share:

* :class:`GrowArray` / :class:`ColumnBuffer` — append-only NumPy storage
  (amortised doubling / chunk list) for per-device cursors and compact
  column captures.
* :class:`CompositeKeyCounter` — the streaming twin of
  :func:`repro.core.detectors._columns.group_rows_by_key`: a key table,
  sorted on one packed fixed-width key column and updated by
  ``searchsorted`` + insert, tracking per distinct composite key the
  cumulative member count, the smallest global position observed and
  that row's payload.
  Folding a batch reports which rows belong to keys that have reached the
  group threshold, which is all the duplicate/repeated-allocation
  detectors need to collect group members as positions (finalize returns
  them as position columns; no event objects are built).
* :class:`StreamingAllocPairer` — the streaming twin of
  :func:`repro.events.records.get_alloc_delete_pairs`: carries the open
  allocations across batch boundaries and emits completed
  (alloc, delete) position pairs as the deletes arrive.  The common case
  (no live device address re-allocated, which ``validate_trace`` enforces)
  is fully vectorised; nested allocations fall back to the exact
  stack-matching loop, permanently for the rest of the stream.

Positions are "gpos": the row index an event would have in the
concatenation of every batch's data-op columns (see
:mod:`repro.events.stream`).

Every carry here is additionally *partition-mergeable*: two instances
folded over adjacent gpos ranges combine losslessly into the instance a
single sequential fold would have produced (``CompositeKeyCounter.merge``
unions key tables and reports threshold promotions,
``StreamingAllocPairer.merge`` stitches open allocations to the pending
deletes of the later partition, ``DeviceKernels.merge`` rebases the later
partition's running-max cursor base).  The :class:`StreamingPass` subclasses
build their own ``merge`` on these, which is what lets the execution
engines (:mod:`repro.core.engine`) fold disjoint shard ranges on
independent workers and combine only small carry states.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np

from repro.events.columnar import CODE_ALLOC, CODE_DELETE, ColumnarTrace


class GrowArray:
    """A 1-D append-only NumPy array with amortised-doubling growth."""

    def __init__(self, dtype) -> None:
        self._dtype = np.dtype(dtype)
        self._arr = np.empty(16, dtype=self._dtype)
        self.size = 0

    def extend(self, values: np.ndarray) -> None:
        n = len(values)
        if n == 0:
            return
        needed = self.size + n
        if needed > self._arr.size:
            capacity = self._arr.size
            while capacity < needed:
                capacity *= 2
            fresh = np.empty(capacity, dtype=self._dtype)
            fresh[: self.size] = self._arr[: self.size]
            self._arr = fresh
        self._arr[self.size : needed] = values
        self.size = needed

    def view(self) -> np.ndarray:
        return self._arr[: self.size]


class DeviceKernels:
    """Per-device kernel cursor base: start times and running-max end times.

    Shared by the unused-allocation and unused-transfer passes: both decide
    "first kernel whose running-max end reaches t" with a ``searchsorted``
    over ``runmax`` and then compare against ``start``.
    """

    def __init__(self) -> None:
        self.start = GrowArray(np.float64)
        self.runmax = GrowArray(np.float64)
        self.last = -np.inf

    def extend(self, starts: np.ndarray, ends: np.ndarray) -> None:
        if len(starts) == 0:
            return
        run = np.maximum.accumulate(ends)
        np.maximum(run, self.last, out=run)
        self.last = float(run[-1])
        self.start.extend(starts)
        self.runmax.extend(run)

    def merge(self, other: "DeviceKernels") -> None:
        """Append ``other``'s kernels (a later contiguous time range).

        ``other`` folded its running maximum from scratch, so its cursor
        base is rebased onto this carry: every ``runmax`` entry is lifted
        to at least this partition's final running maximum, exactly what a
        sequential fold over both ranges would have produced.
        """
        if other.count == 0:
            return
        rebased = np.maximum(other.runmax.view(), self.last)
        self.start.extend(other.start.view())
        self.runmax.extend(rebased)
        self.last = float(rebased[-1])

    @property
    def count(self) -> int:
        return self.start.size


class ColumnBuffer:
    """Append-only column storage as a chunk list (concatenated on demand)."""

    def __init__(self) -> None:
        self._chunks: list[np.ndarray] = []
        self.size = 0

    def append(self, values: np.ndarray) -> None:
        if len(values):
            self._chunks.append(values)
            self.size += len(values)

    def absorb(self, other: "ColumnBuffer") -> None:
        """Append every chunk of ``other`` (which must not be reused)."""
        self._chunks.extend(other._chunks)
        self.size += other.size

    def concat(self, dtype=None) -> np.ndarray:
        if not self._chunks:
            return np.empty(0, dtype=dtype if dtype is not None else np.int64)
        return np.concatenate(self._chunks)


# --------------------------------------------------------------------- #
# Composite-key counting
# --------------------------------------------------------------------- #
@lru_cache(maxsize=None)
def _key_layout(dtypes: tuple[np.dtype, ...]) -> np.dtype:
    """The big-endian unsigned record one packed composite key occupies."""
    return np.dtype([(f"k{j}", f">u{dt.itemsize}") for j, dt in enumerate(dtypes)])


def _sign_bit(dt: np.dtype) -> np.unsignedinteger:
    return np.dtype(f"u{dt.itemsize}").type(1 << (8 * dt.itemsize - 1))


def _key_dtypes(cols: Sequence[np.ndarray]) -> tuple[np.dtype, ...]:
    """Native-order dtypes of integer key columns (the packing schema)."""
    dtypes = tuple(np.asarray(col).dtype.newbyteorder("=") for col in cols)
    for dt in dtypes:
        if dt.kind not in "biu":
            raise TypeError(f"composite key columns must be integers, got {dt}")
    return dtypes


def pack_keys(cols: Sequence[np.ndarray], dtypes: tuple[np.dtype, ...]) -> np.ndarray:
    """Pack composite keys into one fixed-width ``V{width}`` column.

    Each field is stored big-endian at its own width, with the sign bit
    flipped for signed fields, so comparing the packed bytes (what NumPy
    does for unstructured void) orders rows exactly like ``np.lexsort``
    over the key columns, first column most significant.
    """
    layout = _key_layout(dtypes)
    packed = np.empty(len(cols[0]), dtype=layout)
    for name, col, dt in zip(layout.names, cols, dtypes):
        col = np.asarray(col).astype(dt, casting="safe", copy=False)
        packed[name] = col.view(f"u{dt.itemsize}") ^ _sign_bit(dt) if dt.kind == "i" else col
    return packed.view(f"V{layout.itemsize}")


def unpack_keys(packed: np.ndarray, dtypes: tuple[np.dtype, ...]) -> tuple[np.ndarray, ...]:
    """Inverse of :func:`pack_keys`: the key columns in their own dtypes."""
    layout = _key_layout(dtypes)
    fields = packed.view(layout)
    cols = []
    for name, dt in zip(layout.names, dtypes):
        raw = fields[name].astype(f"u{dt.itemsize}")
        if dt.kind == "i":
            raw ^= _sign_bit(dt)
        cols.append(raw.view(dt))
    return tuple(cols)


def _spliced(table: np.ndarray, rows: np.ndarray, is_row: np.ndarray) -> np.ndarray:
    """``table`` with ``rows`` placed at the set slots of ``is_row``, in order."""
    out = np.empty(is_row.size, dtype=table.dtype)
    out[is_row] = rows
    out[~is_row] = table
    return out


@dataclass
class KeyFold:
    """Result of folding one batch of keyed rows (arrays per *batch* key)."""

    #: row index -> index into the per-batch unique-key arrays below
    inverse: np.ndarray
    #: members of each key seen before this batch
    prior_count: np.ndarray
    #: members of each key including this batch
    total_count: np.ndarray
    #: smallest gpos ever observed for the key (after this batch)
    first_gpos: np.ndarray
    #: payload of the row at ``first_gpos``
    first_payload: np.ndarray
    #: stable identifier assigned when the key was first seen (never changes
    #: across folds, unlike ``first_gpos`` when rows arrive out of gpos
    #: order — group membership must key on this)
    key_uid: np.ndarray
    #: ``first_gpos`` as it stood BEFORE this batch (the retained member a
    #: caller must recover when ``prior_count == 1``; meaningless where
    #: ``prior_count == 0``)
    prior_first_gpos: np.ndarray
    #: payload of the row at ``prior_first_gpos``
    prior_payload: np.ndarray
    #: one batch row holding the key (its batch-minimal gpos row), for
    #: recovering the key columns of a batch key
    representative: np.ndarray


@dataclass
class KeyMerge:
    """Result of merging two counters (:meth:`CompositeKeyCounter.merge`).

    Merging reassigns dense uids; the two maps translate each side's old
    uids (indexed by old uid, ``-1`` where unassigned) so member buffers
    keyed on uids can be remapped with one vectorised lookup.  The
    ``promoted_*`` arrays are the *retained singletons that crossed the
    group threshold because of the merge*: a key counted once on a side
    records no members (its single member lives in the table as
    ``first``/``payload``); when the union reaches two members, those
    retained rows must join the member set, exactly like the ``crossed``
    recovery inside :meth:`CompositeKeyCounter.fold`.  Promotions are in
    merged key order, this side's row before ``other``'s within a key.
    """

    uid_map_self: np.ndarray
    uid_map_other: np.ndarray
    promoted_gpos: np.ndarray
    promoted_payload: np.ndarray
    promoted_uid: np.ndarray
    #: key columns of the promoted rows (``()`` when nothing promoted)
    promoted_keys: tuple[np.ndarray, ...]


class CompositeKeyCounter:
    """Incremental composite-key statistics over a sorted packed-key table.

    Every composite key is packed into one fixed-width byte string whose
    byte order is the key tuple's order (:func:`pack_keys`), and the table
    keeps one sorted column of them.  A fold sorts only its batch, finds
    the batch's keys in the table with ``np.searchsorted``, updates the
    keys it finds in place and inserts the new ones: O(batch log keys)
    compares plus one move of the table, never a sort of it.

    Carry is O(distinct keys) at a few dozen bytes each — the same
    asymptotics as the object detectors' hash maps, but with no per-key
    Python objects.  The payload column (one int64 per key, e.g. a partner
    position) is only carried when a caller ever supplies one.
    """

    def __init__(self) -> None:
        #: sorted packed keys (``None`` until the first non-empty fold)
        self._key: Optional[np.ndarray] = None
        self._dtypes: tuple[np.dtype, ...] = ()
        self._count = np.empty(0, dtype=np.int64)
        self._first = np.empty(0, dtype=np.int64)
        self._uid = np.empty(0, dtype=np.int64)
        self._next_uid = 0
        self._payload: Optional[np.ndarray] = None

    @property
    def num_keys(self) -> int:
        return self._count.size

    def _lookup(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Insert positions of sorted unique ``keys`` and which are present."""
        pos = np.searchsorted(self._key, keys)
        hit = pos < self._key.size
        hit[hit] = self._key[pos[hit]] == keys[hit]
        return pos, hit

    def fold(
        self,
        cols: Sequence[np.ndarray],
        gpos: np.ndarray,
        payload: Optional[np.ndarray] = None,
    ) -> KeyFold:
        """Fold one batch of rows; ``cols`` are the composite key columns."""
        n = len(gpos)
        if n == 0:
            empty = np.empty(0, dtype=np.int64)
            return KeyFold(*(empty,) * 9)
        if self._key is None:
            self._dtypes = _key_dtypes(cols)
            self._key = np.empty(0, dtype=f"V{_key_layout(self._dtypes).itemsize}")
        if payload is not None and self._payload is None:
            self._payload = np.zeros(self._count.size, dtype=np.int64)
        track_payload = self._payload is not None

        # Batch-local uniques: sort by key columns, gpos as tiebreak, so the
        # first row of each run carries the batch-minimal gpos.
        order = np.lexsort((gpos, *reversed(cols)))
        keys = pack_keys(cols, self._dtypes)[order]
        boundary = np.ones(n, dtype=bool)
        boundary[1:] = keys[1:] != keys[:-1]
        starts = np.flatnonzero(boundary)
        inverse = np.empty(n, dtype=np.int64)
        inverse[order] = np.cumsum(boundary) - 1
        representative = order[starts]
        u_key = keys[starts]
        u_count = np.diff(np.append(starts, n))
        u_first = gpos[representative].astype(np.int64)
        u_payload = (
            np.zeros(starts.size, dtype=np.int64)
            if payload is None
            else payload[representative].astype(np.int64)
        )

        # Keys already in the table keep their uid and prior state; new
        # keys take fresh uids numbered by their batch position.
        pos, hit = self._lookup(u_key)
        at = pos[hit]
        prior_count = np.zeros(starts.size, dtype=np.int64)
        prior_count[hit] = self._count[at]
        prior_first = u_first.copy()
        prior_first[hit] = self._first[at]
        prior_payload = u_payload.copy()
        if track_payload:
            prior_payload[hit] = self._payload[at]
        uid = self._next_uid + np.arange(starts.size, dtype=np.int64)
        uid[hit] = self._uid[at]
        self._next_uid += starts.size

        # The payload follows whichever row holds the strictly smaller
        # first gpos; on a tie the table's row stays.
        total_count = prior_count + u_count
        first = np.minimum(prior_first, u_first)
        first_payload = np.where(u_first < prior_first, u_payload, prior_payload)

        self._count[at] = total_count[hit]
        self._first[at] = first[hit]
        if track_payload:
            self._payload[at] = first_payload[hit]
        fresh = np.flatnonzero(~hit)
        if fresh.size:
            # One insert of the new keys at their sorted positions.
            is_new = np.zeros(self._count.size + fresh.size, dtype=bool)
            is_new[pos[fresh] + np.arange(fresh.size)] = True
            self._key = _spliced(self._key, u_key[fresh], is_new)
            self._count = _spliced(self._count, u_count[fresh], is_new)
            self._first = _spliced(self._first, u_first[fresh], is_new)
            self._uid = _spliced(self._uid, uid[fresh], is_new)
            if track_payload:
                self._payload = _spliced(self._payload, u_payload[fresh], is_new)
        return KeyFold(
            inverse, prior_count, total_count, first, first_payload, uid,
            prior_first, prior_payload, representative,
        )

    def _empty_merge(self, num_other_uids: int) -> KeyMerge:
        empty = np.empty(0, dtype=np.int64)
        return KeyMerge(
            uid_map_self=np.arange(self._next_uid, dtype=np.int64),
            uid_map_other=np.arange(num_other_uids, dtype=np.int64),
            promoted_gpos=empty,
            promoted_payload=empty,
            promoted_uid=empty,
            promoted_keys=(),
        )

    def merge(self, other: "CompositeKeyCounter") -> KeyMerge:
        """Union ``other``'s key table into this one (both keep gpos global).

        The two counters must have folded *disjoint* row sets; which side
        folded the earlier range does not matter — counts add, first
        positions take the minimum, and the payload follows the entry with
        the strictly smaller first (this side's on a tie), so the merged
        table equals the sequential fold of both row sets in any order.
        Returns the uid translation maps and the threshold promotions (see
        :class:`KeyMerge`).  ``other`` must not be used afterwards: its
        arrays may be adopted and updated in place.
        """
        if other._key is None:
            return self._empty_merge(other._next_uid)
        if self._key is None:
            vars(self).update(vars(other))
            return self._empty_merge(other._next_uid)
        if other._dtypes != self._dtypes:
            raise TypeError(
                f"cannot merge key tables over {other._dtypes} into {self._dtypes}"
            )

        track = self._payload is not None or other._payload is not None
        n_s, n_o = self._count.size, other._count.size
        s_payload = self._payload if self._payload is not None else np.zeros(n_s, np.int64)
        o_payload = other._payload if other._payload is not None else np.zeros(n_o, np.int64)

        # Other's keys present here update their row; the rest insert.
        pos, hit = self._lookup(other._key)
        at = pos[hit]
        fresh = ~hit
        merged = n_s + np.count_nonzero(fresh)
        # Merged index of every row of either side (the dense fresh uids).
        is_other = np.zeros(merged, dtype=bool)
        is_other[pos[fresh] + np.arange(merged - n_s)] = True
        run_self = np.flatnonzero(~is_other)
        run_other = np.empty(n_o, dtype=np.int64)
        run_other[hit] = run_self[at]
        run_other[fresh] = np.flatnonzero(is_other)

        uid_map_self = np.full(self._next_uid, -1, dtype=np.int64)
        uid_map_self[self._uid] = run_self
        uid_map_other = np.full(other._next_uid, -1, dtype=np.int64)
        uid_map_other[other._uid] = run_other

        # Only keys on both sides can promote: a side's retained singleton
        # joins the member set once the union holds two or more members.
        pair_first = np.stack([self._first[at], other._first[hit]], axis=1)
        pair_payload = np.stack([s_payload[at], o_payload[hit]], axis=1)
        promote = np.stack([self._count[at] == 1, other._count[hit] == 1], axis=1)
        promoted_rows = np.repeat(np.flatnonzero(hit), promote.sum(axis=1))
        result = KeyMerge(
            uid_map_self=uid_map_self,
            uid_map_other=uid_map_other,
            promoted_gpos=pair_first[promote],
            promoted_payload=pair_payload[promote],
            promoted_uid=run_other[promoted_rows],
            promoted_keys=(
                unpack_keys(other._key[promoted_rows], self._dtypes)
                if promoted_rows.size else ()
            ),
        )

        self._count[at] += other._count[hit]
        self._first[at] = pair_first.min(axis=1)
        s_payload[at] = np.where(
            pair_first[:, 1] < pair_first[:, 0], pair_payload[:, 1], pair_payload[:, 0]
        )
        self._key = _spliced(self._key, other._key[fresh], is_other)
        self._count = _spliced(self._count, other._count[fresh], is_other)
        self._first = _spliced(self._first, other._first[fresh], is_other)
        self._payload = _spliced(s_payload, o_payload[fresh], is_other) if track else None
        self._uid = np.arange(merged, dtype=np.int64)
        self._next_uid = merged
        return result


def merge_uid_buffers(
    km: KeyMerge, mine: ColumnBuffer, theirs: ColumnBuffer
) -> ColumnBuffer:
    """Combine two member-uid buffers through a merge's translation maps.

    Used by the counter-based passes: members recorded on each side
    reference that side's old uids, which the :class:`KeyMerge` maps to the
    merged table's dense uids; the promoted retained singletons join with
    their (already merged) uids.
    """
    out = ColumnBuffer()
    own = mine.concat()
    if own.size:
        out.append(km.uid_map_self[own])
    other = theirs.concat()
    if other.size:
        out.append(km.uid_map_other[other])
    out.append(km.promoted_uid)
    return out


# --------------------------------------------------------------------- #
# Streaming alloc/delete pairing
# --------------------------------------------------------------------- #
@dataclass
class PairBatch:
    """Completed (or, at finalize, still-open) allocation pairs."""

    alloc_gpos: np.ndarray
    #: aligned delete positions; -1 when the allocation was never deleted
    delete_gpos: np.ndarray
    #: captured alloc-side columns, keyed by column name
    alloc: dict[str, np.ndarray] = field(default_factory=dict)
    #: captured delete-side columns (empty arrays where delete_gpos == -1)
    delete: dict[str, np.ndarray] = field(default_factory=dict)

    @property
    def size(self) -> int:
        return self.alloc_gpos.size


class StreamingAllocPairer:
    """Pairs ALLOC/DELETE events across batches with O(open allocs) carry.

    Deletes that match no open allocation are retained as *pending deletes*
    (gpos, key and captured delete columns, in chronological order).  A
    pairer folding from the start of the trace never completes them — the
    sequential oracle drops such deletes — but a pairer folding a later
    partition sees one for every allocation opened before its range, and
    :meth:`merge` stitches them to the earlier partition's open stack.
    """

    def __init__(
        self,
        alloc_cols: Sequence[str] = (),
        delete_cols: Sequence[str] = (),
    ) -> None:
        self.alloc_cols = tuple(alloc_cols)
        self.delete_cols = tuple(delete_cols)
        #: (device, address) -> stack of (gpos, {col: value}) for open allocs
        self._open: dict[tuple[int, int], list[tuple[int, dict]]] = {}
        #: chronological (gpos, key, {col: value}) of unmatched deletes
        self._pending_deletes: list[tuple[int, tuple[int, int], dict]] = []
        self._vectorized = True
        self._dtypes: dict[str, np.dtype] = {}

    @property
    def num_open(self) -> int:
        return sum(len(stack) for stack in self._open.values())

    @property
    def num_pending_deletes(self) -> int:
        return len(self._pending_deletes)

    def _empty_batch(self) -> PairBatch:
        return PairBatch(
            alloc_gpos=np.empty(0, dtype=np.int64),
            delete_gpos=np.empty(0, dtype=np.int64),
            alloc={c: np.empty(0, dtype=self._dtypes.get(c)) for c in self.alloc_cols},
            delete={c: np.empty(0, dtype=self._dtypes.get(c)) for c in self.delete_cols},
        )

    def fold(self, batch: ColumnarTrace, offset: int) -> PairBatch:
        """Feed one batch; returns the pairs whose DELETE landed in it."""
        kind = batch.do_kind
        sel = np.flatnonzero((kind == CODE_ALLOC) | (kind == CODE_DELETE))
        for col in self.alloc_cols + self.delete_cols:
            self._dtypes.setdefault(col, batch.do_column(col).dtype)
        if sel.size == 0:
            return self._empty_batch()

        is_alloc = kind[sel] == CODE_ALLOC
        dev = batch.do_dest_device_num[sel]
        addr = batch.do_dest_addr[sel]
        gpos = offset + sel

        if self._vectorized:
            result = self._fold_vectorized(batch, sel, is_alloc, dev, addr, gpos)
            if result is not None:
                return result
            self._vectorized = False  # nesting detected: exact stacks from now on
        return self._fold_stacks(batch, sel, is_alloc, dev, addr, gpos)

    # -- vectorised path (alternation holds per (device, address) key) --- #
    def _fold_vectorized(self, batch, sel, is_alloc, dev, addr, gpos):
        if any(len(stack) > 1 for stack in self._open.values()):
            return None
        carry_items = [
            (key, stack[0]) for key, stack in self._open.items() if stack
        ]
        k = len(carry_items)
        n = sel.size
        c_dev = np.concatenate([
            np.array([key[0] for key, _ in carry_items], dtype=dev.dtype),
            dev,
        ])
        c_addr = np.concatenate([
            np.array([key[1] for key, _ in carry_items], dtype=addr.dtype),
            addr,
        ])
        c_alloc = np.concatenate([np.ones(k, dtype=bool), is_alloc])
        c_pos = np.concatenate([
            np.arange(-k, 0, dtype=np.int64),
            np.arange(n, dtype=np.int64),
        ])
        c_gpos = np.concatenate([
            np.array([entry[0] for _, entry in carry_items], dtype=np.int64),
            gpos,
        ])

        order = np.lexsort((c_pos, c_addr, c_dev))
        dev_s, addr_s = c_dev[order], c_addr[order]
        alloc_s = c_alloc[order]
        same_key = np.empty(order.size, dtype=bool)
        same_key[0] = False
        same_key[1:] = (dev_s[1:] == dev_s[:-1]) & (addr_s[1:] == addr_s[:-1])
        if np.any(same_key[1:] & alloc_s[1:] & alloc_s[:-1]):
            return None  # nested allocation: exact stack semantics needed

        pair_at = np.flatnonzero(same_key[1:] & alloc_s[:-1] & ~alloc_s[1:])
        alloc_side = order[pair_at]
        delete_side = order[pair_at + 1]

        # Capture the alloc-side columns, mixing carried values and batch rows.
        alloc_values: dict[str, np.ndarray] = {}
        for col in self.alloc_cols:
            batch_col = batch.do_column(col)[sel]
            carried = np.array(
                [entry[1][col] for _, entry in carry_items], dtype=batch_col.dtype
            )
            alloc_values[col] = np.concatenate([carried, batch_col])
        delete_local = c_pos[delete_side]  # always >= 0: deletes are batch rows

        delete_batch_cols = {
            col: batch.do_column(col)[sel] for col in self.delete_cols
        }
        result = PairBatch(
            alloc_gpos=c_gpos[alloc_side],
            delete_gpos=gpos[delete_local],
            alloc={col: alloc_values[col][alloc_side] for col in self.alloc_cols},
            delete={
                col: delete_batch_cols[col][delete_local]
                for col in self.delete_cols
            },
        )

        # Rebuild the open-alloc carry: every alloc entry not paired above.
        paired = np.zeros(order.size, dtype=bool)
        paired[alloc_side] = True
        open_entries = np.flatnonzero(c_alloc & ~paired)
        self._open = {}
        for entry_index in open_entries.tolist():
            key = (int(c_dev[entry_index]), int(c_addr[entry_index]))
            values = {
                col: alloc_values[col][entry_index] for col in self.alloc_cols
            }
            self._open[key] = [(int(c_gpos[entry_index]), values)]

        # Deletes that matched nothing stay pending for a possible merge
        # with an earlier partition (flatnonzero ascends in entry index,
        # and batch entries are gpos-ordered, so order stays chronological).
        paired[delete_side] = True
        for entry_index in np.flatnonzero(~c_alloc & ~paired).tolist():
            local = int(c_pos[entry_index])
            key = (int(c_dev[entry_index]), int(c_addr[entry_index]))
            values = {
                col: delete_batch_cols[col][local] for col in self.delete_cols
            }
            self._pending_deletes.append((int(c_gpos[entry_index]), key, values))
        return result

    # -- exact stack semantics (nested allocations) ---------------------- #
    def _fold_stacks(self, batch, sel, is_alloc, dev, addr, gpos):
        alloc_cols = {c: batch.do_column(c)[sel] for c in self.alloc_cols}
        delete_cols = {c: batch.do_column(c)[sel] for c in self.delete_cols}
        out_alloc_gpos: list[int] = []
        out_delete_gpos: list[int] = []
        out_alloc_vals: dict[str, list] = {c: [] for c in self.alloc_cols}
        out_delete_vals: dict[str, list] = {c: [] for c in self.delete_cols}
        dev_l, addr_l = dev.tolist(), addr.tolist()
        alloc_l, gpos_l = is_alloc.tolist(), gpos.tolist()
        for i in range(sel.size):
            key = (dev_l[i], addr_l[i])
            if alloc_l[i]:
                values = {c: alloc_cols[c][i] for c in self.alloc_cols}
                self._open.setdefault(key, []).append((gpos_l[i], values))
            else:
                stack = self._open.get(key)
                if not stack:
                    self._pending_deletes.append((
                        gpos_l[i],
                        key,
                        {c: delete_cols[c][i] for c in self.delete_cols},
                    ))
                    continue
                a_gpos, values = stack.pop()
                out_alloc_gpos.append(a_gpos)
                out_delete_gpos.append(gpos_l[i])
                for c in self.alloc_cols:
                    out_alloc_vals[c].append(values[c])
                for c in self.delete_cols:
                    out_delete_vals[c].append(delete_cols[c][i])
        return PairBatch(
            alloc_gpos=np.array(out_alloc_gpos, dtype=np.int64),
            delete_gpos=np.array(out_delete_gpos, dtype=np.int64),
            alloc={
                c: np.array(out_alloc_vals[c], dtype=self._dtypes[c])
                for c in self.alloc_cols
            },
            delete={
                c: np.array(out_delete_vals[c], dtype=self._dtypes[c])
                for c in self.delete_cols
            },
        )

    def merge(self, other: "StreamingAllocPairer") -> PairBatch:
        """Stitch ``other`` (folded over a strictly later gpos range) in.

        ``other``'s pending deletes are matched, chronologically, against
        this carry's open stacks (LIFO, exactly the sequential pop order);
        the completed pairs are returned so the caller can count them.
        What remains open or pending in either side carries over —
        ``other``'s opens are pushed *on top* of this side's stacks, since
        they are more recent.  ``other`` must not be reused afterwards.
        """
        self._dtypes.update(other._dtypes)
        out_alloc_gpos: list[int] = []
        out_delete_gpos: list[int] = []
        out_alloc_vals: dict[str, list] = {c: [] for c in self.alloc_cols}
        out_delete_vals: dict[str, list] = {c: [] for c in self.delete_cols}
        still_pending: list[tuple[int, tuple[int, int], dict]] = []
        for d_gpos, key, d_values in other._pending_deletes:
            stack = self._open.get(key)
            if not stack:
                still_pending.append((d_gpos, key, d_values))
                continue
            a_gpos, a_values = stack.pop()
            out_alloc_gpos.append(a_gpos)
            out_delete_gpos.append(d_gpos)
            for c in self.alloc_cols:
                out_alloc_vals[c].append(a_values[c])
            for c in self.delete_cols:
                out_delete_vals[c].append(d_values[c])
        for key, stack in other._open.items():
            if stack:
                self._open.setdefault(key, []).extend(stack)
        self._pending_deletes.extend(still_pending)
        self._vectorized = (
            self._vectorized
            and other._vectorized
            and all(len(stack) <= 1 for stack in self._open.values())
        )
        return PairBatch(
            alloc_gpos=np.array(out_alloc_gpos, dtype=np.int64),
            delete_gpos=np.array(out_delete_gpos, dtype=np.int64),
            alloc={
                c: np.array(out_alloc_vals[c], dtype=self._dtypes.get(c))
                for c in self.alloc_cols
            },
            delete={
                c: np.array(out_delete_vals[c], dtype=self._dtypes.get(c))
                for c in self.delete_cols
            },
        )

    def finalize(self) -> PairBatch:
        """The allocations still open at end of stream (delete_gpos == -1)."""
        entries: list[tuple[int, dict]] = []
        for stack in self._open.values():
            entries.extend(stack)
        entries.sort(key=lambda e: e[0])
        out = PairBatch(
            alloc_gpos=np.array([e[0] for e in entries], dtype=np.int64),
            delete_gpos=np.full(len(entries), -1, dtype=np.int64),
            alloc={
                c: np.array([e[1][c] for e in entries], dtype=self._dtypes.get(c))
                for c in self.alloc_cols
            },
            delete={
                c: np.empty(0, dtype=self._dtypes.get(c)) for c in self.delete_cols
            },
        )
        return out


class StreamingPass:
    """One detector's incremental half: fold batches, merge, finalize.

    ``fold`` consumes one columnar batch (with the global data-op row
    offset of its first row) and updates the carry; ``finalize`` closes the
    carry and returns the findings as
    :class:`~repro.core.detectors.finding_columns.FindingColumns` — it
    re-scans only the shards that contain finding rows, to gather the few
    event fields a report needs.  A pass instance is single-use.

    Passes are *partition-mergeable*: ``a.merge(b)``, where ``a`` folded an
    earlier contiguous batch range and ``b`` the immediately following one,
    leaves ``a`` holding the carry a single sequential fold over both
    ranges would have produced (``b`` must not be reused).  The execution
    engines fold disjoint shard ranges on independent workers and merge
    the carries left to right.

    ``eager`` controls whether a pass may *classify* events against carry
    state that is only correct from the start of the stream (the
    kernel-cursor verdicts of the two unused-pattern passes).  The default
    ``True`` is right for a sequential fold over the whole stream; a pass
    folding a partition that does not start at the stream head MUST run
    with ``eager=False`` — it defers classification by buffering, and the
    deferred work happens when the carry is merged into an earlier one (or
    at finalize).  Order-insensitive passes ignore the flag.
    """

    #: classify eagerly during folds (only valid from the stream head)
    eager: bool = True

    def fold(self, batch: ColumnarTrace, offset: int) -> None:
        raise NotImplementedError

    def merge(self, other: "StreamingPass") -> None:
        raise NotImplementedError

    def finalize(self, stream):
        raise NotImplementedError


def run_streaming_pass(pass_: StreamingPass, stream):
    """Drive one pass over a stream and return its finding columns."""
    offset = 0
    for batch in stream.batches():
        pass_.fold(batch, offset)
        offset += batch.num_data_op_events
    return pass_.finalize(stream)


def run_streaming_passes(passes: Sequence[StreamingPass], stream, *, jobs: int = 1) -> list:
    """Drive several passes over ONE scan of the stream.

    Each shard is loaded once and handed to every pass — the single-pass,
    multi-fold shape of the streaming pipeline.  With ``jobs > 1`` the scan
    becomes a two-stage pipeline: a prefetch thread decodes the next shard
    while the folds consume the current one (decode releases the GIL), and
    the finalizes — whose targeted gather scans are independent —
    run concurrently on a thread pool.
    """
    if jobs < 1:
        raise ValueError("jobs must be at least 1")
    offset = 0
    if jobs == 1:
        for batch in stream.batches():
            for pass_ in passes:
                pass_.fold(batch, offset)
            offset += batch.num_data_op_events
        return [pass_.finalize(stream) for pass_ in passes]

    from concurrent.futures import ThreadPoolExecutor

    from repro.events.stream import prefetch_batches

    for batch in prefetch_batches(stream, depth=min(jobs, 4)):
        for pass_ in passes:
            pass_.fold(batch, offset)
        offset += batch.num_data_op_events
    with ThreadPoolExecutor(max_workers=min(jobs, len(passes))) as pool:
        futures = [pool.submit(pass_.finalize, stream) for pass_ in passes]
        return [future.result() for future in futures]


def first_missing_hash_seq(batch: ColumnarTrace, idx: np.ndarray) -> Optional[int]:
    """Sequence number of the first selected transfer without a hash, if any."""
    missing = ~batch.do_has_content_hash[idx]
    if missing.any():
        return int(batch.do_seq[idx[np.flatnonzero(missing)[0]]])
    return None
