"""Findings as position columns: what finalize returns and the report reads.

A streaming pass finalizes to one :class:`FindingColumns` per finding
class instead of a list of ``*Group`` dataclasses.  The layout is the list
layout of the Apache Arrow columnar format (no dependency): finding ``i``
owns the member slice ``offsets[i]:offsets[i + 1]`` of flat member columns

* ``gpos`` — the member's event as a global data-op row position: a
  receipt of a duplicate group, the outbound leg of a round trip, the
  allocation of an allocation pair, the unused transfer;
* ``partner`` — the member's second event where the class has one: the
  return leg of a round trip, the deletion of an allocation pair (``-1``
  for an allocation that was never deleted);
* ``legs`` / ``partner_legs`` — the few event fields the report needs,
  gathered at those positions during finalize (``seq``, ``kind``,
  ``nbytes``, ``duration``, ``codeptr``, ``has_codeptr``);

plus one ``keys`` column per finding attribute (content hash, devices,
host address, size, unused-transfer reason code).  Every column is a NumPy
array, so findings cross the process engine's pipe through the carry codec
instead of pickle.

:meth:`FindingColumns.rows` reduces the columns to a :class:`FindingRows`
table — per finding its wasted time, count, volume, device and the source
location of its representative event, plus the removable events in order —
which is all :class:`~repro.core.analysis.IssueCounts`,
:func:`~repro.core.potential.estimate_potential` and
:func:`~repro.core.report.render_report` read.  The reference detectors'
object findings enter the same table through
:meth:`FindingColumns.from_groups`, so every report has one estimator and
one renderer.

The ``*Group`` dataclasses survive as an on-demand view:
:meth:`FindingColumns.groups` builds them on first call through
:func:`~repro.events.stream.materialize_data_op_events` (one targeted
re-scan of the shards holding the findings) and caches the list.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.core.detectors.findings import (
    DuplicateTransferGroup,
    RepeatedAllocationGroup,
    RoundTripGroup,
    RoundTripPair,
    UnusedAllocation,
    UnusedTransfer,
)
from repro.events.columnar import _DATA_OP_CODE_OF, CODE_FROM_DEVICE, CODE_TO_DEVICE
from repro.events.records import AllocationPair
from repro.events.stream import gather_data_op_columns, materialize_data_op_events

DUPLICATES = "duplicates"
ROUND_TRIPS = "round_trips"
REPEATED_ALLOCS = "repeated_allocs"
UNUSED_ALLOCS = "unused_allocs"
UNUSED_TRANSFERS = "unused_transfers"

#: The finding classes, in the order the five passes run.
FINDING_CLASSES = (DUPLICATES, ROUND_TRIPS, REPEATED_ALLOCS, UNUSED_ALLOCS, UNUSED_TRANSFERS)

#: Unused-transfer reasons by their code in the ``reason`` key column.
REASONS = ("after_last_kernel", "overwritten")

#: Per-leg event fields and their dtypes.
LEG_DTYPES = {
    "seq": np.int64,
    "kind": np.int8,
    "nbytes": np.int64,
    "duration": np.float64,
    "codeptr": np.uint64,
    "has_codeptr": np.bool_,
}

#: Key columns per class and their dtypes; ``device`` is the device the
#: report prints (the destination of duplicates and round trips).
KEY_DTYPES = {
    DUPLICATES: {"content_hash": np.uint64, "device": np.int64},
    ROUND_TRIPS: {"content_hash": np.uint64, "src_device": np.int64, "device": np.int64},
    REPEATED_ALLOCS: {"host_addr": np.uint64, "device": np.int64, "nbytes": np.int64},
    UNUSED_ALLOCS: {"device": np.int64},
    UNUSED_TRANSFERS: {"device": np.int64, "reason": np.int8},
}

_REMOVABLE = ("seq", "kind", "nbytes", "duration")
_GATHERED = ("seq", "kind", "nbytes", "start_time", "end_time", "codeptr", "has_codeptr")

#: Segments up to this long are summed column by column across segments.
_SHORT_SEGMENT = 32


def segment_sums(values: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Left-to-right float sum of every ``values[offsets[i]:offsets[i + 1]]``.

    Each sum adds its elements one at a time in order, exactly like
    ``np.add.accumulate`` (pairwise reductions such as ``np.sum`` or
    ``np.add.reduceat`` round differently).  Short segments advance
    together, one element position per step; each long segment runs its
    own accumulate.
    """
    starts = offsets[:-1]
    lengths = np.diff(offsets)
    out = np.zeros(lengths.size, dtype=np.float64)
    active = np.flatnonzero(lengths <= _SHORT_SEGMENT)
    step = 0
    while active.size:
        active = active[lengths[active] > step]
        out[active] += values[starts[active] + step]
        step += 1
    for i in np.flatnonzero(lengths > _SHORT_SEGMENT).tolist():
        out[i] = np.add.accumulate(values[starts[i] : offsets[i + 1]])[-1]
    return out


def group_members(gpos: np.ndarray, uid: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Group member rows by key uid into ``(offsets, rows)``.

    ``rows`` indexes the inputs: members ascend by ``gpos`` inside each
    group, and groups follow the order of their earliest member — the
    first-occurrence order of the reference detectors.
    """
    if gpos.size == 0:
        return np.zeros(1, dtype=np.int64), np.zeros(0, dtype=np.int64)
    order = np.lexsort((gpos, uid))
    sorted_uid = uid[order]
    starts = np.flatnonzero(np.r_[True, sorted_uid[1:] != sorted_uid[:-1]])
    lengths = np.diff(np.r_[starts, order.size])
    rank = np.argsort(gpos[order[starts]], kind="stable")
    lengths = lengths[rank]
    offsets = np.zeros(rank.size + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    shift = np.repeat(starts[rank] - offsets[:-1], lengths)
    return offsets, order[np.arange(order.size) + shift]


def is_transfer_code(kind: np.ndarray) -> np.ndarray:
    return (kind == CODE_TO_DEVICE) | (kind == CODE_FROM_DEVICE)


def _take(legs: dict, index: np.ndarray, names=None) -> dict:
    return {name: legs[name][index] for name in (names or legs)}


def _legs_at(stream, gpos: np.ndarray) -> dict:
    cols = gather_data_op_columns(stream, gpos, _GATHERED)
    return {
        "seq": cols["seq"],
        "kind": cols["kind"],
        "nbytes": cols["nbytes"],
        "duration": cols["end_time"] - cols["start_time"],
        "codeptr": cols["codeptr"],
        "has_codeptr": cols["has_codeptr"],
    }


def _legs_of(events: Sequence) -> dict:
    """Leg fields of object events (``None`` entries are zero-filled)."""
    present = [e for e in events if e is not None]
    fields = {
        "seq": [e.seq for e in present],
        "kind": [_DATA_OP_CODE_OF[e.kind] for e in present],
        "nbytes": [e.nbytes for e in present],
        "duration": [e.duration for e in present],
        "codeptr": [e.codeptr or 0 for e in present],
        "has_codeptr": [e.codeptr is not None for e in present],
    }
    if len(present) == len(events):
        return {name: np.array(fields[name], dtype=dtype) for name, dtype in LEG_DTYPES.items()}
    mask = np.array([e is not None for e in events], dtype=bool)
    legs = {name: np.zeros(len(events), dtype=dtype) for name, dtype in LEG_DTYPES.items()}
    for name, dtype in LEG_DTYPES.items():
        legs[name][mask] = np.array(fields[name], dtype=dtype)
    return legs


@dataclass(frozen=True, eq=False)
class FindingRows:
    """One finding class as the row table a report reads.

    Per finding (one row each): ``wasted_time``, ``count`` (the count
    column: redundant receipts or allocations, completed trips; 1 for an
    unused finding), ``nbytes``, ``device``, the representative event's
    ``codeptr``/``has_codeptr``, and the class's remaining key columns in
    ``keys``.  ``removable`` holds ``seq``/``kind``/``nbytes``/``duration``
    of every removable event, finding by finding, in the order the
    ``*Group`` objects' ``removable_events()`` yield them.
    """

    wasted_time: np.ndarray
    count: np.ndarray
    nbytes: np.ndarray
    device: np.ndarray
    codeptr: np.ndarray
    has_codeptr: np.ndarray
    keys: dict
    removable: dict

    def __len__(self) -> int:
        return self.wasted_time.size

    @property
    def issues(self) -> int:
        """This class's issue count (its Table 1 column)."""
        return int(self.count.sum())


class FindingColumns:
    """The findings of one class as position columns (see module docs).

    Behaves as a lazy view of the ``*Group`` list it stands for:
    ``len()`` is the number of findings, :meth:`groups` materialises the
    list once, and comparing with a list compares that list.
    """

    def __init__(
        self,
        kind: str,
        offsets: np.ndarray,
        gpos: np.ndarray,
        *,
        partner: Optional[np.ndarray] = None,
        keys: dict,
        legs: dict,
        partner_legs: Optional[dict] = None,
    ) -> None:
        if kind not in KEY_DTYPES:
            raise ValueError(f"unknown finding class {kind!r}")
        self.kind = kind
        self.offsets = np.asarray(offsets, dtype=np.int64)
        self.gpos = np.asarray(gpos, dtype=np.int64)
        self.partner = None if partner is None else np.asarray(partner, dtype=np.int64)
        self.keys = {
            name: np.asarray(keys[name], dtype=dtype)
            for name, dtype in KEY_DTYPES[kind].items()
        }
        self.legs = legs
        self.partner_legs = partner_legs
        self._stream = None
        self._groups: Optional[list] = None
        self._rows: Optional[FindingRows] = None

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @classmethod
    def gathered(
        cls,
        kind: str,
        stream,
        offsets: np.ndarray,
        gpos: np.ndarray,
        *,
        partner: Optional[np.ndarray] = None,
        **keys: np.ndarray,
    ) -> "FindingColumns":
        """Finalize's constructor: gather the leg fields from ``stream``
        (one targeted re-scan) and bind the columns to it."""
        gpos = np.asarray(gpos, dtype=np.int64)
        if partner is None:
            legs, partner_legs = _legs_at(stream, gpos), None
        else:
            partner = np.asarray(partner, dtype=np.int64)
            valid = partner >= 0
            both = _legs_at(stream, np.concatenate([gpos, partner[valid]]))
            m = gpos.size
            legs = {name: column[:m] for name, column in both.items()}
            partner_legs = {}
            for name, column in both.items():
                partner_legs[name] = np.zeros(m, dtype=column.dtype)
                partner_legs[name][valid] = column[m:]
        columns = cls(
            kind, offsets, gpos, partner=partner, keys=keys, legs=legs,
            partner_legs=partner_legs,
        )
        return columns.bind(stream)

    @classmethod
    def from_groups(cls, kind: str, groups: Sequence) -> "FindingColumns":
        """The columns of object findings (the reference detectors' lists).

        No stream backs them: the position columns hold the events'
        sequence numbers, and :meth:`groups` returns ``groups`` itself.
        """
        groups = list(groups)
        partners = None
        if kind == DUPLICATES:
            sizes = [len(g.events) for g in groups]
            members = [e for g in groups for e in g.events]
            keys = {
                "content_hash": [g.content_hash for g in groups],
                "device": [g.dest_device_num for g in groups],
            }
        elif kind == ROUND_TRIPS:
            sizes = [len(g.trips) for g in groups]
            members = [t.tx_event for g in groups for t in g.trips]
            partners = [t.rx_event for g in groups for t in g.trips]
            keys = {
                "content_hash": [g.content_hash for g in groups],
                "src_device": [g.src_device_num for g in groups],
                "device": [g.dest_device_num for g in groups],
            }
        elif kind == REPEATED_ALLOCS:
            sizes = [len(g.allocations) for g in groups]
            pairs = [p for g in groups for p in g.allocations]
            members = [p.alloc_event for p in pairs]
            partners = [p.delete_event for p in pairs]
            keys = {
                "host_addr": [g.host_addr for g in groups],
                "device": [g.device_num for g in groups],
                "nbytes": [g.nbytes for g in groups],
            }
        elif kind == UNUSED_ALLOCS:
            sizes = [1] * len(groups)
            members = [f.pair.alloc_event for f in groups]
            partners = [f.pair.delete_event for f in groups]
            keys = {"device": [f.device_num for f in groups]}
        elif kind == UNUSED_TRANSFERS:
            sizes = [1] * len(groups)
            members = [f.event for f in groups]
            keys = {
                "device": [f.device_num for f in groups],
                "reason": [REASONS.index(f.reason) for f in groups],
            }
        else:
            raise ValueError(f"unknown finding class {kind!r}")
        legs = _legs_of(members)
        partner = partner_legs = None
        if partners is not None:
            partner_legs = _legs_of(partners)
            partner = np.where(
                [e is not None for e in partners], partner_legs["seq"], -1
            ).astype(np.int64)
        offsets = np.zeros(len(sizes) + 1, dtype=np.int64)
        np.cumsum(np.asarray(sizes, dtype=np.int64), out=offsets[1:])
        columns = cls(
            kind, offsets, legs["seq"], partner=partner, keys=keys, legs=legs,
            partner_legs=partner_legs,
        )
        columns._groups = groups
        return columns

    def bind(self, stream) -> "FindingColumns":
        """Attach the stream the positions index (for :meth:`groups`)."""
        self._stream = stream
        return self

    # ------------------------------------------------------------------ #
    # Views
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return self.offsets.size - 1

    def groups(self) -> list:
        """The ``*Group`` objects, materialised on first call and cached."""
        if self._groups is None:
            if self.gpos.size == 0:
                self._groups = []
            elif self._stream is None:
                raise RuntimeError(
                    "these finding columns are bound to no stream; "
                    "bind() the stream their positions index first"
                )
            else:
                needed = self.gpos
                if self.partner is not None:
                    needed = np.concatenate([needed, self.partner[self.partner >= 0]])
                events = materialize_data_op_events(self._stream, needed)
                self._groups = self._build_groups(events)
        return self._groups

    def _build_groups(self, events: dict) -> list:
        bounds = self.offsets.tolist()
        spans = zip(bounds[:-1], bounds[1:])
        gpos = self.gpos.tolist()
        partner = self.partner.tolist() if self.partner is not None else None
        keys = {name: column.tolist() for name, column in self.keys.items()}

        def pair(k: int) -> AllocationPair:
            return AllocationPair(
                alloc_event=events[gpos[k]],
                delete_event=events[partner[k]] if partner[k] >= 0 else None,
            )

        if self.kind == DUPLICATES:
            return [
                DuplicateTransferGroup(
                    content_hash=h,
                    dest_device_num=d,
                    events=tuple(events[p] for p in gpos[lo:hi]),
                )
                for (lo, hi), h, d in zip(spans, keys["content_hash"], keys["device"])
            ]
        if self.kind == ROUND_TRIPS:
            return [
                RoundTripGroup(
                    content_hash=h,
                    src_device_num=s,
                    dest_device_num=d,
                    trips=tuple(
                        RoundTripPair(tx_event=events[gpos[k]], rx_event=events[partner[k]])
                        for k in range(lo, hi)
                    ),
                )
                for (lo, hi), h, s, d in zip(
                    spans, keys["content_hash"], keys["src_device"], keys["device"]
                )
            ]
        if self.kind == REPEATED_ALLOCS:
            return [
                RepeatedAllocationGroup(
                    host_addr=a,
                    device_num=d,
                    nbytes=n,
                    allocations=tuple(pair(k) for k in range(lo, hi)),
                )
                for (lo, hi), a, d, n in zip(
                    spans, keys["host_addr"], keys["device"], keys["nbytes"]
                )
            ]
        if self.kind == UNUSED_ALLOCS:
            return [UnusedAllocation(pair=pair(lo)) for lo, _ in spans]
        return [
            UnusedTransfer(event=events[gpos[lo]], reason=REASONS[r])
            for (lo, _), r in zip(spans, keys["reason"])
        ]

    def rows(self) -> FindingRows:
        """The row table the report reads (computed once)."""
        if self._rows is None:
            self._rows = self._compute_rows()
        return self._rows

    def _compute_rows(self) -> FindingRows:
        offsets = self.offsets
        starts = offsets[:-1]
        sizes = np.diff(offsets)
        n = sizes.size
        legs, partner_legs = self.legs, self.partner_legs
        keys = dict(self.keys)
        device = keys.pop("device")
        count = np.ones(n, dtype=np.int64)
        nbytes = legs["nbytes"][starts]
        representative = _take(legs, starts)

        if self.kind == DUPLICATES:
            # every receipt after the first
            later = np.ones(self.gpos.size, dtype=bool)
            later[starts] = False
            removable = _take(legs, np.flatnonzero(later), _REMOVABLE)
            wasted = segment_sums(removable["duration"], offsets - np.arange(n + 1))
            count = sizes - 1
            representative = _take(legs, starts + 1)
        elif self.kind == ROUND_TRIPS:
            # both legs of every trip; a trip's cost is out + back
            removable = {
                name: np.stack([legs[name], partner_legs[name]], axis=1).ravel()
                for name in _REMOVABLE
            }
            wasted = segment_sums(legs["duration"] + partner_legs["duration"], offsets)
            count = sizes
            representative = _take(partner_legs, starts)
        elif self.kind == REPEATED_ALLOCS:
            # allocations after the first, then deletions before the last
            group = np.repeat(np.arange(n), sizes)
            member = np.arange(self.gpos.size)
            allocs = np.flatnonzero(member != starts[group])
            deletes = np.flatnonzero((member != offsets[1:][group] - 1) & (self.partner >= 0))
            owner = np.concatenate([group[allocs], group[deletes]])
            section = np.repeat(np.array([0, 1], np.int8), [allocs.size, deletes.size])
            order = np.lexsort((section, owner))
            removable = {
                name: np.concatenate([legs[name][allocs], partner_legs[name][deletes]])[order]
                for name in _REMOVABLE
            }
            rm_offsets = np.zeros(n + 1, dtype=np.int64)
            np.cumsum(np.bincount(owner, minlength=n), out=rm_offsets[1:])
            wasted = segment_sums(removable["duration"], rm_offsets)
            count = sizes - 1
            nbytes = keys.pop("nbytes")
            keys.pop("host_addr")
            representative = _take(legs, starts + 1)
        elif self.kind == UNUSED_ALLOCS:
            # the allocation, then its deletion when there is one
            valid = self.partner >= 0
            keep = np.stack([np.ones(n, dtype=bool), valid], axis=1).ravel()
            removable = {
                name: np.stack([legs[name], partner_legs[name]], axis=1).ravel()[keep]
                for name in _REMOVABLE
            }
            rm_offsets = np.zeros(n + 1, dtype=np.int64)
            np.cumsum(1 + valid, out=rm_offsets[1:])
            wasted = segment_sums(removable["duration"], rm_offsets)
        else:
            removable = _take(legs, np.arange(n), _REMOVABLE)
            wasted = legs["duration"].copy()
        keys.pop("content_hash", None)
        return FindingRows(
            wasted_time=wasted,
            count=count,
            nbytes=nbytes,
            device=device,
            codeptr=representative["codeptr"],
            has_codeptr=representative["has_codeptr"],
            keys=keys,
            removable=removable,
        )

    # ------------------------------------------------------------------ #
    # Equality and serialisation
    # ------------------------------------------------------------------ #
    def __eq__(self, other) -> bool:
        if isinstance(other, FindingColumns):
            return _equal_state(self.__getstate__(), other.__getstate__())
        if isinstance(other, (list, tuple)):
            return self.groups() == list(other)
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    def __getstate__(self) -> dict:
        return {
            "kind": self.kind,
            "offsets": self.offsets,
            "gpos": self.gpos,
            "partner": self.partner,
            "keys": self.keys,
            "legs": self.legs,
            "partner_legs": self.partner_legs,
        }

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._stream = None
        self._groups = None
        self._rows = None

    def __repr__(self) -> str:
        return f"FindingColumns({self.kind!r}, {len(self)} findings, {self.gpos.size} members)"


def _equal_state(a, b) -> bool:
    if isinstance(a, dict):
        return isinstance(b, dict) and a.keys() == b.keys() and all(
            _equal_state(a[k], b[k]) for k in a
        )
    if isinstance(a, np.ndarray):
        return isinstance(b, np.ndarray) and a.dtype == b.dtype and np.array_equal(a, b)
    return a == b
