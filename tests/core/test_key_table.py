"""Differential tests for the packed, incrementally updated key table.

:class:`CompositeKeyCounter` keeps its key table sorted on one packed key
column and updates it with ``searchsorted`` + insert.  The lexsort
counter it replaced is kept below as the reference (unchanged except
that it returns its results as dicts): every
``KeyFold``/``KeyMerge`` field and the table state must equal the
reference's after each fold and each merge — across random batch
sequences, 1-row and all-duplicate batches, uint64 keys above 2**63,
negative int32 devices, payload on and off, merges at every cut, and a
carry-codec round trip in the middle of a stream.

A structural guard pins the complexity: folding a 1-row batch into a
table of 100k keys must not sort anything larger than the batch.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np
import pytest

from repro.core.carrycodec import decode_value, encode_value
from repro.core.detectors._streaming import (
    CompositeKeyCounter,
    KeyFold,
    pack_keys,
    unpack_keys,
)

FOLD_FIELDS = (
    "inverse", "prior_count", "total_count", "first_gpos", "first_payload",
    "key_uid", "prior_first_gpos", "prior_payload",
)
MERGE_FIELDS = (
    "uid_map_self", "uid_map_other", "promoted_gpos", "promoted_payload",
    "promoted_uid",
)


# --------------------------------------------------------------------- #
# The lexsort counter the packed table replaced, kept as the reference
# --------------------------------------------------------------------- #
class LexsortKeyCounter:
    def __init__(self) -> None:
        self._keys: Optional[tuple[np.ndarray, ...]] = None
        self._count = np.empty(0, dtype=np.int64)
        self._first = np.empty(0, dtype=np.int64)
        self._uid = np.empty(0, dtype=np.int64)
        self._next_uid = 0
        self._payload: Optional[np.ndarray] = None

    @staticmethod
    def _group_boundaries(cols: Sequence[np.ndarray], order: np.ndarray) -> np.ndarray:
        boundary = np.ones(order.size, dtype=bool)
        if order.size > 1:
            same = np.ones(order.size - 1, dtype=bool)
            for col in cols:
                sorted_col = col[order]
                same &= sorted_col[1:] == sorted_col[:-1]
            boundary[1:] = ~same
        return boundary

    def fold(self, cols, gpos, payload=None) -> dict:
        n = len(gpos)
        if n == 0:
            empty = np.empty(0, dtype=np.int64)
            return dict.fromkeys(FOLD_FIELDS, empty)
        if payload is not None and self._payload is None:
            self._payload = np.zeros(self._count.size, dtype=np.int64)
        track_payload = self._payload is not None
        if track_payload and payload is None:
            payload = np.zeros(n, dtype=np.int64)

        order = np.lexsort((gpos, *reversed(cols)))
        boundary = self._group_boundaries(cols, order)
        starts = np.flatnonzero(boundary)
        group_id = np.cumsum(boundary) - 1
        inverse = np.empty(n, dtype=np.int64)
        inverse[order] = group_id

        u_cols = tuple(col[order][starts] for col in cols)
        u_count = np.diff(np.append(starts, n)).astype(np.int64)
        u_first = gpos[order][starts].astype(np.int64)
        u_payload = (
            payload[order][starts].astype(np.int64)
            if track_payload
            else np.zeros(len(starts), dtype=np.int64)
        )

        if self._keys is None:
            self._keys = u_cols
            self._count = u_count
            self._first = u_first
            self._uid = np.arange(len(starts), dtype=np.int64)
            self._next_uid = len(starts)
            if track_payload:
                self._payload = u_payload
            prior = np.zeros(len(starts), dtype=np.int64)
            return dict(zip(FOLD_FIELDS, (
                inverse, prior, u_count.copy(), u_first.copy(), u_payload,
                self._uid.copy(), u_first.copy(), u_payload.copy(),
            )))

        m_cols = tuple(np.concatenate([t, u]) for t, u in zip(self._keys, u_cols))
        tag = np.concatenate([
            np.zeros(self._count.size, dtype=np.int8),
            np.ones(len(starts), dtype=np.int8),
        ])
        m_count = np.concatenate([self._count, u_count])
        m_first = np.concatenate([self._first, u_first])
        fresh_uids = self._next_uid + np.arange(len(starts), dtype=np.int64)
        self._next_uid += len(starts)
        m_uid = np.concatenate([self._uid, fresh_uids])

        morder = np.lexsort((tag, *reversed(m_cols)))
        mboundary = self._group_boundaries(m_cols, morder)
        run_starts = np.flatnonzero(mboundary)
        run_id = np.cumsum(mboundary) - 1
        m = morder.size

        count_sorted = m_count[morder]
        first_sorted = m_first[morder]
        uid_sorted = m_uid[morder]
        new_count = np.add.reduceat(count_sorted, run_starts)
        new_first = np.minimum.reduceat(first_sorted, run_starts)
        new_uid = uid_sorted[run_starts]
        prior_first = first_sorted[run_starts]

        run_len = np.diff(np.append(run_starts, m))
        second = run_starts + 1
        two = run_len == 2
        pick = run_starts.copy()
        pick[two] = np.where(
            first_sorted[np.minimum(second, m - 1)][two] < first_sorted[run_starts][two],
            second[two],
            run_starts[two],
        )
        if track_payload:
            payload_sorted = np.concatenate([self._payload, u_payload])[morder]
            new_payload = payload_sorted[pick]
            prior_payload = payload_sorted[run_starts]
        else:
            new_payload = np.zeros(run_starts.size, dtype=np.int64)
            prior_payload = new_payload

        self._keys = tuple(col[morder][run_starts] for col in m_cols)
        self._count = new_count.astype(np.int64)
        self._first = new_first
        self._uid = new_uid
        if track_payload:
            self._payload = new_payload

        batch_runs = run_id[np.flatnonzero(tag[morder] == 1)]
        total_count = new_count[batch_runs]
        prior_count = total_count - u_count
        return dict(zip(FOLD_FIELDS, (
            inverse,
            prior_count.astype(np.int64),
            total_count.astype(np.int64),
            new_first[batch_runs],
            new_payload[batch_runs],
            new_uid[batch_runs],
            prior_first[batch_runs],
            prior_payload[batch_runs],
        )))

    def _empty_merge(self, num_other_uids: int) -> dict:
        empty = np.empty(0, dtype=np.int64)
        return dict(
            uid_map_self=np.arange(self._next_uid, dtype=np.int64),
            uid_map_other=np.arange(num_other_uids, dtype=np.int64),
            promoted_gpos=empty,
            promoted_payload=empty,
            promoted_uid=empty,
            promoted_keys=(),
        )

    def merge(self, other: "LexsortKeyCounter") -> dict:
        if other._keys is None:
            return self._empty_merge(other._next_uid)
        if self._keys is None:
            self._keys = other._keys
            self._count = other._count
            self._first = other._first
            self._uid = other._uid
            self._next_uid = other._next_uid
            self._payload = other._payload
            return self._empty_merge(other._next_uid)

        track = self._payload is not None or other._payload is not None
        n_s, n_o = self._count.size, other._count.size
        m_cols = tuple(np.concatenate([a, b]) for a, b in zip(self._keys, other._keys))
        tag = np.concatenate([
            np.zeros(n_s, dtype=np.int8), np.ones(n_o, dtype=np.int8),
        ])
        m_count = np.concatenate([self._count, other._count])
        m_first = np.concatenate([self._first, other._first])
        s_payload = (
            self._payload if self._payload is not None
            else np.zeros(n_s, dtype=np.int64)
        )
        o_payload = (
            other._payload if other._payload is not None
            else np.zeros(n_o, dtype=np.int64)
        )
        m_payload = np.concatenate([s_payload, o_payload])
        m_uid = np.concatenate([self._uid, other._uid])

        morder = np.lexsort((tag, *reversed(m_cols)))
        boundary = self._group_boundaries(m_cols, morder)
        run_starts = np.flatnonzero(boundary)
        run_id = np.cumsum(boundary) - 1
        m = morder.size

        count_sorted = m_count[morder]
        first_sorted = m_first[morder]
        payload_sorted = m_payload[morder]
        new_count = np.add.reduceat(count_sorted, run_starts).astype(np.int64)
        new_first = np.minimum.reduceat(first_sorted, run_starts)

        run_len = np.diff(np.append(run_starts, m))
        second = run_starts + 1
        two = run_len == 2
        pick = run_starts.copy()
        pick[two] = np.where(
            first_sorted[np.minimum(second, m - 1)][two] < first_sorted[run_starts][two],
            second[two],
            run_starts[two],
        )
        new_payload = payload_sorted[pick]

        uid_sorted = m_uid[morder]
        tag_sorted = tag[morder]
        uid_map_self = np.full(self._next_uid, -1, dtype=np.int64)
        uid_map_other = np.full(other._next_uid, -1, dtype=np.int64)
        from_self = tag_sorted == 0
        uid_map_self[uid_sorted[from_self]] = run_id[from_self]
        uid_map_other[uid_sorted[~from_self]] = run_id[~from_self]

        promote = (count_sorted == 1) & (new_count[run_id] >= 2)
        promoted_keys = (
            tuple(col[morder][promote] for col in m_cols) if promote.any() else ()
        )
        promoted = dict(
            uid_map_self=uid_map_self,
            uid_map_other=uid_map_other,
            promoted_gpos=first_sorted[promote],
            promoted_payload=payload_sorted[promote],
            promoted_uid=run_id[promote],
            promoted_keys=promoted_keys,
        )

        self._keys = tuple(col[morder][run_starts] for col in m_cols)
        self._count = new_count
        self._first = new_first
        self._uid = np.arange(run_starts.size, dtype=np.int64)
        self._next_uid = run_starts.size
        self._payload = new_payload if track else None
        return promoted


# --------------------------------------------------------------------- #
# Comparison helpers
# --------------------------------------------------------------------- #
def _assert_same_array(got, want, what):
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype, f"{what}: dtype {got.dtype} != {want.dtype}"
    np.testing.assert_array_equal(got, want, err_msg=what)


def assert_same_table(counter: CompositeKeyCounter, ref: LexsortKeyCounter):
    if ref._keys is None:
        assert counter._key is None
    else:
        got = unpack_keys(counter._key, counter._dtypes)
        assert len(got) == len(ref._keys)
        for j, (g, w) in enumerate(zip(got, ref._keys)):
            _assert_same_array(g, w, f"table key column {j}")
    for name in ("_count", "_first", "_uid"):
        _assert_same_array(getattr(counter, name), getattr(ref, name), f"table {name}")
    assert counter._next_uid == ref._next_uid
    assert (counter._payload is None) == (ref._payload is None)
    if ref._payload is not None:
        _assert_same_array(counter._payload, ref._payload, "table _payload")
    assert counter.num_keys == ref._count.size


def assert_same_fold(fold: KeyFold, want: dict, cols, gpos):
    for name in FOLD_FIELDS:
        _assert_same_array(getattr(fold, name), want[name], f"KeyFold.{name}")
    # The representative row of each batch key holds that key, at the
    # key's batch-minimal gpos.
    rep = fold.representative
    assert rep.size == fold.total_count.size
    np.testing.assert_array_equal(fold.inverse[rep], np.arange(rep.size))
    if rep.size:
        batch_min = np.full(rep.size, np.iinfo(np.int64).max)
        np.minimum.at(batch_min, fold.inverse, np.asarray(gpos, dtype=np.int64))
        np.testing.assert_array_equal(np.asarray(gpos)[rep], batch_min)


def assert_same_merge(km, want: dict):
    for name in MERGE_FIELDS:
        _assert_same_array(getattr(km, name), want[name], f"KeyMerge.{name}")
    assert len(km.promoted_keys) == len(want["promoted_keys"])
    for j, (g, w) in enumerate(zip(km.promoted_keys, want["promoted_keys"])):
        _assert_same_array(g, w, f"KeyMerge.promoted_keys[{j}]")


# --------------------------------------------------------------------- #
# Batch generators
# --------------------------------------------------------------------- #
HASH_POOL = np.array(
    [0, 1, 7, 2**62, 2**63 - 1, 2**63, 2**63 + 5, 2**64 - 5, 2**64 - 1],
    dtype=np.uint64,
)


def _batches(rng, *, num_batches, max_rows, width, payload, one_row=False,
             all_duplicate=False):
    """Random keyed batches with globally unique gpos, shuffled per batch."""
    gpos_pool = rng.permutation(num_batches * max_rows * 4).astype(np.int64)
    out = []
    used = 0
    for _ in range(num_batches):
        n = 1 if one_row else int(rng.integers(0, max_rows + 1))
        hashes = HASH_POOL[rng.integers(0, HASH_POOL.size, size=n)]
        devs = rng.integers(-3, 3, size=n).astype(np.int32)
        sizes = rng.choice(np.array([-9, 0, 64, 2**40], dtype=np.int64), size=n)
        if all_duplicate and n:
            hashes[:] = hashes[0]
            devs[:] = devs[0]
            sizes[:] = sizes[0]
        cols = (hashes, devs, sizes)[:width]
        gpos = gpos_pool[used : used + n]
        used += n
        pay = rng.integers(-(2**40), 2**40, size=n).astype(np.int64) if payload else None
        out.append((cols, gpos, pay))
    return out


def _fold_both(counter, ref, batch):
    cols, gpos, pay = batch
    fold = counter.fold(cols, gpos, payload=pay)
    want = ref.fold(cols, gpos, payload=pay)
    assert_same_fold(fold, want, cols, gpos)
    assert_same_table(counter, ref)


SHAPES = [
    dict(num_batches=12, max_rows=40),
    dict(num_batches=25, max_rows=1, one_row=True),
    dict(num_batches=8, max_rows=30, all_duplicate=True),
]


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("shape", SHAPES, ids=["random", "one_row", "all_duplicate"])
@pytest.mark.parametrize("width", [1, 2, 3])
@pytest.mark.parametrize("payload", [False, True])
def test_fold_sequence_matches_lexsort_reference(seed, shape, width, payload):
    rng = np.random.default_rng(seed)
    counter, ref = CompositeKeyCounter(), LexsortKeyCounter()
    for batch in _batches(rng, width=width, payload=payload, **shape):
        _fold_both(counter, ref, batch)


def test_payload_supplied_from_a_later_batch_on():
    rng = np.random.default_rng(11)
    batches = _batches(rng, num_batches=10, max_rows=20, width=2, payload=True)
    counter, ref = CompositeKeyCounter(), LexsortKeyCounter()
    for index, (cols, gpos, pay) in enumerate(batches):
        _fold_both(counter, ref, (cols, gpos, pay if index >= 4 else None))


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("payload", [False, True])
@pytest.mark.parametrize("shape", SHAPES[:2], ids=["random", "one_row"])
def test_merge_at_every_cut_matches_lexsort_reference(seed, payload, shape):
    """Both merge directions at every cut, promotions included."""
    rng = np.random.default_rng(100 + seed)
    batches = _batches(rng, width=2, payload=payload, **shape)
    promotions = 0
    for cut in range(len(batches) + 1):
        for left_range, right_range in (
            (batches[:cut], batches[cut:]),
            (batches[cut:], batches[:cut]),
        ):
            left, ref_left = CompositeKeyCounter(), LexsortKeyCounter()
            right, ref_right = CompositeKeyCounter(), LexsortKeyCounter()
            for batch in left_range:
                _fold_both(left, ref_left, batch)
            for batch in right_range:
                _fold_both(right, ref_right, batch)
            km = left.merge(right)
            want = ref_left.merge(ref_right)
            assert_same_merge(km, want)
            assert_same_table(left, ref_left)
            promotions += km.promoted_gpos.size
            # The merged table keeps folding like the reference.
            for batch in _batches(rng, num_batches=2, max_rows=10, width=2,
                                  payload=payload):
                _fold_both(left, ref_left, batch)
    assert promotions > 0


def test_three_way_merge_renumbers_uids_like_the_reference():
    rng = np.random.default_rng(7)
    batches = _batches(rng, num_batches=9, max_rows=25, width=3, payload=True)
    parts, refs = [], []
    for lo in range(0, 9, 3):
        counter, ref = CompositeKeyCounter(), LexsortKeyCounter()
        for batch in batches[lo : lo + 3]:
            _fold_both(counter, ref, batch)
        parts.append(counter)
        refs.append(ref)
    for counter, ref in zip(parts[1:], refs[1:]):
        assert_same_merge(parts[0].merge(counter), refs[0].merge(ref))
        assert_same_table(parts[0], refs[0])


def test_merge_with_empty_sides():
    rng = np.random.default_rng(3)
    (batch,) = _batches(rng, num_batches=1, max_rows=20, width=2, payload=True)
    for full_first in (True, False):
        full, ref_full = CompositeKeyCounter(), LexsortKeyCounter()
        _fold_both(full, ref_full, batch)
        empty, ref_empty = CompositeKeyCounter(), LexsortKeyCounter()
        if full_first:
            assert_same_merge(full.merge(empty), ref_full.merge(ref_empty))
            assert_same_table(full, ref_full)
        else:
            assert_same_merge(empty.merge(full), ref_empty.merge(ref_full))
            assert_same_table(empty, ref_empty)


def test_codec_round_trip_mid_stream_keeps_folding():
    rng = np.random.default_rng(5)
    batches = _batches(rng, num_batches=14, max_rows=30, width=3, payload=True)
    counter, ref = CompositeKeyCounter(), LexsortKeyCounter()
    for index, batch in enumerate(batches):
        if index == 7:
            payload = encode_value(counter)
            counter = decode_value(payload)
            assert encode_value(counter) == payload
            assert_same_table(counter, ref)
        _fold_both(counter, ref, batch)
    # ... and a decoded counter merges like the reference too.
    other, ref_other = CompositeKeyCounter(), LexsortKeyCounter()
    for batch in _batches(rng, num_batches=4, max_rows=30, width=3, payload=True):
        _fold_both(other, ref_other, batch)
    assert_same_merge(counter.merge(decode_value(encode_value(other))),
                      ref.merge(ref_other))
    assert_same_table(counter, ref)


def test_packed_byte_order_is_lexsort_order():
    rng = np.random.default_rng(9)
    n = 2000
    cols = (
        HASH_POOL[rng.integers(0, HASH_POOL.size, size=n)],
        rng.integers(-(2**31), 2**31, size=n).astype(np.int32),
        rng.integers(-(2**63), 2**63 - 1, size=n, dtype=np.int64),
    )
    dtypes = tuple(col.dtype for col in cols)
    packed = pack_keys(cols, dtypes)
    order = np.lexsort(tuple(reversed(cols)))
    np.testing.assert_array_equal(packed[order], np.sort(packed))
    for got, want in zip(unpack_keys(packed, dtypes), cols):
        _assert_same_array(got, want, "unpacked column")


def test_non_integer_keys_and_mismatched_merges_are_rejected():
    with pytest.raises(TypeError):
        CompositeKeyCounter().fold((np.array([1.5]),), np.array([0]))
    a, b = CompositeKeyCounter(), CompositeKeyCounter()
    a.fold((np.array([1], dtype=np.uint64),), np.array([0]))
    b.fold((np.array([1], dtype=np.int32),), np.array([1]))
    with pytest.raises(TypeError):
        a.merge(b)


def test_one_row_fold_into_large_table_sorts_only_the_batch(monkeypatch):
    """Structural O(batch) guard: no sort sees more rows than the batch."""
    rng = np.random.default_rng(1)
    num_keys = 120_000
    counter = CompositeKeyCounter()
    hashes = rng.permutation(num_keys).astype(np.uint64) * np.uint64(2**40)
    devs = rng.integers(-2, 2, size=num_keys).astype(np.int32)
    counter.fold((hashes, devs), np.arange(num_keys), payload=np.arange(num_keys))
    assert counter.num_keys >= 100_000

    seen: list[int] = []

    def spy(name):
        real = getattr(np, name)

        def wrapper(a, *args, **kwargs):
            rows = max(np.shape(k)[-1] for k in a) if name == "lexsort" else np.size(a)
            seen.append(rows)
            return real(a, *args, **kwargs)

        return wrapper

    for name in ("lexsort", "argsort", "sort"):
        monkeypatch.setattr(np, name, spy(name))

    gpos = num_keys
    for step in range(50):
        # alternate keys already in the table and brand-new ones
        h = hashes[step] if step % 2 else np.uint64(2**63 + step)
        fold = counter.fold(
            (np.array([h], dtype=np.uint64), np.array([devs[step] if step % 2 else -1],
                                                      dtype=np.int32)),
            np.array([gpos]),
            payload=np.array([gpos]),
        )
        gpos += 1
        assert fold.total_count.size == 1
    assert seen, "the fold sorted nothing: the spy is not wired in"
    assert max(seen) <= 1
    assert counter.num_keys == num_keys + 25
