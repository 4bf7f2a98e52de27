"""Optimization-potential estimation (Section 7.6).

The key differentiator of OMPDataPerf over coarse-grained profilers is the
quantified assessment of how much can be gained by fixing the reported
issues.  The estimate is computed exactly as the paper describes: the
predicted runtime is the measured runtime minus the combined duration of the
transfer and allocation operations that would disappear if every identified
inefficiency were eliminated, and the predicted speedup is the ratio of the
two.

Events implicated by several patterns at once (a redundant transfer that is
simultaneously the return leg of a round trip, say) are only counted once:
the estimator unions the removable events by sequence number before summing
durations.  It reads the findings' row tables
(:class:`~repro.core.detectors.finding_columns.FindingRows`), so it needs
no event objects.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.core.detectors.finding_columns import (
    FINDING_CLASSES,
    FindingColumns,
    FindingRows,
    is_transfer_code,
)
from repro.core.detectors.findings import (
    DuplicateTransferGroup,
    RepeatedAllocationGroup,
    RoundTripGroup,
    UnusedAllocation,
    UnusedTransfer,
)
from repro.events.protocol import TraceLike


@dataclass(frozen=True)
class OptimizationPotential:
    """Predicted benefit of eliminating every detected inefficiency."""

    #: measured (traced) program runtime in seconds
    measured_runtime: float
    #: combined duration of all removable data operations
    predicted_time_saved: float
    #: bytes of transfer volume that would be eliminated
    predicted_bytes_saved: int
    #: number of data operations that would be eliminated
    predicted_ops_saved: int
    #: sequence numbers of the removable events (useful for attribution)
    removable_event_seqs: frozenset[int]

    @property
    def predicted_runtime(self) -> float:
        return max(self.measured_runtime - self.predicted_time_saved, 0.0)

    @property
    def predicted_speedup(self) -> float:
        """Predicted speedup = measured / predicted runtime (>= 1.0)."""
        remaining = self.measured_runtime - self.predicted_time_saved
        if remaining <= 0.0:
            return float("inf")
        return self.measured_runtime / remaining

    @property
    def predicted_saved_fraction(self) -> float:
        """Fraction of the measured runtime attributed to removable operations."""
        if self.measured_runtime <= 0.0:
            return 0.0
        return self.predicted_time_saved / self.measured_runtime

    def as_dict(self) -> dict:
        return {
            "measured_runtime": self.measured_runtime,
            "predicted_time_saved": self.predicted_time_saved,
            "predicted_bytes_saved": self.predicted_bytes_saved,
            "predicted_ops_saved": self.predicted_ops_saved,
            "predicted_runtime": self.predicted_runtime,
            "predicted_speedup": self.predicted_speedup,
            "predicted_saved_fraction": self.predicted_saved_fraction,
        }


def estimate_potential(
    trace: TraceLike,
    *,
    duplicate_groups: Sequence[DuplicateTransferGroup] = (),
    round_trip_groups: Sequence[RoundTripGroup] = (),
    repeated_alloc_groups: Sequence[RepeatedAllocationGroup] = (),
    unused_allocations: Sequence[UnusedAllocation] = (),
    unused_transfers: Sequence[UnusedTransfer] = (),
    rows: Optional[Sequence[FindingRows]] = None,
) -> OptimizationPotential:
    """Estimate the optimization potential of a trace given its findings.

    The findings are either object lists (by class) or ``rows``, the
    per-class row tables of a report
    (:meth:`~repro.core.detectors.finding_columns.FindingColumns.rows`);
    object lists are converted to row tables first, so both compute here
    alike.  The removable events of every finding are taken in class
    order and deduplicated by sequence number, keeping each first
    occurrence; their durations are then summed left to right.
    """
    if rows is None:
        rows = [
            FindingColumns.from_groups(kind, groups).rows()
            for kind, groups in zip(
                FINDING_CLASSES,
                (
                    duplicate_groups,
                    round_trip_groups,
                    repeated_alloc_groups,
                    unused_allocations,
                    unused_transfers,
                ),
            )
        ]
    removable = {
        name: np.concatenate([r.removable[name] for r in rows])
        for name in ("seq", "kind", "nbytes", "duration")
    }
    _, first = np.unique(removable["seq"], return_index=True)
    first.sort()  # first-insertion order
    duration = removable["duration"][first]
    transfer = is_transfer_code(removable["kind"][first])
    return OptimizationPotential(
        measured_runtime=trace.runtime,
        predicted_time_saved=float(np.add.accumulate(duration)[-1]) if first.size else 0,
        predicted_bytes_saved=int(removable["nbytes"][first][transfer].sum()),
        predicted_ops_saved=int(first.size),
        removable_event_seqs=frozenset(removable["seq"][first].tolist()),
    )
