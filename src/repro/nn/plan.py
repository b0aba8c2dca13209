"""Segment compute plans: sorted-CSR reductions for the scatter kernels.

Every message-passing layer in the library reduces per-edge rows into
per-node rows (``segment_sum``/``segment_softmax``) or scatters gradients
back from edges to nodes (the backward of ``gather_rows``).  The naive
implementation is ``np.add.at`` — an unbuffered ufunc that visits one
element at a time and is typically 10-50x slower than a contiguous
reduction.

A :class:`SegmentPlan` precomputes everything a sorted reduction needs:

* ``order`` — a *stable* argsort of the segment ids, so rows of the same
  segment become contiguous while preserving their original relative
  order,
* ``starts`` — ``np.add.reduceat`` boundaries into the sorted rows, one
  per non-empty segment,
* ``present`` — the segment id each boundary belongs to,
* ``counts`` — per-segment row counts (degree vectors come for free).

The scatter-add itself runs as a sparse CSR matmul ``M @ values`` where
``M`` is the (S, E) 0/1 segment-membership matrix with columns stored in
stable-sorted row order.  scipy's CSR kernel accumulates each output row
sequentially over its stored columns — exactly the element order the
unbuffered ``np.add.at`` uses — so plan-based reductions are
**bit-identical** to the historical scatter in any dtype, while running
5-10x faster (one fused C pass, no per-element dispatch).

Plans depend only on ``(segment_ids, num_segments)``, so graph-shaped
plans are computed once per graph and cached on
:class:`repro.models.inputs.GraphInputs`; with the merged-inputs cache of
:mod:`repro.flows.runtime` the argsort amortises to ~zero over a training
run.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from scipy import sparse as _sparse
from scipy.sparse import _sparsetools

from repro.errors import ShapeError


@dataclass(frozen=True)
class SegmentPlan:
    """Precomputed sorted-CSR reduction schedule for one segmentation."""

    segment_ids: np.ndarray  #: (E,) int64 segment id per row
    num_segments: int  #: number of output rows S
    order: np.ndarray  #: (E,) stable argsort of ``segment_ids``
    starts: np.ndarray  #: reduceat boundaries into the sorted rows
    present: np.ndarray  #: ascending ids of non-empty segments
    counts: np.ndarray = field(repr=False)  #: (S,) int64 rows per segment
    #: dtype -> cached (S, E) CSR membership operator
    _matrices: dict = field(default_factory=dict, repr=False, compare=False)

    @classmethod
    def build(cls, segment_ids: np.ndarray, num_segments: int) -> "SegmentPlan":
        """Build a plan for ``segment_ids`` mapping rows into S segments."""
        segment_ids = np.ascontiguousarray(segment_ids, dtype=np.int64)
        if segment_ids.ndim != 1:
            raise ShapeError("segment_ids must be 1-D")
        if segment_ids.size:
            low, high = int(segment_ids.min()), int(segment_ids.max())
            if low < 0 or high >= num_segments:
                raise ShapeError(
                    f"segment ids span [{low}, {high}] outside "
                    f"[0, {num_segments})"
                )
        order = np.argsort(segment_ids, kind="stable")
        sorted_ids = segment_ids[order]
        counts = np.bincount(segment_ids, minlength=num_segments)
        if sorted_ids.size:
            starts = np.concatenate(
                [[0], np.flatnonzero(np.diff(sorted_ids)) + 1]
            )
            present = sorted_ids[starts]
        else:
            starts = np.empty(0, dtype=np.int64)
            present = np.empty(0, dtype=np.int64)
        return cls(
            segment_ids=segment_ids,
            num_segments=int(num_segments),
            order=order,
            starts=starts,
            present=present,
            counts=counts,
        )

    @classmethod
    def concat(
        cls,
        plans: "list[SegmentPlan]",
        segment_offsets: np.ndarray,
        num_segments: int,
    ) -> "SegmentPlan":
        """Stitch per-graph plans into one disjoint-union plan, bitwise.

        ``plans[k]`` must cover segment range ``[segment_offsets[k],
        segment_offsets[k] + plans[k].num_segments)`` of the merged
        segmentation, and those ranges must be ascending and disjoint (the
        node-id ranges of a disjoint graph union).  Under that layout the
        stable argsort of the concatenated shifted segment ids is exactly
        the concatenation of the per-plan stable orders plus item offsets,
        so the merged plan — and therefore every reduction run through it —
        is bit-identical to ``SegmentPlan.build`` on the concatenated ids,
        without re-sorting anything.
        """
        if len(plans) != len(segment_offsets):
            raise ShapeError(
                f"{len(plans)} plans but {len(segment_offsets)} segment offsets"
            )
        previous_end = 0
        for plan, offset in zip(plans, segment_offsets):
            offset = int(offset)
            if offset < previous_end:
                raise ShapeError(
                    "segment ranges must be ascending and disjoint; "
                    f"offset {offset} overlaps the previous range "
                    f"ending at {previous_end}"
                )
            previous_end = offset + plan.num_segments
        if previous_end > num_segments:
            raise ShapeError(
                f"plans cover segments up to {previous_end}, outside "
                f"[0, {num_segments})"
            )
        if not plans:
            return cls.build(np.empty(0, dtype=np.int64), num_segments)
        item_offsets = np.cumsum([0] + [plan.num_items for plan in plans[:-1]])
        counts = np.zeros(num_segments, dtype=plans[0].counts.dtype)
        for plan, offset in zip(plans, segment_offsets):
            counts[int(offset):int(offset) + plan.num_segments] = plan.counts
        return cls(
            segment_ids=np.concatenate(
                [plan.segment_ids + int(s) for plan, s in zip(plans, segment_offsets)]
            ),
            num_segments=int(num_segments),
            order=np.concatenate(
                [plan.order + int(i) for plan, i in zip(plans, item_offsets)]
            ),
            starts=np.concatenate(
                [plan.starts + int(i) for plan, i in zip(plans, item_offsets)]
            ),
            present=np.concatenate(
                [plan.present + int(s) for plan, s in zip(plans, segment_offsets)]
            ),
            counts=counts,
        )

    def compact(self) -> "SegmentPlan":
        """The same schedule over its non-empty segments only.

        Segment ``present[k]`` becomes segment ``k``.  Renumbering keeps
        the ids' order, so the stable sort, the boundaries and every
        reduction are unchanged: the result equals :meth:`build` on the
        renumbered ids, computed in O(E) without sorting.
        """
        counts = self.counts[self.present]
        ranks = np.arange(len(self.present), dtype=np.int64)
        segment_ids = np.empty(self.num_items, dtype=np.int64)
        segment_ids[self.order] = np.repeat(ranks, counts)
        return SegmentPlan(
            segment_ids=segment_ids,
            num_segments=len(ranks),
            order=self.order,
            starts=self.starts,
            present=ranks,
            counts=counts,
        )

    # ------------------------------------------------------------------
    @property
    def num_items(self) -> int:
        return self.segment_ids.shape[0]

    def check(self, segment_ids: np.ndarray, num_segments: int) -> None:
        """Cheap shape validation that this plan fits a kernel call."""
        if self.num_segments != num_segments:
            raise ShapeError(
                f"plan covers {self.num_segments} segments, "
                f"kernel call expects {num_segments}"
            )
        if len(segment_ids) != self.num_items:
            raise ShapeError(
                f"plan covers {self.num_items} rows, "
                f"kernel call has {len(segment_ids)}"
            )

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def _matrix(self, dtype: np.dtype):
        """The (S, E) CSR membership operator in *dtype* (cached)."""
        matrix = self._matrices.get(dtype)
        if matrix is None:
            indptr = np.zeros(self.num_segments + 1, dtype=np.int64)
            np.cumsum(self.counts, out=indptr[1:])
            matrix = _sparse.csr_matrix(
                (np.ones(self.num_items, dtype=dtype), self.order, indptr),
                shape=(self.num_segments, self.num_items),
            )
            self._matrices[dtype] = matrix
        return matrix

    def scatter_add(self, values: np.ndarray) -> np.ndarray:
        """``out[s] = sum of values rows in segment s`` (empty rows zero).

        Bit-identical to ``np.add.at(zeros, segment_ids, values)``: the CSR
        kernel accumulates each output row sequentially over its columns in
        stable-sorted (i.e. original) element order.
        """
        values = np.ascontiguousarray(values)
        matrix = self._matrix(values.dtype)
        if values.ndim not in (1, 2):
            return np.ascontiguousarray(matrix @ values)
        # Same compiled kernel scipy's ``@`` dispatches to, minus the
        # per-call validation overhead (these run hundreds of times per
        # training step on small per-edge-type arrays).
        out = np.zeros((self.num_segments, *values.shape[1:]), dtype=values.dtype)
        if values.ndim == 1:
            _sparsetools.csr_matvec(
                self.num_segments, self.num_items,
                matrix.indptr, matrix.indices, matrix.data,
                values, out,
            )
        else:
            _sparsetools.csr_matvecs(
                self.num_segments, self.num_items, values.shape[1],
                matrix.indptr, matrix.indices, matrix.data,
                values.ravel(), out.ravel(),
            )
        return out

    def segment_max(self, values: np.ndarray) -> np.ndarray:
        """Per-segment maximum; empty or non-finite maxima become 0.

        Matches the historical ``np.maximum.at`` + -inf-fill behaviour of
        the softmax stabiliser.
        """
        values = np.asarray(values)
        out = np.zeros((self.num_segments, *values.shape[1:]), dtype=values.dtype)
        if self.order.size:
            seg_max = np.maximum.reduceat(values[self.order], self.starts, axis=0)
            seg_max[~np.isfinite(seg_max)] = 0.0
            out[self.present] = seg_max
        return out

    def inverse_counts(self, dtype: np.dtype) -> np.ndarray:
        """``1 / max(counts, 1)`` as a (S, 1) column in *dtype*."""
        counts = np.maximum(self.counts, 1).astype(dtype)
        return (1.0 / counts).reshape(-1, 1)
