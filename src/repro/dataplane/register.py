"""SALU-backed stateful registers.

A *register* on Tofino is a fixed-size SRAM array bound to a stateful ALU.
The hardware constraints FlyMon designs around are modeled explicitly:

* the array's size and bucket bit-width are fixed at "compile" time
  (construction) and cannot change at runtime -- dynamic memory has to be
  realized by address translation on top of this;
* one SALU supports at most :data:`MAX_REGISTER_ACTIONS` pre-loaded register
  actions (Tofino: 4), selected per packet;
* one packet can access the register once (single read-modify-write).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

import numpy as np

#: Tofino SALUs pre-load at most four register actions.
MAX_REGISTER_ACTIONS = 4

#: Heaviest-bucket multiplicity above which execute_batch folds chains with
#: the action's chain_fn instead of iterating occurrence-rank rounds.  Below
#: this the rank loop's few tiny passes beat a full segmented scan.
_CHAIN_FOLD_THRESHOLD = 4


def segmented_cumsum(x: np.ndarray, seg_start: np.ndarray) -> np.ndarray:
    """Inclusive per-segment prefix sum over contiguous segments.

    ``seg_start`` is a boolean mask marking the first element of each
    segment; ``seg_start[0]`` must be True.
    """
    c = np.cumsum(x)
    starts = np.nonzero(seg_start)[0]
    seg_id = np.cumsum(seg_start) - 1
    base = np.where(starts > 0, c[starts - 1], 0)
    return c - base[seg_id]


def segmented_cumxor(x: np.ndarray, seg_start: np.ndarray) -> np.ndarray:
    """Inclusive per-segment prefix XOR (XOR is its own inverse, so the
    cumsum subtraction trick applies verbatim)."""
    c = np.bitwise_xor.accumulate(x)
    starts = np.nonzero(seg_start)[0]
    seg_id = np.cumsum(seg_start) - 1
    base = np.where(starts > 0, c[starts - 1], 0)
    return c ^ base[seg_id]


def segmented_cummax(x: np.ndarray, seg_start: np.ndarray) -> np.ndarray:
    """Inclusive per-segment running maximum via a Hillis-Steele doubling
    scan: ``O(log n)`` full-array passes instead of one pass per element."""
    n = len(x)
    out = np.array(x, dtype=np.int64, copy=True)
    pos = np.arange(n)
    starts = np.nonzero(seg_start)[0]
    first = starts[np.cumsum(seg_start) - 1]
    d = 1
    while d < n:
        can = pos - d >= first
        shifted = np.empty_like(out)
        shifted[d:] = out[:-d]
        out = np.where(can, np.maximum(out, shifted), out)
        d <<= 1
    return out


def segmented_compose_masks(
    A: np.ndarray, B: np.ndarray, seg_start: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Inclusive per-segment prefix composition of ``x -> (x & A) | B``.

    Mask pairs are closed under composition (``later . earlier`` is
    ``(Ae & Al, (Be & Al) | Bl)``), so a doubling scan folds an arbitrary
    AND/OR chain in ``O(log n)`` passes.
    """
    n = len(A)
    A = np.array(A, dtype=np.int64, copy=True)
    B = np.array(B, dtype=np.int64, copy=True)
    pos = np.arange(n)
    starts = np.nonzero(seg_start)[0]
    first = starts[np.cumsum(seg_start) - 1]
    d = 1
    while d < n:
        can = pos - d >= first
        Ae = np.empty_like(A)
        Be = np.empty_like(B)
        Ae[d:] = A[:-d]
        Be[d:] = B[:-d]
        A, B = (
            np.where(can, Ae & A, A),
            np.where(can, (Be & A) | B, B),
        )
        d <<= 1
    return A, B


def chain_all(ok: np.ndarray, seg_start: np.ndarray) -> np.ndarray:
    """Broadcast a per-element predicate to per-segment ALL (a chain is only
    usable as a unit -- one bad step poisons the whole bucket chain)."""
    starts = np.nonzero(seg_start)[0]
    counts = np.diff(np.append(starts, len(ok)))
    return np.repeat(np.logical_and.reduceat(ok, starts), counts)


def _occurrence_ranks(indices: np.ndarray) -> np.ndarray:
    """Per-element occurrence count of its value among earlier elements.

    ``[7, 3, 7, 7, 3] -> [0, 0, 1, 2, 1]``: the serialization order batched
    register execution must respect for duplicate buckets.
    """
    n = len(indices)
    order = np.argsort(indices, kind="stable")
    sorted_idx = indices[order]
    run_start = np.ones(n, dtype=bool)
    run_start[1:] = sorted_idx[1:] != sorted_idx[:-1]
    start_positions = np.nonzero(run_start)[0]
    run_id = np.cumsum(run_start) - 1
    ranks_sorted = np.arange(n) - start_positions[run_id]
    ranks = np.empty(n, dtype=np.int64)
    ranks[order] = ranks_sorted
    return ranks


@dataclass(frozen=True)
class RegisterAction:
    """A pre-loaded stateful operation.

    ``fn(stored_value, p1, p2) -> (new_value, result)`` where ``result`` is
    the value exported back to the PHV (Tofino register actions can output
    one word).  Values are treated as unsigned integers of the register's
    bucket width; the register clamps the stored value on write.

    ``batch_fn`` is the optional vectorized form used by
    :meth:`Register.execute_batch`: the same signature over equal-length
    ``int64`` arrays, returning ``(new_values, results)`` arrays.  It must be
    element-wise equivalent to ``fn``; actions without one fall back to a
    per-element scalar loop (exact, just slow).

    ``chain_fn`` optionally folds a whole duplicate-bucket chain at once:
    ``chain_fn(stored, p1, p2, seg_start, value_mask)`` over rows sorted so
    each bucket's packets are contiguous and in arrival order, with
    ``stored`` the bucket's pre-chain value repeated across its rows and
    ``seg_start`` marking chain starts.  It returns ``(new_values, results,
    ok)`` where ``new_values[i]`` is the stored value *after* row ``i``,
    ``results`` the per-row exports, and ``ok`` a per-row validity mask
    (``None`` = exact everywhere).  Chains with any invalid row are re-run
    through the rank loop, so a ``chain_fn`` may use a fast closed form that
    only holds under conditions it can check (no saturation/wrap).
    """

    name: str
    fn: Callable[[int, int, int], Tuple[int, int]]
    batch_fn: Optional[Callable] = None
    chain_fn: Optional[Callable] = None


class Register:
    """A fixed-configuration stateful array plus its SALU.

    ``size`` buckets of ``bit_width`` bits each.  Register actions are
    installed at construction time (compile-phase) via :meth:`load_action`;
    per-packet, :meth:`execute` selects one by name.
    """

    def __init__(self, size: int, bit_width: int = 16) -> None:
        if size <= 0 or size & (size - 1):
            raise ValueError("register size must be a positive power of two")
        if bit_width not in (1, 8, 16, 32):
            raise ValueError("bit_width must be one of 1, 8, 16, 32")
        self.size = size
        self.bit_width = bit_width
        self.value_mask = (1 << bit_width) - 1
        dtype = np.uint8 if bit_width <= 8 else (np.uint16 if bit_width == 16 else np.uint32)
        self._cells = np.zeros(size, dtype=dtype)
        self._actions: Dict[str, RegisterAction] = {}

    # -- compile-phase configuration -------------------------------------

    def load_action(self, action: RegisterAction) -> None:
        if action.name in self._actions:
            raise ValueError(f"register action {action.name!r} already loaded")
        if len(self._actions) >= MAX_REGISTER_ACTIONS:
            raise RuntimeError(
                f"SALU supports at most {MAX_REGISTER_ACTIONS} register actions"
            )
        self._actions[action.name] = action

    @property
    def action_names(self) -> Tuple[str, ...]:
        return tuple(self._actions)

    # -- per-packet execution ---------------------------------------------

    def execute(self, action_name: str, index: int, p1: int, p2: int) -> int:
        """Run a pre-loaded action on bucket ``index``; returns its result."""
        action = self._actions.get(action_name)
        if action is None:
            raise KeyError(
                f"register action {action_name!r} not pre-loaded "
                f"(have: {self.action_names})"
            )
        idx = index & (self.size - 1)
        stored = int(self._cells[idx])
        new_value, result = action.fn(stored, p1 & self.value_mask, p2 & self.value_mask)
        self._cells[idx] = new_value & self.value_mask
        return result & self.value_mask

    def execute_batch(
        self, action_name: str, indices: np.ndarray, p1: np.ndarray, p2: np.ndarray
    ) -> np.ndarray:
        """Run a pre-loaded action on a whole batch; returns the results.

        Exactly equivalent to calling :meth:`execute` per element in order,
        including duplicate-index read-modify-write chains: packets are
        grouped by their *occurrence rank* within their bucket (first touch
        of each bucket, second touch, ...).  Ranks are processed in order;
        within one rank every bucket is distinct, so the whole rank runs as
        one vectorized gather/compute/scatter.  The number of passes equals
        the heaviest bucket's multiplicity in the batch, not the batch size.
        """
        action = self._actions.get(action_name)
        if action is None:
            raise KeyError(
                f"register action {action_name!r} not pre-loaded "
                f"(have: {self.action_names})"
            )
        idx = np.asarray(indices, dtype=np.int64) & (self.size - 1)
        n = len(idx)
        results = np.zeros(n, dtype=np.int64)
        if n == 0:
            return results
        p1 = np.asarray(p1, dtype=np.int64) & self.value_mask
        p2 = np.asarray(p2, dtype=np.int64) & self.value_mask
        if action.batch_fn is None:
            # Exact fallback for custom actions loaded without a kernel.
            for i in range(n):
                results[i] = self.execute(action_name, int(idx[i]), int(p1[i]), int(p2[i]))
            return results
        ranks = _occurrence_ranks(idx)
        max_rank = int(ranks.max())
        if max_rank == 0:
            self._apply_rank(action, np.arange(n), idx, p1, p2, results)
            return results
        if action.chain_fn is not None and max_rank >= _CHAIN_FOLD_THRESHOLD:
            self._execute_chained(action, idx, p1, p2, results)
            return results
        self._execute_ranked(action, np.arange(n), idx, p1, p2, results)
        return results

    def _execute_chained(
        self,
        action: RegisterAction,
        idx: np.ndarray,
        p1: np.ndarray,
        p2: np.ndarray,
        results: np.ndarray,
    ) -> None:
        """Fold duplicate-bucket chains with the action's ``chain_fn``.

        Rows are stably sorted by bucket so each chain is contiguous in
        arrival order; the kernel computes every row's post-state and export
        in a constant (or logarithmic) number of full-array passes.  Chains
        the kernel flags invalid fall back to the exact rank loop -- chains
        are whole buckets, so the two groups touch disjoint cells and order
        between them is immaterial.
        """
        n = len(idx)
        order = np.argsort(idx, kind="stable")
        sorted_idx = idx[order]
        seg_start = np.ones(n, dtype=bool)
        seg_start[1:] = sorted_idx[1:] != sorted_idx[:-1]
        stored = self._cells[sorted_idx].astype(np.int64)
        new_values, chain_results, ok = action.chain_fn(
            stored, p1[order], p2[order], seg_start, self.value_mask
        )
        last = np.empty(n, dtype=bool)
        last[:-1] = seg_start[1:]
        last[-1] = True
        if ok is None:
            write = last
            good = slice(None)
            bad = None
        else:
            write = last & ok
            good = ok
            bad = ~ok
        self._cells[sorted_idx[write]] = (
            new_values[write] & self.value_mask
        ).astype(self._cells.dtype)
        results[order[good]] = chain_results[good] & self.value_mask
        if bad is not None and bad.any():
            # order[] is (bucket, arrival) sorted; within each bad bucket the
            # arrival order is intact, which is all the rank loop needs.
            self._execute_ranked(action, order[bad], idx, p1, p2, results)

    def _execute_ranked(
        self,
        action: RegisterAction,
        rows: np.ndarray,
        idx: np.ndarray,
        p1: np.ndarray,
        p2: np.ndarray,
        results: np.ndarray,
    ) -> None:
        """Exact occurrence-rank rounds restricted to ``rows`` (which must
        preserve arrival order within each bucket)."""
        if len(rows) == 0:
            return
        ranks = _occurrence_ranks(idx[rows])
        max_rank = int(ranks.max())
        by_rank = np.argsort(ranks, kind="stable")
        starts = np.searchsorted(ranks[by_rank], np.arange(max_rank + 2))
        for r in range(max_rank + 1):
            sel = rows[by_rank[starts[r] : starts[r + 1]]]
            self._apply_rank(action, sel, idx, p1, p2, results)

    def _apply_rank(
        self,
        action: RegisterAction,
        rows: np.ndarray,
        idx: np.ndarray,
        p1: np.ndarray,
        p2: np.ndarray,
        results: np.ndarray,
    ) -> None:
        buckets = idx[rows]
        stored = self._cells[buckets].astype(np.int64)
        new_values, rank_results = action.batch_fn(stored, p1[rows], p2[rows])
        self._cells[buckets] = (new_values & self.value_mask).astype(self._cells.dtype)
        results[rows] = rank_results & self.value_mask

    # -- control-plane access ---------------------------------------------

    def read(self, index: int) -> int:
        return int(self._cells[index & (self.size - 1)])

    def _check_range(self, start: int, length: int) -> None:
        if length < 0:
            raise IndexError(f"negative range length {length}")
        if not 0 <= start <= self.size or start + length > self.size:
            raise IndexError(f"range [{start}, {start + length}) out of bounds")

    def read_range(self, start: int, length: int) -> np.ndarray:
        """Control-plane bulk read of ``[start, start+length)`` (copy)."""
        self._check_range(start, length)
        return self._cells[start : start + length].astype(np.int64)

    def write(self, index: int, value: int) -> None:
        self._cells[index & (self.size - 1)] = value & self.value_mask

    def reset_range(self, start: int, length: int) -> None:
        """Zero ``[start, start+length)`` -- epoch rollover / task recycle."""
        self._check_range(start, length)
        self._cells[start : start + length] = 0

    def write_range(self, start: int, values: np.ndarray) -> None:
        """Control-plane bulk write of ``[start, start+len(values))`` --
        the restore side of a rolled-back register reset."""
        values = np.asarray(values, dtype=np.int64)
        self._check_range(start, len(values))
        self._cells[start : start + len(values)] = (
            values & self.value_mask
        ).astype(self._cells.dtype)

    def snapshot_cells(self) -> np.ndarray:
        """Copy of the full cell array as ``int64`` (mergeable snapshot)."""
        return self._cells.astype(np.int64)

    def snapshot_into(self, out: np.ndarray) -> None:
        """Copy the cells into a caller-provided native-dtype view.

        The persistent shard pool points ``out`` at a shared-memory
        window so worker register state crosses the process boundary as a
        single memcpy instead of a pickled array.
        """
        if out.shape != self._cells.shape or out.dtype != self._cells.dtype:
            raise ValueError(
                f"snapshot view is {out.dtype}[{out.shape}], register holds "
                f"{self._cells.dtype}[{self._cells.shape}]"
            )
        out[:] = self._cells

    def load_cells(self, cells: np.ndarray) -> None:
        """Overwrite the full cell array (the merge side of sharded runs)."""
        cells = np.asarray(cells, dtype=np.int64)
        if len(cells) != self.size:
            raise ValueError(
                f"cell array has length {len(cells)}, register holds {self.size}"
            )
        self._cells[:] = (cells & self.value_mask).astype(self._cells.dtype)

    def reset(self) -> None:
        self._cells[:] = 0

    @property
    def total_bits(self) -> int:
        return self.size * self.bit_width

    def __repr__(self) -> str:
        return f"Register(size={self.size}, bit_width={self.bit_width})"
