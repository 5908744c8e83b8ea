"""Cell merge laws: how a CMU row's register cells combine across replicas.

FlyMon's reduced operation set decides, row by row, whether the register
state of disjoint packet streams -- row shards of one trace, or the member
switches of a fabric -- can be recombined exactly, cell by cell:

* ``sum`` -- a Cond-ADD whose ``p2`` is a constant covering every value bit
  never blocks an update, so each cell is the modular sum of its
  increments and the merge is ``(acc + part) mod 2^w`` (CMS, MRAC, ...).
  Wrap-around commutes with the sum; only a counter parking *exactly* on
  the all-ones value would diverge, which is why the law requires >= 8-bit
  buckets;
* ``max`` -- MAX registers merge by element-wise maximum (HLL, SuMax max);
* ``or`` -- an AND-OR row whose ``p2`` is a non-zero constant only ever
  ORs, and OR-only composition is element-wise OR (Bloom, BeauCoup);
* ``xor`` -- XOR registers merge by element-wise XOR.

Every other row has no cell law (:data:`LAW_NONE`): finite-bound Cond-ADD
towers, mixed AND-OR, and *chained* rows whose parameters read upstream CMU
exports (``ResultParam``, ``MinResultsParam``, bloom-coupled
inter-arrival), which depend on the order of the whole packet stream.
Callers must give such a row the whole stream.

Alarm thresholds do not change how cells update, so :func:`cell_law`
ignores them; a caller that must reproduce the exact per-packet digest
stream adds its own check.
"""

from __future__ import annotations

import numpy as np

LAW_SUM = "sum"
LAW_MAX = "max"
LAW_OR = "or"
LAW_XOR = "xor"
LAW_NONE = "none"

#: Laws whose cells fold exactly across disjoint packet streams.
MERGEABLE = frozenset({LAW_SUM, LAW_MAX, LAW_OR, LAW_XOR})


def _chained(config) -> bool:
    """Whether a row's inputs depend on upstream CMU exports."""
    # Imported here: repro.dataplane imports this module while
    # repro.core.params is still importing repro.dataplane.
    from repro.core.params import InterarrivalProcessor, MinResultsParam, ResultParam

    if isinstance(config.p1, (ResultParam, MinResultsParam)):
        return True
    if isinstance(config.p2, (ResultParam, MinResultsParam)):
        return True
    processor = config.p1_processor
    return isinstance(processor, InterarrivalProcessor) and processor.bloom_group >= 0


def cell_law(plan, bucket_bits: int, value_mask: int) -> str:
    """The cell law of one installed task row (see module docs)."""
    from repro.core.operations import OP_AND_OR, OP_COND_ADD, OP_MAX, OP_XOR
    from repro.core.params import ConstParam

    config = plan.config
    if _chained(config):
        return LAW_NONE
    if config.op == OP_MAX:
        return LAW_MAX
    if config.op == OP_XOR:
        return LAW_XOR
    constant = config.p2.constant if isinstance(config.p2, ConstParam) else None
    if constant is None:
        return LAW_NONE
    if config.op == OP_COND_ADD:
        if (constant & value_mask) == value_mask and bucket_bits >= 8:
            return LAW_SUM
    elif config.op == OP_AND_OR:
        if constant & value_mask:
            return LAW_OR
    return LAW_NONE


def fold(law: str, acc: np.ndarray, part: np.ndarray, value_mask: int) -> np.ndarray:
    """Combine two cell arrays of the same row under ``law``."""
    if law == LAW_SUM:
        return (acc + part) & value_mask
    if law == LAW_MAX:
        return np.maximum(acc, part)
    if law == LAW_OR:
        return acc | part
    if law == LAW_XOR:
        return acc ^ part
    raise ValueError(f"law {law!r} has no cell fold")
