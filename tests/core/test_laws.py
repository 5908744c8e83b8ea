"""The cell-law table (repro.core.laws) and its folds, case by case."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.core.laws import (
    LAW_MAX,
    LAW_NONE,
    LAW_OR,
    LAW_SUM,
    LAW_XOR,
    MERGEABLE,
    cell_law,
    fold,
)
from repro.core.operations import OP_AND_OR, OP_COND_ADD, OP_MAX, OP_XOR
from repro.core.params import (
    ConstParam,
    FieldParam,
    IdentityProcessor,
    ResultParam,
)


def _plan(op, p2, chained=False):
    p1 = ResultParam(0, 0) if chained else ConstParam(1)
    return SimpleNamespace(
        config=SimpleNamespace(
            op=op, p1=p1, p2=p2, p1_processor=IdentityProcessor()
        )
    )


def _p2(kind, mask):
    if kind == "full":
        return ConstParam(mask)  # every value bit set
    if kind == "partial":
        return ConstParam(mask >> 1)  # a non-zero constant missing the top bit
    if kind == "zero":
        return ConstParam(0)
    return FieldParam("pkt_bytes")  # not a constant


#: (op, p2 kind, bucket bits) -> expected law for an unchained row.
TABLE = [
    (OP_COND_ADD, "full", 16, LAW_SUM),
    (OP_COND_ADD, "full", 4, LAW_NONE),
    (OP_COND_ADD, "partial", 16, LAW_NONE),
    (OP_COND_ADD, "partial", 4, LAW_NONE),
    (OP_COND_ADD, "field", 16, LAW_NONE),
    (OP_COND_ADD, "field", 4, LAW_NONE),
    (OP_MAX, "full", 16, LAW_MAX),
    (OP_MAX, "full", 4, LAW_MAX),
    (OP_MAX, "partial", 16, LAW_MAX),
    (OP_MAX, "partial", 4, LAW_MAX),
    (OP_MAX, "field", 16, LAW_MAX),
    (OP_MAX, "field", 4, LAW_MAX),
    (OP_AND_OR, "full", 16, LAW_OR),
    (OP_AND_OR, "full", 4, LAW_OR),
    (OP_AND_OR, "partial", 16, LAW_OR),
    (OP_AND_OR, "partial", 4, LAW_OR),
    (OP_AND_OR, "zero", 16, LAW_NONE),
    (OP_AND_OR, "field", 16, LAW_NONE),
    (OP_AND_OR, "field", 4, LAW_NONE),
    (OP_XOR, "full", 16, LAW_XOR),
    (OP_XOR, "full", 4, LAW_XOR),
    (OP_XOR, "partial", 16, LAW_XOR),
    (OP_XOR, "partial", 4, LAW_XOR),
    (OP_XOR, "field", 16, LAW_XOR),
    (OP_XOR, "field", 4, LAW_XOR),
]


@pytest.mark.parametrize("op,kind,bits,expected", TABLE)
def test_cell_law_table(op, kind, bits, expected):
    mask = (1 << bits) - 1
    assert cell_law(_plan(op, _p2(kind, mask)), bits, mask) == expected


@pytest.mark.parametrize("op,kind,bits,expected", TABLE)
def test_chained_rows_have_no_law(op, kind, bits, expected):
    mask = (1 << bits) - 1
    plan = _plan(op, _p2(kind, mask), chained=True)
    assert cell_law(plan, bits, mask) == LAW_NONE


def test_mergeable_is_exactly_the_four_cell_laws():
    assert MERGEABLE == {LAW_SUM, LAW_MAX, LAW_OR, LAW_XOR}
    assert LAW_NONE not in MERGEABLE


def _arrays(dtype, mask, seed=3):
    rng = np.random.default_rng(seed)
    acc = rng.integers(0, mask + 1, size=257, dtype=np.int64).astype(dtype)
    part = rng.integers(0, mask + 1, size=257, dtype=np.int64).astype(dtype)
    return acc, part


@pytest.mark.parametrize("dtype", [np.int64, np.uint32, np.uint16])
@pytest.mark.parametrize(
    "law,reference",
    [
        (LAW_SUM, lambda a, b, m: (a.astype(np.int64) + b) % (m + 1)),
        (LAW_MAX, lambda a, b, m: np.maximum(a, b)),
        (LAW_OR, lambda a, b, m: np.bitwise_or(a, b)),
        (LAW_XOR, lambda a, b, m: np.bitwise_xor(a, b)),
    ],
    ids=["sum", "max", "or", "xor"],
)
def test_fold_matches_numpy(law, reference, dtype):
    mask = 0xFFFF
    acc, part = _arrays(dtype, mask)
    got = fold(law, acc, part, mask)
    np.testing.assert_array_equal(
        got.astype(np.int64), reference(acc, part, mask).astype(np.int64)
    )


@pytest.mark.parametrize("dtype", [np.int64, np.uint16])
def test_sum_fold_wraps_modulo_register_width(dtype):
    mask = 0xFFFF
    acc = np.array([0xFFFF, 0xFFF0, 5], dtype=dtype)
    part = np.array([2, 0x20, 3], dtype=dtype)
    got = fold(LAW_SUM, acc, part, mask)
    assert got.astype(np.int64).tolist() == [1, 0x10, 8]


def test_folding_shards_in_any_grouping_is_exact():
    """Three parts folded left-to-right equal one modular total."""
    mask = 0xFF
    parts = [np.array([200, 1]), np.array([100, 2]), np.array([250, 3])]
    acc = parts[0]
    for part in parts[1:]:
        acc = fold(LAW_SUM, acc, part, mask)
    assert acc.tolist() == [(200 + 100 + 250) % 256, 6]


def test_fold_rejects_rows_without_a_law():
    with pytest.raises(ValueError):
        fold(LAW_NONE, np.zeros(2), np.zeros(2), 0xFF)
