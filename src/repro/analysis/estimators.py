"""Control-plane estimators.

The math that turns raw data-plane state (register arrays, bitmaps, coupon
counts) into answers.  Shared by the standalone sketches and the CMU-hosted
FlyMon algorithms so accuracy comparisons never diverge on estimator details.
"""

from __future__ import annotations

import math
from typing import Dict, Sequence

import numpy as np

# ---------------------------------------------------------------------------
# HyperLogLog
# ---------------------------------------------------------------------------


def alpha_m(m: int) -> float:
    """HLL bias-correction constant for ``m`` registers."""
    if m == 16:
        return 0.673
    if m == 32:
        return 0.697
    if m == 64:
        return 0.709
    return 0.7213 / (1.0 + 1.079 / m)


def rho32(value: int, skip_bits: int = 0) -> int:
    """1-based position of the leftmost 1 in a 32-bit word after discarding
    ``skip_bits`` high bits; ``(32 - skip_bits) + 1`` when all zero."""
    usable = 32 - skip_bits
    value &= (1 << usable) - 1
    if value == 0:
        return usable + 1
    return usable - value.bit_length() + 1


def rho32_batch(values: np.ndarray, skip_bits: int = 0) -> np.ndarray:
    """Vectorized :func:`rho32` over an integer array.

    ``np.frexp`` on exact float64 integers yields the bit length directly
    (``v = m * 2**e`` with ``0.5 <= m < 1``), which is exact for the 32-bit
    values the data path produces.
    """
    usable = 32 - skip_bits
    v = np.asarray(values, dtype=np.int64) & ((1 << usable) - 1)
    _, exp = np.frexp(v.astype(np.float64))
    return np.where(v == 0, usable + 1, usable - exp + 1).astype(np.int64)


def hll_estimate(registers: Sequence[int]) -> float:
    """Bias-corrected HLL cardinality with small/large-range corrections."""
    regs = np.asarray(registers, dtype=np.float64)
    m = len(regs)
    if m == 0:
        return 0.0
    raw = alpha_m(m) * m * m / float(np.sum(2.0 ** (-regs)))
    if raw <= 2.5 * m:
        zeros = int(np.count_nonzero(regs == 0))
        if zeros:
            return m * math.log(m / zeros)  # linear-counting regime
        return raw
    two32 = 2.0**32
    if raw > two32 / 30.0:
        return -two32 * math.log(1.0 - raw / two32)
    return raw


# ---------------------------------------------------------------------------
# Linear counting
# ---------------------------------------------------------------------------


def linear_counting_estimate(num_bits: int, zero_bits: int) -> float:
    """``-m ln(V)`` with ``V`` the zero-bit fraction; upper bound if saturated."""
    if num_bits <= 0:
        return 0.0
    if zero_bits <= 0:
        return float(num_bits * math.log(num_bits))
    return -num_bits * math.log(zero_bits / num_bits)


# ---------------------------------------------------------------------------
# Coupon collector (BeauCoup)
# ---------------------------------------------------------------------------


def harmonic(m: int) -> float:
    """The m-th harmonic number."""
    return sum(1.0 / i for i in range(1, m + 1))


def tune_coupon_probability(num_coupons: int, threshold: int) -> float:
    """Per-coupon draw probability so that collecting all ``num_coupons``
    coupons takes ``threshold`` distinct values in expectation (BeauCoup's
    query compiler), clamped to a feasible total probability."""
    if threshold <= 0:
        raise ValueError("threshold must be positive")
    p = harmonic(num_coupons) / threshold
    return min(p, 1.0 / num_coupons)


def coupon_collector_inversion(collected: int, num_coupons: int, prob: float) -> float:
    """Expected distinct values needed to collect ``collected`` of
    ``num_coupons`` coupons, each drawn with probability ``prob``."""
    if not 0 <= collected <= num_coupons:
        raise ValueError("collected out of range")
    if prob <= 0:
        return 0.0
    return sum(1.0 / ((num_coupons - i) * prob) for i in range(collected))


# ---------------------------------------------------------------------------
# MRAC expectation-maximization
# ---------------------------------------------------------------------------


def mrac_em(
    counter_values: Sequence[int],
    num_buckets: int,
    iterations: int = 50,
    max_size: int = 512,
) -> Dict[int, float]:
    """EM estimate of the flow-size distribution from an MRAC counter array.

    Follows Kumar et al.'s Poisson collision model: bucket loads are
    Poisson(n/m), and each non-zero counter value is explained as a mixture
    of compositions of up to three colliding flow sizes (4-way collisions
    are negligible at the load factors the experiments use).  A composition
    weighs Poisson(k; n/m) x its multinomial ordering factor x the product
    of its parts' size probabilities.

    The estimate starts on the distinct observed values <= ``max_size`` and
    every composition part comes from the previous estimate's support, so the
    support never leaves those values: their compositions are listed once,
    and each iteration only re-weights that table.

    Returns ``{flow_size: estimated_flow_count}``.
    """
    cells = np.asarray(counter_values, dtype=np.int64)
    values, counts = np.unique(cells[cells > 0], return_counts=True)
    small = values <= max_size
    sizes, buckets = values[small], counts[small]
    n = sizes.size
    # Parts are indices into ``sizes`` sorted a <= b <= c; index n is an
    # absent part, of size 0 and probability 1.
    i, j = np.triu_indices(n)
    # Each pair takes every third part >= its second that keeps the sum in range.
    room = sizes.max(initial=0) - sizes[i] - sizes[j]
    room = np.maximum(np.searchsorted(sizes, room, "right") - j, 0)
    t = np.repeat(np.arange(i.size), room)
    third = j[t] + np.arange(t.size) - np.repeat(np.cumsum(room) - room, room)
    absent = np.full(n + i.size, n)
    a = np.concatenate([np.arange(n), i, i[t]])
    b = np.concatenate([absent[:n], j, j[t]])
    c = np.concatenate([absent, third])
    total = np.append(sizes, 0)[[a, b, c]].sum(axis=0)
    row = np.minimum(np.searchsorted(sizes, total), n - 1)
    arity = np.repeat([1, 2, 3], [n, i.size, t.size])
    table = np.stack([row, arity, a, b, c])[:, sizes[row] == total]
    # Rows in the order the compositions of each value are enumerated: the
    # value itself, then pairs and triples by ascending parts.
    row, arity, a, b, c = table[:, np.lexsort(table[3::-1])]
    # Ordering factor arity! / run!, the run being the equal sorted parts.
    fact = np.array([1.0, 1.0, 2.0, 6.0])
    mult = fact[arity] / fact[1 + (a == b) + ((b == c) & (arity == 3))]
    parts = np.stack([a, b, c], axis=1)
    single = np.flatnonzero(arity == 1)
    row_buckets = buckets[row].astype(np.float64)

    phi = buckets.astype(np.float64)
    p = np.ones(n + 1)
    for _ in range(iterations):
        n_flows = phi.sum()
        if n_flows <= 0:
            break
        lam = n_flows / num_buckets
        poisson = np.array(
            [math.exp(-lam) * lam**k / math.factorial(k) for k in range(4)]
        )
        np.divide(phi, n_flows, out=p[:n])
        pp = p[parts]
        w = poisson[arity] * mult * pp[:, 0] * pp[:, 1] * pp[:, 2]
        z = np.bincount(row, w, n)
        dead = z <= 0
        if dead.any():  # no weighted composition: one flow of that size
            z[dead] = 1.0
            w[single[dead]] = 1.0
        share = row_buckets * w / z[row]
        phi = np.bincount(parts.ravel(), np.repeat(share, 3), n + 1)[:n]
        phi[phi <= 1e-9] = 0.0
    keep = phi > 0
    out = dict(zip(sizes[keep].tolist(), phi[keep].tolist()))
    large = counts[~small].astype(np.float64)
    out.update(zip(values[~small].tolist(), large.tolist()))
    return out
