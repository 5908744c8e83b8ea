"""Unit tests for the control-plane estimators."""

import math
from typing import Dict, List, Sequence, Tuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.entropy import entropy_from_distribution, normalized_entropy
from repro.analysis.estimators import (
    alpha_m,
    coupon_collector_inversion,
    harmonic,
    hll_estimate,
    linear_counting_estimate,
    mrac_em,
    rho32,
    tune_coupon_probability,
)
from repro.core.controller import FlyMonController
from repro.core.task import AttributeSpec, MeasurementTask
from repro.traffic import KEY_5TUPLE, zipf_trace


class TestRho32:
    def test_all_zero(self):
        assert rho32(0) == 33
        assert rho32(0, skip_bits=16) == 17

    def test_msb_set(self):
        assert rho32(0x80000000) == 1

    def test_leading_zeros(self):
        assert rho32(0x00008000) == 17

    def test_skip_bits_window(self):
        # Only the low 16 bits are considered with skip_bits=16.
        assert rho32(0xFFFF0000, skip_bits=16) == 17
        assert rho32(0x00008000, skip_bits=16) == 1


class TestAlphaM:
    def test_known_small_values(self):
        assert alpha_m(16) == 0.673
        assert alpha_m(64) == 0.709

    def test_large_m_limit(self):
        assert 0.71 < alpha_m(1 << 14) < 0.7213


class TestHllEstimate:
    def test_empty_registers(self):
        assert hll_estimate(np.zeros(64)) < 5

    def test_scaling(self):
        """Synthetic registers for n items: E[max rho] ~ log2(n/m) + const."""
        m = 1024
        rng = np.random.default_rng(3)
        for n in (5_000, 50_000):
            per_bucket = n // m
            regs = rng.geometric(0.5, size=(m, per_bucket)).max(axis=1)
            est = hll_estimate(regs)
            assert 0.5 * n < est < 2.0 * n

    def test_zero_length(self):
        assert hll_estimate([]) == 0.0


class TestLinearCounting:
    def test_basic_inversion(self):
        # 1000 bits, 393 zeros -> -1000 ln(0.393) ~ 934
        est = linear_counting_estimate(1000, 393)
        assert est == pytest.approx(-1000 * math.log(0.393))

    def test_saturated(self):
        assert linear_counting_estimate(100, 0) == pytest.approx(100 * math.log(100))

    def test_empty(self):
        assert linear_counting_estimate(0, 0) == 0.0
        assert linear_counting_estimate(64, 64) == pytest.approx(0.0)


class TestCoupons:
    def test_harmonic(self):
        assert harmonic(1) == 1.0
        assert harmonic(3) == pytest.approx(1 + 0.5 + 1 / 3)

    def test_tuning_hits_threshold_in_expectation(self):
        m, threshold = 16, 500
        p = tune_coupon_probability(m, threshold)
        expected = coupon_collector_inversion(m, m, p)
        assert expected == pytest.approx(threshold, rel=0.01)

    def test_tuning_clamped_for_tiny_thresholds(self):
        p = tune_coupon_probability(16, 1)
        assert p <= 1 / 16

    def test_inversion_monotone(self):
        p = tune_coupon_probability(16, 500)
        values = [coupon_collector_inversion(j, 16, p) for j in range(17)]
        assert values == sorted(values)
        assert values[0] == 0.0

    def test_inversion_validation(self):
        with pytest.raises(ValueError):
            coupon_collector_inversion(17, 16, 0.01)


class TestMracEm:
    def test_empty(self):
        assert mrac_em([], 64) == {}

    def test_no_collisions_is_identity(self):
        counters = [3] * 10 + [0] * 1000
        phi = mrac_em(counters, 1010, iterations=5)
        assert phi.get(3, 0) == pytest.approx(10, rel=0.2)

    def test_collision_splitting(self):
        """At high load, buckets of value 2 are mostly two colliding 1s."""
        rng = np.random.default_rng(5)
        m, n = 256, 256  # load factor 1 with all flows of size 1
        buckets = np.bincount(rng.integers(0, m, size=n), minlength=m)
        phi = mrac_em(buckets, m, iterations=30)
        est_flows = sum(phi.values())
        assert abs(est_flows - n) / n < 0.15
        # Essentially all estimated flows should have size 1.
        assert phi.get(1, 0) / est_flows > 0.9

    def test_large_values_preserved(self):
        phi = mrac_em([10_000, 1, 1], 64, max_size=100)
        assert phi.get(10_000, 0) >= 1


# ---------------------------------------------------------------------------
# Reference MRAC EM: the original per-value enumeration, kept verbatim as the
# oracle for the table-driven ``mrac_em``.
# ---------------------------------------------------------------------------


def reference_mrac_em(
    counter_values: Sequence[int],
    num_buckets: int,
    iterations: int = 50,
    max_size: int = 512,
) -> Dict[int, float]:
    """EM estimate of the flow-size distribution from an MRAC counter array.

    Follows Kumar et al.'s Poisson collision model: bucket loads are
    Poisson(n/m), and each non-zero counter value is explained as a mixture
    of compositions of up to three colliding flow sizes (4-way collisions
    are negligible at the load factors the experiments use).

    Returns ``{flow_size: estimated_flow_count}``.
    """
    values, counts = np.unique(
        np.asarray([v for v in counter_values if v > 0], dtype=np.int64),
        return_counts=True,
    )
    hist = {int(v): int(c) for v, c in zip(values, counts)}
    if not hist:
        return {}
    small = {v: c for v, c in hist.items() if v <= max_size}
    large = {v: c for v, c in hist.items() if v > max_size}

    phi: Dict[int, float] = {v: float(c) for v, c in small.items()}
    for _ in range(iterations):
        n_flows = sum(phi.values())
        if n_flows <= 0:
            break
        lam = n_flows / num_buckets
        p_size = {s: phi[s] / n_flows for s in phi}
        new_phi: Dict[int, float] = {}
        for v, buckets in small.items():
            comps = _compositions(v, p_size, lam)
            z = sum(w for _, w in comps)
            if z <= 0:
                comps, z = [((v,), 1.0)], 1.0
            for sizes, w in comps:
                share = buckets * w / z
                for s in sizes:
                    new_phi[s] = new_phi.get(s, 0.0) + share
        phi = {s: c for s, c in new_phi.items() if c > 1e-9}
    for v, c in large.items():
        phi[v] = phi.get(v, 0.0) + c
    return phi


def _compositions(
    value: int, p_size: Dict[int, float], lam: float, max_parts: int = 3
) -> List[Tuple[Tuple[int, ...], float]]:
    """Weighted compositions of ``value`` from <= ``max_parts`` flow sizes.

    Weight = Poisson(k; lam) arrival probability x product of size
    probabilities x multinomial ordering factor (sorted tuples enumerated).
    """
    sizes = sorted(p_size)
    out: List[Tuple[Tuple[int, ...], float]] = []

    def poisson(k: int) -> float:
        return math.exp(-lam) * lam**k / math.factorial(k)

    if value in p_size:
        out.append(((value,), poisson(1) * p_size[value]))
    if max_parts >= 2:
        for a in sizes:
            b = value - a
            if b < a:
                break
            if b in p_size:
                mult = 1.0 if a == b else 2.0
                out.append(((a, b), poisson(2) * mult * p_size[a] * p_size[b]))
    if max_parts >= 3:
        for i, a in enumerate(sizes):
            if 3 * a > value:
                break
            for b in sizes[i:]:
                c = value - a - b
                if c < b:
                    break
                if c in p_size:
                    if a == b == c:
                        mult = 1.0
                    elif a == b or b == c:
                        mult = 3.0
                    else:
                        mult = 6.0
                    out.append(
                        ((a, b, c), poisson(3) * mult * p_size[a] * p_size[b] * p_size[c])
                    )
    return out


def assert_matches_reference(counter_values, num_buckets, **kwargs):
    expected = reference_mrac_em(counter_values, num_buckets, **kwargs)
    got = mrac_em(counter_values, num_buckets, **kwargs)
    assert list(got) == list(expected)
    for size, count in expected.items():
        assert got[size] == pytest.approx(count, rel=1e-9, abs=0), size
    assert entropy_from_distribution(got) == pytest.approx(
        entropy_from_distribution(expected), rel=1e-12, abs=0
    )
    # The support never leaves the observed values: the table rests on it.
    assert set(got) <= {int(v) for v in counter_values}
    return got


class TestMracEmOracle:
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        load=st.floats(min_value=0.1, max_value=3.0),
        num_buckets=st.sampled_from([32, 128, 512]),
        max_size=st.sampled_from([4, 16, 512]),
        iterations=st.sampled_from([0, 1, 50]),
    )
    @settings(max_examples=100, derandomize=True, deadline=None)
    def test_random_loads(self, seed, load, num_buckets, max_size, iterations):
        """Zipf flow sizes hashed at load 0.1-3, on both sides of max_size."""
        rng = np.random.default_rng(seed)
        sizes = rng.zipf(1.6, size=max(1, round(load * num_buckets)))
        cells = np.bincount(
            rng.integers(0, num_buckets, size=sizes.size),
            weights=sizes,
            minlength=num_buckets,
        ).astype(np.int64)
        assert_matches_reference(
            cells, num_buckets, iterations=iterations, max_size=max_size
        )

    @pytest.mark.parametrize("cells", [[], [0] * 64])
    def test_empty_and_all_zero(self, cells):
        assert assert_matches_reference(cells, 64) == {}

    def test_only_values_above_max_size(self):
        got = assert_matches_reference([0, 700, 600, 700], 64)
        assert got == {600: 1.0, 700: 2.0}

    def test_flymon_mrac_cells(self):
        controller = FlyMonController(num_groups=1)
        handle = controller.add_task(
            MeasurementTask(
                key=KEY_5TUPLE,
                attribute=AttributeSpec.frequency(),
                memory=2048,
                algorithm="mrac",
            )
        )
        controller.process_trace(zipf_trace(num_flows=2_000, num_packets=10_000, seed=77))
        cells = handle.algorithm.rows[0].read()
        assert_matches_reference(cells, len(cells))

    def test_underflowing_weights_fall_back_to_one_flow(self):
        """At load ~805 exp(-lambda) underflows, every weight is 0 and each
        value is explained as one flow of that size."""
        got = assert_matches_reference([1] * 800 + [2] * 5, 1, iterations=3)
        assert got == {1: 800.0, 2: 5.0}


class TestEntropyHelpers:
    def test_uniform_distribution(self):
        # 8 flows of size 1: H = ln 8.
        assert entropy_from_distribution({1: 8}) == pytest.approx(math.log(8))

    def test_single_flow(self):
        assert entropy_from_distribution({100: 1}) == 0.0

    def test_ignores_non_positive(self):
        assert entropy_from_distribution({0: 5, -1: 2}) == 0.0

    def test_normalized_bounds(self):
        assert normalized_entropy({1: 8}) == pytest.approx(1.0)
        assert normalized_entropy({5: 1}) == 0.0
