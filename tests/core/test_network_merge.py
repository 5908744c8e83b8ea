"""NetworkCoordinator merge semantics, pinned exactly.

The fleet shares one ``seed_base``, so per-switch registers are mergeable
bit-for-bit: HLL merges by element-wise max (union, no double counting),
existence merges by union, and frequency sums across the edge-partitioned
observation model.
"""

import numpy as np

from repro.core.algorithms.distinct import FlyMonHll
from repro.core.network import NetworkCoordinator
from repro.core.task import AttributeSpec, MeasurementTask
from repro.traffic import KEY_SRC_IP, Trace, zipf_trace
from repro.traffic.packet import PACKET_FIELDS


def hll_task(memory=1024):
    return MeasurementTask(
        key=KEY_SRC_IP,
        attribute=AttributeSpec.distinct(KEY_SRC_IP),
        memory=memory,
        depth=1,
        algorithm="hll",
    )


def bloom_task(memory=4096):
    return MeasurementTask(
        key=KEY_SRC_IP,
        attribute=AttributeSpec.existence(),
        memory=memory,
        depth=3,
        algorithm="bloom",
    )


def cms_task(memory=4096):
    return MeasurementTask(
        key=KEY_SRC_IP,
        attribute=AttributeSpec.frequency(),
        memory=memory,
        depth=3,
        algorithm="cms",
    )


def split_by_parity(trace):
    """Partition packets by src_ip parity: each packet lands on exactly
    one 'edge switch', the observation model query_sum assumes."""
    parity = trace.columns["src_ip"] % 2
    halves = []
    for want in (0, 1):
        mask = parity == want
        halves.append(
            Trace({f: trace.columns[f][mask] for f in PACKET_FIELDS})
        )
    return halves


class TestHllMerge:
    def test_elementwise_max_equals_union_exactly(self):
        """Merging two partitions is bit-identical to one switch that saw
        the whole trace -- same seed_base, same buckets, same ranks."""
        trace = zipf_trace(num_flows=1500, num_packets=6000, seed=81)
        left, right = split_by_parity(trace)

        pair = NetworkCoordinator(["a", "b"])
        pair_handle = pair.deploy_everywhere(hll_task())
        pair.process({"a": left, "b": right})

        solo = NetworkCoordinator(["solo"])
        solo_handle = solo.deploy_everywhere(hll_task())
        solo.process({"solo": trace})

        def stored(handle, name):
            return np.asarray(handle.per_switch[name].algorithm.rows[0].read())

        merged_cells = np.maximum(stored(pair_handle, "a"), stored(pair_handle, "b"))
        solo_cells = stored(solo_handle, "solo")
        assert merged_cells.tolist() == solo_cells.tolist()
        merged_ranks = np.maximum(
            FlyMonHll.ranks(stored(pair_handle, "a")),
            FlyMonHll.ranks(stored(pair_handle, "b")),
        )
        assert merged_ranks.tolist() == FlyMonHll.ranks(solo_cells).tolist()
        assert (
            pair_handle.merged_cardinality()
            == solo_handle.merged_cardinality()
        )

    def test_overlap_counts_once(self):
        """Flows seen by both switches contribute once: the merged estimate
        stays below the double-counting sum of per-switch estimates."""
        shared = zipf_trace(num_flows=1200, num_packets=5000, seed=82)
        net = NetworkCoordinator(["a", "b"])
        handle = net.deploy_everywhere(hll_task())
        net.process({"a": shared, "b": shared})

        per_switch = [
            handle.per_switch[name].algorithm.estimate() for name in ("a", "b")
        ]
        merged = handle.merged_cardinality()
        # Identical traffic => identical registers => merge is idempotent.
        assert merged == per_switch[0] == per_switch[1]
        assert merged < sum(per_switch)


class TestExistenceUnion:
    def test_contains_anywhere_is_the_union(self):
        trace = zipf_trace(num_flows=600, num_packets=3000, seed=83)
        left, right = split_by_parity(trace)
        net = NetworkCoordinator(["a", "b"])
        handle = net.deploy_everywhere(bloom_task())
        net.process({"a": left, "b": right})

        a = handle.per_switch["a"].algorithm
        b = handle.per_switch["b"].algorithm
        for flow in list(trace.flow_sizes(KEY_SRC_IP))[:50]:
            assert handle.contains_anywhere(flow) == (
                a.contains(flow) or b.contains(flow)
            )
            assert handle.contains_anywhere(flow)  # it was in the union

    def test_flow_seen_on_one_switch_only(self):
        left = zipf_trace(num_flows=200, num_packets=1000, seed=84)
        net = NetworkCoordinator(["a", "b"])
        handle = net.deploy_everywhere(bloom_task())
        net.process({"a": left, "b": Trace.empty()})
        flow = next(iter(left.flow_sizes(KEY_SRC_IP)))
        assert not handle.per_switch["b"].algorithm.contains(flow)
        assert handle.contains_anywhere(flow)


class TestFrequencySum:
    def test_query_sum_is_the_sum_of_switch_estimates(self):
        trace = zipf_trace(num_flows=400, num_packets=4000, seed=85)
        left, right = split_by_parity(trace)
        net = NetworkCoordinator(["a", "b"])
        handle = net.deploy_everywhere(cms_task())
        net.process({"a": left, "b": right})

        truth = trace.flow_sizes(KEY_SRC_IP)
        for flow, count in list(truth.items())[:50]:
            parts = [
                handle.per_switch[name].algorithm.query(flow)
                for name in ("a", "b")
            ]
            assert handle.query_sum(flow) == sum(parts)
            # CMS never under-counts, so neither does the summed view.
            assert handle.query_sum(flow) >= count

    def test_network_wide_heavy_hitters_cover_the_truth(self):
        trace = zipf_trace(num_flows=400, num_packets=4000, seed=86)
        left, right = split_by_parity(trace)
        net = NetworkCoordinator(["a", "b"])
        handle = net.deploy_everywhere(cms_task())
        net.process({"a": left, "b": right})

        truth = trace.flow_sizes(KEY_SRC_IP)
        threshold = 80
        true_heavy = {f for f, c in truth.items() if c >= threshold}
        assert true_heavy  # the zipf head crosses the threshold
        found = handle.heavy_hitters(truth.keys(), threshold)
        assert true_heavy <= found


def mrac_task(memory=8192):
    return MeasurementTask(
        key=KEY_SRC_IP,
        attribute=AttributeSpec.frequency(),
        memory=memory,
        depth=1,
        algorithm="mrac",
    )


def hh_cms_task(threshold, memory=4096):
    return MeasurementTask(
        key=KEY_SRC_IP,
        attribute=AttributeSpec.frequency(),
        memory=memory,
        depth=3,
        algorithm="cms",
        threshold=threshold,
    )


def solo_reference(task, trace):
    """A single switch observing the union traffic (the exactness oracle)."""
    solo = NetworkCoordinator(["solo"])
    handle = solo.deploy_everywhere(task)
    solo.process({"solo": trace})
    return handle.per_switch["solo"]


class TestEntropyMerge:
    """MRAC merges exactly: sum the rows *then* run EM once."""

    def test_merged_entropy_equals_single_switch_union(self):
        trace = zipf_trace(num_flows=500, num_packets=6000, seed=87)
        left, right = split_by_parity(trace)
        net = NetworkCoordinator(["a", "b"])
        handle = net.deploy_everywhere(mrac_task())
        net.process({"a": left, "b": right})
        solo = solo_reference(mrac_task(), trace)

        assert handle.merged_distribution() == solo.algorithm.estimate_distribution()
        assert handle.merged_entropy() == solo.algorithm.estimate_entropy()

    def test_merged_entropy_differs_from_averaging(self):
        # The exact law (sum rows, then EM) is not the naive per-switch
        # average: skewed halves pull the naive estimate away.
        trace = zipf_trace(num_flows=500, num_packets=6000, seed=88)
        cut = len(trace) // 4  # deliberately unbalanced split
        from repro.service.engine import _split_trace

        left, right = _split_trace(trace, cut)
        net = NetworkCoordinator(["a", "b"])
        handle = net.deploy_everywhere(mrac_task())
        net.process({"a": left, "b": right})
        solo = solo_reference(mrac_task(), trace)

        naive = np.mean(
            [h.algorithm.estimate_entropy() for h in handle.per_switch.values()]
        )
        assert handle.merged_entropy() == solo.algorithm.estimate_entropy()
        assert handle.merged_entropy() != naive

    def test_empty_coordinator_distribution(self):
        net = NetworkCoordinator(["a"])
        handle = net.deploy_everywhere(mrac_task())
        assert handle.merged_distribution() == {}
        assert handle.merged_entropy() == 0.0

    def test_modular_sum_respects_register_width(self):
        # Row dtype wraps exactly like the value_mask the merge applies;
        # summing by hand with int64 then masking must agree.
        trace = zipf_trace(num_flows=300, num_packets=3000, seed=89)
        left, right = split_by_parity(trace)
        net = NetworkCoordinator(["a", "b"])
        handle = net.deploy_everywhere(mrac_task())
        net.process({"a": left, "b": right})
        rows = [
            np.asarray(h.algorithm.rows[0].read(), dtype=np.int64)
            for h in handle.per_switch.values()
        ]
        mask = next(
            iter(handle.per_switch.values())
        ).algorithm.rows[0].cmu.register.value_mask
        expected = (rows[0] + rows[1]) & mask
        solo = solo_reference(mrac_task(), trace)
        assert np.array_equal(
            expected, np.asarray(solo.algorithm.rows[0].read(), dtype=np.int64)
        )


class TestDigestHeavyHitterMerge:
    """Alarm-digest union: exact under edge partitioning, sandwiched else."""

    def test_union_exact_under_edge_partitioning(self):
        # Each flow's packets all ingress one switch (parity split), so
        # every per-flow counter reaches the same value it would on a
        # single switch: the digest union is the solo digest set.
        trace = zipf_trace(num_flows=400, num_packets=5000, seed=90)
        left, right = split_by_parity(trace)
        net = NetworkCoordinator(["a", "b"])
        handle = net.deploy_everywhere(hh_cms_task(threshold=60))
        net.process({"a": left, "b": right})
        solo = solo_reference(hh_cms_task(threshold=60), trace)

        union = handle.digest_heavy_hitters()
        assert union == solo.algorithm.data_plane_heavy_hitters()
        assert union  # the zipf head fires the alarm

    def test_split_traffic_sandwich_bound(self):
        # Round-robin split: each flow's count halves per switch, so the
        # union can only miss flows (counts below the local threshold); it
        # never reports a flow the solo switch would not.
        trace = zipf_trace(num_flows=400, num_packets=5000, seed=91)
        idx = np.arange(len(trace)) % 2
        halves = [
            Trace({f: trace.columns[f][idx == want] for f in PACKET_FIELDS})
            for want in (0, 1)
        ]
        net = NetworkCoordinator(["a", "b"])
        handle = net.deploy_everywhere(hh_cms_task(threshold=60))
        net.process({"a": halves[0], "b": halves[1]})
        solo = solo_reference(hh_cms_task(threshold=60), trace)

        union = handle.digest_heavy_hitters()
        solo_digests = solo.algorithm.data_plane_heavy_hitters()
        assert union <= solo_digests  # upper slice of the sandwich
