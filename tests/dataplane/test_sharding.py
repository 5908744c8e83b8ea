"""Unit tests for the sharded execution layer (repro.dataplane.sharding)."""

import itertools
import multiprocessing

import numpy as np
import pytest

import repro.core.task as task_mod
from repro.core.controller import FlyMonController
from repro.core.laws import LAW_MAX, LAW_NONE, LAW_OR, LAW_SUM
from repro.core.task import AttributeSpec, MeasurementTask
from repro.dataplane.sharding import (
    GroupReplicaSpec,
    default_workers,
    run_sharded,
    shard_ranges,
)
from repro.dataplane.switch import datapath_groups
from repro.traffic import zipf_trace
from repro.traffic.flows import KEY_DST_IP, KEY_SRC_IP


def _controller(tasks, **kwargs):
    task_mod._task_ids = itertools.count(1)
    kwargs.setdefault("num_groups", 3)
    kwargs.setdefault("place_on_pipeline", False)
    controller = FlyMonController(**kwargs)
    handles = [controller.add_task(task) for task in tasks]
    return controller, handles


def _cms_task(**kwargs):
    kwargs.setdefault("key", KEY_SRC_IP)
    kwargs.setdefault("attribute", AttributeSpec.frequency())
    kwargs.setdefault("memory", 2048)
    kwargs.setdefault("depth", 3)
    kwargs.setdefault("algorithm", "cms")
    return MeasurementTask(**kwargs)


def _hll_task():
    return MeasurementTask(
        key=KEY_DST_IP,
        attribute=AttributeSpec.distinct(KEY_SRC_IP),
        memory=1024,
        depth=1,
        algorithm="hll",
    )


@pytest.fixture
def thread_mode(monkeypatch):
    """Force the pool's thread mode (no ``fork`` start method)."""
    monkeypatch.setattr(
        multiprocessing, "get_all_start_methods", lambda: ["spawn"]
    )


def _assert_same_state(reference, other):
    for group_r, group_o in zip(reference.groups, other.groups):
        for cmu_r, cmu_o in zip(group_r.cmus, group_o.cmus):
            np.testing.assert_array_equal(
                cmu_r.register.read_range(0, cmu_r.register_size),
                cmu_o.register.read_range(0, cmu_o.register_size),
            )
            for task_id in cmu_r.task_ids:
                assert cmu_r.peek_digests(task_id) == cmu_o.peek_digests(task_id)


class TestShardRanges:
    def test_even_split(self):
        assert shard_ranges(8, 4) == [(0, 2), (2, 4), (4, 6), (6, 8)]

    def test_uneven_tail_spreads_over_first_shards(self):
        assert shard_ranges(10, 4) == [(0, 3), (3, 6), (6, 8), (8, 10)]

    def test_more_workers_than_rows_drops_empty_shards(self):
        ranges = shard_ranges(3, 8)
        assert ranges == [(0, 1), (1, 2), (2, 3)]

    def test_zero_rows(self):
        assert shard_ranges(0, 4) == []

    def test_negative_total_rejected(self):
        with pytest.raises(ValueError):
            shard_ranges(-1, 2)

    @pytest.mark.parametrize("total,workers", [(1, 1), (17, 3), (100, 7), (5, 5)])
    def test_partition_properties(self, total, workers):
        ranges = shard_ranges(total, workers)
        assert ranges[0][0] == 0 and ranges[-1][1] == total
        sizes = [stop - start for start, stop in ranges]
        assert all(size > 0 for size in sizes)
        assert max(sizes) - min(sizes) <= 1
        for (_, stop), (start, _) in zip(ranges, ranges[1:]):
            assert stop == start


class TestDefaultWorkers:
    def test_unset_is_one(self, monkeypatch):
        monkeypatch.delenv("FLYMON_WORKERS", raising=False)
        assert default_workers() == 1

    def test_env_value(self, monkeypatch):
        monkeypatch.setenv("FLYMON_WORKERS", "4")
        assert default_workers() == 4

    @pytest.mark.parametrize("raw", ["", "zero", "-3", "0"])
    def test_invalid_or_nonpositive_clamps_to_one(self, monkeypatch, raw):
        monkeypatch.setenv("FLYMON_WORKERS", raw)
        assert default_workers() == 1


class TestReplicaSpecs:
    def test_replica_matches_original_per_packet(self):
        controller, _ = _controller([_cms_task()])
        trace = zipf_trace(num_flows=64, num_packets=500, seed=5)
        group = controller.groups[0]
        replica = GroupReplicaSpec.from_group(group).build()
        assert replica.seed_base == group.seed_base
        assert [cmu.task_ids for cmu in replica.cmus] == [
            cmu.task_ids for cmu in group.cmus
        ]
        for fields in trace.iter_fields():
            group.process(fields)
        for fields in trace.iter_fields():
            replica.process(fields)
        for cmu, cmu_replica in zip(group.cmus, replica.cmus):
            np.testing.assert_array_equal(
                cmu.register.read_range(0, cmu.register_size),
                cmu_replica.register.read_range(0, cmu_replica.register_size),
            )

    def test_spec_is_picklable(self):
        import pickle

        controller, _ = _controller([_cms_task(threshold=50)])
        specs = [GroupReplicaSpec.from_group(g) for g in controller.groups]
        rebuilt = pickle.loads(pickle.dumps(specs))
        assert [s.group_id for s in rebuilt] == [s.group_id for s in specs]
        rebuilt[0].build()  # must install cleanly after the round-trip


class TestMergeLaws:
    def test_cms_is_sum(self):
        controller, _ = _controller([_cms_task()])
        trace = zipf_trace(num_flows=32, num_packets=64, seed=1)
        report = run_sharded(controller.groups, trace, workers=2)
        assert set(report.merge_laws.values()) == {LAW_SUM}
        assert report.shards == 2

    def test_armed_cms_runs_sequentially(self):
        controller, _ = _controller([_cms_task(threshold=10)])
        trace = zipf_trace(num_flows=32, num_packets=64, seed=1)
        report = run_sharded(controller.groups, trace, workers=2)
        assert set(report.merge_laws.values()) == {LAW_SUM}
        assert report.shards == 0
        assert "(alarm)" in report.fallback

    def test_max_and_or_laws(self):
        tasks = [
            MeasurementTask(
                key=KEY_SRC_IP,
                attribute=AttributeSpec.maximum("queue_length"),
                memory=256,
                depth=2,
                algorithm="sumax_max",
            ),
            MeasurementTask(
                key=KEY_DST_IP,
                attribute=AttributeSpec.existence(),
                memory=1024,
                depth=2,
                algorithm="bloom",
            ),
        ]
        controller, _ = _controller(tasks)
        trace = zipf_trace(num_flows=32, num_packets=64, seed=1)
        report = run_sharded(controller.groups, trace, workers=2)
        assert set(report.merge_laws.values()) == {LAW_MAX, LAW_OR}


class TestChainedFallback:
    def test_chained_task_falls_back_sequential(self):
        task = MeasurementTask(
            key=KEY_SRC_IP,
            attribute=AttributeSpec.frequency(),
            memory=1024,
            depth=2,
            algorithm="sumax_sum",
        )
        controller, _ = _controller([task])
        trace = zipf_trace(num_flows=64, num_packets=500, seed=2)
        report = run_sharded(controller.groups, trace, workers=4)
        assert report.fallback is not None
        assert f"(law {LAW_NONE})" in report.fallback
        assert report.backend == "sequential"
        assert report.shards == 0

        reference, _ = _controller([task])
        reference.process_trace(trace, batch_size=None)
        _assert_same_state(reference, controller)

    def test_empty_trace_falls_back(self):
        from repro.traffic import Trace

        controller, _ = _controller([_cms_task()])
        report = run_sharded(controller.groups, Trace.empty(), workers=4)
        assert report.fallback == "empty trace"
        assert report.packets == 0


def _tower_task():
    return MeasurementTask(
        key=KEY_SRC_IP,
        attribute=AttributeSpec.frequency(),
        memory=1024,
        depth=2,
        algorithm="tower",
    )


def _chained_task():
    return MeasurementTask(
        key=KEY_SRC_IP,
        attribute=AttributeSpec.frequency(),
        memory=1024,
        depth=2,
        algorithm="sumax_sum",
    )


class TestSelection:
    """The law table alone picks the pool or the in-process path."""

    @pytest.mark.parametrize(
        "make_tasks,why",
        [
            (lambda: [_cms_task(threshold=40), _hll_task()], "(alarm)"),
            (lambda: [_tower_task(), _hll_task()], f"(law {LAW_NONE})"),
            (lambda: [_chained_task()], f"(law {LAW_NONE})"),
        ],
        ids=["alarm-armed", "finite-p2", "chained"],
    )
    def test_blocked_rows_run_sequentially(self, make_tasks, why):
        trace = zipf_trace(num_flows=300, num_packets=4_001, seed=21)
        reference, _ = _controller(make_tasks())
        reference.process_trace(trace, batch_size=512)
        controller, _ = _controller(make_tasks())
        report = controller.process_trace_sharded(trace, workers=2, batch_size=512)
        assert report.shards == 0
        assert report.backend == "sequential"
        assert "cmug" in report.fallback and why in report.fallback
        assert controller._shard_pool is None  # no pool was started
        _assert_same_state(reference, controller)

    def test_cell_law_deployment_engages_the_pool(self):
        trace = zipf_trace(num_flows=300, num_packets=4_001, seed=22)
        tasks = lambda: [_cms_task(), _hll_task()]  # noqa: E731
        reference, _ = _controller(tasks())
        reference.process_trace(trace, batch_size=512)
        controller, _ = _controller(tasks())
        try:
            report = controller.process_trace_sharded(
                trace, workers=2, batch_size=512
            )
            assert report.fallback is None
            assert report.shards == 2
            assert controller._shard_pool is not None
            _assert_same_state(reference, controller)
        finally:
            controller.close_shard_pool()


class TestBackends:
    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_backend_matches_scalar_reference(self, backend, monkeypatch):
        if backend == "thread":
            monkeypatch.setattr(
                multiprocessing, "get_all_start_methods", lambda: ["spawn"]
            )
        trace = zipf_trace(num_flows=200, num_packets=3_000, seed=7)
        tasks = [_cms_task(), _hll_task()]
        reference, _ = _controller(tasks)
        reference.process_trace(trace, batch_size=None)
        sharded, _ = _controller(tasks)
        report = run_sharded(sharded.groups, trace, workers=2)
        assert report.fallback is None
        assert report.backend == backend
        _assert_same_state(reference, sharded)

    def test_single_shard_runs_on_one_worker(self):
        controller, _ = _controller([_cms_task()])
        trace = zipf_trace(num_flows=8, num_packets=16, seed=0)
        report = run_sharded(controller.groups, trace, workers=1)
        assert report.shards == 1
        assert report.backend == "process"


class TestControllerAndSwitchRouting:
    def test_process_trace_workers_routes_sharded(self):
        trace = zipf_trace(num_flows=100, num_packets=2_000, seed=9)
        reference, ref_handles = _controller([_cms_task()])
        reference.process_trace(trace, batch_size=None)
        sharded, handles = _controller([_cms_task()])
        sharded.process_trace(trace, workers=4)
        sharded.close_shard_pool()
        _assert_same_state(reference, sharded)
        for ref, other in zip(ref_handles, handles):
            for row_r, row_o in zip(ref.read_rows(), other.read_rows()):
                np.testing.assert_array_equal(row_r, row_o)

    def test_placed_pipeline_groups_discoverable_and_all_batched(self):
        controller, _ = _controller(
            [_cms_task()], num_groups=3, place_on_pipeline=True
        )
        groups = datapath_groups(controller.pipeline)
        assert [g.group_id for g in groups] == [0, 1, 2]
        # Sharded workers drive the groups directly; the placed pipeline must
        # not hide any scalar-only hook that would diverge from that path.
        assert controller.pipeline.scalar_fallback_hooks() == []

    def test_sharded_on_placed_pipeline(self):
        trace = zipf_trace(num_flows=100, num_packets=2_000, seed=11)
        reference, _ = _controller([_cms_task()], place_on_pipeline=True)
        reference.process_trace(trace, batch_size=512)
        sharded, _ = _controller([_cms_task()], place_on_pipeline=True)
        report = sharded.process_trace_sharded(trace, workers=3)
        sharded.close_shard_pool()
        assert report.fallback is None
        _assert_same_state(reference, sharded)


class TestShardTimings:
    """Per-shard phase timings surfaced on ShardRunReport (flight recorder
    satellite): always populated, recorder on or off."""

    def test_report_timing_and_shard_timings_populated(self):
        trace = zipf_trace(num_flows=100, num_packets=2_000, seed=5)
        controller, _ = _controller([_cms_task()])
        report = run_sharded(controller.groups, trace, workers=3)
        timing = report.timing
        assert set(timing) == {
            "plan_ms", "sync_ms", "dispatch_ms", "merge_ms", "total_ms"
        }
        assert timing["total_ms"] > 0.0
        assert timing["dispatch_ms"] > 0.0
        assert len(report.shard_timings) == 3
        for i, record in enumerate(report.shard_timings):
            assert record["shard"] == i
            assert record["rows"] > 0
            assert record["dispatch_ms"] > 0.0
            assert record["build_ms"] >= 0.0
            assert record["compute_ms"] > 0.0
            assert record["transport_ms"] >= 0.0
            assert record["retried"] is False
            assert record["retries"] == 0
            assert record["retry_ms"] == 0.0
            assert "_submit_pc" not in record  # private field stripped
        assert sum(r["rows"] for r in report.shard_timings) == len(trace)

    def test_thread_backend_dispatch_covers_worker_phases(self, thread_mode):
        trace = zipf_trace(num_flows=100, num_packets=2_000, seed=6)
        controller, _ = _controller([_cms_task()])
        report = run_sharded(controller.groups, trace, workers=2)
        assert report.backend == "thread"
        for record in report.shard_timings:
            # dispatch (submit->result) bounds the phases the worker thread
            # measured inside it: the batch loop and the register snapshot.
            assert record["compute_ms"] > 0.0
            assert record["transport_ms"] > 0.0
            assert (
                record["compute_ms"] + record["transport_ms"]
                <= record["dispatch_ms"] + 1e-6
            )

    def test_recovered_shard_reports_retry_timings(self):
        from repro.faults import FAULTS, SITE_SHARD_CRASH

        trace = zipf_trace(num_flows=100, num_packets=2_000, seed=7)
        controller, _ = _controller([_cms_task()])
        FAULTS.arm(SITE_SHARD_CRASH, hit=2)  # second shard dispatch fails
        try:
            report = run_sharded(controller.groups, trace, workers=2)
        finally:
            FAULTS.reset()
        assert report.retries >= 1
        retried = [r for r in report.shard_timings if r["retried"]]
        assert retried, "no shard_timings record marked retried"
        for record in retried:
            assert record["retries"] >= 1
            assert record["retry_ms"] > 0.0
        clean = [r for r in report.shard_timings if not r["retried"]]
        assert all(r["retry_ms"] == 0.0 for r in clean)

    def test_sequential_fallback_still_reports_timing(self):
        task = MeasurementTask(
            key=KEY_SRC_IP,
            attribute=AttributeSpec.frequency(),
            memory=1024,
            depth=2,
            algorithm="sumax_sum",  # chained -> sequential fallback
        )
        trace = zipf_trace(num_flows=50, num_packets=500, seed=8)
        controller, _ = _controller([task])
        report = run_sharded(controller.groups, trace, workers=4)
        assert report.fallback is not None
        assert report.shard_timings == []
        assert report.timing["total_ms"] > 0.0

    def test_recorder_captures_shard_phase_spans(self):
        from repro.telemetry import RECORDER, disable_recorder, enable_recorder

        trace = zipf_trace(num_flows=100, num_packets=2_000, seed=9)
        controller, _ = _controller([_cms_task()])
        RECORDER.clear()
        enable_recorder()
        try:
            run_sharded(controller.groups, trace, workers=2)
            names = [s.name for s in RECORDER.spans]
        finally:
            disable_recorder()
            RECORDER.clear()
        for expected in (
            "shard.run",
            "shard.plan",
            "shard.sync",
            "shard.dispatch",
            "shard.merge",
            "shard.worker",
            "shard.compute",
        ):
            assert expected in names, f"missing span {expected}: {names}"
        assert names.count("shard.worker") == 2
