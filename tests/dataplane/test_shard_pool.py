"""Persistent shard pool: resident replicas, deltas, shm, and thread mode.

The pool's contract is "bit-identical to the scalar reference, always":
warm replicas fed by control-plane deltas and shared-memory packet windows
must produce exactly the state a packet-by-packet replay produces, run
after run, across rule mutations, epoch seals, and undersized shm windows.
The tests here drive the pool through :meth:`FlyMonController.
process_trace_sharded` (the path everything else uses) and through the
pool object directly where a property is easier to pin down.
"""

import itertools
import multiprocessing

import numpy as np
import pytest

import repro.core.task as task_mod
from repro.core.controller import FlyMonController
from repro.core.task import AttributeSpec, MeasurementTask, TaskFilter
from repro.dataplane.shard_pool import PersistentShardPool, shm_rows
from repro.traffic.flows import KEY_DST_IP, KEY_SRC_IP
from repro.traffic.generators import zipf_trace


def _cms_task(**kwargs):
    base = dict(
        key=KEY_SRC_IP,
        attribute=AttributeSpec.frequency(),
        memory=2048,
        depth=3,
        algorithm="cms",
    )
    base.update(kwargs)
    return MeasurementTask(**base)


def _hll_task():
    return MeasurementTask(
        key=KEY_DST_IP,
        attribute=AttributeSpec.distinct(KEY_SRC_IP),
        memory=1024,
        depth=1,
        algorithm="hll",
    )


def _controller(tasks):
    task_mod._task_ids = itertools.count(1)
    controller = FlyMonController(num_groups=3, place_on_pipeline=False)
    handles = [controller.add_task(task) for task in tasks]
    return controller, handles


def _state(controller):
    cells = []
    digests = []
    for group in controller.groups:
        for cmu in group.cmus:
            cells.append(cmu.register.read_range(0, cmu.register_size).copy())
            for task_id in sorted(cmu.task_plans()):
                digests.append((task_id, frozenset(cmu.peek_digests(task_id))))
    return cells, digests

def _assert_state_equal(a, b):
    cells_a, digests_a = a
    cells_b, digests_b = b
    assert len(cells_a) == len(cells_b)
    for x, y in zip(cells_a, cells_b):
        np.testing.assert_array_equal(x, y)
    assert digests_a == digests_b


@pytest.fixture
def trace():
    return zipf_trace(num_flows=500, num_packets=6001, seed=11)


# -- warm-pool bit identity --------------------------------------------------


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_pool_reuse_bit_identical(trace, workers):
    scalar, _ = _controller([_cms_task(), _hll_task()])
    pooled, _ = _controller([_cms_task(), _hll_task()])
    try:
        for run in range(2):
            scalar.process_trace(trace)
            report = pooled.process_trace_sharded(trace, workers=workers)
            assert report.backend == "process"
            assert report.fallback is None
            if run == 1:
                # The replicas were built on run 0 and stayed resident.
                assert all(
                    t["build_ms"] == 0.0 for t in report.shard_timings
                )
            _assert_state_equal(_state(scalar), _state(pooled))
    finally:
        pooled.close_shard_pool()


def test_pool_survives_rule_mutations(trace):
    """add/remove/filter-update between runs ship as deltas, not rebuilds."""
    ops = [
        ("run",),
        ("add", lambda: _cms_task(memory=512, depth=2)),
        ("run",),
        ("filter", TaskFilter.of(protocol=(6, 8))),
        ("run",),
        ("remove", 0),
        ("run",),
    ]
    scalar, scalar_handles = _controller([_cms_task(), _hll_task()])
    pooled, pooled_handles = _controller([_cms_task(), _hll_task()])

    def apply(controller, handles, op):
        if op[0] == "add":
            handles.append(controller.add_task(op[1]()))
        elif op[0] == "filter":
            controller.update_task_filter(handles[0], op[1])
        elif op[0] == "remove":
            controller.remove_task(handles.pop(op[1]))

    try:
        for step, op in enumerate(ops):
            # Task ids are process-global and feed the sampling hash; pin
            # the counter before each mutation so both controllers' added
            # tasks draw identical ids.
            task_mod._task_ids = itertools.count(100 + 10 * step)
            apply(scalar, scalar_handles, op)
            task_mod._task_ids = itertools.count(100 + 10 * step)
            apply(pooled, pooled_handles, op)
            if op[0] == "run":
                scalar.process_trace(trace)
                report = pooled.process_trace_sharded(trace, workers=2)
                assert report.shards == 2
                _assert_state_equal(_state(scalar), _state(pooled))
        pool = pooled._shard_pool
        assert pool is not None and not pool.closed
    finally:
        pooled.close_shard_pool()


def test_chunked_rounds_with_small_shm_window(monkeypatch, trace):
    """Input windows smaller than a shard force multi-round streaming."""
    monkeypatch.setenv("FLYMON_SHARD_SHM_ROWS", "512")
    assert shm_rows() == 512
    scalar, _ = _controller([_cms_task()])
    pooled, _ = _controller([_cms_task()])
    try:
        scalar.process_trace(trace)
        report = pooled.process_trace_sharded(trace, workers=2)
        assert report.shards == 2
        _assert_state_equal(_state(scalar), _state(pooled))
    finally:
        pooled.close_shard_pool()


def test_shm_rows_floor(monkeypatch):
    monkeypatch.setenv("FLYMON_SHARD_SHM_ROWS", "3")
    assert shm_rows() >= 64
    monkeypatch.setenv("FLYMON_SHARD_SHM_ROWS", "not-a-number")
    assert shm_rows() == 1 << 16


# -- thread mode -------------------------------------------------------------


def test_fork_unavailable_degrades_to_threads(monkeypatch, trace):
    monkeypatch.setattr(
        multiprocessing, "get_all_start_methods", lambda: ["spawn"]
    )
    scalar, _ = _controller([_cms_task()])
    pooled, _ = _controller([_cms_task()])
    try:
        scalar.process_trace(trace)
        report = pooled.process_trace_sharded(trace, workers=2)
        # Never a crash: the pool runs in thread mode and says why.
        assert report.shards == 2
        assert report.backend == "thread"
        assert report.degraded is not None
        assert "fork" in report.degraded
        _assert_state_equal(_state(scalar), _state(pooled))
    finally:
        pooled.close_shard_pool()


def test_controller_resizes_pool_on_worker_change(trace):
    controller, _ = _controller([_cms_task()])
    try:
        controller.process_trace_sharded(trace, workers=2)
        first = controller._shard_pool
        assert first.workers == 2
        report = controller.process_trace_sharded(trace, workers=4)
        assert report.shards == 4
        second = controller._shard_pool
        assert second.workers == 4
        assert first.closed
    finally:
        controller.close_shard_pool()


# -- epoch seal + lifecycle --------------------------------------------------


def test_seal_epoch_counts_and_keeps_workers(trace):
    controller, _ = _controller([_cms_task()])
    try:
        controller.process_trace_sharded(trace, workers=2)
        pool = controller._shard_pool
        before = pool.pids()
        pool.seal_epoch(0)
        pool.seal_epoch(1)
        assert pool.seals == 2
        assert pool.pids() == before
        # The pool still answers runs after sealing.
        report = controller.process_trace_sharded(trace, workers=2)
        assert report.shards == 2
    finally:
        controller.close_shard_pool()


def test_close_is_idempotent_and_final(trace):
    controller, _ = _controller([_cms_task()])
    controller.process_trace_sharded(trace, workers=2)
    pool = controller._shard_pool
    controller.close_shard_pool()
    assert pool.closed
    controller.close_shard_pool()  # no-op, no raise
    # A run after close transparently gets a fresh pool.
    report = controller.process_trace_sharded(trace, workers=2)
    assert report.shards == 2
    assert controller._shard_pool is not pool
    controller.close_shard_pool()


def test_direct_pool_sync_counts_deltas(trace):
    controller, handles = _controller([_cms_task(), _hll_task()])
    pool = PersistentShardPool(controller.groups, workers=2)
    try:
        assert pool.sync() == 0  # mirror already current at build time
        task_mod._task_ids = itertools.count(50)
        controller.add_task(_cms_task(memory=512, depth=2))
        ops = pool.sync()
        assert ops > 0
        assert pool.sync() == 0  # converged
    finally:
        pool.close()
