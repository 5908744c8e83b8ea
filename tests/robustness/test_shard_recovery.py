"""Shard-worker fault recovery: crashed or hung shards are re-dispatched
serially and the merged register state stays bit-identical to a sequential
replay."""

import itertools
import multiprocessing

import numpy as np
import pytest

import repro.core.task as task_mod
from repro.core.controller import FlyMonController
from repro.core.task import AttributeSpec, MeasurementTask
from repro.dataplane.sharding import ShardingError, run_sharded
from repro.faults import FAULTS, SITE_SHARD_CRASH, SITE_SHARD_TIMEOUT
from repro.traffic import zipf_trace
from repro.traffic.flows import KEY_SRC_IP


def _controller(tasks, **kwargs):
    task_mod._task_ids = itertools.count(1)
    kwargs.setdefault("num_groups", 3)
    kwargs.setdefault("place_on_pipeline", False)
    controller = FlyMonController(**kwargs)
    for task in tasks:
        controller.add_task(task)
    return controller


def _cms_task(**kwargs):
    kwargs.setdefault("key", KEY_SRC_IP)
    kwargs.setdefault("attribute", AttributeSpec.frequency())
    kwargs.setdefault("memory", 2048)
    kwargs.setdefault("depth", 3)
    kwargs.setdefault("algorithm", "cms")
    return MeasurementTask(**kwargs)


def _assert_same_state(reference, other):
    for group_r, group_o in zip(reference.groups, other.groups):
        for cmu_r, cmu_o in zip(group_r.cmus, group_o.cmus):
            np.testing.assert_array_equal(
                cmu_r.register.read_range(0, cmu_r.register_size),
                cmu_o.register.read_range(0, cmu_o.register_size),
            )
            for task_id in cmu_r.task_ids:
                assert cmu_r.peek_digests(task_id) == cmu_o.peek_digests(task_id)


@pytest.fixture
def trace():
    return zipf_trace(num_flows=150, num_packets=2_000, seed=17)


@pytest.fixture
def reference(trace):
    controller = _controller([_cms_task()])
    controller.process_trace(trace, batch_size=None)
    return controller


def _force_thread_mode(monkeypatch):
    monkeypatch.setattr(
        multiprocessing, "get_all_start_methods", lambda: ["spawn"]
    )


@pytest.mark.parametrize("backend", ["thread", "process"])
def test_crashed_shard_recovers_bit_identical(backend, monkeypatch, trace, reference):
    if backend == "thread":
        _force_thread_mode(monkeypatch)
    sharded = _controller([_cms_task()])
    FAULTS.arm(SITE_SHARD_CRASH, hit=2)  # second shard dispatch fails
    report = run_sharded(sharded.groups, trace, workers=2)
    assert report.backend == backend
    assert report.retries >= 1
    assert report.shard_events
    assert any(e["reason"] for e in report.shard_events)
    _assert_same_state(reference, sharded)


def test_killed_worker_process_recovers_bit_identical(trace, reference):
    """A worker killed mid-shard (os._exit); its shard must be re-dispatched
    serially with an exact merge."""
    sharded = _controller([_cms_task()])
    FAULTS.arm(SITE_SHARD_CRASH, hit=2, arg="kill")
    report = run_sharded(sharded.groups, trace, workers=2)
    assert report.retries >= 1
    _assert_same_state(reference, sharded)


def test_hung_shard_times_out_and_retries(monkeypatch, trace, reference):
    monkeypatch.setenv("FLYMON_SHARD_TIMEOUT", "0.2")
    sharded = _controller([_cms_task()])
    FAULTS.arm(SITE_SHARD_TIMEOUT, hit=1, arg="5.0")  # sleep >> deadline
    report = run_sharded(sharded.groups, trace, workers=2)
    assert report.timeouts >= 1
    assert report.retries >= 1
    assert any("timed out" in str(e["reason"]) for e in report.shard_events)
    _assert_same_state(reference, sharded)


# -- resident-pool recovery --------------------------------------------------
#
# The pool keeps workers resident across runs, so recovery has two extra
# obligations beyond the run at hand: a dead worker must be respawned (with
# its replica rebuilt) so the *next* run still works, and an in-worker
# exception must leave the surviving replica scrubbed (not half-updated).
# Every scenario ends with a clean follow-up run to prove the pool healed.


def _pooled_run(controller, trace):
    return controller.process_trace_sharded(trace, workers=2)


def test_pool_worker_crash_recovers_bit_identical(trace, reference):
    sharded = _controller([_cms_task()])
    try:
        FAULTS.arm(SITE_SHARD_CRASH, hit=2)  # raises inside a pool worker
        report = _pooled_run(sharded, trace)
        assert report.retries >= 1
        assert report.shard_events
        _assert_same_state(reference, sharded)
        # The worker survived the exception (scrubbed, not dead) and the
        # next run through the same pool is clean; state keeps
        # accumulating in lockstep with the scalar reference.
        follow = _pooled_run(sharded, trace)
        assert follow.retries == 0
        reference.process_trace(trace, batch_size=None)
        _assert_same_state(reference, sharded)
    finally:
        sharded.close_shard_pool()


def test_pool_worker_killed_respawns_bit_identical(trace, reference):
    """os._exit in a resident worker: the shard retries serially AND the
    pool respawns the worker so the next run keeps its parallelism."""
    sharded = _controller([_cms_task()])
    try:
        FAULTS.arm(SITE_SHARD_CRASH, hit=2, arg="kill")
        report = _pooled_run(sharded, trace)
        assert report.retries >= 1
        _assert_same_state(reference, sharded)
        pool = sharded._shard_pool
        pids = pool.pids()
        assert all(pid is not None for pid in pids)
        follow = _pooled_run(sharded, trace)
        assert follow.retries == 0
        reference.process_trace(trace, batch_size=None)
        _assert_same_state(reference, sharded)
    finally:
        sharded.close_shard_pool()


def test_pool_worker_hang_times_out_and_respawns(monkeypatch, trace, reference):
    monkeypatch.setenv("FLYMON_SHARD_TIMEOUT", "0.3")
    sharded = _controller([_cms_task()])
    try:
        FAULTS.arm(SITE_SHARD_TIMEOUT, hit=1, arg="5.0")
        report = _pooled_run(sharded, trace)
        assert report.timeouts >= 1
        assert report.retries >= 1
        assert any(
            "timed out" in str(e["reason"]) for e in report.shard_events
        )
        _assert_same_state(reference, sharded)
        follow = _pooled_run(sharded, trace)
        assert follow.timeouts == 0
        reference.process_trace(trace, batch_size=None)
        _assert_same_state(reference, sharded)
    finally:
        sharded.close_shard_pool()


def test_pool_thread_mode_hang_recovers(monkeypatch, trace, reference):
    """Thread-mode pool (the fork-unavailable fallback) under a hang: the
    stale slot is rebuilt from the mirror and the next run is clean."""
    _force_thread_mode(monkeypatch)
    monkeypatch.setenv("FLYMON_SHARD_TIMEOUT", "0.3")
    sharded = _controller([_cms_task()])
    try:
        FAULTS.arm(SITE_SHARD_TIMEOUT, hit=1, arg="5.0")
        report = _pooled_run(sharded, trace)
        assert report.backend == "thread"
        assert report.timeouts >= 1
        _assert_same_state(reference, sharded)
        follow = _pooled_run(sharded, trace)
        assert follow.timeouts == 0
        reference.process_trace(trace, batch_size=None)
        _assert_same_state(reference, sharded)
    finally:
        sharded.close_shard_pool()


def test_persistent_crash_exhausts_retries(monkeypatch, trace):
    monkeypatch.setenv("FLYMON_SHARD_RETRIES", "2")
    sharded = _controller([_cms_task()])
    FAULTS.arm(SITE_SHARD_CRASH, prob=1.0)  # re-fires on every dispatch
    with pytest.raises(ShardingError, match="serial re-dispatch"):
        run_sharded(sharded.groups, trace, workers=2)


def test_shard_retry_telemetry(trace, reference):
    from repro import telemetry
    from repro.telemetry import EV_SHARD_RETRY

    sharded = _controller([_cms_task()])
    FAULTS.arm(SITE_SHARD_CRASH, hit=1)
    telemetry.reset()
    telemetry.enable()
    try:
        run_sharded(sharded.groups, trace, workers=2)
        assert telemetry.TELEMETRY.events.of_type(EV_SHARD_RETRY)
        assert "flymon_shard_retries_total" in telemetry.to_prometheus(
            telemetry.TELEMETRY.registry
        )
    finally:
        telemetry.disable()
        telemetry.reset()
    _assert_same_state(reference, sharded)


def test_no_faults_means_no_retries(trace, reference):
    sharded = _controller([_cms_task()])
    report = run_sharded(sharded.groups, trace, workers=2)
    assert report.retries == 0
    assert report.timeouts == 0
    assert report.shard_events == []
    _assert_same_state(reference, sharded)
