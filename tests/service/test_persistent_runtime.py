"""The streaming service on the persistent shard pool.

Epoch rotation is the reason the pool is persistent: a per-epoch window run
must not pay fork + replica-build every time.  These tests pin the two
halves of that contract -- sealed epochs stay bit-identical to in-process
batched ingest across many rotations (including the pool's in-place seal),
and a `repro serve --checkpoint` artifact produced on the pool answers
offline queries identically to one produced in-process.
"""

import json

import pytest

from repro.cli import main
from repro.core.controller import FlyMonController
from repro.service import (
    CardinalityQuery,
    FrequencyQuery,
    MeasurementService,
    load_service_state,
)
from repro.traffic import zipf_trace
from repro.traffic.flows import KEY_SRC_IP
from repro.traffic.packet import PACKET_FIELDS
from repro.traffic.trace import Trace

from service_tasks import bloom_task, freq_task, hll_task

NUM_EPOCHS = 21


def _deploy(controller):
    return [
        controller.add_task(freq_task()),
        controller.add_task(hll_task()),
        controller.add_task(bloom_task()),
    ]


def _run_stream(trace, epoch_packets, workers):
    controller = FlyMonController(num_groups=3)
    handles = _deploy(controller)
    service = MeasurementService(
        controller,
        epoch_packets=epoch_packets,
        retain=NUM_EPOCHS + 2,
        workers=workers,
    )
    sealed = service.ingest(trace)
    rows = [
        [[v.tolist() for v in s.read_rows(h)] for h in handles]
        for s in sealed
    ]
    digests = [
        sorted((k, sorted(v)) for k, v in s.digest_sets.items())
        for s in sealed
    ]
    report = service.last_shard_report
    pool = getattr(controller, "_shard_pool", None)
    seals = pool.seals if pool is not None else None
    controller.close_shard_pool()
    return rows, digests, report, seals, len(sealed)


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_pool_epochs_bit_identical_to_in_process(workers):
    trace = zipf_trace(num_flows=500, num_packets=8000, seed=61)
    epoch_packets = len(trace) // NUM_EPOCHS

    e_rows, e_digests, e_report, _, e_n = _run_stream(trace, epoch_packets, 1)
    p_rows, p_digests, p_report, p_seals, p_n = _run_stream(
        trace, epoch_packets, workers
    )
    assert e_report is None  # workers=1 takes the in-process batched path
    assert e_n == p_n >= 20
    if workers > 1:
        assert p_report.fallback is None
        assert p_report.shards == workers
        assert p_report.degraded is None
        # Every rotation sealed the pool in place -- never a teardown.
        assert p_seals == p_n
    assert e_rows == p_rows
    assert e_digests == p_digests


def test_rotation_reuses_the_pool():
    """After the first window the resident replicas never rebuild: every
    later report must show build_ms == 0 on all shards."""
    trace = zipf_trace(num_flows=400, num_packets=6000, seed=62)
    controller = FlyMonController(num_groups=3)
    _deploy(controller)
    service = MeasurementService(
        controller,
        epoch_packets=len(trace) // NUM_EPOCHS,
        retain=NUM_EPOCHS + 2,
        workers=2,
    )
    try:
        first = None
        for start in range(0, len(trace), 1500):
            piece = Trace(
                {
                    f: trace.columns[f][start : start + 1500]
                    for f in PACKET_FIELDS
                }
            )
            service.ingest(piece)
            if first is None:
                first = controller._shard_pool
            else:
                assert controller._shard_pool is first
            report = service.last_shard_report
            if start > 0 and report is not None:
                assert all(
                    t["build_ms"] == 0.0 for t in report.shard_timings
                )
    finally:
        controller.close_shard_pool()


def _serve_checkpoint(tmp_path, workers, name):
    path = tmp_path / name
    argv = [
        "serve",
        "--generator", "zipf",
        "--packets", "6000",
        "--flows", "400",
        "--seed", "33",
        "--epoch-size", "1000",
        "--workers", str(workers),
        # Unarmed cell-law tasks (MRAC sum, HLL max) engage the pool.
        "--tasks", "entropy,card",
        "--checkpoint", str(path),
    ]
    assert main(argv) == 0
    with open(path) as fh:
        return json.load(fh)


def test_checkpoint_restore_parity_across_runtimes(tmp_path, capsys):
    """`repro serve --checkpoint` on the shard pool restores and answers
    queries identically to the in-process artifact."""
    eph = load_service_state(_serve_checkpoint(tmp_path, 1, "in_process.json"))
    per = load_service_state(_serve_checkpoint(tmp_path, 2, "pool.json"))
    capsys.readouterr()

    assert len(per.epochs) == len(eph.epochs)
    e_freq, e_card = eph.tasks
    p_freq, p_card = per.tasks
    trace = zipf_trace(num_flows=400, num_packets=6000, seed=33)
    flows = sorted(trace.flow_sizes(KEY_SRC_IP))[:10]
    for e_epoch, p_epoch in zip(eph.epochs, per.epochs):
        assert p_epoch.index == e_epoch.index
        assert p_epoch.packets == e_epoch.packets
        for flow in flows:
            assert per.query(
                FrequencyQuery(p_freq, flow), epoch=p_epoch
            ) == eph.query(FrequencyQuery(e_freq, flow), epoch=e_epoch)
        assert per.query(
            CardinalityQuery(p_card), epoch=p_epoch
        ) == eph.query(CardinalityQuery(e_card), epoch=e_epoch)
