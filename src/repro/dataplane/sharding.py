"""Sharded parallel execution of the batched datapath.

CMU groups only couple through *forward* PHV chaining (§3.2), and row shards
of a trace only couple through the registers they share.  When every
installed row merges by a cell law (:mod:`repro.core.laws`: ``sum``,
``max``, ``or``, ``xor``) and no row arms a data-plane alarm, a
:class:`~repro.traffic.trace.Trace` is split into contiguous row shards,
each shard streams through a resident replica of the deployed CMU groups in
the persistent worker pool (:mod:`repro.dataplane.shard_pool`), and the
workers' cells fold back into the live registers **exactly**, law by law.

Every other deployment runs in-process, sequentially and batched, with the
reason on :attr:`ShardRunReport.fallback`:

* an alarm-armed row fires digests on per-packet results, which depend on
  the order of the whole trace;
* a row without a cell law (finite-``p2`` Cond-ADD towers, mixed AND-OR,
  chained rows reading upstream exports) has no exact cell merge.

Merging such rows by replaying their register inputs in the parent cost
more than the parallel shards saved on every workload we measured, so the
selection is made from the law table alone (see docs/BATCHING.md).
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.laws import MERGEABLE, cell_law, fold
from repro.faults import (
    FAULTS,
    FaultError,
    SITE_SHARD_CRASH,
    SITE_SHARD_TIMEOUT,
)
from repro.telemetry import RECORDER as _RECORDER
from repro.traffic.batch import PacketBatch

#: Column-slice size workers use when the caller does not fix one.
DEFAULT_SHARD_BATCH = 8192

#: Seconds the dispatcher waits for one shard's result before declaring it
#: hung and re-dispatching serially (``FLYMON_SHARD_TIMEOUT``; <= 0 disables).
DEFAULT_SHARD_TIMEOUT_S = 30.0

#: Serial re-dispatch attempts for a crashed/hung shard
#: (``FLYMON_SHARD_RETRIES``).
DEFAULT_SHARD_RETRIES = 2

#: Sleep an injected ``shard_timeout`` fault uses when no argument is given.
DEFAULT_INJECTED_SLEEP_S = 0.5


class ShardingError(RuntimeError):
    """Raised for invalid sharded-execution configuration."""


def shard_timeout() -> Optional[float]:
    """Per-shard result timeout in seconds, or ``None`` when disabled."""
    raw = os.environ.get("FLYMON_SHARD_TIMEOUT", "").strip()
    if not raw:
        return DEFAULT_SHARD_TIMEOUT_S
    try:
        value = float(raw)
    except ValueError:
        return DEFAULT_SHARD_TIMEOUT_S
    return value if value > 0 else None


def shard_retries() -> int:
    """Serial re-dispatch attempts for a failed shard (min 1)."""
    raw = os.environ.get("FLYMON_SHARD_RETRIES", "").strip()
    if not raw:
        return DEFAULT_SHARD_RETRIES
    try:
        return max(1, int(raw))
    except ValueError:
        return DEFAULT_SHARD_RETRIES


def default_workers() -> int:
    """Worker count from ``FLYMON_WORKERS`` (unset/empty/invalid -> 1)."""
    raw = os.environ.get("FLYMON_WORKERS", "").strip()
    if not raw:
        return 1
    try:
        value = int(raw)
    except ValueError:
        return 1
    return max(1, value)


def shard_ranges(total: int, workers: int) -> List[Tuple[int, int]]:
    """Contiguous ``[start, stop)`` row ranges covering ``total`` rows.

    At most ``workers`` non-empty shards whose sizes differ by at most one
    (the uneven tail rides on the first shards).
    """
    if total < 0:
        raise ValueError("total must be non-negative")
    if total == 0:
        return []
    count = min(max(1, int(workers)), total)
    size, extra = divmod(total, count)
    ranges = []
    start = 0
    for i in range(count):
        stop = start + size + (1 if i < extra else 0)
        ranges.append((start, stop))
        start = stop
    return ranges


@dataclass(frozen=True)
class GroupReplicaSpec:
    """Everything needed to rebuild a :class:`CmuGroup` replica in a worker.

    Replicas start with zeroed registers but identical rules: same hash
    seeding (derived from ``seed_base`` and ``group_id``), same installed
    hash masks, and the same task configs re-installed in install order
    (``cached_translation`` is stripped and re-resolved on install, keeping
    the spec picklable).
    """

    group_id: int
    register_size: int
    bucket_bits: int
    candidate_fields: Tuple
    seed_base: int
    unit_masks: Tuple
    cmu_configs: Tuple[Tuple, ...]

    @staticmethod
    def from_group(group) -> "GroupReplicaSpec":
        from dataclasses import replace as dc_replace

        return GroupReplicaSpec(
            group_id=group.group_id,
            register_size=group.register_size,
            bucket_bits=group.bucket_bits,
            candidate_fields=group.candidate_fields,
            seed_base=group.seed_base,
            unit_masks=tuple(unit.mask for unit in group.hash_units),
            cmu_configs=tuple(
                tuple(
                    dc_replace(plan.config, cached_translation=None)
                    for plan in cmu.task_plans().values()
                )
                for cmu in group.cmus
            ),
        )

    def build(self):
        from repro.core.cmu_group import CmuGroup

        group = CmuGroup(
            self.group_id,
            num_cmus=len(self.cmu_configs),
            compression_units=len(self.unit_masks),
            register_size=self.register_size,
            bucket_bits=self.bucket_bits,
            candidate_fields=self.candidate_fields,
            seed_base=self.seed_base,
        )
        for unit, mask in zip(group.hash_units, self.unit_masks):
            if not mask.is_empty:
                unit.set_mask(mask)
        for cmu, configs in zip(group.cmus, self.cmu_configs):
            for config in configs:
                cmu.install_task(config)
        return group


def replica_specs(groups: Sequence) -> List[GroupReplicaSpec]:
    return [GroupReplicaSpec.from_group(group) for group in groups]


@dataclass
class ShardResult:
    """One worker's output: the shard's final replica cells.

    ``build_ms``/``compute_ms`` are measured *inside* the worker with raw
    ``perf_counter`` reads (the worker may live in another process, so it
    cannot append to the dispatcher's flight recorder): replica
    construction vs. the batch loop + register snapshot.
    """

    cells: Dict[Tuple[int, int], np.ndarray]
    build_ms: float = 0.0
    compute_ms: float = 0.0


@dataclass
class ShardRunReport:
    """What a sharded run did: pool mode, merge laws, fallback, recovery.

    ``backend`` is the pool mode that ran the shards (``process`` or
    ``thread``), or ``sequential`` when ``fallback`` says why the run stayed
    in-process.  ``merge_laws`` maps every ``(group, cmu, task)`` row to its
    cell law.

    ``retries`` counts serial re-dispatches of crashed or hung shards,
    ``timeouts`` how many shards exceeded the per-shard deadline, and
    ``shard_events`` carries one record per recovery action
    (``{"shard": i, "attempt": n, "reason": ..., "elapsed_ms": ...}``) so
    callers can audit what degraded and what the recovery cost.

    ``shard_timings`` holds one phase-attributed record per shard --
    ``{"shard", "rows", "dispatch_ms", "build_ms", "compute_ms",
    "transport_ms", "retried", "retries", "retry_ms"}`` -- where
    ``dispatch_ms`` is the dispatcher-observed submit-to-result wall,
    ``build_ms`` is non-zero only on the run that (re)built a resident
    replica, ``compute_ms`` is the worker's batch loop, and
    ``transport_ms`` is measured copy cost (packet columns into the
    worker's shared-memory input window plus its register snapshot out).
    ``timing`` aggregates the run's phases: ``plan_ms`` (law selection,
    base snapshots), ``sync_ms`` (shipping rule deltas to the pool),
    ``dispatch_ms`` (submit to last result), ``merge_ms`` (register fold),
    ``total_ms``.  Both are always populated -- they do not require the
    flight recorder to be enabled.

    ``degraded`` carries the pool's reason when it could not run in
    process mode (``fork`` unavailable -> thread-mode pool).
    """

    packets: int
    workers: int
    shards: int
    backend: str
    fallback: Optional[str]
    merge_laws: Dict[Tuple[int, int, int], str]
    retries: int = 0
    timeouts: int = 0
    shard_events: List[Dict[str, object]] = field(default_factory=list)
    shard_timings: List[Dict[str, object]] = field(default_factory=list)
    timing: Dict[str, float] = field(default_factory=dict)
    degraded: Optional[str] = None


def _execute_injection(inject: Optional[Tuple], start: int) -> None:
    """Act on a parent-planned fault instruction at shard-worker entry.

    ``("crash", "kill", pid)`` hard-exits the worker *process* (downgraded
    to an exception when the worker shares the dispatcher's process, i.e.
    thread mode and serial retries); any other crash argument raises
    :class:`~repro.faults.FaultError`.  ``("timeout", seconds, pid)``
    sleeps so the dispatcher's per-shard deadline expires.
    """
    if inject is None:
        return
    kind, arg, parent_pid = inject
    if kind == "timeout":
        try:
            seconds = float(arg)
        except (TypeError, ValueError):
            seconds = DEFAULT_INJECTED_SLEEP_S
        time.sleep(seconds)
        return
    if arg == "kill" and os.getpid() != parent_pid:
        os._exit(13)
    raise FaultError(SITE_SHARD_CRASH, {"shard_start": start, "arg": arg})


def _run_shard(
    specs: Sequence[GroupReplicaSpec],
    columns: Dict[str, np.ndarray],
    start: int,
    stop: int,
    batch_size: int,
    inject: Optional[Tuple] = None,
) -> ShardResult:
    """Serial shard body: build fresh replicas, stream the shard, snapshot.

    The pool's recovery path: a shard whose worker crashed or hung is
    re-run here, in the dispatcher, from the pool's replica mirror.
    """
    _execute_injection(inject, start)
    t_build = time.perf_counter()
    groups = [spec.build() for spec in specs]
    build_ms = (time.perf_counter() - t_build) * 1e3
    n = stop - start
    t_compute = time.perf_counter()
    for off in range(0, n, batch_size):
        hi = min(off + batch_size, n)
        batch = PacketBatch(
            {name: col[off:hi] for name, col in columns.items()}, length=hi - off
        )
        for group in groups:
            group.process_batch(batch)
    cells: Dict[Tuple[int, int], np.ndarray] = {}
    for group in groups:
        for cmu in group.cmus:
            if cmu.task_plans():
                cells[(group.group_id, cmu.index)] = cmu.register.snapshot_cells()
    compute_ms = (time.perf_counter() - t_compute) * 1e3
    return ShardResult(cells, build_ms=build_ms, compute_ms=compute_ms)


def _plan_injection(shard_index: int) -> Optional[Tuple]:
    """Parent-side fault planning for one shard dispatch.

    The deterministic hit counter lives in the *dispatcher's* injector, so
    ``shard_crash@2`` fails exactly the second shard regardless of pool
    mode -- and, one-shot arms disarming on fire, the serial re-dispatch of
    that shard succeeds.  Workers never trip shard sites themselves.
    """
    if not FAULTS.armed:
        return None
    arg = FAULTS.trip(SITE_SHARD_CRASH, shard=shard_index)
    if arg is not None:
        return ("crash", arg if isinstance(arg, str) else "raise", os.getpid())
    arg = FAULTS.trip(SITE_SHARD_TIMEOUT, shard=shard_index)
    if arg is not None:
        sleep = arg if isinstance(arg, str) else str(DEFAULT_INJECTED_SLEEP_S)
        return ("timeout", sleep, os.getpid())
    return None


def _retry_serially(
    build_payload: Callable[[], tuple],
    index: int,
    reason: str,
    stats: Dict[str, object],
) -> ShardResult:
    """Re-dispatch a failed shard on the serial path, bounded by
    :func:`shard_retries`; raises :class:`ShardingError` when exhausted."""
    from repro.telemetry import EV_SHARD_RETRY, TELEMETRY as _TELEMETRY

    attempts = shard_retries()
    last: Optional[BaseException] = None
    for attempt in range(1, attempts + 1):
        stats["retries"] += 1
        event: Dict[str, object] = {
            "shard": index, "attempt": attempt, "reason": reason
        }
        stats["events"].append(event)
        if _TELEMETRY.enabled:
            _TELEMETRY.registry.counter("flymon_shard_retries_total").inc()
            _TELEMETRY.events.emit(
                EV_SHARD_RETRY, shard=index, attempt=attempt, reason=reason
            )
        t0 = time.perf_counter()
        try:
            result = _run_shard(*build_payload())
        except Exception as exc:  # noqa: BLE001 - bounded, surfaced below
            event["elapsed_ms"] = (time.perf_counter() - t0) * 1e3
            last = exc
            reason = f"{type(exc).__name__}: {exc}"
        else:
            event["elapsed_ms"] = (time.perf_counter() - t0) * 1e3
            return result
    raise ShardingError(
        f"shard {index} failed after {attempts} serial re-dispatch(es): {reason}"
    ) from last


def _plan(groups) -> Tuple[Dict[Tuple[int, int, int], str], List[str]]:
    """Every row's cell law, plus the rows that keep the run sequential."""
    laws: Dict[Tuple[int, int, int], str] = {}
    blocked: List[str] = []
    for group in groups:
        for cmu in group.cmus:
            for task_id, plan in cmu.task_plans().items():
                law = cell_law(plan, cmu.bucket_bits, cmu.register.value_mask)
                laws[(group.group_id, cmu.index, task_id)] = law
                if plan.alarm_armed or law not in MERGEABLE:
                    why = "alarm" if plan.alarm_armed else f"law {law}"
                    blocked.append(
                        f"cmug{group.group_id}/cmu{cmu.index}/task{task_id} ({why})"
                    )
    return laws, blocked


def _sequential(
    groups, trace, batch_size: int, reason: str, workers: int, laws
) -> ShardRunReport:
    """In-process batched execution for deployments the pool cannot merge."""
    n = len(trace)
    t0 = time.perf_counter()
    with _RECORDER.span(
        "shard.sequential", cat="dataplane", packets=n, reason=reason
    ):
        for batch in trace.iter_batches(batch_size):
            for group in groups:
                group.process_batch(batch)
    total_ms = (time.perf_counter() - t0) * 1e3
    return ShardRunReport(
        packets=n,
        workers=workers,
        shards=0,
        backend="sequential",
        fallback=reason,
        merge_laws=laws,
        timing={
            "plan_ms": 0.0,
            "sync_ms": 0.0,
            "dispatch_ms": 0.0,
            "merge_ms": 0.0,
            "total_ms": total_ms,
        },
    )


def _merge_into(
    groups,
    base: Dict[Tuple[int, int], np.ndarray],
    shard_results: Sequence[ShardResult],
    laws: Dict[Tuple[int, int, int], str],
) -> None:
    """Fold worker cells into the live registers, row window by row window."""
    for group in groups:
        for cmu in group.cmus:
            location = (group.group_id, cmu.index)
            if location not in base:
                continue
            merged = base[location].copy()
            mask = cmu.register.value_mask
            for task_id, plan in cmu.task_plans().items():
                law = laws[(group.group_id, cmu.index, task_id)]
                window = slice(plan.config.mem.base, plan.config.mem.end)
                for result in shard_results:
                    merged[window] = fold(
                        law, merged[window], result.cells[location][window], mask
                    )
            cmu.register.load_cells(merged)


def _graft_worker_spans(timings: List[Dict[str, object]], parent_id) -> None:
    """Place per-shard worker spans on the recorder timeline.

    Workers may live in other processes, so the dispatcher adds synthetic
    spans from the floats each shard reported: one ``shard.worker`` per
    shard (submit-to-result wall, plus serial retry time), with build /
    compute / transport / retry children laid out from the submit instant.
    Strips the private ``_submit_pc`` field from every record.
    """
    for record in timings:
        submit = record.pop("_submit_pc", None)
        if not _RECORDER.enabled or submit is None:
            continue
        start = _RECORDER.rel_us(submit)
        worker_id = _RECORDER.add(
            "shard.worker",
            record["dispatch_ms"] + record["retry_ms"],
            parent_id=parent_id,
            start_us=start,
            cat="dataplane",
            shard=record["shard"],
            rows=record["rows"],
            retried=record["retried"],
        )
        offset_us = start
        for child, key in (
            ("shard.build", "build_ms"),
            ("shard.compute", "compute_ms"),
            ("shard.transport", "transport_ms"),
        ):
            ms = record[key]
            if ms <= 0.0:
                continue
            _RECORDER.add(
                child,
                ms,
                parent_id=worker_id,
                start_us=offset_us,
                cat="dataplane",
                shard=record["shard"],
            )
            offset_us += ms * 1e3
        if record["retry_ms"] > 0.0:
            _RECORDER.add(
                "shard.retry",
                record["retry_ms"],
                parent_id=worker_id,
                start_us=offset_us,
                cat="dataplane",
                shard=record["shard"],
                retries=record["retries"],
            )


def run_sharded(
    groups,
    trace,
    workers: int,
    batch_size: Optional[int] = None,
    pool: Optional[Callable[[int], object]] = None,
) -> ShardRunReport:
    """Replay ``trace`` through ``groups`` over ``workers`` parallel shards.

    Register state and digests end up bit-identical to a sequential batched
    replay.  A deployment with an alarm-armed row or a row without a cell
    law runs sequentially in-process instead; ``fallback`` on the report
    names the rows and no pool is started.

    ``pool(workers)`` returns the
    :class:`~repro.dataplane.shard_pool.PersistentShardPool` to dispatch
    through (the controller passes its resident pool); by default a pool is
    started for this run and closed after it.
    """
    from repro.dataplane.shard_pool import PersistentShardPool

    if batch_size is None or batch_size <= 0:
        batch_size = DEFAULT_SHARD_BATCH
    workers = max(1, int(workers))
    n = len(trace)
    t_run = time.perf_counter()

    laws, blocked = _plan(groups)
    if n == 0:
        return _sequential(groups, trace, batch_size, "empty trace", workers, laws)
    if blocked:
        described = ", ".join(blocked[:4]) + ("..." if len(blocked) > 4 else "")
        return _sequential(
            groups,
            trace,
            batch_size,
            f"rows without an exact cell merge: {described}",
            workers,
            laws,
        )

    owned = pool is None
    with _RECORDER.span("shard.run", cat="dataplane", packets=n, workers=workers):
        with _RECORDER.span("shard.plan", cat="dataplane"):
            base = {
                (group.group_id, cmu.index): cmu.register.snapshot_cells()
                for group in groups
                for cmu in group.cmus
                if cmu.task_plans()
            }
            ranges = shard_ranges(n, workers)
        plan_ms = (time.perf_counter() - t_run) * 1e3

        t_sync = time.perf_counter()
        with _RECORDER.span("shard.sync", cat="dataplane"):
            if owned:
                shard_pool = PersistentShardPool(groups, workers)
            else:
                shard_pool = pool(workers)
            shard_pool.sync()
        sync_ms = (time.perf_counter() - t_sync) * 1e3

        try:
            t_dispatch = time.perf_counter()
            with _RECORDER.span(
                "shard.dispatch", cat="dataplane", shards=len(ranges)
            ) as dispatch_sp:
                shard_results, backend_used, stats = shard_pool.execute(
                    trace, ranges, batch_size
                )
            dispatch_ms = (time.perf_counter() - t_dispatch) * 1e3
            timings: List[Dict[str, object]] = stats["timings"]
            _graft_worker_spans(timings, dispatch_sp.span_id)

            t_merge = time.perf_counter()
            with _RECORDER.span("shard.merge", cat="dataplane"):
                _merge_into(groups, base, shard_results, laws)
            merge_ms = (time.perf_counter() - t_merge) * 1e3
        finally:
            if owned:
                shard_pool.close()

    from repro.telemetry import TELEMETRY as _TELEMETRY

    if _TELEMETRY.enabled:
        _TELEMETRY.registry.counter("flymon_sharded_runs_total").inc()
        _TELEMETRY.registry.counter("flymon_sharded_packets_total").inc(n)

    return ShardRunReport(
        packets=n,
        workers=workers,
        shards=len(ranges),
        backend=backend_used,
        fallback=None,
        merge_laws=laws,
        retries=stats["retries"],
        timeouts=stats["timeouts"],
        shard_events=stats["events"],
        shard_timings=timings,
        timing={
            "plan_ms": plan_ms,
            "sync_ms": sync_ms,
            "dispatch_ms": dispatch_ms,
            "merge_ms": merge_ms,
            "total_ms": (time.perf_counter() - t_run) * 1e3,
        },
        degraded=shard_pool.degraded_reason,
    )
