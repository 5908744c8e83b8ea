"""Persistent shard worker pool: resident replicas + shared-memory transport.

The runtime behind :func:`repro.dataplane.sharding.run_sharded`.  A replica
rebuild and a pickle round-trip of every register array per
``process_trace`` call would dominate the parallel path and epoch
rotation, so this module keeps a pool of long-lived ``fork`` workers whose
:class:`~repro.core.cmu_group.CmuGroup` replicas stay resident across runs
and across epoch rotations:

* **control channel** -- a pipe per worker carries *deltas only*: the pool
  mirrors the live groups as :class:`GroupReplicaSpec` tuples and, when the
  controller reports a mutation, diffs the mirror against the live state
  into ``remove`` / ``mask`` / ``install`` ops (ordered so re-installs
  never collide) that every worker applies to its resident replica.
* **data channel** -- packet columns go *into* each worker through a
  per-worker anonymous ``mmap`` window (``FLYMON_SHARD_SHM_ROWS`` rows per
  round, column-major ``int64``), and register state comes *back* through a
  per-worker output window laid out register-by-register in native dtype.
  Nothing on the hot path is pickled.
* **epoch rotation** -- workers are *delta machines*: every run harvests
  registers into shared memory and zeroes them in place, so a freshly
  rotated epoch needs no worker-side work at all beyond a ``seal``
  acknowledgement.

Shards are contiguous per worker, each streamed through the input window
in capacity-sized rounds, and a failed worker's shard is re-dispatched
serially (:func:`repro.dataplane.sharding._retry_serially`).  A dead or hung
worker is terminated, its shard re-run serially, and the slot respawned
from the mirror -- one bad worker never costs the run.

When ``fork`` is unavailable (spawn-only platforms, sandboxes) the pool
degrades to a thread mode with resident per-slot replicas and records the
reason, surfaced as ``ShardRunReport.degraded``; it never crashes.
"""

from __future__ import annotations

import mmap
import os
import time
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.dataplane.sharding import (
    GroupReplicaSpec,
    ShardResult,
    ShardingError,
    _execute_injection,
    _plan_injection,
    _retry_serially,
    replica_specs,
    shard_timeout,
)
from repro.telemetry import RECORDER as _RECORDER
from repro.traffic.batch import PacketBatch

#: Rows per worker the shared input window holds per round
#: (``FLYMON_SHARD_SHM_ROWS``); traces larger than ``workers * rows``
#: stream through in multiple rounds.
DEFAULT_SHM_ROWS = 1 << 16

_MIN_SHM_ROWS = 64

#: Pool modes, reported as ``ShardRunReport.backend``.
BACKEND_PROCESS = "process"
BACKEND_THREAD = "thread"


class ShardPoolError(ShardingError):
    """Raised for invalid persistent-pool configuration or a closed pool."""


def shm_rows() -> int:
    """Input-window capacity in rows per worker."""
    raw = os.environ.get("FLYMON_SHARD_SHM_ROWS", "").strip()
    if not raw:
        return DEFAULT_SHM_ROWS
    try:
        return max(_MIN_SHM_ROWS, int(raw))
    except ValueError:
        return DEFAULT_SHM_ROWS


def _diff_specs(
    old: Sequence[GroupReplicaSpec], new: Sequence[GroupReplicaSpec]
) -> List[Tuple]:
    """Delta ops turning replicas built from ``old`` into ``new``.

    Removes run first (freeing memory windows and filter slots), then hash
    mask updates (installs re-resolve translations against the new masks),
    then installs.  ``CmuTaskConfig`` equality ignores the cached
    translation, so an untouched task never ships.
    """
    removes: List[Tuple] = []
    masks: List[Tuple] = []
    installs: List[Tuple] = []
    for old_group, new_group in zip(old, new):
        gid = new_group.group_id
        for unit, (old_mask, new_mask) in enumerate(
            zip(old_group.unit_masks, new_group.unit_masks)
        ):
            if old_mask != new_mask:
                masks.append(("mask", gid, unit, new_mask))
        for cmu_index, (old_cfgs, new_cfgs) in enumerate(
            zip(old_group.cmu_configs, new_group.cmu_configs)
        ):
            old_by_id = {cfg.task_id: cfg for cfg in old_cfgs}
            new_by_id = {cfg.task_id: cfg for cfg in new_cfgs}
            for task_id, cfg in old_by_id.items():
                if task_id not in new_by_id:
                    removes.append(("remove", gid, cmu_index, task_id))
                elif new_by_id[task_id] != cfg:
                    removes.append(("remove", gid, cmu_index, task_id))
                    installs.append(("install", gid, cmu_index, new_by_id[task_id]))
            for task_id, cfg in new_by_id.items():
                if task_id not in old_by_id:
                    installs.append(("install", gid, cmu_index, cfg))
    return removes + masks + installs


def _apply_ops(groups_by_id: Dict[int, object], ops: Sequence[Tuple]) -> None:
    """Apply delta ops to resident replica groups (worker side)."""
    for op in ops:
        kind = op[0]
        if kind == "remove":
            _, gid, cmu_index, task_id = op
            groups_by_id[gid].cmus[cmu_index].remove_task(task_id)
        elif kind == "mask":
            _, gid, unit_index, mask = op
            unit = groups_by_id[gid].hash_units[unit_index]
            if mask.is_empty:
                unit.clear_mask()
            else:
                unit.set_mask(mask)
        elif kind == "install":
            _, gid, cmu_index, config = op
            groups_by_id[gid].cmus[cmu_index].install_task(config)
        else:  # pragma: no cover - protocol error
            raise ShardPoolError(f"unknown delta op {kind!r}")


def _scrub(groups: Sequence) -> None:
    """Zero a replica's run state after a failed run: registers and
    digests.  Rules and masks are never touched by packet processing, so
    the resident structure stays valid."""
    for group in groups:
        for cmu in group.cmus:
            cmu._digests.clear()
            if cmu.task_plans():
                cmu.register.reset()


def _pool_worker_main(
    conn,
    specs: Sequence[GroupReplicaSpec],
    fields: Sequence[str],
    cap_rows: int,
    in_buf,
    out_buf,
    layout: Dict[Tuple[int, int], Tuple[int, object, int]],
    out_stride: int,
    slot: int,
) -> None:
    """Long-lived worker loop: build replicas once, then serve commands.

    Protocol (one request, one reply, except ``begin`` which is fire and
    forget):

    * ``("sync", ops)`` -> ``("ok",)`` -- apply rule deltas.
    * ``("begin", start, batch_size, inject)`` -- arm a run whose shard
      starts at global row ``start``.
    * ``("rows", lo, hi)`` -> ``("ok", compute_ms)`` -- process the rows the
      parent staged in the input window (global ``[lo, hi)``, a sub-range
      of the armed run).
    * ``("harvest",)`` -> ``("ok", out_ms, build_ms)`` -- snapshot every
      register into the output window and zero it.
    * ``("seal", epoch)`` -> ``("ok", epoch)`` -- epoch rotation barrier.
    * ``("stop",)`` -> ``("ok",)`` and exit.
    """
    try:
        t_build = time.perf_counter()
        groups = [spec.build() for spec in specs]
        build_ms = (time.perf_counter() - t_build) * 1e3
        by_id = {group.group_id: group for group in groups}

        row_bytes = cap_rows * 8
        in_base = slot * len(fields) * row_bytes
        in_cols = {
            name: np.frombuffer(
                in_buf, dtype=np.int64, count=cap_rows, offset=in_base + j * row_bytes
            )
            for j, name in enumerate(fields)
        }
        out_views = {
            key: np.frombuffer(
                out_buf, dtype=dtype, count=size, offset=slot * out_stride + off
            )
            for key, (off, dtype, size) in layout.items()
        }

        ctx: Optional[dict] = None

        while True:
            msg = conn.recv()
            cmd = msg[0]
            if cmd == "rows":
                _, lo, hi = msg
                t0 = time.perf_counter()
                try:
                    inject = ctx.pop("inject", None)
                    if inject is not None:
                        _execute_injection(inject, ctx["start"])
                    n = hi - lo
                    batch_size = ctx["batch_size"]
                    for off in range(0, n, batch_size):
                        top = min(off + batch_size, n)
                        batch = PacketBatch(
                            {name: col[off:top] for name, col in in_cols.items()},
                            length=top - off,
                        )
                        for group in groups:
                            group.process_batch(batch)
                    conn.send(("ok", (time.perf_counter() - t0) * 1e3))
                except Exception as exc:  # noqa: BLE001 - reported to parent
                    _scrub(groups)
                    ctx = None
                    conn.send(("err", f"{type(exc).__name__}: {exc}"))
            elif cmd == "begin":
                _, start, batch_size, inject = msg
                ctx = {
                    "start": start,
                    "batch_size": batch_size,
                    "inject": inject,
                }
            elif cmd == "harvest":
                t0 = time.perf_counter()
                try:
                    for group in groups:
                        for cmu in group.cmus:
                            cmu._digests.clear()
                            if cmu.task_plans():
                                key = (group.group_id, cmu.index)
                                cmu.register.snapshot_into(out_views[key])
                                cmu.register.reset()
                    out_ms = (time.perf_counter() - t0) * 1e3
                    conn.send(("ok", out_ms, build_ms))
                    build_ms = 0.0
                    ctx = None
                except Exception as exc:  # noqa: BLE001 - reported to parent
                    _scrub(groups)
                    ctx = None
                    conn.send(("err", f"{type(exc).__name__}: {exc}"))
            elif cmd == "sync":
                try:
                    _apply_ops(by_id, msg[1])
                    conn.send(("ok",))
                except Exception as exc:  # noqa: BLE001 - reported to parent
                    conn.send(("err", f"{type(exc).__name__}: {exc}"))
            elif cmd == "seal":
                _scrub(groups)
                conn.send(("ok", msg[1]))
            elif cmd == "stop":
                conn.send(("ok",))
                return
    except (EOFError, OSError, KeyboardInterrupt):
        return


class _WorkerFailure(Exception):
    """Internal: a pool worker failed a request."""

    def __init__(self, reason: str, dead: bool, timed_out: bool = False) -> None:
        super().__init__(reason)
        self.reason = reason
        self.dead = dead
        self.timed_out = timed_out


class _ProcWorker:
    __slots__ = ("proc", "conn", "dead")

    def __init__(self, proc, conn) -> None:
        self.proc = proc
        self.conn = conn
        self.dead = False


class PersistentShardPool:
    """Long-lived shard workers with resident replicas (see module docs).

    Workers are ``fork``ed processes; on a platform without ``fork`` (or
    where worker processes fail to start) the pool runs in thread mode with
    the reason kept on :attr:`degraded_reason`.  The pool mirrors the live
    ``groups`` it was built from -- callers flag mutations with
    :meth:`mark_dirty` (the controller does this from every transactional
    mutator) and the next :meth:`sync` ships the delta to every worker.
    """

    def __init__(self, groups, workers: int) -> None:
        if workers < 1:
            raise ShardPoolError("worker count must be >= 1")
        self._groups = groups
        self.workers = int(workers)
        self.closed = False
        self.degraded_reason: Optional[str] = None
        self.seals = 0
        self._dirty = False
        self._mirror: List[GroupReplicaSpec] = replica_specs(groups)
        self._fields: Tuple[str, ...] = ()
        self._executor = None
        self._slots: List[List] = []
        self._procs: List[_ProcWorker] = []

        import multiprocessing as mp

        mode = BACKEND_PROCESS
        if "fork" not in mp.get_all_start_methods():
            mode = BACKEND_THREAD
            self.degraded_reason = (
                "fork start method unavailable; pool degraded to threads"
            )
        if mode == BACKEND_PROCESS:
            try:
                self._start_processes()
            except (OSError, PermissionError) as exc:
                mode = BACKEND_THREAD
                self.degraded_reason = (
                    f"worker processes failed to start ({exc}); "
                    "pool degraded to threads"
                )
        if mode == BACKEND_THREAD:
            self._start_threads()
        self.mode = mode

    # -- construction --------------------------------------------------------

    def _start_processes(self) -> None:
        import multiprocessing as mp

        from repro.traffic.packet import PACKET_FIELDS

        self._ctx = mp.get_context("fork")
        self._fields = tuple(PACKET_FIELDS)
        self._cap = shm_rows()
        row_bytes = self._cap * 8
        self._in_buf = mmap.mmap(-1, self.workers * len(self._fields) * row_bytes)

        layout: Dict[Tuple[int, int], Tuple[int, object, int]] = {}
        offset = 0
        for group in self._groups:
            for cmu in group.cmus:
                dtype = cmu.register._cells.dtype
                size = cmu.register.size
                layout[(group.group_id, cmu.index)] = (offset, dtype, size)
                offset += size * dtype.itemsize
        self._layout = layout
        self._stride = offset
        self._out_buf = mmap.mmap(-1, max(1, self.workers * offset))

        self._in_views = []
        self._out_views = []
        for slot in range(self.workers):
            in_base = slot * len(self._fields) * row_bytes
            self._in_views.append(
                {
                    name: np.frombuffer(
                        self._in_buf,
                        dtype=np.int64,
                        count=self._cap,
                        offset=in_base + j * row_bytes,
                    )
                    for j, name in enumerate(self._fields)
                }
            )
            self._out_views.append(
                {
                    key: np.frombuffer(
                        self._out_buf,
                        dtype=dtype,
                        count=size,
                        offset=slot * self._stride + off,
                    )
                    for key, (off, dtype, size) in layout.items()
                }
            )
        self._procs = [None] * self.workers  # type: ignore[list-item]
        for slot in range(self.workers):
            self._spawn(slot)

    def _spawn(self, slot: int) -> None:
        parent_conn, child_conn = self._ctx.Pipe()
        proc = self._ctx.Process(
            target=_pool_worker_main,
            args=(
                child_conn,
                self._mirror,
                self._fields,
                self._cap,
                self._in_buf,
                self._out_buf,
                self._layout,
                self._stride,
                slot,
            ),
            daemon=True,
        )
        proc.start()
        child_conn.close()
        self._procs[slot] = _ProcWorker(proc, parent_conn)

    def _start_threads(self) -> None:
        from concurrent.futures import ThreadPoolExecutor

        self._slots = [
            [spec.build() for spec in self._mirror] for _ in range(self.workers)
        ]
        self._executor = ThreadPoolExecutor(max_workers=self.workers)

    # -- introspection -------------------------------------------------------

    def pids(self) -> List[Optional[int]]:
        """Worker process ids (``None`` entries in thread mode)."""
        if self.mode != BACKEND_PROCESS:
            return [None] * self.workers
        return [worker.proc.pid for worker in self._procs]

    # -- delta sync ----------------------------------------------------------

    def mark_dirty(self) -> None:
        """Flag that the live groups mutated; the next run re-syncs."""
        self._dirty = True

    def sync(self) -> int:
        """Ship rule deltas to every worker; returns the op count.

        Always re-derives the live state rather than trusting the dirty
        flag alone: a caller-owned transaction can roll the controller back
        *after* a run synced its mutations, with no hook firing.  Spec
        comparison is a tuple-equality check, so the no-change case costs
        microseconds.
        """
        if self.closed:
            raise ShardPoolError("pool is closed")
        new_mirror = replica_specs(self._groups)
        self._dirty = False
        if new_mirror == self._mirror:
            return 0
        ops = _diff_specs(self._mirror, new_mirror)
        self._mirror = new_mirror
        if not ops:
            return 0
        if self.mode == BACKEND_THREAD:
            for slot_groups in self._slots:
                _apply_ops(
                    {group.group_id: group for group in slot_groups}, ops
                )
            return len(ops)
        acked = []
        for slot, worker in enumerate(self._procs):
            if worker.dead:
                continue
            try:
                worker.conn.send(("sync", ops))
                acked.append(slot)
            except (OSError, ValueError):
                worker.dead = True
        timeout = shard_timeout()
        for slot in acked:
            try:
                msg = self._await(slot, timeout)
                if msg[0] != "ok":
                    raise _WorkerFailure(msg[1], dead=False)
            except _WorkerFailure:
                # A replica that cannot apply the delta is inconsistent;
                # kill it and rebuild from the fresh mirror.
                self._kill(slot)
        self._respawn_dead()
        return len(ops)

    # -- execution -----------------------------------------------------------

    def execute(
        self,
        trace,
        ranges: Sequence[Tuple[int, int]],
        batch_size: int,
    ) -> Tuple[List[ShardResult], str, Dict[str, object]]:
        """Run one sharded pass over ``ranges`` (one shard per worker).

        Returns ``(results, mode, stats)`` with ``stats = {"retries",
        "timeouts", "events", "timings"}``; each ``timings`` record carries
        a private ``_submit_pc`` (raw ``perf_counter`` submit time) that the
        caller strips after placing worker spans on the recorder timeline.
        """
        if self.closed:
            raise ShardPoolError("pool is closed")
        if len(ranges) > self.workers:
            raise ShardPoolError(
                f"run needs {len(ranges)} shards, pool has {self.workers} workers"
            )
        if self._dirty:
            self.sync()

        count = len(ranges)
        columns = trace.columns
        stats: Dict[str, object] = {
            "retries": 0, "timeouts": 0, "events": [], "timings": []
        }
        results: List[Optional[ShardResult]] = [None] * count

        def payload(i: int, inject: Optional[Tuple]) -> tuple:
            start, stop = ranges[i]
            return (
                self._mirror,
                {name: col[start:stop] for name, col in columns.items()},
                start,
                stop,
                batch_size,
                inject,
            )

        submit_pc: Dict[int, float] = {}
        dispatch_ms: Dict[int, float] = {}
        build_ms: Dict[int, float] = {}
        compute_ms: Dict[int, float] = {i: 0.0 for i in range(count)}
        transport_ms: Dict[int, float] = {i: 0.0 for i in range(count)}
        failed: Dict[int, str] = {}

        def fail(i: int, reason: str, timed_out: bool = False) -> None:
            if i in failed:
                return
            failed[i] = reason
            dispatch_ms[i] = (time.perf_counter() - submit_pc[i]) * 1e3
            if timed_out:
                stats["timeouts"] += 1

        if self.mode == BACKEND_THREAD:
            self._execute_threads(
                ranges, columns, batch_size, results, submit_pc, dispatch_ms,
                compute_ms, transport_ms, failed, stats,
            )
        else:
            self._execute_processes(
                ranges, columns, batch_size, results, submit_pc, dispatch_ms,
                build_ms, compute_ms, transport_ms, failed, fail,
            )

        for i, reason in sorted(failed.items()):
            results[i] = _retry_serially(
                lambda i=i: payload(i, _plan_injection(i)), i, reason, stats
            )
        if self.mode == BACKEND_PROCESS:
            self._respawn_dead()

        for i in range(count):
            events = [e for e in stats["events"] if e["shard"] == i]
            start, stop = ranges[i]
            result = results[i]
            stats["timings"].append(
                {
                    "shard": i,
                    "rows": stop - start,
                    "dispatch_ms": dispatch_ms.get(i, 0.0),
                    "build_ms": (
                        result.build_ms if events else build_ms.get(i, 0.0)
                    ),
                    "compute_ms": (
                        result.compute_ms if events else compute_ms.get(i, 0.0)
                    ),
                    "transport_ms": transport_ms.get(i, 0.0),
                    "retried": bool(events),
                    "retries": len(events),
                    "retry_ms": sum(e.get("elapsed_ms", 0.0) for e in events),
                    "_submit_pc": submit_pc.get(i),
                }
            )
        return results, self.mode, stats

    def _execute_processes(
        self, ranges, columns, batch_size, results, submit_pc, dispatch_ms,
        build_ms, compute_ms, transport_ms, failed, fail,
    ) -> None:
        count = len(ranges)
        timeout = shard_timeout()
        injections = [_plan_injection(i) for i in range(count)]

        for i, (start, _stop) in enumerate(ranges):
            worker = self._procs[i]
            submit_pc[i] = time.perf_counter()
            if worker.dead:
                fail(i, "worker process died")
                continue
            try:
                worker.conn.send(("begin", start, batch_size, injections[i]))
            except (OSError, ValueError):
                worker.dead = True
                fail(i, "worker process died")

        chunk_lists = [
            [
                (lo, min(lo + self._cap, stop))
                for lo in range(start, stop, self._cap)
            ]
            for start, stop in ranges
        ]
        rounds = max(len(chunks) for chunks in chunk_lists)
        for rnd in range(rounds):
            sent = []
            with _RECORDER.span("shard.shm", cat="dataplane", round=rnd):
                for i in range(count):
                    if i in failed or rnd >= len(chunk_lists[i]):
                        continue
                    lo, hi = chunk_lists[i][rnd]
                    t0 = time.perf_counter()
                    views = self._in_views[i]
                    n = hi - lo
                    for name, col in columns.items():
                        views[name][:n] = col[lo:hi]
                    transport_ms[i] += (time.perf_counter() - t0) * 1e3
                    try:
                        self._procs[i].conn.send(("rows", lo, hi))
                        sent.append(i)
                    except (OSError, ValueError):
                        self._procs[i].dead = True
                        fail(i, "worker process died")
            for i in sent:
                try:
                    msg = self._await(i, timeout)
                except _WorkerFailure as exc:
                    fail(i, exc.reason, timed_out=exc.timed_out)
                    continue
                if msg[0] == "ok":
                    compute_ms[i] += msg[1]
                else:
                    fail(i, msg[1])

        harvested = []
        for i in range(count):
            if i in failed:
                continue
            try:
                self._procs[i].conn.send(("harvest",))
                harvested.append(i)
            except (OSError, ValueError):
                self._procs[i].dead = True
                fail(i, "worker process died")
        for i in harvested:
            try:
                msg = self._await(i, timeout)
            except _WorkerFailure as exc:
                fail(i, exc.reason, timed_out=exc.timed_out)
                continue
            if msg[0] != "ok":
                fail(i, msg[1])
                continue
            _, out_ms, worker_build_ms = msg
            results[i] = ShardResult(
                self._out_views[i],
                build_ms=worker_build_ms, compute_ms=compute_ms[i],
            )
            build_ms[i] = worker_build_ms
            transport_ms[i] += out_ms
            dispatch_ms[i] = (time.perf_counter() - submit_pc[i]) * 1e3

    def _execute_threads(
        self, ranges, columns, batch_size, results, submit_pc, dispatch_ms,
        compute_ms, transport_ms, failed, stats,
    ) -> None:
        from concurrent.futures import TimeoutError as FuturesTimeout

        timeout = shard_timeout()
        futures = {}
        for i, (start, stop) in enumerate(ranges):
            inject = _plan_injection(i)
            submit_pc[i] = time.perf_counter()
            futures[i] = self._executor.submit(
                self._thread_run, self._slots[i], columns, start, stop,
                batch_size, inject,
            )
        stale = []
        for i, future in futures.items():
            try:
                results[i], compute_ms[i], transport_ms[i] = future.result(
                    timeout=timeout
                )
            except FuturesTimeout:
                stats["timeouts"] += 1
                failed[i] = "shard timed out"
                stale.append(i)
            except Exception as exc:  # noqa: BLE001 - recovered by retry
                failed[i] = f"{type(exc).__name__}: {exc}"
                stale.append(i)
            dispatch_ms[i] = (time.perf_counter() - submit_pc[i]) * 1e3
        if stale:
            # A hung thread may still own its slot's replicas; abandon the
            # executor and rebuild every stale slot from the mirror.
            self._executor.shutdown(wait=False, cancel_futures=True)
            from concurrent.futures import ThreadPoolExecutor

            self._executor = ThreadPoolExecutor(max_workers=self.workers)
            for i in stale:
                self._slots[i] = [spec.build() for spec in self._mirror]

    @staticmethod
    def _thread_run(groups, columns, start, stop, batch_size, inject):
        try:
            _execute_injection(inject, start)
            n = stop - start
            t0 = time.perf_counter()
            for off in range(0, n, batch_size):
                hi = min(off + batch_size, n)
                batch = PacketBatch(
                    {
                        name: col[start + off : start + hi]
                        for name, col in columns.items()
                    },
                    length=hi - off,
                )
                for group in groups:
                    group.process_batch(batch)
            compute = (time.perf_counter() - t0) * 1e3
            t1 = time.perf_counter()
            cells: Dict[Tuple[int, int], np.ndarray] = {}
            for group in groups:
                for cmu in group.cmus:
                    cmu._digests.clear()
                    if cmu.task_plans():
                        cells[(group.group_id, cmu.index)] = (
                            cmu.register.snapshot_cells()
                        )
                        cmu.register.reset()
            out_ms = (time.perf_counter() - t1) * 1e3
            result = ShardResult(cells, compute_ms=compute)
            return result, compute, out_ms
        except BaseException:
            _scrub(groups)
            raise

    # -- worker lifecycle ----------------------------------------------------

    def _await(self, slot: int, timeout: Optional[float]):
        """Wait for one reply; raises :class:`_WorkerFailure` on death or
        deadline (terminating the worker so it cannot wedge the pipe).

        The deadline is per reply."""
        worker = self._procs[slot]
        deadline = None if timeout is None else time.perf_counter() + timeout
        while True:
            try:
                if worker.conn.poll(0.05):
                    return worker.conn.recv()
            except (EOFError, OSError):
                worker.dead = True
                raise _WorkerFailure("worker process died", dead=True)
            if not worker.proc.is_alive():
                # One last drain: the reply may have been written pre-exit.
                try:
                    if worker.conn.poll(0):
                        return worker.conn.recv()
                except (EOFError, OSError):
                    pass
                worker.dead = True
                raise _WorkerFailure("worker process died", dead=True)
            if deadline is not None and time.perf_counter() > deadline:
                self._kill(slot)
                raise _WorkerFailure("shard timed out", dead=True, timed_out=True)

    def _kill(self, slot: int) -> None:
        worker = self._procs[slot]
        worker.dead = True
        try:
            worker.proc.terminate()
        except Exception:  # noqa: BLE001 - already gone
            pass

    def _respawn_dead(self) -> None:
        for slot, worker in enumerate(self._procs):
            if not worker.dead:
                continue
            try:
                worker.proc.join(0.5)
            except Exception:  # noqa: BLE001 - already reaped
                pass
            try:
                worker.conn.close()
            except OSError:
                pass
            self._spawn(slot)

    # -- epoch rotation --------------------------------------------------

    def seal_epoch(self, epoch_index: int) -> None:
        """Epoch-rotation barrier: replicas confirm they are zeroed.

        Harvest already resets worker registers after every run, so this is
        a cheap round trip -- it exists so rotation has an explicit
        synchronization point and so a wedged worker is caught (and
        respawned) at the epoch boundary instead of mid-ingest.
        """
        if self.closed:
            return
        self.seals += 1
        if self.mode == BACKEND_THREAD:
            for slot_groups in self._slots:
                _scrub(slot_groups)
            return
        sealed = []
        for slot, worker in enumerate(self._procs):
            if worker.dead:
                continue
            try:
                worker.conn.send(("seal", epoch_index))
                sealed.append(slot)
            except (OSError, ValueError):
                worker.dead = True
        timeout = shard_timeout()
        for slot in sealed:
            try:
                self._await(slot, timeout)
            except _WorkerFailure:
                pass
        self._respawn_dead()

    # -- shutdown --------------------------------------------------------

    def close(self) -> None:
        """Stop every worker and release the pool (idempotent)."""
        if self.closed:
            return
        self.closed = True
        if self.mode == BACKEND_THREAD:
            if self._executor is not None:
                self._executor.shutdown(wait=False, cancel_futures=True)
            self._slots = []
            return
        for worker in self._procs:
            if worker.dead:
                continue
            try:
                worker.conn.send(("stop",))
            except (OSError, ValueError):
                pass
        for worker in self._procs:
            try:
                worker.proc.join(0.5)
                if worker.proc.is_alive():
                    worker.proc.terminate()
                    worker.proc.join(0.2)
            except Exception:  # noqa: BLE001 - shutdown best effort
                pass
            try:
                worker.conn.close()
            except OSError:
                pass
        self._in_views = []
        self._out_views = []

    def __del__(self) -> None:  # pragma: no cover - GC safety net
        try:
            self.close()
        except Exception:  # noqa: BLE001
            pass
