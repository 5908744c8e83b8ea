"""The Composable Measurement Unit (§3.1, §3.2).

One CMU is a SALU + register pair plus its share of the group's four
pipeline stages.  At runtime it hosts multiple concurrent measurement tasks
(disjoint filters, disjoint memory partitions); per packet it:

1. matches the packet against its task-selection table (initialization),
2. computes the task's key from the group's compressed keys and selects the
   two parameters,
3. translates the address into the task's memory partition and preprocesses
   the first parameter (preparation),
4. executes the task's stateful operation and exports the result to the PHV
   for downstream CMUs (operation).

The task-selection table is a real ternary table (filters are TCAM
matches); preparation-stage rule footprints are tracked per task so resource
accounting reflects what a hardware deployment would install.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Mapping, Optional, Sequence

import numpy as np

from repro.core.address_translation import make_translation
from repro.core.compression import KeySelector
from repro.core.operations import load_reduced_operation_set
from repro.core.memory import MemRange
from repro.core.params import (
    IdentityProcessor,
    ParamProcessor,
    ParamSelector,
    param_field,
    result_field,
)
from repro.core.task import TaskFilter
from repro.dataplane.hashing import HashFunction
from repro.dataplane.register import Register
from repro.dataplane.tables import TableEntry, TernaryMatchTable
from repro.telemetry import TELEMETRY as _TELEMETRY

#: Filter fields every task-selection table matches on.
FILTER_FIELDS = ("src_ip", "dst_ip", "src_port", "dst_port", "protocol")


@dataclass(frozen=True)
class CmuTaskConfig:
    """One task's compiled configuration on one CMU.

    ``alarm_threshold`` arms data-plane reporting: when the operation's
    exported result reaches it, the packet's key (extracted per
    ``digest_key``) is pushed to the CMU's digest queue -- Tofino's digest
    mechanism, which is how threshold-based heavy-hitter detection reports
    flows without the control plane enumerating candidates (§4).
    """

    task_id: int
    filter: TaskFilter
    key_selector: KeySelector
    p1: ParamSelector
    p2: ParamSelector
    p1_processor: ParamProcessor
    mem: MemRange
    op: str
    strategy: str = "tcam"
    sample_prob: float = 1.0
    priority: int = 0
    alarm_threshold: Optional[int] = None
    digest_key: Optional[object] = None  # FlowKeyDef, kept loose for layering
    #: Address translation resolved at install time -- on hardware the
    #: translation *is* a set of rules installed once per task, so building
    #: it per packet was pure model overhead.  ``Cmu.install_task`` fills it.
    cached_translation: Optional[object] = field(
        default=None, compare=False, repr=False
    )

    def translation(self, register_size: int):
        cached = self.cached_translation
        if cached is not None and cached.register_size == register_size:
            return cached
        return make_translation(self.strategy, register_size, self.mem)


class TaskConflictError(RuntimeError):
    """A task's filter intersects an existing task on the same CMU."""


@dataclass(frozen=True)
class CmuTaskPlan:
    """A task's configuration flattened for batched execution.

    Built once per install/update/remove (never per packet or per batch):
    everything :meth:`Cmu.process_batch` needs -- the resolved address
    translation, the sampling threshold in hash units, and whether the alarm
    path is armed -- so the batch loop is pure numpy kernels plus dictionary-
    free attribute reads.
    """

    config: CmuTaskConfig
    translation: object
    sample_threshold: Optional[float]  # None = always run; else hash < threshold
    alarm_armed: bool


class Cmu:
    """One Composable Measurement Unit inside a CMU Group."""

    def __init__(
        self,
        group_id: int,
        index: int,
        register_size: int = 1 << 16,
        bucket_bits: int = 16,
    ) -> None:
        self.group_id = group_id
        self.index = index
        self.register = Register(register_size, bucket_bits)
        load_reduced_operation_set(self.register)
        self.task_table = TernaryMatchTable(
            f"cmug{group_id}/cmu{index}/select_task", FILTER_FIELDS
        )
        self._configs: Dict[int, CmuTaskConfig] = {}
        self._plans: Dict[int, CmuTaskPlan] = {}
        self._entries: Dict[int, TableEntry] = {}
        #: Preparation-stage TCAM entries per task (address translation +
        #: parameter preprocessing) -- the Fig. 11a accounting.
        self._prep_tcam: Dict[int, int] = {}
        self._sample_hash = HashFunction(0x5A5A ^ (group_id << 8) ^ index)
        #: Data-plane digests: {task_id: set of reported flow keys}.
        self._digests: Dict[int, set] = {}
        #: Cached telemetry handle (bound on first use while enabled).
        self._access_counter = None

    # -- control plane ------------------------------------------------------

    @property
    def register_size(self) -> int:
        return self.register.size

    @property
    def bucket_bits(self) -> int:
        return self.register.bit_width

    @property
    def task_ids(self) -> List[int]:
        return sorted(self._configs)

    def config(self, task_id: int) -> CmuTaskConfig:
        return self._configs[task_id]

    def task_plans(self) -> Dict[int, CmuTaskPlan]:
        """The compiled per-task plans, in install order (read-only copy)."""
        return dict(self._plans)

    def has_conflict(self, task_filter: TaskFilter) -> bool:
        """Whether the filter intersects any task already on this CMU
        (§3.3: a SALU executes at most one task per packet)."""
        return any(
            cfg.filter.intersects(task_filter) for cfg in self._configs.values()
        )

    def install_task(self, config: CmuTaskConfig) -> None:
        """Install a compiled task (the apply side of its runtime rules)."""
        if config.task_id in self._configs:
            raise ValueError(f"task {config.task_id} already on CMU {self.index}")
        if self.has_conflict(config.filter) and config.sample_prob >= 1.0:
            raise TaskConflictError(
                f"task {config.task_id}'s filter intersects an existing task "
                f"on cmug{self.group_id}/cmu{self.index}"
            )
        if config.mem.end > self.register_size:
            raise ValueError("task memory range exceeds the register")
        entry = TableEntry.build(
            config.filter.to_ternary(),
            action="set_task",
            args={"task_id": config.task_id},
            priority=config.priority,
        )
        translation = make_translation(config.strategy, self.register_size, config.mem)
        config = replace(config, cached_translation=translation)
        self.task_table.insert(entry)
        self._entries[config.task_id] = entry
        self._configs[config.task_id] = config
        self._plans[config.task_id] = self._compile_plan(config)
        prep = config.p1_processor.tcam_entries()
        if config.strategy == "tcam":
            prep += translation.tcam_entries()
        self._prep_tcam[config.task_id] = prep

    def update_task_filter(self, task_id: int, new_filter: TaskFilter) -> None:
        """Swap a running task's filter (one table-rule update, §3.4).

        Register state is untouched: the task keeps measuring, only its
        traffic selection changes.  Conflicts with co-located tasks are
        re-checked against the new filter.
        """
        config = self._configs.get(task_id)
        if config is None:
            raise KeyError(f"task {task_id} is not on this CMU")
        others = [
            cfg for tid, cfg in self._configs.items() if tid != task_id
        ]
        if config.sample_prob >= 1.0 and any(
            cfg.filter.intersects(new_filter) for cfg in others
        ):
            raise TaskConflictError(
                f"new filter for task {task_id} intersects a co-located task"
            )
        old_entry = self._entries[task_id]
        new_entry = TableEntry.build(
            new_filter.to_ternary(),
            action="set_task",
            args={"task_id": task_id},
            priority=config.priority,
        )
        self.task_table.insert(new_entry)
        self.task_table.remove(old_entry)
        self._entries[task_id] = new_entry
        new_config = replace(config, filter=new_filter)
        self._configs[task_id] = new_config
        self._plans[task_id] = self._compile_plan(new_config)

    def remove_task(self, task_id: int) -> None:
        entry = self._entries.pop(task_id, None)
        if entry is not None:
            self.task_table.remove(entry)
        self._configs.pop(task_id, None)
        self._plans.pop(task_id, None)
        self._prep_tcam.pop(task_id, None)

    def _compile_plan(self, config: CmuTaskConfig) -> CmuTaskPlan:
        return CmuTaskPlan(
            config=config,
            translation=config.translation(self.register_size),
            sample_threshold=(
                config.sample_prob * 2.0**32 if config.sample_prob < 1.0 else None
            ),
            alarm_armed=(
                config.alarm_threshold is not None and config.digest_key is not None
            ),
        )

    def prep_tcam_entries(self) -> int:
        return sum(self._prep_tcam.values())

    def control_digest(self) -> tuple:
        """A hashable summary of this CMU's task and register state.

        Two CMUs with equal digests host the same tasks (filters, memory
        ranges, operations, key selectors) over bit-identical register
        contents -- the equality integrity audits and checkpoint round-trip
        tests assert.
        """
        import zlib

        tasks = tuple(
            (
                tid,
                cfg.filter.describe(),
                cfg.mem.base,
                cfg.mem.length,
                cfg.op,
                tuple(cfg.key_selector.units),
                cfg.key_selector.offset,
                cfg.key_selector.width,
            )
            for tid, cfg in sorted(self._configs.items())
        )
        register_crc = zlib.crc32(
            self.register.read_range(0, self.register_size).tobytes()
        )
        return (tasks, register_crc)

    def drain_digests(self, task_id: int) -> set:
        """Pop the task's accumulated alarm digests (control-plane read)."""
        return self._digests.pop(task_id, set())

    def peek_digests(self, task_id: int) -> set:
        return set(self._digests.get(task_id, set()))

    def read_task_memory(self, task_id: int) -> np.ndarray:
        cfg = self._configs[task_id]
        return self.register.read_range(cfg.mem.base, cfg.mem.length)

    def reset_task_memory(self, task_id: int) -> None:
        cfg = self._configs[task_id]
        self.register.reset_range(cfg.mem.base, cfg.mem.length)

    def index_for(self, task_id: int, compressed: Sequence[int]) -> int:
        """The physical bucket a packet with these compressed keys touches."""
        cfg = self._configs[task_id]
        address = cfg.key_selector.compute(compressed)
        return cfg.translation(self.register_size).translate(address)

    # -- data plane -----------------------------------------------------------

    def process(self, fields: Dict[str, int], compressed: Sequence[int]) -> None:
        """Run one packet through initialization/preparation/operation."""
        action, args = self.task_table.lookup(fields)
        if action != "set_task":
            return
        config = self._configs.get(args["task_id"])
        if config is None:
            return
        if config.sample_prob < 1.0 and not self._sampled(config, fields):
            return
        # Initialization: key + raw parameters.
        address = config.key_selector.compute(compressed)
        p1 = config.p1.value(fields, compressed)
        p2 = config.p2.value(fields, compressed)
        # Preparation: address translation + parameter preprocessing.
        index = config.translation(self.register_size).translate(address)
        p1 = config.p1_processor.apply(p1, fields)
        # Operation: stateful update; export result and processed p1.
        result = self.register.execute(config.op, index, p1, p2)
        if _TELEMETRY.enabled:
            if self._access_counter is None:
                self._access_counter = _TELEMETRY.registry.counter(
                    "flymon_register_accesses_total",
                    group=str(self.group_id),
                    cmu=str(self.index),
                )
            self._access_counter.inc()
        fields[result_field(self.group_id, self.index)] = result
        fields[param_field(self.group_id, self.index)] = p1
        # Data-plane alarm digest (threshold-crossing report).
        if (
            config.alarm_threshold is not None
            and config.digest_key is not None
            and result >= config.alarm_threshold
        ):
            self._digests.setdefault(config.task_id, set()).add(
                config.digest_key.extract(fields)
            )

    def process_batch(self, batch, compressed: Sequence[np.ndarray]) -> None:
        """Run a whole :class:`~repro.traffic.batch.PacketBatch` through the
        CMU -- bit-identical to calling :meth:`process` per packet in order.

        Equivalence rests on three structural facts: the task table selects
        exactly one task per packet (so per-task row sets partition the
        batch), co-located tasks occupy disjoint memory partitions (the
        allocator's invariant, so per-task execution order cannot interact),
        and within one task :meth:`Register.execute_batch` serializes
        duplicate buckets by occurrence rank.  ``compressed`` holds one int64
        array per hash unit, full batch length.
        """
        if not self._plans:
            return
        n = len(batch)
        if n == 0:
            return
        task_ids = self.task_table.classify_batch(batch, "task_id", n)
        total_rows = 0
        for task_id, plan in self._plans.items():
            rows = np.nonzero(task_ids == task_id)[0]
            if rows.size == 0:
                continue
            config = plan.config
            if plan.sample_threshold is not None:
                rows = rows[self._sampled_batch(config, batch, rows)]
                if rows.size == 0:
                    continue
            total_rows += rows.size
            comp_rows = [c[rows] for c in compressed]
            # Initialization: key + raw parameters.
            address = config.key_selector.compute_batch(comp_rows)
            p1 = config.p1.value_batch(batch, comp_rows, rows)
            p2 = config.p2.value_batch(batch, comp_rows, rows)
            # Preparation: address translation + parameter preprocessing.
            index = plan.translation.translate_batch(address)
            p1 = config.p1_processor.apply_batch(p1, batch, rows)
            # Operation: stateful update; export result and processed p1.
            results = self.register.execute_batch(config.op, index, p1, p2)
            batch.ensure(result_field(self.group_id, self.index))[rows] = results
            batch.ensure(param_field(self.group_id, self.index))[rows] = p1
            if plan.alarm_armed:
                hits = rows[results >= config.alarm_threshold]
                if hits.size:
                    digests = self._digests.setdefault(task_id, set())
                    key_rows = self._digest_key_rows(config.digest_key, batch, hits)
                    digests.update(map(tuple, key_rows.tolist()))
        if total_rows and _TELEMETRY.enabled:
            if self._access_counter is None:
                self._access_counter = _TELEMETRY.registry.counter(
                    "flymon_register_accesses_total",
                    group=str(self.group_id),
                    cmu=str(self.index),
                )
            self._access_counter.inc(total_rows)

    @staticmethod
    def _digest_key_rows(digest_key, batch, rows: np.ndarray) -> np.ndarray:
        """Columnar ``FlowKeyDef.extract`` for the alarm rows."""
        from repro.traffic.flows import FIELD_WIDTHS

        cols = []
        for name, bits in digest_key.parts:
            width = FIELD_WIDTHS[name]
            col = batch.get(name)[rows] & ((1 << width) - 1)
            cols.append(col >> (width - bits))
        return np.stack(cols, axis=1)

    def _sampled_batch(
        self, config: CmuTaskConfig, batch, rows: np.ndarray
    ) -> np.ndarray:
        """Vectorized :meth:`_sampled`: boolean keep-mask over ``rows``."""
        ts = batch.get("timestamp")[rows].astype(np.uint64)
        src = batch.get("src_ip")[rows].astype(np.uint64)
        mixed = (
            (ts << np.uint64(32))
            ^ (src << np.uint64(8))
            ^ np.uint64(config.task_id & 0xFF)
        )
        h = self._sample_hash.hash_int_batch(mixed, width=64)
        return h < config.sample_prob * 2.0**32

    def _sampled(self, config: CmuTaskConfig, fields: Mapping[str, int]) -> bool:
        """Deterministic per-packet coin for probabilistic execution (§5.3)."""
        h = self._sample_hash.hash_int(
            (int(fields.get("timestamp", 0)) << 32)
            ^ (int(fields.get("src_ip", 0)) << 8)
            ^ (config.task_id & 0xFF),
            width=64,
        )
        return h < config.sample_prob * 2.0**32

    def __repr__(self) -> str:
        return (
            f"Cmu(group={self.group_id}, index={self.index}, "
            f"tasks={self.task_ids})"
        )
