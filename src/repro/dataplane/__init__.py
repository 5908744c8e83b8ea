"""RMT (Tofino-like) data-plane substrate.

The modules here model the hardware the paper prototypes on, at the level of
detail FlyMon's claims depend on:

* :mod:`repro.dataplane.resources` -- per-MAU-stage resource vectors and
  capacities (hash distribution units, SALUs, VLIW, TCAM, SRAM, logical table
  IDs, PHV bits).
* :mod:`repro.dataplane.phv` -- packet header vector layout and per-packet
  field containers.
* :mod:`repro.dataplane.hashing` -- CRC-style hash functions and dynamic hash
  units with runtime-configurable field masks (the ``tna_dyn_hashing``
  feature FlyMon's compression stage relies on).
* :mod:`repro.dataplane.tables` -- exact and ternary (TCAM) match-action
  tables, including the range-to-ternary expansion used to count TCAM entries.
* :mod:`repro.dataplane.register` -- SALU-backed stateful registers with a
  bounded set of pre-loaded register actions.
* :mod:`repro.dataplane.stage` / :mod:`repro.dataplane.pipeline` -- MAU stages
  and the 12-stage pipeline with resource admission control.
* :mod:`repro.dataplane.runtime` -- a P4Runtime-like rule-installation API
  with the millisecond-scale latency model measured in the paper.
* :mod:`repro.dataplane.switch` -- a Tofino switch model, including the
  ``switch.p4`` baseline footprint used by Figure 13a.
* :mod:`repro.dataplane.sharding` -- sharded parallel execution of the
  batched datapath with exact register-state merging by cell law, on the
  persistent worker pool of :mod:`repro.dataplane.shard_pool`.
"""

from repro.dataplane.hashing import DynamicHashUnit, HashFunction
from repro.dataplane.phv import FieldSpec, Phv, PhvLayout
from repro.dataplane.pipeline import Pipeline
from repro.dataplane.register import Register, RegisterAction
from repro.dataplane.resources import STAGE_CAPACITY, ResourceVector
from repro.dataplane.runtime import RuntimeApi
from repro.dataplane.sharding import (
    GroupReplicaSpec,
    ShardRunReport,
    ShardingError,
    default_workers,
    run_sharded,
    shard_ranges,
)
from repro.dataplane.stage import MauStage
from repro.dataplane.switch import TofinoSwitch, datapath_groups
from repro.dataplane.tables import ExactMatchTable, TableEntry, TernaryMatchTable

__all__ = [
    "DynamicHashUnit",
    "ExactMatchTable",
    "FieldSpec",
    "GroupReplicaSpec",
    "HashFunction",
    "MauStage",
    "Phv",
    "PhvLayout",
    "Pipeline",
    "Register",
    "RegisterAction",
    "ResourceVector",
    "RuntimeApi",
    "STAGE_CAPACITY",
    "ShardRunReport",
    "ShardingError",
    "TableEntry",
    "TernaryMatchTable",
    "TofinoSwitch",
    "datapath_groups",
    "default_workers",
    "run_sharded",
    "shard_ranges",
]
