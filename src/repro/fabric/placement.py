"""Collaborative placement: which switches host a task's memory.

DCM-style disaggregation: instead of duplicating every task on every
switch, the fabric deploys each task onto the cheapest set of switches
that (a) together observe every packet the task's filter matches, exactly
once, and (b) can merge their registers exactly.

* **Mergeable tasks** (sum/max/or/xor laws) may be hosted by any layer's
  covering set -- the edges that own the filter's blocks, the agg slice
  above them, or a core.  Candidates are ranked by the *maximum* memory
  utilization a member would reach, so load spreads to the least-loaded
  covering set; ties prefer the lowest layer (most disaggregation, most
  aggregate memory headroom).
* **Tasks without a cell law** (chained pipelines, finite-bound Cond-ADD;
  see :mod:`repro.core.laws`) must see their whole packet stream in order
  on one switch: candidates are the single switches whose domain covers
  the filter's blocks, least-loaded first.

Either way a task lands on *fewer than all* switches whenever the topology
has more than one layer or the filter narrows the block set -- the
acceptance property the fabric tests pin.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Tuple

from repro.core.controller import TaskHandle
from repro.fabric.merge import task_mergeable
from repro.fabric.topology import LAYERS, FabricTopology


class FabricPlacementError(RuntimeError):
    """No switch set can host the task with exact merge semantics."""


@dataclass(frozen=True)
class PlacementDecision:
    """Where a task's memory goes and why."""

    task_id: int
    hosts: Tuple[str, ...]
    layer: str
    mergeable: bool
    score: float  # max member utilization at decision time


class FabricPlacer:
    """Deterministic host selection over a fabric topology."""

    def __init__(self, topology: FabricTopology) -> None:
        self.topology = topology

    def choose_hosts(
        self,
        handle: TaskHandle,
        laws: Mapping[Tuple[int, int], str],
        loads: Mapping[str, float],
    ) -> PlacementDecision:
        """Pick the host set for a canonically-deployed task.

        ``loads`` maps switch name -> current memory utilization (from each
        member controller's ``stats()``); missing names count as unloaded.
        """
        blocks = self.topology.blocks_for_filter(handle.task.filter)
        mergeable = task_mergeable(laws)
        if mergeable:
            candidates = [
                (layer, names)
                for layer, names in self.topology.covering_sets(blocks)
            ]
        else:
            candidates = [
                (self.topology.switches[name].layer, (name,))
                for name in self.topology.covering_switches(blocks)
            ]
        if not candidates:
            kind = "covering set" if mergeable else "single covering switch"
            raise FabricPlacementError(
                f"task {handle.task_id} ({handle.task.describe()}): no {kind} "
                f"for blocks {sorted(blocks)} in {self.topology.describe()}"
            )
        ranked = sorted(
            candidates,
            key=lambda cand: (
                max(float(loads.get(name, 0.0)) for name in cand[1]),
                LAYERS.index(cand[0]),
                len(cand[1]),
                cand[1],
            ),
        )
        layer, hosts = ranked[0]
        score = max(float(loads.get(name, 0.0)) for name in hosts)
        return PlacementDecision(
            task_id=handle.task_id,
            hosts=hosts,
            layer=layer,
            mergeable=mergeable,
            score=score,
        )
