"""The benchmark workloads, their correctness gates and their metrics.

Every workload drives the public API in one process on the default
in-process datapath (``workers=1``).  The load generator is ours: the
program only ever receives the generated :class:`~repro.traffic.Trace`
chunks.  Each workload cycles over its epoch windows until the measured
time is up, so run length is set by ``--seconds`` and the work per epoch
is fixed by the seed.  See ``flybench/README.md`` for why each workload
exists and which layer metric should move which end-to-end metric.
"""

import contextlib
import dataclasses
import gc
import os
import resource
import shutil
import statistics
import tempfile
import time
from collections import defaultdict

import numpy as np

from repro.analysis.metrics import f1_score
from repro.core.controller import FlyMonController
from repro.core.task import AttributeSpec, MeasurementTask, TaskFilter
from repro.fabric import FabricService, FabricTopology
from repro.service import (
    CardinalityQuery,
    EntropyQuery,
    FrequencyQuery,
    HeavyHitterQuery,
    MeasurementService,
    ServiceWal,
    recover_service_artifact,
    service_checkpoint,
)
from repro.service.queries import resolve
from repro.traffic import (
    KEY_5TUPLE, KEY_SRC_IP, Trace, ddos_trace, uniform_trace, zipf_trace,
)
from repro.traffic.packet import PACKET_FIELDS


HH_THRESHOLD = 100
#: A monitored customer prefix (11.0.0.0/8).  Its top two bits put it in
#: fabric block 0, so a task filtered to it lands on one edge switch.
TENANT_PREFIX = 0x0B000000
TENANT_FILTER = TaskFilter.of(src_ip=(TENANT_PREFIX, 8))
TENANT_FLOW_PACKETS = 10
CHURN_FILTER = TaskFilter.of(src_ip=(0x0A000000, 8))
#: Per-block /8s for the fabric stream: top two bits 0..3, one per edge.
BLOCK_PREFIXES = (0x0A000000, 0x50000000, 0x8C000000, 0xDC000000)
SETUP_REPEATS = 21
#: Share of the measured seconds run before any sample is kept (imports,
#: first-touch allocations, caches).
WARMUP_SHARE = 0.1
#: Percentile of the per-epoch samples reported for a timing, counted
#: from the fast side (see :func:`fast_latency`).
FAST_PERCENTILE = 10


# -- tasks: the ``repro serve`` presets --------------------------------------


def hh_task():
    return MeasurementTask(
        key=KEY_SRC_IP, attribute=AttributeSpec.frequency(), memory=4096,
        depth=3, algorithm="cms", threshold=HH_THRESHOLD,
    )


def card_task():
    return MeasurementTask(
        key=KEY_5TUPLE, attribute=AttributeSpec.distinct(KEY_5TUPLE),
        memory=1024, depth=1, algorithm="hll",
    )


def entropy_task(task_filter=None):
    return MeasurementTask(
        key=KEY_5TUPLE, attribute=AttributeSpec.frequency(), memory=2048,
        depth=1, algorithm="mrac",
        filter=task_filter if task_filter is not None else TaskFilter.match_all(),
    )


def churn_task():
    return MeasurementTask(
        key=KEY_SRC_IP, attribute=AttributeSpec.frequency(), memory=1024,
        depth=1, algorithm="cms",
    )


# -- sizes -------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class Sizes:
    packets: int  # source packets generated (before the tenant stream)
    epoch: int  # packets per sealed epoch
    chunk: int  # packets per ingest call
    points: int  # point frequency queries per epoch


FULL = {
    "ddos_durable": Sizes(packets=400_000, epoch=5_000, chunk=5_000, points=32),
    "fabric4": Sizes(packets=600_000, epoch=50_000, chunk=10_000, points=8),
}
SMOKE = {
    "ddos_durable": Sizes(packets=8_000, epoch=1_000, chunk=1_000, points=8),
    "fabric4": Sizes(packets=16_000, epoch=4_000, chunk=2_000, points=4),
}


# -- traffic -----------------------------------------------------------------


def tenant_stream(num_packets, seed):
    """Equal-size flows from the tenant prefix.

    Their per-epoch flow-size mix barely depends on the seed, so neither
    does the MRAC EM cost of an entropy query over them.  A 1.1-skew zipf
    subset is not like that: its EM cost doubles when a mid-size flow
    happens to fall in the prefix.
    """
    trace = uniform_trace(
        num_flows=max(10, num_packets // TENANT_FLOW_PACKETS),
        packets_per_flow=TENANT_FLOW_PACKETS, seed=seed,
    )
    columns = dict(trace.columns)
    columns["src_ip"] = (columns["src_ip"] & 0x00FFFFFF) | TENANT_PREFIX
    return Trace(columns)


def ddos_stream(sizes, seed):
    half = sizes.packets // 2
    return ddos_trace(
        num_victims=20, sources_per_victim=half // 20,
        background_flows=max(100, half // 40), background_packets=half,
        seed=seed,
    )


def fabric_stream(sizes, seed):
    per = sizes.packets // len(BLOCK_PREFIXES)
    parts = [
        zipf_trace(
            num_flows=max(50, per // 20), num_packets=per,
            seed=seed * 101 + b, src_prefix=prefix,
        )
        for b, prefix in enumerate(BLOCK_PREFIXES)
    ]
    parts.append(tenant_stream(sizes.packets // 50, seed * 101 + 7))
    return Trace.concatenate(parts).sorted_by_time()


def _view(trace, start, stop):
    return Trace({f: trace.columns[f][start:stop] for f in PACKET_FIELDS})


@dataclasses.dataclass
class Window:
    """One epoch's packets, pre-split so the timed loop only slices views."""

    trace: Trace
    chunks: list
    points: list  # flows for point frequency queries


def epoch_windows(trace, sizes):
    """Split ``trace`` into whole epochs.

    ``zipf_trace(num_packets=N)`` returns slightly fewer than N packets, so
    the count comes from the trace and the ragged tail is dropped.
    """
    out = []
    for start in range(0, len(trace) - sizes.epoch + 1, sizes.epoch):
        window = _view(trace, start, start + sizes.epoch)
        chunks = [
            _view(window, lo, min(lo + sizes.chunk, sizes.epoch))
            for lo in range(0, sizes.epoch, sizes.chunk)
        ]
        sources = np.unique(window.columns["src_ip"])
        picks = np.linspace(0, len(sources) - 1, sizes.points).astype(int)
        out.append(Window(window, chunks, [(int(sources[i]),) for i in picks]))
    if not out:
        raise ValueError("trace is shorter than one epoch")
    return out


# -- measurement -------------------------------------------------------------


class Run:
    """Latency samples and the attempted/failed operation ledger."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.samples = defaultdict(list)  # family -> per-epoch mean ms
        self.pending = defaultdict(list)  # family -> this epoch's ms
        self.calls = defaultdict(list)  # family -> every measured call's ms
        self.attempted = 0
        self.failures = []
        self.answered = set()
        self.repeats = 0
        self.queries = 0
        self.counts = tracer.counts if tracer is not None else defaultdict(float)

    @property
    def failed(self):
        return len(self.failures)

    def op(self, span, fn, *args):
        """One call into the program (a span when traced); an exception
        counts as a failed operation and yields ``None``."""
        self.attempted += 1
        try:
            if self.tracer is None:
                return fn(*args)
            with self.tracer.span(span):
                return fn(*args)
        except Exception as exc:  # a failure is a result: record and go on
            self.failures.append(f"{span}: {type(exc).__name__}: {exc}")
            return None

    @contextlib.contextmanager
    def sample(self, family):
        """Record the block's wall time as one ``family`` latency sample,
        unless an operation inside it failed."""
        failed = len(self.failures)
        t0 = time.perf_counter()
        yield
        if len(self.failures) == failed:
            self.pending[family].append((time.perf_counter() - t0) * 1e3)

    def end_epoch(self, measured):
        """Fold this epoch's samples into one mean per family; they are
        kept only once the warm-up is over."""
        if measured:
            for family, values in self.pending.items():
                self.samples[family].append(sum(values) / len(values))
                self.calls[family].extend(values)
        self.pending.clear()

    def query(self, span, fn, query, sealed, key):
        """One query, noting whether ``key`` was already asked of this
        epoch (a memo could answer those)."""
        self.queries += 1
        if (sealed.index, key) in self.answered:
            self.repeats += 1
        self.answered.add((sealed.index, key))
        return self.op(span, fn, query, sealed)

    def check(self, name, ok, detail=""):
        """One correctness gate (untimed)."""
        self.attempted += 1
        if not ok:
            self.failures.append(f"gate {name} failed {detail}".rstrip())


def _median(values):
    return statistics.median(values) if values else 0.0


def fast_latency(values):
    """The ``FAST_PERCENTILE``-th percentile of per-epoch latencies.

    A shared host slows the whole process by up to ~1.5x for seconds to
    minutes at a time, short interpreter-bound calls the most.  How much
    of a run falls in such spells differs from run to run, and a run's
    median or mean moves with it: over eight runs of one program the
    interquartile range of a call's per-run median reached 65% of it.
    The fast side of the run is the program's own speed with most of that
    interference left out, as with ``timeit``'s best-of-n; being a
    percentile of many epochs rather than a minimum, it is not one lucky
    sample, and a cost added to every epoch shows in it in full.
    """
    return float(np.percentile(values, FAST_PERCENTILE))


def fast_rate(values):
    """The same fast side for a rate (higher is faster)."""
    return float(np.percentile(values, 100 - FAST_PERCENTILE))


def _reconfig_cycle(run, controller):
    """add -> resize -> filter update -> remove, on a task that sees no
    traffic (the whole cycle runs between a seal and the next ingest)."""
    handle = run.op("controller.reconfig.add", controller.add_task, churn_task())
    if handle is None:
        return
    run.counts["controller.adds"] += 1
    run.counts["controller.rules_installed"] += handle.rules_installed
    run.counts["controller.modeled_deploy_ms"] += handle.deployment_ms
    # A failed resize leaves the original deployment in place.
    handle = run.op(
        "controller.reconfig.resize", controller.resize_task,
        handle, 2 * churn_task().memory,
    ) or handle
    handle = run.op(
        "controller.reconfig.filter", controller.update_task_filter,
        handle, CHURN_FILTER,
    ) or handle
    run.op("controller.reconfig.remove", controller.remove_task, handle)


def _timed_loop(run, windows, seconds, epoch_fn, between=None):
    """Run epochs until ``seconds`` have passed and at least one epoch
    started after the warm-up; returns (wall_s, epochs, packets).

    ``between(elapsed_s)``, if given, runs after each epoch, outside the
    epoch's timing."""
    epochs = packets = measured_epochs = 0
    warmup = seconds * WARMUP_SHARE
    start = time.perf_counter()
    while True:
        window = windows[epochs % len(windows)]
        if run.tracer is not None:
            run.tracer.request = epochs
        t0 = time.perf_counter()
        measured = t0 - start >= warmup
        epoch_fn(window)
        elapsed = time.perf_counter() - t0
        run.end_epoch(measured)
        if measured:
            run.samples["epoch_pps"].append(len(window.trace) / elapsed)
            measured_epochs += 1
        packets += len(window.trace)
        epochs += 1
        if between is not None:
            between(time.perf_counter() - start)
        if time.perf_counter() - start >= seconds and measured_epochs:
            break
    return time.perf_counter() - start, epochs, packets


def workdir(root):
    path = os.path.join(root, ".flybench_work")
    os.makedirs(path, exist_ok=True)
    return path


# -- instrumentation (traced runs only) --------------------------------------


def _tally(counts, key, measure):
    """A wrapper callback adding ``measure(args, result)`` to ``counts[key]``."""
    def after(args, result):
        counts[key] += measure(args, result)
    return after


def instrument_controller(tracer, controller):
    counts = tracer.counts
    batch_packets = _tally(counts, "hashing.packets", lambda args, _: len(args[0]))
    tracer.wrap(controller, "process_trace", "controller.trace")
    for group in controller.groups:
        tracer.wrap(group, "compress_batch", "hashing", after=batch_packets)
        for cmu in group.cmus:
            tracer.wrap(cmu, "process_batch", "cmu")
            tracer.wrap(
                cmu.task_table, "classify_batch", "tables",
                after=_tally(counts, "tables.packets", lambda args, _: len(args[0])),
            )
            tracer.wrap(
                cmu.register, "execute_batch", "register",
                after=_register_counter(counts, cmu),
            )
            tracer.wrap(cmu.register, "snapshot_cells", "engine.snapshot")
            tracer.wrap(
                cmu, "drain_digests", "engine.digest_drain",
                after=_tally(counts, "cmu.digest_keys", lambda _, result: len(result)),
            )


def _register_counter(counts, cmu):
    """Rows, distinct buckets and alarm-crossing rows of each batch."""
    register = cmu.register
    mark = np.zeros(register.size, dtype=bool)

    def after(args, results):
        indices = np.asarray(args[1]) & (register.size - 1)
        if not len(indices):
            return
        counts["register.rows"] += len(indices)
        mark[indices] = True
        counts["register.buckets"] += int(np.count_nonzero(mark))
        mark[indices] = False
        first = int(indices[0])
        for plan in cmu.task_plans().values():
            mem = plan.config.mem
            if plan.alarm_armed and mem.base <= first < mem.base + mem.length:
                counts["cmu.alarm_rows"] += int(
                    np.count_nonzero(results >= plan.config.alarm_threshold)
                )
                break

    return after


def instrument_service(tracer, service):
    tracer.wrap(service, "ingest", "engine.ingest")
    tracer.wrap(service, "rotate", "engine.seal")
    instrument_controller(tracer, service.controller)


def instrument_wal(tracer, wal):
    sizes = {}

    def after(args, result):
        for name in os.listdir(wal.path):
            size = os.path.getsize(os.path.join(wal.path, name))
            sizes[name] = max(sizes.get(name, 0), size)
        tracer.counts["wal.bytes"] = float(sum(sizes.values()))

    tracer.wrap(wal, "append_seal", "wal.append", after=after)


# -- workloads ---------------------------------------------------------------


class Workload:
    """One workload: ``setup`` builds the system, ``epoch`` drives one
    sealed epoch through it, ``gate`` checks outputs after the loop."""

    name = ""
    generate = None
    #: Task answering this workload's entropy queries.
    entropy_task = "tenant"

    def __init__(self, sizes, seed, root):
        self.root = root
        self.windows = epoch_windows(self.generate(sizes, seed), sizes)
        self.hh_answers = []  # (window, reported heavy hitters)
        self.entropy_answers = []  # (window, estimate)
        self.system = None

    def teardown(self, system=None):
        """Release ``system`` (by default the measured one)."""

    def query_mix(self, run, window, sealed, query, polls):
        """One entropy query, ``polls`` dashboard polls (hh digest +
        cardinality) and the window's point frequency queries."""
        tasks = self.system["tasks"]
        with run.sample("entropy"):
            entropy = run.query(
                "queries.entropy", query, EntropyQuery(tasks[self.entropy_task]),
                sealed, "entropy",
            )
        hh = None
        for _ in range(polls):
            with run.sample("summary"):
                hh = run.query(
                    "queries.summary", query, HeavyHitterQuery(tasks["hh"]),
                    sealed, "hh",
                )
                run.query(
                    "queries.summary", query, CardinalityQuery(tasks["card"]),
                    sealed, "card",
                )
        for flow in window.points:
            with run.sample("point"):
                run.query(
                    "queries.point", query, FrequencyQuery(tasks["hh"], flow),
                    sealed, flow,
                )
        if hh is not None:
            self.hh_answers.append((window, hh))
        if entropy is not None:
            self.entropy_answers.append((window, entropy))

    def entropy_truth(self, window):
        """Exact 5-tuple entropy of the traffic the entropy task sees."""
        trace = window.trace
        if self.entropy_task == "tenant":
            mask = (trace.columns["src_ip"] & 0xFF000000) == TENANT_PREFIX
            trace = trace.filter_mask(mask)
        return trace.entropy(KEY_5TUPLE)

    def accuracy(self):
        """(median per-epoch hh F1, median per-epoch entropy relative error),
        against exact ground truth, computed outside the timed loop."""
        truth = {}
        f1s = []
        for window, reported in self.hh_answers:
            key = id(window)
            if key not in truth:
                truth[key] = window.trace.heavy_hitters(KEY_SRC_IP, HH_THRESHOLD)
            if not truth[key] and not reported:
                f1s.append(1.0)
            else:
                f1s.append(f1_score(set(reported), truth[key]))
        exact = {}
        errors = []
        for window, estimate in self.entropy_answers:
            key = id(window)
            if key not in exact:
                exact[key] = self.entropy_truth(window)
            errors.append(abs(estimate - exact[key]) / exact[key])
        return _median(f1s), _median(errors)


class DdosDurable(Workload):
    """Small epochs with a WAL: seal, query and control-plane costs."""

    name = "ddos_durable"
    generate = staticmethod(ddos_stream)
    entropy_task = "entropy"
    segment_seals = 32

    def setup(self):
        controller = FlyMonController(num_groups=3)
        tasks = {
            "hh": controller.add_task(hh_task()),
            "card": controller.add_task(card_task()),
            "entropy": controller.add_task(entropy_task()),
        }
        service = MeasurementService(controller, retain=8, workers=1)
        path = tempfile.mkdtemp(prefix="wal-", dir=workdir(self.root))
        wal = ServiceWal(path, segment_seals=self.segment_seals).attach(service)
        return {"controller": controller, "service": service, "tasks": tasks,
                "wal_dir": path, "wal": wal}

    def teardown(self, system=None):
        system = system if system is not None else self.system
        if system is not None:
            system["wal"].close()
            shutil.rmtree(system["wal_dir"], ignore_errors=True)

    def instrument(self, tracer):
        instrument_service(tracer, self.system["service"])
        instrument_wal(tracer, self.system["wal"])

    def epoch(self, run, window):
        service = self.system["service"]
        for chunk in window.chunks:
            run.op("op.ingest", service.ingest, chunk)
        with run.sample("seal"):
            sealed = run.op("op.seal", service.rotate)
        if sealed is None:
            return
        with run.sample("reconfig"):
            _reconfig_cycle(run, self.system["controller"])
        self.query_mix(run, window, sealed, service.query, polls=3)

    def gate(self, run, epochs):
        """The last sealed epoch equals a scalar-path replay of its packets,
        and WAL recovery reproduces the live ring bit for bit."""
        self.scalar_replay_gate(run, epochs)
        wal = self.system["wal"]
        run.counts["wal.records"] = wal.records_written
        run.counts["wal.rolls"] = wal.rolls
        wal.close()
        live = service_checkpoint(self.system["service"])
        recovered = recover_service_artifact(self.system["wal_dir"])

        def strip(artifact):
            return [
                {k: v for k, v in entry.items() if k != "seal_ms"}
                for entry in artifact["epochs"]
            ]

        run.check("wal_recovery_epochs", strip(recovered) == strip(live))
        run.check(
            "wal_recovery_placement",
            [t["placement"] for t in recovered["tasks"]]
            == [t["placement"] for t in live["tasks"]],
        )

    def scalar_replay_gate(self, run, epochs):
        service, controller = self.system["service"], self.system["controller"]
        sealed = service.latest
        window = self.windows[(epochs - 1) % len(self.windows)]
        reference = FlyMonController(num_groups=3)
        pairs = [
            (handle, reference.add_task_pinned(
                handle.task, controller.export_placement(handle)))
            for handle in self.system["tasks"].values()
        ]
        reference.process_trace(window.trace, batch_size=None)
        for handle, ref in pairs:
            same_cells = all(
                np.array_equal(a, b)
                for a, b in zip(sealed.read_rows(handle), ref.read_rows())
            )
            run.check("scalar_replay_cells", same_cells, handle.algorithm_name)
            ref_digests = [row.cmu.peek_digests(ref.task_id) for row in ref.rows]
            run.check(
                "scalar_replay_digests",
                sealed.digests(handle) == ref_digests, handle.algorithm_name,
            )


class Fabric4(Workload):
    """Four edge switches and a core: dispatch, barrier and merge."""

    name = "fabric4"
    generate = staticmethod(fabric_stream)

    def setup(self):
        fabric = FabricService(
            FabricTopology.preset(4), retain=8, workers=1,
            controller_params={"num_groups": 3},
        )
        tasks = {
            "hh": fabric.deploy(hh_task()),
            "card": fabric.deploy(card_task()),
            "tenant": fabric.deploy(entropy_task(TENANT_FILTER)),
        }
        return {"fabric": fabric, "tasks": tasks}

    def teardown(self, system=None):
        system = system if system is not None else self.system
        if system is not None:
            system["fabric"].stop()

    def instrument(self, tracer):
        fabric = self.system["fabric"]
        tracer.wrap(fabric, "ingest", "fabric.ingest")
        tracer.wrap(fabric, "rotate", "fabric.rotate")
        for member in fabric.members.values():
            instrument_service(tracer, member)

    def epoch(self, run, window):
        fabric = self.system["fabric"]
        for chunk in window.chunks:
            run.op("op.ingest", fabric.ingest, chunk)
        with run.sample("seal"):
            sealed = run.op("op.seal", fabric.rotate)
        if sealed is None:
            return
        with run.sample("reconfig"):
            churn = run.op("fabric.deploy", fabric.deploy, churn_task())
            if churn is not None:
                run.op("fabric.undeploy", fabric.undeploy, churn)
        if churn is not None:
            run.counts["controller.adds"] += 1
            for handle in churn.member_handles.values():
                run.counts["controller.rules_installed"] += handle.rules_installed
                run.counts["controller.modeled_deploy_ms"] += handle.deployment_ms
        self.query_mix(run, window, sealed, fabric.query, polls=1)

    def gate(self, run, epochs):
        """Retained fabric epochs equal a single switch that saw the union."""
        fabric = self.system["fabric"]
        checked = fabric.epochs[-2:]
        for sealed in checked:
            window = self.windows[sealed.index % len(self.windows)]
            reference = FlyMonController(place_on_pipeline=False, num_groups=3)
            pairs = {
                name: (placement.handle, reference.add_task_pinned(
                    placement.task, fabric.canonical.export_placement(placement.handle)))
                for name, placement in self.system["tasks"].items()
            }
            reference.process_trace(window.trace, batch_size=8192)
            for name, (handle, ref) in pairs.items():
                same = all(
                    np.array_equal(a, b)
                    for a, b in zip(sealed.read_rows(handle), ref.read_rows())
                )
                run.check("fabric_union_cells", same, f"{name} epoch {sealed.index}")
            hh, ref_hh = pairs["hh"]
            for flow in window.points:
                run.check(
                    "fabric_union_point",
                    resolve(FrequencyQuery(hh, flow), sealed)
                    == resolve(FrequencyQuery(ref_hh, flow), None),
                )
            card, ref_card = pairs["card"]
            run.check(
                "fabric_union_cardinality",
                resolve(CardinalityQuery(card), sealed)
                == resolve(CardinalityQuery(ref_card), None),
            )
            tenant, ref_tenant = pairs["tenant"]
            run.check(
                "fabric_union_entropy",
                resolve(EntropyQuery(tenant), sealed)
                == resolve(EntropyQuery(ref_tenant), None),
            )
            # Edges see fewer colliding flows than the union switch, so
            # their alarms are a subset of its alarms (never a superset).
            run.check(
                "fabric_union_digests",
                resolve(HeavyHitterQuery(hh), sealed)
                <= resolve(HeavyHitterQuery(ref_hh), None),
            )
        run.check("fabric_union_checked", len(checked) > 0)
        stats = fabric.stats()
        run.counts["fabric.member_packets"] = sum(stats["member_packets"].values())
        run.counts["fabric.source_packets"] = stats["packets_total"]


WORKLOADS = {cls.name: cls for cls in (DdosDurable, Fabric4)}


# -- one measured phase ------------------------------------------------------


#: Latency family -> (end-to-end metric, scale from ms, unit).
LATENCY_FAMILIES = {
    "seal": ("seal_ms_p10", 1.0, "ms"),
    "reconfig": ("reconfig_ms_p10", 1.0, "ms"),
    "point": ("point_query_us_p10", 1e3, "us"),
    "summary": ("summary_query_ms_p10", 1.0, "ms"),
    "entropy": ("entropy_query_ms_p10", 1.0, "ms"),
}


def _timed_setup(workload, times):
    gc.collect()  # a collection owed by earlier work is not set-up cost
    t0 = time.perf_counter()
    system = workload.setup()
    times.append(time.perf_counter() - t0)
    return system


def run_phase(workload, seconds, tracer=None, setup_repeats=1):
    """Set up, then measure; returns the :class:`Run` ledger and a dict of
    raw figures.

    The measured system is the first of ``setup_repeats`` timed set-ups.
    The others are built and torn down between epochs at evenly spaced
    times, so that together they sample the machine's speed over the whole
    run rather than over the fraction of a second a burst of set-ups takes.
    """
    setup_times = []
    if workload.system is not None:
        workload.teardown()
    workload.system = _timed_setup(workload, setup_times)
    run = Run(tracer)
    if tracer is not None:
        workload.instrument(tracer)

    def spare_setups(elapsed):
        while (len(setup_times) < setup_repeats
               and elapsed >= seconds * len(setup_times) / setup_repeats):
            workload.teardown(_timed_setup(workload, setup_times))

    wall, epochs, packets = _timed_loop(
        run, workload.windows, seconds,
        lambda window: workload.epoch(run, window), between=spare_setups,
    )
    raw = {"wall_s": wall, "epochs": epochs, "packets": packets}
    if tracer is not None:
        # Layer times are read before the gates, so gate work is excluded.
        raw["layers"] = tracer.layer_times()
    spare_setups(float("inf"))
    raw["setup_s"] = setup_times
    return run, raw


def run_gate(workload, run, epochs):
    """The workload's correctness gates; a gate that raises has failed."""
    try:
        workload.gate(run, epochs)
    except Exception as exc:  # recorded like any other failed operation
        run.attempted += 1
        run.failures.append(f"gate: {type(exc).__name__}: {exc}")


def call_percentiles(run):
    """``(family, calls, p50_ms, pct, tail_ms)`` per latency family, where
    ``pct`` is the highest whole percentile with at least ten calls beyond
    it.  Printed for people; not metrics, because a single call's median
    and tail are too unsteady across runs to carry a bound."""
    out = []
    for family in LATENCY_FAMILIES:
        values = run.calls[family]
        if len(values) < 20:
            continue
        pct = max(50, int(100 - 1000 / len(values)))
        out.append((family, len(values), float(np.percentile(values, 50)),
                    pct, float(np.percentile(values, pct))))
    return out


def end_to_end_metrics(workload, run, raw):
    """Every end-to-end metric: timings are the fast side of the per-epoch
    samples taken after the warm-up (see :func:`fast_latency`)."""
    metrics = {}
    metrics["setup_s"] = (statistics.median(raw["setup_s"]), "s")
    metrics["ingest_pps_p90"] = (fast_rate(run.samples["epoch_pps"]), "pkt/s")
    for family, (name, scale, unit) in LATENCY_FAMILIES.items():
        values = run.samples[family]
        if values:
            metrics[name] = (fast_latency(values) * scale, unit)
        else:
            run.failures.append(f"{family}: no samples")
            metrics[name] = (0.0, unit)
    f1, entropy_re = workload.accuracy()
    metrics["hh_f1"] = (f1, "ratio")
    # Reported as 1 - relative error: the error itself (0.2-3%) swings by
    # half between seeds, wider than any bound a metric may have.
    metrics["entropy_accuracy"] = (1.0 - entropy_re, "ratio")
    metrics["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"
    )
    return metrics


LAYER_SHARES = (
    "hashing", "tables", "register", "cmu", "controller.trace",
    "engine.ingest", "engine.seal", "engine.snapshot", "engine.digest_drain",
    "wal.append", "queries.summary", "queries.point", "queries.entropy",
    "controller.reconfig", "fabric.ingest", "fabric.rotate", "fabric.deploy",
)
RECONFIG_KINDS = ("add", "resize", "filter", "remove")


def per_layer_metrics(run, raw, overhead_pct):
    """Every per-layer metric from the traced phase (0 where a layer is idle)."""
    layers = raw["layers"]
    counts = run.counts
    epochs = max(1, raw["epochs"])

    def total(name):
        return layers.get(name, (0.0, 0.0, 0))[0]

    def own(name):
        return layers.get(name, (0.0, 0.0, 0))[1]

    def calls(name):
        return layers.get(name, (0.0, 0.0, 0))[2]

    def ratio(a, b):
        return a / b if b else 0.0

    m = {}
    m["hashing.ns_per_pkt"] = (ratio(total("hashing") * 1e6, counts["hashing.packets"]), "ns")
    m["tables.ns_per_pkt"] = (ratio(total("tables") * 1e6, counts["tables.packets"]), "ns")
    m["register.ns_per_row"] = (ratio(total("register") * 1e6, counts["register.rows"]), "ns")
    m["register.rows"] = (counts["register.rows"] / epochs, "count/epoch")
    m["register.dup_ratio"] = (ratio(counts["register.rows"], counts["register.buckets"]), "ratio")
    m["cmu.self_ms"] = (own("cmu") / epochs, "ms/epoch")
    m["cmu.alarm_rows"] = (counts["cmu.alarm_rows"] / epochs, "count/epoch")
    m["cmu.digest_useful_ratio"] = (ratio(counts["cmu.digest_keys"], counts["cmu.alarm_rows"]), "ratio")
    m["controller.trace_self_ms"] = (own("controller.trace") / epochs, "ms/epoch")
    m["engine.ingest_self_ms"] = (own("engine.ingest") / epochs, "ms/epoch")
    m["engine.snapshot_ms"] = (total("engine.snapshot") / epochs, "ms/epoch")
    m["engine.digest_drain_ms"] = (total("engine.digest_drain") / epochs, "ms/epoch")
    m["engine.seal_self_ms"] = (own("engine.seal") / epochs, "ms/epoch")
    m["wal.append_ms"] = (total("wal.append") / epochs, "ms/epoch")
    m["wal.records"] = (counts["wal.records"] / epochs, "count/epoch")
    m["wal.rolls"] = (counts["wal.rolls"] / epochs, "count/epoch")
    m["wal.bytes"] = (counts["wal.bytes"] / epochs, "B/epoch")
    m["queries.entropy_ms"] = (ratio(total("queries.entropy"), calls("queries.entropy")), "ms")
    m["queries.summary_ms"] = (ratio(total("queries.summary"), calls("queries.summary")), "ms")
    m["queries.point_us"] = (ratio(total("queries.point") * 1e3, calls("queries.point")), "us")
    m["queries.repeat_share"] = (ratio(run.repeats, run.queries), "ratio")
    for kind in RECONFIG_KINDS:
        name = f"controller.reconfig.{kind}"
        m[f"controller.reconfig_ms.{kind}"] = (ratio(total(name), calls(name)), "ms")
    m["controller.rules_installed"] = (ratio(counts["controller.rules_installed"], counts["controller.adds"]), "count")
    m["controller.modeled_deploy_ms"] = (ratio(counts["controller.modeled_deploy_ms"], counts["controller.adds"]), "ms")
    m["fabric.dispatch_self_ms"] = (own("fabric.ingest") / epochs, "ms/epoch")
    m["fabric.member_ingest_ms"] = (
        (total("engine.ingest") / epochs if calls("fabric.ingest") else 0.0), "ms/epoch"
    )
    m["fabric.replication"] = (ratio(counts["fabric.member_packets"], counts["fabric.source_packets"]), "ratio")
    m["fabric.member_seal_ms"] = (
        (total("engine.seal") / epochs if calls("fabric.rotate") else 0.0), "ms/epoch"
    )
    m["fabric.merge_self_ms"] = (own("fabric.rotate") / epochs, "ms/epoch")
    m["fabric.deploy_ms"] = (ratio(total("fabric.deploy"), calls("fabric.deploy")), "ms")
    m["fabric.undeploy_ms"] = (ratio(total("fabric.undeploy"), calls("fabric.undeploy")), "ms")
    m["trace.overhead_pct"] = (overhead_pct, "%")

    # Coverage: layer self times as shares of the program's wall (the
    # traced loop's wall minus the tracer's own bookkeeping).
    program_ms = raw["wall_s"] * 1e3 - total("trace.bookkeeping")
    shares = {name: 0.0 for name in LAYER_SHARES}
    for name, (_, self_ms, _) in layers.items():
        if name.startswith("controller.reconfig."):
            shares["controller.reconfig"] += self_ms
        elif name == "fabric.undeploy":
            shares["fabric.deploy"] += self_ms
        elif name in shares:
            shares[name] += self_ms
    covered = sum(shares.values())
    for name in LAYER_SHARES:
        m[f"share.{name}"] = (ratio(shares[name], program_ms), "ratio")
    m["share.uncovered"] = (ratio(program_ms - covered, program_ms), "ratio")
    m["coverage"] = (ratio(covered, program_ms), "ratio")
    return m
