"""FlyMon benchmark: one command, two seeded workloads.

    python3 flybench/run.py --workload ddos_durable --seed 1 --seconds 60 --trace 0

Run from the repository root.  ``--trace 0`` measures the end-to-end
metrics untraced; ``--trace 1`` measures half the time untraced and half
traced, and reports the per-layer metrics, the coverage of the traced wall
and the tracing overhead.  ``--smoke`` shrinks every input to a few
thousand packets (the benchmark's own tests use it).  The last line of
standard output is one JSON object; the exit code is non-zero if any
operation or correctness gate failed.
"""

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True,
        choices=("ddos_durable", "fabric4"),
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _isolate_environment():
    """One process, at most two threads, default datapath settings."""
    for key in list(os.environ):
        if key.startswith("FLYMON_"):
            del os.environ[key]
    for key in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[key] = "1"


def _format(value):
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main(argv=None):
    args = parse_args(argv)
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        print(f"error: no FlyMon sources under {src}", file=sys.stderr)
        return 2
    _isolate_environment()
    sys.path.insert(0, src)
    sys.path.insert(0, HERE)
    import workloads as wl
    from tracer import Tracer

    sizes = (wl.SMOKE if args.smoke else wl.FULL)[args.workload]
    workload = wl.WORKLOADS[args.workload](sizes, args.seed, ROOT)
    runs = []
    try:
        if args.trace == 0:
            run, raw = wl.run_phase(
                workload, args.seconds, setup_repeats=wl.SETUP_REPEATS
            )
            runs.append(run)
            wl.run_gate(workload, run, raw["epochs"])
            metrics = wl.end_to_end_metrics(workload, run, raw)
            percentiles = wl.call_percentiles(run)
        else:
            plain, plain_raw = wl.run_phase(workload, args.seconds / 2)
            runs.append(plain)
            tracer = Tracer()
            run, raw = wl.run_phase(workload, args.seconds / 2, tracer=tracer)
            runs.append(run)
            wl.run_gate(workload, run, raw["epochs"])
            # Epoch rates after each phase's warm-up, summarised as the
            # end-to-end ingest rate is.
            plain_pps = wl.fast_rate(plain.samples["epoch_pps"])
            traced_pps = wl.fast_rate(run.samples["epoch_pps"])
            overhead = (plain_pps / traced_pps - 1.0) * 100.0
            metrics = wl.per_layer_metrics(run, raw, overhead)
            percentiles = []
            path = os.path.join(
                wl.workdir(ROOT), f"spans-{args.workload}-seed{args.seed}.json"
            )
            tracer.write(path)
            print(f"spans: {len(tracer.spans)} written to {os.path.relpath(path, ROOT)}")
    finally:
        workload.teardown()

    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)
    print(
        f"workload {args.workload} seed {args.seed}: {raw['epochs']} epochs, "
        f"{raw['packets']} packets in {raw['wall_s']:.3f} s"
    )
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {_format(value):>14s} {unit}")
    for family, count, p50, pct, tail in percentiles:
        print(f"  {family} calls: p50 {p50:.4g} ms, p{pct} {tail:.4g} ms "
              f"({count} calls, {int(count * (100 - pct) / 100)} beyond p{pct})")
    print(f"  {'failed_ops_ratio':32s} {_format(failed / max(1, attempted)):>14s} ratio"
          f"  ({failed} of {attempted} operations)")
    for failure in (f for r in runs for f in r.failures):
        print(f"FAILED {failure}", file=sys.stderr)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
