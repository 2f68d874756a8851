"""The repository benchmark: one workload, one process, one JSON line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from ``src/``
of that checkout and from nowhere else.  Inputs come from ``--seed``
alone.  The process sets up (imports, input generation three times, one
warm-up construction on the same inputs), then repeats the workload's
construction until ``--seconds`` have passed, then checks every
output.  ``--trace 0`` reports the end-to-end metrics, measured with
tracing off.  ``--trace 1`` alternates untraced and traced constructions
and reports the per-layer split of the median traced one (see
``probes.py`` and ``README.md``).  The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``.
"""

import time

_T0 = time.perf_counter()  # setup_s counts from here

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import NamedTuple  # noqa: E402

SRC = Path(__file__).resolve().parent.parent / "src"
WORKLOAD_NAMES = ("overlay-line-16k", "hybrid-mix-4k5", "rooting-faults-200k", "rooting-1m")
#: Input generations per run; setup_s takes their median.
SETUP_REPEATS = 3

#: name -> (unit, value from the run summary)
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "ncc0_rounds": "count",
    "node_msgs_max": "count",
    "ok_frac": "frac",
}

#: Per-layer metric -> unit.  Times are seconds of the median traced
#: construction unless the unit says otherwise; a layer a workload does
#: not run reports 0.
PER_LAYER = {
    "graphs.input_s": "s",
    "core.prepare_s": "s",
    "core.expander_step_s": "s",
    "core.token_accept_frac": "frac",
    "core.rooting_s": "s",
    "core.rooting_step_s": "s",
    "core.wellform_s": "s",
    "core.self_s": "s",
    "net.deliver_s": "s",
    "net.rounds": "count",
    "net.msgs": "count",
    "net.ns_per_msg": "ns",
    "net.round_ms_p50": "ms",
    "net.round_ms_p80": "ms",
    "net.capacity_drops": "count",
    "net.layout_hit_frac": "frac",
    "scenarios.fault_hook_s": "s",
    "scenarios.sync_s": "s",
    "scenarios.fault_drop_frac": "frac",
    "scenarios.dilation": "ratio",
    "hybrid.spanner_s": "s",
    "hybrid.reduce_s": "s",
    "hybrid.overlay_s": "s",
    "hybrid.stitch_s": "s",
    "hybrid.bfs_s": "s",
    "hybrid.wellform_s": "s",
    "hybrid.evolutions": "count",
    "hybrid.token_accept_frac": "frac",
    "hybrid.self_s": "s",
    "obs.trace_overhead_frac": "frac",
    "obs.round_coverage": "frac",
    "unattributed_s": "s",
}


class Construction(NamedTuple):
    """One measured construction."""

    traced: bool
    wall: float
    record: dict | None  # None when the construction raised
    error: str | None
    layers: tuple | None  # (LayerClock, Tracer) of a traced construction


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def isolation_error() -> str | None:
    """Why this process may not run the benchmark, or ``None``."""
    leaked = sorted(k for k in os.environ if k.startswith("REPRO_"))
    if leaked:
        # run_soa_expander takes no ctx: its network would read these.
        return f"unset {', '.join(leaked)}: the benchmark fixes every setting itself"
    if not (SRC / "repro" / "__init__.py").is_file():
        return f"no library sources at {SRC}; run from the root of a full checkout"
    return None


def explicit_context(seed: int):
    """Every RunContext field spelled out: nothing comes from the
    environment, CLI or ambient session."""
    from repro.runtime import RunContext

    return RunContext(
        engine="vectorized",
        rooting="soa",
        expander="soa",
        hybrid="soa",
        workers=1,
        seed=seed,
        sanitize=False,
        debug_soa=False,
        layout_reuse=True,
        tracer=None,
        fault_hook=None,
    )


def construct_untraced(wl, inputs, ctx, seed):
    start = time.perf_counter()
    output = wl.construct(inputs, ctx, seed)
    return output, time.perf_counter() - start, None


def construct_traced(wl, inputs, ctx, seed):
    import probes
    from repro.obs import capture

    clock = probes.LayerClock()
    with capture() as tracer, probes.patched(clock.wrappers()):
        output = clock.frame(clock.ROOT, wl.construct, inputs, ctx, seed)
    return output, clock.total(clock.ROOT), (clock, tracer)


def layer_metrics(clock, tracer, wall: float, untraced_wall: float, extras: dict) -> dict:
    """The per-layer split of one traced construction."""
    import numpy as np

    out = dict.fromkeys(PER_LAYER, 0.0)
    out.update(
        {
            "core.prepare_s": clock.total("core.prepare"),
            "core.expander_step_s": clock.own("core.expander_step"),
            "core.rooting_s": clock.total("core.rooting"),
            "core.rooting_step_s": clock.own("core.rooting_step"),
            "core.wellform_s": clock.total("core.wellform"),
            "core.self_s": clock.self_of_layer("core"),
            "net.deliver_s": clock.own("net.round"),
            "scenarios.fault_hook_s": clock.own("scenarios.fault_hook"),
            "scenarios.sync_s": clock.own("scenarios.sync"),
            "hybrid.spanner_s": clock.total("hybrid.spanner"),
            "hybrid.reduce_s": clock.total("hybrid.reduce"),
            "hybrid.overlay_s": clock.total("hybrid.overlay"),
            "hybrid.stitch_s": clock.total("hybrid.stitch"),
            "hybrid.bfs_s": clock.total("hybrid.bfs"),
            "hybrid.wellform_s": clock.total("hybrid.wellform"),
            "hybrid.self_s": clock.self_of_layer("hybrid"),
            "obs.trace_overhead_frac": wall / untraced_wall - 1.0,
            "unattributed_s": clock.own(clock.ROOT),
        }
    )
    tables = tracer.tables_of("net")
    if tables:

        def col(name):
            return np.concatenate([t.column(name) for t in tables])

        seconds = col("seconds")
        msgs = int(col("sent").sum())
        rounds = int(seconds.shape[0])
        if rounds:
            p50, p80 = np.percentile(seconds, [50, 80])
            out["net.round_ms_p50"] = float(p50) * 1e3
            out["net.round_ms_p80"] = float(p80) * 1e3
            out["net.layout_hit_frac"] = float(col("layout_hit").mean())
        out["net.rounds"] = rounds
        out["net.msgs"] = msgs
        out["net.capacity_drops"] = int(col("send_drops").sum() + col("receive_drops").sum())
        if msgs:
            out["net.ns_per_msg"] = out["net.deliver_s"] / msgs * 1e9
            out["scenarios.fault_drop_frac"] = int(col("fault_drops").sum()) / msgs
        out["obs.round_coverage"] = float(seconds.sum()) / wall
    out.update(extras)
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    problem = isolation_error()
    if problem:
        print(f"perfbench: {problem}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import probes
    import workloads
    from repro import sanitize
    from repro.net import soa

    if sanitize.ENABLED or soa.DEBUG_VALIDATE:
        print("perfbench: runtime sanitizer or SoA debug checks are armed", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    ctx = explicit_context(args.seed)
    import_s = time.perf_counter() - _T0

    gen_s = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        inputs = wl.make_inputs(args.seed)
        gen_s.append(time.perf_counter() - start)
    # The warm-up is a full construction: the first large call in a
    # process pays for lazy imports and first-touch memory (about 1.6 s
    # of 9 s on overlay-line-16k), which a small warm-up does not absorb.
    # Users pay it once, so it belongs to setup_s, not to wall_s.
    start = time.perf_counter()
    wl.construct(inputs, ctx, args.seed)
    warm_s = time.perf_counter() - start
    setup_s = import_s + statistics.median(gen_s) + warm_s
    print(json.dumps({
        "workload": wl.name,
        "seed": args.seed,
        "trace": args.trace,
        "context": ctx.as_dict(),
        "setup": {"import_s": import_s, "input_s": gen_s, "warm_up_s": warm_s},
    }))

    recorder = probes.Recorder()
    runs: list[Construction] = []
    begin = time.perf_counter()
    with probes.patched(recorder.wrappers()):
        while True:
            traced = bool(args.trace) and len(runs) % 2 == 1
            construct = construct_traced if traced else construct_untraced
            recorder.reset()
            start = time.perf_counter()
            try:
                output, wall, layers = construct(wl, inputs, ctx, args.seed)
                record, error = wl.record(output, recorder.calls), None
            except Exception as exc:  # a failed construction is counted, not fatal
                wall, record, layers = time.perf_counter() - start, None, None
                error = f"{type(exc).__name__}: {exc}"
            output = None
            recorder.reset()
            runs.append(Construction(traced, wall, record, error, layers))
            done = time.perf_counter() - begin >= args.seconds
            if done and (not args.trace or any(r.traced for r in runs)):
                break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failed = 0
    first = next((r.record["fingerprint"] for r in runs if r.record is not None), None)
    for i, run in enumerate(runs):
        problems = [run.error] if run.error else wl.check(inputs, run.record)
        if run.record is not None and run.record["fingerprint"] != first:
            problems.append("output differs from the first construction on the same inputs")
        if problems:
            failed += 1
            print(f"perfbench: construction {i} failed: {'; '.join(problems)}", file=sys.stderr)

    ok = [r.record for r in runs if r.record is not None]
    if args.trace:
        untraced_wall = statistics.median(r.wall for r in runs if not r.traced)
        traced = sorted((r for r in runs if r.layers is not None), key=lambda r: r.wall)
        metrics = dict.fromkeys(PER_LAYER, 0.0)
        if traced:
            median_run = traced[(len(traced) - 1) // 2]
            extras = dict(median_run.record["layers"])
            extras.update(wl.layer_extras(inputs, median_run.record, ctx, args.seed))
            clock, tracer = median_run.layers
            metrics = layer_metrics(clock, tracer, median_run.wall, untraced_wall, extras)
        metrics["graphs.input_s"] = statistics.median(gen_s)
        units = PER_LAYER
    else:
        metrics = {
            "setup_s": setup_s,
            "wall_s": statistics.median(r.wall for r in runs),
            "peak_rss_mb": peak_rss_mb,
            "ncc0_rounds": statistics.median(r["ncc0_rounds"] for r in ok) if ok else 0,
            "node_msgs_max": statistics.median(r["node_msgs_max"] for r in ok) if ok else 0,
            "ok_frac": (len(runs) - failed) / len(runs),
        }
        units = END_TO_END
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
