#!/usr/bin/env python3
"""The repository benchmark: ``screen``, ``netsim`` and ``serve`` workloads.

Run from the repository root::

    python3 perfbench/run.py --workload screen --seed 2017 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 2017 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics for ``--seconds`` with no
tracing: it replays the seed's operations in rounds, rescales every
latency to a reference host speed with a calibration loop timed beside
it, and reports each operation's median over the rounds.  ``--trace 1``
runs a fixed number of operations (proportional to ``--seconds``) twice,
untraced and then with per-layer spans and the program's own counters
recorded, and reports the per-layer metrics; the difference between the
two passes is the tracing overhead.  Either way the last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it give the
environment and every metric by name and unit.

``perfbench/README.md`` explains the workloads, the metrics and which
end-to-end metric each per-layer metric should move.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
#: Everything the benchmark writes goes under here (ignored by git).
SCRATCH = os.path.join(ROOT, ".bench_build", "perfbench")
GOLDEN_PATH = os.path.join(BENCH_DIR, "golden.json")
RECORD_PATH = os.path.join(SCRATCH, "digests.json")

WORKLOADS = ("screen", "netsim", "serve")
#: The default workload seed, and the seed kept back from tuning a change.
DEFAULT_SEED = 2017
HELD_OUT_SEED = 4049
#: Set-ups per untraced run (one in this process, the rest in fresh
#: processes); ``setup_s`` is their median.  Set-ups stop early, after at
#: least three, once they have taken ``SETUP_BUDGET_S``.
SETUP_REPEATS = 5
SETUP_BUDGET_S = 10.0
#: Environment variables that select implementations; cleared for the run.
CLEARED_ENV = ("REPRO_SIMPATH", "REPRO_KERNEL", "REPRO_NO_CKERNEL", "REPRO_SANITIZE")
#: Output digests are compared every this many tokens.
CHAIN_STEP = 10

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_p75": "ms",
    "peak_rss_mb": "MB",
}

#: Spans reduced to ``<span>.calls`` and ``<span>.<time field>``.
SPAN_METRICS = (
    ("flows.sample", "self_s"),
    ("core.compact_model.init", "self_s"),
    ("core.transition_build.build_entries", "self_s"),
    ("core.compact_model.operator", "self_s"),
    ("core.cnative.pair_chain_f32", "self_s"),
    ("core.inference.evolution", "self_s"),
    ("core.engine.best_single", "self_s"),
    ("experiments.fastscreen.screen_candidate", "self_s"),
    ("experiments.harness.ConfigHarness", "self_s"),
    ("experiments.screening.paper_screen", "self_s"),
    ("experiments.trials.run_trial", "self_s"),
    ("simulator.network.build", "self_s"),
    ("simulator.network.schedule_arrivals", "self_s"),
    ("simulator.run_until", "self_s"),
    ("simulator.probing.outcomes", "self_s"),
    ("service.plan_session", "self_s"),
    ("service.pool.run_sessions", "wait_s"),
    ("service.checkpoint.record_job", "self_s"),
    ("service.checkpoint.write_session", "self_s"),
    ("service.checkpoint.write_result", "self_s"),
)

#: Program counters (``repro.obs``) reported as they are.
PROGRAM_COUNTERS = (
    "kernel.sparse.matvecs",
    "kernel.power_chain.reuses",
    "engine.sequences_scored",
    "sim.table.hits",
    "sim.table.misses",
    "sim.table.installs",
    "sim.table.expirations",
    "sim.table.evictions",
    "sim.switch.packet_ins",
    "service.checkpoint.hits",
    "service.pool.fallbacks",
)


def prepare_environment() -> None:
    """Pin the implementation choices and keep every file in the checkout."""
    for name in CLEARED_ENV:
        os.environ.pop(name, None)
    os.environ["REPRO_CKERNEL_CACHE"] = os.path.join(SCRATCH, "ckernels")
    os.environ["TMPDIR"] = os.path.join(SCRATCH, "tmp")
    os.makedirs(os.environ["TMPDIR"], exist_ok=True)
    os.environ["PYTHONPATH"] = os.path.join(ROOT, "src")
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, BENCH_DIR)


BUILD_SNIPPET = (
    "from repro.core import cnative; import sys; "
    "sys.exit(0 if cnative.available() else 1)"
)


def build() -> bool:
    """Compile the native screening kernel into the checkout, if needed.

    Returns whether a compile happened; it is never part of ``setup_s``.
    """
    cache = os.environ["REPRO_CKERNEL_CACHE"]
    before = set(os.listdir(cache)) if os.path.isdir(cache) else set()
    subprocess.run([sys.executable, "-c", BUILD_SNIPPET], cwd=ROOT, timeout=600, check=False)
    after = set(os.listdir(cache)) if os.path.isdir(cache) else set()
    return bool(after - before)


def timed_setup(workload_name: str, seed: int, state_root: str):
    """Import the program, load the native kernel and set the workload up.

    Called before anything in this process has imported the program, so
    the time includes the imports.
    """
    started = time.perf_counter()
    import workloads
    from repro.core import cnative

    cnative.available()
    workload = workloads.make_workload(workload_name, state_root)
    workload.setup(seed)
    return workload, time.perf_counter() - started


def measure_setups(args, state_root: str):
    """Set the workload up here, then again in fresh processes when untraced.

    The set-up in this process comes first, so it includes the program's
    imports.  Each time is rescaled to the reference speed by the
    calibration loop timed here right after it and, for fresh-process
    set-ups, right before it too.  Returns the workload, the rescaled
    times and the wall-clock times.
    """
    workload, seconds = timed_setup(args.workload, args.seed, state_root)
    from workloads import REFERENCE_CALIBRATION_S, time_calibration

    calibration = time_calibration()
    wall = [seconds]
    scaled = [seconds * REFERENCE_CALIBRATION_S / calibration]
    while not args.trace and len(wall) < SETUP_REPEATS and (
        len(wall) < 3 or sum(wall) < SETUP_BUDGET_S
    ):
        seconds = setup_in_fresh_process(args.workload, args.seed)
        before, calibration = calibration, time_calibration()
        wall.append(seconds)
        scaled.append(seconds * 2.0 * REFERENCE_CALIBRATION_S / (before + calibration))
    return workload, scaled, wall


def setup_in_fresh_process(workload_name: str, seed: int) -> float:
    output = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", workload_name,
         "--seed", str(seed), "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    return float(json.loads(output.stdout.strip().splitlines()[-1])["setup_s"])


def environment_report(kernel_compiled: bool) -> dict:
    from repro.core import cnative

    report = {
        "cnative_available": cnative.available(),
        "cnative_load_error": cnative.load_error(),
        "simd_level": cnative.simd_level(),
        "kernel_compiled_in_build_step": kernel_compiled,
        "setup_includes_compile": False,
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "machine": platform.machine(),
    }
    for module in ("numpy", "scipy"):
        report[module] = __import__(module).__version__
    # Both registries may disappear once one path remains; record that.
    try:
        from repro.core.kernels import resolve_kernel

        report["kernel_resolved"] = resolve_kernel().describe()
    except ImportError:
        report["kernel_resolved"] = "n/a"
    try:
        from repro.core.simpath import resolve_simpath

        report["simpath_resolved"] = resolve_simpath().describe()
    except ImportError:
        report["simpath_resolved"] = "n/a"
    return report


# ----------------------------------------------------------------------
# Output digests
# ----------------------------------------------------------------------
def chain_digests(tokens) -> list:
    """Running sha256 over the tokens, sampled every ``CHAIN_STEP`` tokens
    and after the last one, as ``[token count, digest]`` pairs."""
    digest = hashlib.sha256()
    chain = []
    for count, token in enumerate(tokens, 1):
        digest.update(token.encode("utf-8") + b"\n")
        if count % CHAIN_STEP == 0 or count == len(tokens):
            chain.append([count, digest.hexdigest()[:16]])
    return chain


def _load_json(path: str) -> dict:
    try:
        with open(path) as handle:
            return json.load(handle)
    except (OSError, ValueError):
        return {}


def compare_chains(workload: str, seed: int, streams: dict) -> int:
    """Tokens after the last digest that agrees with an earlier run.

    Each stream's digest chain is compared, at every token count both
    have, with the committed ``golden.json`` and with the record of
    earlier runs in this checkout, and its digests are added to the
    record.  Returns 0 when every digest that both chains have agrees.
    """
    golden = _load_json(GOLDEN_PATH).get(workload, {}).get(str(seed), {})
    record = _load_json(RECORD_PATH)
    recorded = record.setdefault(workload, {}).setdefault(str(seed), {})
    diverged = 0
    for stream, tokens in sorted(streams.items()):
        chain = chain_digests(tokens)
        for reference in (golden.get(stream, []), recorded.get(stream, [])):
            expected = dict(reference)
            agreed = 0
            for count, value in chain:
                if count not in expected:
                    continue
                if expected[count] != value:
                    diverged += len(tokens) - agreed
                    break
                agreed = count
            else:
                continue
            break
        merged = {**dict(recorded.get(stream, [])), **dict(chain)}
        recorded[stream] = [[count, merged[count]] for count in sorted(merged)]
    if diverged == 0:
        temporary = RECORD_PATH + f".{os.getpid()}"
        with open(temporary, "w") as handle:
            json.dump(record, handle, indent=1, sort_keys=True)
        os.replace(temporary, RECORD_PATH)
    return diverged


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def latency_summary(per_op_s) -> dict:
    """Throughput, median and 75th percentile of per-op latencies."""
    latencies_ms = [seconds * 1000.0 for seconds in per_op_s]
    if len(latencies_ms) >= 2:
        p75 = statistics.quantiles(latencies_ms, n=4)[2]
    else:
        p75 = latencies_ms[0] if latencies_ms else 0.0
    return {
        "ops_per_s": len(per_op_s) / sum(per_op_s) if sum(per_op_s) > 0 else 0.0,
        "op_ms_p50": statistics.median(latencies_ms) if latencies_ms else 0.0,
        "op_ms_p75": p75,
    }


def end_to_end_metrics(measured, setup_samples) -> dict:
    """Metrics over each distinct op's median latency, at the reference speed."""
    values = {
        "setup_s": statistics.median(setup_samples),
        **latency_summary(measured.per_op_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return {name: (value, END_TO_END_UNITS[name]) for name, value in values.items()}


def _ratio(numerator: float, base: float) -> float:
    return numerator / base if base else 0.0


def layer_metrics(recorder, counters: dict, traced, untraced) -> dict:
    """Per-layer metrics from the traced pass; ratios come with their base."""
    totals = recorder.totals()
    metrics = {}
    for span, time_field in SPAN_METRICS:
        calls, seconds = totals.get(span, (0, 0.0))
        metrics[f"{span}.calls"] = (calls, "count")
        metrics[f"{span}.{time_field}"] = (seconds, "s")
    for name in PROGRAM_COUNTERS:
        metrics[name] = (counters.get(name, 0), "count")

    counts = recorder.counts
    entries = counts.get("core.transition_build.build_entries.entries", 0)
    metrics["core.transition_build.build_entries.entries"] = (entries, "count")
    rejects = counts.get("experiments.fastscreen.certified_rejects", 0)
    metrics["experiments.fastscreen.certified_rejects"] = (rejects, "count")
    metrics["experiments.fastscreen.certified_reject_ratio"] = (
        _ratio(rejects, metrics["experiments.fastscreen.screen_candidate.calls"][0]), "ratio")
    accepted = sum(
        token.startswith("a:") for tokens in traced.streams.values() for token in tokens
    )
    metrics["experiments.harness.accepted"] = (accepted, "count")
    metrics["experiments.harness.accept_ratio"] = (
        _ratio(accepted, metrics["experiments.harness.ConfigHarness.calls"][0]), "ratio")

    hits = counters.get("engine.cache.hits", 0)
    lookups = hits + counters.get("engine.cache.misses", 0)
    metrics["engine.cache.lookups"] = (lookups, "count")
    metrics["engine.cache.hit_ratio"] = (_ratio(hits, lookups), "ratio")

    events = counts.get("simulator.events", 0)
    metrics["simulator.events"] = (events, "count")
    metrics["simulator.events_per_s"] = (
        _ratio(events, metrics["simulator.run_until.self_s"][0]), "1/s")

    table_hits = counters.get("sim.table.hits", 0)
    table_lookups = table_hits + counters.get("sim.table.misses", 0)
    metrics["sim.table.lookups"] = (table_lookups, "count")
    metrics["sim.table.hit_ratio"] = (_ratio(table_hits, table_lookups), "ratio")

    metrics["traced_wall_s"] = (traced.wall_s, "s")
    metrics["unattributed_s"] = (traced.wall_s - recorder.self_seconds(), "s")
    metrics["tracing.overhead_frac"] = (_ratio(traced.wall_s, untraced.wall_s) - 1.0, "ratio")
    return metrics


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------
def traced_run(workload, args):
    """Untraced pass, then the same operations traced; per-layer metrics."""
    from repro.obs import Instrumentation, use_instrumentation
    from tracing import LayerTracer, Recorder
    from workloads import Budget, measure

    # Each pass runs half of ``--seconds`` at the workload's nominal rate:
    # a fixed amount of work, so per-layer totals compare across commits.
    n_ops = max(2, round(args.seconds * workload.nominal_ops_per_s / 2))
    untraced = measure(workload, Budget(max_ops=n_ops))
    recorder = Recorder()
    instrumentation = Instrumentation()
    tracer = LayerTracer(recorder)
    with use_instrumentation(instrumentation), tracer:
        traced = measure(workload, Budget(max_ops=n_ops), hook=recorder.set_op)
    if tracer.missing:
        print("entry points not found, so not traced: " + ", ".join(tracer.missing))
    counters = instrumentation.metrics.to_document()["counters"]

    notes = untraced.notes + traced.notes
    if traced.streams != untraced.streams:
        notes.append("traced pass produced different outputs from the untraced pass")
    fallbacks = {
        name: value for name, value in counters.items()
        if name.endswith(".pool.fallbacks") and value > 0
    }
    if fallbacks:
        notes.append(f"pool fallbacks: {fallbacks}")
    if counters.get("service.checkpoint.hits", 0):
        notes.append("service resumed from a checkpoint; sessions were not run")
    trace_path = os.path.join(SCRATCH, f"trace-{args.workload}-{args.seed}.ndjson")
    recorder.write_ndjson(trace_path)
    print(f"trace written to {os.path.relpath(trace_path, ROOT)} ({len(recorder.spans)} spans)")
    return layer_metrics(recorder, counters, traced, untraced), untraced, notes


def run_workload(args) -> int:
    state_root = os.path.join(SCRATCH, f"state-{os.getpid()}")
    shutil.rmtree(state_root, ignore_errors=True)
    try:
        if args.setup_only:
            _, seconds = timed_setup(args.workload, args.seed, state_root)
            print(json.dumps({"setup_s": seconds}))
            return 0
        kernel_compiled = build()
        workload, setup_samples, setup_wall = measure_setups(args, state_root)
        env = environment_report(kernel_compiled)
        notes = []
        if not env["cnative_available"]:
            notes.append("native screening kernel failed to load: the run is invalid")

        if args.trace:
            metrics, measured, trace_notes = traced_run(workload, args)
            notes += trace_notes
        else:
            from workloads import Budget, measure

            measured = measure(
                workload, Budget(deadline=time.perf_counter() + args.seconds), calibrate=True
            )
            metrics = end_to_end_metrics(measured, setup_samples)
        notes += measured.notes
        if getattr(workload, "pool_degraded", False):
            notes.append("service pool fell back to serial execution")

        failed = measured.failed
        check_failures, check_notes = workload.check()
        failed += check_failures
        notes += check_notes
        diverged = compare_chains(args.workload, args.seed, measured.streams)
        if diverged:
            notes.append(f"outputs differ from an earlier run on {diverged} tokens")
            failed += diverged

        attempted = max(1, measured.ops)
        failed = min(failed, attempted)
        correct = failed == 0 and not notes
        env.update({
            "workload": args.workload, "seed": args.seed, "trace": args.trace,
            "default_seed": DEFAULT_SEED, "held_out_seed": HELD_OUT_SEED,
            "setup_samples_s": setup_samples, "setup_wall_s": setup_wall,
            "ops": measured.ops,
            "rounds": len(measured.rounds), "distinct_ops": len(measured.per_op_s),
            "calibration_ms_median": (
                statistics.median(measured.calibration_s) * 1000.0
                if measured.calibration_s else None),
            "wall_clock": latency_summary(measured.wall_per_op_s),
            "wall_s": measured.wall_s, "failed_frac": failed / attempted,
            "notes": notes,
        })
        print("env " + json.dumps(env, sort_keys=True))
        for name, (value, unit) in metrics.items():
            print(f"{args.workload:8s} {name:56s} {value:14.6g} {unit}")
        print(f"{args.workload:8s} {'failed_frac':56s} {failed / attempted:14.6g} ratio")
        print(json.dumps({
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": {
                name: {"value": value, "unit": unit}
                for name, (value, unit) in metrics.items()
            },
        }))
        return 0
    finally:
        shutil.rmtree(state_root, ignore_errors=True)


def run_all(args) -> int:
    """Every workload in turn, each in its own process."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        output = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900, check=True,
        )
        lines = output.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"error: the program's source (src/repro) is missing under {ROOT}", file=sys.stderr)
        return 2
    prepare_environment()
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
