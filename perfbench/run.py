"""The repository's benchmark: three closed-loop workloads, one command.

    python3 perfbench/run.py --workload bank_inproc --seed 1 --seconds 20 --trace 0

Run from the root of a checkout (the program is imported from ``src/``).
``--trace 0`` measures the end-to-end metrics with nothing instrumented;
``--trace 1`` is the separate traced run that measures each layer from
outside.  Every run checks the program's outputs; a failed check makes
the run exit 1.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  The full result (every
diagnostic, the checks, the environment) is written to
``perfbench/out/``, and the traced run's spans next to it.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")


def metric_units(kind: str) -> dict:
    """``{name: unit}`` of the ``end_to_end`` or ``per_layer`` metrics
    listed in ``BENCHMARK.json``, in its order."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as spec:
        return {m["name"]: m["unit"] for m in json.load(spec)[kind]}


#: end-to-end metrics measured per op window, then read across windows
WINDOW_METRICS = (
    "throughput_ops_s", "latency_p50_ms", "latency_p99_ms", "read_latency_p50_ms",
)
#: a measured run makes at least this many rounds (set-up is a median
#: over rounds, the other metrics medians over their windows)
MIN_ROUNDS = 5
#: every window must see at least this many latency samples (>= 10 beyond p99)
MIN_SAMPLES = 1000
#: the spans' self times must cover at least this share of the traced
#: window's wall time: the rest is the benchmark's own per-op loop.
#: ``client.call`` is every op's root span, so this bounds the loop, not
#: the layers: a layer whose entry point is renamed or moved is caught by
#: the check that every ``layers.TARGETS`` entry was wrapped
SELF_SUM_SHARE = 0.90


def environment() -> dict:
    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as cpuinfo:
            for line in cpuinfo:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:  # not on Linux
        usable = os.cpu_count()
    return {
        "nproc": usable,
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "network": "loopback only (127.0.0.1); no traffic leaves the host",
    }


def peak_rss_mb() -> float:
    """Peak RSS of this process (the front end of every federation)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# measured run (end-to-end metrics, nothing instrumented)
# ---------------------------------------------------------------------------


def measured_run(workload, seed: int, seconds: float):
    from workloads import FAILED, OK, READ, REFUSED, run_round

    ops = workload.generate(seed, workload.ops_per_window)
    warmup = run_round(workload, ops[: workload.warmup_ops])
    rounds = []
    deadline = time.perf_counter() + seconds
    while len(rounds) < MIN_ROUNDS or time.perf_counter() < deadline:
        rounds.append(run_round(workload, ops, workload.windows_per_round))

    windows = [w for r in rounds for w in r.windows]
    everything = latencies_of(windows)
    reads = latencies_of(windows, READ)
    attempted = sum(r.ops for r in rounds)
    failed = sum(r.count(FAILED) for r in rounds)
    refused = sum(r.count(REFUSED) for r in rounds)
    # on a shared host a fixed pure-Python loop slows by up to 2x in
    # spells of seconds to minutes.  Each op's time is scaled to the
    # nominal host speed by the reference samples around its stretch of
    # ops, so spells longer than a stretch cancel; each latency and
    # throughput metric is then the median of its per-window values
    per_window = [window_metrics(w) for w in windows]
    metrics = {
        name: statistics.median([w[name] for w in per_window])
        for name in WINDOW_METRICS
    }
    metrics["setup_s"] = statistics.median([r.setup_s * r.setup_scale for r in rounds])
    metrics["peak_rss_mb"] = peak_rss_mb()
    # nearest-rank p99 of n samples leaves n - ceil(0.99 n) ranks beyond it
    beyond_p99 = len(ops) - math.ceil(0.99 * len(ops))
    diagnostics = {
        "error_rate": failed / attempted,
        "refused_rate": refused / attempted,
        "failures_by_error": dict(sum((r.failures for r in rounds), Counter())),
        "failed_examples": [e for r in rounds for e in r.errors][:5],
        "latency_p999_ms": percentile(everything, 0.999) * 1e3,
        "samples": len(everything),
        "read_samples": len(reads),
        "samples_beyond_window_p99": beyond_p99,
        "rounds": len(rounds),
        "ops_per_window": len(ops),
        "windows": len(windows),
        # the same metrics without the host-speed scaling
        "raw": {
            **{
                name: statistics.median([w["raw_" + name] for w in per_window])
                for name in WINDOW_METRICS
            },
            "setup_s": statistics.median([r.setup_s for r in rounds]),
        },
        "median_window_scale": statistics.median([w["scale"] for w in per_window]),
        "setup_s_per_round": [r.setup_s for r in rounds],
        "setup_scale_per_round": [r.setup_scale for r in rounds],
        "per_window": per_window,
        "digests": sorted({r.digest for r in rounds}),
        "warmup_ops": warmup.ops,
    }
    checks = output_checks(workload, [warmup] + rounds)
    checks.append(
        (
            f"samples: every window has {len(ops)} >= {MIN_SAMPLES}, "
            f"so {beyond_p99} >= 10 lie beyond its p99",
            len(ops) >= MIN_SAMPLES and beyond_p99 >= 10,
        )
    )
    checks.append(
        (
            f"determinism: one outcome digest over {len(rounds)} rounds "
            f"({rounds[0].digest})",
            len({r.digest for r in rounds}) == 1,
        )
    )
    return metrics, diagnostics, checks, attempted, failed


def percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile of an ascending sequence."""
    if not sorted_values:
        return math.nan
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


def latencies_of(windows, kind=None) -> list:
    """Ascending raw op latencies of ``windows`` (only ops of ``kind`` if given)."""
    out = []
    for w in windows:
        out.extend(
            lat for lat, k in zip(w.latencies, w.kinds) if kind is None or k == kind
        )
    out.sort()
    return out


def window_metrics(w) -> dict:
    """One window's latency and throughput metrics at the nominal host
    speed, and raw as ``raw_<name>``."""
    from workloads import OK, READ

    metrics = {"scale": w.nominal_s / w.seconds}
    for prefix, seconds, latencies in (
        ("", w.nominal_s, [lat * k for lat, k in zip(w.latencies, w.scales)]),
        ("raw_", w.seconds, list(w.latencies)),
    ):
        reads = sorted(lat for lat, kind in zip(latencies, w.kinds) if kind == READ)
        latencies.sort()
        metrics[prefix + "throughput_ops_s"] = w.count(OK) / seconds
        metrics[prefix + "latency_p50_ms"] = percentile(latencies, 0.50) * 1e3
        metrics[prefix + "latency_p99_ms"] = percentile(latencies, 0.99) * 1e3
        metrics[prefix + "read_latency_p50_ms"] = percentile(reads, 0.50) * 1e3
    return metrics


def output_checks(workload, rounds) -> list:
    """One verdict per round: the workload's own output checks."""
    checks = []
    for index, rnd in enumerate(rounds):
        label = "warm-up" if index == 0 else f"round {index}"
        detail = "; ".join(rnd.violations) if rnd.violations else "held"
        checks.append((f"{workload.name} {label}: {workload.check_name}: {detail}",
                       not rnd.violations))
    return checks


# ---------------------------------------------------------------------------
# traced run (per-layer metrics)
# ---------------------------------------------------------------------------


def traced_run(workload, seed: int, stem: str):
    from layers import (
        CALL_PACKAGES, SpanRecorder, SpanSummary, count_calls, retained_bytes,
        span_metrics,
    )
    from workloads import FAILED, OK, run_round

    ops = workload.generate(seed, workload.traced_ops)
    n = len(ops)
    warmup = run_round(workload, ops[: workload.warmup_ops])
    base = run_round(workload, ops)

    calls = {}

    def profiled(window):
        timed, calls["by_package"] = count_calls(window)
        return timed

    profiled_round = run_round(workload, ops, around_window=profiled)

    retained = {}

    def memory_traced(window):
        timed, retained["bytes"] = retained_bytes(window)
        return timed

    memory_round = run_round(workload, ops, around_window=memory_traced)

    recorder = SpanRecorder()
    recorder.install()
    try:
        traced = run_round(workload, ops, on_op=recorder.set_op)
    finally:
        recorder.restore()

    summary = SpanSummary(recorder.spans)
    writes, reads = traced.windows[0].writes(), traced.windows[0].reads()
    window = traced.windows[0]
    metrics = span_metrics(
        summary, n, writes, window.nominal_s / window.seconds, traced.setup_scale
    )
    counters = traced.counters
    metrics["security.audit_records_per_op"] = counters.get("audit_records", 0.0) / n
    metrics["replication.log_appends_per_write"] = (
        counters.get("log_appends", 0.0) / writes if writes else 0.0
    )
    metrics["replication.snapshots_per_1k_writes"] = (
        counters.get("snapshots", 0.0) * 1000.0 / writes if writes else 0.0
    )
    metrics["replication.skipped_syncs_per_read"] = (
        counters.get("skipped_syncs", 0.0) / reads if reads else 0.0
    )
    metrics["replication.max_lag"] = counters.get("max_replica_lag", 0.0)
    metrics["sockets.dials"] = counters.get("dials", 0.0)
    by_package = calls["by_package"]
    for package in CALL_PACKAGES:
        metrics[f"calls.{package}_per_op"] = by_package[package] / n
    metrics["calls.total_per_op"] = sum(by_package.values()) / n
    metrics["mem.retained_bytes_per_op"] = retained["bytes"] / n
    # both throughputs at the nominal host speed, so a slow spell during
    # one of the two rounds does not read as tracing overhead
    untraced_tput = base.count(OK) / base.windows[0].nominal_s
    traced_tput = traced.count(OK) / window.nominal_s
    metrics["trace.overhead_ratio"] = traced_tput / untraced_tput
    share = summary.self_total / window.seconds
    metrics["trace.self_sum_share"] = share

    rounds = [warmup, base, profiled_round, memory_round, traced]
    checks = output_checks(workload, rounds)
    checks.append(
        (
            "every entry point in layers.TARGETS was found and wrapped"
            + (f" (missing: {recorder.missing})" if recorder.missing else ""),
            not recorder.missing,
        )
    )
    digests = {
        "untraced": base.digest,
        "profiled": profiled_round.digest,
        "memory-traced": memory_round.digest,
        "span-traced": traced.digest,
    }
    checks.append(
        (
            "tracing changes no outcome: "
            + ", ".join(f"{k}={v}" for k, v in digests.items()),
            len(set(digests.values())) == 1,
        )
    )
    checks.append(
        (
            f"span self times cover {share:.3f} of the traced window "
            f"(>= {SELF_SUM_SHARE}; the rest is the benchmark's own loop)",
            SELF_SUM_SHARE <= share <= 1.0 + 1e-9,
        )
    )
    span_path = f"{stem}-spans.jsonl.gz"
    recorder.write(span_path)
    diagnostics = {
        "ops_per_window": n,
        "spans": len(recorder.spans),
        "span_file": os.path.relpath(span_path, ROOT),
        "op_span_names": sorted(summary.op_names()),
        "window_scale": window.nominal_s / window.seconds,
        "setup_scale": traced.setup_scale,
        "untraced_throughput_ops_s": untraced_tput,
        "traced_throughput_ops_s": traced_tput,
        "calls_by_package": by_package,
        "retained_bytes": retained["bytes"],
        "writes": writes,
        "reads": reads,
    }
    attempted = sum(r.ops for r in rounds)
    failed = sum(r.count(FAILED) for r in rounds)
    return metrics, diagnostics, checks, attempted, failed


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", required=True, help="a workload name, or 'all' for each in turn"
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_workload(workload, seed: int, seconds: float, trace: int, env: dict) -> dict:
    """One run: measure, check, print the report, write the result file."""
    stem = os.path.join(OUT, f"{workload.name}-seed{seed}-trace{trace}")
    started = time.perf_counter()
    if trace:
        metrics, diagnostics, checks, attempted, failed = traced_run(
            workload, seed, stem
        )
        units = metric_units("per_layer")
    else:
        metrics, diagnostics, checks, attempted, failed = measured_run(
            workload, seed, seconds
        )
        units = metric_units("end_to_end")
    elapsed = time.perf_counter() - started
    assert set(metrics) == set(units), set(metrics) ^ set(units)
    checks.append(
        (
            "every metric is a finite number",
            all(math.isfinite(metrics[name]) for name in units),
        )
    )
    correct = all(ok for _label, ok in checks)

    print(f"perfbench {workload.name} seed={seed} trace={trace} ({elapsed:.1f} s)")
    print(f"  why: {workload.why}")
    print("  environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    for name, unit in units.items():
        print(f"  {name:40s} {metrics[name]:14.6g} {unit}")
    if not trace:
        print(f"  {'error_rate':40s} {diagnostics['error_rate']:14.6g} ratio "
              "(failed / attempted)")
        print(f"  {'latency_p999_ms':40s} {diagnostics['latency_p999_ms']:14.6g} ms "
              "(diagnostic only)")
        print(f"  samples={diagnostics['samples']} rounds={diagnostics['rounds']}")
    for label, ok in checks:
        print(f"  [{'PASS' if ok else 'FAIL'}] {label}")

    result = {
        "workload": workload.name,
        "why": workload.why,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "elapsed_s": elapsed,
        "environment": env,
        "metrics": {n: {"value": metrics[n], "unit": u} for n, u in units.items()},
        "diagnostics": diagnostics,
        "checks": [{"check": label, "passed": ok} for label, ok in checks],
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
    }
    with open(f"{stem}.json", "w", encoding="utf-8") as out:
        json.dump(result, out, indent=2)
        out.write("\n")
    return result


def main(argv=None) -> int:
    args = parse_args(argv)
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        print(
            f"perfbench: no program to measure: {src}/repro is missing "
            "(run from the root of a checkout of the repository)",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, src)
    # a terminated run still shuts its federation down (worker processes
    # included): SystemExit unwinds through every round's teardown
    signal.signal(signal.SIGTERM, lambda _sig, _frame: sys.exit(143))
    # every temporary file (worker logs) stays inside the checkout
    scratch = os.path.join(OUT, "tmp")
    os.makedirs(scratch, exist_ok=True)
    os.environ["TMPDIR"] = scratch
    tempfile.tempdir = scratch

    from workloads import WORKLOADS

    if args.workload == "all":
        return run_each(list(WORKLOADS), args)
    if args.workload not in WORKLOADS:
        print(
            f"perfbench: unknown workload {args.workload!r} "
            f"(one of {', '.join(WORKLOADS)}, or all)",
            file=sys.stderr,
        )
        return 2
    result = run_workload(
        WORKLOADS[args.workload], args.seed, args.seconds, args.trace, environment()
    )
    summary = {key: result[key] for key in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


def run_each(names, args) -> int:
    """Each workload in its own process, so each reports its own peak RSS;
    one result line, each metric name prefixed by its workload."""
    results = []
    for name in names:
        child = subprocess.Popen(
            [
                sys.executable, os.path.abspath(__file__), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace),
            ],
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            out, _ = child.communicate()
        except BaseException:
            child.terminate()  # it shuts its own worker processes down
            child.wait()
            raise
        lines = out.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        try:
            results.append((name, json.loads(lines[-1])))
        except (IndexError, ValueError):
            print(f"perfbench: {name} printed no result (exit {child.returncode})",
                  file=sys.stderr)
            return child.returncode or 1
    summary = {
        "correct": all(r["correct"] for _, r in results),
        "attempted": sum(r["attempted"] for _, r in results),
        "failed": sum(r["failed"] for _, r in results),
        "metrics": {
            f"{name}.{metric}": value
            for name, r in results
            for metric, value in r["metrics"].items()
        },
    }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
