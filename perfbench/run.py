#!/usr/bin/env python3
"""The repository benchmark: scl-check and scl-runtime, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from anywhere inside a checkout of the repository; it builds the
`scl-check` binary and the `scl-perfbench` helper (perfbench/Cargo.toml)
with cargo first. Build outputs go to $CARGO_TARGET_DIR (default `target`).

Workloads (see perfbench/README.md for why each was chosen):

    shm_verify    25 shared-memory/crash/recovery registry scenarios, sequential
    abd_bounded   the three ABD scenarios that stop at the schedule cap
                  (20000 here), sequential
    abd_parallel  the same three with --workers 2
    runtime_tas   two threads electing leaders on scl_runtime::ResettableTas

With --trace 0 the last stdout line carries the end-to-end metrics: the
workload is repeated for --seconds and medians are reported. Times are
calibrated to a reference host speed (see `calibrated`). With --trace 1
it carries the per-layer metrics: counts from an untraced `scl-check --json -`
report, and spans from traced replicas of the scenarios. The line before the
last one holds diagnostics: medians, the highest percentile with at least ten
samples beyond it, sample counts, ratio bases and per-scenario counts.
Exit code 0 iff the run completed; `correct` says whether every output
checked out.
"""

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

ABD_BOUNDED = [
    "abd_lossy_n2",
    "abd_partition_minority_n2",
    "abd_retry_exhaustion_abort_n2",
]

SHM_VERIFY = [
    "spec_tas_n2",
    "spec_tas_n3",
    "spec_tas_n3_realtime",
    "solo_fast_tas_n2",
    "a1_n2",
    "a1_dropped_raw_fence_n2",
    "resettable_tas_n2",
    "universal_queue_n2",
    "universal_register_n2",
    "consensus_split_n2",
    "consensus_cas_n2",
    "crash_spec_tas_n2",
    "crash_write_behind_open_n2",
    "crash_write_behind_strict_n2",
    "crash_resettable_tas_wedge_n2",
    "crash_a1_dropped_raw_fence_n2",
    "recovery_tas_n2",
    "recovery_tas_mutant_n2",
    "recovery_write_behind_flush_durable_n2",
    "recovery_write_behind_flush_strict_n2",
    "recovery_write_behind_abandon_durable_n2",
    "recovery_write_behind_abandon_recoverable_n2",
    "recovery_recrash_unrecovered_n2",
    "abd_partition_majority_wedge_n2",
    "abd_quorum_mutant",
]

# The schedule budget of the ABD workloads: a tenth of scl-check's default
# 200000. All three scenarios still stop at the cap. A pass takes about a
# second instead of ten, so a run holds twenty of them, each with host-speed
# calibration samples close around it (see `calibrated`). Ten-second passes,
# two to a run, spread by over 30% between runs: calibration samples at the
# ends of a pass that long do not track the host's speed during it.
ABD_BUDGET = 20_000

# `scenarios`: what one pass runs. `workers`: the engine threads of the
# measured pass. `max_schedules`: the `--max-schedules` of every pass (None:
# the CLI default). `traced`: the scenarios with a traced replica in
# perfbench/src/trace.rs, chosen to cover most of the untraced wall time.
WORKLOADS = {
    "shm_verify": {
        "scenarios": SHM_VERIFY,
        "workers": 1,
        "max_schedules": None,
        "traced": [
            "spec_tas_n3",
            "spec_tas_n3_realtime",
            "abd_quorum_mutant",
            "universal_queue_n2",
            "universal_register_n2",
            "resettable_tas_n2",
        ],
    },
    "abd_bounded": {
        "scenarios": ABD_BOUNDED,
        "workers": 1,
        "max_schedules": ABD_BUDGET,
        "traced": ABD_BOUNDED,
    },
    "abd_parallel": {
        "scenarios": ABD_BOUNDED,
        "workers": 2,
        "max_schedules": ABD_BUDGET,
        "traced": ABD_BOUNDED,
    },
    # The simulator half of the traced run replicates the same algorithm's
    # step-machine backend (Algorithm 2 in scl-core).
    "runtime_tas": {
        "scenarios": ["resettable_tas_n2"],
        "workers": 1,
        "max_schedules": None,
        "traced": ["resettable_tas_n2"],
    },
}

# Set-up invocations per run, after one unmeasured warm-up; `setup_s` is
# their median. A set-up is about a millisecond, so many are cheap.
SETUP_REPS = 41
# The time of one calibration repetition (perfbench/src/calibrate.rs) that
# defines the reference host speed; about what one takes on an idle 2-core
# Xeon VM.
CAL_REF_S = 0.006
# Interval at which a running pass's VmHWM is sampled.
RSS_POLL_S = 0.005
# Untimed passes per run whose VmHWM gives `peak_rss_mb`. Timed passes are
# not sampled: waking every RSS_POLL_S takes a core from the parallel engine
# and slowed `abd_parallel` passes by 4%.
RSS_PASSES = 3
# Pass pairs (one at each worker count, run back to back) behind
# `explore.parallel_speedup`, the median of the pairs' ratios: the host's
# speed drifts less within a pair than across a run.
SPEEDUP_PAIRS = 5
# Relative drift of per-scenario counts tolerated between passes of the
# parallel engine: admission at the schedule budget races between workers.
# At ABD_BUDGET executed steps move by up to 1% (183379 to 185181 on
# abd_partition_minority_n2 over eight passes).
PARALLEL_DRIFT = 0.03

END_TO_END = ["wall_s", "setup_s", "peak_rss_mb"]

PER_LAYER = [
    "explore.schedules",
    "explore.executed_steps",
    "explore.steps_per_s",
    "explore.sleep_blocked_per_schedule",
    "explore.distinct_class_ratio",
    "explore.bounded_verdicts",
    "explore.schedules_to_violation",
    "hb.races_per_schedule",
    "hb.seed_ratio",
    "memory.checkpoint_saves",
    "memory.checkpoint_restores",
    "memory.restores_per_schedule",
    "memory.net_delivery_ticks",
    "memory.net_drop_ticks",
    "executor.ticks",
    "executor.crash_ticks",
    "executor.restart_ticks",
    "spec.checker_states",
    "explore.parallel_speedup",
    "explore.parallel_step_inflation",
    "core.step_s",
    "core.steps",
    "core.step_ns",
    "core.object_checkpoint_s",
    "bridge.record_s",
    "spec.verdict_s",
    "explore.self_s",
    "memory.snapshot_ns",
    "memory.restore_ns",
    "explore.worker_busy_frac",
    "trace.overhead",
    "trace.coverage",
    "runtime.ops_per_s",
    "runtime.fast_path_frac",
    "runtime.rmw_per_op",
]

UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "explore.steps_per_s": "1/s",
    "runtime.ops_per_s": "1/s",
    "core.step_s": "s",
    "core.object_checkpoint_s": "s",
    "bridge.record_s": "s",
    "spec.verdict_s": "s",
    "explore.self_s": "s",
    "core.step_ns": "ns",
    "memory.snapshot_ns": "ns",
    "memory.restore_ns": "ns",
}
RATIOS = {
    "explore.sleep_blocked_per_schedule",
    "explore.distinct_class_ratio",
    "hb.races_per_schedule",
    "hb.seed_ratio",
    "memory.restores_per_schedule",
    "explore.parallel_speedup",
    "explore.parallel_step_inflation",
    "explore.worker_busy_frac",
    "trace.overhead",
    "trace.coverage",
    "runtime.fast_path_frac",
    "runtime.rmw_per_op",
}


def unit(name):
    return UNITS.get(name, "ratio" if name in RATIOS else "count")


class BenchError(Exception):
    """The benchmark could not run (build failure, unparseable output)."""


# ---------------------------------------------------------------------------
# Pure helpers (unit-tested in perfbench/test_run.py)
# ---------------------------------------------------------------------------


def pass_orders(names, seed):
    """The scenario order of each pass: an endless stream of seeded
    permutations, one per pass."""
    rng = random.Random(seed)
    while True:
        order = list(names)
        rng.shuffle(order)
        yield order


def parse_report(text, requested):
    """Parses a `scl-check --json -` report.

    Returns a dict with `exhausted` (whether the whole selection ran),
    `all_as_expected`, `scenarios` (name -> entry of the scenarios that ran)
    and `skipped` (names the time budget cut). Raises BenchError when the
    document is malformed or does not cover exactly `requested`.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise BenchError(f"scl-check report is not JSON: {e}") from e
    if not isinstance(doc, dict) or doc.get("tool") != "scl-check":
        raise BenchError("not a scl-check report")
    entries = doc.get("scenarios")
    if not isinstance(entries, dict) or sorted(entries) != sorted(requested):
        raise BenchError("report does not cover the requested scenarios")
    ran = {n: e for n, e in entries.items() if e.get("outcome") != "skipped"}
    skipped = [n for n, e in entries.items() if e.get("outcome") == "skipped"]
    for name, e in ran.items():
        for key in ("schedules", "executed_steps", "as_expected", "secs"):
            if key not in e:
                raise BenchError(f"report entry {name} lacks {key}")
    return {
        "exhausted": bool(doc.get("exhausted")),
        "all_as_expected": bool(doc.get("all_as_expected")),
        "available_parallelism": doc.get("host", {}).get("available_parallelism"),
        "scenarios": ran,
        "skipped": skipped,
    }


def unexpected_outcomes(report, requested):
    """Scenarios that did not run or whose outcome is not as expected."""
    return sum(
        1
        for n in requested
        if n not in report["scenarios"] or not report["scenarios"][n]["as_expected"]
    )


def counts(report):
    """Per-scenario (schedules, executed_steps): what must repeat."""
    return {
        n: (e["schedules"], e["executed_steps"]) for n, e in report["scenarios"].items()
    }


def counts_drift(first, other, tolerance):
    """Scenarios whose counts differ between two passes by more than
    `tolerance` (relative; 0 = must match exactly)."""
    drifted = []
    for name in sorted(set(first) | set(other)):
        a, b = first.get(name), other.get(name)
        if a is None or b is None:
            drifted.append(name)
            continue
        for x, y in zip(a, b):
            if abs(x - y) > tolerance * max(x, y):
                drifted.append(name)
                break
    return drifted


def calibrated(times, gaps):
    """The median of `times`, scaled to the reference host speed.

    The host's single-thread speed drifts by tens of percent over minutes,
    so a run samples a fixed computation in the gap before every timed
    interval and after the last one (`gaps` has one entry more than
    `times`; each is a list of samples). Each time is divided by the median
    of the samples on either side of it, and the median ratio is reported
    in units of CAL_REF_S."""
    if len(gaps) != len(times) + 1 or not all(gaps):
        raise ValueError("need calibration samples before each time and after the last")
    ratios = [
        t / statistics.median(before + after) for t, before, after in zip(times, gaps, gaps[1:])
    ]
    return statistics.median(ratios) * CAL_REF_S


def weighted_quantile(pairs, q):
    """Nearest-rank quantile of (value, count) pairs, 0 < q <= 1."""
    pairs = sorted(pairs)
    total = sum(c for _, c in pairs)
    if total == 0:
        raise ValueError("no samples")
    rank = max(1, -(-int(round(q * total * 1e6)) // 1_000_000))
    seen = 0
    for value, c in pairs:
        seen += c
        if seen >= rank:
            return value
    return pairs[-1][0]


PERCENTILES = [99.999, 99.99, 99.9, 99.0, 90.0, 75.0, 50.0]


def timing_summary(samples):
    """Median plus the highest percentile with at least ten samples beyond
    it (None when there are too few samples), and the sample count.

    `samples` is a list of numbers or of (value, count) pairs."""
    pairs = [s if isinstance(s, (tuple, list)) else (s, 1) for s in samples]
    n = sum(c for _, c in pairs)
    if n == 0:
        raise ValueError("no samples")
    if all(c == 1 for _, c in pairs):
        median = statistics.median(v for v, _ in pairs)
    else:
        median = weighted_quantile(pairs, 0.5)
    high = None
    for p in PERCENTILES:
        if n * (100.0 - p) / 100.0 >= 10:
            high = {"percentile": p, "value": weighted_quantile(pairs, p / 100.0)}
            break
    return {"median": median, "high": high, "samples": n}


def ratio(bases, name, num, den):
    """num / den (0 when den is 0), recording both in `bases`."""
    bases[name] = {"num": num, "den": den}
    return num / den if den else 0.0


def parallel_speedup(pairs, bases):
    """The median over back-to-back pass pairs of sequential ÷ parallel
    wall, recording the (sequential, parallel) pairs in `bases`."""
    bases["explore.parallel_speedup"] = {"seq_par_pairs": pairs}
    return statistics.median(s / p for s, p in pairs)


def layer_counts(report, bases):
    """Per-layer metrics read from an untraced report's counters."""
    es = report["scenarios"].values()
    tel = [e.get("telemetry") or {} for e in es]

    def total(key, entries=tel):
        return sum(t.get(key, 0) for t in entries)

    schedules = sum(e["schedules"] for e in es)
    steps = sum(e["executed_steps"] for e in es)
    races = total("races")
    return {
        "explore.schedules": schedules,
        "explore.executed_steps": steps,
        "explore.steps_per_s": ratio(
            bases, "explore.steps_per_s", steps, total("explore_secs")
        ),
        "explore.sleep_blocked_per_schedule": ratio(
            bases, "explore.sleep_blocked_per_schedule", total("sleep_blocked"), schedules
        ),
        "explore.distinct_class_ratio": ratio(
            bases, "explore.distinct_class_ratio", total("hb_classes"), schedules
        ),
        "explore.bounded_verdicts": sum(
            1
            for e in es
            if not e.get("expect_violation") and e.get("outcome") == "limit_reached"
        ),
        "explore.schedules_to_violation": sum(
            e["schedules"] for e in es if e.get("expect_violation")
        ),
        "hb.races_per_schedule": ratio(bases, "hb.races_per_schedule", races, schedules),
        "hb.seed_ratio": ratio(bases, "hb.seed_ratio", total("race_seeds"), races),
        "memory.checkpoint_saves": total("checkpoint_saves"),
        "memory.checkpoint_restores": total("checkpoint_restores"),
        "memory.restores_per_schedule": ratio(
            bases,
            "memory.restores_per_schedule",
            total("checkpoint_restores"),
            schedules,
        ),
        "memory.net_delivery_ticks": total("delivery_branches"),
        "memory.net_drop_ticks": total("drop_branches"),
        "executor.ticks": sum(e.get("executed_ticks", 0) for e in es),
        "executor.crash_ticks": total("crash_branches"),
        "executor.restart_ticks": total("restart_branches"),
        "spec.checker_states": sum(e.get("checker_states", 0) for e in es),
    }


def replica_agrees(replica, entry, tolerance):
    """Whether a traced replica reproduced the untraced report entry: same
    verdict and counterexample, same schedules and executed steps (within
    `tolerance` for the parallel engine)."""
    if replica["outcome"] != entry["outcome"]:
        return False
    if replica["outcome"] == "violation":
        if replica["violation_schedule"] != (entry.get("violation") or {}).get("schedule"):
            return False
    return not counts_drift(
        {"x": (entry["schedules"], entry["executed_steps"])},
        {"x": (replica["schedules"], replica["executed_steps"])},
        tolerance,
    )


def layer_spans(replicas, untraced_secs, total_secs, bases):
    """Per-layer metrics from agreeing traced replicas.

    `untraced_secs` is the untraced report's wall time of the same
    scenarios, `total_secs` that of the whole workload."""

    def span(layer, field):
        return sum(r["spans"][layer][field] for r in replicas)

    wall = sum(r["wall_s"] for r in replicas)
    busy = sum(r["busy_s"] for r in replicas)
    wrapped = sum(
        r["spans"][layer]["s"] for r in replicas for layer in r["spans"]
    )
    steps = span("core.step", "count")
    capacity = sum(r["wall_s"] * r["workers"] for r in replicas)
    return {
        "core.step_s": span("core.step", "s"),
        "core.steps": steps,
        "core.step_ns": ratio(bases, "core.step_ns", span("core.step", "s") * 1e9, steps),
        "core.object_checkpoint_s": span("core.object_checkpoint", "s"),
        "bridge.record_s": span("bridge.record", "s"),
        "spec.verdict_s": span("spec.verdict", "s"),
        # Spans are thread time, summed over the workers: subtract them
        # from the workers' busy time, not from the wall.
        "explore.self_s": busy - wrapped,
        "memory.snapshot_ns": ratio(
            bases,
            "memory.snapshot_ns",
            span("memory.snapshot", "s") * 1e9,
            span("memory.snapshot", "count"),
        ),
        "memory.restore_ns": ratio(
            bases,
            "memory.restore_ns",
            span("memory.restore", "s") * 1e9,
            span("memory.restore", "count"),
        ),
        "explore.worker_busy_frac": ratio(
            bases,
            "explore.worker_busy_frac",
            busy,
            capacity,
        ),
        "trace.overhead": ratio(bases, "trace.overhead", wall, untraced_secs),
        "trace.coverage": ratio(bases, "trace.coverage", untraced_secs, total_secs),
    }


def result_line(correct, attempted, failed, metrics):
    return json.dumps(
        {
            "correct": bool(correct),
            "attempted": int(attempted),
            "failed": int(failed),
            "metrics": {
                name: {"value": value, "unit": unit(name)} for name, value in metrics.items()
            },
        }
    )


# ---------------------------------------------------------------------------
# Processes
# ---------------------------------------------------------------------------


def target_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", "target")


def build():
    """Builds `scl-check` and the helper; returns their paths."""
    if not (ROOT / "Cargo.toml").is_file() or not (ROOT / "crates").is_dir():
        raise BenchError(f"{ROOT} is not a checkout of the repository")
    for argv in (
        ["cargo", "build", "--release", "-q", "-p", "scl-check", "--bin", "scl-check"],
        ["cargo", "build", "--release", "-q", "--manifest-path", "perfbench/Cargo.toml"],
    ):
        proc = subprocess.run(argv, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
        if proc.returncode != 0:
            raise BenchError(f"build failed: {' '.join(argv)}")
    release = target_dir() / "release"
    return release / "scl-check", release / "scl-perfbench"


def vm_hwm_mb(pid):
    """The process's peak resident set (VmHWM) so far, in MB; None once it
    has exited."""
    try:
        with open(f"/proc/{pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return None


def spawn(argv, watch_rss=False):
    """Runs argv to completion. Returns (stdout, exit code, wall seconds,
    peak RSS in MB or None).

    `ru_maxrss` from wait4 cannot serve as the peak RSS: exec records the
    parent's (this interpreter's) high-water mark in it. With `watch_rss`
    the child's own VmHWM is sampled every RSS_POLL_S instead; it only
    grows, so the last sample before exit is the peak up to that point."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [str(a) for a in argv], cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL
    )
    peak = None
    while True:
        try:
            out, _ = proc.communicate(timeout=RSS_POLL_S if watch_rss else None)
            break
        except subprocess.TimeoutExpired:
            peak = vm_hwm_mb(proc.pid) or peak
    wall = time.perf_counter() - start
    return out.decode(), proc.returncode, wall, peak


def budget_args(spec):
    """The flags that set the engine threads and schedule budget of `spec`."""
    args = []
    if spec["workers"] != 1:
        args += ["--workers", spec["workers"]]
    if spec["max_schedules"] is not None:
        args += ["--max-schedules", spec["max_schedules"]]
    return args


def check_argv(binary, names, spec, *extra):
    return [binary, *names, "--json", "-", *budget_args(spec), *extra]


def calibrate(helper, threads):
    out, code, _, _ = spawn([helper, "calibrate", "--threads", threads])
    if code != 0:
        raise BenchError(f"scl-perfbench calibrate exited with {code}")
    return json.loads(out)["calibration_s"]


def check_pass(binary, names, spec, watch_rss=False):
    out, code, wall, rss = spawn(check_argv(binary, names, spec), watch_rss=watch_rss)
    report = parse_report(out, names)
    if code not in (0, 1):
        raise BenchError(f"scl-check exited with {code}")
    return report, wall, rss


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


def measure_check(binary, helper, spec, seed, seconds, diag):
    names, workers = spec["scenarios"], spec["workers"]
    setups, setup_gaps = [], []
    for rep in range(SETUP_REPS + 1):
        out, code, wall, _ = spawn(check_argv(binary, names, spec, "--time-budget-ms", "0"))
        report = parse_report(out, names)
        if code != 0 or report["exhausted"] or len(report["skipped"]) != len(names):
            raise BenchError("the set-up run did not skip every scenario")
        if rep:  # the first set-up is a warm-up
            setups.append(wall)
        setup_gaps.append(calibrate(helper, workers))

    walls, rss, reports, gaps = [], [], [], [setup_gaps[-1]]
    orders = pass_orders(names, seed)
    deadline = time.perf_counter() + seconds
    while not walls or time.perf_counter() < deadline:
        report, wall, _ = check_pass(binary, next(orders), spec)
        walls.append(wall)
        reports.append(report)
        gaps.append(calibrate(helper, workers))
    for _ in range(RSS_PASSES):
        report, _, peak = check_pass(binary, next(orders), spec, watch_rss=True)
        if peak is None:
            raise BenchError("scl-check exited before its VmHWM could be read")
        rss.append(peak)
        reports.append(report)
    failed = sum(unexpected_outcomes(r, names) for r in reports)
    tolerance = PARALLEL_DRIFT if workers != 1 else 0.0
    drifted = sorted(
        {n for r in reports[1:] for n in counts_drift(counts(reports[0]), counts(r), tolerance)}
    )
    clean = all(r["exhausted"] and r["all_as_expected"] for r in reports)
    diag["passes"] = len(walls)
    diag["drifted_scenarios"] = drifted
    diag["available_parallelism"] = reports[0]["available_parallelism"]
    diag["counts"] = counts(reports[0])
    diag["timings"] = {
        "raw_wall_s": timing_summary(walls),
        "raw_setup_s": timing_summary(setups),
        "peak_rss_mb": timing_summary(rss),
        "calibration_s": timing_summary([c for gap in setup_gaps + gaps[1:] for c in gap]),
    }
    metrics = {
        "wall_s": calibrated(walls, gaps),
        "setup_s": calibrated(setups, setup_gaps),
        "peak_rss_mb": statistics.median(rss),
    }
    return failed == 0 and clean and not drifted, len(reports) * len(names), failed, metrics


def runtime_run(helper, seed, seconds):
    out, code, _, _ = spawn(
        [helper, "runtime-tas", "--seed", seed, "--seconds", seconds]
    )
    if code != 0:
        raise BenchError(f"scl-perfbench runtime-tas exited with {code}")
    return json.loads(out)


def measure_runtime(helper, seed, seconds, diag):
    doc = runtime_run(helper, seed, seconds)
    passes = doc["passes"]
    rounds = sum(p["rounds"] for p in passes)
    ops = sum(p["ops"] for p in passes)
    failed = sum(p["bad_rounds"] for p in passes)
    decided = doc["fast_path_commits"] + doc["slow_path_commits"]
    gaps = doc["calibration_s"]
    walls = [p["wall_s"] for p in passes]
    setups = [p["setup_s"] for p in passes]
    diag["passes"] = len(passes)
    diag["timings"] = {
        "raw_wall_s": timing_summary(walls),
        "raw_setup_s": timing_summary(setups),
        "calibration_s": timing_summary([c for gap in gaps for c in gap]),
        "round_us": timing_summary([(ns / 1e3, n) for ns, n in doc["round_ns_hist"]]),
    }
    diag["ops_per_s"] = ops / sum(walls)
    # How much of a round the object itself takes, from the rounds on which
    # the helper timed its calls into `test_and_set` and `reset`.
    diag["object_share"] = ratio(
        diag.setdefault("bases", {}),
        "object_share",
        statistics.median(p["object_ns_per_round"] for p in passes),
        statistics.median(p["wall_s"] * 1e9 / p["rounds"] for p in passes),
    )
    metrics = {
        "wall_s": calibrated(walls, gaps),
        "setup_s": calibrated(setups, gaps),
        "peak_rss_mb": doc["vm_hwm_kb"] / 1024.0,
    }
    return failed == 0 and decided == ops, rounds, failed, metrics


def trace_check(binary, helper, spec, seed, diag):
    """Per-layer metrics of a scl-check selection: counters from an
    untraced pass, the parallel comparison from SPEEDUP_PAIRS alternating
    passes at both worker counts, and the traced replicas."""
    names, workers = spec["scenarios"], spec["workers"]
    orders = pass_orders(names, seed)
    other_spec = dict(spec, workers=1 if workers != 1 else 2)
    own, others = [], []
    for _ in range(SPEEDUP_PAIRS):
        own.append(check_pass(binary, next(orders), spec))
        others.append(check_pass(binary, next(orders), other_spec))
    report, other = own[0][0], others[0][0]
    bases = {}
    metrics = layer_counts(report, bases)
    seq, par = (report, other) if workers == 1 else (other, report)
    pairs = [(a[1], b[1]) if workers == 1 else (b[1], a[1]) for a, b in zip(own, others)]
    seq_steps = sum(e["executed_steps"] for e in seq["scenarios"].values())
    par_steps = sum(e["executed_steps"] for e in par["scenarios"].values())
    metrics["explore.parallel_speedup"] = parallel_speedup(pairs, bases)
    metrics["explore.parallel_step_inflation"] = ratio(
        bases, "explore.parallel_step_inflation", par_steps, seq_steps
    )

    out, code, _, _ = spawn([helper, "trace", *budget_args(spec), *spec["traced"]])
    if code != 0:
        raise BenchError(f"scl-perfbench trace exited with {code}")
    replicas = json.loads(out)["scenarios"]
    tolerance = PARALLEL_DRIFT if workers != 1 else 0.0
    agreeing = {
        n: r
        for n, r in replicas.items()
        if replica_agrees(r, report["scenarios"][n], tolerance)
    }
    untraced = sum(report["scenarios"][n]["secs"] for n in agreeing)
    total = sum(e["secs"] for e in report["scenarios"].values())
    metrics.update(layer_spans(list(agreeing.values()), untraced, total, bases))
    diag["bases"] = bases
    diag["dropped_replicas"] = sorted(set(replicas) - set(agreeing))
    diag["available_parallelism"] = report["available_parallelism"]
    passes = [r for r, _, _ in own + others]
    failed = sum(unexpected_outcomes(r, names) for r in passes)
    correct = failed == 0 and bool(agreeing) and all(r["all_as_expected"] for r in passes)
    return correct, len(passes) * len(names), failed, metrics


def trace_runtime(helper, seed, seconds, bases):
    """The `OpStats` path counters and throughput of a short runtime run.
    Returns (metrics, rounds, bad rounds)."""
    doc = runtime_run(helper, seed, seconds)
    passes = doc["passes"]
    ops = sum(p["ops"] for p in passes)
    metrics = {
        "runtime.ops_per_s": ratio(
            bases, "runtime.ops_per_s", ops, sum(p["wall_s"] for p in passes)
        ),
        "runtime.fast_path_frac": ratio(
            bases, "runtime.fast_path_frac", doc["fast_path_commits"], ops
        ),
        "runtime.rmw_per_op": ratio(bases, "runtime.rmw_per_op", doc["rmw_instructions"], ops),
    }
    return metrics, sum(p["rounds"] for p in passes), sum(p["bad_rounds"] for p in passes)


def run(workload, seed, seconds, trace):
    binary, helper = build()
    spec = WORKLOADS[workload]
    diag = {"workload": workload, "seed": seed, "trace": trace}
    if not trace:
        if workload == "runtime_tas":
            result = measure_runtime(helper, seed, seconds, diag)
        else:
            result = measure_check(binary, helper, spec, seed, seconds, diag)
        correct, attempted, failed, metrics = result
        result = (correct, attempted, failed, {k: metrics[k] for k in END_TO_END})
    else:
        correct, attempted, failed, metrics = trace_check(binary, helper, spec, seed, diag)
        if workload == "runtime_tas":
            runtime, rounds, bad = trace_runtime(helper, seed, max(1.0, seconds / 4), diag["bases"])
            metrics.update(runtime)
            correct, attempted, failed = correct and bad == 0, attempted + rounds, failed + bad
        else:
            metrics.update({k: 0.0 for k in PER_LAYER if k.startswith("runtime.")})
        result = (correct, attempted, failed, {k: metrics[k] for k in PER_LAYER})
    correct, attempted, failed, metrics = result
    print(json.dumps(diag, sort_keys=True))
    print(result_line(correct, attempted, failed, metrics))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, OSError, ValueError, KeyError) as e:
        print(f"benchmark failed: {e}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
