"""Timing, checking and counting for one benchmark run; run.py is the entry point.

A run measures set-up first, then one warm-up round, then whole rounds of
its workload until --seconds have passed (at least MIN_ROUNDS of them).
Every call is bracketed by the reference kernel and every output is checked;
a call that raises or fails its check counts each of its items as failed.
"""

from __future__ import annotations

import json
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import Counter
from pathlib import Path

import numpy as np

import layers
import reference
import workloads

SETUP_RUNS = 7
IMPORT_RUNS = 3
MIN_ROUNDS = 3
CLI_TIMEOUT_S = 60

IMPORT_PROBE = """
import sys, time
start = time.perf_counter()
import modleak.cli
imported = time.perf_counter()
modleak.config.load_config(sys.argv[1])
print(imported - start, time.perf_counter() - imported)
"""


class Tally:
    """Operations attempted, failed (raised or wrong) and wrong."""

    def __init__(self):
        self.attempted = self.failed = self.wrong = 0

    def add(self, items: int, failures: dict, crashed: bool = False):
        self.attempted += items
        self.failed += len(failures)
        if not crashed:
            self.wrong += len(failures)
        for reason in failures.values():
            print(f"FAILED: {reason}", file=sys.stderr)


def timed(kernel, fn, *args):
    """(result or the exception it raised, wall seconds, scaled seconds) of fn(*args)."""
    before = kernel.time_s()
    start = time.perf_counter()
    try:
        result = fn(*args)
    except Exception as exc:  # a failing call is a failed operation, not the end of the run
        traceback.print_exc(file=sys.stderr)
        result = exc
    wall = time.perf_counter() - start
    return result, wall, kernel.scaled(wall, before, kernel.time_s())


def checked(tally, items, check, out, label):
    """Count one call's items, failing them all if the call raised or its output is malformed."""
    if isinstance(out, Exception):
        tally.add(items, {i: f"{label}: {out!r}" for i in range(items)}, crashed=True)
        return
    try:
        failures = check(out)
    except (KeyError, TypeError, ValueError) as exc:
        failures = {i: f"{label}: malformed output, {exc!r}" for i in range(items)}
    tally.add(items, {i: f"{label}: {reason}" for i, reason in failures.items()})


def run_round(workload, rng, tally) -> list[tuple[int, float, float]]:
    """(items, wall seconds, scaled seconds) of each call in one round with fresh inputs."""
    calls = []
    for call in workload.round(rng):
        out, wall, scaled = timed(workload.kernel, workload.run, call)
        n = workload.items(call)
        checked(tally, n, lambda o: workload.check(call, o), out, workload.name)
        calls.append((n, wall, scaled))
    return calls


def rounds_until(deadline, workload, rng, tally) -> list:
    rounds = []
    while time.perf_counter() < deadline or len(rounds) < MIN_ROUNDS:
        rounds.append(run_round(workload, rng, tally))
    return rounds


def rate(rounds) -> tuple[float, float]:
    """(scaled, wall) items per second of a round made of each call's median time.

    The j-th call of every round has the same make-up, so the median over
    rounds per call drops the calls that a change of machine speed in
    mid-call mis-scaled, without mixing calls of different cost.
    """
    items = sum(n for n, _, _ in rounds[0])
    by_call = list(zip(*rounds))
    return (
        items / sum(statistics.median(c[2] for c in calls) for calls in by_call),
        items / sum(statistics.median(c[1] for c in calls) for calls in by_call),
    )


def python(args, cwd) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, cwd=cwd, timeout=CLI_TIMEOUT_S
    )


def measure_setup(workload, root, tally) -> tuple[float, float]:
    """Median (scaled, wall) seconds of a cold `python -m modleak.cli` on the smallest input."""
    scaled, wall = [], []

    def check(proc):
        return workload.check_setup(proc.stdout, proc.returncode)

    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=root) as tmp:
        argv = ["-m", "modleak.cli", *workload.setup_command(Path(tmp))]
        for _ in range(SETUP_RUNS):
            proc, w, s = timed(reference.COMPUTE, python, argv, tmp)
            checked(tally, 1, check, proc, f"{workload.name} setup")
            scaled.append(s)
            wall.append(w)
    return statistics.median(scaled), statistics.median(wall)


def measure_import(workload, root) -> tuple[float, float]:
    """Median scaled seconds of `import modleak.cli` and of the first load_config, cold."""
    imports, loads = [], []
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=root) as tmp:
        argv = workload.setup_command(Path(tmp))
        config_path = argv[argv.index("--config") + 1]
        for _ in range(IMPORT_RUNS):
            before = reference.COMPUTE.time_s()
            proc = python(["-c", IMPORT_PROBE, config_path], tmp)
            factor = reference.COMPUTE.scaled(1.0, before, reference.COMPUTE.time_s())
            import_s, load_s = (float(v) for v in proc.stdout.split())
            imports.append(import_s * factor)
            loads.append(load_s * factor)
    return statistics.median(imports), statistics.median(loads)


def end_to_end(workload, rng, seconds, root, tally) -> dict:
    setup_s, setup_wall = measure_setup(workload, root, tally)
    run_round(workload, rng, tally)  # warm-up: checked and counted, not timed
    rounds = rounds_until(time.perf_counter() + seconds, workload, rng, tally)
    items_per_s, wall_items_per_s = rate(rounds)
    print(
        f"{workload.name}: {len(rounds)} rounds; wall clock: setup {setup_wall:.4f} s,"
        f" {wall_items_per_s:.4f} items/s",
        file=sys.stderr,
    )
    return {
        "setup_s": (setup_s, "s"),
        "items_per_s": (items_per_s, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(workload, rng, seconds, root, tally) -> dict:
    import_s, load_s = measure_import(workload, root)
    run_round(workload, rng, tally)  # warm-up
    plain, traced, tracers = [], [], []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(traced) < MIN_ROUNDS:
        plain.append(run_round(workload, rng, tally))
        with layers.Tracer() as tracer:
            traced.append(run_round(workload, rng, tally))
        tracers.append(tracer)

    # counts per item come from the first traced round, whose inputs the seed
    # fixes; times per call and per item from all traced rounds
    first, first_items = tracers[0], sum(c[0] for c in traced[0])
    calls, seconds_in = Counter(), Counter()
    for t in tracers:
        calls.update(t.calls)
        seconds_in.update(t.seconds)
    traced_calls = [c for r in traced for c in r]
    items = sum(c[0] for c in traced_calls)
    factor = sum(c[2] for c in traced_calls) / sum(c[1] for c in traced_calls)

    def per_item(key):
        return first.calls[key] / first_items

    def us_per_call(key):
        return 1e6 * factor * seconds_in[key] / calls[key] if calls[key] else 0.0

    def s_per_item(key):
        return factor * seconds_in[key] / items

    plain_rate, traced_rate = rate(plain)[0], rate(traced)[0]
    sym, het, two = (
        "gaussian.symplectic_eigenvalues", "gaussian.heterodyne_condition", "gaussian.two_mode_ops"
    )
    key_rate_calls = first.calls["security.key_rate"]
    metrics = {
        "items_per_s.untraced": (plain_rate, "1/s"),
        "items_per_s.traced": (traced_rate, "1/s"),
        "trace.overhead_pct": (100.0 * (plain_rate / traced_rate - 1.0), "%"),
        "cli.import_s": (import_s, "s"),
        "config.load_s": (load_s, "s"),
        "modulator.rho_to_k.calls": (per_item("modulator.rho_to_k"), "count"),
        "security.key_rate.calls": (per_item("security.key_rate"), "count"),
        "security.key_rate.distinct_ratio": (
            len(first.points) / key_rate_calls if key_rate_calls else 0.0, "ratio"
        ),
        "security.key_rate.us_per_call": (us_per_call("security.key_rate"), "us"),
        "security.build_scheme.us_per_call": (us_per_call("security.build_scheme"), "us"),
        "gaussian.covmatrix.constructions": (per_item("gaussian.covmatrix"), "count"),
        f"{sym}.calls": (per_item(sym), "count"),
        f"{sym}.us_per_call": (us_per_call(sym), "us"),
        f"{sym}.modes_mean": (sum(t.modes for t in tracers) / calls[sym] if calls[sym] else 0.0, "modes"),
        f"{het}.calls": (per_item(het), "count"),
        f"{het}.us_per_call": (us_per_call(het), "us"),
        f"{two}.calls": (per_item(two), "count"),
        f"{two}.us_per_call": (us_per_call(two), "us"),
        "montecarlo.sample.bytes_computed": (first.sample_bytes / first_items, "bytes"),
    }
    for key in (
        "security.optimize_vm",
        "security.max_additional_loss",
        "security.leakage_penalty",
        "security.trusted_noise_viability",
        "montecarlo.sample",
        "montecarlo.estimate_params",
    ):
        metrics[f"{key}.s"] = (s_per_item(key), "s")
    return metrics


def run(name: str, seed: int, seconds: float, traced: bool, root: Path) -> int:
    if name not in workloads.WORKLOADS:
        print(f"error: unknown workload {name!r}; one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[name]
    tally = Tally()
    measure = per_layer if traced else end_to_end
    metrics = measure(workload, np.random.default_rng(seed), seconds, root, tally)
    print(
        json.dumps(
            {
                "correct": tally.wrong == 0,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
            }
        )
    )
    return 0
