"""qchar benchmark runner.

    python3 perfbench/run.py --workload verify-all --seed 1 --seconds 50 --trace 0

Run from the root of a checkout; qchar is imported from its src/ directory.
Every workload run is a fresh process (perfbench/child.py), since qchar's
memo tables would otherwise turn later runs into cache hits.

With --trace 0 the runner repeats the workload for about --seconds seconds
(at least three runs) and reports the medians of the end-to-end metrics;
set-up time also takes the import-only probes into account.  With --trace 1
it makes one untraced and one traced run and reports the per-layer metrics
of the traced one, plus the tracing overhead.  Human-readable report lines
start with '#'; the last line of stdout is the JSON result.  Every fresh
process counts as attempted; one that crashes, times out, exits nonzero or
fails its output check counts as failed (failed / attempted is the fail
ratio).
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
CHILD = Path(__file__).resolve().with_name("child.py")

END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}

PER_LAYER = {
    **{f"{name}.calls": "count" for name in
       ("laurent.qdict_mul", "laurent.BiLaurent.mul", "laurent.divide_exact",
        *tracer.MEMOISED)},
    "laurent.qdict_mul.coef_mults": "count",
    **{f"{name}.self_s": "s" for _, _, name in tracer.SPANS
       if name != "verify.run_identity"},
    **{f"{name}.hit_ratio": "ratio" for name in tracer.MEMOISED},
    **{name: "count" for _, _, name in tracer.GENERATORS},
    "fermionic.candidate_ratio": "ratio",
    **{f"verify.{ident}.{suffix}": unit for ident in tracer.IDENTITIES
       for suffix, unit in (("cases", "count"), ("check_s", "s"), ("casegen_s", "s"))},
    "verify.pool.utilization": "ratio",
    "trace.overhead_s": "s",
}

MIN_RUNS = 3
SETUP_PROBES = 16
CHILD_TIMEOUT_S = 120.0
HARD_LIMIT_S = 150.0


class Runner:
    """Starts the fresh processes of one benchmark invocation and counts
    attempts and failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")

    def child(self, workload, spec=None, trace=False, label=""):
        """One fresh process; returns its measurements, or None on failure."""
        self.attempted += 1
        request = json.dumps({"workload": workload, "spec": spec, "trace": trace})
        proc = subprocess.Popen(
            [sys.executable, "-s", str(CHILD), request], cwd=ROOT, env=self.env,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            start_new_session=True)
        try:
            stdout, stderr = proc.communicate(timeout=CHILD_TIMEOUT_S)
            error = None if proc.returncode == 0 else f"exit code {proc.returncode}"
        except subprocess.TimeoutExpired:
            _kill_group(proc)
            stdout, stderr = proc.communicate()
            error = f"timed out after {CHILD_TIMEOUT_S:.0f} s"
        _kill_group(proc)
        result = None
        if error is None:
            try:
                result = json.loads(stdout.strip().splitlines()[-1])
            except (IndexError, ValueError):
                error = "no result line"
        if error is None and result.get("error"):
            error = result["error"]
        if error is not None:
            self.failed += 1
            tail = stderr.strip().splitlines()[-1:] if stderr else []
            print(f"# FAILED {label}: {error} {' '.join(tail)}".rstrip())
            return None
        return result


def _kill_group(proc) -> None:
    """Kill whatever is left of the child and its pool workers, and wait
    until all of it is gone."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def _summary(values) -> str:
    return (f"median {statistics.median(values):.4f} min {min(values):.4f} "
            f"max {max(values):.4f} n={len(values)}")


def measure(runner: Runner, workload: str, spec: dict, seconds: int) -> dict | None:
    """End-to-end metrics: medians over fresh-process runs of the workload,
    and over the import-only probes for set-up time."""
    runner.child(None, label="warm-up import")  # writes the bytecode caches
    setups = []
    for i in range(SETUP_PROBES):
        probe = runner.child(None, label=f"import probe {i + 1}")
        if probe is not None:
            setups.append(probe["setup_s"])
    runs = []
    start = time.perf_counter()
    longest = 0.0
    for attempt in itertools.count(1):
        elapsed = time.perf_counter() - start
        if elapsed + longest > HARD_LIMIT_S:
            break
        if attempt > MIN_RUNS and elapsed + longest > seconds:
            break
        t0 = time.perf_counter()
        run = runner.child(workload, spec, label=f"run {attempt}")
        longest = max(longest, time.perf_counter() - t0)
        if run is not None:
            runs.append(run)
            setups.append(run["setup_s"])
            print(f"# run: wall_s {run['wall_s']:.4f} cpu_s {run['cpu_s']:.4f} "
                  f"peak_rss_mb {run['peak_rss_mb']:.1f} setup_s {run['setup_s']:.4f}")
    if not runs:
        return None
    metrics = {name: [run[name] for run in runs] for name in ("wall_s", "cpu_s", "peak_rss_mb")}
    metrics["setup_s"] = setups
    for name, values in metrics.items():
        print(f"# {name}: {_summary(values)}")
    return {name: statistics.median(values) for name, values in metrics.items()}


def trace(runner: Runner, workload: str, spec: dict) -> dict | None:
    """Per-layer metrics from one traced run, next to an untraced run of the
    same inputs.  verify-all is traced with --jobs 1, because spans recorded
    in pool workers are lost; its pool utilization comes from an untraced
    run with the default --jobs 2."""
    extra = {"verify.pool.utilization": 0.0}
    if workload == "verify-all":
        pooled = runner.child(workload, spec, label="untraced --jobs 2")
        if pooled is None:
            return None
        extra["verify.pool.utilization"] = pooled["cpu_s"] / (2 * pooled["wall_s"])
        spec = workloads.with_jobs(spec, 1)
        print("# traced with --jobs 1: spans in pool workers would be lost")
    plain = runner.child(workload, spec, label="untraced")
    traced = runner.child(workload, spec, trace=True, label="traced")
    if plain is None or traced is None:
        return None
    extra["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
    print(f"# untraced wall_s {plain['wall_s']:.4f}, traced wall_s "
          f"{traced['wall_s']:.4f}, overhead {extra['trace.overhead_s']:.4f} s")
    layers = {**traced["layers"], **extra}
    for name in sorted(layers):
        if name not in PER_LAYER:
            print(f"# extra {name} = {layers[name]}")
    if traced["absent"]:
        print(f"# absent (helper not found): {', '.join(traced['absent'])}")
    return {name: layers[name] for name in PER_LAYER if name in layers}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WHY))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=50)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "qchar" / "__init__.py").is_file():
        print(f"error: no qchar sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = workloads.inputs(args.workload, args.seed)
    print(f"# workload {args.workload}, seed {args.seed}, trace {args.trace}, "
          f"python {platform.python_version()}, nproc {os.cpu_count()}")
    print(f"# why: {workloads.WHY[args.workload]}")
    print(f"# input: {workloads.describe(args.workload, args.seed, spec)}")
    runner = Runner()
    if args.trace:
        values, units = trace(runner, args.workload, spec), PER_LAYER
    else:
        values, units = measure(runner, args.workload, spec, args.seconds), END_TO_END
    print(f"# fail ratio: {runner.failed}/{runner.attempted} fresh processes")
    if values is None:
        print("error: no successful run", file=sys.stderr)
        return 1
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
