"""Benchmark of the `sega` CLI: one closed-loop client running units back to back.

Run from the repository root:

    python3 perfbench/run.py --workload traj_large --seed 0 --seconds 40 --trace 0

With --trace 0 it times units in-process for --seconds and prints the
end-to-end metrics. With --trace 1 it runs a fixed number of units untraced,
then the same units traced, and prints the per-layer metrics. Either way the
last line of stdout is one JSON object: correct, attempted, failed, metrics.
See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import glob
import io
import json
import logging
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback

# One BLAS thread: on a small shared host, runs with one BLAS thread per vCPU
# spread wider from run to run. Set before numpy is first imported (workloads
# imports it).
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

from tracer import ClampCounter, Tracer
from workloads import REFERENCE_SEED, WORKLOADS, compare_reference

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = ".bench_work"
# setup_s is the median of this many fresh interpreters, half taken before the
# timed loop and half after it, so that one burst of machine noise moves it less.
SETUP_REPEATS = 12
MIN_TIMED_UNITS = 3  # so that a 10 s traj_large unit still yields a median of three
REQUIRED = ("src/sega/cli.py", "configs/heatmap_noise.json", "configs/trajectory_small.json")

# A fresh interpreter's import of sega.cli plus the config load.
SETUP_CHILD = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import sega.cli
sega.cli.load_experiment_config(sys.argv[2])
print(time.perf_counter() - t0)
"""

# One CLI command in a fresh interpreter; prints its wall time and exit code.
ONE_COMMAND_CHILD = """
import contextlib, io, sys, time
sys.path.insert(0, sys.argv[1])
from sega import cli
t0 = time.perf_counter()
code = 1
with contextlib.redirect_stdout(io.StringIO()):
    try:
        cli.main.main(sys.argv[2:], prog_name="sega")
    except SystemExit as exc:
        code = exc.code or 0
print(time.perf_counter() - t0, code)
"""


def invoke(cli_main, args):
    """Run one `sega` command in-process; return (exit code, stdout text)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            cli_main.main(args, prog_name="sega")
            code = 0
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
        except Exception:  # a crash is a failed unit, not a failed benchmark
            traceback.print_exc()
            code = 1
    return code, buf.getvalue()


class Runner:
    def __init__(self, workload, cli_main):
        self.workload = workload
        self.invoke = lambda args: invoke(cli_main, args)
        self.index = 0
        self.attempted = 0
        self.failed = 0
        self.reference = None
        if workload.seed == REFERENCE_SEED:
            with open(os.path.join(HERE, "reference.json")) as fh:
                self.reference = json.load(fh)[workload.name]

    def unit(self, index=None, on_view=None):
        """Run one unit; return (wall s, cpu s). Outputs are checked untimed."""
        index = self.index if index is None else index
        self.index = max(self.index, index + 1)
        commands = self.workload.commands(index)
        t0, c0 = time.perf_counter(), time.process_time()
        results = [self.invoke(args) for args in commands]
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        self.attempted += 1
        errors = [f"`sega {args[0]}` exited {code}" for args, (code, _) in zip(commands, results) if code]
        if not errors:
            try:
                view = self.workload.view(index, [out for _, out in results])
                errors = self.workload.check(index, view)
                if self.reference is not None and index == 0:
                    errors += compare_reference(self.reference, view, "reference")
                if on_view is not None:
                    on_view(view)
            except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
                errors = [f"unreadable output: {exc!r}"]
        if errors:
            self.failed += 1
            if self.failed <= 3:
                print(f"unit {index} failed: " + "; ".join(errors[:5]), file=sys.stderr)
        return wall, cpu


def tail(samples):
    """(value, percentile) of the highest percentile with >= 10 samples above it.

    With too few samples for that percentile to reach the median, the median
    is reported, as percentile 50.
    """
    xs = sorted(samples)
    j = len(xs) - 11
    if j < 0 or 100.0 * (j + 1) / len(xs) < 50.0:
        return statistics.median(xs), 50.0
    return xs[j], 100.0 * (j + 1) / len(xs)


def setup_seconds(config_path, repeats):
    times = []
    for _ in range(repeats):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CHILD, os.path.join(ROOT, "src"), config_path],
            capture_output=True, text=True, timeout=60, check=True,
        )
        times.append(float(done.stdout))
    return times


def multi_thread_unit(args):
    """One command in a fresh interpreter with one BLAS thread per CPU, as a report line."""
    threads = str(os.cpu_count() or 1)
    env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads,
           "MKL_NUM_THREADS": threads}
    done = subprocess.run(
        [sys.executable, "-c", ONE_COMMAND_CHILD, os.path.join(ROOT, "src"), *args],
        capture_output=True, text=True, timeout=120, env=env,
    )
    fields = done.stdout.split()
    if done.returncode or len(fields) != 2:
        return f"failed, exit {done.returncode}"
    return f"{float(fields[0]):.3f} s, exit {fields[1]}"


def machine_facts():
    import ctypes
    import platform

    import numpy as np

    facts = {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        facts["blas"] = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        facts["blas"] = "unknown"
    threads = None
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                threads = fn()
                break
    facts["blas_threads"] = threads if threads is not None else os.environ.get("OPENBLAS_NUM_THREADS", "unknown")
    for index in glob.glob("/sys/devices/system/cpu/cpu0/cache/index*"):
        try:
            with open(os.path.join(index, "level")) as fh:
                level = fh.read().strip()
            with open(os.path.join(index, "size")) as fh:
                size = fh.read().strip()
        except OSError:
            continue
        if level in ("2", "3"):
            facts[f"l{level}"] = size
    return facts


def metric(value, unit):
    return {"value": value, "unit": unit}


def timed_run(runner, seconds):
    workload = runner.workload
    setups = setup_seconds(workload.config_path(), SETUP_REPEATS // 2)
    for _ in range(workload.warmup_units):
        runner.unit()
    walls, cpus = [], []
    start = time.perf_counter()
    # Stop only at the end of a cycle, so every timed cycle has the same mix of units.
    while (time.perf_counter() - start < seconds or len(walls) < MIN_TIMED_UNITS
           or len(walls) % workload.cycle):
        wall, cpu = runner.unit()
        walls.append(wall)
        cpus.append(cpu)
    setups += setup_seconds(workload.config_path(), SETUP_REPEATS - len(setups))
    tail_value, tail_pct = tail(walls)
    cycles = [sum(walls[i:i + workload.cycle]) for i in range(0, len(walls), workload.cycle)]
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "unit_s_p50": metric(statistics.median(walls), "s"),
        "unit_s_tail": metric(tail_value, "s"),
        "items_per_s": metric(workload.items_per_unit * workload.cycle / statistics.median(cycles), "1/s"),
        "cpu_s_p50": metric(statistics.median(cpus), "s"),
        "peak_rss_mb": metric(peak_mb, "MB"),
        "setup_s": metric(statistics.median(setups), "s"),
    }
    notes = {
        "unit_s_tail is": f"p{tail_pct:.2f} of n={len(walls)} timed units",
        "failed_frac": f"{runner.failed / runner.attempted:.6g} ({runner.failed}/{runner.attempted} units)",
    }
    return metrics, notes


def traced_run(runner, clamps):
    """K units untraced, then the same K traced; per-unit layer metrics."""
    workload = runner.workload
    for _ in range(workload.warmup_units):
        runner.unit()
    first = runner.index
    units = range(first, first + workload.trace_units)
    untraced = [runner.unit(i)[0] for i in units]

    tracer = Tracer()
    tracer.install()
    plain_invoke = runner.invoke
    runner.invoke = tracer.traced("cli.command", plain_invoke)
    clamps.events = 0
    traced = []
    try:
        for i in units:
            traced.append(runner.unit(
                i, on_view=lambda view: tracer.counts.update(
                    {"attention.rows_used": workload.rows_printed(view)})
            )[0])
            tracer.end_unit()
    finally:
        runner.invoke = plain_invoke
        tracer.uninstall()
    tracer.counts["spectral.floor_clamps"] = clamps.events
    k = len(traced)
    metrics = tracer.metrics(k)
    metrics["trace.overhead_frac"] = metric(sum(traced) / sum(untraced) - 1.0, "ratio")
    self_s = tracer.self_times()[1]
    metrics["trace.unattributed_s"] = metric((sum(traced) - sum(self_s.values())) / k, "s")
    notes = {
        "missing wraps": ", ".join(tracer.missing) or "none",
        "traced units": str(k),
        "trace bookkeeping per unit": f"{self_s['trace.bookkeeping'] / k:.6g} s",
    }
    if workload.name == "traj_large":
        notes["multi-thread unit (OPENBLAS_NUM_THREADS=nproc)"] = multi_thread_unit(workload.commands(first)[0])
    trace_path = os.path.join(WORK, f"trace-{workload.name}-seed{workload.seed}.json")
    tracer.write(trace_path, {"workload": workload.name, "seed": workload.seed, "units": k,
                              "untraced_s": untraced, "traced_s": traced})
    notes["spans written to"] = trace_path
    return metrics, notes


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    os.chdir(ROOT)
    missing = [p for p in REQUIRED if not os.path.exists(p)]
    if missing:
        print(f"cannot benchmark: {', '.join(missing)} not found under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from sega import cli

    clamps = ClampCounter()
    logging.getLogger("sega.spectral").addHandler(clamps)
    workload = WORKLOADS[args.workload](WORK, args.seed)
    runner = Runner(workload, cli.main)
    if args.trace:
        metrics, notes = traced_run(runner, clamps)
    else:
        metrics, notes = timed_run(runner, args.seconds)

    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}")
    for key, value in machine_facts().items():
        print(f"  machine.{key:<34} {value}")
    for name, m in metrics.items():
        print(f"  {name:<42} {m['value']:.6g} {m['unit']}")
    for key, value in notes.items():
        print(f"  {key:<42} {value}")
    correct = runner.failed == 0
    print(json.dumps({"correct": correct, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
