"""Benchmark for hypoel: three seeded workloads, checked answers, per-layer tracing.

Run one workload the way a harness does (the last line of stdout is a JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``):

    python3 bench/run.py --workload ray-sweep --seed 1 --seconds 25 --trace 0

or every workload, traced and untraced, with a readable summary:

    python3 bench/run.py --seed 1

Load is a closed loop from one process: the next operation starts when the
last one returns.  A run repeats whole rounds of the workload's operations
until it has measured for ``--seconds`` and attempted at least
``MIN_OPERATIONS``.  Every answer is checked against ``checks``.
"""

from __future__ import annotations

import os

# one caller, and BLAS pools no larger than the CPUs this process may use;
# set before numpy is imported anywhere
NPROC = len(os.sched_getaffinity(0))
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = str(NPROC)

import argparse
import contextlib
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: relative to ROOT, the working directory of a run, so that paths echoed in
#: CLI reports are the same in every checkout
WORK = Path(".bench_work")

WORKLOADS = ("ray-sweep", "spectral-chain", "cli-batch")
#: enough operations that ten or more lie beyond the 90th percentile
MIN_OPERATIONS = 100
#: fresh interpreters started per run to time set-up; the median is reported
SETUP_SAMPLES = 9

END_TO_END_UNITS = {"ops_per_s": "op/s", "op_ms_p50": "ms", "op_ms_p90": "ms", "setup_s": "s", "peak_rss_mb": "MiB"}
PER_LAYER_UNITS = {
    "symbols.eval_calls": "count",
    "symbols.eval_points": "count",
    "symbols.self_s": "s",
    "analysis.calls": "count",
    "analysis.check_hypoelliptic_calls": "count",
    "analysis.directions_built": "count",
    "analysis.self_s": "s",
    "weights.eval_points": "count",
    "weights.self_s": "s",
    "sequences.log_m_calls": "count",
    "sequences.self_s": "s",
    "grids.fft_calls": "count",
    "grids.fft_points": "count",
    "grids.fft_bytes_computed": "bytes",
    "grids.fft_s": "s",
    "grids.restricted_l2_calls": "count",
    "grids.tail_fraction_calls": "count",
    "grids.sweep_entries": "count",
    "grids.sweep_entries_unflagged": "count",
    "grids.self_s": "s",
    "estimates.cases": "count",
    "estimates.self_s": "s",
    "cli.report_bytes": "bytes",
    "cli.self_s": "s",
    "trace.ops_per_s": "op/s",
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-inputs", metavar="DIR", help="write the workload's generated input files and exit")
    parser.add_argument("--setup-probe", metavar="DIR", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def build_ops(workload: str, seed: int, workdir: Path):
    import workloads

    return workloads.build(workload, seed, workdir)


def time_child(cmd) -> float:
    """Wall time from starting ``cmd`` until it prints its ready line."""
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        code = proc.wait(timeout=120)
    if code != 0 or line.strip() != "ready":
        raise RuntimeError(f"{cmd[1:3]} exited with {code}")
    return elapsed


def measure_setup(args) -> float:
    """Median wall time from starting a fresh interpreter to having the inputs ready.

    It is scaled to the reference host speed by the median start of an
    interpreter that only imports numpy, timed before each sample.
    """
    import hostspeed

    samples, starts = [], []
    for i in range(SETUP_SAMPLES):
        starts.append(time_child(hostspeed.START_PROBE))
        workdir = WORK / f"setup-{os.getpid()}-{i}"
        try:
            samples.append(time_child([sys.executable, str(HERE / "run.py"), "--workload", args.workload,
                                       "--seed", str(args.seed), "--setup-probe", str(workdir)]))
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    return statistics.median(samples) * hostspeed.REFERENCE_START_S / statistics.median(starts)


def attempt(op):
    start = time.perf_counter()
    try:
        result = op.call()
    except Exception as exc:  # an operation that raises is a failed answer, not a crashed run
        result = exc
    return result, time.perf_counter() - start


def judge(op, result) -> tuple[bool, str | None]:
    """(failed, reason the run is not correct); a named fault is failed but correct."""
    if isinstance(result, Exception):
        return True, f"raised {type(result).__name__}: {result}"
    try:
        reason = op.check(result)
        if reason is None:
            return False, None
        if op.fault and op.is_fault(result):
            return True, None
    except Exception as exc:
        reason = f"check raised {type(exc).__name__}: {exc}"
    return True, reason


def run_workload(args) -> dict:
    setup_s = measure_setup(args)
    workdir = WORK / args.workload
    try:
        ops = build_ops(args.workload, args.seed, workdir)
        return measure(args, ops, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()


def measure(args, ops, setup_s: float) -> dict:
    import hostspeed  # before the tracer wraps numpy.fft

    wrong: dict[str, str] = {}
    faults: dict[str, int] = {}

    def tally(op, result):
        failed, reason = judge(op, result)
        if reason is not None:
            wrong.setdefault(op.name, reason)
        elif failed:
            faults[op.fault] = faults.get(op.fault, 0) + 1
        return failed

    # one untimed round fills lazy state and computes every reference answer
    for op in ops:
        tally(op, attempt(op)[0])
    faults.clear()

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer().install()
    # times scaled to the reference host speed, round by round (see hostspeed)
    times: list[float] = []
    per_op: dict[str, list[float]] = {op.name: [] for op in ops}
    failed = rounds = 0
    report_bytes = 0
    wall = 0.0
    scales: list[float] = []
    try:
        while wall < args.seconds or len(times) < MIN_OPERATIONS:
            round_times, probes = [], []
            for op in ops:
                if tracer:
                    tracer.operation = len(times) + len(round_times)
                result, elapsed = attempt(op)
                round_times.append(elapsed)
                probes.append(hostspeed.probe())
                failed += tally(op, result)
                if op.name.startswith("cli/") and not isinstance(result, Exception) and result[1]:
                    report_bytes += len(result[1])
            scales.append(hostspeed.factor(probes))
            for op, elapsed in zip(ops, round_times):
                times.append(elapsed * scales[-1])
                per_op[op.name].append(times[-1])
            wall += sum(round_times)
            rounds += 1
    finally:
        if tracer:
            tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    timed = sum(times)
    if tracer:
        layers = tracer.layer_metrics()
        layers["cli.report_bytes"] = report_bytes
        # self times, like the end-to-end times, at the reference host speed
        host = statistics.median(scales)
        values = {name: layers.get(name, 0) / rounds * (host if unit == "s" else 1)
                  for name, unit in PER_LAYER_UNITS.items()}
        values["trace.ops_per_s"] = len(times) / timed
        units = PER_LAYER_UNITS
    else:
        cuts = statistics.quantiles(times, n=10, method="inclusive")
        values = {
            "ops_per_s": len(times) / timed,
            "op_ms_p50": statistics.median(times) * 1e3,
            "op_ms_p90": cuts[8] * 1e3,
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb,
        }
        units = END_TO_END_UNITS
    for name, samples in per_op.items():
        print(f"op {name:45s} median {statistics.median(samples) * 1e3:9.2f} ms")
    print(f"unscaled ops_per_s {len(times) / wall:.4g} op/s; host speed factor median "
          f"{statistics.median(scales):.3f}, range {min(scales):.3f} to {max(scales):.3f}")
    for name, reason in sorted(wrong.items()):
        print(f"WRONG {name}: {reason}")
    for name, count in sorted(faults.items()):
        print(f"fault {name}: failed {count} of {rounds} rounds")
    return {
        "correct": not wrong,
        "attempted": len(times),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }


def run_child(args, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True).stdout
    lines = out.strip().splitlines()
    for line in lines[:-1]:
        print(f"  {line}")
    return json.loads(lines[-1])


def run_all(args) -> int:
    ok = True
    for workload in WORKLOADS:
        args.workload = workload
        plain = run_child(args, 0)
        traced = run_child(args, 1)
        ok &= plain["correct"] and traced["correct"]
        print(f"{workload}: attempted {plain['attempted']}, failed {plain['failed']}, correct {plain['correct']}")
        for name, m in {**plain["metrics"], **traced["metrics"]}.items():
            print(f"  {name:36s} {m['value']:16.6g} {m['unit']}")
        base = plain["metrics"]["ops_per_s"]["value"]
        overhead = traced["metrics"]["trace.ops_per_s"]["value"] - base
        print(f"  {'tracing overhead (traced - untraced)':36s} {overhead:16.6g} op/s ({100 * overhead / base:+.1f}%)")
    return 0 if ok else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "hypoel" / "__init__.py").is_file():
        print(f"error: hypoel sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    if args.write_inputs:
        args.write_inputs = Path(args.write_inputs).resolve()
    os.chdir(ROOT)
    if args.setup_probe:
        build_ops(args.workload, args.seed, Path(args.setup_probe))
        print("ready", flush=True)
        return 0
    if args.write_inputs:
        if args.workload != "cli-batch":
            print("error: only cli-batch reads input files", file=sys.stderr)
            return 2
        build_ops(args.workload, args.seed, args.write_inputs)
        shutil.rmtree(args.write_inputs / "reports", ignore_errors=True)
        return 0
    if args.workload == "all":
        return run_all(args)
    result = run_workload(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
