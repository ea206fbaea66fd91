#!/usr/bin/env python3
"""The repository benchmark: host cost, simulated QoS and per-layer time.

Run from the root of a checkout::

    python3 perfbench/run.py --workload fleet32-jsq --seed 1 \\
        --seconds 5 --trace 0

``--trace 0`` measures the end-to-end metrics listed in
``BENCHMARK.json``: set-up time (median over fresh processes of their
CPU seconds, scaled by a calibration to a reference CPU), peak memory
(of a fresh process that makes one measured call) and the
simulated QoS of the measured call (one ``simulate()`` or
``find_capacity()`` per workload part).  The calls repeat in whole
passes over the parts for at least ``--seconds``; their host timings
are printed too.  ``--trace 1`` measures the per-layer metrics
instead: the same calls with every layer entry point wrapped by
:mod:`tracer`, next to untraced calls for the host timings and the
tracing overhead.

Every run first passes the correctness gate (fast path == reference on
a reduced slice, capacity == the reference search, conservation,
determinism across repetitions).  Every metric is printed by name with
its unit; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# The workloads are single-process: keep numpy's BLAS from starting a
# thread pool, whose start-up and spinning would be counted as CPU time
# of set-up and of the measured calls.  Set before numpy is imported;
# the fresh set-up and peak-memory processes inherit it.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: fresh processes per run that time set-up
SETUP_PROCESSES = 7
#: CPU seconds the calibration takes on the reference CPU that setup_s
#: is expressed in (about a quiet 2-vCPU Xeon VM at 2.0 GHz)
CALIBRATION_REFERENCE_S = 0.25
OUT_DIR = ROOT / ".perfbench_out"


def _units() -> dict[str, dict[str, str]]:
    """Metric name -> unit, per section of ``BENCHMARK.json``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {section: {m["name"]: m["unit"] for m in spec[section]}
            for section in ("end_to_end", "per_layer")}


def _load_program() -> None:
    """Put the checkout's ``src`` first on the path, or fail."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"error: no program to benchmark: "
                         f"{src / 'repro'} is missing")
    sys.path.insert(0, str(src))


def _environment() -> str:
    import numpy

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return (f"env: nproc={os.cpu_count()} python={platform.python_version()}"
            f" numpy={numpy.__version__} commit={commit}")


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


# --------------------------------------------------------------------- #
# Set-up time and peak memory, each in fresh processes                   #
# --------------------------------------------------------------------- #

def _cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _calibrate() -> None:
    """A fixed piece of interpreter work like an import's: compile and
    run module source, create functions, churn small dicts and lists."""
    source = "\n".join(
        f"def f{i}(a, b=2):\n    x = [a, b, {i}]\n"
        f"    return {{'k': x, 'v': a * b}}\n" for i in range(300))
    for _ in range(20):
        namespace: dict = {}
        exec(compile(source, "calibration", "exec"), namespace)
        {i: namespace[f"f{i % 300}"](i) for i in range(3000)}


def _setup_only(name: str, seed: int) -> dict:
    """Child process: CPU seconds from process start (interpreter start
    and imports included) to ready, then the CPU seconds of
    :func:`_calibrate` in the same process.

    CPU time, not wall time, so that waiting for a CPU is not counted.
    The speed of a shared host's CPU still drifts by up to 2x over
    minutes, and set-up and calibration drift together, so set-up is
    reported scaled to the reference CPU: ``setup_cpu_s *
    CALIBRATION_REFERENCE_S / calibration_s``.
    """
    _load_program()
    import workloads

    workloads.setup(workloads.make(name, seed))
    setup = _cpu_seconds()
    _calibrate()
    calibration = _cpu_seconds() - setup
    return {"setup_s": setup * CALIBRATION_REFERENCE_S / calibration,
            "setup_cpu_s": setup, "calibration_s": calibration}


def _peak_only(name: str, seed: int) -> dict:
    """Child process: peak resident memory of the measured call on the
    first part."""
    _load_program()
    import workloads

    w = workloads.make(name, seed)
    workloads.call(w, w.parts[0])
    return {"peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}


def _child(name: str, seed: int, *flags: str) -> dict:
    child = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), *flags,
         "--workload", name, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    if child.returncode != 0:
        raise RuntimeError(f"{' '.join(flags)} process failed:\n"
                           f"{child.stderr}")
    return json.loads(child.stdout.strip().splitlines()[-1])


# --------------------------------------------------------------------- #
# One run                                                                #
# --------------------------------------------------------------------- #

def measure(name: str, seconds: float, seed: int, trace: bool) -> dict:
    """Gate, measure and score one workload; returns the result dict."""
    import workloads

    w = workloads.make(name, seed)
    parts = len(w.parts)
    lines = [f"perfbench workload={name} seed={seed} seconds={seconds:g} "
             f"trace={int(trace)} parts={parts}", _environment()]
    setups = [_child(name, seed, "--setup-only")
              for _ in range(SETUP_PROCESSES)]
    peak = _child(name, seed, "--peak-only")["peak_rss_mb"]
    checks = workloads.gate(w)
    outcomes: list = [None] * parts
    outputs: list = [None] * parts
    walls, cpus = [], []
    budget = seconds / 2 if trace else seconds
    begin = time.perf_counter()
    # whole passes only, so every part weighs the same in the medians
    while len(walls) % parts or time.perf_counter() - begin < budget:
        index = len(walls) % parts
        spec = w.parts[index]
        wall, cpu = time.perf_counter(), time.process_time()
        report = workloads.call(w, spec)
        cpu = time.process_time() - cpu
        walls.append(time.perf_counter() - wall)
        if outputs[index] is None:
            outcomes[index], outputs[index] = workloads.score(
                w, spec, report)
        workloads.check(workloads.output(report) == outputs[index],
                        f"determinism: part {index} gave a different "
                        f"output on call {len(walls)}")
        cpus.append(cpu)
        del report
    qos, samples = workloads.pooled_qos(outcomes)
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    checks.append(f"conservation: {attempted} requests attempted, "
                  f"{failed} failed/unfinished/unaccounted")
    checks.append(f"determinism: {len(walls)} calls over {parts} parts "
                  f"repeated their outputs")
    q1, wall, q3 = _quartiles(walls)
    # throughputs over the run's whole passes, so every part weighs the
    # same however much its calls cost
    passes = len(walls) // parts
    host = {
        "wall_s": wall,
        "sim_tokens_per_s": passes * sum(o.generated_tokens for o in outcomes)
        / sum(cpus),
        "host_us_per_req": sum(cpus) * 1e6 / (passes * attempted),
    }
    end_to_end = {
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "peak_rss_mb": peak,
        **qos,
    }
    lines += [f"gate: {check}: ok" for check in checks]
    lines.append(f"  wall_s calls={len(walls)} q1={q1:.4f} median={wall:.4f} "
                 f"q3={q3:.4f}; per call: "
                 + " ".join(f"{t:.4f}" for t in walls))
    for key in ("setup_s", "setup_cpu_s", "calibration_s"):
        lines.append(f"  {key} processes={len(setups)} "
                     + " ".join(f"{s[key]:.4f}" for s in setups))
    lines.append(f"  fail_share = {failed / attempted!r} ratio "
                 f"({failed} of {attempted})")
    if w.is_capacity:
        lines.append(f"  capacity_rps = {workloads.capacity_rps(outcomes)!r}"
                     f" req/s (median over {parts} searches)")
    result = {"lines": lines, "attempted": attempted, "failed": failed,
              "samples": samples, "end_to_end": end_to_end, "host": host}
    if trace:
        import layers

        per_layer, trace_lines, export = layers.traced(
            w, outcomes, outputs, wall)
        lines += trace_lines
        result["per_layer"] = {**host, **per_layer}
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"{name}-seed{seed}-trace.json"
        path.write_text(json.dumps({"workload": name, "seed": seed,
                                    **export}) + "\n")
        lines.append(f"  spans written to {path.relative_to(ROOT)}")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--peak-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_only:
        print(json.dumps(_setup_only(args.workload, args.seed)))
        return 0
    if args.peak_only:
        print(json.dumps(_peak_only(args.workload, args.seed)))
        return 0
    _load_program()
    import workloads

    if args.workload not in workloads.NAMES:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(workloads.NAMES)}")
    units = _units()
    try:
        result = measure(args.workload, args.seconds, args.seed,
                         bool(args.trace))
    except workloads.GateFailure as failure:
        print(f"CORRECTNESS GATE FAILED: {failure}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}))
        return 1
    reported = "per_layer" if args.trace else "end_to_end"
    if set(result[reported]) != set(units[reported]):
        raise RuntimeError(
            f"{reported} metrics {sorted(result[reported])} do not match "
            f"BENCHMARK.json {sorted(units[reported])}")
    for line in result["lines"]:
        print(line)
    samples = result["samples"]
    # host timings are per_layer (ungated) metrics: on a shared host their
    # run-to-run spread exceeds any admissible bound; print them always
    printed = {"end_to_end": result["end_to_end"],
               "per_layer": result.get("per_layer", result["host"])}
    for section, values in printed.items():
        print(f"{section} metrics:")
        for metric, unit in units[section].items():
            if metric not in values:
                continue
            note = ""
            if metric.startswith("sim_ttft"):
                note = f"  (n={samples['ttft']} samples)"
            elif metric.startswith("sim_tbt"):
                note = f"  (n={samples['tbt']} samples)"
            print(f"  {metric} = {values[metric]!r} {unit}{note}")
    print(json.dumps({
        "correct": True,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {metric: {"value": result[reported][metric], "unit": unit}
                    for metric, unit in units[reported].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
