"""Tests of the benchmark itself, on reduced slices of its workloads.

Run with ``python -m pytest perfbench -q`` from the checkout root.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for path in (str(HERE), str(ROOT / "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
PLAN = json.loads((HERE / "plan.json").read_text())


def _small(name: str, seed: int = 3) -> workloads.Workload:
    """The workload cut to one part the size of its gate slice."""
    w = workloads.make(name, seed)
    return dataclasses.replace(w, parts=(w.gate_workload,))


def _traced(w):
    spec = w.parts[0]
    with Tracer() as tracer:
        report = workloads.call(w, spec)
    outcome, _ = workloads.score(w, spec, report)
    metrics = layers.layer_metrics(layers.raw_counts(tracer), [outcome])
    return metrics, workloads.pooled_qos([outcome]), outcome


def test_benchmark_json_names_every_workload_and_metric_once():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.NAMES)
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup and all(m["bound"] <= setup[0]["bound"]
                         for m in SPEC["end_to_end"])


def test_plan_predicts_every_layer_metric():
    predicted = {metric for row in PLAN["predictions"]
                 for metric in row["metrics"]}
    per_layer = {m["name"] for m in SPEC["per_layer"]}
    assert predicted == per_layer - {"trace.overhead_share"}
    for row in PLAN["predictions"]:
        assert set(row["moves"]) <= set(workloads.NAMES)


@pytest.mark.parametrize("name", workloads.NAMES)
def test_same_seed_gives_identical_counts_and_simulated_metrics(name):
    w = _small(name)
    first, first_qos, first_outcome = _traced(w)
    second, second_qos, second_outcome = _traced(w)
    counts = {k: v for k, v in first.items() if not layers._is_time(k)}
    assert counts == {k: second[k] for k in counts}
    assert first_qos == second_qos
    assert (first_outcome.attempted, first_outcome.failed) \
        == (second_outcome.attempted, second_outcome.failed)
    host = {"wall_s", "sim_tokens_per_s", "host_us_per_req",
            "trace.overhead_share"}
    assert set(first) | host == {m["name"] for m in SPEC["per_layer"]}


@pytest.mark.parametrize("name", workloads.NAMES)
def test_layers_a_workload_skips_count_zero_there(name):
    metrics, _, _ = _traced(_small(name))
    cluster = [k for k in metrics
               if k.startswith("cluster.") and k.endswith("_per_req")]
    cache = [k for k in metrics if k.startswith(("prefix.", "kv."))
             and not layers._is_time(k)]
    if name == "capacity-8b":
        assert all(metrics[k] == 0 for k in cluster)
        assert metrics["capacity.probes"] > 0
    else:
        assert all(metrics[k] > 0 for k in cluster)
        assert metrics["capacity.probes"] == 0
    if name == "sessions-prefix":
        assert metrics["prefix.hit_rate"] > 0
        assert metrics["kv.extend_per_req"] > 0
    else:
        assert all(metrics[k] == 0 for k in cache)


def _program_attributes() -> dict:
    """Every attribute of every loaded ``repro`` module and of the classes
    those modules define."""
    values = {}
    for name, module in list(sys.modules.items()):
        if module is None or not name.startswith("repro"):
            continue
        for attr, value in vars(module).items():
            values[(name, attr)] = value
            if isinstance(value, type) and value.__module__ == name:
                for member, member_value in vars(value).items():
                    values[(name, attr, member)] = member_value
    return values


def _assert_unchanged(before: dict) -> None:
    after = _program_attributes()
    assert [key for key in before if after.get(key) is not before[key]] == []


def test_traced_call_leaves_no_patched_attribute_behind():
    _small("sessions-prefix")  # import every module a traced call touches
    before = _program_attributes()
    _traced(_small("sessions-prefix"))
    _assert_unchanged(before)
    with pytest.raises(RuntimeError, match="boom"):
        with Tracer():
            raise RuntimeError("boom")
    _assert_unchanged(before)


@pytest.mark.parametrize("name", workloads.NAMES)
def test_gate_passes_on_reduced_slices(name):
    w = workloads.make(name, 3)
    assert workloads.gate(dataclasses.replace(
        w, gate_workload=dataclasses.replace(
            w.gate_workload,
            num_requests=max(20, w.gate_workload.num_requests // 4))))


def test_parts_are_a_function_of_the_seed():
    assert workloads.make("fleet32-jsq", 5) == workloads.make("fleet32-jsq", 5)
    seeds = [spec.seed for spec in workloads.make("fleet32-jsq", 5).parts]
    others = [spec.seed for spec in workloads.make("fleet32-jsq", 6).parts]
    assert len(set(seeds)) == len(seeds) and not set(seeds) & set(others)


def _child(*flags: str) -> dict:
    child = subprocess.run(
        [sys.executable, str(HERE / "run.py"), *flags,
         "--workload", "sessions-prefix", "--seed", "3"],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert child.returncode == 0, child.stderr
    return json.loads(child.stdout.strip().splitlines()[-1])


def test_fresh_processes_report_setup_cpu_and_peak_memory():
    setup = _child("--setup-only")
    assert set(setup) == {"setup_s", "setup_cpu_s", "calibration_s"}
    assert 0 < setup["setup_cpu_s"] < 60 and setup["calibration_s"] > 0
    assert setup["setup_s"] == pytest.approx(
        setup["setup_cpu_s"] * run.CALIBRATION_REFERENCE_S
        / setup["calibration_s"])
    peak = _child("--peak-only")
    assert set(peak) == {"peak_rss_mb"} and 10 < peak["peak_rss_mb"] < 4096


def test_benchmark_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    child = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fleet32-jsq",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert child.returncode != 0
    assert child.stdout == ""
