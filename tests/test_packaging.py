"""Packaging contract: dependencies, the version string, what a process
imports, and the public names every package exports.

Every ``repro`` package serves its names lazily (PEP 562) from an
``_EXPORTS`` table (defining module -> names), so a process loads only
the modules its run executes.  The import budgets below pin that: each
entry point loads an exact set of ``repro`` modules, and turning a
feature on adds exactly that feature's modules.
"""

import json
import os
import subprocess
import sys
import tomllib
from pathlib import Path

import pytest

import repro

ROOT = Path(__file__).resolve().parents[1]

#: top-level modules `import repro.api` may load beyond the standard library:
#: the package itself and its one runtime dependency
ALLOWED = {"repro", "numpy"}


def run_fresh(code: str) -> str:
    """Standard output of ``code`` run in a fresh interpreter on ``src``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])])
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True).stdout


_PROBE = """
import sys
before = set(sys.modules)
import repro.api
print("\\n".join(sorted({name.split(".")[0] for name in set(sys.modules) - before})))
"""


def test_import_loads_only_stdlib_and_declared_dependencies():
    loaded = run_fresh(_PROBE).split()
    undeclared = sorted(set(loaded) - set(sys.stdlib_module_names) - ALLOWED)
    assert undeclared == []


def test_version_matches_pyproject():
    pyproject = tomllib.loads((ROOT / "pyproject.toml").read_text())
    assert repro.__version__ == pyproject["project"]["version"]


# --------------------------------------------------------------------- #
# Import budgets                                                         #
# --------------------------------------------------------------------- #

def _modules(names: str) -> frozenset:
    return frozenset(f"repro.{name}" for name in names.split()) | {"repro"}


#: what every simulation loads: the specs, the device model and one
#: endpoint's engine
RUN = _modules("""
    api api.facade api.specs core core.allocation core.dataflow
    core.scheduling hardware hardware.chip hardware.components
    hardware.interconnect hardware.memory hardware.presets
    hardware.registry hardware.technology models models.config
    models.kv_cache models.layers models.zoo perf perf.baselines
    perf.cache perf.effective_bandwidth perf.mac_tree perf.roofline
    perf.systolic perf.vector registry serving serving.dataset
    serving.engine serving.generator serving.qos serving.request
    serving.scheduler serving.stream serving.traces
""")
FLEET = RUN | _modules("cluster cluster.engine cluster.report cluster.router")

_SIMULATE = """
from repro.api import DeploymentSpec, WorkloadSpec, simulate
simulate(DeploymentSpec({deployment}),
         WorkloadSpec(rate_per_s=4.0, num_requests=8{workload}))
"""


def _simulate(deployment: str, workload: str = "",
              feature: str = "") -> str:
    """A small ``simulate()`` call that first imports ``feature``, the
    spec it switches on."""
    code = _SIMULATE.format(deployment=deployment, workload=workload)
    return f"from repro.api import {feature}" + code if feature else code


#: entry point -> (code, the exact set of repro modules it loads)
BUDGETS = {
    "import repro.api": ("import repro.api", _modules("api")),
    "fixed fleet": (_simulate("replicas=2, max_batch=16"), FLEET),
    "single endpoint": (
        _simulate("max_batch=16"),
        RUN | _modules("serving.policies serving.utilization")),
    "find_capacity": (
        "from repro.api import CapacitySpec, DeploymentSpec, WorkloadSpec,"
        " find_capacity\n"
        "find_capacity(DeploymentSpec(), WorkloadSpec(num_requests=8),"
        " CapacitySpec(iterations=1))",
        RUN | _modules("serving.capacity")),
    "faults": (
        _simulate("replicas=2, max_batch=16,"
                  " faults=FaultSpec(crash_mtbf_s=1.0)", feature="FaultSpec"),
        FLEET | _modules("cluster.faults")),
    "autoscale": (
        _simulate("replicas=2, max_batch=16, autoscale=AutoscaleSpec("
                  "min_replicas=1, max_replicas=3)", feature="AutoscaleSpec"),
        FLEET | _modules("cluster.autoscaler")),
    "prefix cache": (
        _simulate("replicas=2, max_batch=16, kv_budget_bytes=2.0**33,"
                  " prefix_cache=PrefixCacheSpec()",
                  feature="PrefixCacheSpec"),
        FLEET | _modules("serving.prefix_cache serving.kv_allocator")),
    "sessions": (
        _simulate("replicas=2, max_batch=16", feature="SessionConfig",
                  workload=", arrival='sessions', session=SessionConfig()"),
        FLEET | _modules("serving.sessions")),
    # the registries behind the --help choice lists, nothing a
    # subcommand runs
    "import repro.cli": ("import repro.cli", _modules("""
        api api.facade api.specs cli cluster cluster.autoscaler
        cluster.router hardware hardware.chip hardware.components
        hardware.interconnect hardware.memory hardware.presets
        hardware.registry hardware.technology models models.config
        models.kv_cache models.zoo quality quality.rules registry serving
        serving.dataset serving.prefix_cache serving.request
        serving.scheduler serving.traces
    """)),
}

_LOADED = """
import sys
print("\\n".join(sorted(name for name in sys.modules
                        if name == "repro" or name.startswith("repro."))))
"""


@pytest.mark.parametrize("entry", sorted(BUDGETS))
def test_import_budget(entry):
    code, budget = BUDGETS[entry]
    loaded = set(run_fresh(code + _LOADED).split())
    added, missing = sorted(loaded - budget), sorted(budget - loaded)
    assert not added, f"{entry} now also loads {', '.join(added)}"
    assert not missing, f"{entry} no longer loads {', '.join(missing)}"


# --------------------------------------------------------------------- #
# Public names                                                           #
# --------------------------------------------------------------------- #

#: every package's public names, as the eagerly importing packages
#: exported them; a lazy table must export exactly these
PUBLIC_NAMES = {
    "repro": """
        __version__ ador_table3 AdorSearch DeploymentSpec device_model_for
        Experiment get_chip get_model list_chips list_models load_experiment
        register_chip run_experiment save_experiment ServingReport simulate
        WorkloadSpec
    """,
    "repro.analysis": """
        area_efficiency_gflops_mm2 dominates format_table
        normalized_area_efficiency normalized_distance_to_utopia
        pareto_frontier qos_gain sweep
    """,
    "repro.api": """
        AutoscaleSpec build_cluster_engine CapacityReport CapacitySpec
        chip_from_dict chip_to_dict ClusterReport DeploymentSpec
        device_model_for EndpointOverloaded Experiment FaultEvent FaultSpec
        FaultTrace find_capacity find_fleet_capacity FleetCapacityReport
        FleetSpec get_autoscaler get_chip get_eviction_policy get_model
        get_policy get_router get_trace GroupBreakdown list_autoscalers
        list_chips list_eviction_policies list_models list_policies
        list_routers list_traces load_experiment PrefixCacheSpec
        ProgressReporter register_autoscaler register_chip
        register_eviction_policy register_policy register_router
        register_trace ReplicaGroupSpec run_experiment save_experiment
        ServingReport SessionConfig simulate simulate_cluster StreamStats
        WorkloadSpec
    """,
    "repro.cluster": """
        aggregate_cluster AUTOSCALER_REGISTRY AutoscalerPolicy AutoscaleSpec
        AutoscaleTrace ClusterEngine ClusterResult FaultEvent FaultInjector
        FaultRecord FaultSpec FaultTrace FleetObservation FleetSample
        get_autoscaler get_router list_autoscalers list_routers
        load_imbalance LoadImbalanceStats make_autoscaler make_router
        merge_results register_autoscaler register_router ReplicaFaultPlan
        ReplicaSim ReplicaSnapshot ROUTER_REGISTRY RouterPolicy ScaleEvent
    """,
    "repro.compiler": """
        build_model_binary CompiledProgram Instruction InstructionGenerator
        MemoryRegion ModelBinary Opcode TargetUnit
    """,
    "repro.core": """
        AdorDeviceModel AdorSearch AdorTemplate DataflowKind
        DesignEvaluation DesignPoint device_model_for GemmSplit HdaScheduler
        MultiCoreDataflow SearchResult ServiceLevelObjectives
        split_gemm_work TemplateKnobs VendorConstraints
    """,
    "repro.hardware": """
        a100 ader_reference_designs ador_table3 area_scaling_factor
        AreaBreakdown AreaModel CHIP_REGISTRY ChipSpec Dram DramKind
        EnergyBreakdown get_chip groq_tsp h100 list_chips llmcompass_latency
        llmcompass_throughput MacTree NocSpec normalize_area P2pSpec
        PowerModel ProcessNode register_chip Sram SystolicArray tpu_v4
        VectorUnit
    """,
    "repro.models": """
        AttentionKind build_decode_graph build_prefill_graph get_model
        kv_bytes_per_token kv_cache_bytes kv_fraction_of_traffic list_models
        LocalMemoryReport ModelConfig operation_share Operator OperatorKind
        peak_local_memory Phase register_model
    """,
    "repro.parallel": """
        all_gather_bytes_per_device all_reduce_bytes_per_device
        collective_time DeviceShard HybridParallelPlanner HybridPlan
        layer_sync_plan minimum_p2p_bandwidth ModelParallelMapper
        OverlapModel PipelineParallelModel SyncMethod tp_scalability_curve
        TpLatencyModel
    """,
    "repro.perf": """
        baseline_for BaselineBreakdown Bound CachedDeviceModel CacheStats
        DeviceModel effective_bandwidth EffectiveBandwidthCurve GpuModel
        MacTreeTimingModel MT_BANDWIDTH_CURVE MtEstimate roofline_time
        SaGemmEstimate SystolicNpuModel SystolicTimingModel TspModel
        VectorTimingModel
    """,
    "repro.quality": """
        all_rules exit_code format_json format_text iter_python_files
        lint_paths lint_source register_rule resolve_rule Rule RULE_REGISTRY
        rule_tokens Violation
    """,
    "repro.serving": """
        BatchingPolicy CachedPrefix CapacityResult
        ChatTraceConfig compute_qos ContinuousBatchingScheduler
        EndpointUnservable export_timeline get_eviction_policy get_policy
        get_trace InstabilityMonitor KvBlockConfig list_eviction_policies
        list_policies list_traces load_requests max_capacity_under_slo
        MultiTurnSessionGenerator OnOffRequestGenerator PagedKvAllocator
        PoissonArrivalTemplate PoissonRequestGenerator PrefixCache
        PrefixCacheSpec PrefixCacheStats ProbeOutcome QoSReport
        reference_capacity_search register_eviction_policy register_policy
        register_trace Request RequestState sample_trace Saturated
        save_requests SchedulerLimits ServingEngine SessionConfig
        SessionTurn simulate_policy SimulationResult ULTRACHAT_LIKE
        utilization_report UtilizationReport
    """,
    "repro.simulator": """
        ExecutionReport InstructionLevelSimulator UnitTimeline
    """,
}

#: Runs in a fresh process.  ``dir()`` is read before anything resolves.
#: Then every submodule is imported before a single exported name is
#: looked up, so a submodule that the import system bound over an
#: exported name of its package shows up.  The star imports come last.
_EXPORTS_PROBE = """
import importlib, json, pkgutil, types
import repro

packages = [repro.__name__] + sorted(
    info.name for info in pkgutil.iter_modules(repro.__path__, "repro.")
    if info.ispkg)
report = {"dir": {}, "star": {}, "wrong": []}
for name in packages:
    report["dir"][name] = dir(importlib.import_module(name))
for info in pkgutil.walk_packages(repro.__path__, "repro."):
    if info.name != "repro.__main__":
        importlib.import_module(info.name)
for name in packages:
    package = importlib.import_module(name)
    for module, exported in package._EXPORTS.items():
        for attr in exported:
            value = getattr(package, attr)
            if value is not getattr(importlib.import_module(module), attr):
                kind = type(value).__name__
                report["wrong"].append(
                    f"{name}.{attr} is a {kind}, not {module}.{attr}")
for name in packages:
    namespace = {}
    exec(f"from {name} import *", namespace)
    report["star"][name] = sorted(set(namespace) - {"__builtins__"})
print(json.dumps(report))
"""


@pytest.fixture(scope="module")
def exports() -> dict:
    return json.loads(run_fresh(_EXPORTS_PROBE))


def test_every_package_is_pinned(exports):
    assert sorted(exports["dir"]) == sorted(PUBLIC_NAMES)


@pytest.mark.parametrize("package", sorted(PUBLIC_NAMES))
def test_star_import_yields_the_public_names(exports, package):
    assert set(exports["star"][package]) == set(PUBLIC_NAMES[package].split())


@pytest.mark.parametrize("package", sorted(PUBLIC_NAMES))
def test_dir_lists_the_public_names_before_they_resolve(exports, package):
    missing = set(PUBLIC_NAMES[package].split()) - set(exports["dir"][package])
    assert not missing, f"dir({package}) misses {sorted(missing)}"


def test_names_resolve_to_their_defining_objects_after_all_imports(exports):
    # repro.analysis.sweep and repro.perf.effective_bandwidth are each
    # both a submodule and an exported function of their package
    assert exports["wrong"] == []


def test_unknown_names_raise_attribute_error():
    import repro.api

    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(repro.api, "no_such_name")
    assert not hasattr(repro.api, "__no_such_dunder__")


def test_submodules_resolve_as_attributes():
    # as with the eager packages, ``import repro`` reaches every module
    out = run_fresh("import repro; print(repro.serving.capacity.__name__)")
    assert out.split() == ["repro.serving.capacity"]
