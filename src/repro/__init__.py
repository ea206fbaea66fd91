"""repro — a reproduction of ADOR (ISPASS 2025).

ADOR: A Design Exploration Framework for LLM Serving with Enhanced
Latency and Throughput.  The package implements the paper's full stack:

* :mod:`repro.api` — the declarative experiment surface: serializable
  specs, named registries and the ``simulate()`` facade;
* :mod:`repro.models` — LLM architectures and workload characterization;
* :mod:`repro.hardware` — chip templates, presets, the named chip
  registry and the calibrated area/cost model;
* :mod:`repro.perf` — analytical compute/memory performance models
  (systolic arrays, MAC trees, GPU/NPU/TSP baselines);
* :mod:`repro.parallel` — collectives, TP/PP and overlap analysis;
* :mod:`repro.core` — the HDA scheduler and the architecture search;
* :mod:`repro.compiler` — model mapper and instruction generator;
* :mod:`repro.serving` — the discrete-event serving simulator;
* :mod:`repro.analysis` — metrics and reporting helpers.

Quick start — one serving experiment, declaratively::

    from repro.api import DeploymentSpec, WorkloadSpec, simulate

    report = simulate(
        DeploymentSpec(chip="ador", model="llama3-8b", max_batch=256),
        WorkloadSpec(trace="ultrachat", rate_per_s=15.0,
                     num_requests=200, seed=7),
    )
    print(f"TTFT p95: {report.qos.ttft_p95_s * 1e3:.1f} ms, "
          f"TBT p95: {report.qos.tbt_p95_s * 1e3:.2f} ms")

The same experiment as data — serialize it, check it in, replay it
anywhere (``repro run experiment.json`` from the CLI does the same)::

    from repro.api import Experiment, run_experiment, save_experiment

    save_experiment(Experiment(deployment, workload), "experiment.json")
    report = run_experiment("experiment.json")   # identical, same seed

Lower-level building blocks stay importable for custom studies::

    from repro.api import device_model_for, get_chip, get_model

    device = device_model_for(get_chip("ador"))
    step = device.decode_step_time(get_model("llama3-8b"), batch=128,
                                   context_len=1024)
    print(f"TBT: {step.seconds * 1e3:.2f} ms")

Every package of ``repro`` exports its public names lazily (PEP 562):
importing a package loads none of its submodules, and a name's
defining module loads on the first access to it.  A process therefore
loads only the modules its run executes.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Iterable, Mapping

__version__ = "1.1.0"


def _submodule(package: str, name: str) -> object:
    """``package.name`` as an attribute: the submodule, imported on
    access as an eagerly importing package would have had it loaded."""
    qualified = f"{package}.{name}"
    if not name.startswith("__"):
        try:
            return importlib.import_module(qualified)
        except ModuleNotFoundError as exc:
            if exc.name != qualified:
                raise
    raise AttributeError(f"module {package!r} has no attribute {name!r}")


def lazy_exports(
    package: str, table: Mapping[str, Iterable[str]],
) -> tuple[list[str], Callable[[str], object], Callable[[], list[str]]]:
    """``__all__``, ``__getattr__`` and ``__dir__`` for ``package``.

    ``table`` maps each defining module to the names it exports through
    the package.  A name resolves on first access by importing its
    module, and is then cached in the package namespace.

    A name that is also the name of its defining submodule (a function
    ``sweep`` in ``package.sweep``) is bound eagerly: the import system
    sets the package attribute to the submodule whenever that submodule
    first loads, so a lazy binding would turn the exported function
    into a module as soon as any code imported the submodule.
    """
    namespace = sys.modules[package].__dict__
    source = {name: module for module, names in table.items()
              for name in names}

    def __getattr__(name: str) -> object:
        module = source.get(name)
        if module is None:
            return _submodule(package, name)
        value = getattr(importlib.import_module(module), name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(namespace.keys() | source.keys())

    for name, module in source.items():
        if module == f"{package}.{name}":
            __getattr__(name)
    return list(source), __getattr__, __dir__


_EXPORTS = {
    "repro.models.zoo": ("get_model", "list_models"),
    "repro.core.search": ("AdorSearch",),
    "repro.core.scheduling": ("device_model_for",),
    "repro.hardware.presets": ("ador_table3",),
    "repro.hardware.registry": ("get_chip", "list_chips", "register_chip"),
    "repro.api.specs": ("DeploymentSpec", "WorkloadSpec", "Experiment"),
    "repro.api.facade": ("ServingReport", "simulate", "load_experiment",
                         "save_experiment", "run_experiment"),
}
__all__, __getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
__all__.insert(0, "__version__")
