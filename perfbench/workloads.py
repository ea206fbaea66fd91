"""The benchmark's workloads, their measured call and their checks.

All three serve llama3-8b on the ADOR chip with open-loop arrivals in
simulated time (independent users), in one process with no pools or
shards.  A workload is a pure function of the benchmark seed; the
program only ever sees the specs built from it.

* ``fleet32-jsq`` -- 32 replicas (``max_batch`` 32) behind
  ``least-outstanding`` at ~75% of per-replica saturation.  Every
  arrival advances and snapshots every replica, so it loads the cluster
  layer; the prefix cache is off.
* ``capacity-8b`` -- ``find_capacity`` on one endpoint under a strict
  25 ms p95 TBT SLO.  Long uninterrupted decode bursts on one engine;
  the cluster layer is never entered, so it is the control for cluster
  changes.
* ``sessions-prefix`` -- 4 replicas with session affinity serving
  multi-turn sessions with the prefix cache on: the only workload that
  reads KV/prefix state as well as writing it.

Each workload is a fixed set of independent *parts*, each with its own
seed spawned from the benchmark seed.  The measured call runs one part;
a run cycles through the parts, so host timings are medians over many
short calls while the simulated QoS pools every part's requests (tail
percentiles need far more requests than one short call simulates).
"""

from __future__ import annotations

import dataclasses
import statistics
from dataclasses import dataclass

import numpy as np

from repro.api import (
    CapacitySpec,
    DeploymentSpec,
    PrefixCacheSpec,
    SessionConfig,
    WorkloadSpec,
    facade,
)
from repro.core.scheduling import device_model_for
from repro.models.zoo import get_model
from repro.perf.cache import CachedDeviceModel
from repro.serving.capacity import _simulate_rate, reference_capacity_search
from repro.serving.generator import PoissonArrivalTemplate

#: The goodput SLO: a completion counts when both limits hold.
SLO_TTFT_S = 0.5
SLO_TBT_S = 0.025
#: ``find_capacity``'s default simulation horizon per probe
MAX_SIM_SECONDS = 600.0

NAMES = ("fleet32-jsq", "capacity-8b", "sessions-prefix")

# Parts per workload, the size of one part, and the reduced slice the
# fast == reference gate runs on (the reference path is several times
# slower).  One pass over the parts takes 7-20 s on a 2-core host.
FLEET_REPLICAS = 32
FLEET_RATE_PER_REPLICA = 8.0
FLEET_PARTS = 6
FLEET_REQUESTS = 2000
FLEET_GATE_REQUESTS = 640
CAPACITY_PARTS = 16
CAPACITY_REQUESTS = 1000
CAPACITY_GATE_REQUESTS = 200
SESSION_PARTS = 8
SESSIONS = 600
SESSIONS_GATE = 100
SESSION_RATE = 6.0


class GateFailure(AssertionError):
    """A correctness check of the benchmark failed."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise GateFailure(message)


@dataclass(frozen=True)
class Workload:
    """One named workload built from a seed."""

    name: str
    deployment: DeploymentSpec
    parts: tuple[WorkloadSpec, ...]
    gate_workload: WorkloadSpec
    capacity: CapacitySpec | None = None

    @property
    def is_capacity(self) -> bool:
        return self.capacity is not None


def part_seeds(seed: int, count: int) -> list[int]:
    """Independent workload seeds for the parts of benchmark seed ``seed``."""
    return [int(child.generate_state(1)[0])
            for child in np.random.SeedSequence(seed).spawn(count)]


def make(name: str, seed: int) -> Workload:
    """The workload ``name`` for benchmark seed ``seed``."""
    if name == "fleet32-jsq":
        deployment = DeploymentSpec(
            chip="ador", model="llama3-8b", max_batch=32,
            replicas=FLEET_REPLICAS, router="least-outstanding")
        base = WorkloadSpec(
            trace="ultrachat",
            rate_per_s=FLEET_RATE_PER_REPLICA * FLEET_REPLICAS,
            num_requests=FLEET_REQUESTS)
        count, gate_size, capacity = FLEET_PARTS, FLEET_GATE_REQUESTS, None
    elif name == "capacity-8b":
        deployment = DeploymentSpec(chip="ador", model="llama3-8b")
        base = WorkloadSpec(trace="ultrachat",
                            num_requests=CAPACITY_REQUESTS)
        count, gate_size = CAPACITY_PARTS, CAPACITY_GATE_REQUESTS
        capacity = CapacitySpec(slo_tbt_s=SLO_TBT_S, percentile="p95")
    elif name == "sessions-prefix":
        deployment = DeploymentSpec(
            chip="ador", model="llama3-8b", max_batch=32, replicas=4,
            router="session-affinity", kv_budget_bytes=16 * 2.0 ** 30,
            prefix_cache=PrefixCacheSpec(reclaimable_fraction=0.9,
                                         eviction="lru"))
        base = WorkloadSpec(
            arrival="sessions", rate_per_s=SESSION_RATE,
            num_requests=SESSIONS,
            session=SessionConfig(
                mean_turns=6.0, question_median=60.0, question_sigma=0.7,
                answer_median=100.0, answer_sigma=0.6,
                think_time_mean_s=5.0, max_context=4096))
        count, gate_size, capacity = SESSION_PARTS, SESSIONS_GATE, None
    else:
        raise ValueError(f"unknown workload {name!r}; choose from "
                         f"{', '.join(NAMES)}")
    parts = tuple(dataclasses.replace(base, seed=part_seed)
                  for part_seed in part_seeds(seed, count))
    return Workload(name, deployment, parts,
                    dataclasses.replace(parts[0], num_requests=gate_size),
                    capacity)


# --------------------------------------------------------------------- #
# Set-up and the measured call                                           #
# --------------------------------------------------------------------- #

def setup(w: Workload):
    """Everything before the first simulated step of the first part:
    spec resolution, the device model, the engine and a primed arrival
    stream."""
    spec = w.parts[0]
    if w.is_capacity:
        device = CachedDeviceModel(device_model_for(w.deployment.chip_spec()))
        template = PoissonArrivalTemplate(spec.trace_config(),
                                          spec.num_requests, spec.seed)
        return device, get_model(w.deployment.model), template
    engine = facade.build_cluster_engine(w.deployment)
    stream = spec.request_stream()
    stream[0]
    return engine, stream


def call(w: Workload, spec: WorkloadSpec, **kwargs):
    """The measured call on one part: ``simulate()`` or
    ``find_capacity()``."""
    if w.is_capacity:
        return facade.find_capacity(w.deployment, spec, w.capacity, **kwargs)
    return facade.simulate(w.deployment, spec, **kwargs)


# --------------------------------------------------------------------- #
# Scoring a call                                                         #
# --------------------------------------------------------------------- #

@dataclass
class Outcome:
    """What one call on one part produced, as the benchmark scores it."""

    attempted: int
    #: failed + unfinished + unaccounted requests
    failed: int
    #: TTFT of every finished request the simulated QoS is computed over
    ttft: np.ndarray
    #: TBT of those of them that generated at least two tokens
    tbt: np.ndarray
    #: how many of them arrived inside the arrival window and met the
    #: goodput SLO
    slo_met: int
    #: the nominal arrival window: requested arrivals (session starts
    #: for sessions) over their rate, in simulated seconds
    window_s: float
    #: simulated tokens generated by the whole call
    generated_tokens: int
    #: found rate of a capacity search, else ``None``
    capacity_rps: float | None = None
    #: probe outcomes of a capacity search
    probes: tuple = ()


def _qos(finished: list,
         window_s: float) -> tuple[np.ndarray, np.ndarray, int]:
    ttft = np.array([r.ttft for r in finished])
    tbt = np.array([r.tbt for r in finished if r.generated_tokens >= 2])
    met = sum(1 for r in finished if r.arrival_time < window_s
              and r.ttft <= SLO_TTFT_S and r.tbt <= SLO_TBT_S)
    return ttft, tbt, met


def simulate_outcome(report, spec: WorkloadSpec) -> Outcome:
    """Score a ``simulate()`` report and check conservation against the
    request ids the part's arrival stream attempts."""
    ids = [request.request_id for request in spec.iter_requests()]
    result = report.result
    faults = getattr(getattr(report, "cluster", None), "faults", None)
    failed = len(faults.failed) if faults is not None else 0
    accounted = [r.request_id for r in result.finished] \
        + [r.request_id for r in result.unfinished]
    check(len(result.finished) + len(result.unfinished) + failed == len(ids),
          f"conservation: {len(result.finished)} finished + "
          f"{len(result.unfinished)} unfinished + {failed} failed != "
          f"{len(ids)} attempted")
    check(sorted(accounted) == sorted(ids),
          "conservation: finished/unfinished ids differ from the "
          "attempted ids")
    window = spec.num_requests / spec.rate_per_s
    return Outcome(len(ids), len(ids) - len(result.finished),
                   *_qos(result.finished, window), window,
                   result.generated_tokens)


def capacity_outcome(w: Workload, spec: WorkloadSpec, report) -> Outcome:
    """Score a ``find_capacity()`` report.

    The per-request QoS at the found rate comes from one more run of the
    search's own probe simulation at that rate, checked to reproduce the
    report's ``qos_at_max`` exactly.  Attempted requests are all the
    search's simulations submitted; failed are those the found-rate run
    left unfinished; generated tokens are those of the requests each
    probe finished.
    """
    capacity = report.capacity
    rate = capacity.max_requests_per_s
    trace = spec.trace_config()
    count = spec.num_requests
    result, qos = _simulate_rate(
        CachedDeviceModel(device_model_for(w.deployment.chip_spec())),
        get_model(w.deployment.model), trace, rate,
        w.deployment.num_devices, count, spec.seed, MAX_SIM_SECONDS,
        workload=PoissonArrivalTemplate(trace, count, spec.seed))
    check(repr(qos) == repr(capacity.qos_at_max),
          f"capacity: the probe at the found rate {rate!r} req/s did not "
          f"reproduce the report's qos_at_max")
    requests = result.finished + result.unfinished
    check(len(requests) == len({r.request_id for r in requests}) == count,
          f"conservation: found-rate probe left {len(result.finished)} "
          f"finished + {len(result.unfinished)} unfinished of {count}")
    window = count / rate
    return Outcome(capacity.simulations * count,
                   count - len(result.finished),
                   *_qos(result.finished, window), window,
                   sum(round(p.qos.tokens_per_s * p.total_time_s)
                       for p in capacity.probes if p.qos is not None),
                   capacity_rps=rate, probes=capacity.probes)


def check_report(outcome: Outcome, program_qos) -> None:
    """The program's QoS report must match the QoS recomputed from the
    finished requests it reports on."""
    for name, value in (("ttft_p50_s", np.percentile(outcome.ttft, 50)),
                        ("ttft_p99_s", np.percentile(outcome.ttft, 99)),
                        ("tbt_p99_s", np.percentile(outcome.tbt, 99))):
        check(getattr(program_qos, name) == float(value),
              f"report layer: QoS {name} {getattr(program_qos, name)!r} "
              f"!= {float(value)!r} recomputed from the finished requests")


def output(report) -> tuple | str:
    """The exact output of a call, compared across calls."""
    if hasattr(report, "capacity"):
        return repr(report.capacity)
    return fingerprint(report.result)


def score(w: Workload, spec: WorkloadSpec, report):
    """Score the ``report`` of one call on ``spec``; returns the
    :class:`Outcome` and the call's :func:`output`."""
    if w.is_capacity:
        outcome = capacity_outcome(w, spec, report)
    else:
        outcome = simulate_outcome(report, spec)
    check_report(outcome, report.qos)
    return outcome, output(report)


def pooled_qos(outcomes: list[Outcome]) -> tuple[dict, dict]:
    """Simulated QoS over the requests of every part: percentiles of the
    pooled samples, and goodput as SLO-met completions of the requests
    that arrived inside each part's nominal arrival window, per second
    of window, summed over the parts (a failed or unfinished request is
    a miss).  The nominal window, not the last arrival, is the
    denominator: a session workload's last arrival is set by its single
    longest session, which would make goodput swing with the seed."""
    ttft = np.concatenate([o.ttft for o in outcomes])
    tbt = np.concatenate([o.tbt for o in outcomes])
    met = sum(o.slo_met for o in outcomes)
    metrics = {
        "sim_ttft_p50_s": float(np.percentile(ttft, 50)),
        "sim_ttft_p99_s": float(np.percentile(ttft, 99)),
        "sim_tbt_p99_s": float(np.percentile(tbt, 99)),
        "sim_goodput_rps": met / sum(o.window_s for o in outcomes),
    }
    return metrics, {"ttft": int(ttft.size), "tbt": int(tbt.size)}


def capacity_rps(outcomes: list[Outcome]) -> float:
    """Median found rate over the parts' capacity searches."""
    return statistics.median(o.capacity_rps for o in outcomes)


# --------------------------------------------------------------------- #
# Correctness gate (untimed)                                             #
# --------------------------------------------------------------------- #

def fingerprint(result) -> tuple:
    """Exact per-request timeline of a ``SimulationResult``."""
    rows = sorted((r.request_id, r.arrival_time, r.first_token_time,
                   r.last_token_time, r.finish_time, r.generated_tokens)
                  for r in result.finished)
    unfinished = sorted(r.request_id for r in result.unfinished)
    return (tuple(rows), tuple(unfinished), result.total_time_s,
            result.iterations, result.decode_steps)


def gate(w: Workload) -> list[str]:
    """Fast path == reference on the reduced slice, and for the capacity
    workload the found rate == the sequential reference search.
    Returns one line per check passed; raises :class:`GateFailure`."""
    spec = w.gate_workload
    fast = call(w, spec)
    reference = call(w, spec, sim_cache=False)
    if not w.is_capacity:
        check(fingerprint(fast.result) == fingerprint(reference.result),
              f"fast path != reference (sim_cache=False) on the "
              f"{spec.num_requests}-request slice")
        return [f"fast == reference on a "
                f"{len(fast.result.finished)}-request slice"]
    check(repr(fast.capacity) == repr(reference.capacity),
          "fast path != reference (sim_cache=False) on the "
          f"{spec.num_requests}-request/probe capacity search")
    cap = w.capacity
    oracle = reference_capacity_search(
        CachedDeviceModel(device_model_for(w.deployment.chip_spec())),
        get_model(w.deployment.model), spec.trace_config(),
        slo_tbt_s=cap.slo_tbt_s, slo_ttft_s=cap.slo_ttft_s,
        num_devices=w.deployment.num_devices,
        request_count=spec.num_requests, seed=spec.seed,
        percentile=cap.percentile,
        rate_bounds=(cap.rate_low, cap.rate_high),
        iterations=cap.iterations)
    check(fast.max_requests_per_s == oracle.max_requests_per_s,
          f"capacity_rps {fast.max_requests_per_s!r} != reference search "
          f"{oracle.max_requests_per_s!r} at {spec.num_requests} "
          f"requests/probe")
    return [f"fast == reference on a {spec.num_requests}-request/probe "
            f"search",
            f"capacity_rps == reference_capacity_search "
            f"({fast.max_requests_per_s:g} req/s) at {spec.num_requests} "
            f"requests/probe"]
