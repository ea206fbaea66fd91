"""The exact cluster path and the long-run progress heartbeat.

Every deployment reaches the cluster engine through
:func:`build_cluster_engine`, which must match a directly constructed
:class:`ClusterEngine` bit for bit.  Plus :class:`ProgressReporter`
throttling with an injected clock, and where the heartbeat is refused.
"""

import io

import pytest

from repro.api import (
    DeploymentSpec,
    Experiment,
    WorkloadSpec,
    run_experiment,
    simulate,
)
from repro.api.facade import _device_for, build_cluster_engine
from repro.cluster.engine import ClusterEngine
from repro.models.zoo import get_model
from repro.perf.scale import ProgressReporter

DEPLOYMENT = DeploymentSpec(chip="ador", model="llama3-8b", replicas=4,
                            max_batch=8)
WORKLOAD = WorkloadSpec(rate_per_s=20.0, num_requests=48, seed=11)


def request_fingerprints(requests):
    return sorted(
        (r.request_id, r.generated_tokens, r.prefilled_tokens,
         r.first_token_time, r.last_token_time, r.finish_time,
         r.state.value)
        for r in requests)


def cluster_fingerprint(result):
    return tuple(
        (rep.total_time_s, rep.iterations, rep.decode_steps,
         request_fingerprints(rep.finished),
         request_fingerprints(rep.unfinished))
        for rep in result.replica_results)


# --------------------------------------------------------------------- #
# One build path                                                         #
# --------------------------------------------------------------------- #

def test_build_cluster_engine_matches_direct_engine():
    """``replicas=N`` folds into a one-group fleet; the engine it builds
    must equal the single-spec construction, bit for bit."""
    direct = ClusterEngine(
        _device_for(DEPLOYMENT.chip_spec(), True, 1),
        get_model(DEPLOYMENT.model), DEPLOYMENT.scheduler_limits(),
        num_devices=DEPLOYMENT.num_devices,
        replicas=DEPLOYMENT.replicas, router=DEPLOYMENT.router)
    built = build_cluster_engine(DEPLOYMENT)
    reference = direct.run(WORKLOAD.build_requests())
    result = built.run(WORKLOAD.build_requests())
    assert cluster_fingerprint(result) == cluster_fingerprint(reference)
    assert result.merged.total_time_s == reference.merged.total_time_s
    assert result.groups is None


# --------------------------------------------------------------------- #
# Progress heartbeat                                                     #
# --------------------------------------------------------------------- #

def test_progress_reporter_throttles_on_injected_clock():
    ticks = iter([0.0, 1.0, 4.9, 5.0, 5.1, 12.0])
    out = io.StringIO()
    reporter = ProgressReporter(interval_s=5.0, label="test", stream=out,
                                clock=lambda: next(ticks))
    for sim_time, done in [(1.0, 0), (2.0, 3), (3.0, 5), (4.0, 7),
                           (5.0, 9), (6.0, 11)]:
        reporter(sim_time, done)
    lines = out.getvalue().splitlines()
    # first call always prints; then only the >= 5s gaps (t=5.0, t=12.0)
    assert lines == [
        "[test] sim_time=1.0s requests_done=0",
        "[test] sim_time=4.0s requests_done=7",
        "[test] sim_time=6.0s requests_done=11",
    ]
    assert reporter.emitted == 3


def test_progress_reporter_zero_interval_prints_every_call():
    clock = iter(float(i) for i in range(10))
    out = io.StringIO()
    reporter = ProgressReporter(interval_s=0.0, stream=out,
                                clock=lambda: next(clock))
    for i in range(4):
        reporter(float(i), i)
    assert reporter.emitted == 4


def test_progress_reporter_rejects_negative_interval():
    with pytest.raises(ValueError, match="non-negative"):
        ProgressReporter(interval_s=-1.0)


def test_simulate_with_progress_heartbeat():
    out = io.StringIO()
    reporter = ProgressReporter(interval_s=0.0, label="hb", stream=out)
    simulate(DEPLOYMENT, WORKLOAD, progress=reporter)
    assert reporter.emitted > 0
    assert "[hb] sim_time=" in out.getvalue()


def test_capacity_experiment_rejects_progress():
    from repro.api.specs import CapacitySpec
    experiment = Experiment(name="cap",
                            deployment=DeploymentSpec(max_batch=8),
                            workload=WORKLOAD,
                            capacity=CapacitySpec())
    with pytest.raises(ValueError, match="capacity experiment"):
        run_experiment(experiment, progress=ProgressReporter())


def test_progress_requires_continuous_batching():
    deployment = DeploymentSpec(chip="ador", model="llama3-8b",
                                batching="static")
    with pytest.raises(ValueError, match="continuous"):
        simulate(deployment, WORKLOAD, progress=ProgressReporter())
