"""The one cluster event loop: causality, conservation, fleet equivalence.

Regression tests for the routing-instant defect of elastic and faulty
fleets — a retried or parked request keeps its original arrival time,
and a replica used to start it at that stale instant, i.e. before the
crash that lost it or before the replica even existed — plus the loud
conservation check every run now ends with, and the equivalence the
single loop relies on: a fixed fleet is an elastic fleet whose policy
never acts.
"""

import pytest

from repro.api import AutoscaleSpec, DeploymentSpec, FaultSpec, WorkloadSpec
from repro.api.facade import build_cluster_engine
from repro.cluster.engine import ReplicaSim

ELASTIC = AutoscaleSpec(policy="queue-depth", min_replicas=1,
                        max_replicas=5)


@pytest.fixture
def crash_log(monkeypatch):
    """Every (request, crash instant) pair a crash wiped, in order."""
    log = []
    original = ReplicaSim.crash_reset

    def crash_reset(self, when, restart_at):
        lost = original(self, when, restart_at)
        log.extend((request, when) for request in lost)
        return lost

    monkeypatch.setattr(ReplicaSim, "crash_reset", crash_reset)
    return log


def run_faulty(seed, autoscale=None, replicas=4,
               router="least-outstanding", max_retries=2,
               horizon=120.0):
    deployment = DeploymentSpec(
        replicas=replicas, router=router, max_batch=16,
        autoscale=autoscale,
        faults=FaultSpec(seed=seed, crash_mtbf_s=3.0,
                         max_retries=max_retries))
    workload = WorkloadSpec(rate_per_s=30, num_requests=150, seed=seed)
    return build_cluster_engine(deployment).run(
        workload.build_requests(), max_sim_seconds=horizon)


def accounted(result):
    return (len(result.merged.finished) + len(result.merged.unfinished)
            + result.faults.failed_count)


def served_before_loss(log):
    """Requests whose final first token predates the last crash that
    wiped them — work served before it was routed."""
    last_loss = {}
    for request, when in log:
        last_loss[id(request)] = (request, when)
    return [request for request, when in last_loss.values()
            if request.first_token_time is not None
            and request.first_token_time < when]


class TestRoutingInstantCausality:
    def test_fixed_fleet_retry_starts_after_its_crash(self, crash_log):
        # seed 0, request 73 used to finish with a first token at
        # 14.14 s although the crash that lost it fired at 16.05 s
        result = run_faulty(0)
        assert served_before_loss(crash_log) == []
        losses = [when for request, when in crash_log
                  if request.request_id == 73]
        assert any(abs(when - 16.05) < 0.01 for when in losses)
        every = result.merged.finished + result.merged.unfinished \
            + list(result.faults.failed)
        (request,) = [r for r in every if r.request_id == 73]
        assert request.first_token_time is None \
            or request.first_token_time >= max(losses)
        assert accounted(result) == 150

    @pytest.mark.parametrize("autoscale", [None, ELASTIC],
                             ids=["fixed", "elastic"])
    @pytest.mark.parametrize("seed", range(6))
    def test_no_retry_is_served_in_the_past(self, crash_log, seed,
                                            autoscale):
        result = run_faulty(seed, autoscale=autoscale)
        assert served_before_loss(crash_log) == []
        assert accounted(result) == 150

    def test_elastic_seed9_conserves_every_request(self):
        # used to report 69 finished + 0 unfinished + 13 failed = 82
        result = run_faulty(9, autoscale=ELASTIC)
        assert accounted(result) == 150

    def test_elastic_seed7_conserves_every_request(self):
        # round-robin, no retries, default horizon: used to report
        # 17 finished + 0 unfinished + 114 failed = 131
        result = run_faulty(7, autoscale=ELASTIC, replicas=3,
                            router="round-robin", max_retries=0,
                            horizon=600.0)
        assert accounted(result) == 150
        for replica in result.replica_results:
            for request in replica.finished:
                assert request.first_token_time >= request.arrival_time

    def test_replicas_serve_only_after_they_are_ready(self, monkeypatch):
        # every replica's first completion comes after its ready_at
        fleets = []
        original = ReplicaSim.result

        def result(self):
            fleets.append(self)
            return original(self)

        monkeypatch.setattr(ReplicaSim, "result", result)
        run_faulty(7, autoscale=ELASTIC, replicas=3, router="round-robin",
                   max_retries=0, horizon=600.0)
        for replica in fleets:
            for request in replica.finished:
                assert request.first_token_time >= replica.ready_at


class TestConservationCheck:
    def test_a_lost_request_fails_the_run(self, monkeypatch):
        original = ReplicaSim.crash_reset

        def crash_reset(self, when, restart_at):
            original(self, when, restart_at)
            return []  # the lost requests vanish instead of requeueing

        monkeypatch.setattr(ReplicaSim, "crash_reset", crash_reset)
        with pytest.raises(RuntimeError,
                           match=r"\d+ of the 150 arrived requests"):
            run_faulty(0)


class TestFixedFleetIsPinnedElasticFleet:
    @pytest.mark.parametrize("router", ["round-robin",
                                        "least-outstanding"])
    @pytest.mark.parametrize("seed", range(10))
    def test_same_requests_and_busy_time(self, seed, router):
        workload = WorkloadSpec(rate_per_s=40, num_requests=200, seed=seed)

        def run(autoscale):
            deployment = DeploymentSpec(replicas=4, router=router,
                                        max_batch=16, autoscale=autoscale)
            return build_cluster_engine(deployment).run(
                workload.build_requests())

        fixed = run(None)
        pinned = run(AutoscaleSpec(min_replicas=4, max_replicas=4))
        assert fixed.autoscale is None
        assert pinned.autoscale is not None
        assert pinned.autoscale.events == ()

        def requests(result):
            return sorted((r.request_id, r.first_token_time, r.finish_time,
                           r.generated_tokens)
                          for r in result.merged.finished
                          + result.merged.unfinished)

        assert requests(pinned) == requests(fixed)
        assert [r.busy_time_s for r in pinned.replica_results] \
            == [r.busy_time_s for r in fixed.replica_results]
