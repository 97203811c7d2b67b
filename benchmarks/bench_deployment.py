"""Deployment benchmark — end-to-end latency over real processes.

Everything else in ``benchmarks/`` measures the serving stack inside one
process. This bench deploys it: real ``repro.deploy.server`` and
``repro.deploy.loadgen`` OS processes over real TCP, one run per WAN
profile (``lan``, ``wan``, ``lossy-wan``), each driving the same
deterministic heavy-tailed/diurnal trace. Reported per profile:
end-to-end p50/p99 (client-observed wall clock, including WAN emulation
and retries), completed-request throughput, and the server-side
shed/redispatch/failover counters scraped over the admin metrics frame.

Gates (:attr:`repro.deploy.storm.ProfileReport.gates`, exit 1 on any):

* zero false authentications on every profile;
* zero untyped client-observed failures;
* every server drains and exits 0 under SIGTERM;
* the ``lan`` profile authenticates 100% of requests.

The ``BENCH_deployment.json`` record comes from the CLI::

    PYTHONPATH=src python -m repro deploy --storm --output BENCH_deployment.json

This file is the reduced-scale pytest entry, with the usual report
plumbing.
"""

from __future__ import annotations

from repro.deploy.storm import run_deployment_storm
from repro.deploy.topology import TopologySpec


def test_deployment_lan_storm(report, tmp_path):
    """Reduced-scale pytest entry: lan-only, real processes end to end."""
    storm = run_deployment_storm(
        TopologySpec(servers=1, clients=4, time_budget=3.0),
        profiles=("lan",),
        requests=6,
        duration_seconds=1.5,
        num_loadgens=1,
        scratch_dir=tmp_path,
    )
    report("deployment", storm.render())
    assert storm.passed, storm.render()
    lan = storm.profiles[0]
    assert lan.false_authentications == 0
    assert lan.outcomes.get("authenticated", 0) == lan.requests
    assert lan.drained
