"""Recovery benchmark — kill-9 crash-restart storm over real processes.

The durability tentpole's acceptance rig: real ``repro.deploy.server``
processes with WAL-backed enrollment stores are SIGKILLed mid-burst,
restarted under the supervisor's backoff/budget policy, and held to the
crash-consistency contract. Reported per kill-9 round: records replayed
at recovery and the recovery wall time; overall: acknowledged-enrollment
throughput under ``fsync=always`` versus the no-fsync lossy baseline
(the price of durability), restart count, and total backoff slept.

Gates (:attr:`repro.deploy.storm.CrashStormReport.gates`, exit 1 on
any):

* zero acknowledged enrollments lost across all kill-9 rounds;
* zero nonce-reuse tripwire firings (the crypto-safety invariant);
* zero false authentications, and every post-recovery authentication
  succeeds;
* every surviving server drains and exits 0 under SIGTERM.

The ``BENCH_recovery.json`` record comes from the CLI::

    PYTHONPATH=src python -m repro deploy --storm --crash --engine fifo \\
        --output BENCH_recovery.json

This file is the reduced-scale pytest entry, with the usual report
plumbing.
"""

from __future__ import annotations

from repro.deploy.storm import run_crash_storm
from repro.deploy.supervisor import RestartPolicy
from repro.deploy.topology import TopologySpec


def test_recovery_crash_storm(report, tmp_path):
    """Reduced-scale pytest entry: 2 kill-9 rounds, real processes."""
    storm = run_crash_storm(
        TopologySpec(
            servers=1,
            engine="fifo",
            wan_profile="lan",
            clients=4,
            durability="always",
        ),
        crashes=2,
        auth_requests=2,
        restart_policy=RestartPolicy(max_restarts=6, seed=0),
        scratch_dir=tmp_path,
    )
    report("recovery", storm.render())
    assert storm.passed, storm.render()
    assert storm.lost_acknowledged == 0
    assert storm.nonce_reuse_trips == 0
    assert storm.false_authentications == 0
    assert all(r.recovered_records > 0 for r in storm.rounds)
