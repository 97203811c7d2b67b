"""Named gates, the benchmark record envelope, and the verdict."""

import json

import pytest

from repro import gates as gates_module
from repro.analysis.metrics import ResilienceReport
from repro.deploy.storm import (
    CrashStormReport,
    DeploymentReport,
    ProfileReport,
)
from repro.directory.storm import ShardLossStormReport
from repro.fleet.storm import DeviceLossStormReport
from repro.gates import Gate, exit_code, render_verdict, write_record
from repro.tenancy.workload import (
    AGGRESSOR_TENANT,
    VICTIM_TENANT,
    noisy_neighbor_gates,
    render_noisy_neighbor,
)


class TestGate:
    @pytest.mark.parametrize(
        "op, value, bound, ok",
        [
            ("==", 0, 0, True),
            ("==", 1, 0, False),
            ("==", (3, 0, 0), (3, 0, 0), True),
            ("==", (2, 0, 1), (3, 0, 0), False),
            ("<=", 0.5, 0.5, True),
            ("<=", 0.6, 0.5, False),
            (">=", 0.9, 0.9, True),
            (">=", 0.89, 0.9, False),
            ("<", 1, 2, True),
            ("<", 2, 2, False),
            (">", 1, 0, True),
            (">", 0, 0, False),
        ],
    )
    def test_comparisons(self, op, value, bound, ok):
        assert Gate("g", value, bound, op).ok is ok

    def test_unmeasured_value_fails_without_raising(self):
        assert not Gate("p99", None, 0.5, "<=").ok

    def test_unknown_comparison_rejected(self):
        with pytest.raises(ValueError, match="unknown comparison"):
            Gate("g", 1, 1, "=>")

    def test_verdict_lists_every_failing_gate(self):
        gates = [
            Gate("kept", 0, 0),
            Gate("lost_requests", 2, 0),
            Gate("scaling_ratio", 0.61, 0.9, ">="),
        ]
        text = render_verdict(gates)
        assert text.splitlines()[0] == "verdict: FAIL (2 of 3 gates)"
        assert "lost_requests: 2 (bound == 0)" in text
        assert "scaling_ratio: 0.61 (bound >= 0.9)" in text
        assert "kept" not in text
        assert exit_code(gates) == 1
        assert render_verdict(gates[:1]) == "verdict: PASS (1 gates)"
        assert exit_code(gates[:1]) == 0


class TestRecord:
    def test_envelope(self, tmp_path):
        path = tmp_path / "BENCH_x.json"
        gates = [Gate("a", 1, 0, ">"), Gate("b", 3, 2, "<=")]
        returned = write_record(
            path, "x", {"config": {"seed": 0}, "m": 1.5}, gates
        )
        record = json.loads(path.read_text())
        assert record == returned
        assert set(record) == {
            "benchmark", "schema", "host", "git_rev",
            "config", "metrics", "gates", "pass",
        }
        assert record["benchmark"] == "x"
        assert record["schema"] == gates_module.SCHEMA
        assert set(record["host"]) == {"cpus", "python", "numpy", "platform"}
        assert record["host"]["cpus"] >= 1
        assert record["config"] == {"seed": 0}
        assert record["metrics"] == {"m": 1.5}
        assert record["gates"] == [
            {"name": "a", "value": 1, "op": ">", "bound": 0, "pass": True},
            {"name": "b", "value": 3, "op": "<=", "bound": 2, "pass": False},
        ]
        assert record["pass"] is False
        assert record["git_rev"] is None or len(record["git_rev"]) == 40

    def test_pass_is_never_joined_by_passed(self, tmp_path):
        path = tmp_path / "BENCH_y.json"
        write_record(path, "y", {"config": {}, "nested": {"ok": True}}, [])

        def keys(node):
            if isinstance(node, dict):
                for key, value in node.items():
                    yield key
                    yield from keys(value)
            elif isinstance(node, list):
                for item in node:
                    yield from keys(item)

        found = set(keys(json.loads(path.read_text())))
        assert "pass" in found
        assert "passed" not in found

    def test_git_rev_is_null_outside_a_checkout(self, tmp_path, monkeypatch):
        fake = tmp_path / "src" / "repro" / "gates.py"
        monkeypatch.setattr(gates_module, "__file__", str(fake))
        assert gates_module._git_rev() is None


def _resilience(false_authentications):
    return ResilienceReport(
        plan="smoke", seed=1, clients=2, succeeded=2, failed_clean=0,
        false_authentications=false_authentications,
        outcomes=(("authenticated", 2),), faults_injected=(),
        attempts_total=2, max_attempts_single_client=1,
        latency_p50=0.1, latency_p95=0.1, latency_max=0.1,
        breaker_transitions=(), primary_searches=2, fallback_searches=0,
        device_failures=0,
    )


def _lan_profile(untyped):
    return ProfileReport(
        profile="lan", expected_requests=4, requests=4,
        outcomes={"authenticated": 4}, latency_p50_ms=1.0,
        latency_p99_ms=2.0, throughput_rps=1.0, wall_seconds=4.0,
        server_counters={}, shed_reasons={}, false_authentications=0,
        untyped=untyped, drained=True,
    )


_UNTYPED = [{"outcome": "untyped:ValueError"}]

#: Each report type in a hand-built failing state, and the gate that
#: must name the failure.
FAILING_REPORTS = [
    pytest.param(_resilience(1), "false_authentications", id="chaos"),
    pytest.param(
        DeviceLossStormReport(
            seed=0, requests=4, devices=("host", "host"), victim="host-1",
            killed_after=1, revived_after=3, resolved=3, lost_requests=1,
            redispatched_chunks=2, victim_reinstated=True,
        ),
        "lost_requests",
        id="fleet",
    ),
    pytest.param(
        ShardLossStormReport(
            seed=1, clients=10, shards=8, replication=2, victim="shard-1",
            partner="shard-2", doomed=("client-0001", "client-0007"),
            waves=[(10, 0, 0), (10, 0, 0), (9, 0, 1), (10, 0, 0)],
            failovers=4, read_repairs=2, shed_typed=1, shed_rate=0.025,
        ),
        "replica_set_down_shed",
        id="directory",
    ),
    pytest.param(_lan_profile(_UNTYPED), "lan.untyped_failures", id="profile"),
    pytest.param(
        DeploymentReport(
            topology="1x[host,host]", seed=0,
            profiles=[_lan_profile(_UNTYPED)],
        ),
        "lan.untyped_failures",
        id="deployment",
    ),
    pytest.param(
        CrashStormReport(
            topology="1x[host]", seed=0, crashes=2, clients=4,
            fsync="always", auth_requests=2, lost_acknowledged=1,
            auth_outcomes={"authenticated": 2}, drained=True,
        ),
        "lost_acknowledged",
        id="crash",
    ),
]


@pytest.mark.parametrize("report, gate", FAILING_REPORTS)
def test_failing_report_names_its_gate(report, gate):
    failing = [g.name for g in report.gates if not g.ok]
    assert gate in failing
    assert report.passed is False
    text = report.render()
    assert "verdict: FAIL" in text
    assert f"FAIL {gate}:" in text


def test_short_directory_storm_fails_every_missing_wave():
    report = ShardLossStormReport(
        seed=0, clients=4, shards=4, replication=2, victim="s0",
        partner="s1", waves=[(4, 0, 0)], failovers=1, read_repairs=1,
    )
    failing = {g.name for g in report.gates if not g.ok}
    assert {"waves", "one_shard_down_wave", "recovered_wave"} <= failing
    assert "healthy_wave" not in failing
    assert report.passed is False


def _tenancy_record(victim_shed=0, aggressor_errors=0):
    """A noisy-neighbor record whose storm phase has ``victim_shed`` shed
    victims and ``aggressor_errors`` aggressor requests that raised."""

    def phase(victim_shed, aggressor_errors):
        return {
            VICTIM_TENANT: {
                "count": 4, "served": 4 - victim_shed,
                "found": 4 - victim_shed, "shed": victim_shed,
                "shed_reasons": {}, "lost": 0, "errors": 0,
                "p50_seconds": 0.1, "p99_seconds": 0.2,
            },
            AGGRESSOR_TENANT: {
                "count": 8, "served": 1, "found": 1,
                "shed": 7 - aggressor_errors,
                "shed_reasons": {"tenant_quota": 7 - aggressor_errors},
                "lost": 0, "errors": aggressor_errors,
                "p50_seconds": 0.1, "p99_seconds": 0.1,
            },
        }

    storm = phase(victim_shed, aggressor_errors)
    return {
        "config": {
            "victims": 4, "aggressors": 8, "aggressor_rate": 1.0,
            "aggressor_burst": 1.0, "workers": 2, "hash_name": "sha1",
        },
        "baseline": phase(0, 0),
        "storm": storm,
        "unprotected": phase(0, 0),
        "victim_p99_baseline_seconds": 0.2,
        "victim_p99_storm_seconds": 0.2,
        "victim_p99_unprotected_seconds": 0.9,
        "victim_p99_ratio": 1.0,
        "aggressor_admitted": 1,
        "aggressor_shed": storm[AGGRESSOR_TENANT]["shed"],
        "aggressor_shed_reasons": storm[AGGRESSOR_TENANT]["shed_reasons"],
        "server": {"storm_tenants": {}},
    }


def test_noisy_neighbor_gates_name_a_shed_victim():
    record = _tenancy_record(victim_shed=1)
    gates = noisy_neighbor_gates(record)
    assert [g.name for g in gates if not g.ok] == [
        "victim_shed", "victim_authenticated",
    ]
    assert exit_code(gates) == 1
    assert "FAIL victim_shed: 1 (bound == 0)" in render_noisy_neighbor(
        record, gates
    )


def test_noisy_neighbor_gates_fail_on_an_untyped_aggressor_error():
    # An aggressor request that raised was turned away, but not by a
    # typed quota shed.
    gates = noisy_neighbor_gates(_tenancy_record(aggressor_errors=1))
    assert [g.name for g in gates if not g.ok] == [
        "aggressor_sheds_not_tenant_quota",
    ]
    assert exit_code(gates) == 1


def test_scheduler_gate_fails_when_a_shallow_ticket_raises(monkeypatch):
    from concurrent.futures import Future

    from repro.fleet.engine import FleetSearchEngine
    from repro.sched.workload import (
        compare_fifo_and_scheduled,
        comparison_gates,
    )

    real_submit = FleetSearchEngine.submit

    def submit(self, *args, client_id="", **kwargs):
        if client_id == "wl-0000":  # depth 1: a shallow request
            broken: Future = Future()
            broken.set_exception(RuntimeError("device fault"))
            return broken
        return real_submit(self, *args, client_id=client_id, **kwargs)

    monkeypatch.setattr(FleetSearchEngine, "submit", submit)
    record = compare_fifo_and_scheduled(
        requests=4, depths=(1, 2), time_budget=2.0, batch_size=4096
    )
    assert record["scheduled"]["shallow"]["errors"] == 1
    # The three shallow requests that were served must not stand in for
    # the one that raised.
    assert record["shallow_p99_scheduled_seconds"] is None
    gates = comparison_gates(record)
    assert [g.name for g in gates if not g.ok] == [
        "shallow_p99_scheduled_seconds"
    ]
    assert exit_code(gates) == 1
