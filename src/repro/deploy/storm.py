"""One-command deployment storms.

:func:`run_deployment_storm` is the whole pipeline: for each WAN profile
it stands a topology up as real OS processes (N servers announcing
their ephemeral ports, M load generators replaying their trace slices
over real TCP), waits for the load to drain, scrapes every server's
:class:`~repro.net.concurrent.ServerMetrics` over the admin metrics
frame, SIGTERMs the deployment, and verifies the teardown was *clean* —
every server exits 0 having printed ``DEPLOY-DRAINED``.

The acceptance gates are deliberately blunt:

* zero false authentications on every profile (the server-side tripwire
  re-hashes each found seed against the submitted digest);
* zero untyped failures — every client-observed error must map to a
  typed bucket (``shed:*``, ``dropped``, ``corrupt``, ``busy``, ...);
* every server drains and exits 0 under SIGTERM;
* the ``lan`` profile authenticates 100% of requests.

Results land in ``BENCH_deployment.json``: per-profile end-to-end
p50/p99, throughput, and shed/redispatch/failover counters.
"""

from __future__ import annotations

import json
import os
import re
import sys
import time
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

from repro.deploy.loadgen import spec_to_json
from repro.deploy.supervisor import (
    ProcessDied,
    ProcessSupervisor,
    RestartPolicy,
)
from repro.deploy.topology import TopologySpec
from repro.gates import Gate, render_verdict, write_record
from repro.net.errors import TransportError
from repro.net.sockets import RemoteCAServer, SocketTransport

__all__ = [
    "ProfileReport",
    "DeploymentReport",
    "CrashRound",
    "CrashStormReport",
    "run_deployment_storm",
    "run_crash_storm",
    "DEFAULT_PROFILES",
]

DEFAULT_PROFILES = ("lan", "wan", "lossy-wan")
_READY_REGEX = r"DEPLOY-READY (\S+) (\d+)"
_RECOVERED_REGEX = re.compile(r"DEPLOY-RECOVERED (\d+) ([0-9.]+)")


@dataclass
class ProfileReport:
    """Everything measured about one profile's deployment."""

    profile: str
    expected_requests: int
    requests: int
    outcomes: dict[str, int]
    latency_p50_ms: float
    latency_p99_ms: float
    throughput_rps: float
    wall_seconds: float
    server_counters: dict[str, float]
    shed_reasons: dict[str, int]
    false_authentications: int
    untyped: list[dict] = field(default_factory=list)
    server_exits: dict[str, int | None] = field(default_factory=dict)
    drained: bool = False

    @property
    def gates(self) -> list[Gate]:
        """This profile's acceptance gates, named ``<profile>.<gate>``."""
        gates = [
            Gate("false_authentications", self.false_authentications, 0),
            # Every client-observed error maps to a typed bucket.
            Gate("untyped_failures", len(self.untyped), 0),
            # Every server drained and exited 0 under SIGTERM.
            Gate("drained", self.drained, True),
            Gate("outcomes_recorded", self.requests, self.expected_requests),
        ]
        if self.profile == "lan":
            gates.append(
                Gate(
                    "authenticated",
                    self.outcomes.get("authenticated", 0),
                    self.requests,
                )
            )
        return [replace(g, name=f"{self.profile}.{g.name}") for g in gates]

    @property
    def passed(self) -> bool:
        return all(gate.ok for gate in self.gates)

    def render(self) -> str:
        outcomes = ", ".join(f"{k}={v}" for k, v in self.outcomes.items())
        return (
            f"[{self.profile}] {outcomes}\n"
            f"  p50={self.latency_p50_ms:.1f}ms "
            f"p99={self.latency_p99_ms:.1f}ms "
            f"throughput={self.throughput_rps:.2f}req/s "
            f"false_auths={self.false_authentications} "
            f"drained={self.drained}\n"
            + render_verdict(self.gates)
        )


@dataclass
class DeploymentReport:
    """A full storm: one ProfileReport per WAN profile."""

    topology: str
    seed: int
    profiles: list[ProfileReport]

    @property
    def gates(self) -> list[Gate]:
        return [gate for p in self.profiles for gate in p.gates]

    @property
    def passed(self) -> bool:
        return all(gate.ok for gate in self.gates)

    def render(self) -> str:
        return "\n".join(p.render() for p in self.profiles)


def _percentile(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
    return ordered[int(rank)]


def _child_env() -> dict[str, str]:
    """Children must import repro the same way this process does."""
    import repro

    src = str(Path(repro.__file__).resolve().parent.parent)
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src if not existing else src + os.pathsep + existing
    return env


def _scrape_metrics(host: str, port: int, include_tenants: bool):
    transport = SocketTransport(host, port)
    try:
        return RemoteCAServer(transport).fetch_metrics(
            include_tenants=include_tenants
        )
    finally:
        transport.close()


def _merge_counters(snapshots) -> dict[str, float]:
    merged: dict[str, float] = {}
    for snapshot in snapshots:
        for key, value in snapshot.items():
            merged[key] = merged.get(key, 0) + value
    return merged


def run_profile(
    topology: TopologySpec,
    seed: int,
    requests: int,
    duration_seconds: float,
    num_loadgens: int,
    time_scale: float,
    scratch_dir: Path,
    log=None,
) -> ProfileReport:
    """Stand up, drive, scrape, and tear down one profile's deployment."""
    say = log if log is not None else (lambda _msg: None)
    spec_json = spec_to_json(topology)
    profile = topology.wan_profile
    scratch_dir.mkdir(parents=True, exist_ok=True)
    env = _child_env()
    started = time.monotonic()

    with ProcessSupervisor(grace_seconds=30.0) as supervisor:
        addresses: list[tuple[str, int]] = []
        for index in range(topology.servers):
            managed = supervisor.spawn(
                f"server-{index}",
                [
                    sys.executable,
                    "-m",
                    "repro.deploy.server",
                    "--spec",
                    spec_json,
                    "--seed",
                    str(seed),
                    "--port",
                    "0",
                ],
                env=env,
                ready_regex=_READY_REGEX,
            )
            match = managed.ready_match
            assert match is not None
            addresses.append((match.group(1), int(match.group(2))))
        say(
            f"[{profile}] {topology.servers} server(s) ready at "
            + ", ".join(f"{h}:{p}" for h, p in addresses)
        )

        output_paths: list[Path] = []
        for index in range(num_loadgens):
            output = scratch_dir / f"loadgen-{profile}-{index}.json"
            output_paths.append(output)
            argv = [
                sys.executable,
                "-m",
                "repro.deploy.loadgen",
                "--spec",
                spec_json,
                "--seed",
                str(seed),
                "--requests",
                str(requests),
                "--duration",
                str(duration_seconds),
                "--loadgen-index",
                str(index),
                "--num-loadgens",
                str(num_loadgens),
                "--time-scale",
                str(time_scale),
                "--output",
                str(output),
            ]
            for host, port in addresses:
                argv.extend(["--server", f"{host}:{port}"])
            supervisor.spawn(f"loadgen-{index}", argv, env=env)

        # Health-check the servers while the load drains; a dead server
        # is a storm failure, not a mystery of missing replies.
        loadgen_deadline = time.monotonic() + max(
            120.0, duration_seconds * time_scale * 4 + 120.0
        )
        for index in range(num_loadgens):
            supervisor.ensure_alive(
                *(f"server-{i}" for i in range(topology.servers))
            )
            remaining = max(1.0, loadgen_deadline - time.monotonic())
            code = supervisor.wait(f"loadgen-{index}", timeout=remaining)
            if code != 0:
                raise ProcessDied(
                    f"loadgen-{index}",
                    code,
                    supervisor.output_of(f"loadgen-{index}"),
                )
        say(f"[{profile}] load drained; scraping server metrics")

        snapshots = [
            _scrape_metrics(host, port, bool(topology.tenants))
            for host, port in addresses
        ]
        server_exits = supervisor.teardown()
        drained = all(
            server_exits.get(f"server-{i}") == 0
            and any(
                "DEPLOY-DRAINED" in line
                for line in supervisor.output_of(f"server-{i}")
            )
            for i in range(topology.servers)
        )

    wall = time.monotonic() - started
    records: list[dict] = []
    for path in output_paths:
        with open(path, encoding="utf-8") as handle:
            records.extend(json.load(handle)["records"])
    outcomes: dict[str, int] = {}
    for record in records:
        outcomes[record["outcome"]] = outcomes.get(record["outcome"], 0) + 1
    untyped = [
        r for r in records if r["outcome"].startswith(("untyped:", "retries-exhausted:untyped:"))
    ]
    completed = [
        r["latency_seconds"]
        for r in records
        if r["outcome"] == "authenticated"
    ]
    counters = _merge_counters(s.counters for s in snapshots)
    shed_reasons = _merge_counters(s.shed_reasons for s in snapshots)
    false_auths = sum(s.false_authentications for s in snapshots)

    return ProfileReport(
        profile=profile,
        expected_requests=requests,
        requests=len(records),
        outcomes=dict(sorted(outcomes.items())),
        latency_p50_ms=_percentile(completed, 0.50) * 1000.0,
        latency_p99_ms=_percentile(completed, 0.99) * 1000.0,
        throughput_rps=(len(completed) / wall) if wall > 0 else 0.0,
        wall_seconds=wall,
        server_counters=counters,
        shed_reasons={k: int(v) for k, v in shed_reasons.items()},
        false_authentications=false_auths,
        untyped=untyped,
        server_exits=server_exits,
        drained=drained,
    )


def run_deployment_storm(
    topology: TopologySpec | None = None,
    profiles: tuple[str, ...] = DEFAULT_PROFILES,
    seed: int = 0,
    requests: int = 36,
    duration_seconds: float = 6.0,
    num_loadgens: int = 2,
    time_scale: float = 1.0,
    scratch_dir: str | Path | None = None,
    output_path: str | Path | None = None,
    log=None,
) -> DeploymentReport:
    """Run one topology under each profile; optionally write the bench.

    ``scratch_dir`` holds the per-loadgen result JSONs (defaults to
    ``.deploy-scratch`` under the current directory); ``output_path``
    writes the aggregated ``BENCH_deployment.json`` document.
    """
    base = topology if topology is not None else TopologySpec()
    scratch = Path(scratch_dir) if scratch_dir else Path(".deploy-scratch")
    reports = [
        run_profile(
            base.with_profile(name),
            seed=seed,
            requests=requests,
            duration_seconds=duration_seconds,
            num_loadgens=num_loadgens,
            time_scale=time_scale,
            scratch_dir=scratch,
            log=log,
        )
        for name in profiles
    ]
    deployment = DeploymentReport(
        topology=base.describe(), seed=seed, profiles=reports
    )
    if output_path is not None:
        config = {
            "topology": deployment.topology,
            "seed": seed,
            "profiles": list(profiles),
            "requests": requests,
            "duration_seconds": duration_seconds,
            "num_loadgens": num_loadgens,
            "time_scale": time_scale,
        }
        record = {"config": config, "profiles": [asdict(p) for p in reports]}
        write_record(output_path, "deployment", record, deployment.gates)
    return deployment


# -- kill-9 crash-restart storm -------------------------------------------


@dataclass
class CrashRound:
    """One kill-9 / restart cycle against one victim server."""

    round_index: int
    victim: str
    acked_before_kill: int
    refused_during_outage: int
    recovered_records: int
    recovery_seconds: float
    lost_acknowledged: int
    reenrolled: int


@dataclass
class CrashStormReport:
    """Everything the crash-restart storm measured and gated on."""

    topology: str
    seed: int
    crashes: int
    clients: int
    fsync: str
    auth_requests: int
    rounds: list[CrashRound] = field(default_factory=list)
    acknowledged_total: int = 0
    lost_acknowledged: int = 0
    refused_after_restart: int = 0
    nonce_reuse_trips: int = 0
    false_authentications: int = 0
    auth_outcomes: dict[str, int] = field(default_factory=dict)
    restarts: int = 0
    backoff_seconds: float = 0.0
    durable_enroll_rps: float = 0.0
    lossy_enroll_rps: float = 0.0
    durability_overhead_pct: float = 0.0
    server_exits: dict[str, int | None] = field(default_factory=dict)
    drained: bool = False

    @property
    def gates(self) -> list[Gate]:
        """The crash-consistency contract, one named gate each."""
        return [
            Gate("lost_acknowledged", self.lost_acknowledged, 0),
            # A restarted server takes enrollments again at once.
            Gate("refused_after_restart", self.refused_after_restart, 0),
            Gate("nonce_reuse_trips", self.nonce_reuse_trips, 0),
            Gate("false_authentications", self.false_authentications, 0),
            Gate(
                "post_recovery_authenticated",
                self.auth_outcomes.get("authenticated", 0),
                min(self.auth_requests, self.clients),
            ),
            Gate("drained", self.drained, True),
        ]

    @property
    def passed(self) -> bool:
        return all(gate.ok for gate in self.gates)

    def render(self) -> str:
        lines = [
            f"crash storm: {self.crashes} kill-9 round(s), "
            f"{self.acknowledged_total} acked enrollments, "
            f"{self.lost_acknowledged} lost, "
            f"{self.nonce_reuse_trips} nonce-reuse trip(s), "
            f"{self.false_authentications} false auth(s)"
        ]
        for entry in self.rounds:
            lines.append(
                f"  round {entry.round_index}: {entry.victim} recovered "
                f"{entry.recovered_records} record(s) in "
                f"{entry.recovery_seconds * 1000:.1f}ms, "
                f"lost {entry.lost_acknowledged}"
            )
        lines += [
            f"  durable {self.durable_enroll_rps:.1f} enroll/s vs lossy "
            f"{self.lossy_enroll_rps:.1f} enroll/s "
            f"({self.durability_overhead_pct:+.1f}% fsync cost); "
            f"{self.restarts} restart(s), "
            f"{self.backoff_seconds:.2f}s backoff",
            render_verdict(self.gates),
        ]
        return "\n".join(lines)


def _last_recovery_line(lines: list[str]) -> tuple[int, float]:
    """(records, seconds) from the newest DEPLOY-RECOVERED line."""
    for line in reversed(lines):
        match = _RECOVERED_REGEX.search(line)
        if match:
            return int(match.group(1)), float(match.group(2))
    return 0, 0.0


def _enroll_burst(
    remote: RemoteCAServer,
    client_ids: list[str],
    acked: dict[str, int],
    kill_at: int | None = None,
    on_kill=None,
) -> tuple[int, int]:
    """Drive one sequential enrollment burst; optionally kill -9 mid-burst.

    Returns ``(acked, refused)``. An enrollment counts as acknowledged
    only when its reply frame arrived — exactly the set the durability
    gate holds the server to after the crash. Refusals during the
    outage are typed transport failures (connection reset/refused), the
    honest answer for a dead server.
    """
    acked_count = 0
    refused = 0
    for position, client_id in enumerate(client_ids):
        if kill_at is not None and position == kill_at and on_kill is not None:
            on_kill()
            on_kill = None
        try:
            reply = remote.enroll(client_id)
        except TransportError:
            refused += 1
            continue
        acked[client_id] = reply.version
        acked_count += 1
    return acked_count, refused


def _timed_enroll_rate(remote: RemoteCAServer, client_ids: list[str]) -> float:
    """Acknowledged enrollments per second over one sequential burst."""
    started = time.monotonic()
    for client_id in client_ids:
        remote.enroll(client_id)
    wall = time.monotonic() - started
    return len(client_ids) / wall if wall > 0 else 0.0


def _auth_round(
    spec: TopologySpec, seed: int, addresses: list[tuple[str, int]], count: int
) -> dict[str, int]:
    """A few real authentications after recovery — the false-auth probe."""
    import numpy as np

    from repro.deploy.enrollment import build_client_device, tenant_for
    from repro.net.client import NetworkClient
    from repro.reliability.retry import RetryPolicy

    outcomes: dict[str, int] = {}
    for index in range(min(count, spec.clients)):
        host, port = addresses[index % len(addresses)]
        transport = SocketTransport(host, port)
        _cid, device, mask = build_client_device(
            seed, index, spec.num_cells, noise_target_distance=1
        )
        client = NetworkClient(
            device,
            transport,
            reference_mask=mask,
            retry_policy=RetryPolicy(
                max_attempts=4,
                base_backoff_seconds=0.05,
                max_backoff_seconds=0.5,
                jitter_fraction=0.3,
            ),
            rng=np.random.default_rng((seed, index, 0xC2A54)),
            tenant_id=tenant_for(index, spec.tenants),
        )
        try:
            result = client.authenticate(RemoteCAServer(transport))
        except BaseException as exc:  # typed bucket, same as loadgen
            from repro.deploy.loadgen import classify_failure

            key = classify_failure(exc)
        else:
            key = "authenticated" if result.authenticated else (
                "timed-out" if result.timed_out else "denied"
            )
        finally:
            transport.close()
        outcomes[key] = outcomes.get(key, 0) + 1
    return outcomes


def run_crash_storm(
    topology: TopologySpec | None = None,
    seed: int = 0,
    crashes: int = 3,
    auth_requests: int = 4,
    restart_policy: RestartPolicy | None = None,
    scratch_dir: str | Path | None = None,
    output_path: str | Path | None = None,
    log=None,
) -> CrashStormReport:
    """Kill -9 servers mid-enrollment-burst; gate on zero durable loss.

    The storm enrolls the deterministic fleet over real TCP against
    WAL-backed servers, SIGKILLs a victim server halfway through each
    round's re-enrollment burst, restarts it under the supervisor's
    backoff/budget policy, and then holds the recovered server to three
    invariants: every *acknowledged* enrollment survives at its version
    or higher, the nonce-reuse tripwire never fires, and post-recovery
    authentications produce zero false auths. The report also prices
    durability: acknowledged-enrollment throughput under the topology's
    fsync policy versus a no-fsync lossy baseline.
    """
    from repro.deploy.enrollment import client_identity

    say = log if log is not None else (lambda _msg: None)
    base = topology if topology is not None else TopologySpec(
        servers=1, engine="fifo", wan_profile="lan", clients=8
    )
    if not base.durability:
        base = replace(base, durability="always")
    policy = restart_policy if restart_policy is not None else RestartPolicy(
        max_restarts=max(4, 2 * crashes), seed=seed
    )
    scratch = Path(scratch_dir) if scratch_dir else Path(".deploy-scratch")
    scratch.mkdir(parents=True, exist_ok=True)
    spec_json = spec_to_json(base)
    env = _child_env()
    report = CrashStormReport(
        topology=base.describe(),
        seed=seed,
        crashes=crashes,
        clients=base.clients,
        fsync=base.durability,
        auth_requests=auth_requests,
    )

    def spawn(supervisor, name, data_dir, extra_spec_json=None):
        managed = supervisor.spawn(
            name,
            [
                sys.executable,
                "-m",
                "repro.deploy.server",
                "--spec",
                extra_spec_json or spec_json,
                "--seed",
                str(seed),
                "--port",
                "0",
                "--data-dir",
                str(data_dir),
            ],
            env=env,
            ready_regex=_READY_REGEX,
        )
        match = managed.ready_match
        assert match is not None
        return match.group(1), int(match.group(2))

    with ProcessSupervisor(
        grace_seconds=30.0, restart_policy=policy
    ) as supervisor:
        addresses = [
            spawn(supervisor, f"server-{i}", scratch / f"crash-server-{i}")
            for i in range(base.servers)
        ]
        say(f"[crash] {base.servers} durable server(s) ready "
            f"(fsync={base.durability})")

        transports = [SocketTransport(h, p) for h, p in addresses]
        remotes = [RemoteCAServer(t) for t in transports]
        #: client_id -> last acknowledged version, per server index.
        acked: list[dict[str, int]] = [{} for _ in range(base.servers)]

        def slots_of(server_index: int) -> list[str]:
            return [
                client_identity(i)
                for i in range(base.clients)
                if i % base.servers == server_index
            ]

        # Phase 1: a clean timed burst — the durable throughput figure
        # and the acknowledged baseline every later gate measures against.
        started = time.monotonic()
        for index in range(base.servers):
            count, refused = _enroll_burst(
                remotes[index], slots_of(index), acked[index]
            )
            if refused:
                raise ProcessDied(
                    f"server-{index}",
                    None,
                    supervisor.output_of(f"server-{index}"),
                )
        wall = time.monotonic() - started
        report.durable_enroll_rps = base.clients / wall if wall > 0 else 0.0
        say(f"[crash] baseline burst: {base.clients} acked in {wall:.2f}s "
            f"({report.durable_enroll_rps:.1f}/s)")

        # Phase 2: kill -9 a victim mid-burst, restart, verify, repeat.
        for round_index in range(crashes):
            victim_index = round_index % base.servers
            victim = f"server-{victim_index}"
            burst = slots_of(victim_index)
            kill_at = max(1, len(burst) // 2)
            acked_now, refused = _enroll_burst(
                remotes[victim_index],
                burst,
                acked[victim_index],
                kill_at=kill_at,
                on_kill=lambda: supervisor.kill(victim),
            )
            managed = supervisor.restart(victim)
            match = managed.ready_match
            assert match is not None
            addresses[victim_index] = (match.group(1), int(match.group(2)))
            transports[victim_index].close()
            transports[victim_index] = SocketTransport(
                *addresses[victim_index]
            )
            remotes[victim_index] = RemoteCAServer(transports[victim_index])
            recovered, recovery_seconds = _last_recovery_line(
                supervisor.output_of(victim)
            )

            lost = 0
            for client_id, version in sorted(acked[victim_index].items()):
                reply = remotes[victim_index].enroll(client_id, probe=True)
                if reply.version < version:
                    lost += 1
            reenrolled, refused_after = _enroll_burst(
                remotes[victim_index], burst, acked[victim_index]
            )
            report.refused_after_restart += refused_after
            report.rounds.append(
                CrashRound(
                    round_index=round_index,
                    victim=victim,
                    acked_before_kill=acked_now,
                    refused_during_outage=refused,
                    recovered_records=recovered,
                    recovery_seconds=recovery_seconds,
                    lost_acknowledged=lost,
                    reenrolled=reenrolled,
                )
            )
            report.lost_acknowledged += lost
            say(f"[crash] round {round_index}: killed {victim} after "
                f"{acked_now} acks, recovered {recovered} records in "
                f"{recovery_seconds * 1000:.1f}ms, lost {lost}")

        report.acknowledged_total = sum(len(a) for a in acked)
        report.restarts = supervisor.restarts_total
        report.backoff_seconds = supervisor.backoff_seconds_total

        # Phase 3: the recovered deployment must still authenticate
        # honestly — this is what feeds the false-auth tripwire.
        report.auth_outcomes = _auth_round(
            base, seed, addresses, auth_requests
        )
        say(f"[crash] post-recovery auth: {report.auth_outcomes}")

        snapshots = [
            _scrape_metrics(host, port, include_tenants=False)
            for host, port in addresses
        ]
        for transport in transports:
            transport.close()

        # Phase 4: the lossy baseline — same burst, WAL without fsync.
        lossy_spec = replace(base, servers=1, durability="none")
        lossy_host, lossy_port = spawn(
            supervisor,
            "lossy-0",
            scratch / "crash-lossy-0",
            extra_spec_json=spec_to_json(lossy_spec),
        )
        with SocketTransport(lossy_host, lossy_port) as lossy_transport:
            report.lossy_enroll_rps = _timed_enroll_rate(
                RemoteCAServer(lossy_transport),
                [client_identity(i) for i in range(base.clients)],
            )
        if report.lossy_enroll_rps > 0:
            report.durability_overhead_pct = 100.0 * (
                1.0 - report.durable_enroll_rps / report.lossy_enroll_rps
            )
        say(f"[crash] durable {report.durable_enroll_rps:.1f}/s vs lossy "
            f"{report.lossy_enroll_rps:.1f}/s "
            f"({report.durability_overhead_pct:+.1f}% cost)")

        report.server_exits = supervisor.teardown()
        report.drained = all(
            report.server_exits.get(f"server-{i}") == 0
            and any(
                "DEPLOY-DRAINED" in line
                for line in supervisor.output_of(f"server-{i}")
            )
            for i in range(base.servers)
        )

    counters = _merge_counters(s.counters for s in snapshots)
    report.nonce_reuse_trips = int(
        counters.get("durable_nonce_reuse_trips", 0)
    )
    report.false_authentications = sum(
        s.false_authentications for s in snapshots
    )
    if output_path is not None:
        record = asdict(report)
        record["config"] = {
            key: record.pop(key)
            for key in ("topology", "seed", "crashes", "clients", "fsync",
                        "auth_requests")
        }
        write_record(output_path, "recovery", record, report.gates)
    return report
