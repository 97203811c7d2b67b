"""``auth-open`` and ``enroll-mix``: loopback traffic against a server child.

The server is ``python -m repro.deploy.server`` (or, for the traced run,
``perfbench/traced_server.py``, which wraps the server-side layers and
then runs the same ``serve``). This process is the load generator: it
uses two threads (the main thread and one helper) and at most two
connections, and talks to the server only through ``SocketTransport``,
``RemoteCAServer`` and ``NetworkClient``.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import select
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

from host import StealClock, end_group
from layers import SpanIndex, median, per_layer_metrics, percentile
from spans import SpanRecorder, span_cost_seconds
from sweep import kernel_rates

#: Open-loop arrival rate. A closed loop on two connections completes
#: about 7.8 auth/s on a 2-core host; at 4/s the median moved by a
#: quarter between seeds (queueing behind second-round requests), at 3/s
#: by 3.5%.
AUTH_RATE_PER_S = 3.0
#: ``enroll-mix`` sends one re-enrollment after every two authentications.
ENROLL_EVERY = 3
#: ``auth-open`` is invalid when its generator fell this far behind.
MAX_LAG_P95_S = 1.0
SETUP_REPEATS = 3
READY_TIMEOUT_S = 120.0
DRAIN_TIMEOUT_S = 60.0
GROUP_GRACE_S = 10.0
#: Seed of the enrolled fleet (PUFs and their enrollment images). It is
#: the same on every run, like a deployed population of devices; the
#: workload seed drives the traffic over it. With a fleet drawn per
#: seed, the share of authentications needing a second round ranged
#: from 6% to 19% across five seeds, and every latency with it.
FLEET_SEED = 2023


class CheckFailed(AssertionError):
    """A correctness or process-hygiene check failed."""


def topology(durable: bool):
    from repro.deploy.topology import TopologySpec

    return TopologySpec(
        tenants=("alpha", "beta"), durability="always" if durable else ""
    )


class ServerChild:
    """One server process: spawn until ready, then a clean drain."""

    def __init__(self, root: Path, work: Path, spec, seed: int, tag: str,
                 traced: bool):
        from repro.deploy.loadgen import spec_to_json

        self.data_dir = work / f"wal-{tag}" if spec.durability else None
        self.spans_path = work / f"spans-{tag}.json" if traced else None
        if traced:
            argv = [sys.executable, str(root / "perfbench" / "traced_server.py"),
                    "--spans-out", str(self.spans_path)]
        else:
            argv = [sys.executable, "-m", "repro.deploy.server"]
        argv += ["--spec", spec_to_json(spec), "--seed", str(seed)]
        if self.data_dir is not None:
            argv += ["--data-dir", str(self.data_dir)]
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.proc = subprocess.Popen(
            argv, cwd=root, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT, stdin=subprocess.DEVNULL,
            start_new_session=True,
        )
        self.output = b""
        self.leaked = False

    def _read_line(self, deadline: float) -> str:
        fd = self.proc.stdout.fileno()
        while b"\n" not in self.output:
            left = deadline - time.perf_counter()
            if left <= 0:
                raise CheckFailed("server child did not report in time")
            ready, _, _ = select.select([fd], [], [], left)
            if ready:
                chunk = os.read(fd, 65536)
                if not chunk:
                    raise CheckFailed(
                        f"server child exited early: {self.output!r}"
                    )
                self.output += chunk
        line, _, self.output = self.output.partition(b"\n")
        return line.decode(errors="replace").strip()

    def wait_ready(self) -> tuple[str, int]:
        """Block until ``DEPLOY-READY``; returns the bound address."""
        deadline = time.perf_counter() + READY_TIMEOUT_S
        while True:
            line = self._read_line(deadline)
            if line.startswith("DEPLOY-READY"):
                _, address, port = line.split()
                return address, int(port)

    def drain(self) -> dict | None:
        """SIGTERM; the child must print ``DEPLOY-DRAINED`` and exit 0.

        Returns the spans the traced child wrote, if any.
        """
        self.proc.send_signal(signal.SIGTERM)
        try:
            rest, _ = self.proc.communicate(timeout=DRAIN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.kill()
            raise CheckFailed("server child did not drain after SIGTERM")
        self.end_descendants()
        if self.leaked:
            raise CheckFailed("a process the server child started outlived it")
        lines = (self.output + rest).decode(errors="replace").splitlines()
        if self.proc.returncode != 0 or "DEPLOY-DRAINED" not in lines:
            raise CheckFailed(
                f"server child exit {self.proc.returncode}, output {lines!r}"
            )
        spans = None
        if self.spans_path is not None:
            spans = json.loads(self.spans_path.read_text())
        self.cleanup()
        return spans

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdout.close()
        self.end_descendants()

    def end_descendants(self) -> None:
        """Wait for what the child started (its resource tracker) to end."""
        self.leaked = not end_group(self.proc.pid, GROUP_GRACE_S)

    def cleanup(self) -> None:
        if self.proc.stdout and not self.proc.stdout.closed:
            self.proc.stdout.close()
        if self.data_dir is not None:
            shutil.rmtree(self.data_dir, ignore_errors=True)
        if self.spans_path is not None and self.spans_path.exists():
            self.spans_path.unlink()


def _fetch_metrics(address):
    from repro.net.sockets import RemoteCAServer, SocketTransport

    with SocketTransport(*address) as transport:
        return RemoteCAServer(transport).fetch_metrics()


def _depth_weights(max_distance: int) -> np.ndarray:
    """The heavy-tailed planted-depth law of ``repro.deploy.trace``."""
    from repro.deploy.trace import DEPTH_ALPHA

    weights = (np.arange(max_distance + 1) + 1.0) ** (-DEPTH_ALPHA)
    return weights / weights.sum()


class Outcomes:
    """Thread-safe tally of what every operation ended as."""

    def __init__(self):
        self.lock = threading.Lock()
        self.records: list[dict] = []

    def add(self, record: dict) -> None:
        with self.lock:
            self.records.append(record)

    def of(self, kind: str) -> list[dict]:
        return [r for r in self.records if r["kind"] == kind]


def _authenticate(device_entry, tenant, transport, rng_key, deadline):
    """One Figure 1 flow over ``transport``; returns (outcome, rounds)."""
    from repro.deploy.loadgen import classify_failure
    from repro.net.client import NetworkClient
    from repro.net.sockets import RemoteCAServer
    from repro.reliability.retry import RetryPolicy

    _client_id, device, mask = device_entry
    client = NetworkClient(
        device,
        transport,
        reference_mask=mask,
        retry_policy=RetryPolicy(
            max_attempts=4, base_backoff_seconds=0.05,
            max_backoff_seconds=0.5, jitter_fraction=0.3,
        ),
        rng=np.random.default_rng(rng_key),
        deadline_seconds=deadline,
        tenant_id=tenant,
    )
    try:
        result = client.authenticate(RemoteCAServer(transport))
    except Exception as exc:  # every failure is classified, typed or not
        return classify_failure(exc), client.last_attempts
    if result.authenticated:
        return "authenticated", client.last_attempts
    return ("timed-out" if result.timed_out else "denied"), client.last_attempts


def _run_two(worker) -> None:
    """Run ``worker(0)`` on a helper thread and ``worker(1)`` here."""
    errors: list[BaseException] = []

    def guarded(index: int) -> None:
        try:
            worker(index)
        except BaseException as exc:
            errors.append(exc)

    helper = threading.Thread(target=guarded, args=(0,), name="loadgen-1")
    helper.start()
    guarded(1)
    helper.join()
    if errors:
        raise errors[0]


def _balanced_slots(clients: int, count: int, rng) -> np.ndarray:
    rounds = math.ceil(count / clients)
    return np.concatenate([rng.permutation(clients) for _ in range(rounds)])[:count]


def _stratified_depths(max_distance: int, count: int, rng) -> np.ndarray:
    """``count`` planted depths in the law's exact shares, shuffled."""
    shares = _depth_weights(max_distance) * count
    counts = np.floor(shares).astype(int)
    remainder = np.argsort(counts - shares)[: count - counts.sum()]
    counts[remainder] += 1
    return rng.permutation(np.repeat(np.arange(max_distance + 1), counts))


def _auth_open(spec, seed, address, seconds, devices, recorder, rng):
    """Open loop: evenly spaced arrivals, one fresh connection per auth."""
    from repro.deploy.enrollment import tenant_for
    from repro.deploy.trace import generate_trace
    from repro.net.sockets import SocketTransport

    count = max(2, math.ceil(AUTH_RATE_PER_S * seconds))
    offsets = np.arange(count) / AUTH_RATE_PER_S
    # Deadlines and tenants come from the deployment trace; every slot
    # gets the same share of requests and the planted depths the exact
    # shares of the trace's law, so seeds differ in order, not in mix.
    entries = [
        dataclasses.replace(
            entry,
            client_index=slot,
            shell_depth=depth,
            tenant=tenant_for(slot, spec.tenants),
        )
        for entry, slot, depth in zip(
            generate_trace(spec, seed, count, seconds).entries,
            _balanced_slots(spec.clients, count, rng),
            _stratified_depths(spec.max_distance, count, rng),
        )
    ]
    slot_locks = {slot: threading.Lock() for slot in range(spec.clients)}
    outcomes = Outcomes()
    cursor = {"next": 0}
    cursor_lock = threading.Lock()
    origin = time.perf_counter() + 0.05

    def worker(_index: int) -> None:
        while True:
            with cursor_lock:
                i = cursor["next"]
                if i >= count:
                    return
                cursor["next"] += 1
            entry = entries[i]
            due = origin + float(offsets[i])
            pause = due - time.perf_counter()
            if pause > 0:
                time.sleep(pause)
            with slot_locks[entry.client_index]:
                sent = time.perf_counter()
                root = None
                if recorder is not None:
                    recorder.set_key(entry.client_id)
                    root = recorder.begin("request")
                transport = SocketTransport(*address)
                try:
                    transport.connect()
                    outcome, rounds = _authenticate(
                        devices[entry.client_index, entry.shell_depth],
                        entry.tenant, transport, (seed, i, 0xBACC),
                        entry.deadline_seconds,
                    )
                except Exception as exc:
                    from repro.deploy.loadgen import classify_failure

                    outcome, rounds = classify_failure(exc), 0
                finally:
                    transport.close()
                    done = time.perf_counter()
                    if root is not None:
                        recorder.end(root)
                        root["start"] = due
                        recorder.add("loadgen.lag", due, sent,
                                     key=entry.client_id, parent=root["id"])
            outcomes.add({
                "kind": "auth", "outcome": outcome, "rounds": rounds,
                "planted": entry.shell_depth, "latency": done - due,
                "lag": sent - due, "root": root, "done": done,
            })

    _run_two(worker)
    measured = max(r["done"] for r in outcomes.records) - origin
    return outcomes, measured, {}


def _enroll_mix(spec, seed, address, seconds, devices, recorder, rng):
    """Closed loop on two connections: auth, auth, re-enroll, ..."""
    from repro.deploy.enrollment import client_identity, tenant_for
    from repro.net.sockets import RemoteCAServer, SocketTransport

    weights = _depth_weights(spec.max_distance)
    outcomes = Outcomes()
    versions: dict[int, list[int]] = {}
    stop_at = time.perf_counter() + seconds
    started = time.perf_counter()

    def worker(index: int) -> None:
        own = [s for s in range(spec.clients) if s % 2 == index]
        local = np.random.default_rng((seed, index, 0xE11))
        with SocketTransport(*address) as transport:
            transport.connect()
            step = 0
            while time.perf_counter() < stop_at:
                slot = int(local.choice(own))
                client_id = client_identity(slot)
                kind = "enroll" if step % ENROLL_EVERY == ENROLL_EVERY - 1 else "auth"
                root = None
                if recorder is not None:
                    recorder.set_key(client_id)
                    root = recorder.begin("request")
                began = time.perf_counter()
                rounds = 0
                try:
                    if kind == "auth":
                        depth = int(local.choice(len(weights), p=weights))
                        outcome, rounds = _authenticate(
                            devices[slot, depth],
                            tenant_for(slot, spec.tenants), transport,
                            (seed, index, step, 0xBACC), None,
                        )
                    else:
                        reply = RemoteCAServer(transport).enroll(client_id)
                        outcome = "enrolled" if reply.enrolled else "refused"
                        versions.setdefault(slot, []).append(reply.version)
                except Exception as exc:
                    from repro.deploy.loadgen import classify_failure

                    outcome = classify_failure(exc)
                finally:
                    done = time.perf_counter()
                    if root is not None:
                        recorder.end(root)
                outcomes.add({
                    "kind": kind, "outcome": outcome, "rounds": rounds,
                    "latency": done - began, "lag": 0.0, "root": root,
                    "done": done,
                })
                step += 1

    _run_two(worker)
    measured = time.perf_counter() - started
    for slot, acked in versions.items():
        if any(b <= a for a, b in zip(acked, acked[1:])):
            raise CheckFailed(
                f"re-enrollment versions of slot {slot} not increasing: {acked}"
            )
    return outcomes, measured, {"versions_acked": sum(map(len, versions.values()))}


def run(root: Path, workload: str, seed: int, seconds: float, trace: bool,
        smoke: bool) -> dict:
    from repro.deploy.enrollment import build_client_device

    durable = workload == "enroll-mix"
    spec = topology(durable)
    rng = np.random.default_rng((seed, 0xA17))
    tag = f"{os.getpid()}"
    work = root / ".perfbench-work" / tag
    work.mkdir(parents=True, exist_ok=True)
    children: list[ServerChild] = []
    recorder = None
    if trace:
        from instrument import instrument_client

        recorder = SpanRecorder("c")
        instrument_client(recorder)

    try:
        setup: list[float] = []
        repeats = 1 if smoke or trace else SETUP_REPEATS
        for n in range(repeats):
            with StealClock() as clock:
                child = ServerChild(
                    root, work, spec, FLEET_SEED, f"{tag}-{n}", trace
                )
                children.append(child)
                address = child.wait_ready()
            setup.append(clock.adjusted)
            if n < repeats - 1:
                child.drain()
        server = children[-1]
        devices = {
            (slot, depth): build_client_device(
                FLEET_SEED, slot, spec.num_cells, depth
            )
            for slot in range(spec.clients)
            for depth in range(spec.max_distance + 1)
        }
        before = _fetch_metrics(address)
        if recorder is not None:
            recorder.spans.clear()
        window = time.perf_counter()
        drive = _auth_open if workload == "auth-open" else _enroll_mix
        with StealClock() as clock:
            outcomes, measured, extra = drive(
                spec, seed, address, seconds, devices, recorder, rng
            )
        window_end = time.perf_counter()
        after = _fetch_metrics(address)
        server_spans = server.drain()
    finally:
        for child in children:
            if child.proc.poll() is None:
                child.kill()
            else:
                child.end_descendants()
            child.cleanup()
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    if any(child.proc.returncode is None or child.leaked for child in children):
        raise CheckFailed("a server child or a process it started outlived the run")

    records = outcomes.records
    untyped = [r for r in records if r["outcome"].startswith("untyped:")]
    if untyped:
        raise CheckFailed(f"untyped client failures: {untyped[:3]}")
    if after.false_authentications != 0:
        raise CheckFailed(
            f"{after.false_authentications} false authentications"
        )
    if durable and after.counters.get("durable_nonce_reuse_trips", 0) != 0:
        raise CheckFailed("durable store tripped the nonce-reuse check")
    ok = {"authenticated", "enrolled"}
    auths = outcomes.of("auth")
    if workload == "auth-open":
        denied = [r for r in auths if r["outcome"] != "authenticated"]
        if denied:
            raise CheckFailed(
                f"{len(denied)} planted-depth authentications failed: "
                f"{sorted({r['outcome'] for r in denied})}"
            )
    lags = [r["lag"] for r in auths] if workload == "auth-open" else []
    if lags and percentile(lags, 95.0) > MAX_LAG_P95_S:
        raise CheckFailed(
            f"load generator could not keep the schedule: lag p95 "
            f"{percentile(lags, 95.0):.3f}s"
        )

    def delta(name: str) -> int:
        return int(after.counters.get(name, 0) - before.counters.get(name, 0))

    failed = sum(1 for r in records if r["outcome"] not in ok)
    # Wall times with the window's steal share taken out (StealClock).
    auth_ms = [r["latency"] * 1e3 * clock.kept for r in auths
               if r["outcome"] in ok]
    enroll_ms = [r["latency"] * 1e3 * clock.kept for r in outcomes.of("enroll")
                 if r["outcome"] in ok]
    out = {
        "attempted": len(records),
        "failed": failed,
        "engine": f"fleet:{','.join(spec.devices)},hash={spec.hash_name},"
                  f"bs={spec.batch_size}",
        "details": {
            "topology": spec.describe(),
            "fleet_seed": FLEET_SEED,
            "window_steal_frac": clock.steal,
            "setup_samples_s": setup,
            "auths": len(auths),
            "enrolls": len(outcomes.of("enroll")),
            # Share of authentications that needed a second round (the
            # first read landed beyond the search radius).
            "second_round_frac": sum(r["rounds"] > 1 for r in auths) / len(auths),
            "auth_p50_ms": median(auth_ms),
            "auth_p95_ms": percentile(auth_ms, 95.0),
            "enroll_p50_ms": median(enroll_ms) if enroll_ms else None,
            "enroll_p95_ms": percentile(enroll_ms, 95.0) if enroll_ms else None,
            "lag_p50_ms": median(lags) * 1e3 if lags else None,
            "lag_p95_ms": percentile(lags, 95.0) * 1e3 if lags else None,
            "outcomes": {
                o: sum(1 for r in records if r["outcome"] == o)
                for o in sorted({r["outcome"] for r in records})
            },
            "server_seeds_hashed": delta("seeds_hashed"),
            **extra,
        },
        "end_to_end": {
            "setup_s": (median(setup), len(setup)),
            "p50_ms": (median(auth_ms), len(auth_ms)),
            "p75_ms": (percentile(auth_ms, 75.0), len(auth_ms)),
            # An open loop completes what its schedule offers; only the
            # closed loop's rate depends on the CPU the guest was given.
            "ops_per_s": (
                (len(records) - failed)
                / (measured * (clock.kept if workload == "enroll-mix" else 1.0)),
                len(records),
            ),
            "ok_frac": ((len(records) - failed) / len(records), len(records)),
        },
    }
    if recorder is not None:
        spans = [
            s for s in recorder.spans + server_spans["spans"]
            if window <= s["start"] <= window_end
        ]
        events = [
            e for e in server_spans["events"]
            if window <= e["start"] <= window_end
        ]
        searches = [e for e in events if e["kind"] == "search"]
        service = sum(e["service"] for e in searches)
        hashed = sum(e["seeds_hashed"] for e in searches)
        per_layer, breakdown = per_layer_metrics(
            SpanIndex(spans),
            events,
            [r["root"] for r in auths if r["root"] is not None],
            operations=len(auths),
            lags=lags,
            shed=delta("shed"),
            rejected=delta("rejected_busy") + delta("rejected_duplicate")
            + delta("rejected_open"),
            kernel_mhs=kernel_rates(rng),
            engine_mhs={"sha1": hashed / service / 1e6 if service else None},
            bytes_per_hash=32 + 20,
            span_cost=span_cost_seconds(),
        )
        out["per_layer"] = per_layer
        out["details"]["median_request"] = breakdown
    return out
