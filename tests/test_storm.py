"""The shared storm driver: fleet, plant, drive and summarize."""

import hashlib
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from types import SimpleNamespace

import numpy as np
import pytest

from repro.deploy.enrollment import build_fleet_record as deploy_fleet_record
from repro.engines import build_engine
from repro.hashes.registry import get_hash
from repro.net.messages import AuthenticationResult
from repro.sched.errors import RequestShed
from repro.storm import build_fleet_record, drive, plant, summarize


def _settled(value=None, error=None) -> Future:
    future: Future = Future()
    if error is not None:
        future.set_exception(error)
    else:
        future.set_result(value)
    return future


def _refuse() -> Future:
    raise RequestShed("tenant_quota")


class TestDriveClassifies:
    @pytest.fixture(scope="class")
    def outcomes(self):
        handles = {
            "found": lambda: _settled(
                SimpleNamespace(found=True, timed_out=False)
            ),
            "not-found": lambda: _settled(
                AuthenticationResult(
                    client_id="c", authenticated=False, distance=None,
                    public_key=None, search_seconds=0.1, timed_out=True,
                )
            ),
            "shed-at-admission": _refuse,
            "shed-at-runtime": lambda: _settled(
                error=RequestShed("deadline")
            ),
            "lost": Future,
            "untyped": lambda: _settled(error=KeyError("boom")),
        }
        outcomes = drive(lambda name: handles[name](), list(handles),
                         timeout=0.05)
        return {o.request: o for o in outcomes}

    def test_served_outcomes(self, outcomes):
        found, missed = outcomes["found"], outcomes["not-found"]
        assert found.served and found.found and not found.timed_out
        assert missed.served and not missed.found and missed.timed_out
        assert not found.shed and not missed.shed

    def test_sheds_are_typed_at_admission_and_at_runtime(self, outcomes):
        assert outcomes["shed-at-admission"].shed_reason == "tenant_quota"
        assert outcomes["shed-at-runtime"].shed_reason == "deadline"
        for name in ("shed-at-admission", "shed-at-runtime"):
            assert outcomes[name].shed and not outcomes[name].served

    def test_unsettled_request_is_lost_at_the_timeout(self, outcomes):
        lost = outcomes["lost"]
        assert lost.lost and not lost.served and not lost.shed
        assert lost.latency_seconds >= 0.05

    def test_untyped_error_keeps_its_class_name(self, outcomes):
        untyped = outcomes["untyped"]
        assert untyped.error == "KeyError"
        assert not untyped.served and not untyped.shed and not untyped.lost

    def test_outcomes_come_back_in_request_order(self):
        names = ["b", "a", "c"]
        outcomes = drive(lambda name: _settled(SimpleNamespace()), names)
        assert [o.request for o in outcomes] == names

    def test_summary_counts_every_kind(self, outcomes):
        stats = summarize(list(outcomes.values()))
        assert stats["count"] == 6
        assert stats["served"] == 2
        assert stats["found"] == 1
        assert stats["timed_out"] == 1
        assert stats["shed"] == 2
        assert stats["shed_reasons"] == {"tenant_quota": 1, "deadline": 1}
        assert stats["lost"] == 1
        assert stats["errors"] == 1
        assert 0.0 <= stats["p50_seconds"] <= stats["p99_seconds"]

    def test_summary_of_nothing_served_has_no_percentiles(self):
        shed = drive(lambda _: _settled(error=RequestShed("x")), [1, 2])
        stats = summarize(shed)
        assert stats["served"] == 0 and stats["shed"] == 2
        assert stats["p99_seconds"] is None


class TestDriveLatency:
    def test_fast_request_keeps_its_own_settle_latency(self):
        release = threading.Event()

        def job(name):
            if name == "slow":
                release.wait(5.0)
                time.sleep(0.3)
            return SimpleNamespace(found=True)

        with ThreadPoolExecutor(max_workers=2) as pool:
            def submit(name):
                future = pool.submit(job, name)
                if name == "fast":
                    release.set()
                return future

            # The slow request is collected first; the fast one settled
            # long before anyone asked for it.
            outcomes = drive(submit, ["slow", "fast"])
        slow, fast = outcomes
        assert slow.latency_seconds >= 0.3
        # Stamped at collection, the fast one would read ~0.3 s too.
        assert fast.latency_seconds < slow.latency_seconds / 2

    def test_one_worker_drive_serves_in_submission_order(self):
        served = []

        def job(index):
            time.sleep(0.01)
            served.append(index)
            return SimpleNamespace(found=True)

        with ThreadPoolExecutor(max_workers=1) as worker:
            outcomes = drive(lambda i: worker.submit(job, i), list(range(6)))
        assert served == list(range(6))
        latencies = [o.latency_seconds for o in outcomes]
        # Every request waits out the ones submitted before it.
        assert latencies == sorted(latencies)
        assert latencies[-1] >= 0.06


class TestPlant:
    @pytest.mark.parametrize("distance", [0, 1, 2])
    def test_planted_answer_lies_exactly_d_away(self, distance):
        algo = get_hash("sha1")
        base = bytes(range(32))
        digest = plant(algo, base, distance, np.random.default_rng(7))
        result = build_engine("batch", hash_name="sha1").search(
            base, digest, distance
        )
        assert result.found and result.distance == distance
        assert algo.hash_seed(result.seed) == digest


class TestFleet:
    #: (client id, usable cells, sha256 of packbits(usable) +
    #: packbits(reference)) for seed 2023, slots 0-3, 2048 cells. A
    #: load generator and a server process derive these independently,
    #: so any drift breaks every deployed authentication.
    GOLDEN = [
        ("dep-0000", 1886,
         "9811cc2286aadc5f27d4766815c235441915d7e734a0ac2380608f8906754b48"),
        ("dep-0001", 1895,
         "6925a860fa9533c58cfee4456d80a822bb335461ae75fa707e65c8aa3de0e72b"),
        ("dep-0002", 1898,
         "9970b2aee3db1e3af331689e369f6778f86c101f747bb9d2804cde1ea434439f"),
        ("dep-0003", 1912,
         "7f4beae613363dead3a02917d19b60921ee5ffba08b4f58e2f51cee5886337f5"),
    ]

    @pytest.mark.parametrize("index", range(4))
    def test_fleet_masks_are_pinned(self, index):
        client_id, _puf, mask = build_fleet_record(2023, index, 2048)
        digest = hashlib.sha256(
            np.packbits(mask.usable).tobytes()
            + np.packbits(mask.reference).tobytes()
        ).hexdigest()
        assert (client_id, mask.usable_count, digest) == self.GOLDEN[index]

    def test_deploy_enrollment_reexports_the_one_builder(self):
        assert deploy_fleet_record is build_fleet_record
