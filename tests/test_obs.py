"""The counter registry: declared names, kept types, labeled rows."""

import sys
import threading

import pytest

from repro.obs import Counters


class TestCounters:
    def test_declared_counters_start_at_zero_of_their_type(self):
        counters = Counters[str](hits=int, seconds=float)
        totals, rows = counters.snapshot()
        assert totals == {"hits": 0, "seconds": 0.0}
        assert type(totals["hits"]) is int
        assert type(totals["seconds"]) is float
        assert rows == {}

    def test_undeclared_name_is_a_type_error(self):
        counters = Counters[str](hits=int)
        with pytest.raises(TypeError, match="undeclared counter 'misses'"):
            counters.add(misses=1)
        with pytest.raises(TypeError):
            counters.peak(misses=1)
        with pytest.raises(TypeError):
            counters.set(misses=1)
        assert counters.snapshot()[0] == {"hits": 0}

    def test_int_counter_refuses_a_float(self):
        counters = Counters[str](hits=int, seconds=float)
        with pytest.raises(TypeError):
            counters.add(hits=0.5)
        counters.add(seconds=1)
        assert counters.snapshot()[0] == {"hits": 0, "seconds": 1.0}

    def test_only_int_or_float_can_be_declared(self):
        with pytest.raises(TypeError):
            Counters[str](hits=str)

    def test_label_bumps_total_and_its_own_row(self):
        counters = Counters[str](hits=int, seconds=float)
        counters.add("gold", hits=2, seconds=0.5)
        counters.add("brass", hits=1)
        counters.add(hits=4)
        totals, rows = counters.snapshot()
        assert totals == {"hits": 7, "seconds": 0.5}
        assert rows == {
            "gold": {"hits": 2, "seconds": 0.5},
            "brass": {"hits": 1, "seconds": 0.0},
        }
        assert list(rows) == ["gold", "brass"]  # first-write order

    def test_peak_keeps_the_high_water_mark_and_set_overwrites(self):
        counters = Counters[str](depth=int, recovered=int)
        counters.peak(depth=5)
        counters.peak(depth=3)
        counters.set(recovered=7)
        counters.set(recovered=2)
        assert counters.snapshot()[0] == {"depth": 5, "recovered": 2}

    def test_snapshot_is_a_copy(self):
        counters = Counters[str](hits=int)
        counters.add("gold", hits=1)
        totals, rows = counters.snapshot()
        totals["hits"] = 99
        rows["gold"]["hits"] = 99
        assert counters.snapshot() == ({"hits": 1}, {"gold": {"hits": 1}})

    def test_concurrent_adds_lose_nothing(self):
        counters = Counters[int](hits=int, seconds=float)

        def hammer() -> None:
            # Every thread races to create the same fresh label rows.
            for i in range(4000):
                counters.add(i % 1000, hits=1, seconds=0.5)

        threads = [threading.Thread(target=hammer) for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        totals, rows = counters.snapshot()
        assert totals == {"hits": 32000, "seconds": 16000.0}
        assert len(rows) == 1000
        assert all(row["hits"] == 32 for row in rows.values())
