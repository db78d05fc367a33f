"""Unit tests for the controller's periodic arrival schedule."""

import pytest

from repro.mc.schedule import ArrivalSchedule


class TestArrivalSchedule:
    def test_matches_incremental_accumulation(self):
        schedule = ArrivalSchedule(first=0.3, interval=0.7)
        expected = []
        t = 0.3
        for _ in range(20):
            expected.append(t)
            t += 0.7  # the historical next += interval accumulation
        got = [schedule.next_ns]
        for _ in range(19):
            got.append(schedule.advance())
        # Bitwise equality, not approximate: experiment tables are gated
        # on byte-identical output and rounding differences would leak.
        assert got == expected

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            ArrivalSchedule(first=0.0, interval=0.0)
        with pytest.raises(ValueError):
            ArrivalSchedule(first=0.0, interval=-1.0)
