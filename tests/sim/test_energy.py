"""Tests for the DRAM energy model."""

import pytest

from repro import obs
from repro.mc.controller import ControllerStats
from repro.sim.energy import (
    EnergyBreakdown,
    EnergyParameters,
    energy_of_run,
)
from repro.sim.system import simulate_workload


def _stats(**overrides):
    defaults = dict(reads_served=0, writes_served=0, test_requests_served=0,
                    total_read_latency_ns=0.0, refreshes_issued=0,
                    refresh_busy_ns=0.0, row_hits=0, row_misses=0,
                    row_conflicts=0)
    defaults.update(overrides)
    return ControllerStats(**defaults)


class TestParameters:
    def test_refresh_energy_scales_with_density(self):
        params = EnergyParameters()
        assert params.refresh_nj(16) == 2 * params.refresh_nj(8)
        assert params.refresh_nj(32) == 4 * params.refresh_nj(8)

    def test_invalid_density_raises(self):
        with pytest.raises(ValueError):
            EnergyParameters().refresh_nj(0)

    def test_negative_energy_raises(self):
        with pytest.raises(ValueError):
            EnergyParameters(activate_nj=-1.0)


class TestBreakdown:
    def test_manual_accounting(self):
        stats = _stats(row_hits=10, row_misses=5, row_conflicts=5,
                       refreshes_issued=3)
        params = EnergyParameters(activate_nj=2.0, read_nj=1.0,
                                  refresh_nj_8gb=100.0, background_w=0.0)
        breakdown = energy_of_run(stats, window_ns=1000.0, params=params)
        assert breakdown.activate_nj == 20.0      # 10 activations
        assert breakdown.read_write_nj == 20.0    # 20 column accesses
        assert breakdown.refresh_nj == 300.0
        assert breakdown.total_nj == 340.0

    def test_background_scales_with_window(self):
        params = EnergyParameters(background_w=0.5)
        short = energy_of_run(_stats(), 1000.0, params=params)
        long = energy_of_run(_stats(), 2000.0, params=params)
        assert long.background_nj == 2 * short.background_nj

    def test_refresh_fraction(self):
        stats = _stats(refreshes_issued=10)
        params = EnergyParameters(background_w=0.0, refresh_nj_8gb=10.0)
        breakdown = energy_of_run(stats, 1000.0, params=params)
        assert breakdown.refresh_fraction == 1.0

    def test_invalid_window_raises(self):
        with pytest.raises(ValueError):
            energy_of_run(_stats(), 0.0)


class TestEnergyRollupEvents:
    def test_rollup_emitted_with_pj_fields(self):
        sink = obs.ListTraceSink()
        previous = obs.set_sink(sink)
        try:
            params = EnergyParameters(
                activate_nj=2.0, read_nj=1.0, write_nj=1.0,
                refresh_nj_8gb=100.0, background_w=0.5,
            )
            stats = _stats(row_hits=3, row_misses=2, refreshes_issued=4)
            breakdown = energy_of_run(stats, 1_000.0, params=params,
                                      channel=1)
        finally:
            obs.set_sink(previous)
        (record,) = sink.records
        obs.validate_record(record)
        assert record["kind"] == "energy_rollup"
        assert record["window_ns"] == 1_000.0
        assert record["channel"] == 1
        # pJ fields are the nJ breakdown times 1e3.
        assert record["refresh_pj"] == pytest.approx(
            breakdown.refresh_nj * 1e3)
        assert record["access_pj"] == pytest.approx(
            (breakdown.activate_nj + breakdown.read_write_nj) * 1e3)
        assert record["background_pj"] == pytest.approx(
            breakdown.background_nj * 1e3)

    def test_channel_omitted_when_unset(self):
        sink = obs.ListTraceSink()
        previous = obs.set_sink(sink)
        try:
            energy_of_run(_stats(), 1_000.0)
        finally:
            obs.set_sink(previous)
        assert "channel" not in sink.records[0]

    def test_no_sink_no_event(self):
        previous = obs.set_sink(None)
        try:
            energy_of_run(_stats(), 1_000.0)  # must not raise
        finally:
            obs.set_sink(previous)

    def test_system_run_emits_one_rollup_per_channel(self):
        sink = obs.ListTraceSink()
        previous = obs.set_sink(sink)
        try:
            simulate_workload(["mcf"], window_ns=100_000.0, channels=2)
        finally:
            obs.set_sink(previous)
        rollups = [r for r in sink.records if r["kind"] == "energy_rollup"]
        assert sorted(r["channel"] for r in rollups) == [0, 1]
        assert all(r["refresh_pj"] > 0 for r in rollups)


class TestEndToEnd:
    def test_reduction_cuts_refresh_energy(self):
        window = 50_000.0
        base = simulate_workload(["mcf"], density_gbit=32,
                                 window_ns=window, seed=2)
        reduced = simulate_workload(["mcf"], density_gbit=32,
                                    refresh_reduction=0.75,
                                    window_ns=window, seed=2)
        saved = (base.refreshes_issued - reduced.refreshes_issued) * (
            EnergyParameters().refresh_nj(32)
        )
        assert saved > 0
        assert reduced.refreshes_issued < 0.3 * base.refreshes_issued
