"""Unit tests for the DDR4 timing substrate (Table II)."""


import pytest

from repro.dram import (
    DDR4Timing,
    DIMMGeometry,
    channel_stream_bandwidth,
    internal_stream_bandwidth,
    lane_bandwidth,
    scattered_access_efficiency,
)

from .dram_controller import Bank, DRAMController, ReadRequest


class TestTiming:
    def test_table2_defaults(self):
        t = DDR4Timing()
        assert (t.tRC, t.tRCD, t.tCL, t.tRP, t.tBL) == (76, 24, 24, 24, 4)
        assert (t.tCCD_S, t.tCCD_L, t.tRRD_S, t.tRRD_L, t.tFAW) == \
            (4, 8, 4, 6, 26)

    def test_clock_is_half_data_rate(self):
        t = DDR4Timing()
        assert t.clock_hz == pytest.approx(1600e6)
        assert t.tCK == pytest.approx(0.625e-9)

    def test_cycles_to_seconds(self):
        t = DDR4Timing()
        assert t.cycles_to_seconds(1600e6) == pytest.approx(1.0)
        with pytest.raises(ValueError):
            t.cycles_to_seconds(-1)

    def test_validation(self):
        with pytest.raises(ValueError):
            DDR4Timing(tRC=0)
        with pytest.raises(ValueError):
            DDR4Timing(tCCD_L=2, tCCD_S=4)
        with pytest.raises(ValueError):
            DDR4Timing(tRC=10, tRCD=24)


class TestGeometry:
    def test_table2_defaults(self):
        g = DIMMGeometry()
        assert g.capacity_bytes == 32 * 2**30
        assert g.ranks == 4
        assert g.banks_per_rank == 8
        assert g.total_banks == 32
        assert g.burst_bytes == 64
        assert g.bursts_per_row == 128
        assert g.internal_paths == 8

    def test_peak_bandwidth(self):
        g = DIMMGeometry()
        assert g.peak_bandwidth(DDR4Timing()) == pytest.approx(25.6e9)

    def test_validation(self):
        with pytest.raises(ValueError):
            DIMMGeometry(ranks=0)


class TestBank:
    def test_activate_sets_read_window(self):
        bank = Bank(DDR4Timing())
        act = bank.activate(5, now=10)
        assert act == 10
        assert bank.next_read == 10 + 24  # tRCD
        assert bank.open_row == 5

    def test_row_conflict_pays_precharge(self):
        t = DDR4Timing()
        bank = Bank(t)
        bank.activate(1, now=0)
        act = bank.activate(2, now=0)
        # must wait tRC from the first ACT, then tRP
        assert act >= t.tRC + t.tRP

    def test_same_row_reuse_is_free(self):
        bank = Bank(DDR4Timing())
        bank.activate(1, now=0)
        issue = bank.read(1, now=100)
        assert issue == 100  # row already open, past tRCD

    def test_read_miss_activates(self):
        bank = Bank(DDR4Timing())
        issue = bank.read(3, now=0)
        assert issue == 24  # tRCD after the implicit ACT
        assert bank.open_row == 3

    def test_rejects_negative_row(self):
        with pytest.raises(ValueError):
            Bank(DDR4Timing()).activate(-1, 0)


class TestController:
    def test_validates_addresses(self):
        ctrl = DRAMController(DIMMGeometry(), DDR4Timing())
        with pytest.raises(ValueError):
            ctrl.serve([ReadRequest(rank=9, bank_group=0, bank=0, row=0)])
        with pytest.raises(ValueError):
            ReadRequest(rank=0, bank_group=0, bank=0, row=0, n_bursts=0)

    def test_single_burst_latency(self):
        t = DDR4Timing()
        ctrl = DRAMController(DIMMGeometry(), t)
        cycles = ctrl.serve([ReadRequest(0, 0, 0, 0)])
        assert cycles == t.tRCD + t.tCL + t.tBL

    def test_same_bank_group_pays_ccd_l(self):
        t = DDR4Timing()
        ctrl = DRAMController(DIMMGeometry(), t)
        reqs = [ReadRequest(0, 0, 0, 0), ReadRequest(0, 0, 1, 0)]
        cycles = ctrl.serve(reqs)
        assert cycles >= t.tRCD + t.tCCD_L + t.tCL + t.tBL

    def test_stream_zero_bytes(self):
        ctrl = DRAMController(DIMMGeometry(), DDR4Timing())
        assert ctrl.stream_rows(0) == 0
        with pytest.raises(ValueError):
            ctrl.stream_rows(-1)

    def test_internal_paths_beat_shared_bus(self):
        g, t = DIMMGeometry(), DDR4Timing()
        n = 2**20
        shared = DRAMController(g, t).stream_rows(n)
        parallel = DRAMController(g, t, internal_paths=True).stream_rows(n)
        assert parallel < shared / 2

    def test_stream_matches_analytic_internal(self):
        """The cycle model validates the closed-form bandwidth within 5%."""
        g, t = DIMMGeometry(), DDR4Timing()
        n = 2 * 2**20
        cycles = DRAMController(g, t, internal_paths=True).stream_rows(n)
        measured = n / t.cycles_to_seconds(cycles)
        analytic = internal_stream_bandwidth(g, t)
        assert measured == pytest.approx(analytic, rel=0.05)

    def test_stream_matches_analytic_channel(self):
        g, t = DIMMGeometry(), DDR4Timing()
        n = 2 * 2**20
        cycles = DRAMController(g, t).stream_rows(n)
        measured = n / t.cycles_to_seconds(cycles)
        assert measured == pytest.approx(
            channel_stream_bandwidth(g, t), rel=0.05
        )


class TestBandwidthModel:
    def test_lane_bandwidth_is_half_duty(self):
        g, t = DIMMGeometry(), DDR4Timing()
        assert lane_bandwidth(g, t) == pytest.approx(
            g.peak_bandwidth(t) * t.tBL / t.tCCD_L, rel=0.01
        )

    def test_internal_is_lanes_times_paths(self):
        g, t = DIMMGeometry(), DDR4Timing()
        assert internal_stream_bandwidth(g, t) == pytest.approx(
            lane_bandwidth(g, t) * g.internal_paths
        )

    def test_internal_near_100gbs(self):
        """The calibration anchor: ~102 GB/s per DIMM, ~0.8 TB/s for 8."""
        bw = internal_stream_bandwidth(DIMMGeometry(), DDR4Timing())
        assert 90e9 < bw < 115e9

    def test_channel_is_interface_rate(self):
        bw = channel_stream_bandwidth(DIMMGeometry(), DDR4Timing())
        assert 23e9 < bw <= 25.6e9

    def test_scattered_efficiency_monotone_in_run_length(self):
        g, t = DIMMGeometry(), DDR4Timing()
        runs = [512, 4096, 65536, 2**20]
        effs = [scattered_access_efficiency(g, t, r) for r in runs]
        assert all(e1 < e2 for e1, e2 in zip(effs, effs[1:]))
        assert effs[-1] > 0.95

    def test_scattered_efficiency_bounds(self):
        g, t = DIMMGeometry(), DDR4Timing()
        assert 0 < scattered_access_efficiency(g, t, 64) < 1
        with pytest.raises(ValueError):
            scattered_access_efficiency(g, t, 0)

    def test_more_ranks_scale_internal_bandwidth(self):
        t = DDR4Timing()
        g4 = DIMMGeometry(ranks=4)
        g2 = DIMMGeometry(ranks=2)
        assert internal_stream_bandwidth(g4, t) == pytest.approx(
            2 * internal_stream_bandwidth(g2, t)
        )
