"""Unit tests for the hardware models: GPUs, links, DIMMs, machines."""

import dataclasses

import numpy as np
import pytest

from repro.hardware import (
    A100_40GB,
    GPU_REGISTRY,
    HostCPU,
    RTX_3090,
    RTX_4090,
    TESLA_T4,
    default_dimm,
    dimm_link,
    get_gpu,
    host_memory_bus,
    machine_cost_usd,
    pcie4_x16,
    server_cost_usd,
)
from repro.hardware.links import Link


class TestGPURoofline:
    def test_small_gemv_is_bandwidth_bound(self):
        b = 1 * 2**30
        t = RTX_4090.matmul_time(b, batch=1)
        assert t == pytest.approx(
            b / RTX_4090.effective_bandwidth + RTX_4090.kernel_launch_overhead
        )

    def test_large_batch_is_compute_bound(self):
        b = 1 * 2**30
        t1 = RTX_4090.matmul_time(b, batch=1)
        t256 = RTX_4090.matmul_time(b, batch=256)
        assert t256 > t1
        assert t256 == pytest.approx(
            b * 256 / RTX_4090.effective_flops
            + RTX_4090.kernel_launch_overhead)

    def test_scattered_access_is_slower(self):
        b = 1 * 2**30
        assert (RTX_4090.matmul_time(b, scattered=True)
                > RTX_4090.matmul_time(b, scattered=False))

    def test_zero_bytes_is_free(self):
        assert RTX_4090.matmul_time(0) == 0.0

    def test_batch_one_equals_batch_two_when_memory_bound(self):
        b = 1 * 2**30
        assert (RTX_4090.matmul_time(b, batch=1)
                == RTX_4090.matmul_time(b, batch=2))

    def test_attention_time_bandwidth_bound(self):
        kv = 100 * 2**20
        assert RTX_4090.attention_time(kv) == pytest.approx(
            kv / RTX_4090.effective_bandwidth + RTX_4090.kernel_launch_overhead
        )

    def test_prefill_compute_bound_for_long_prompt(self):
        b = 1 * 2**30
        t = RTX_4090.prefill_time(b, prompt_len=4096)
        assert t == pytest.approx(b * 4096 / RTX_4090.effective_flops)

    def test_rejects_invalid_args(self):
        with pytest.raises(ValueError):
            RTX_4090.matmul_time(-1)
        with pytest.raises(ValueError):
            RTX_4090.matmul_time(1, batch=0)
        with pytest.raises(ValueError):
            RTX_4090.attention_time(-1)
        with pytest.raises(ValueError):
            RTX_4090.prefill_time(1, prompt_len=0)

    def test_validation_of_spec_fields(self):
        with pytest.raises(ValueError):
            dataclasses.replace(RTX_4090, memory_bytes=0)
        with pytest.raises(ValueError):
            dataclasses.replace(RTX_4090, bandwidth_efficiency=1.5)


class TestGPURegistry:
    def test_paper_specs(self):
        """§V-A1 / §V-E2 spec-sheet numbers."""
        assert RTX_4090.memory_bytes == 24 * 2**30
        assert RTX_4090.memory_bandwidth == 936e9
        assert RTX_4090.tensor_tops == 330
        assert RTX_3090.tensor_tops == 142
        assert TESLA_T4.memory_bytes == 16 * 2**30
        assert A100_40GB.memory_bandwidth == 1555e9

    def test_lookup(self):
        assert get_gpu("rtx 4090") is RTX_4090
        with pytest.raises(KeyError):
            get_gpu("rtx 5090")

    def test_gpu_ordering_matches_tiers(self):
        b = 1 * 2**30
        t4090 = RTX_4090.matmul_time(b)
        t3090 = RTX_3090.matmul_time(b)
        tt4 = TESLA_T4.matmul_time(b)
        assert t4090 <= t3090 < tt4


class TestLinks:
    def test_transfer_time_includes_latency(self):
        link = Link(name="l", bandwidth=1e9, latency=1e-6)
        assert link.transfer_time(1e9) == pytest.approx(1.0 + 1e-6)

    def test_zero_transfer_free(self):
        assert pcie4_x16().transfer_time(0) == 0.0

    def test_pageable_slower_than_pinned(self):
        assert (pcie4_x16(pinned=False).effective_bandwidth
                < pcie4_x16().effective_bandwidth)

    def test_pcie_matches_paper_bandwidth(self):
        assert pcie4_x16().bandwidth == 64e9

    def test_dimm_link_matches_table2(self):
        assert dimm_link().bandwidth == 25e9

    def test_host_bus_matches_paper(self):
        assert host_memory_bus().bandwidth == pytest.approx(89.6e9)

    def test_link_validation(self):
        with pytest.raises(ValueError):
            Link(name="bad", bandwidth=0, latency=0)
        with pytest.raises(ValueError):
            Link(name="bad", bandwidth=1, latency=-1)
        with pytest.raises(ValueError):
            Link(name="bad", bandwidth=1, latency=0, efficiency=0)
        with pytest.raises(ValueError):
            pcie4_x16().transfer_time(-5)


class TestHostCPU:
    def test_gemv_memory_bound(self):
        cpu = HostCPU()
        b = 1 * 2**30
        expected = b / (
            cpu.memory_bus.effective_bandwidth * cpu.scatter_efficiency
        )
        assert cpu.gemv_time(b) == pytest.approx(expected)

    def test_sequential_faster_than_scattered(self):
        cpu = HostCPU()
        b = 1 * 2**30
        assert cpu.gemv_time(b, scattered=False) < cpu.gemv_time(b)

    def test_zero_free(self):
        assert HostCPU().gemv_time(0) == 0.0

    def test_rejects_invalid(self):
        with pytest.raises(ValueError):
            HostCPU().gemv_time(-1)
        with pytest.raises(ValueError):
            HostCPU().gemv_time(1, batch=0)


class TestNDPDIMM:
    def test_internal_exceeds_channel_bandwidth(self):
        d = default_dimm()
        assert d.internal_bandwidth > 3 * d.channel_bandwidth

    def test_capacity_is_32gb(self):
        assert default_dimm().capacity_bytes == 32 * 2**30

    def test_gemv_time_memory_bound_at_batch1(self):
        d = default_dimm()
        b = 100 * 2**20
        assert d.gemv_time(b) == pytest.approx(b / d.internal_bandwidth)

    def test_gemv_compute_bound_at_large_batch(self):
        d = default_dimm()
        b = 100 * 2**20
        assert d.gemv_time(b, batch=16) > 4 * d.gemv_time(b, batch=1)

    def test_scattered_run_derates_bandwidth(self):
        d = default_dimm()
        b = 100 * 2**20
        assert d.gemv_time(b, run_bytes=2048) > d.gemv_time(b)

    def test_migration_uses_dimm_link(self):
        d = default_dimm()
        assert d.migration_time(25e9) == pytest.approx(
            d.link.transfer_time(25e9)
        )

    def test_with_multipliers_changes_compute(self):
        d = default_dimm()
        fast = d.with_multipliers(512)
        b = 100 * 2**20
        assert fast.gemv_time(b, batch=16) < d.gemv_time(b, batch=16)


#: byte loads for the vectorized kernels: exact zeros among values from
#: 1 B to 10 GB, whole and fractional
KERNEL_BYTES = np.concatenate((
    [0.0, 1.0, 0.0, 2.0, 3.0, 1023.5],
    np.geomspace(1.0, 1e10, 41),
    [0.0, 4096.0, 1.5 * 2**30, 7_654_321.25, 1e10],
))


class TestBatchKernels:
    @pytest.mark.parametrize("gpu", sorted(GPU_REGISTRY))
    @pytest.mark.parametrize("batch", [1, 3, 16])
    @pytest.mark.parametrize("scattered", [False, True])
    def test_batch_kernels_equal_scalar_twins(self, gpu, batch, scattered):
        """``GPUSpec.matmul_time_batch`` and ``NDPCore.gemv_time_batch``
        equal ``matmul_time`` and ``gemv_time`` element for element; a
        scattered NDP stream runs at the derated run-length bandwidth."""
        spec = GPU_REGISTRY[gpu]
        got = spec.matmul_time_batch(KERNEL_BYTES, batch,
                                     scattered=scattered)
        assert got.tolist() == [
            spec.matmul_time(b, batch, scattered=scattered)
            for b in KERNEL_BYTES.tolist()]
        dimm = default_dimm()
        bandwidth = (dimm.effective_stream_bandwidth(2048.0) if scattered
                     else dimm.internal_bandwidth)
        got = dimm.core.gemv_time_batch(KERNEL_BYTES, bandwidth, batch)
        assert got.tolist() == [
            dimm.core.gemv_time(b, bandwidth, batch)
            for b in KERNEL_BYTES.tolist()]


class TestMachine:
    def test_default_matches_paper_platform(self, machine):
        assert machine.gpu is RTX_4090
        assert machine.num_dimms == 8
        assert machine.dimm_capacity_total == 8 * 32 * 2**30

    def test_pool_bandwidth_aggregates(self, machine):
        assert machine.dimm_bandwidth_total == pytest.approx(
            8 * machine.dimm.internal_bandwidth
        )

    def test_fits_on_dimms(self, machine):
        assert machine.fits_on_dimms(100 * 2**30)
        assert not machine.fits_on_dimms(300 * 2**30)

    def test_with_dimms(self, machine):
        assert machine.with_dimms(16).num_dimms == 16
        with pytest.raises(ValueError):
            machine.with_dimms(0)

    def test_with_gpu(self, machine):
        assert machine.with_gpu(TESLA_T4).gpu is TESLA_T4

    def test_with_multipliers(self, machine):
        m = machine.with_multipliers(64)
        assert m.dimm.core.gemv.multipliers == 64


class TestCostModel:
    def test_hermes_box_is_about_5_percent_of_server(self, machine):
        """§V-F: ~$2,500 vs ~$50,000."""
        ratio = machine_cost_usd(machine) / server_cost_usd()
        assert 0.03 < ratio < 0.08

    def test_server_cost_scales(self):
        assert server_cost_usd(10) == 2 * server_cost_usd(5)
        with pytest.raises(ValueError):
            server_cost_usd(0)
