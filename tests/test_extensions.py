"""Tests for the NDP command-stream oracle and the core model it checks."""

import pytest

from repro.ndp import NDPCore

from .ndp_isa import (
    LinkSend,
    Mac,
    Merge,
    NDPExecutor,
    RowRead,
    Softmax,
    lower_attention,
    lower_gemv,
)

STREAM_BW = 102.4e9


@pytest.fixture
def executor():
    return NDPExecutor(stream_bandwidth=STREAM_BW)


class TestLowering:
    def test_gemv_chunks_cover_all_bytes(self):
        stream = lower_gemv(20_000, chunk_bytes=8192)
        reads = [c for c in stream if isinstance(c, RowRead)]
        assert sum(c.num_bytes for c in reads) == 20_000

    def test_gemv_pairs_reads_with_macs(self):
        stream = lower_gemv(16384)
        kinds = [type(c) for c in stream]
        assert kinds == [RowRead, Mac, RowRead, Mac]

    def test_attention_includes_per_head_softmax(self):
        stream = lower_attention(8192, context_len=128, num_heads=4, batch=2)
        softmaxes = [c for c in stream if isinstance(c, Softmax)]
        assert len(softmaxes) == 8

    def test_command_validation(self):
        with pytest.raises(ValueError):
            RowRead(0)
        with pytest.raises(ValueError):
            Mac(10, batch=0)
        with pytest.raises(ValueError):
            Softmax(0)
        with pytest.raises(ValueError):
            Merge(-1)
        with pytest.raises(ValueError):
            LinkSend(0)
        with pytest.raises(ValueError):
            lower_gemv(0)


class TestExecutor:
    @pytest.mark.parametrize("batch", [1, 2, 4, 16])
    def test_matches_analytic_core_model(self, executor, batch):
        """The micro-architectural executor validates NDPCore.gemv_time."""
        core = NDPCore()
        weight_bytes = 64 * 2**20
        analytic = core.gemv_time(weight_bytes, STREAM_BW, batch=batch)
        micro = executor.execute(lower_gemv(weight_bytes, batch=batch))
        assert micro == pytest.approx(analytic, rel=0.02)

    def test_memory_bound_stream_hides_compute(self, executor):
        """At batch 1 the MAC pipeline hides behind the row stream."""
        stream = lower_gemv(8 * 2**20, batch=1)
        t = executor.execute(stream)
        assert t == pytest.approx(8 * 2**20 / STREAM_BW, rel=0.02)

    def test_link_send_serialises_after_compute(self, executor):
        base = executor.execute(lower_gemv(2**20))
        with_send = executor.execute(
            lower_gemv(2**20) + [LinkSend(25_000_000)]
        )
        assert with_send == pytest.approx(base + 1e-3, rel=0.05)

    def test_merge_after_macs(self, executor):
        stream = lower_gemv(2**20) + [Merge(8192)]
        assert executor.execute(stream) > executor.execute(lower_gemv(2**20))

    def test_unknown_command_rejected(self, executor):
        with pytest.raises(TypeError):
            executor.execute(["not a command"])

    def test_validation(self):
        with pytest.raises(ValueError):
            NDPExecutor(stream_bandwidth=0)
