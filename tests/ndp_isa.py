"""NDP command stream: the test oracle for the NDP core model (§IV-A1).

Hermes drives the NDP-DIMMs through extra memory commands (MAC, softmax,
merge, ...) issued by the host scheduler through the instruction queue.
This module models that interface explicitly: operators are lowered to
command streams, and :class:`NDPExecutor` retires the stream against a
two-stage pipeline (DRAM row reads double-buffered with bit-serial MACs).

The executor is the micro-architectural counterpart of the closed-form
:meth:`repro.ndp.core.NDPCore.gemv_time` that the engine runs in its hot
loops; ``tests/test_extensions.py`` checks that the two agree.
"""

from __future__ import annotations

import dataclasses
import typing

from repro.ndp import ActivationUnit, GEMVUnit


@dataclasses.dataclass(frozen=True)
class RowRead:
    """Stream ``num_bytes`` of weights from the DRAM arrays into the
    center buffer."""

    num_bytes: int

    def __post_init__(self) -> None:
        if self.num_bytes <= 0:
            raise ValueError("num_bytes must be positive")


@dataclasses.dataclass(frozen=True)
class Mac:
    """Multiply-accumulate ``weight_bytes`` of FP16 weights against
    ``batch`` activation vectors."""

    weight_bytes: int
    batch: int = 1

    def __post_init__(self) -> None:
        if self.weight_bytes <= 0:
            raise ValueError("weight_bytes must be positive")
        if self.batch < 1:
            raise ValueError("batch must be >= 1")


@dataclasses.dataclass(frozen=True)
class Softmax:
    """Softmax over ``n_values`` logits on the activation unit."""

    n_values: int

    def __post_init__(self) -> None:
        if self.n_values <= 0:
            raise ValueError("n_values must be positive")


@dataclasses.dataclass(frozen=True)
class Merge:
    """Merge kernel combining GPU and DIMM partial results (§IV-A2)."""

    n_values: int

    def __post_init__(self) -> None:
        if self.n_values <= 0:
            raise ValueError("n_values must be positive")


@dataclasses.dataclass(frozen=True)
class LinkSend:
    """Ship ``num_bytes`` to a neighbouring DIMM over the DIMM-link."""

    num_bytes: int

    def __post_init__(self) -> None:
        if self.num_bytes <= 0:
            raise ValueError("num_bytes must be positive")


Command = typing.Union[RowRead, Mac, Softmax, Merge, LinkSend]


def lower_gemv(
    weight_bytes: int, batch: int = 1, *, chunk_bytes: int = 8192
) -> list[Command]:
    """Lower a sparse GEMV into an interleaved RowRead/MAC stream.

    Weights stream row by row (8 KB DRAM rows by default); each read is
    paired with the MAC that consumes it, which is what lets the executor
    double-buffer the two.
    """
    if weight_bytes <= 0:
        raise ValueError("weight_bytes must be positive")
    if chunk_bytes <= 0:
        raise ValueError("chunk_bytes must be positive")
    stream: list[Command] = []
    remaining = weight_bytes
    while remaining > 0:
        chunk = min(chunk_bytes, remaining)
        stream.append(RowRead(chunk))
        stream.append(Mac(chunk, batch))
        remaining -= chunk
    return stream


def lower_attention(
    kv_bytes: int, context_len: int, num_heads: int, batch: int = 1
) -> list[Command]:
    """Lower one decode attention step over a KV shard."""
    if kv_bytes <= 0:
        raise ValueError("kv_bytes must be positive")
    stream = lower_gemv(kv_bytes, batch)
    for _ in range(num_heads * batch):
        stream.append(Softmax(context_len))
    return stream


class NDPExecutor:
    """Retire a command stream on one NDP-DIMM.

    RowReads occupy the DRAM-stream pipe; MACs occupy the GEMV unit; the
    two stages are double-buffered, so a MAC may start once its paired
    read has finished and the unit is free.  Softmax/merge run on the
    activation unit after the data they consume; link sends overlap
    nothing (they leave the DIMM).
    """

    def __init__(
        self,
        *,
        stream_bandwidth: float,
        gemv: GEMVUnit | None = None,
        activation: ActivationUnit | None = None,
        link_bandwidth: float = 25e9,
    ) -> None:
        if stream_bandwidth <= 0 or link_bandwidth <= 0:
            raise ValueError("bandwidths must be positive")
        self.stream_bandwidth = stream_bandwidth
        self.gemv = gemv or GEMVUnit()
        self.activation = activation or ActivationUnit()
        self.link_bandwidth = link_bandwidth

    def execute(self, stream: list[Command]) -> float:
        """Seconds to retire ``stream``; raises on unknown commands."""
        read_done = 0.0   # when the last issued RowRead finishes
        unit_free = 0.0   # when the GEMV unit frees up
        act_free = 0.0    # when the activation unit frees up
        finish = 0.0
        for command in stream:
            if isinstance(command, RowRead):
                read_done = (max(read_done, 0.0)
                             + command.num_bytes / self.stream_bandwidth)
                finish = max(finish, read_done)
            elif isinstance(command, Mac):
                start = max(read_done, unit_free)
                unit_free = start + self.gemv.compute_time(
                    command.weight_bytes, command.batch
                )
                finish = max(finish, unit_free)
            elif isinstance(command, Softmax):
                start = max(act_free, unit_free)
                act_free = start + self.activation.softmax_time(
                    command.n_values
                )
                finish = max(finish, act_free)
            elif isinstance(command, Merge):
                start = max(act_free, unit_free)
                act_free = start + self.activation.relu_time(command.n_values)
                finish = max(finish, act_free)
            elif isinstance(command, LinkSend):
                finish = max(finish, unit_free) \
                    + command.num_bytes / self.link_bandwidth
            else:
                raise TypeError(f"unknown NDP command {command!r}")
        return finish
