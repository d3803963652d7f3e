"""The default activation trace the serving backends execute against.

Activation ground truth comes from one shared trace per model.  The engine
models a batch as one activation stream plus the batch-union inflation
factor (paper §V-C), so a single trace faithfully stands in for the
concurrent sequences; a backend's cursor cycles over the decode region.
The backends themselves live in :mod:`repro.serving.backends`.
"""

from __future__ import annotations

import functools

from ..models import ModelSpec
from ..sparsity import ActivationTrace, TraceConfig, generate_trace

#: default shared-trace shape for backends created without a trace
DEFAULT_TRACE_PROMPT = 64
DEFAULT_TRACE_DECODE = 64


@functools.lru_cache(maxsize=8)
def _default_trace_cached(
    model: ModelSpec, granularity: int, seed: int
) -> ActivationTrace:
    config = TraceConfig(
        prompt_len=DEFAULT_TRACE_PROMPT,
        decode_len=DEFAULT_TRACE_DECODE,
        granularity=granularity,
    )
    return generate_trace(model, config, seed=seed)


def default_serving_trace(
    model: ModelSpec, *, granularity: int = 64, seed: int = 7
) -> ActivationTrace:
    """A compact activation trace sized for long serving runs.

    Memoised per (model, granularity, seed): trace generation is fully
    deterministic and the engine treats traces as immutable, so repeated
    simulator constructions (benchmark loops, sweep grids) share one
    instance instead of re-sampling it every run.
    """
    return _default_trace_cached(model, granularity, seed)
