"""Shared harness for the paper-reproduction experiments.

Every ``figXX`` module exposes ``run(quick=False) -> ExperimentResult``.
``quick`` shortens the decode window so the pytest-benchmark targets finish
fast; full runs use the paper's 128-token input/output configuration
(§V-A4).  Traces are cached per (model, shape, seed) because generating a
70B-scale trace dominates wall time.
"""

from __future__ import annotations

import dataclasses
import functools
import math

from ..hardware import Machine
from ..models import ModelSpec, get_model
from ..sparsity import ActivationTrace, TraceConfig, generate_trace

#: the paper keeps both sequence lengths at 128 (§V-A4)
PROMPT_LEN = 128
DECODE_LEN = 128
QUICK_DECODE_LEN = 32
DEFAULT_SEED = 7

#: tracking granularity per model scale: fine for small models, coarser for
#: the 40B-70B class so traces stay in the tens of MB
GRANULARITY = {
    "tiny-test": 4,
    "LLaMA-7B": 32,
    "LLaMA2-7B": 32,
    "OPT-13B": 32,
    "LLaMA-13B": 32,
    "LLaMA2-13B": 32,
    "OPT-30B": 64,
    "Falcon-40B": 64,
    "OPT-66B": 64,
    "LLaMA2-70B": 64,
}


def granularity_for(model: ModelSpec) -> int:
    return GRANULARITY.get(model.name, 64)


#: A 70B-scale trace runs to tens of MB (one token-major activation
#: array), so the cache holds just a few entries — enough for one
#: experiment's model list plus the quick/full variants of the model a
#: test suite hammers, without pinning every model ever touched.
TRACE_CACHE_SIZE = 4


@functools.lru_cache(maxsize=TRACE_CACHE_SIZE)
def _cached_trace(
    model_name: str,
    prompt_len: int,
    decode_len: int,
    granularity: int,
    seed: int,
) -> ActivationTrace:
    model = get_model(model_name)
    config = TraceConfig(
        prompt_len=prompt_len, decode_len=decode_len, granularity=granularity
    )
    return generate_trace(model, config, seed=seed)


def clear_trace_cache() -> None:
    """Drop every cached trace.

    The bench harness calls this between timed runs so a measurement
    neither reuses a predecessor's working set nor charges trace
    generation to the wrong phase; long-lived driver processes can call
    it to release 70B-scale traces eagerly.
    """
    _cached_trace.cache_clear()


def trace_for(
    model_name: str, *, quick: bool = False, seed: int = DEFAULT_SEED
) -> ActivationTrace:
    """The standard experiment trace for one model (cached)."""
    model = get_model(model_name)
    decode = QUICK_DECODE_LEN if quick else DECODE_LEN
    return _cached_trace(
        model.name, PROMPT_LEN, decode, granularity_for(model), seed
    )


def default_machine() -> Machine:
    """The paper's evaluation platform: RTX 4090 + 8 NDP-DIMMs (§V-A1)."""
    return Machine()


@dataclasses.dataclass
class ExperimentResult:
    """A reproduced table/figure: headers + rows + free-form notes."""

    name: str
    description: str
    headers: list[str]
    rows: list[list]
    notes: list[str] = dataclasses.field(default_factory=list)

    def to_text(self) -> str:
        """Render as an aligned text table (the benchmark harness output)."""
        def fmt(cell) -> str:
            if cell is None:
                return "N.P."
            if isinstance(cell, float) and math.isnan(cell):
                return "—"  # no data (e.g. a class with no completions)
            if isinstance(cell, float):
                return f"{cell:.3g}" if abs(cell) < 1000 else f"{cell:.0f}"
            return str(cell)

        table = [self.headers] + [[fmt(c) for c in row] for row in self.rows]
        widths = [
            max(len(row[i]) for row in table) for i in range(len(self.headers))
        ]
        lines = [f"== {self.name}: {self.description} =="]
        for r, row in enumerate(table):
            lines.append(
                "  ".join(cell.rjust(w) for cell, w in zip(row, widths))
            )
            if r == 0:
                lines.append("  ".join("-" * w for w in widths))
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)

    def to_json(self) -> dict:
        """Machine-readable form (the CLI's ``--json``).

        Cells pass through verbatim except ``nan``, which becomes
        ``null`` — JSON has no ``NaN`` and downstream parsers reject
        the Python extension spelling.  ``None`` cells (rendered
        "N.P." in the table) stay ``null``; the table remains the
        place where the two are distinguished.
        """
        def cell(c):
            if isinstance(c, float) and math.isnan(c):
                return None
            return c

        return {
            "name": self.name,
            "description": self.description,
            "headers": list(self.headers),
            "rows": [[cell(c) for c in row] for row in self.rows],
            "notes": list(self.notes),
        }

    def column(self, header: str) -> list:
        """Extract one column by header name (used by assertions)."""
        idx = self.headers.index(header)
        return [row[idx] for row in self.rows]


def geometric_mean(values: list[float]) -> float:
    """Geometric mean, the paper's averaging convention for speedups."""
    if not values:
        raise ValueError("geometric_mean of empty sequence")
    product = 1.0
    for v in values:
        if v <= 0:
            raise ValueError("geometric_mean requires positive values")
        product *= v
    return product ** (1.0 / len(values))
