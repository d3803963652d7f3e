"""Predictor evaluation (paper §IV-C1 claims).

* accuracy ~98 % with <1 MB of state — the LLaMA-7B neuron state table
  costs exactly 232 KB (4 bits x 32 layers x 14.8K neurons);
* against Deja Vu's MLP predictors: ~2 GB of weights and 10-25 % of
  LLaMA-7B inference runtime.
"""

from __future__ import annotations

from ..baselines import DejaVu
from ..core import ActivationPredictor, PredictorConfig
from ..models import get_model
from .common import ExperimentResult, default_machine, trace_for

MODELS = ("LLaMA-7B", "OPT-13B", "LLaMA2-70B")
PAPER_ACCURACY = 0.98
PAPER_STATE_TABLE_KB = {"LLaMA-7B": 232}


def evaluate(model_name: str, quick: bool = False) -> dict:
    """Replay a trace through the predictor and collect its statistics."""
    trace = trace_for(model_name, quick=quick)
    predictor = ActivationPredictor(trace.layout, PredictorConfig())
    predictor.initialize(trace)
    for t in trace.decode_tokens():
        actuals = trace.active_matrix(t)
        predictor.observe_all(actuals, predictor.predict_all(actuals))
    stats = predictor.stats
    table_kb = predictor.state_table_bytes() / 1024
    corr_kb = (predictor.correlation.table_bytes() / 1024
               if predictor.correlation else 0.0)
    return {
        "accuracy": stats.accuracy,
        "recall": stats.recall,
        "precision": stats.precision,
        "state_table_kb": table_kb,
        "correlation_table_kb": corr_kb,
    }


def run(quick: bool = False) -> ExperimentResult:
    rows = []
    for model_name in MODELS:
        stats = evaluate(model_name, quick=quick)
        rows.append([
            model_name,
            round(stats["accuracy"], 3),
            round(stats["recall"], 3),
            round(stats["precision"], 3),
            round(stats["state_table_kb"], 1),
            PAPER_STATE_TABLE_KB.get(model_name, ""),
        ])
    # contrast with Deja Vu's MLP predictors on LLaMA-7B-class geometry
    machine = default_machine()
    dejavu = DejaVu(machine, get_model("LLaMA-7B"))
    mlp_gb = (
        dejavu.predictor_bytes_per_layer() * dejavu.model.num_layers / 2**30
    )
    return ExperimentResult(
        name="predictor",
        description="lightweight predictor accuracy and footprint",
        headers=["model", "accuracy", "recall", "precision",
                 "state table KB", "paper KB"],
        rows=rows,
        notes=[
            f"paper: ~{PAPER_ACCURACY:.0%} accuracy with <1 MB of state "
            "(the synthetic trace's resampling noise bounds ours slightly "
            "lower; see EXPERIMENTS.md)",
            f"Deja Vu MLP predictors for LLaMA-7B: {mlp_gb:.2f} GiB of "
            "weights (paper: ~2 GB, 10-25% runtime overhead)",
        ],
    )


if __name__ == "__main__":  # pragma: no cover
    print(run().to_text())
