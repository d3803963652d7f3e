"""Predictor playground: inspect the lightweight activation predictor.

Replays a LLaMA-7B activation trace through the state-table + correlation
predictor (§IV-C1), comparing the three prediction modes the ablation of
Figure 13 uses, and contrasts the footprint with Deja Vu's MLP predictors.

Run with::

    python examples/predictor_playground.py
"""

from repro.api import (
    ActivationPredictor,
    DejaVu,
    Machine,
    PredictorConfig,
    TraceConfig,
    generate_trace,
    get_model,
)

MODES = {
    "token + layer (Hermes)": PredictorConfig(),
    "token-wise only": PredictorConfig(use_layer_prediction=False),
    "layer-wise only": PredictorConfig(use_token_prediction=False),
}


def replay(trace, config: PredictorConfig) -> ActivationPredictor:
    predictor = ActivationPredictor(trace.layout, config)
    predictor.initialize(trace)
    for t in trace.decode_tokens():
        actuals = trace.active_matrix(t)
        predictor.observe_all(actuals, predictor.predict_all(actuals))
    return predictor


def main() -> None:
    model = get_model("LLaMA-7B")
    trace = generate_trace(
        model,
        TraceConfig(prompt_len=128, decode_len=128, granularity=32),
        seed=7,
    )
    print(f"{model.describe()}\n")

    print(f"{'mode':26s}{'accuracy':>10s}{'recall':>9s}{'precision':>11s}")
    for name, config in MODES.items():
        predictor = replay(trace, config)
        stats = predictor.stats
        print(f"{name:26s}{stats.accuracy:>10.3f}{stats.recall:>9.3f}"
              f"{stats.precision:>11.3f}")

    predictor = replay(trace, PredictorConfig())
    state_kb = predictor.state_table_bytes() / 1024
    corr_kb = predictor.correlation.table_bytes() / 1024
    dejavu = DejaVu(Machine(), model)
    mlp_mb = (dejavu.predictor_bytes_per_layer() * model.num_layers / 2**20)
    print(f"\nfootprints: state table {state_kb:.0f} KB (paper: 232 KB), "
          f"correlation table {corr_kb:.0f} KB")
    print(f"Deja Vu MLP predictors for the same model: {mlp_mb:.0f} MB "
          "(paper: ~2 GB, 10-25% of runtime)")


if __name__ == "__main__":
    main()
