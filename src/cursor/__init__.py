"""Self-calibrating recovery of a hidden latent target from noisy responses.

The score of a hypothesis is the ratio of shuffled-control prediction error
to aligned prediction error for an estimator mapping responses to
hypothesis-induced distances; ranking, CMA-ES search, and the synthetic
response simulator build on that primitive.

Importing the package loads none of its modules, numpy included: each name
below is imported from its module on first access (PEP 562), so the command
line can choose BLAS threading before numpy loads.
"""

import importlib

__version__ = "0.1.0"

# The entry points documented in README.md, plus the types needed to call
# them, each with the module that defines it.
_EXPORTS = {
    "CmaConfig": "optimize",
    "CvConfig": "estimators",
    "EpochTensor": "dataset",
    "EstimatorSpec": "estimators",
    "HypothesisScorer": "scoring",
    "LatentPoint": "latent",
    "Link": "synth",
    "ScoreConfig": "scoring",
    "build_hypothesis_set": "ranking",
    "cmaes_maximize": "optimize",
    "dataset_from_arrays": "dataset",
    "generate_dataset": "synth",
    "load_dataset": "dataset",
    "load_pca": "pca",
    "load_plan": "experiments",
    "make_response_model": "synth",
    "pca_fit": "pca",
    "pca_inverse": "pca",
    "pca_transform": "pca",
    "plan_from_dict": "experiments",
    "rank_report": "ranking",
    "recover_labels": "experiments",
    "recover_target": "optimize",
    "run_ablation": "experiments",
    "run_plan": "experiments",
    "run_size_sweep": "experiments",
    "save_dataset": "dataset",
    "save_pca": "pca",
    "score": "scoring",
    "score_batch": "scoring",
    "window_epoch": "dataset",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value
