"""Self-calibrating recovery of a hidden latent target from noisy responses.

The score of a hypothesis is the ratio of shuffled-control prediction error
to aligned prediction error for an estimator mapping responses to
hypothesis-induced distances; ranking, CMA-ES search, and the synthetic
response simulator build on that primitive.
"""

from .latent import LatentPoint
from .synth import Link, generate_dataset, make_response_model
from .dataset import EpochTensor, dataset_from_arrays, load_dataset, save_dataset, window_epoch
from .estimators import CvConfig, EstimatorSpec
from .scoring import HypothesisScorer, ScoreConfig, score, score_batch
from .ranking import build_hypothesis_set, rank_report
from .pca import load_pca, pca_fit, pca_inverse, pca_transform, save_pca
from .optimize import CmaConfig, cmaes_maximize, recover_target
from .experiments import (
    load_plan,
    plan_from_dict,
    recover_labels,
    run_ablation,
    run_plan,
    run_size_sweep,
)

__version__ = "0.1.0"

# The entry points documented in README.md, plus the types needed to call them.
__all__ = [
    "CmaConfig",
    "CvConfig",
    "EpochTensor",
    "EstimatorSpec",
    "HypothesisScorer",
    "LatentPoint",
    "Link",
    "ScoreConfig",
    "build_hypothesis_set",
    "cmaes_maximize",
    "dataset_from_arrays",
    "generate_dataset",
    "load_dataset",
    "load_pca",
    "load_plan",
    "make_response_model",
    "pca_fit",
    "pca_inverse",
    "pca_transform",
    "plan_from_dict",
    "rank_report",
    "recover_labels",
    "recover_target",
    "run_ablation",
    "run_plan",
    "run_size_sweep",
    "save_dataset",
    "save_pca",
    "score",
    "score_batch",
    "window_epoch",
]
