"""The committed desk-scale reference configuration.

One fixed generator setup (32-D latents, 64-D responses, N=3000 as 1000
short trajectories of 3 points each, acquisition capped at distance 15)
whose noise level was pinned by a pre-registered calibration run; the
calibration log with per-seed numbers lives in
scripts/reference_calibration.json and the constants below must match it.
Reproduction experiments and the acceptance suite build their trials
exclusively through these helpers so that every consumer sees the same
seeds.

Hypothesis sets keep the full uniform radius (hypothesis_d_max) even though
acquisition trajectories stay close to the target: candidates are judged
over the whole plausible region while the data concentrates where the
distance signal is strongest.
"""

from __future__ import annotations

from .estimators import CvConfig, EstimatorSpec
from .latent import ACQUISITION_D_MAX, LatentPoint
from .ranking import build_hypothesis_set
from .scoring import ScoreConfig
from .synth import Link, ResponseModel, generate_dataset, make_response_model
from ._util import derive_rng, derive_seed

__all__ = [
    "REFERENCE",
    "incumbent_improvement",
    "reference_dataset",
    "reference_hypothesis_set",
    "reference_model",
    "reference_score_config",
    "trial_seeds",
]

# Pinned by scripts/calibrate_reference.py (see reference_calibration.json).
REFERENCE = {
    "latent_dim": 32,
    "response_dim": 64,
    "trajectories": 1000,
    "points": 3,
    "k_signal": 3,
    "signal_gain": 1.0,
    "noise_sigma": 2.0,
    "nuisance_rank": 8,
    "nuisance_gain": 1.0,
    "link_kind": "linear",
    "link_tau": 10.0,
    "d_min": 0.0,
    "d_max": 15.0,
    "spacing": "logarithmic",
    "hypothesis_count": 60,
    "hypothesis_d_max": ACQUISITION_D_MAX,
    "n_folds": 10,
    "train_fraction": 0.9,
    "master_seed": 777,
    "n_trials": 10,
}


def reference_model(noise_sigma: float | None = None) -> ResponseModel:
    """The shared response model; noise_sigma overridable for calibration."""
    r = REFERENCE
    return make_response_model(
        response_dim=r["response_dim"],
        k_signal=r["k_signal"],
        signal_gain=r["signal_gain"],
        noise_sigma=r["noise_sigma"] if noise_sigma is None else noise_sigma,
        nuisance_rank=r["nuisance_rank"],
        nuisance_gain=r["nuisance_gain"],
        link=Link(kind=r["link_kind"], tau=r["link_tau"]),
        seed=derive_seed(r["master_seed"], "response-model"),
    )


def trial_seeds(trial: int) -> dict:
    master = REFERENCE["master_seed"]
    return {
        "target": derive_seed(master, "trial", trial, "target"),
        "acquisition": derive_seed(master, "trial", trial, "acquisition"),
        "hypothesis_set": derive_seed(master, "trial", trial, "hypothesis-set"),
        "cv": derive_seed(master, "trial", trial, "cv"),
        "perm": derive_seed(master, "trial", trial, "perm"),
        "cma": derive_seed(master, "trial", trial, "cma"),
    }


def reference_dataset(trial: int, model: ResponseModel | None = None,
                      **overrides):
    """(dataset, target) for one reference trial; fresh target and noise.

    Keyword overrides (trajectories, points, d_max, ...) exist for the
    calibration script only; committed consumers use the pinned values.
    """
    r = dict(REFERENCE)
    r.update(overrides)
    seeds = trial_seeds(trial)
    target = LatentPoint(
        derive_rng(seeds["target"], "coords").standard_normal(r["latent_dim"]))
    ds = generate_dataset(
        targets=[target],
        trajectories_per_target=r["trajectories"],
        points_per_trajectory=r["points"],
        model=model if model is not None else reference_model(),
        master_seed=seeds["acquisition"],
        d_min=r["d_min"],
        d_max=r["d_max"],
        spacing=r["spacing"],
    )
    return ds, target


def reference_score_config(trial: int, kind: str = "ols",
                           shuffle_aligned: bool = False) -> ScoreConfig:
    r = REFERENCE
    seeds = trial_seeds(trial)
    return ScoreConfig(
        estimator=EstimatorSpec(kind=kind),
        cv=CvConfig(n_folds=r["n_folds"], train_fraction=r["train_fraction"],
                    seed=seeds["cv"]),
        perm_seed=seeds["perm"],
        shuffle_aligned=shuffle_aligned,
    )


def reference_hypothesis_set(trial: int, target: LatentPoint,
                             include_target: bool = True):
    r = REFERENCE
    return build_hypothesis_set(
        target, r["hypothesis_count"], r["hypothesis_d_max"],
        trial_seeds(trial)["hypothesis_set"], include_target=include_target,
    )


def incumbent_improvement(trace) -> float:
    """Relative drop, (first - last) / first, of the true distance of a trace's
    best-so-far finite candidate; near 0 when the objective carries no signal."""
    first_d, best_d, best_s = None, None, float("-inf")
    for ev in trace.evaluations:
        if not ev.nonfinite and ev.score > best_s:
            best_s, best_d = ev.score, ev.distance
            if first_d is None:
                first_d = ev.distance
    if first_d in (None, 0.0):
        return 0.0
    return float((first_d - best_d) / first_d)
