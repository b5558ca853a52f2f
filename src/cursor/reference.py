"""The committed desk-scale reference configuration.

One fixed generator setup (32-D latents, 64-D responses, N=3000 as 1000
short trajectories of 3 points each, acquisition capped at distance 15)
whose noise level was pinned by a pre-registered calibration run; the
calibration log with per-seed numbers lives in
scripts/reference_calibration.json and the constants below must match it.
Reproduction experiments and the acceptance suite build their trials
exclusively through these helpers so that every consumer sees the same
seeds.  run_trial is the one reference battery: the calibration script
writes its rows to that log, and the acceptance suite checks them against it.

Hypothesis sets keep the full uniform radius (hypothesis_d_max) even though
acquisition trajectories stay close to the target: candidates are judged
over the whole plausible region while the data concentrates where the
distance signal is strongest.
"""

from __future__ import annotations

import time

import numpy as np

from .estimators import CvConfig, EstimatorSpec
from .experiments import recover_labels
from .latent import ACQUISITION_D_MAX, LatentPoint
from .optimize import CmaConfig, recover_target
from .pca import default_latent_k, default_response_k, pca_fit, pca_inverse, pca_transform
from .ranking import build_hypothesis_set, rank_report
from .scoring import ScoreConfig
from .synth import Link, ResponseModel, generate_dataset, make_response_model
from ._util import derive_rng, derive_seed

__all__ = [
    "REFERENCE",
    "reference_dataset",
    "reference_hypothesis_set",
    "reference_model",
    "reference_score_config",
    "run_trial",
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


# label -> (estimator kind, shuffle_aligned): the OLS objective and its two
# controls, a shuffled-aligned OLS and a dummy mean that carry no signal.
_CONDITIONS = {
    "ols": ("ols", False),
    "slr": ("ols", True),
    "dummy": ("dummy_mean", False),
}


def run_trial(trial: int, model: ResponseModel | None = None,
              **geometry) -> tuple[dict, dict]:
    """One trial of the reference battery behind acceptance criteria 6, 7 and 9.

    Ranks the with-target hypothesis set under OLS and both controls, ranks
    the no-target set under OLS as the comparator, recovers the target by
    CMA-ES over PCA-reduced coordinates under OLS and both controls, and
    reconstructs the distance labels from each recovered point.  geometry
    overrides reference_dataset's acquisition geometry (trajectories,
    points, d_max) and is echoed in the row.

    Returns (row, seconds): row is the trial record of
    scripts/reference_calibration.json; seconds holds the wall time of
    "rank" (dataset generation and the three with-target rankings) and
    "recover" (everything after).
    """
    model = reference_model() if model is None else model
    t0 = time.perf_counter()
    ds, target = reference_dataset(trial, model=model, **geometry)
    row = {"trial": trial, "noise_sigma": model.noise_sigma, **geometry}

    def config(label):
        kind, shuffled = _CONDITIONS[label]
        return reference_score_config(trial, kind=kind, shuffle_aligned=shuffled)

    hset = reference_hypothesis_set(trial, target, include_target=True)
    for label in _CONDITIONS:
        rep = rank_report(ds, hset, config(label))
        row[f"{label}_r"] = rep.pearson_r
        row[f"{label}_rank"] = rep.target_rank
        row[f"{label}_d_top"] = rep.d_top_rank
    t_rank = time.perf_counter()

    hset_wo = reference_hypothesis_set(trial, target, include_target=False)
    rep_wo = rank_report(ds, hset_wo, config("ols"), true_target=target)
    row["comparator_d_top"] = rep_wo.d_top_rank

    k_z = default_latent_k(REFERENCE["latent_dim"])
    pca_e = pca_fit(ds.responses, default_response_k(REFERENCE["response_dim"]))
    pca_z = pca_fit(ds.stimuli, k_z)
    proj = pca_inverse(pca_z, pca_transform(pca_z, target.coords))
    row["pca_floor"] = float(np.linalg.norm(proj - target.coords))

    cma = CmaConfig(dim=k_z, max_evaluations=1000, seed=trial_seeds(trial)["cma"])
    for label in _CONDITIONS:
        zhat, trace = recover_target(ds, config(label), cma, pca_e, pca_z)
        distance = float(np.linalg.norm(zhat.coords - target.coords))
        _, metrics = recover_labels(ds, zhat)
        if label == "ols":
            row["recovered_distance"] = distance
            row["recovery_beats_comparator"] = distance <= row["comparator_d_top"]
            row["recovery_beats_with_target"] = distance <= row["ols_d_top"]
            row["label_rmse"] = metrics["rmse"]
            row["label_rmse_pct"] = metrics["rmse_pct_of_range"]
        else:
            row[f"{label}_recovered_distance"] = distance
            row[f"{label}_label_rmse"] = metrics["rmse"]
            row[f"{label}_incumbent_improvement"] = _incumbent_improvement(trace)
    return row, {"rank": t_rank - t0, "recover": time.perf_counter() - t_rank}


def _incumbent_improvement(trace) -> float:
    """Relative drop, (first - last) / first, of the true distance of a trace's
    best-so-far finite candidate; near 0 when the objective carries no signal."""
    first_d = next((ev.distance for ev in trace.evaluations if not ev.nonfinite), None)
    if first_d in (None, 0.0):
        return 0.0
    return float((first_d - trace.best_distance) / first_d)
