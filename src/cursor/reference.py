"""The committed desk-scale reference configuration.

One fixed generator setup (32-D latents, 64-D responses, N=3000 as 1000
short trajectories of 3 points each, acquisition capped at distance 15)
whose noise level was pinned by a pre-registered calibration run; the
calibration log with per-seed numbers lives in
scripts/reference_calibration.json and the constants below must match it.

The helpers here fix only a trial's seeds and plan sections.  The response
model, dataset, score config and recovery come from the same
cursor.experiments builders that plans and the CLI use, so run_trial, the
one reference battery, runs the code of `cursor generate`, `optimize` and
`ablate`: the calibration script writes its rows to that log, and the
acceptance suite checks them against it.

Hypothesis sets keep the full uniform radius (hypothesis_d_max) even though
acquisition trajectories stay close to the target: candidates are judged
over the whole plausible region while the data concentrates where the
distance signal is strongest.
"""

from __future__ import annotations

import time

import numpy as np

from .estimators import EstimatorSpec
from .experiments import (
    DEFAULT_PLAN,
    draw_dataset,
    recover,
    recover_labels,
    response_model,
    score_config,
)
from .latent import ACQUISITION_D_MAX, LatentPoint
from .pca import pca_inverse, pca_transform
from .ranking import build_hypothesis_set, rank_report
from .scoring import ScoreConfig
from .synth import ResponseModel
from ._util import derive_seed

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


def _generator(r: dict) -> dict:
    """REFERENCE's flat keys as a plan "generator" section."""
    return {**r, "link": {"kind": r["link_kind"], "tau": r["link_tau"]}}


def reference_model(noise_sigma: float | None = None) -> ResponseModel:
    """The shared response model; noise_sigma overridable for calibration."""
    r = REFERENCE if noise_sigma is None else {**REFERENCE, "noise_sigma": noise_sigma}
    return response_model(_generator(r), REFERENCE["master_seed"])


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
    seeds = trial_seeds(trial)
    ds = draw_dataset(_generator({**REFERENCE, **overrides}),
                      reference_model() if model is None else model,
                      [seeds["target"]], seeds["acquisition"])
    return ds, ds.truth.target


def reference_score_config(trial: int, kind: str = "ols",
                           shuffle_aligned: bool = False) -> ScoreConfig:
    seeds = trial_seeds(trial)
    sections = {
        "cv": {"n_folds": REFERENCE["n_folds"], "train_fraction": REFERENCE["train_fraction"]},
        "scoring": DEFAULT_PLAN["scoring"],
    }
    return score_config(sections, EstimatorSpec(kind=kind), shuffle_aligned,
                        seeds["cv"], seeds["perm"])


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
    rep_wo = rank_report(ds, hset_wo, config("ols"))
    row["comparator_d_top"] = rep_wo.d_top_rank

    for label in _CONDITIONS:
        zhat, trace, _, pca_z = recover(DEFAULT_PLAN["optimization"], ds, config(label),
                                        trial_seeds(trial)["cma"])
        distance = float(np.linalg.norm(zhat.coords - target.coords))
        _, metrics = recover_labels(ds, zhat)
        if label == "ols":
            proj = pca_inverse(pca_z, pca_transform(pca_z, target.coords))
            row["pca_floor"] = float(np.linalg.norm(proj - target.coords))
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
