"""Predictability score S(h) for hypothetical targets.

For a hypothesis h, pair every response with its induced distance d_i^h,
cross-validate an estimator on the aligned pairs and again on pairs whose
responses were shuffled by a seeded permutation, and return

    S(h) = rmse_shuffled / max(rmse_aligned, denom_floor).

Both branches consume identical fold splits, so an estimator that ignores
responses (dummy) scores exactly 1.  A HypothesisScorer caches everything
about (dataset, config) that does not depend on h: fold splits, permutations,
per-fold input scalers, and SVDs of the standardized response blocks.  Many
hypotheses can then be scored against one dataset at the cost of a target-side
solve each, which is what makes optimization over hypotheses affordable.
"""

from __future__ import annotations

import hashlib
import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from ._util import derive_seed
from .dataset import StimulusResponseDataset, draw_permutation, standardize_apply, standardize_fit
from .estimators import CvConfig, EstimatorSpec, cv_splits, rmse, solve_centered
from .latent import LatentPoint, as_point

__all__ = [
    "HypothesisScorer",
    "ScoreConfig",
    "ScoreReport",
    "report_to_json",
    "score",
    "score_batch",
]

RATIO_MODES = ("ratio_of_mean_rmses", "mean_of_fold_ratios")


@dataclass(frozen=True)
class ScoreConfig:
    estimator: EstimatorSpec = field(default_factory=EstimatorSpec)
    cv: CvConfig = field(default_factory=CvConfig)
    perm_seed: int = 0
    denom_floor: float = 1e-12
    ratio_mode: str = "ratio_of_mean_rmses"
    # Average the shuffled RMSE over this many independent permutations.
    n_shuffles: int = 1
    # Pre-shuffle the "aligned" branch too (the always-shuffling control).
    shuffle_aligned: bool = False

    def __post_init__(self):
        if self.denom_floor <= 0:
            raise ValueError("denom_floor must be positive")
        if self.ratio_mode not in RATIO_MODES:
            raise ValueError(f"ratio_mode must be one of {RATIO_MODES}")
        if self.n_shuffles < 1:
            raise ValueError("n_shuffles must be >= 1")


@dataclass(frozen=True, eq=False)
class ScoreReport:
    hypothesis: LatentPoint
    score: float
    rmse_aligned: float
    rmse_shuffled: float
    per_fold_aligned: tuple[float, ...]
    per_fold_shuffled: tuple[float, ...]
    seeds: dict
    splits_digest_aligned: str = ""
    splits_digest_shuffled: str = ""
    denominator_floored: bool = False
    degenerate_distances: bool = False
    error: str | None = None


def report_to_json(report: ScoreReport) -> str:
    """One JSON line per report, seeds included."""
    payload = {
        "hypothesis": [float(v) for v in report.hypothesis.coords],
        "score": report.score,
        "rmse_aligned": report.rmse_aligned,
        "rmse_shuffled": report.rmse_shuffled,
        "per_fold_aligned": list(report.per_fold_aligned),
        "per_fold_shuffled": list(report.per_fold_shuffled),
        "seeds": report.seeds,
        "splits_digest_aligned": report.splits_digest_aligned,
        "splits_digest_shuffled": report.splits_digest_shuffled,
        "denominator_floored": report.denominator_floored,
        "degenerate_distances": report.degenerate_distances,
        "error": report.error,
    }
    return json.dumps(payload, sort_keys=True)


def _splits_digest(splits) -> str:
    acc = hashlib.sha256()
    for train, val in splits:
        acc.update(np.asarray(train, dtype="<i8").tobytes())
        acc.update(b"|")
        acc.update(np.asarray(val, dtype="<i8").tobytes())
        acc.update(b";")
    return acc.hexdigest()[:16]


class _FoldCache:
    """Response-side work for one fold of one branch, reusable across h."""

    __slots__ = ("train", "val", "u", "s", "vt", "x_val_c")

    def __init__(self, rows, train, val, spec):
        self.train = train
        self.val = val
        if spec.kind == "dummy_mean":
            self.u = self.s = self.vt = self.x_val_c = None
            return
        x_train = rows[train]
        scaler = standardize_fit(x_train)
        xs = standardize_apply(x_train, *scaler)
        xm = xs.mean(axis=0)
        self.u, self.s, self.vt = np.linalg.svd(xs - xm, full_matrices=False)
        self.x_val_c = standardize_apply(rows[val], *scaler) - xm


class HypothesisScorer:
    """Scores many hypotheses against one dataset under one config."""

    def __init__(self, ds: StimulusResponseDataset, cfg: ScoreConfig):
        self.ds = ds
        self.cfg = cfg
        n = ds.n
        self.splits = cv_splits(cfg.cv, n)
        self.splits_digest = _splits_digest(self.splits)
        self.seeds = {
            "cv_seed": int(cfg.cv.seed),
            "perm_seed": int(cfg.perm_seed),
            "n_shuffles": int(cfg.n_shuffles),
            "aligned_control_seed": None,
        }

        if cfg.shuffle_aligned:
            control_seed = derive_seed(cfg.perm_seed, "aligned-control")
            self.seeds["aligned_control_seed"] = control_seed
            aligned_order = draw_permutation(n, control_seed)
        else:
            aligned_order = None
        shuffle_seeds = [cfg.perm_seed] + [
            derive_seed(cfg.perm_seed, "multi-shuffle", j) for j in range(1, cfg.n_shuffles)
        ]
        shuffled_orders = [draw_permutation(n, s) for s in shuffle_seeds]

        self._aligned = self._branch(aligned_order)
        self._shuffled = [self._branch(order) for order in shuffled_orders]

    def _branch(self, order):
        rows = self.ds.responses if order is None else self.ds.responses[order]
        return [_FoldCache(rows, tr, va, self.cfg.estimator) for tr, va in self.splits]

    def _branch_rmses(self, folds, d) -> list[float]:
        spec = self.cfg.estimator
        out = []
        for fold in folds:
            y_train = d[fold.train]
            means, stds = standardize_fit(y_train)
            t_mean, t_std = float(means[0]), float(stds[0])
            ys = (y_train - t_mean) / t_std
            ym = float(ys.mean())
            if spec.kind == "dummy_mean":
                pred_std = np.full(fold.val.shape[0], ym)
            else:
                w = solve_centered(spec.kind, spec.ridge_lambda, fold.u, fold.s, fold.vt, ys - ym)
                pred_std = fold.x_val_c @ w + ym
            out.append(rmse(pred_std * t_std + t_mean, d[fold.val]))
        return out

    def score_point(self, h) -> ScoreReport:
        h = as_point(h)
        if h.dim != self.ds.stimulus_dim:
            raise ValueError(f"dimension mismatch: {h.dim} vs {self.ds.stimulus_dim}")
        d = np.linalg.norm(self.ds.stimuli - h.coords, axis=1)

        per_fold_aligned = self._branch_rmses(self._aligned, d)
        shuffled_runs = [self._branch_rmses(folds, d) for folds in self._shuffled]
        per_fold_shuffled = [
            float(np.mean([run[f] for run in shuffled_runs])) for f in range(len(self.splits))
        ]

        floor = self.cfg.denom_floor
        rmse_aligned = float(np.mean(per_fold_aligned))
        rmse_shuffled = float(np.mean(per_fold_shuffled))
        if self.cfg.ratio_mode == "ratio_of_mean_rmses":
            floored = rmse_aligned < floor
            value = rmse_shuffled / max(rmse_aligned, floor)
        else:
            floored = any(a < floor for a in per_fold_aligned)
            value = float(
                np.mean([s / max(a, floor) for s, a in zip(per_fold_shuffled, per_fold_aligned)])
            )
        return ScoreReport(
            hypothesis=h,
            score=value,
            rmse_aligned=rmse_aligned,
            rmse_shuffled=rmse_shuffled,
            per_fold_aligned=tuple(per_fold_aligned),
            per_fold_shuffled=tuple(per_fold_shuffled),
            seeds=dict(self.seeds),
            splits_digest_aligned=self.splits_digest,
            splits_digest_shuffled=self.splits_digest,
            denominator_floored=bool(floored),
            degenerate_distances=bool(np.all(d == d[0])),
        )


def score(ds: StimulusResponseDataset, h, cfg: ScoreConfig) -> ScoreReport:
    """Score one hypothesis: shuffled-control RMSE over aligned RMSE."""
    return HypothesisScorer(ds, cfg).score_point(h)


def _batch_cfg(cfg: ScoreConfig, index: int) -> ScoreConfig:
    return replace(
        cfg,
        cv=replace(cfg.cv, seed=derive_seed(cfg.cv.seed, cfg.perm_seed, index, "batch-cv")),
        perm_seed=derive_seed(cfg.cv.seed, cfg.perm_seed, index, "batch-perm"),
    )


def _error_report(h, exc) -> ScoreReport:
    return ScoreReport(
        hypothesis=as_point(h),
        score=float("nan"),
        rmse_aligned=float("nan"),
        rmse_shuffled=float("nan"),
        per_fold_aligned=(),
        per_fold_shuffled=(),
        seeds={},
        error=f"{type(exc).__name__}: {exc}",
    )


def score_batch(ds: StimulusResponseDataset, hypotheses, cfg: ScoreConfig,
                worker_count: int = 1) -> list[ScoreReport]:
    """Score a list of hypotheses; output order matches input order.

    Every hypothesis gets its own seeds derived from (cfg seeds, index), so
    results are bitwise independent of worker_count and scheduling.  A failed
    hypothesis yields a report with an error marker instead of aborting.
    """
    hypotheses = [as_point(h) for h in hypotheses]
    if not hypotheses:
        raise ValueError("hypothesis list must be nonempty")
    if worker_count < 1:
        raise ValueError("worker_count must be >= 1")

    def one(pair):
        index, h = pair
        try:
            return score(ds, h, _batch_cfg(cfg, index))
        except Exception as exc:  # error marker, keep the batch going
            return _error_report(h, exc)

    items = list(enumerate(hypotheses))
    if worker_count == 1:
        return [one(item) for item in items]
    with ThreadPoolExecutor(max_workers=worker_count) as pool:
        return list(pool.map(one, items))
