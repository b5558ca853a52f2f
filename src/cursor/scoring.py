"""Predictability score S(h) for hypothetical targets.

For a hypothesis h, pair every response with its induced distance d_i^h,
cross-validate an estimator on the aligned pairs and again on pairs whose
responses were shuffled by a seeded permutation, and return

    S(h) = rmse_shuffled / max(rmse_aligned, DENOM_FLOOR).

Both branches consume identical fold splits, so an estimator that ignores
responses (dummy) scores exactly 1.  A HypothesisScorer caches everything
about (dataset, config) that does not depend on h: fold splits, permutations
and one factorization per fold of the standardized training responses.  It
centers the responses once and forms their Gram matrix; a fold's training
Gram matrix is that minus its validation rows' share, so a fold costs an
eigendecomposition of a De x De matrix rather than an SVD of its N_train x De
rows, and a shuffled branch, which only reorders rows, copies none.  A fold
whose Gram matrix would lose accuracy (no more training rows than columns, a
constant column, or an ill-conditioned standardized Gram) takes the SVD of
its standardized rows instead.  Many hypotheses can then be scored against
one dataset at the cost of a target-side solve each, which is what makes
optimization over hypotheses affordable.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace

import numpy as np

from ._util import derive_seed
from .dataset import (
    STD_FLOOR,
    StimulusResponseDataset,
    draw_permutation,
    standardize_apply,
    standardize_fit,
)
from .estimators import CvConfig, EstimatorSpec, cv_splits, rmse, solve_centered, spectral_filter
from .latent import LatentPoint, as_point

__all__ = [
    "HypothesisScorer",
    "ScoreConfig",
    "ScoreReport",
    "report_to_json",
    "score",
    "score_batch",
]

# A fold is solved from its Gram matrix only when the standardized Gram's
# smallest eigenvalue exceeds this fraction of its largest.  Forming the Gram
# squares the condition number of the rows, so its rounding grows like
# (lambda_max / lambda_min) * eps, at most 1e3 * 2.2e-16 ~ 2e-13 here, which
# keeps S(h) within 1e-12 of the SVD of the rows.
GRAM_MIN_EIG_RATIO = 1e-3

# Only an exact aligned fit (rmse_aligned ~ eps) reaches this floor; it keeps
# S(h) finite there, and the report flags it as denominator_floored.
DENOM_FLOOR = 1e-12


@dataclass(frozen=True)
class ScoreConfig:
    estimator: EstimatorSpec = field(default_factory=EstimatorSpec)
    cv: CvConfig = field(default_factory=CvConfig)
    perm_seed: int = 0
    # Average the shuffled RMSE over this many independent permutations.
    n_shuffles: int = 1
    # Pre-shuffle the "aligned" branch too (the always-shuffling control).
    shuffle_aligned: bool = False

    def __post_init__(self):
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


class _Fold:
    """One fold of one branch; the dummy estimator needs nothing more."""

    __slots__ = ("val",)
    path = "mean"

    def __init__(self, val):
        self.val = val


class _FoldCache(_Fold):
    """SVD of one fold's standardized training rows, reusable across h."""

    __slots__ = ("u", "s", "vt", "x_val_c")
    path = "svd"

    def __init__(self, x_train, x_val, val):
        super().__init__(val)
        scaler = standardize_fit(x_train)
        xs = standardize_apply(x_train, *scaler)
        xm = xs.mean(axis=0)
        self.u, self.s, self.vt = np.linalg.svd(xs - xm, full_matrices=False)
        self.x_val_c = standardize_apply(x_val, *scaler) - xm


class _GramFold(_Fold):
    """Eigendecomposition of one fold's standardized training Gram matrix.

    rows are the response rows the fold trains on, in training order.  With
    Xs = U diag(s) V^T the standardized centered training rows, Xs^T Xs =
    V diag(s^2) V^T, so the SVD solve V diag(phi(s)) U^T yc equals
    V diag(phi(s) / s) V^T Xs^T yc, and Xs^T yc = X0[rows]^T yc / sigma.
    """

    __slots__ = ("rows", "sigma", "gain", "v", "x_val_c")
    path = "gram"

    def __init__(self, val, rows, sigma, gain, v, x_val_c):
        super().__init__(val)
        self.rows = rows
        self.sigma = sigma
        self.gain = gain
        self.v = v
        self.x_val_c = x_val_c

    def weights(self, g: np.ndarray) -> np.ndarray:
        """Standardized weights from g = X0[rows]^T yc."""
        return self.v @ (self.gain * (self.v.T @ (g / self.sigma)))


def _gram_fold(x0, gram, colsum, rows, rows_val, val, spec):
    """The fold from the Gram downdate, or None where that would lose accuracy."""
    n_train, de = rows.shape[0], gram.shape[0]
    if n_train <= de:
        return None
    x_val = x0[rows_val]
    mu = (colsum - x_val.sum(axis=0)) / n_train
    c = gram - x_val.T @ x_val - n_train * np.outer(mu, mu)
    sigma = np.sqrt(np.diag(c) / (n_train - 1))
    if not np.all(sigma >= STD_FLOOR):  # a NaN from a rounded-negative variance fails too
        return None
    lam, v = np.linalg.eigh(c / np.outer(sigma, sigma))
    if not lam[0] > GRAM_MIN_EIG_RATIO * lam[-1]:
        return None
    s = np.sqrt(lam[::-1])  # descending, as from an SVD
    gain = spectral_filter(spec.kind, spec.ridge_lambda, s, max(n_train, de)) / s
    return _GramFold(val, rows, sigma, gain, v[:, ::-1], (x_val - mu) / sigma)


def _target(y_train: np.ndarray):
    """(mean, std, centered standardized targets, their mean) of one fold."""
    means, stds = standardize_fit(y_train)
    t_mean, t_std = float(means[0]), float(stds[0])
    ys = (y_train - t_mean) / t_std
    ym = float(ys.mean())
    return t_mean, t_std, ys - ym, ym


class HypothesisScorer:
    """Scores many hypotheses against one dataset under one config."""

    def __init__(self, ds: StimulusResponseDataset, cfg: ScoreConfig):
        self.ds = ds
        self.cfg = cfg
        n = ds.n
        self.splits = cv_splits(cfg.cv, n)
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

        if cfg.estimator.kind != "dummy_mean":
            # Centered globally first: a column's offset would otherwise cancel
            # its variance out of the Gram matrix.
            self._x0 = ds.responses - ds.responses.mean(axis=0)
            self._gram = self._x0.T @ self._x0
            self._colsum = self._x0.sum(axis=0)
        self._aligned = self._branch(aligned_order)
        self._shuffled = [self._branch(order) for order in shuffled_orders]
        # Every branch takes its folds from self.splits.
        self._digest = _splits_digest(self.splits)

    def _branch(self, order):
        return [self._fold(train, val, order) for train, val in self.splits]

    def _fold(self, train, val, order):
        spec = self.cfg.estimator
        if spec.kind == "dummy_mean":
            return _Fold(val)
        rows = train if order is None else order[train]
        rows_val = val if order is None else order[val]
        fold = _gram_fold(self._x0, self._gram, self._colsum, rows, rows_val, val, spec)
        if fold is None:
            responses = self.ds.responses
            fold = _FoldCache(responses[rows], responses[rows_val], val)
        return fold

    def _branch_rmses(self, folds, d, targets) -> list[float]:
        spec = self.cfg.estimator
        if any(fold.path == "gram" for fold in folds):
            # X0^T yc for every Gram fold at once, each column scattered to
            # the rows that fold trains on.
            y = np.zeros((self.ds.n, len(folds)))
            for f, fold in enumerate(folds):
                if fold.path == "gram":
                    y[fold.rows, f] = targets[f][2]
            g = self._x0.T @ y
        out = []
        for f, fold in enumerate(folds):
            t_mean, t_std, yc, ym = targets[f]
            if fold.path == "mean":
                pred_std = np.full(fold.val.shape[0], ym)
            elif fold.path == "gram":
                pred_std = fold.x_val_c @ fold.weights(g[:, f]) + ym
            else:
                w = solve_centered(spec.kind, spec.ridge_lambda, fold.u, fold.s, fold.vt, yc)
                pred_std = fold.x_val_c @ w + ym
            out.append(rmse(pred_std * t_std + t_mean, d[fold.val]))
        return out

    def score_point(self, h) -> ScoreReport:
        h = as_point(h)
        if h.dim != self.ds.stimulus_dim:
            raise ValueError(f"dimension mismatch: {h.dim} vs {self.ds.stimulus_dim}")
        d = np.linalg.norm(self.ds.stimuli - h.coords, axis=1)

        targets = [_target(d[train]) for train, _ in self.splits]
        per_fold_aligned = self._branch_rmses(self._aligned, d, targets)
        shuffled_runs = [self._branch_rmses(folds, d, targets) for folds in self._shuffled]
        per_fold_shuffled = [
            float(np.mean([run[f] for run in shuffled_runs])) for f in range(len(self.splits))
        ]

        rmse_aligned = float(np.mean(per_fold_aligned))
        rmse_shuffled = float(np.mean(per_fold_shuffled))
        return ScoreReport(
            hypothesis=h,
            score=rmse_shuffled / max(rmse_aligned, DENOM_FLOOR),
            rmse_aligned=rmse_aligned,
            rmse_shuffled=rmse_shuffled,
            per_fold_aligned=tuple(per_fold_aligned),
            per_fold_shuffled=tuple(per_fold_shuffled),
            seeds=dict(self.seeds),
            splits_digest_aligned=self._digest,
            splits_digest_shuffled=self._digest,
            denominator_floored=rmse_aligned < DENOM_FLOOR,
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


def _score_or_marker(ds, h, cfg: ScoreConfig) -> ScoreReport:
    try:
        return score(ds, h, cfg)
    except Exception as exc:  # error marker, keep the batch going
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


def score_batch(ds: StimulusResponseDataset, hypotheses, cfg: ScoreConfig) -> list[ScoreReport]:
    """Score a list of hypotheses; output order matches input order.

    Every hypothesis gets its own seeds derived from (cfg seeds, index), so
    its score depends on its position but not on the rest of the list.  A
    failed hypothesis yields a report with an error marker instead of aborting.
    """
    hypotheses = [as_point(h) for h in hypotheses]
    if not hypotheses:
        raise ValueError("hypothesis list must be nonempty")
    return [_score_or_marker(ds, h, _batch_cfg(cfg, index))
            for index, h in enumerate(hypotheses)]
