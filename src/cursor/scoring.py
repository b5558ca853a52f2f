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
its standardized rows instead.

HypothesisScorer.score_points scores B hypotheses in one call; score_point is
its B = 1 case.  Each hypothesis's distances are centered once, dc = d -
mean(d), and a fold's training mean of dc is the full sum minus its
validation rows' share.  The target std needs no computing: OLS and ridge
predictions are linear in the targets, so it cancels out of every residual.
On the Gram path, X0[rows]^T yc for every fold and hypothesis is one dc @ X0
GEMM per branch (dc taken in the branch's inverse row order), minus the
validation rows' share.  The weights, predictions and RMSEs then come from
products stacked over folds, so a generation of hypotheses costs a handful
of numpy calls per branch rather than a Python loop over hypotheses and
folds.  At N=3000, Dz=32, De=20 and 10 folds that is about 0.4 ms per
hypothesis at B=10, against 3.2 ms for the former per-hypothesis loop (one
OpenBLAS thread on a 2-core Xeon); the distances take 0.15-0.18 ms of it.  SVD
folds, which appear only at small N or on degenerate responses, loop over
folds and hypotheses in the SVD reference's own arithmetic, because an
ill-conditioned fold amplifies any other rounding.
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
from .estimators import CvConfig, EstimatorSpec, cv_splits, solve_centered, spectral_filter
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
    # Both branches use the same folds, so one digest covers them.
    splits_digest: str
    denominator_floored: bool = False
    degenerate_distances: bool = False


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
        "splits_digest": report.splits_digest,
        "denominator_floored": report.denominator_floored,
        "degenerate_distances": report.degenerate_distances,
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


class _SvdFold:
    """SVD of one fold's standardized training rows, reusable across h."""

    __slots__ = ("u", "s", "vt", "x_val_c")

    def __init__(self, x_train, x_val):
        scaler = standardize_fit(x_train)
        xs = standardize_apply(x_train, *scaler)
        xm = xs.mean(axis=0)
        self.u, self.s, self.vt = np.linalg.svd(xs - xm, full_matrices=False)
        self.x_val_c = standardize_apply(x_val, *scaler) - xm


def _gram_factors(x_val, gram, colsum, n_train, spec):
    """(mu, sigma, gain, v) of one fold from the Gram downdate, or None where
    that would lose accuracy.

    x_val holds the fold's validation rows of X0; mu and sigma standardize its
    training rows X0[rows], and on success x_val is standardized in place.
    With Xs = U diag(s) V^T the standardized centered training rows, Xs^T Xs =
    V diag(s^2) V^T, so the SVD solve V diag(phi(s)) U^T yc equals
    V diag(gain) V^T Xs^T yc with gain = phi(s) / s, and Xs^T yc =
    X0[rows]^T yc / sigma.
    """
    de = gram.shape[0]
    if n_train <= de:
        return None
    mu = (colsum - x_val.sum(axis=0)) / n_train
    c = gram - x_val.T @ x_val - n_train * np.outer(mu, mu)
    # A variance rounded below zero gives sigma 0, which fails the floor too.
    sigma = np.sqrt(np.maximum(np.diag(c), 0.0) / (n_train - 1))
    if not np.all(sigma >= STD_FLOOR):
        return None
    lam, v = np.linalg.eigh(c / np.outer(sigma, sigma))
    if not lam[0] > GRAM_MIN_EIG_RATIO * lam[-1]:
        return None
    s = np.sqrt(lam[::-1])  # descending, as from an SVD
    gain = spectral_filter(spec.kind, spec.ridge_lambda, s, max(n_train, de)) / s
    x_val -= mu
    x_val /= sigma
    return mu, sigma, gain, v[:, ::-1]


class _Branch:
    """The folds of one branch, which pairs target i with response row order[i].

    inv is the inverse of order (None when the branch keeps the rows in
    place).  The folds on the Gram path are stacked along a leading fold
    axis: gram selects them (a slice when every fold is one), mu, sigma, gain
    and v hold their factors and x_val_c their standardized validation rows.
    svd maps each other fold to its _SvdFold.  paths[f] records how fold f is
    solved: "gram", "svd", or "mean" under the dummy estimator, which solves
    nothing.
    """

    __slots__ = ("inv", "paths", "gram", "mu", "sigma", "gain", "v", "x_val_c", "svd")

    def __init__(self, inv, paths, factors=(), x_val_c=None, svd=None):
        self.inv = inv
        self.paths = paths
        self.svd = svd or {}
        self.gram = [f for f, path in enumerate(paths) if path == "gram"]
        if len(self.gram) == len(paths):
            self.gram = slice(None)
        self.mu = self.sigma = self.gain = self.v = self.x_val_c = None
        if factors:
            self.mu, self.sigma, self.gain, self.v = (np.stack(a) for a in zip(*factors))
            self.x_val_c = x_val_c[self.gram]


def _rms(resid: np.ndarray) -> np.ndarray:
    """Root mean square over the last axis; squares resid in place."""
    np.square(resid, out=resid)
    return np.sqrt(resid.mean(axis=-1))


class HypothesisScorer:
    """Scores many hypotheses against one dataset under one config."""

    def __init__(self, ds: StimulusResponseDataset, cfg: ScoreConfig):
        self.ds = ds
        self.cfg = cfg
        n = ds.n
        self.splits = cv_splits(cfg.cv, n)
        self._val = np.stack([val for _, val in self.splits])
        self._n_train = self.splits[0][0].shape[0]
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

    def _branch(self, order) -> _Branch:
        spec = self.cfg.estimator
        if spec.kind == "dummy_mean":
            return _Branch(None, ("mean",) * len(self.splits))
        # Filled in place, so a build allocates each branch's validation rows once.
        x_val_c = np.empty((len(self.splits), self._val.shape[1], self._x0.shape[1]))
        factors, svd = [], {}
        for f, (train, val) in enumerate(self.splits):
            rows_val = val if order is None else order[val]
            x_val_c[f] = self._x0[rows_val]
            fold = _gram_factors(x_val_c[f], self._gram, self._colsum, train.shape[0], spec)
            if fold is None:
                rows = train if order is None else order[train]
                svd[f] = _SvdFold(self.ds.responses[rows], self.ds.responses[rows_val])
            else:
                factors.append(fold)
        paths = tuple("svd" if f in svd else "gram" for f in range(len(self.splits)))
        inv = None
        if order is not None:
            inv = np.empty_like(order)
            inv[order] = np.arange(order.shape[0])
        return _Branch(inv, paths, factors, x_val_c, svd)

    def _branch_rmses(self, branch, d, dc, total, train_mean, d_val, base) -> np.ndarray:
        """Per-fold validation RMSEs (folds x hypotheses) of one branch.

        d holds the distances (hypotheses x N), dc the same centered per
        hypothesis and total the row sums of dc.  Per fold (folds x hypotheses
        x ...), train_mean is the training mean of dc, d_val the validation
        rows of dc, and base = train_mean - d_val the residual a mean-only fit
        leaves.  A Gram fold adds its prediction x_val_c @ w to base, with w
        the standardized-space weights times the target std, since that std
        cancels out of every residual.
        """
        spec = self.cfg.estimator
        if spec.kind == "dummy_mean":
            return _rms(base.copy())
        rms = np.empty(base.shape[:2])
        if branch.v is not None:
            # X0[rows]^T (dc[train] - train_mean) per fold: the product over
            # all rows, minus the validation rows' share; the train_mean
            # terms sum to total * mu.  Divided by sigma, in standardized units.
            rows = dc if branch.inv is None else dc.take(branch.inv, axis=1)
            g = rows @ self._x0 - total[:, None] * branch.mu[:, None, :]
            g /= branch.sigma[:, None, :]
            g -= d_val[branch.gram] @ branch.x_val_c
            g = g @ branch.v
            g *= branch.gain[:, None, :]
            w = g @ branch.v.transpose(0, 2, 1)
            resid = w @ branch.x_val_c.transpose(0, 2, 1)
            resid += base[branch.gram]
            rms[branch.gram] = _rms(resid)
        for f, fold in branch.svd.items():
            # The SVD reference's arithmetic, one hypothesis per solve: an
            # ill-conditioned fold amplifies any other rounding.  y.T has
            # contiguous columns, so each column's statistics are bitwise
            # those of standardize_fit on that hypothesis alone.
            train, val = self.splits[f]
            y = d.take(train, axis=1)
            t_mean, t_std = standardize_fit(y.T)
            ys = (y - t_mean[:, None]) / t_std[:, None]
            ym = ys.mean(axis=1, keepdims=True)
            ys -= ym
            pred = np.stack([
                fold.x_val_c @ solve_centered(spec.kind, spec.ridge_lambda,
                                              fold.u, fold.s, fold.vt, yc)
                for yc in ys])
            pred += ym
            pred *= t_std[:, None]
            pred += t_mean[:, None]
            pred -= d.take(val, axis=1)
            rms[f] = _rms(pred)
        return rms

    def score_points(self, hypotheses) -> list[ScoreReport]:
        """Score every hypothesis at once; one report each, in input order.

        hypotheses is a B x Dz array or a sequence of points.  Row b of the
        result equals score_point(hypotheses[b]) within rounding.
        """
        points = [as_point(h) for h in hypotheses]
        if not points:
            raise ValueError("hypothesis list must be nonempty")
        for h in points:
            if h.dim != self.ds.stimulus_dim:
                raise ValueError(f"dimension mismatch: {h.dim} vs {self.ds.stimulus_dim}")
        H = np.stack([h.coords for h in points])

        # d[b, i] = ||stimuli[i] - H[b]||, one coordinate at a time.
        stimuli = self.ds.stimuli
        d = np.empty((H.shape[0], self.ds.n))
        buf = np.empty_like(d)
        np.square(np.subtract(stimuli[:, 0], H[:, :1], out=d), out=d)
        for k in range(1, H.shape[1]):
            d += np.square(np.subtract(stimuli[:, k], H[:, k:k + 1], out=buf), out=buf)
        np.sqrt(d, out=d)
        degenerate = d.min(axis=1) == d.max(axis=1)

        dc = np.subtract(d, d.mean(axis=1, keepdims=True), out=buf)
        total = dc.sum(axis=1)  # 0 up to rounding
        d_val = dc.take(self._val, axis=1).transpose(1, 0, 2)  # folds x B x n_val
        train_mean = (total - d_val.sum(axis=2)) / self._n_train  # full sum minus validation
        base = train_mean[..., None] - d_val

        args = (d, dc, total, train_mean, d_val, base)
        per_fold_aligned = self._branch_rmses(self._aligned, *args).T
        per_fold_shuffled = np.mean(
            [self._branch_rmses(branch, *args) for branch in self._shuffled], axis=0).T
        rmse_aligned = per_fold_aligned.mean(axis=1)
        rmse_shuffled = per_fold_shuffled.mean(axis=1)
        return [
            ScoreReport(
                hypothesis=h,
                score=float(rmse_shuffled[b]) / max(float(rmse_aligned[b]), DENOM_FLOOR),
                rmse_aligned=float(rmse_aligned[b]),
                rmse_shuffled=float(rmse_shuffled[b]),
                per_fold_aligned=tuple(per_fold_aligned[b].tolist()),
                per_fold_shuffled=tuple(per_fold_shuffled[b].tolist()),
                seeds=dict(self.seeds),
                splits_digest=self._digest,
                denominator_floored=bool(rmse_aligned[b] < DENOM_FLOOR),
                degenerate_distances=bool(degenerate[b]),
            )
            for b, h in enumerate(points)
        ]

    def score_point(self, h) -> ScoreReport:
        """score_points for one hypothesis."""
        return self.score_points([h])[0]


def score(ds: StimulusResponseDataset, h, cfg: ScoreConfig) -> ScoreReport:
    """Score one hypothesis: shuffled-control RMSE over aligned RMSE."""
    return HypothesisScorer(ds, cfg).score_point(h)


def _batch_cfg(cfg: ScoreConfig, index: int) -> ScoreConfig:
    return replace(
        cfg,
        cv=replace(cfg.cv, seed=derive_seed(cfg.cv.seed, cfg.perm_seed, index, "batch-cv")),
        perm_seed=derive_seed(cfg.cv.seed, cfg.perm_seed, index, "batch-perm"),
    )


def score_batch(ds: StimulusResponseDataset, hypotheses, cfg: ScoreConfig) -> list[ScoreReport]:
    """Score a list of hypotheses; output order matches input order.

    Every hypothesis gets its own seeds derived from (cfg seeds, index), so
    its score depends on its position but not on the rest of the list.  The
    first hypothesis that cannot be scored raises its error.
    """
    points = [as_point(h) for h in hypotheses]
    if not points:
        raise ValueError("hypothesis list must be nonempty")
    return [score(ds, h, _batch_cfg(cfg, i)) for i, h in enumerate(points)]
