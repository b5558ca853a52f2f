"""Predictability score S(h) for hypothetical targets.

For a hypothesis h, pair every response with its induced distance d_i^h,
cross-validate an estimator on the aligned pairs and again on pairs whose
responses were shuffled by a seeded permutation, and return

    S(h) = rmse_shuffled / max(rmse_aligned, DENOM_FLOOR).

Both branches consume identical fold splits, so an estimator that ignores
responses (dummy) scores exactly 1.  A HypothesisScorer caches everything
about (dataset, config) that does not depend on h: fold splits, permutations
and one factorization per fold of the standardized training responses.  The
centered responses, their Gram matrix and column sums belong to the dataset
(StimulusResponseDataset.centered_gram), formed once and shared by every
scorer built on that object; a fold's training Gram matrix is the full one
minus its validation rows' share.  Per branch, the standardized Gram matrices
C_std of all folds are formed in one stacked pass, and a fold keeps
K = (C_std + lambda I)^-1 (lambda = 0 for OLS), one De x De inverse rather
than an SVD of its N_train x De rows; a shuffled branch, which only reorders
rows, copies none.  A fold whose Gram matrix would lose accuracy (no more
training rows than columns, a constant column, or an ill-conditioned C_std)
takes the SVD of its standardized rows instead.  The condition guard is one
stacked Cholesky of C_std shifted down by GRAM_MIN_EIG_RATIO * ||C_std||_F,
which every well-conditioned stack passes; only a stack that fails it pays
for the eigenvalues, which then decide fold by fold.  Where C_std passes,
the OLS filter drops no singular direction, so with Xs = U diag(s) V^T the
standardized centered training rows and phi the estimator's spectral filter,
the SVD solve V diag(phi(s)) U^T yc equals K Xs^T yc.

HypothesisScorer.score_points scores B hypotheses in one call; score_point is
its B = 1 case.  It computes the B x N distances d with pairwise_distances
and hands them to score_distances, which does the rest; a caller that has
the distances by a cheaper route (recover_target, in PCA coordinates) calls
score_distances directly.  Each hypothesis's distances are centered once,
dc = d - mean(d), and a fold's training mean of dc is the full sum minus its
validation rows' share.  The target std needs no computing: OLS and ridge
predictions are linear in the targets, so it cancels out of every residual.
On the Gram path, X0[rows]^T yc for every fold and hypothesis is one dc @ X0
GEMM per branch (dc taken in the branch's inverse row order), minus the
validation rows' share.  The weights, predictions and RMSEs then come from
products stacked over folds, so a generation of hypotheses costs a handful
of numpy calls per branch rather than a Python loop over hypotheses and
folds.  At N=3000, De=20, 10 folds and B=10 (one OpenBLAS thread on a 2-core
Xeon), score_distances takes about 0.12 ms per hypothesis.  The distances in
Dz=32 coordinates take another 0.22 ms, and recover_target's, in k=10 PCA
coordinates, 0.04 ms.  SVD folds, which appear only at small N or on
degenerate responses, loop over folds and hypotheses in the SVD reference's
own arithmetic, because an ill-conditioned fold amplifies any other rounding.
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
from .estimators import CvConfig, EstimatorSpec, cv_splits, solve_centered
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
# squares the condition number of the rows, and the rounding of its SPD
# inverse grows like (lambda_max / lambda_min) * eps, at most 1e3 * 2.2e-16 ~
# 2e-13 here, which keeps S(h) within 1e-12 of the SVD of the rows.  The
# bound also puts s_min / s_max above 0.03, far above the OLS cutoff of
# eps * max(N_train, De), so OLS inverts every direction on this path.
# _well_conditioned first tries a Cholesky of C - GRAM_MIN_EIG_RATIO *
# ||C||_F * I.  lambda_max <= ||C||_F, so a matrix that factors passes the
# rule.  At the bound the shift exceeds lambda_min by at least
# GRAM_MIN_EIG_RATIO * lambda_min^2 / (2 ||C||_F), about 5e-10 lambda_max, far
# above the Cholesky's O(De eps ||C||) backward error, so a failing matrix does
# not factor.  A stack that does not factor falls back to eigvalsh and the rule
# itself, fold by fold.  On the reference data folds sit at lambda_min /
# lambda_max ~ 0.012 and lambda_max / ||C||_F ~ 0.93, so the fallback does not
# run there.
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
    hypothesis: LatentPoint | None  # None when scored from distances alone
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


class _Branch:
    """The folds of one branch, which pairs target i with response row order[i].

    inv is the inverse of order (None when the branch keeps the rows in
    place).  The folds on the Gram path are stacked along a leading fold
    axis: gram selects them (a slice when every fold is one), mu and sigma
    standardize their training rows, k holds (C_std + lambda I)^-1 of their
    standardized Gram matrices C_std and x_val_c their standardized validation
    rows.  svd maps each other fold to its _SvdFold.  paths[f] records how
    fold f is solved: "gram", "svd", or "mean" under the dummy estimator,
    which solves nothing.
    """

    __slots__ = ("inv", "paths", "gram", "mu", "sigma", "k", "x_val_c", "svd")

    def __init__(self, inv, paths, factors=(None,) * 4, svd=None):
        self.inv = inv
        self.paths = paths
        self.svd = svd or {}
        self.gram = [f for f, path in enumerate(paths) if path == "gram"]
        if len(self.gram) == len(paths):
            self.gram = slice(None)
        self.mu, self.sigma, self.k, self.x_val_c = factors


def _rms(resid: np.ndarray) -> np.ndarray:
    """Root mean square over the last axis; squares resid in place."""
    np.square(resid, out=resid)
    return np.sqrt(resid.mean(axis=-1))


def pairwise_distances(x: np.ndarray, h: np.ndarray, base=None) -> np.ndarray:
    """d[b, i] = sqrt(base[i] + ||x[i] - h[b]||^2) for N points x and B points h.

    The squares are summed one coordinate at a time.  Without base the sum
    starts from the first coordinate's term, which makes d the Euclidean
    distances; recover_target passes x and h in PCA coordinates and, as base,
    each x's squared distance from the PCA subspace.
    """
    d = np.empty((h.shape[0], x.shape[0]))
    buf = np.empty_like(d)
    if base is None:
        np.square(np.subtract(x[:, 0], h[:, :1], out=d), out=d)
        first = 1
    else:
        d[...] = base
        first = 0
    for k in range(first, h.shape[1]):
        d += np.square(np.subtract(x[:, k], h[:, k:k + 1], out=buf), out=buf)
    return np.sqrt(d, out=d)


def _well_conditioned(c: np.ndarray) -> np.ndarray:
    """Per matrix of the symmetric stack c, whether its smallest eigenvalue
    exceeds GRAM_MIN_EIG_RATIO times its largest (see that constant)."""
    shift = GRAM_MIN_EIG_RATIO * np.linalg.norm(c, axis=(1, 2))
    try:
        np.linalg.cholesky(c - shift[:, None, None] * np.eye(c.shape[-1]))
        return np.ones(c.shape[0], dtype=bool)
    except np.linalg.LinAlgError:
        lam = np.linalg.eigvalsh(c)
        return lam[:, 0] > GRAM_MIN_EIG_RATIO * lam[:, -1]


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
            self._x0, self._gram, self._colsum = ds.centered_gram
        self._aligned = self._branch(aligned_order)
        self._shuffled = [self._branch(order) for order in shuffled_orders]
        # Every branch takes its folds from self.splits.
        self._digest = _splits_digest(self.splits)

    def _branch(self, order) -> _Branch:
        spec = self.cfg.estimator
        n_folds = len(self.splits)
        if spec.kind == "dummy_mean":
            return _Branch(None, ("mean",) * n_folds)
        rows_val = self._val if order is None else order[self._val]
        n_train, de = self._n_train, self._x0.shape[1]
        gram = np.arange(n_folds if n_train > de else 0)
        factors = (None,) * 4
        if gram.size:
            # Every fold's validation rows of X0 (folds x n_val x De).  A fold's
            # training Gram matrix is the full one minus their share, centered
            # on the training mean mu.
            x_val = self._x0[rows_val]
            mu = self._colsum - x_val.sum(axis=1)
            mu /= n_train
            c = x_val.transpose(0, 2, 1) @ x_val
            np.subtract(self._gram, c, out=c)
            c -= n_train * (mu[:, :, None] * mu[:, None, :])
            # A variance rounded below zero gives sigma 0, which fails the floor too.
            sigma = np.sqrt(np.maximum(np.diagonal(c, axis1=1, axis2=2), 0.0) / (n_train - 1))
            # A failing fold is dropped by taking copies of the rest; while
            # every fold passes, each step below writes in place.
            ok = np.all(sigma >= STD_FLOOR, axis=1)
            if not ok.all():
                gram, c, sigma = gram[ok], c[ok], sigma[ok]
            c /= sigma[:, :, None] * sigma[:, None, :]
            ok = _well_conditioned(c)
            if not ok.all():
                gram, c, sigma = gram[ok], c[ok], sigma[ok]
            if gram.size < n_folds:
                mu, x_val = mu[gram], x_val[gram]
            if spec.kind == "ridge":
                c += spec.ridge_lambda * np.eye(de)
            x_val -= mu[:, None, :]
            x_val /= sigma[:, None, :]
            if gram.size:
                factors = (mu, sigma, np.linalg.inv(c), x_val)
        paths = tuple("gram" if f in gram else "svd" for f in range(n_folds))
        svd = {}
        for f, (train, _) in enumerate(self.splits):
            if paths[f] == "svd":
                rows = train if order is None else order[train]
                svd[f] = _SvdFold(self.ds.responses[rows], self.ds.responses[rows_val[f]])
        inv = None
        if order is not None:
            inv = np.empty_like(order)
            inv[order] = np.arange(order.shape[0])
        return _Branch(inv, paths, factors, svd)

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
        if branch.k is not None:
            # X0[rows]^T (dc[train] - train_mean) per fold: the product over
            # all rows, minus the validation rows' share; the train_mean
            # terms sum to total * mu.  Divided by sigma, in standardized units.
            rows = dc if branch.inv is None else dc.take(branch.inv, axis=1)
            g = rows @ self._x0 - total[:, None] * branch.mu[:, None, :]
            g /= branch.sigma[:, None, :]
            g -= d_val[branch.gram] @ branch.x_val_c
            w = g @ branch.k
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
        d = pairwise_distances(self.ds.stimuli, np.stack([h.coords for h in points]))
        return self.score_distances(d, points)

    def score_distances(self, d, hypotheses=None) -> list[ScoreReport]:
        """Score B hypotheses from their distances d (B x N) to every stimulus.

        Row b of d is ||stimuli[i] - h_b|| over i.  hypotheses, when given,
        are the B points the rows belong to and fill each report's
        hypothesis field; without them that field is None.
        """
        d = np.asarray(d, dtype=np.float64)
        if d.ndim != 2 or d.shape[0] == 0 or d.shape[1] != self.ds.n:
            raise ValueError(f"distances must be B x {self.ds.n} with B >= 1, got {d.shape}")
        if hypotheses is None:
            hypotheses = [None] * d.shape[0]
        degenerate = d.min(axis=1) == d.max(axis=1)

        dc = d - d.mean(axis=1, keepdims=True)
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
            for b, h in enumerate(hypotheses)
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
