"""Predictability score S(h) for hypothetical targets.

For a hypothesis h, pair every response with its induced distance d_i^h,
cross-validate an estimator on the aligned pairs and again on pairs whose
responses were shuffled by one seeded permutation, and return

    S(h) = rmse_shuffled / max(rmse_aligned, DENOM_FLOOR).

Both branches consume identical fold splits, so an estimator that ignores
responses (dummy) scores exactly 1.  A HypothesisScorer caches everything
about (dataset, config) that does not depend on h: fold splits, permutations
and one factorization per cell of the standardized training responses.  The
centered responses, their Gram matrix and column sums belong to the dataset
(StimulusResponseDataset.centered_gram), formed once and shared by every
scorer built on that object; a fold's training Gram matrix is the full one
minus its validation rows' share.  The aligned branch and the shuffled one
form one stack of (branch, fold) cells, and the standardized Gram matrices
C_std of all cells are formed in one pass.  A cell keeps C_std + lambda I
(lambda = 0 for OLS), one De x De matrix that each scoring call solves
rather than an SVD of its N_train x De rows; no inverse is formed.  A
branch, which only reorders rows, keeps one inverse permutation of them.  A
cell whose Gram matrix would lose accuracy (no more training rows than
columns, a constant column, or an ill-conditioned C_std) takes the SVD of
its standardized rows instead; the SVD cells of a scorer are one stack,
factorized by one np.linalg.svd call.  The condition guard is one stacked
Cholesky of C_std shifted down by GRAM_MIN_EIG_RATIO * ||C_std||_F, which
every well-conditioned stack passes; only a stack that fails it pays for the
eigenvalues, which then decide cell by cell.  Where C_std passes, the OLS
filter drops no singular direction, so with Xs = U diag(s) V^T the
standardized centered training rows and phi the estimator's spectral filter,
the SVD solve V diag(phi(s)) U^T yc equals the solution w of
(C_std + lambda I) w = Xs^T yc.

HypothesisScorer.score_points scores B hypotheses in one call; score_point is
its B = 1 case.  It computes the B x N distances d with pairwise_distances
and hands them to score_distances, which does the rest; a caller that has
the distances by a cheaper route (recover_target, in PCA coordinates) calls
score_distances directly.  Each hypothesis's distances are centered once,
dc = d - mean(d), and a fold's training mean of dc is the full sum minus its
validation rows' share.  The target std needs no computing: OLS and ridge
predictions are linear in the targets, so it cancels out of every residual.
On the Gram path, X0[rows]^T yc for every cell and hypothesis comes from one
stacked GEMM of both branches' rows of dc (each in its branch's inverse row
order) with X0, minus the validation rows' share.  One stacked
np.linalg.solve gives the weights of every cell and hypothesis, and the
predictions and RMSEs come from products stacked over cells, so a generation
of hypotheses costs a handful of numpy calls rather than a Python loop over
branches, hypotheses and folds.  At N=3000, De=20, 10 folds and B=10 (one
OpenBLAS thread on a 2-core Xeon), score_distances takes about 0.09-0.14 ms
per hypothesis.  The distances in Dz=32 coordinates take another 0.21 ms, and
recover_target's, in k=10 PCA coordinates, 0.03 ms.  At De=64 a scorer build
takes about 4-6 ms and one hypothesis (B=1) 1.1-1.8 ms, most of it the LU
solves; a ranking scores one hypothesis per scorer, and a solve per call
costs less than an inverse per build.  SVD cells, which appear only at small
N or on degenerate responses, keep the SVD reference's own arithmetic,
because an ill-conditioned fold amplifies any other rounding, but score every
cell and hypothesis at once: the hypotheses are a broadcast stack axis of
each product, so each stays the reference's matrix-vector product, and
solve_centered runs once over the stack.  S(h) is defined for finite
distances from every stimulus: score_distances refuses a row that holds inf
or NaN.
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
# squares the condition number of the rows, and the rounding of a solve
# with it grows like (lambda_max / lambda_min) * eps, at most 1e3 * 2.2e-16 ~
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
    """Estimator and folds of S(h); perm_seed draws the one control permutation,
    and shuffle_aligned shuffles the aligned branch too (by a derived seed)."""

    estimator: EstimatorSpec = field(default_factory=EstimatorSpec)
    cv: CvConfig = field(default_factory=CvConfig)
    perm_seed: int = 0
    shuffle_aligned: bool = False


@dataclass(frozen=True, eq=False)
class ScoreReport:
    hypothesis: LatentPoint | None  # None when scored from distances alone
    score: float
    rmse_aligned: float
    rmse_shuffled: float
    per_fold_aligned: tuple[float, ...]
    per_fold_shuffled: tuple[float, ...]
    seeds: dict
    # The scorer's splits are cv_splits(*folds); a report holding the splits
    # themselves would keep N indices per fold alive.
    folds: tuple[CvConfig, int]
    denominator_floored: bool = False
    degenerate_distances: bool = False

    @property
    def splits_digest(self) -> str:
        """Both branches use the same folds, so one digest covers them."""
        return _splits_digest(cv_splits(*self.folds))


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
    # A square that overflows leaves d = inf, which score_distances refuses.
    with np.errstate(over="ignore"):
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
    """Scores many hypotheses against one dataset under one config.

    The scorer is one stack of (branch, fold) cells.  Branch p pairs target i
    with response row orders[p, i]: branch 0 is the aligned one (the identity,
    or the control permutation under shuffle_aligned), branch 1 the shuffled
    one, and _inv holds each order's inverse.  Cell (p, f) is
    fold f of branch p; _paths[p, f] records how it is solved: "gram", "svd",
    or "mean" under the dummy estimator, which solves nothing.  The Gram
    factors of every cell are stacked branches x folds: _mu and _sigma
    standardize its training rows, _c holds C_std + lambda I of its
    standardized Gram matrix C_std, which _rmses solves rather than inverts,
    and _x_val_c its validation rows centered on _mu.  An SVD cell keeps
    placeholder Gram factors, whose results _rmses overwrites.  The K SVD
    cells, listed as (branch, fold) index arrays in _svd_cells, are a stack
    of their own: _svd_train holds each cell's training row indices, _u, _s
    and _vt the thin SVD of its standardized centered training rows, and
    _svd_x_val_c its validation rows in the same scale.
    """

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
            "n_shuffles": 1,  # kept in score.json for its readers and the CLI digest
            "aligned_control_seed": None,
        }

        aligned_order = np.arange(n)
        if cfg.shuffle_aligned:
            control_seed = derive_seed(cfg.perm_seed, "aligned-control")
            self.seeds["aligned_control_seed"] = control_seed
            aligned_order = draw_permutation(n, control_seed)
        orders = np.stack([aligned_order, draw_permutation(n, cfg.perm_seed)])
        self._inv = np.empty_like(orders)
        np.put_along_axis(self._inv, orders, np.arange(n), axis=1)

        spec = cfg.estimator
        rows_val = orders[:, self._val]  # branches x folds x n_val
        self._paths = np.full(rows_val.shape[:2], "mean")
        if spec.kind == "dummy_mean":
            return
        # Centered globally first: a column's offset would otherwise cancel
        # its variance out of the Gram matrix.
        self._x0, x0_gram, colsum = ds.centered_gram
        n_train, de = self._n_train, self._x0.shape[1]
        ok = np.zeros(self._paths.shape, dtype=bool)
        self._c = None
        if n_train > de:
            # Every cell's validation rows of X0 (branches x folds x n_val x De).
            # A cell's training Gram matrix is the full one minus their share,
            # centered on the training mean mu.
            x_val = self._x0[rows_val]
            mu = colsum - x_val.sum(axis=2)
            mu /= n_train
            c = x_val.swapaxes(2, 3) @ x_val
            np.subtract(x0_gram, c, out=c)
            c -= n_train * (mu[..., :, None] * mu[..., None, :])
            # A variance rounded below zero gives sigma 0, which fails the floor too.
            sigma = np.sqrt(np.maximum(np.diagonal(c, axis1=2, axis2=3), 0.0) / (n_train - 1))
            # A cell that fails a test goes to the SVD path; its Gram factors
            # become placeholders (sigma 1, C the identity), whose results
            # _rmses overwrites.
            ok = np.all(sigma >= STD_FLOOR, axis=2)
            sigma[~ok] = 1.0
            c /= sigma[..., :, None] * sigma[..., None, :]
            c[~ok] = np.eye(de)
            ok &= _well_conditioned(c.reshape(-1, de, de)).reshape(ok.shape)
            c[~ok] = np.eye(de)
            if spec.kind == "ridge":
                c += spec.ridge_lambda * np.eye(de)
            x_val -= mu[..., None, :]
            self._mu, self._sigma, self._x_val_c, self._c = mu, sigma, x_val, c
        self._paths = np.where(ok, "gram", "svd")
        ps, fs = self._svd_cells = np.nonzero(~ok)
        if ps.size:
            # The K SVD cells' training rows (K x n_train x De), standardized
            # and centered per cell, then one stacked SVD.
            self._svd_train = np.stack([self.splits[f][0] for f in fs])
            xs = ds.responses[orders[ps[:, None], self._svd_train]]
            mean, std = standardize_fit(xs, axis=1)
            xs -= mean[:, None]
            xs /= std[:, None]
            xm = xs.mean(axis=1, keepdims=True)
            xs -= xm
            self._u, self._s, self._vt = np.linalg.svd(xs, full_matrices=False)
            x_val = ds.responses[rows_val[ps, fs]]
            x_val -= mean[:, None]
            x_val /= std[:, None]
            x_val -= xm
            self._svd_x_val_c = x_val

    def _rmses(self, d) -> np.ndarray:
        """Validation RMSEs (branches x folds x hypotheses) of every cell.

        d holds the distances (hypotheses x N), dc the same centered per
        hypothesis and total the row sums of dc.  Per fold (folds x hypotheses
        x ...), d_val holds the validation rows of dc, and base =
        train_mean - d_val the residual a mean-only fit leaves, with
        train_mean the training mean of dc.  A Gram cell adds its prediction
        x_val_c @ w to base, with x_val_c the centered validation rows and w
        the standardized-space weights divided by sigma and times the target
        std, since that std cancels out of every residual.
        """
        n_branches, n_folds = self._paths.shape
        dc = d - d.mean(axis=1, keepdims=True)
        total = dc.sum(axis=1)  # 0 up to rounding
        d_val = dc.take(self._val, axis=1).transpose(1, 0, 2)  # folds x B x n_val
        train_mean = (total - d_val.sum(axis=2)) / self._n_train  # full sum minus validation
        base = train_mean[..., None] - d_val
        spec = self.cfg.estimator
        if spec.kind == "dummy_mean":
            return np.tile(_rms(base), (n_branches, 1, 1))
        if self._c is None:
            rms = np.empty((n_branches, n_folds, d.shape[0]))
        else:
            # X0[rows]^T (dc[train] - train_mean) per cell: the product over
            # all rows, minus the validation rows' share; the train_mean
            # terms sum to total * mu.  Each branch's rows of dc are gathered
            # into one contiguous branches x B x N array, whose GEMM rounds as
            # the branches' own would; mode="clip" lets take write it
            # unbuffered, and it is freed before the residuals are formed.
            rows = np.empty((n_branches,) + dc.shape)
            for p, inv in enumerate(self._inv):
                dc.take(inv, axis=1, out=rows[p], mode="clip")
            g = (rows @ self._x0)[:, None] - total[:, None] * self._mu[..., None, :]
            del rows
            g -= d_val @ self._x_val_c
            # Divided by sigma, g is Xs^T yc in standardized units; one solve
            # over every cell gives the standardized weights, and dividing
            # them by sigma again applies them to the centered rows.
            g /= self._sigma[..., None, :]
            w = np.linalg.solve(self._c, g.swapaxes(2, 3))
            w /= self._sigma[..., :, None]
            resid = w.swapaxes(2, 3) @ self._x_val_c.swapaxes(2, 3)
            resid += base
            rms = _rms(resid)
        ps, fs = self._svd_cells
        if ps.size:
            # The SVD reference's arithmetic, stacked hypotheses x SVD cells,
            # since an ill-conditioned fold amplifies any other rounding.
            # take gives contiguous hypotheses x cells x n_train targets, so
            # each row's statistics are bitwise those of standardize_fit on
            # that hypothesis and fold alone, and every product stays a gemv.
            y = d.take(self._svd_train, axis=1)
            t_mean, t_std = standardize_fit(y, axis=2)
            ys = (y - t_mean[..., None]) / t_std[..., None]
            ym = ys.mean(axis=2, keepdims=True)
            ys -= ym
            w = solve_centered(spec.kind, spec.ridge_lambda, self._u, self._s, self._vt, ys)
            pred = (self._svd_x_val_c @ w[..., None])[..., 0]
            pred += ym
            pred *= t_std[..., None]
            pred += t_mean[..., None]
            pred -= d.take(self._val[fs], axis=1)
            rms[ps, fs] = _rms(pred).T
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

        Row b of d is ||stimuli[i] - h_b|| over i; every entry must be
        finite, and a row that is not raises ValueError.  hypotheses, when
        given, are the B points the rows belong to and fill each report's
        hypothesis field; without them that field is None.
        """
        d = np.asarray(d, dtype=np.float64)
        if d.ndim != 2 or d.shape[0] == 0 or d.shape[1] != self.ds.n:
            raise ValueError(f"distances must be B x {self.ds.n} with B >= 1, got {d.shape}")
        if hypotheses is None:
            hypotheses = [None] * d.shape[0]
        lo, hi = d.min(axis=1), d.max(axis=1)  # NaN when the row holds one
        finite = np.isfinite(lo) & np.isfinite(hi)
        if not finite.all():
            raise ValueError(f"distance row {np.argmin(finite)} is not finite: S(h) needs "
                             "finite distances from every stimulus")
        # A spread within the rounding of the distances carries no signal.
        degenerate = hi - lo <= d.shape[1] * np.spacing(hi)

        rms = self._rmses(d)
        per_fold_aligned = rms[0].T
        per_fold_shuffled = rms[1].T
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
                folds=(self.cfg.cv, self.ds.n),
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
