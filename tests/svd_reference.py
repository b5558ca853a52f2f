"""Reference estimator path for checking the scorer: fit, predict, rmse, cv_rmse.

This is the straightforward per-fold version of what
cursor.scoring.HypothesisScorer computes with cached factorizations: scalers
fit on the training rows, an SVD of the centered standardized design, then
the minimum-norm OLS, ridge or mean-only solve.  It keeps its own copy of the
solve so that the scorer cross-checks share no estimator code with it.

A prediction centers the standardized rows on the training mean before the
product with the weights, in the scorer's order.  On a near-duplicate column
the OLS weights reach 1e7 and cancel, so the other order, Xs @ w - xm @ w,
rounds up to 6e-8 away: that is the problem's conditioning, not a fault of
either path, and in this order the two agree to the last bit on folds the
scorer solves by SVD.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from cursor.dataset import standardize_fit
from cursor.estimators import CvConfig, EstimatorSpec, cv_splits


@dataclass(frozen=True, eq=False)
class FittedEstimator:
    spec: EstimatorSpec
    weights: np.ndarray  # standardized-space weights; empty for dummy
    center: np.ndarray  # training mean of the standardized inputs; empty for dummy
    intercept: float  # training mean of the standardized targets
    input_scaler: tuple[np.ndarray, np.ndarray]  # (means, stds)
    target_scaler: tuple[float, float]  # (mean, std)


def standardize(X, means, stds) -> np.ndarray:
    """X scaled column by column with a standardize_fit result."""
    return (np.asarray(X, dtype=np.float64) - means) / stds


def _target_scaler(y: np.ndarray) -> tuple[float, float]:
    means, stds = standardize_fit(y)
    return float(means[0]), float(stds[0])


def _solve(kind: str, lam: float, u, s, vt, yc) -> np.ndarray:
    uy = u.T @ yc
    scale = np.zeros_like(s)
    if kind == "ols":
        cutoff = np.finfo(np.float64).eps * max(u.shape[0], vt.shape[1]) * (s[0] if s.size else 0.0)
        keep = s > cutoff
        scale[keep] = 1.0 / s[keep]
    else:
        denom = s * s + lam
        keep = denom > 0
        scale[keep] = s[keep] / denom[keep]
    return vt.T @ (uy * scale)


def fit(spec: EstimatorSpec, X, y) -> FittedEstimator:
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.ndim != 2 or y.ndim != 1 or X.shape[0] != y.shape[0]:
        raise ValueError("X must be (N, D) with y of length N")
    if not (np.all(np.isfinite(X)) and np.all(np.isfinite(y))):
        raise ValueError("non-finite values in training data")
    n_min = 1 if spec.kind == "dummy_mean" else 2
    if X.shape[0] < n_min:
        raise ValueError(f"{spec.kind} needs at least {n_min} rows")

    in_scaler = standardize_fit(X)
    t_scaler = _target_scaler(y)
    ys = (y - t_scaler[0]) / t_scaler[1]
    ym = float(ys.mean())

    if spec.kind == "dummy_mean":
        return FittedEstimator(spec, np.zeros(0), np.zeros(0), ym, in_scaler, t_scaler)

    Xs = standardize(X, *in_scaler)
    xm = Xs.mean(axis=0)
    u, s, vt = np.linalg.svd(Xs - xm, full_matrices=False)
    w = _solve(spec.kind, spec.ridge_lambda, u, s, vt, ys - ym)
    return FittedEstimator(spec, w, xm, ym, in_scaler, t_scaler)


def predict(est: FittedEstimator, X) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError("X must be (N, D)")
    if est.spec.kind == "dummy_mean":
        y_std = np.full(X.shape[0], est.intercept)
    else:
        if X.shape[1] != est.weights.shape[0]:
            raise ValueError(
                f"feature count {X.shape[1]} does not match fit ({est.weights.shape[0]})"
            )
        xc = standardize(X, *est.input_scaler) - est.center
        y_std = xc @ est.weights + est.intercept
    t_mean, t_std = est.target_scaler
    return y_std * t_std + t_mean


def rmse(y_hat, y) -> float:
    """(1/sqrt(N)) * ||y_hat - y||_2."""
    y_hat = np.asarray(y_hat, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if y_hat.shape != y.shape or y.ndim != 1:
        raise ValueError("rmse needs two equal-length vectors")
    if y.shape[0] < 1:
        raise ValueError("rmse needs at least one element")
    return float(np.sqrt(np.mean((y_hat - y) ** 2)))


def cv_rmse(spec: EstimatorSpec, X, y, cv: CvConfig,
            splits=None) -> tuple[float, list[float]]:
    """Mean and per-fold held-out RMSE over seeded splits.

    An explicit splits list overrides the seeded ones so that two scoring
    branches can consume identical fold assignments.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if splits is None:
        splits = cv_splits(cv, X.shape[0])
    per_fold = []
    for train, val in splits:
        est = fit(spec, X[train], y[train])
        per_fold.append(rmse(predict(est, X[val]), y[val]))
    return float(np.mean(per_fold)), per_fold
