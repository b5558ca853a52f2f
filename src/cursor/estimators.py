"""Estimator specs, cross-validation splits, and the one linear solve.

The scorer (scoring.HypothesisScorer) standardizes each training block, takes
the SVD of its centered design once, and calls solve_centered per hypothesis:
OLS takes the rank-tolerant minimum-norm solution, ridge shrinks by
s/(s^2 + lambda), and the dummy ignores inputs entirely.  Scalers are always
fit on training rows only, so a validation row can never leak into the fitted
parameters.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._util import derive_rng

__all__ = [
    "CvConfig",
    "EstimatorSpec",
    "cv_splits",
    "rmse",
    "solve_centered",
]

KINDS = ("ols", "ridge", "dummy_mean")


@dataclass(frozen=True)
class EstimatorSpec:
    kind: str = "ols"
    ridge_lambda: float = 0.0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {self.kind!r}")
        if self.ridge_lambda < 0:
            raise ValueError("ridge_lambda must be >= 0")


@dataclass(frozen=True)
class CvConfig:
    n_folds: int = 10
    train_fraction: float = 0.9
    seed: int = 0

    def __post_init__(self):
        if self.n_folds < 1:
            raise ValueError("n_folds must be >= 1")
        if not 0 < self.train_fraction < 1:
            raise ValueError("train_fraction must lie in (0, 1)")


def solve_centered(kind: str, lam: float, u: np.ndarray, s: np.ndarray,
                   vt: np.ndarray, yc: np.ndarray) -> np.ndarray:
    """Weights from the SVD of a centered design matrix and centered targets."""
    uy = u.T @ yc
    if kind == "ols":
        cutoff = np.finfo(np.float64).eps * max(u.shape[0], vt.shape[1]) * (s[0] if s.size else 0.0)
        scale = np.zeros_like(s)
        keep = s > cutoff
        scale[keep] = 1.0 / s[keep]
    else:
        scale = np.zeros_like(s)
        denom = s * s + lam
        keep = denom > 0
        scale[keep] = s[keep] / denom[keep]
    return vt.T @ (uy * scale)


def rmse(y_hat, y) -> float:
    """(1/sqrt(N)) * ||y_hat - y||_2."""
    y_hat = np.asarray(y_hat, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if y_hat.shape != y.shape or y.ndim != 1:
        raise ValueError("rmse needs two equal-length vectors")
    if y.shape[0] < 1:
        raise ValueError("rmse needs at least one element")
    return float(np.sqrt(np.mean((y_hat - y) ** 2)))


def cv_splits(cv: CvConfig, n: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Seeded train/validation index pairs over range(n).

    Draws n_folds independent random train_fraction splits, so validation
    sets of different folds may overlap.  Indices are returned sorted
    ascending, keyed only to (cv.seed, fold).
    """
    if n < cv.n_folds:
        raise ValueError(f"need at least n_folds={cv.n_folds} rows, got {n}")
    if n < 2:
        raise ValueError("cross-validation needs at least 2 rows")
    n_train = min(max(int(round(cv.train_fraction * n)), 1), n - 1)
    splits = []
    for f in range(cv.n_folds):
        perm = derive_rng(cv.seed, f, "cv-split").permutation(n)
        splits.append((np.sort(perm[:n_train]), np.sort(perm[n_train:])))
    return splits
