"""Estimator specs, cross-validation splits, and the one linear solve.

Every estimator works on standardized inputs and targets, with scalers fit on
training rows only, so a validation row can never leak into the fitted
parameters.  OLS takes the rank-tolerant minimum-norm solution, ridge shrinks
each principal direction by s/(s^2 + lambda), and the dummy ignores inputs
entirely.  OLS and ridge are one spectral filter, spectral_filter, on the
singular values s of the centered design.  The scorer (scoring.HypothesisScorer)
obtains those singular values once per fold, from an eigendecomposition of
the fold's standardized Gram matrix or, when that is ill-conditioned, from an
SVD of the standardized rows, and solve_centered applies the filter per
hypothesis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._util import derive_rng

__all__ = [
    "CvConfig",
    "EstimatorSpec",
    "cv_splits",
    "solve_centered",
    "spectral_filter",
]

KINDS = ("ols", "ridge", "dummy_mean")
MIN_FOLDS = 1


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
        if self.n_folds < MIN_FOLDS:
            raise ValueError(f"n_folds must be >= {MIN_FOLDS}")
        if not 0 < self.train_fraction < 1:
            raise ValueError("train_fraction must lie in (0, 1)")


def spectral_filter(kind: str, lam: float, s: np.ndarray, size: int) -> np.ndarray:
    """Gain per singular value s (descending) of a centered design.

    OLS inverts every s above eps * size * s[0], where size is the larger
    dimension of the design, and drops the rest; ridge gives s/(s^2 + lam).
    """
    scale = np.zeros_like(s)
    if kind == "ols":
        cutoff = np.finfo(np.float64).eps * size * (s[0] if s.size else 0.0)
        keep = s > cutoff
        scale[keep] = 1.0 / s[keep]
    else:
        denom = s * s + lam
        keep = denom > 0
        scale[keep] = s[keep] / denom[keep]
    return scale


def solve_centered(kind: str, lam: float, u: np.ndarray, s: np.ndarray,
                   vt: np.ndarray, yc: np.ndarray) -> np.ndarray:
    """Weights vt.T @ diag(spectral_filter(s)) @ u.T @ yc from the thin SVD
    u @ diag(s) @ vt of a centered design matrix and centered targets yc.

    The scorer calls this on folds it factorizes by SVD; on folds it
    factorizes through the Gram matrix it applies the same spectral_filter to
    the square roots of the Gram eigenvalues.
    """
    uy = u.T @ yc
    return vt.T @ (uy * spectral_filter(kind, lam, s, max(u.shape[0], vt.shape[1])))


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
