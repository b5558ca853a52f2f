"""An S(h) computed apart from the program, for checking its scores.

Each fold fits plain least squares with an intercept on the raw responses.
OLS predictions do not change when input columns or the target are shifted
and rescaled, so whenever every training block has full column rank this
equals the program's standardized minimum-norm solve.  Fold and permutation
indices come from the program's public `cv_splits` and `draw_permutation`,
with the seeds a `ScoreReport` records.  The caller puts the program's
`src/` directory on `sys.path`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from cursor.dataset import draw_permutation
from cursor.estimators import CvConfig, cv_splits


@dataclass(frozen=True)
class OracleScore:
    score: float
    rmse_aligned: float
    rmse_shuffled: float


def _branch_rmse(responses: np.ndarray, d: np.ndarray, splits, kind: str) -> float:
    per_fold = []
    for train, val in splits:
        if kind == "dummy_mean":
            pred = np.full(val.shape[0], d[train].mean())
        elif kind == "ols":
            x = np.column_stack([np.ones(train.shape[0]), responses[train]])
            coef, _, rank, _ = np.linalg.lstsq(x, d[train], rcond=None)
            if rank < x.shape[1]:
                raise ValueError("a training block is rank deficient; the oracle does not apply")
            pred = coef[0] + responses[val] @ coef[1:]
        else:
            raise ValueError(f"unsupported estimator {kind!r}")
        per_fold.append(np.sqrt(np.mean((pred - d[val]) ** 2)))
    return float(np.mean(per_fold))


def oracle_score(stimuli, responses, h, cv_seed: int, perm_seed: int, n_folds: int = 10,
                 train_fraction: float = 0.9, kind: str = "ols") -> OracleScore:
    """Shuffled over aligned cross-validated RMSE, one permutation, ratio of means."""
    stimuli = np.asarray(stimuli, dtype=np.float64)
    responses = np.asarray(responses, dtype=np.float64)
    d = np.linalg.norm(stimuli - np.asarray(h, dtype=np.float64), axis=1)
    cv = CvConfig(n_folds=n_folds, train_fraction=train_fraction, seed=cv_seed)
    splits = cv_splits(cv, d.shape[0])
    order = draw_permutation(d.shape[0], perm_seed)
    aligned = _branch_rmse(responses, d, splits, kind)
    shuffled = _branch_rmse(responses[order], d, splits, kind)
    return OracleScore(shuffled / aligned, aligned, shuffled)
