"""Hypothesis-set construction and ranking metrics.

A hypothesis set holds L candidate targets, normally including the true one.
Given scores for each, three metrics summarize recovery quality: Pearson
correlation between score and true distance, the target's rank by score, and
the true distance of the top-scoring hypothesis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._util import derive_rng, derive_seed
from .latent import LatentPoint, as_point, point_at_distance, similarity
from .scoring import ScoreConfig, score_batch

__all__ = [
    "HypothesisSet",
    "RankReport",
    "build_hypothesis_set",
    "metrics_from_scores",
    "pearson_correlation",
    "rank_report",
    "target_rank",
]

TIE_EPS = 1e-12


@dataclass(frozen=True, eq=False)
class HypothesisSet:
    hypotheses: tuple[LatentPoint, ...]
    includes_target_at: int | None
    seed: int

    def __post_init__(self):
        if len(self.hypotheses) < 2:
            raise ValueError("a hypothesis set needs L >= 2 entries")
        if self.includes_target_at is not None and not (
            0 <= self.includes_target_at < len(self.hypotheses)
        ):
            raise ValueError("includes_target_at out of range")

    @property
    def size(self) -> int:
        return len(self.hypotheses)


def build_hypothesis_set(target, L: int, d_max: float, seed: int,
                         include_target: bool = True) -> HypothesisSet:
    """L hypotheses at uniform random distances from the target.

    With include_target (the default) one entry is the target itself, placed
    at a seeded random position; the other L-1 lie at d ~ Uniform[0, d_max]
    along seeded random directions.
    """
    target = as_point(target)
    if L < 2:
        raise ValueError("L must be >= 2")
    if d_max <= 0:
        raise ValueError("d_max must be positive")
    rng = derive_rng(seed, "hypothesis-set")
    n_random = L - 1 if include_target else L
    distances = rng.uniform(0.0, d_max, size=n_random)
    hypotheses = [
        point_at_distance(target, float(d), derive_seed(seed, i, "hypothesis-direction"))
        for i, d in enumerate(distances)
    ]
    target_at = None
    if include_target:
        target_at = int(rng.integers(0, L))
        hypotheses.insert(target_at, target)
    return HypothesisSet(tuple(hypotheses), target_at, seed)


def pearson_correlation(a, b) -> float:
    """Sample Pearson r; zero variance in either argument is an error."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1 or a.shape[0] < 2:
        raise ValueError("pearson needs two equal-length vectors of length >= 2")
    ac = a - a.mean()
    bc = b - b.mean()
    na, nb = np.linalg.norm(ac), np.linalg.norm(bc)
    if na == 0 or nb == 0:
        raise ValueError("pearson correlation undefined: zero variance")
    return float(ac @ bc / (na * nb))


def target_rank(scores, target_index: int, tie_seed: int) -> int:
    """rank = sum over hypotheses of [S(h) >= S(target)].

    Scores exactly tied with the target's (other than the target itself) are
    perturbed by a seeded +-1e-12 jitter before counting, so exact ties
    resolve reproducibly instead of all counting against the target.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if not 0 <= target_index < scores.shape[0]:
        raise ValueError("target_index out of range")
    s_t = scores[target_index]
    others = np.delete(scores, target_index)
    tied = others == s_t
    if tied.any():
        rng = derive_rng(tie_seed, "rank-ties")
        jitter = rng.uniform(-1.0, 1.0, size=int(tied.sum())) * TIE_EPS * max(1.0, abs(s_t))
        others = others.copy()
        others[tied] = others[tied] + jitter
    return int(1 + np.sum(others >= s_t))


def _argmax_tiebroken(scores: np.ndarray, tie_seed: int) -> int:
    top = scores.max()
    tied = np.flatnonzero(scores == top)
    if tied.shape[0] == 1:
        return int(tied[0])
    rng = derive_rng(tie_seed, "argmax-ties")
    return int(tied[rng.integers(0, tied.shape[0])])


def metrics_from_scores(scores, distances, target_index: int | None, tie_seed: int):
    """(pearson_r or None, target_rank or None, d_top_rank, top_index)."""
    scores = np.asarray(scores, dtype=np.float64)
    distances = np.asarray(distances, dtype=np.float64)
    try:
        r = pearson_correlation(scores, distances)
    except ValueError:
        r = None  # undefined (e.g. constant scores), never silently 0
    rank = None if target_index is None else target_rank(scores, target_index, tie_seed)
    top = _argmax_tiebroken(scores, tie_seed)
    return r, rank, float(distances[top]), top


@dataclass(frozen=True, eq=False)
class RankReport:
    pearson_r: float | None
    target_rank: int | None
    d_top_rank: float
    scores: tuple[float, ...]
    hypothesis_distances: tuple[float, ...]


def rank_report(ds, hset: HypothesisSet, cfg: ScoreConfig) -> RankReport:
    """Score every hypothesis and compute the three ranking metrics.

    Distances are measured to the dataset's hidden target; evaluation is
    impossible without one.  Ties are broken with a seed derived from the
    config's seeds and the hypothesis set's seed.
    """
    if ds.truth is None:
        raise ValueError("rank_report needs a dataset with a hidden target")
    tie_seed = derive_seed(cfg.cv.seed, cfg.perm_seed, hset.seed, "tie")
    scores = np.array([r.score for r in score_batch(ds, list(hset.hypotheses), cfg)])
    distances = np.array([similarity(ds.truth.target, h) for h in hset.hypotheses])
    r, rank, d_top, _ = metrics_from_scores(scores, distances, hset.includes_target_at, tie_seed)
    return RankReport(
        pearson_r=r,
        target_rank=rank,
        d_top_rank=d_top,
        scores=tuple(float(s) for s in scores),
        hypothesis_distances=tuple(float(d) for d in distances),
    )
