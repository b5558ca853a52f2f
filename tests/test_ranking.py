import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cursor.latent import LatentPoint, similarity
from cursor.ranking import (
    HypothesisSet,
    build_hypothesis_set,
    metrics_from_scores,
    pearson_correlation,
    rank_report,
    target_rank,
)

from conftest import fast_config, tiny_dataset


def test_pearson_hand_oracle():
    # direct computation: a=[1,2,3], b=[1,2,4] -> r = 0.98198...
    r = pearson_correlation([1.0, 2.0, 3.0], [1.0, 2.0, 4.0])
    assert r == pytest.approx(0.9819805060619659, rel=1e-12)


def test_pearson_affine_invariance():
    rng = np.random.default_rng(0)
    a = rng.standard_normal(20)
    b = rng.standard_normal(20)
    r = pearson_correlation(a, b)
    assert pearson_correlation(3.0 * a + 5.0, b) == pytest.approx(r, rel=1e-10)
    assert pearson_correlation(-2.0 * a, b) == pytest.approx(-r, rel=1e-10)


def test_pearson_zero_variance_is_error():
    with pytest.raises(ValueError):
        pearson_correlation([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        pearson_correlation([1.0, 2.0], [4.0, 4.0])


def test_target_rank_formula_examples():
    # rank counts hypotheses scoring >= the target's score
    assert target_rank([0.5, 2.0, 1.0], 2, tie_seed=0) == 2
    assert target_rank([0.5, 2.0, 1.0], 1, tie_seed=0) == 1
    assert target_rank([0.5, 2.0, 1.0], 0, tie_seed=0) == 3


def test_target_rank_tie_jitter_is_seeded():
    scores = [1.0, 1.0, 1.0, 1.0]
    ranks = {target_rank(scores, 0, tie_seed=s) for s in range(30)}
    # ties resolve to varying ranks, always within [1, L]
    assert ranks <= {1, 2, 3, 4}
    assert len(ranks) > 1
    assert target_rank(scores, 0, tie_seed=7) == target_rank(scores, 0, tie_seed=7)


def test_metrics_injected_negative_distance():
    # scores exactly -distance: perfect recovery metrics
    rng = np.random.default_rng(3)
    distances = rng.uniform(0.0, 40.0, size=12)
    target_index = 4
    distances[target_index] = 0.0
    scores = -distances
    r, rank, d_top, top = metrics_from_scores(scores, distances, target_index, tie_seed=0)
    assert r == pytest.approx(-1.0, rel=1e-12)
    assert rank == 1
    assert d_top == 0.0
    assert top == target_index


def test_metrics_without_target_index():
    scores = np.array([0.1, 0.9, 0.4])
    distances = np.array([5.0, 2.0, 7.0])
    r, rank, d_top, top = metrics_from_scores(scores, distances, None, tie_seed=0)
    assert rank is None
    assert top == 1
    assert d_top == 2.0


def test_metrics_rank_invariant_under_monotone_transform():
    rng = np.random.default_rng(4)
    scores = rng.uniform(1.0, 3.0, size=15)
    distances = rng.uniform(0.0, 40.0, size=15)
    _, rank1, d1, top1 = metrics_from_scores(scores, distances, 3, tie_seed=0)
    _, rank2, d2, top2 = metrics_from_scores(np.exp(scores), distances, 3, tie_seed=0)
    assert rank1 == rank2 and d1 == d2 and top1 == top2


def test_build_hypothesis_set_geometry():
    target = LatentPoint(np.arange(6, dtype=float))
    hs = build_hypothesis_set(target, L=40, d_max=30.0, seed=5)
    assert hs.size == 40
    assert hs.includes_target_at is not None
    dists = [similarity(target, h) for h in hs.hypotheses]
    assert dists[hs.includes_target_at] == 0.0
    others = np.delete(np.array(dists), hs.includes_target_at)
    assert np.all(others <= 30.0) and np.all(others >= 0.0)
    assert others.max() > 15.0  # spread over the range


def test_build_hypothesis_set_without_target():
    target = LatentPoint(np.zeros(4))
    hs = build_hypothesis_set(target, L=10, d_max=20.0, seed=6, include_target=False)
    assert hs.size == 10
    assert hs.includes_target_at is None
    assert all(similarity(target, h) > 0.0 for h in hs.hypotheses)


def test_build_hypothesis_set_deterministic():
    target = LatentPoint(np.zeros(4))
    a = build_hypothesis_set(target, 8, 20.0, seed=7)
    b = build_hypothesis_set(target, 8, 20.0, seed=7)
    c = build_hypothesis_set(target, 8, 20.0, seed=8)
    assert a.includes_target_at == b.includes_target_at
    for ha, hb in zip(a.hypotheses, b.hypotheses):
        assert np.array_equal(ha.coords, hb.coords)
    assert any(
        not np.array_equal(ha.coords, hc.coords)
        for ha, hc in zip(a.hypotheses, c.hypotheses)
    )


def test_build_hypothesis_set_validation():
    target = LatentPoint(np.zeros(3))
    with pytest.raises(ValueError):
        build_hypothesis_set(target, 1, 20.0, seed=0)
    with pytest.raises(ValueError):
        build_hypothesis_set(target, 5, 0.0, seed=0)
    with pytest.raises(ValueError):
        HypothesisSet((LatentPoint(np.zeros(2)),), None, 0)


@given(st.integers(min_value=0, max_value=300))
@settings(max_examples=25, deadline=None)
def test_uniform_distance_draws_within_range(seed):
    target = LatentPoint(np.zeros(5))
    hs = build_hypothesis_set(target, 12, 25.0, seed=seed)
    for h in hs.hypotheses:
        assert similarity(target, h) <= 25.0 + 1e-9


def test_rank_report_smoke_and_fields():
    ds, target = tiny_dataset(seed=20, noise=0.3)
    hs = build_hypothesis_set(target, L=8, d_max=15.0, seed=21)
    rep = rank_report(ds, hs, fast_config(seed=22))
    assert rep.pearson_r is not None and -1.0 <= rep.pearson_r <= 1.0
    assert 1 <= rep.target_rank <= 8
    assert rep.d_top_rank >= 0.0
    assert len(rep.scores) == 8
    # low-noise dataset: score ranking should place the target near the top
    assert rep.target_rank <= 3
    assert rep.pearson_r < 0.0


def test_rank_report_without_target_needs_reference():
    ds, target = tiny_dataset(seed=23, noise=0.3)
    hs = build_hypothesis_set(target, L=6, d_max=15.0, seed=24, include_target=False)
    rep = rank_report(ds, hs, fast_config(seed=25))
    assert rep.target_rank is None
    assert rep.d_top_rank > 0.0


def test_rank_report_deterministic():
    ds, target = tiny_dataset(seed=26, noise=0.3)
    hs = build_hypothesis_set(target, L=6, d_max=15.0, seed=27)
    a = rank_report(ds, hs, fast_config(seed=28))
    b = rank_report(ds, hs, fast_config(seed=28))
    assert a.scores == b.scores
    assert a.target_rank == b.target_rank
