import json
from dataclasses import replace

import numpy as np
import pytest

from cursor.dataset import draw_permutation
from cursor.estimators import EstimatorSpec, cv_splits
from cursor.scoring import (
    HypothesisScorer,
    ScoreConfig,
    report_to_json,
    score,
    score_batch,
)

from conftest import fast_config, tiny_dataset
from svd_reference import cv_rmse


def test_config_validation():
    with pytest.raises(ValueError):
        ScoreConfig(denom_floor=0.0)
    with pytest.raises(ValueError):
        ScoreConfig(ratio_mode="geometric")
    with pytest.raises(ValueError):
        ScoreConfig(n_shuffles=0)


def test_dummy_estimator_scores_exactly_one():
    # mean predictor is permutation invariant, so the ratio is 1 bitwise
    ds, target = tiny_dataset(seed=1)
    cfg = fast_config(seed=1, kind="dummy_mean")
    rep = score(ds, target, cfg)
    assert rep.score == 1.0
    assert rep.rmse_aligned == rep.rmse_shuffled


def test_score_deterministic():
    ds, target = tiny_dataset(seed=2)
    cfg = fast_config(seed=2)
    a = score(ds, target, cfg)
    b = score(ds, target, cfg)
    assert a.score == b.score
    assert a.per_fold_aligned == b.per_fold_aligned
    assert a.splits_digest_aligned == b.splits_digest_aligned


@pytest.mark.parametrize("spec", [
    EstimatorSpec(kind="ols"),
    EstimatorSpec(kind="ridge", ridge_lambda=4.0),
    EstimatorSpec(kind="dummy_mean"),
], ids=["ols", "ridge", "dummy_mean"])
def test_score_matches_manual_ratio(spec):
    # independent oracle: run the two branches by hand through the reference path
    ds, target = tiny_dataset(seed=3)
    cfg = replace(fast_config(seed=3), estimator=spec)
    rep = score(ds, target, cfg)

    distances = np.linalg.norm(ds.stimuli - target.coords, axis=1)
    splits = cv_splits(cfg.cv, ds.n)
    aligned, _ = cv_rmse(spec, ds.responses, distances, cfg.cv, splits=splits)
    order = draw_permutation(ds.n, cfg.perm_seed)
    shuffled, _ = cv_rmse(spec, ds.responses[order], distances, cfg.cv, splits=splits)
    assert rep.rmse_aligned == pytest.approx(aligned, rel=1e-12)
    assert rep.rmse_shuffled == pytest.approx(shuffled, rel=1e-12)
    assert rep.score == pytest.approx(shuffled / aligned, rel=1e-12)


def test_both_branches_use_identical_folds():
    ds, target = tiny_dataset(seed=4)
    rep = score(ds, target, fast_config(seed=4))
    assert rep.splits_digest_aligned == rep.splits_digest_shuffled


def test_target_scores_above_far_hypothesis():
    ds, target = tiny_dataset(seed=5, noise=0.2)
    cfg = fast_config(seed=5)
    near = score(ds, target, cfg).score
    far = score(ds, target.coords + 15.0, cfg).score
    assert near > far
    assert far == pytest.approx(1.0, abs=0.35)


def test_shuffle_aligned_control_centers_at_one():
    ds, target = tiny_dataset(seed=6, noise=0.2)
    cfg = fast_config(seed=6)
    rep = score(ds, target, replace(cfg, shuffle_aligned=True))
    # both branches shuffled: no alignment advantage left
    assert rep.score == pytest.approx(1.0, abs=0.35)
    assert rep.score < score(ds, target, cfg).score


def test_n_shuffles_averages_independent_permutations():
    ds, target = tiny_dataset(seed=7)
    cfg1 = fast_config(seed=7)
    cfg4 = fast_config(seed=7, n_shuffles=4)
    r1 = score(ds, target, cfg1)
    r4 = score(ds, target, cfg4)
    assert r1.rmse_aligned == r4.rmse_aligned
    assert r1.rmse_shuffled != r4.rmse_shuffled


def test_ratio_mode_mean_of_fold_ratios():
    ds, target = tiny_dataset(seed=8)
    rep = score(ds, target, fast_config(seed=8, ratio_mode="mean_of_fold_ratios"))
    expect = np.mean(np.array(rep.per_fold_shuffled) / np.array(rep.per_fold_aligned))
    assert rep.score == pytest.approx(expect, rel=1e-12)


def test_default_ratio_is_ratio_of_mean_rmses():
    ds, target = tiny_dataset(seed=9)
    rep = score(ds, target, fast_config(seed=9))
    expect = np.mean(rep.per_fold_shuffled) / np.mean(rep.per_fold_aligned)
    assert rep.score == pytest.approx(expect, rel=1e-12)
    assert rep.rmse_aligned == pytest.approx(np.mean(rep.per_fold_aligned), rel=1e-12)


def test_degenerate_distances_flagged():
    # all stimuli identical: every hypothesis-induced distance is constant
    rng = np.random.default_rng(0)
    from cursor.dataset import StimulusResponseDataset

    stimuli = np.tile(rng.standard_normal(4), (30, 1))
    responses = rng.standard_normal((30, 6))
    ds = StimulusResponseDataset(stimuli, responses)
    rep = score(ds, np.zeros(4), fast_config(seed=10))
    assert rep.degenerate_distances
    assert np.isfinite(rep.score)


def test_report_json_round_trip():
    ds, target = tiny_dataset(seed=11)
    rep = score(ds, target, fast_config(seed=11))
    back = json.loads(report_to_json(rep))
    assert back["score"] == rep.score
    assert tuple(back["per_fold_aligned"]) == rep.per_fold_aligned
    assert back["seeds"] == rep.seeds
    assert np.array_equal(back["hypothesis"], rep.hypothesis.coords)
    assert back["error"] is None


def test_scorer_point_matches_score_function():
    ds, target = tiny_dataset(seed=12)
    cfg = fast_config(seed=12)
    scorer = HypothesisScorer(ds, cfg)
    a = scorer.score_point(target)
    b = score(ds, target, cfg)
    assert a.score == b.score


def test_batch_order_and_determinism():
    ds, target = tiny_dataset(seed=13)
    cfg = fast_config(seed=13)
    hs = [target.coords, target.coords + 1.0, target.coords - 2.0]
    reps = score_batch(ds, hs, cfg)
    again = score_batch(ds, hs, cfg)
    assert [r.score for r in reps] == [r.score for r in again]
    for h, r in zip(hs, reps):
        assert np.array_equal(r.hypothesis.coords, np.asarray(h))


def test_batch_worker_count_invariance():
    ds, target = tiny_dataset(seed=14)
    cfg = fast_config(seed=14)
    hs = [target.coords + k for k in range(5)]
    solo = score_batch(ds, hs, cfg, worker_count=1)
    pooled = score_batch(ds, hs, cfg, worker_count=4)
    assert [r.score for r in solo] == [r.score for r in pooled]


def test_batch_per_hypothesis_seeds_differ():
    ds, target = tiny_dataset(seed=15)
    cfg = fast_config(seed=15)
    reps = score_batch(ds, [target.coords, target.coords], cfg)
    # same hypothesis at two indices: scores differ through fold seeds
    assert reps[0].seeds != reps[1].seeds
    assert reps[0].score != reps[1].score


def test_batch_error_marker_keeps_going():
    ds, target = tiny_dataset(seed=16)
    cfg = fast_config(seed=16)
    bad = np.zeros(ds.stimulus_dim + 1)  # wrong dimension
    reps = score_batch(ds, [target.coords, bad, target.coords + 1.0], cfg)
    assert reps[0].error is None
    assert reps[1].error is not None and np.isnan(reps[1].score)
    assert reps[2].error is None


def test_batch_rejects_empty_and_bad_workers():
    ds, _ = tiny_dataset(seed=17)
    with pytest.raises(ValueError):
        score_batch(ds, [], fast_config())
    with pytest.raises(ValueError):
        score_batch(ds, [np.zeros(ds.stimulus_dim)], fast_config(), worker_count=0)


def test_denominator_floor_flag():
    ds, target = tiny_dataset(seed=18, noise=0.0)
    cfg = fast_config(seed=18)
    rep = score(ds, target, cfg)
    # noiseless linear link is near-perfectly predictable but floored only
    # when aligned rmse drops below denom_floor; flag must be consistent
    assert rep.denominator_floored == (np.mean(rep.per_fold_aligned) < cfg.denom_floor)
    assert np.isfinite(rep.score)
