import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cursor._util import derive_seed
from cursor.dataset import StimulusResponseDataset, draw_permutation
from cursor.estimators import CvConfig, EstimatorSpec, cv_splits
from cursor.reference import reference_dataset, reference_score_config
from cursor.scoring import (
    DENOM_FLOOR,
    HypothesisScorer,
    ScoreConfig,
    _splits_digest,
    report_to_json,
    score,
    score_batch,
)

from conftest import fast_config, tiny_dataset
from svd_reference import cv_rmse


def test_config_validation():
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
    cfg = fast_config(seed=4, n_shuffles=3, shuffle_aligned=True)
    rep = score(ds, target, cfg)
    expect = _splits_digest(cv_splits(cfg.cv, ds.n))
    assert rep.splits_digest_aligned == rep.splits_digest_shuffled == expect


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


def test_batch_per_hypothesis_seeds_differ():
    ds, target = tiny_dataset(seed=15)
    cfg = fast_config(seed=15)
    reps = score_batch(ds, [target.coords, target.coords], cfg)
    # same hypothesis at two indices: scores differ through fold seeds
    assert reps[0].seeds != reps[1].seeds
    assert reps[0].score != reps[1].score


def test_batch_raises_on_a_bad_hypothesis():
    ds, target = tiny_dataset(seed=16)
    cfg = fast_config(seed=16)
    bad = np.zeros(ds.stimulus_dim + 1)  # wrong dimension
    with pytest.raises(ValueError, match="dimension mismatch"):
        score_batch(ds, [target.coords, bad, target.coords + 1.0], cfg)


def test_batch_rejects_empty():
    ds, _ = tiny_dataset(seed=17)
    with pytest.raises(ValueError):
        score_batch(ds, [], fast_config())


def _exact_fit_dataset():
    # one response column is the true distance, so h = target fits exactly
    ds, target = tiny_dataset(seed=1)
    responses = ds.responses.copy()
    responses[:, 0] = ds.truth.distances
    return StimulusResponseDataset(stimuli=ds.stimuli, responses=responses,
                                   truth=ds.truth), target


def test_denominator_floor_flag():
    noiseless = (*tiny_dataset(seed=18, noise=0.0), fast_config(seed=18))
    exact_fit = (*_exact_fit_dataset(), fast_config(seed=1))
    reports = [score(*case) for case in (noiseless, exact_fit)]
    for rep in reports:
        # floored exactly when aligned rmse drops below DENOM_FLOOR
        assert rep.denominator_floored == (np.mean(rep.per_fold_aligned) < DENOM_FLOOR)
        assert np.isfinite(rep.score)
    exact = reports[1]
    assert exact.denominator_floored
    assert exact.score == exact.rmse_shuffled / DENOM_FLOOR


# ---------------------------------------------------------------------------
# Gram-downdate folds against the SVD reference

FOLD_CASES = ("plain", "offset", "constant", "near_duplicate", "n_below_de",
              "n_folds_plus_one")
# Cases whose folds must not take the Gram path, and ones that must.
SVD_CASES = ("constant", "near_duplicate", "n_below_de")
GRAM_CASES = ("plain", "offset")


def _case_dataset(case, rng, n_folds):
    if case == "n_below_de":
        de = int(rng.integers(n_folds + 2, 12))
        n = int(rng.integers(n_folds + 1, de))
    elif case == "n_folds_plus_one":
        de = int(rng.integers(2, 5))
        n = n_folds + 1
    else:
        de = int(rng.integers(2, 9))
        n = int(rng.integers(60, 200))
    stimuli = rng.standard_normal((n, 3))
    responses = stimuli @ rng.standard_normal((3, de)) + rng.standard_normal((n, de))
    responses *= rng.uniform(0.1, 10.0, de)
    if case == "offset":
        responses += rng.uniform(-1e8, 1e8, de)
    elif case == "constant":
        responses[:, rng.integers(de)] = rng.uniform(-5.0, 5.0)
    elif case == "near_duplicate":
        responses[:, -1] = responses[:, 0] + 1e-9 * rng.standard_normal(n)
    return StimulusResponseDataset(stimuli, responses)


def _reference_per_fold(ds, d, cfg):
    """Per-fold aligned and shuffled RMSEs from the SVD reference path."""
    splits = cv_splits(cfg.cv, ds.n)

    def branch(order):
        rows = ds.responses if order is None else ds.responses[order]
        return cv_rmse(cfg.estimator, rows, d, cfg.cv, splits=splits)[1]

    aligned_order = None
    if cfg.shuffle_aligned:
        aligned_order = draw_permutation(ds.n, derive_seed(cfg.perm_seed, "aligned-control"))
    seeds = [cfg.perm_seed] + [derive_seed(cfg.perm_seed, "multi-shuffle", j)
                               for j in range(1, cfg.n_shuffles)]
    runs = [branch(draw_permutation(ds.n, s)) for s in seeds]
    return branch(aligned_order), [float(np.mean(col)) for col in zip(*runs)]


def _assert_reports_match(got, want, rel):
    assert got.score == pytest.approx(want.score, rel=rel)
    assert got.per_fold_aligned == pytest.approx(want.per_fold_aligned, rel=rel)
    assert got.per_fold_shuffled == pytest.approx(want.per_fold_shuffled, rel=rel)


@given(case=st.sampled_from(FOLD_CASES), kind=st.sampled_from(["ols", "ridge", "dummy_mean"]),
       n_shuffles=st.sampled_from([1, 2]), shuffle_aligned=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_scorer_matches_svd_reference_on_every_fold(case, kind, n_shuffles,
                                                    shuffle_aligned, seed):
    rng = np.random.default_rng(seed)
    n_folds = 5
    ds = _case_dataset(case, rng, n_folds)
    cfg = ScoreConfig(
        estimator=EstimatorSpec(kind=kind, ridge_lambda=4.0 if kind == "ridge" else 0.0),
        cv=CvConfig(n_folds=n_folds, seed=derive_seed(seed, "cv")),
        perm_seed=derive_seed(seed, "perm"),
        n_shuffles=n_shuffles,
        shuffle_aligned=shuffle_aligned,
    )
    # A random h; a stimulus itself, so d holds an exact 0; a point 1e3 away,
    # so d has a large mean and a small spread; and row 0 again.
    h = rng.standard_normal(3)
    far = h + 1e3 * rng.standard_normal(3) / np.sqrt(3.0)
    H = np.stack([h, ds.stimuli[rng.integers(ds.n)], far, h])
    scorer = HypothesisScorer(ds, cfg)
    reps = scorer.score_points(H)

    paths = {path for branch in [scorer._aligned, *scorer._shuffled] for path in branch.paths}
    if kind == "dummy_mean":
        assert paths == {"mean"}
    elif case in SVD_CASES:
        assert paths == {"svd"}
    elif case in GRAM_CASES:
        assert paths == {"gram"}

    assert len(reps) == len(H)
    for row, rep in zip(H, reps):
        d = np.linalg.norm(ds.stimuli - row, axis=1)
        aligned, shuffled = _reference_per_fold(ds, d, cfg)
        assert np.array_equal(rep.hypothesis.coords, row)
        assert rep.per_fold_aligned == pytest.approx(aligned, rel=1e-12)
        assert rep.per_fold_shuffled == pytest.approx(shuffled, rel=1e-12)
        assert rep.rmse_aligned == pytest.approx(np.mean(aligned), rel=1e-12)
        assert rep.rmse_shuffled == pytest.approx(np.mean(shuffled), rel=1e-12)
        assert rep.score == pytest.approx(np.mean(shuffled) / np.mean(aligned), rel=1e-12)
        if kind == "dummy_mean":
            assert rep.score == 1.0
        _assert_reports_match(rep, scorer.score_point(row), rel=1e-12)
    for rep, back in zip(reps, scorer.score_points(H[::-1])[::-1]):
        _assert_reports_match(back, rep, rel=1e-12)


def test_reference_config_folds_take_the_gram_path():
    ds, _ = reference_dataset(0)
    scorer = HypothesisScorer(ds, reference_score_config(0))
    assert {path for branch in [scorer._aligned, *scorer._shuffled]
            for path in branch.paths} == {"gram"}
