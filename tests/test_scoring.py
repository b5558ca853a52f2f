import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cursor._util import derive_seed
from cursor.dataset import StimulusResponseDataset, draw_permutation, subsample
from cursor.estimators import CvConfig, EstimatorSpec, cv_splits
from cursor.reference import reference_dataset, reference_score_config
from cursor.dataset import standardize_fit
from cursor import scoring
from cursor.scoring import (
    DENOM_FLOOR,
    GRAM_MIN_EIG_RATIO,
    HypothesisScorer,
    ScoreConfig,
    _batch_cfg,
    _splits_digest,
    _well_conditioned,
    report_to_json,
    score,
    score_batch,
)

from conftest import fast_config, tiny_dataset
from svd_reference import cv_rmse, standardize


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
    assert a.splits_digest == b.splits_digest


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
    cfg = fast_config(seed=4, shuffle_aligned=True)
    rep = score(ds, target, cfg)
    expect = _splits_digest(cv_splits(cfg.cv, ds.n))
    assert rep.splits_digest == expect


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


def test_score_distances_refuses_a_row_that_is_not_finite():
    ds, target = tiny_dataset(seed=5)
    scorer = HypothesisScorer(ds, fast_config(seed=5))
    d = np.tile(np.linalg.norm(ds.stimuli - target.coords, axis=1), (3, 1))
    for bad in (np.inf, np.nan):
        d[1, 4] = bad
        with pytest.raises(ValueError, match="distance row 1 is not finite"):
            scorer.score_distances(d)
    # Squares that overflow give inf distances, without a RuntimeWarning.
    with pytest.raises(ValueError, match="distance row 0 is not finite"):
        scorer.score_point(np.full(ds.stimulus_dim, 1e200))


def test_scorers_on_one_dataset_share_its_centered_responses():
    ds, _ = tiny_dataset(seed=19)
    a, b = HypothesisScorer(ds, fast_config(seed=1)), HypothesisScorer(ds, fast_config(seed=2))
    assert a._x0 is b._x0 is ds.centered_gram[0]
    assert not any(arr.flags.writeable for arr in ds.centered_gram)


def test_batch_matches_scorers_built_alone_on_fresh_copies():
    # score_batch builds every scorer on one dataset object, which forms its
    # centered responses once; a scorer on its own copy forms them afresh.
    ds, target = reference_dataset(0)
    cfg = reference_score_config(0)
    H = [target.coords, ds.stimuli[7], np.random.default_rng(0).standard_normal(target.dim)]
    for i, (h, rep) in enumerate(zip(H, score_batch(ds, H, cfg))):
        fresh = StimulusResponseDataset(ds.stimuli, ds.responses, ds.truth)
        assert fresh.responses is not ds.responses
        alone = HypothesisScorer(fresh, _batch_cfg(cfg, i)).score_point(h)
        assert report_to_json(alone) == report_to_json(rep)


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


def _branch_orders(cfg, n):
    """Each branch's row order as the scorer draws it: the aligned one first."""
    aligned = np.arange(n)
    if cfg.shuffle_aligned:
        aligned = draw_permutation(n, derive_seed(cfg.perm_seed, "aligned-control"))
    return [aligned, draw_permutation(n, cfg.perm_seed)]


def _reference_per_branch(ds, d, cfg):
    """Per-fold RMSEs (branches x folds) of every branch from the SVD reference path."""
    splits = cv_splits(cfg.cv, ds.n)
    return np.array([cv_rmse(cfg.estimator, ds.responses[order], d, cfg.cv, splits=splits)[1]
                     for order in _branch_orders(cfg, ds.n)])


def _reference_per_fold(ds, d, cfg):
    """Per-fold aligned and shuffled RMSEs from the SVD reference path."""
    rms = _reference_per_branch(ds, d, cfg)
    return rms[0].tolist(), rms[1].tolist()


def _assert_reports_match(got, want, rel):
    assert got.score == pytest.approx(want.score, rel=rel)
    assert got.per_fold_aligned == pytest.approx(want.per_fold_aligned, rel=rel)
    assert got.per_fold_shuffled == pytest.approx(want.per_fold_shuffled, rel=rel)


def _paths(scorer):
    return set(scorer._paths.flat)


@given(case=st.sampled_from(FOLD_CASES), kind=st.sampled_from(["ols", "ridge", "dummy_mean"]),
       shuffle_aligned=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_scorer_matches_svd_reference_on_every_fold(case, kind, shuffle_aligned, seed):
    rng = np.random.default_rng(seed)
    n_folds = 5
    ds = _case_dataset(case, rng, n_folds)
    cfg = ScoreConfig(
        estimator=EstimatorSpec(kind=kind, ridge_lambda=4.0 if kind == "ridge" else 0.0),
        cv=CvConfig(n_folds=n_folds, seed=derive_seed(seed, "cv")),
        perm_seed=derive_seed(seed, "perm"),
        shuffle_aligned=shuffle_aligned,
    )
    # A random h; a stimulus itself, so d holds an exact 0; a point 1e3 away,
    # so d has a large mean and a small spread; and row 0 again.
    h = rng.standard_normal(3)
    far = h + 1e3 * rng.standard_normal(3) / np.sqrt(3.0)
    H = np.stack([h, ds.stimuli[rng.integers(ds.n)], far, h])
    scorer = HypothesisScorer(ds, cfg)
    reps = scorer.score_points(H)

    paths = _paths(scorer)
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
    assert _paths(HypothesisScorer(ds, reference_score_config(0))) == {"gram"}


def _two_column_dataset(ratio, n=400):
    """Two columns whose standardized Gram has eigenvalue ratio `ratio` over
    all rows; a fold's training rows land within 10% of it."""
    rng = np.random.default_rng(0)
    r = (1 - ratio) / (1 + ratio)  # eigenvalues of [[1, r], [r, 1]] are 1 -+ r
    z = rng.standard_normal((n, 2))
    z -= z.mean(axis=0)
    z[:, 1] -= z[:, 0] * (z[:, 0] @ z[:, 1]) / (z[:, 0] @ z[:, 0])
    z /= np.linalg.norm(z, axis=0)
    responses = np.column_stack([z[:, 0], r * z[:, 0] + np.sqrt(1 - r * r) * z[:, 1]])
    return StimulusResponseDataset(rng.standard_normal((n, 3)), responses)


@pytest.mark.parametrize("kind", ["ols", "ridge"])
@pytest.mark.parametrize("ratio, path", [(3e-4, "svd"), (3e-3, "gram")])
def test_gram_guard_threshold(kind, ratio, path):
    # A fold takes the Gram path only above an eigenvalue ratio of 1e-3.
    ds = _two_column_dataset(ratio)
    cfg = ScoreConfig(
        estimator=EstimatorSpec(kind=kind, ridge_lambda=4.0 if kind == "ridge" else 0.0),
        cv=CvConfig(n_folds=5, seed=1), perm_seed=2)
    scorer = HypothesisScorer(ds, cfg)
    assert _paths(scorer) == {path}
    rep = scorer.score_point(ds.stimuli[0])
    aligned, shuffled = _reference_per_fold(ds, np.linalg.norm(ds.stimuli - ds.stimuli[0], axis=1),
                                            cfg)
    assert rep.per_fold_aligned == pytest.approx(aligned, rel=1e-12)
    assert rep.per_fold_shuffled == pytest.approx(shuffled, rel=1e-12)


@pytest.mark.parametrize("kind", ["ols", "ridge"])
@pytest.mark.parametrize("n", [160, 3000])
def test_reference_dimension_folds_match_svd_reference(kind, n):
    # De = 64: at N = 160 a fold trains on 144 rows, the sweep's middle size.
    full, target = reference_dataset(0)
    ds = full if n == full.n else subsample(full, n, seed=0)
    cfg = replace(reference_score_config(0),
                  estimator=EstimatorSpec(kind=kind, ridge_lambda=4.0 if kind == "ridge" else 0.0))
    scorer = HypothesisScorer(ds, cfg)
    assert _paths(scorer) == {"gram"}
    H = np.stack([target.coords, ds.stimuli[n // 2],
                  np.random.default_rng(n).standard_normal(target.dim)])
    for row, rep in zip(H, scorer.score_points(H)):
        aligned, shuffled = _reference_per_fold(ds, np.linalg.norm(ds.stimuli - row, axis=1), cfg)
        assert rep.per_fold_aligned == pytest.approx(aligned, rel=1e-12)
        assert rep.per_fold_shuffled == pytest.approx(shuffled, rel=1e-12)
        assert rep.score == pytest.approx(np.mean(shuffled) / np.mean(aligned), rel=1e-12)


def _spd(lam, rng):
    q, _ = np.linalg.qr(rng.standard_normal((lam.size, lam.size)))
    m = (q * lam) @ q.T
    return (m + m.T) / 2


GUARD_RATIOS = (0.5, 1.2e-2, 1.001e-3, 0.999e-3, 1e-5)


@pytest.mark.parametrize("de", [2, 20, 64])
def test_gram_guard_decides_each_fold_as_eigvalsh(de):
    # Spectra from lambda_min / lambda_max = ratio up to 1, and one nearly
    # rank-one spectrum; passing and failing matrices share one stack.
    rng = np.random.default_rng(de)
    spectra = [np.geomspace(ratio, 1.0, de) for ratio in GUARD_RATIOS]
    spectra.append(np.r_[np.full(de - 1, 1e-9), 1.0])
    stack = np.stack([_spd(lam, rng) for lam in spectra])
    lam = np.linalg.eigvalsh(stack)
    want = lam[:, 0] > GRAM_MIN_EIG_RATIO * lam[:, -1]
    assert want.tolist() == [True, True, True, False, False, False]
    for order in (slice(None), slice(None, None, -1)):
        assert np.array_equal(_well_conditioned(stack[order]), want[order])
    for f in range(len(stack)):  # alone, so that no other matrix forces the fallback
        assert np.array_equal(_well_conditioned(stack[f:f + 1]), want[f:f + 1])


@pytest.mark.parametrize("de", [2, 20, 64])
def test_gram_guard_passes_a_well_conditioned_stack_without_eigenvalues(de, monkeypatch):
    rng = np.random.default_rng(de)
    stack = np.stack([_spd(np.geomspace(ratio, 1.0, de), rng) for ratio in (0.5, 1.2e-2)])

    def refuse(_):
        raise AssertionError("eigvalsh ran")

    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    assert _well_conditioned(stack).tolist() == [True, True]


def test_scorer_fold_paths_follow_the_eigenvalue_rule():
    # At a whole-dataset ratio of 1e-3 some folds' training rows fall on
    # either side of the bound.  A shuffled aligned branch and the shuffled
    # one give two branches whose cells mix both paths; each cell's path must
    # match the rule applied to its own standardized training rows, and its
    # RMSEs those of the SVD reference on that branch and fold.
    ds = _two_column_dataset(1e-3)
    cfg = ScoreConfig(cv=CvConfig(n_folds=5, seed=1), perm_seed=2, shuffle_aligned=True)
    scorer = HypothesisScorer(ds, cfg)
    assert scorer._paths.shape == (2, 5)
    assert _paths(scorer) == {"gram", "svd"}
    for order, paths in zip(_branch_orders(cfg, ds.n), scorer._paths):
        for (train, _), path in zip(scorer.splits, paths):
            x = ds.responses[order[train]]
            xs = standardize(x, *standardize_fit(x))
            lam = np.linalg.eigvalsh(np.corrcoef(xs, rowvar=False))
            assert path == ("gram" if lam[0] > GRAM_MIN_EIG_RATIO * lam[-1] else "svd")
    H = np.stack([ds.stimuli[0], np.zeros(3), np.full(3, 5.0)])
    d = np.linalg.norm(ds.stimuli[None] - H[:, None], axis=2)
    rms = scorer._rmses(d)
    for b in range(len(H)):
        assert rms[:, :, b] == pytest.approx(_reference_per_branch(ds, d[b], cfg), rel=1e-12)


@pytest.mark.parametrize("shuffle_aligned", [False, True])
def test_gram_build_factors_every_cell_in_one_pass(shuffle_aligned, monkeypatch):
    # One condition guard covers every (branch, fold) cell and no inverse is
    # formed; scoring solves every cell of the stack in one call.
    calls = {"_well_conditioned": 0, "inv": 0, "solve": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(scoring, "_well_conditioned",
                        counted("_well_conditioned", scoring._well_conditioned))
    monkeypatch.setattr(np.linalg, "inv", counted("inv", np.linalg.inv))
    monkeypatch.setattr(np.linalg, "solve", counted("solve", np.linalg.solve))
    ds, _ = tiny_dataset(seed=1, n_traj=12, de=20)
    cfg = fast_config(seed=1, shuffle_aligned=shuffle_aligned)
    scorer = HypothesisScorer(ds, cfg)
    assert _paths(scorer) == {"gram"}
    assert scorer._paths.shape == (2, cfg.cv.n_folds)
    assert calls == {"_well_conditioned": 1, "inv": 0, "solve": 0}
    H = np.random.default_rng(1).standard_normal((10, ds.stimulus_dim))
    d = np.linalg.norm(ds.stimuli[None] - H[:, None], axis=2)
    batch = scorer._rmses(d)
    assert calls == {"_well_conditioned": 1, "inv": 0, "solve": 1}
    # Ten right-hand sides per cell solve as ten single ones do.
    for b in range(len(H)):
        assert batch[:, :, b] == pytest.approx(scorer._rmses(d[b:b + 1])[:, :, 0], rel=1e-12)


@pytest.mark.parametrize("kind", ["ols", "ridge"])
def test_svd_build_factors_every_cell_in_one_call(kind, monkeypatch):
    # N < De puts every cell on the SVD path; the build factorizes them with
    # one stacked SVD and scoring factorizes nothing.
    calls = []
    svd = np.linalg.svd

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    ds, _ = tiny_dataset(seed=1, n_traj=3, de=40)
    cfg = fast_config(seed=1, kind=kind)
    scorer = HypothesisScorer(ds, cfg)
    assert _paths(scorer) == {"svd"}
    n_train = scorer.splits[0][0].shape[0]
    assert calls == [(2 * cfg.cv.n_folds, n_train, 40)]
    H = np.random.default_rng(1).standard_normal((4, ds.stimulus_dim))
    d = np.linalg.norm(ds.stimuli[None] - H[:, None], axis=2)
    batch = scorer._rmses(d)
    assert len(calls) == 1
    # Every cell and hypothesis is a matrix-vector product of its own, so a
    # batch scores each hypothesis bit for bit as it scores alone.
    for b in range(len(H)):
        assert np.array_equal(batch[:, :, b], scorer._rmses(d[b:b + 1])[:, :, 0])
