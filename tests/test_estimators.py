import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cursor.estimators import CvConfig, EstimatorSpec, cv_splits, solve_centered

from svd_reference import cv_rmse, fit, predict, rmse


def _linear_problem(n=40, d=5, noise=0.0, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, d))
    w = rng.standard_normal(d)
    y = X @ w + 2.5 + noise * rng.standard_normal(n)
    return X, y


def _solve_raw(X, y, kind="ols", lam=0.0):
    """(weights, intercept) from solve_centered on the unstandardized design."""
    xm, ym = X.mean(axis=0), y.mean()
    u, s, vt = np.linalg.svd(X - xm, full_matrices=False)
    w = solve_centered(kind, lam, u, s, vt, y - ym)
    return w, ym - xm @ w


def test_spec_validation():
    with pytest.raises(ValueError):
        EstimatorSpec(kind="lasso")
    with pytest.raises(ValueError):
        EstimatorSpec(kind="ridge", ridge_lambda=-1.0)


def test_ols_recovers_exact_linear_map():
    X, y = _linear_problem(noise=0.0)
    est = fit(EstimatorSpec(kind="ols"), X, y)
    assert np.allclose(predict(est, X), y, atol=1e-9)


def test_ols_matches_pinv_oracle():
    # independent oracle: raw least squares with explicit intercept column
    X, y = _linear_problem(n=30, d=4, noise=0.5, seed=1)
    w, intercept = _solve_raw(X, y)
    A = np.hstack([X, np.ones((30, 1))])
    coef = np.linalg.pinv(A) @ y
    assert np.allclose(X @ w + intercept, A @ coef, atol=1e-8)


def test_ols_standardization_invariance_of_predictions():
    # standardized and raw designs must give identical predictions for well-posed OLS
    X, y = _linear_problem(n=30, d=4, noise=0.5, seed=2)
    w, intercept = _solve_raw(X, y)
    est = fit(EstimatorSpec(kind="ols"), X, y)
    assert np.allclose(predict(est, X), X @ w + intercept, atol=1e-8)


def test_ridge_matches_closed_form_oracle():
    # closed-form oracle on the centered design: w = (Xc'Xc + lam I)^-1 Xc' yc
    X, y = _linear_problem(n=25, d=3, noise=1.0, seed=3)
    lam = 4.0
    got, _ = _solve_raw(X, y, kind="ridge", lam=lam)
    Xc, yc = X - X.mean(axis=0), y - y.mean()
    w = np.linalg.solve(Xc.T @ Xc + lam * np.eye(3), Xc.T @ yc)
    assert np.allclose(got, w, atol=1e-8)


def test_ridge_zero_lambda_equals_ols():
    X, y = _linear_problem(n=30, d=4, noise=0.3, seed=4)
    w_ols, _ = _solve_raw(X, y)
    w_ridge, _ = _solve_raw(X, y, kind="ridge", lam=0.0)
    assert np.allclose(w_ols, w_ridge, atol=1e-8)


def test_ridge_shrinks_toward_mean():
    X, y = _linear_problem(n=30, d=4, noise=0.3, seed=5)
    w, intercept = _solve_raw(X, y, kind="ridge", lam=1e9)
    assert np.allclose(X @ w + intercept, y.mean(), atol=1e-3)


def test_dummy_predicts_train_mean():
    X, y = _linear_problem(n=20, d=3, noise=1.0, seed=6)
    est = fit(EstimatorSpec(kind="dummy_mean"), X, y)
    assert np.allclose(predict(est, X), y.mean(), atol=1e-12)
    # prediction ignores the inputs entirely
    assert np.allclose(predict(est, X * 100.0), y.mean(), atol=1e-12)


def test_fit_validates_shapes_and_finiteness():
    with pytest.raises(ValueError):
        fit(EstimatorSpec(), np.zeros((3, 2)), np.zeros(4))
    with pytest.raises(ValueError):
        fit(EstimatorSpec(), np.array([[np.nan, 0.0]]), np.zeros(1))
    with pytest.raises(ValueError):
        fit(EstimatorSpec(kind="ols"), np.zeros((1, 2)), np.zeros(1))
    # dummy is fine with a single row
    est = fit(EstimatorSpec(kind="dummy_mean"), np.zeros((1, 2)), np.array([3.0]))
    assert predict(est, np.zeros((2, 2))) == pytest.approx([3.0, 3.0])


def test_predict_checks_feature_count():
    X, y = _linear_problem(n=20, d=3)
    est = fit(EstimatorSpec(), X, y)
    with pytest.raises(ValueError):
        predict(est, np.zeros((5, 4)))


def test_rmse_oracle():
    assert rmse([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 0.0
    assert rmse([0.0, 0.0], [3.0, 4.0]) == pytest.approx(np.sqrt(12.5))
    assert rmse([1.0], [4.0]) == pytest.approx(3.0)
    with pytest.raises(ValueError):
        rmse([1.0, 2.0], [1.0])


def test_cv_splits_deterministic_in_seed():
    cv = CvConfig(n_folds=5, train_fraction=0.8, seed=11)
    a = cv_splits(cv, 50)
    b = cv_splits(cv, 50)
    c = cv_splits(CvConfig(n_folds=5, train_fraction=0.8, seed=12), 50)
    for (ta, va), (tb, vb) in zip(a, b):
        assert np.array_equal(ta, tb) and np.array_equal(va, vb)
    assert any(not np.array_equal(x[0], y[0]) for x, y in zip(a, c))


def test_cv_splits_cover_and_partition_each_fold():
    cv = CvConfig(n_folds=10, train_fraction=0.9, seed=0)
    for train, val in cv_splits(cv, 40):
        assert len(train) == 36 and len(val) == 4
        merged = np.sort(np.concatenate([train, val]))
        assert np.array_equal(merged, np.arange(40))
        assert np.array_equal(train, np.sort(train))


def test_cv_splits_independent_folds_differ():
    cv = CvConfig(n_folds=6, seed=3)
    splits = cv_splits(cv, 60)
    vals = [tuple(v) for _, v in splits]
    assert len(set(vals)) > 1


def test_cv_splits_size_guards():
    with pytest.raises(ValueError):
        cv_splits(CvConfig(n_folds=10), 5)
    with pytest.raises(ValueError):
        CvConfig(train_fraction=1.0)
    with pytest.raises(ValueError):
        CvConfig(n_folds=0)


@given(st.integers(min_value=10, max_value=80), st.integers(min_value=0, max_value=500))
@settings(max_examples=25, deadline=None)
def test_cv_split_sizes_property(n, seed):
    cv = CvConfig(n_folds=4, train_fraction=0.9, seed=seed)
    n_train = min(max(int(round(0.9 * n)), 1), n - 1)
    for train, val in cv_splits(cv, n):
        assert len(train) == n_train
        assert len(val) == n - n_train


def test_cv_rmse_explicit_splits_override():
    X, y = _linear_problem(n=24, d=3, noise=0.5, seed=7)
    cv = CvConfig(n_folds=3, seed=0)
    splits = cv_splits(cv, 24)
    m1, folds1 = cv_rmse(EstimatorSpec(), X, y, cv, splits=splits)
    # same splits passed explicitly with a different cv seed: identical result
    m2, folds2 = cv_rmse(EstimatorSpec(), X, y, CvConfig(n_folds=3, seed=99), splits=splits)
    assert m1 == m2 and folds1 == folds2


def test_cv_rmse_hand_computed():
    X, y = _linear_problem(n=20, d=2, noise=0.8, seed=8)
    cv = CvConfig(n_folds=4, seed=5)
    mean, folds = cv_rmse(EstimatorSpec(), X, y, cv)
    expect = []
    for train, val in cv_splits(cv, 20):
        est = fit(EstimatorSpec(), X[train], y[train])
        expect.append(rmse(predict(est, X[val]), y[val]))
    assert folds == pytest.approx(expect)
    assert mean == pytest.approx(np.mean(expect))
