import json

import numpy as np
import pytest

from cursor.latent import similarity
from cursor.optimize import (
    CmaConfig,
    OptimizationTrace,
    _lifted_distances,
    cmaes_maximize,
    recover_target,
    trace_summary,
    trace_to_jsonl,
)
from cursor.dataset import StimulusResponseDataset
from cursor.experiments import DEFAULT_PLAN, recover
from cursor.pca import pca_fit, pca_inverse, pca_transform
from cursor.reference import reference_dataset, reference_score_config, trial_seeds
from cursor.scoring import HypothesisScorer

from conftest import fast_config, tiny_dataset


def _sphere_objective(center):
    center = np.asarray(center)

    def objective(x):
        return -float(np.sum((x - center) ** 2))

    return objective


def test_sphere_converges_in_10d():
    # 10-D sphere, generous budget: near-exact optimum on every seed
    for seed in range(10):
        center = np.linspace(-3.0, 3.0, 10)
        cfg = CmaConfig(dim=10, max_evaluations=5000, seed=seed)
        trace = cmaes_maximize(_sphere_objective(center), cfg)
        assert trace.best_point is not None
        assert np.sum((trace.best_point - center) ** 2) < 1e-6


def test_rosenbrock_2d():
    def rosen(x):
        return -float((1.0 - x[0]) ** 2 + 100.0 * (x[1] - x[0] ** 2) ** 2)

    hits = 0
    for seed in range(10):
        cfg = CmaConfig(dim=2, bounds_lo=-5.0, bounds_hi=5.0,
                        max_evaluations=20000, seed=seed)
        trace = cmaes_maximize(rosen, cfg)
        if -trace.best_score < 1e-3:
            hits += 1
    assert hits >= 9


def test_budget_exactly_respected():
    cfg = CmaConfig(dim=4, max_evaluations=137, seed=0)
    trace = cmaes_maximize(_sphere_objective(np.zeros(4)), cfg)
    assert len(trace.evaluations) == 137


def test_candidates_respect_bounds():
    lo, hi = -2.0, 3.0
    cfg = CmaConfig(dim=3, bounds_lo=lo, bounds_hi=hi, max_evaluations=300, seed=1)
    trace = cmaes_maximize(_sphere_objective(np.full(3, 10.0)), cfg)
    for ev in trace.evaluations:
        assert np.all(ev.point >= lo - 1e-12) and np.all(ev.point <= hi + 1e-12)
    # optimum outside the box: best point pushed to the boundary
    assert np.all(trace.best_point > hi - 0.5)


def test_nonfinite_scores_flagged_not_best():
    calls = {"n": 0}

    def spiky(x):
        calls["n"] += 1
        if calls["n"] % 7 == 0:
            return float("nan")
        return -float(np.sum(x**2))

    cfg = CmaConfig(dim=3, max_evaluations=200, seed=2)
    trace = cmaes_maximize(spiky, cfg)
    flagged = [ev for ev in trace.evaluations if ev.nonfinite]
    assert len(flagged) == 200 // 7
    assert np.isfinite(trace.best_score)


def test_best_score_non_decreasing():
    cfg = CmaConfig(dim=5, max_evaluations=400, seed=3)
    trace = cmaes_maximize(_sphere_objective(np.ones(5)), cfg)
    best = -np.inf
    for ev in trace.evaluations:
        if not ev.nonfinite:
            best = max(best, ev.score)
    assert best == trace.best_score


def test_generation_records_spd_covariance():
    cfg = CmaConfig(dim=6, max_evaluations=600, seed=4)
    trace = cmaes_maximize(_sphere_objective(np.zeros(6)), cfg)
    assert trace.generations
    for gen in trace.generations:
        assert gen.min_eig > 0.0
        assert gen.max_eig >= gen.min_eig
        assert gen.sigma > 0.0


def test_sigma_stop_halts_early():
    cfg = CmaConfig(dim=2, sigma0=1e-12, max_evaluations=10000, seed=5)
    trace = cmaes_maximize(_sphere_objective(np.zeros(2)), cfg)
    assert len(trace.evaluations) < 10000


def test_deterministic_in_seed():
    cfg = CmaConfig(dim=4, max_evaluations=300, seed=6)
    a = cmaes_maximize(_sphere_objective(np.ones(4)), cfg)
    b = cmaes_maximize(_sphere_objective(np.ones(4)), cfg)
    c = cmaes_maximize(_sphere_objective(np.ones(4)), CmaConfig(dim=4, max_evaluations=300, seed=7))
    assert np.array_equal(a.best_point, b.best_point)
    assert [e.score for e in a.evaluations] == [e.score for e in b.evaluations]
    assert a.best_score != c.best_score


def test_partial_final_generation_still_evaluated():
    # budget not divisible by population size: trailing evals recorded
    cfg = CmaConfig(dim=4, population_size=8, max_evaluations=20, seed=8)
    trace = cmaes_maximize(_sphere_objective(np.zeros(4)), cfg)
    assert len(trace.evaluations) == 20
    # two full generations (8 + 8) plus a partial one of 4; each started
    # generation logs its covariance snapshot
    assert len(trace.generations) == 3


def test_distance_fn_recorded():
    target = np.full(3, 0.5)
    cfg = CmaConfig(dim=3, max_evaluations=60, seed=9)
    trace = cmaes_maximize(
        _sphere_objective(target), cfg,
        distance_fn=lambda x: float(np.linalg.norm(x - target)),
    )
    for ev in trace.evaluations:
        assert ev.distance == pytest.approx(float(np.linalg.norm(ev.point - target)))


def test_config_validation():
    with pytest.raises(ValueError):
        CmaConfig(dim=0)
    with pytest.raises(ValueError):
        CmaConfig(dim=2, bounds_lo=1.0, bounds_hi=1.0)
    with pytest.raises(ValueError):
        CmaConfig(dim=2, population_size=1)
    with pytest.raises(ValueError):
        CmaConfig(dim=2, sigma0=0.0)


def test_default_population_and_sigma():
    cfg = CmaConfig(dim=10)
    assert cfg.effective_population_size == 4 + int(np.floor(3 * np.log(10)))
    assert cfg.effective_sigma0 == pytest.approx(15.0 / 3.0)


def test_trace_jsonl_and_summary():
    cfg = CmaConfig(dim=3, max_evaluations=50, seed=10)
    trace = cmaes_maximize(_sphere_objective(np.zeros(3)), cfg,
                           distance_fn=lambda x: float(np.linalg.norm(x)))
    text = trace_to_jsonl(trace)
    lines = [json.loads(s) for s in text.strip().split("\n")]
    assert len(lines) == 50
    assert lines[0]["index"] == 0
    summary = trace_summary(trace)
    assert summary["evaluations"] == 50
    assert summary["best_score"] == trace.best_score
    assert summary["best_distance"] == pytest.approx(
        float(np.linalg.norm(trace.best_point)))
    assert summary["final_sigma"] > 0


def test_empty_trace_summary():
    summary = trace_summary(OptimizationTrace())
    assert summary["best_point"] is None
    assert summary["best_distance"] is None
    assert summary["final_sigma"] is None


# ---------------------------------------------------------------------------
# recover_target


def test_recover_target_validates_models():
    ds, target = tiny_dataset(seed=40, noise=0.3)
    pca_e = pca_fit(ds.responses, 4)
    pca_z = pca_fit(ds.stimuli, 3)
    cma = CmaConfig(dim=4, max_evaluations=50, seed=0)  # dim != pca_z.k
    with pytest.raises(ValueError):
        recover_target(ds, fast_config(seed=41), cma, pca_e, pca_z)
    wrong_e = pca_fit(ds.stimuli, 3)  # wrong input_dim for responses
    with pytest.raises(ValueError):
        recover_target(ds, fast_config(seed=41), CmaConfig(dim=3, max_evaluations=50),
                       wrong_e, pca_z)


def test_recover_target_tracks_distance_and_improves():
    ds, target = tiny_dataset(seed=42, n_traj=40, n_pts=8, noise=0.3)
    pca_e = pca_fit(ds.responses, 4)
    pca_z = pca_fit(ds.stimuli, 4)
    cma = CmaConfig(dim=4, bounds_lo=-12.0, bounds_hi=12.0,
                    max_evaluations=400, seed=43)
    zhat, trace = recover_target(ds, fast_config(seed=44), cma, pca_e, pca_z)
    assert zhat.dim == ds.stimulus_dim
    assert len(trace.evaluations) == 400
    # distances logged against hidden truth
    assert all(ev.distance is not None for ev in trace.evaluations)
    d_hat = float(np.linalg.norm(zhat.coords - target.coords))
    first = trace.evaluations[0].distance
    assert d_hat < first
    # ends well inside the sampled region
    assert d_hat < 5.0


def test_recovery_matches_the_scalar_search():
    # recover_target scores a generation per call; cmaes_maximize over
    # score_point scores one candidate per call.  Same search, same points.
    ds, target = reference_dataset(0)
    cfg = reference_score_config(0)
    opt = {**DEFAULT_PLAN["optimization"], "budget": 200}
    _, trace, pca_e, pca_z = recover(opt, ds, cfg, trial_seeds(0)["cma"])

    reduced = StimulusResponseDataset(ds.stimuli, pca_transform(pca_e, ds.responses))
    scorer = HypothesisScorer(reduced, cfg)
    cma = CmaConfig(dim=pca_z.k, bounds_lo=-opt["bounds"], bounds_hi=opt["bounds"],
                    population_size=opt["population_size"], sigma0=opt["sigma0"],
                    max_evaluations=200, seed=trial_seeds(0)["cma"])
    scalar = cmaes_maximize(lambda y: scorer.score_point(pca_inverse(pca_z, y)).score, cma)

    assert len(trace.evaluations) == len(scalar.evaluations) == 200
    for got, want in zip(trace.evaluations, scalar.evaluations):
        assert np.array_equal(got.point, want.point)
        assert got.score == pytest.approx(want.score, rel=1e-12)
        assert got.distance == pytest.approx(
            similarity(target, pca_inverse(pca_z, got.point)), rel=1e-12)
    assert np.array_equal(trace.best_point, scalar.best_point)


def test_lifted_distances_match_the_full_ones():
    # recover_target sums a candidate's distances over the k PCA coordinates
    # plus each stimulus's squared distance from the PCA subspace.
    ds, _ = reference_dataset(0)
    pca_z = pca_fit(ds.stimuli, 10)
    assert ds.stimulus_dim == 32
    rng = np.random.default_rng(0)
    # Random candidates in the default search box, then stimuli's own
    # projections, whose distance to that stimulus is its distance from the
    # subspace alone: where a difference of squares would cancel.
    ys = np.vstack([rng.uniform(-15.0, 15.0, (10, pca_z.k)),
                    pca_transform(pca_z, ds.stimuli[rng.choice(ds.n, 10, replace=False)])])
    lifted = pca_inverse(pca_z, ys)
    got = _lifted_distances(pca_z, ds.stimuli)(ys)
    want = np.linalg.norm(ds.stimuli[None, :, :] - lifted[:, None, :], axis=2)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-13)

    pca_e = pca_fit(ds.responses, 20)
    reduced = StimulusResponseDataset(ds.stimuli, pca_transform(pca_e, ds.responses))
    scorer = HypothesisScorer(reduced, reference_score_config(0))
    for rep, direct in zip(scorer.score_distances(got), scorer.score_points(lifted)):
        assert rep.score == pytest.approx(direct.score, rel=1e-12)


def test_recover_target_deterministic():
    ds, _ = tiny_dataset(seed=45, noise=0.3)
    pca_e = pca_fit(ds.responses, 4)
    pca_z = pca_fit(ds.stimuli, 3)
    cma = CmaConfig(dim=3, max_evaluations=60, seed=46)
    z1, t1 = recover_target(ds, fast_config(seed=47), cma, pca_e, pca_z)
    z2, t2 = recover_target(ds, fast_config(seed=47), cma, pca_e, pca_z)
    assert np.array_equal(z1.coords, z2.coords)
    assert t1.best_score == t2.best_score
