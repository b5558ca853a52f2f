"""Acceptance suite: eleven go/no-go checks at their stated tolerances.

Each criterion is one test that prints a single ``[criterion N] PASS/FAIL``
line with the measured numbers before asserting, so running this file with
``pytest -s`` yields a scoreboard.  Criteria 6-9 share one session-scoped
battery of ten reference trials; everything else is self-contained.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from cursor._util import derive_rng, derive_seed
from cursor.cli import main as cli_main
from cursor.dataset import (
    EpochTensor,
    ablate_near_target,
    dataset_from_arrays,
    load_dataset,
    subsample,
    window_epoch,
)
from cursor.estimators import CvConfig, EstimatorSpec, solve_centered
from cursor.experiments import recover_labels
from cursor.optimize import CmaConfig, cmaes_maximize, recover_target
from cursor.pca import (
    default_latent_k,
    default_response_k,
    pca_fit,
    pca_inverse,
    pca_transform,
)
from cursor.ranking import rank_report, target_rank
from cursor.reference import (
    REFERENCE,
    reference_dataset,
    reference_hypothesis_set,
    reference_model,
    reference_score_config,
    trial_seeds,
)
from cursor.scoring import ScoreConfig, score

CALIBRATION_FILE = Path(__file__).resolve().parent.parent / "scripts" / "reference_calibration.json"


def _verdict(n: int, ok: bool, detail: str) -> str:
    line = f"[criterion {n}] {'PASS' if ok else 'FAIL'}: {detail}"
    print(line, flush=True)
    return line


# ---------------------------------------------------------------------------
# 1. Dummy-score identity


def test_criterion_1_dummy_score_identity():
    t0 = time.perf_counter()
    exact = 0
    n_pairs = 50
    for i in range(n_pairs):
        rng = derive_rng(9100, "dummy-pair", i)
        n = int(rng.integers(30, 81))
        dz = int(rng.integers(2, 13))
        de = int(rng.integers(2, 13))
        ds = dataset_from_arrays(rng.standard_normal((n, dz)),
                                 rng.standard_normal((n, de)))
        h = rng.standard_normal(dz)
        cfg = ScoreConfig(
            estimator=EstimatorSpec(kind="dummy_mean"),
            cv=CvConfig(n_folds=10, train_fraction=0.9, seed=derive_seed(9100, "cv", i)),
            perm_seed=derive_seed(9100, "perm", i),
        )
        rep = score(ds, h, cfg)
        exact += rep.score == 1.0
    elapsed = time.perf_counter() - t0
    ok = exact == n_pairs and elapsed < 10.0
    detail = f"{exact}/{n_pairs} pairs bitwise 1.0 in {elapsed:.1f}s (limit 10s)"
    assert ok, _verdict(1, ok, detail)
    _verdict(1, ok, detail)


# ---------------------------------------------------------------------------
# 2. OLS oracle equivalence


def test_criterion_2_ols_matches_pseudoinverse_oracle():
    # the scorer's solve, fed the SVD of the centered raw design
    worst_w, worst_orth = 0.0, 0.0
    for i in range(100):
        rng = derive_rng(9200, "ols-problem", i)
        n = int(rng.integers(25, 201))
        d = int(rng.integers(1, 21))
        X = rng.standard_normal((n, d))
        y = rng.standard_normal(n)
        xm, ym = X.mean(axis=0), y.mean()
        u, s, vt = np.linalg.svd(X - xm, full_matrices=False)
        weights = solve_centered("ols", 0.0, u, s, vt, y - ym)
        intercept = ym - xm @ weights
        # independent oracle: pseudoinverse of the intercept-augmented design
        A = np.hstack([X, np.ones((n, 1))])
        w_full = np.linalg.pinv(A) @ y
        worst_w = max(worst_w,
                      float(np.max(np.abs(weights - w_full[:-1]))),
                      abs(intercept - w_full[-1]))
        resid = y - (X @ weights + intercept)
        worst_orth = max(worst_orth, float(np.max(np.abs(X.T @ resid))),
                         abs(float(resid.sum())))
    ok = worst_w < 1e-8 and worst_orth < 1e-8
    detail = (f"100 problems, max weight deviation {worst_w:.2e}, "
              f"max residual-input product {worst_orth:.2e} (tol 1e-8)")
    assert ok, _verdict(2, ok, detail)
    _verdict(2, ok, detail)


# ---------------------------------------------------------------------------
# 3. PCA suite


def test_criterion_3_pca_suite():
    rng = derive_rng(9300, "pca")
    X = rng.standard_normal((80, 12)) @ rng.standard_normal((12, 12))
    X += rng.standard_normal(12)

    model = pca_fit(X, 5)
    orth = float(np.max(np.abs(model.components @ model.components.T - np.eye(5))))

    full = pca_fit(X, 12)
    round_trip = float(np.max(np.abs(pca_inverse(full, pca_transform(full, X)) - X)))

    centered = X - X.mean(axis=0)
    eigvals = np.sort(np.linalg.eigvalsh(centered.T @ centered / (X.shape[0] - 1)))[::-1]
    ev_err = float(np.max(np.abs(full.explained_variance - eigvals)))

    errs = []
    for k in range(1, 13):
        m = pca_fit(X, k)
        errs.append(float(np.linalg.norm(pca_inverse(m, pca_transform(m, X)) - X)))
    monotone = all(errs[i + 1] <= errs[i] + 1e-12 for i in range(len(errs) - 1))

    ok = orth < 1e-9 and round_trip < 1e-9 and ev_err < 1e-8 and monotone
    detail = (f"orthonormality {orth:.1e} (tol 1e-9), round trip {round_trip:.1e} "
              f"(tol 1e-9), eigenvalue error {ev_err:.1e} (tol 1e-8), "
              f"reconstruction monotone={monotone}")
    assert ok, _verdict(3, ok, detail)
    _verdict(3, ok, detail)


# ---------------------------------------------------------------------------
# 4. CMA-ES convergence


def test_criterion_4_cmaes_benchmarks():
    t0 = time.perf_counter()
    sphere_hits = 0
    for seed in range(10):
        cfg = CmaConfig(dim=10, max_evaluations=5000, seed=seed)
        trace = cmaes_maximize(lambda x: -float(np.sum(x * x)), cfg)
        sphere_hits += float(np.linalg.norm(trace.best_point)) < 1e-6

    def rosen(x):
        return -float((1.0 - x[0]) ** 2 + 100.0 * (x[1] - x[0] ** 2) ** 2)

    rosen_hits = 0
    for seed in range(10):
        cfg = CmaConfig(dim=2, bounds_lo=-5.0, bounds_hi=5.0,
                        max_evaluations=20000, seed=seed)
        trace = cmaes_maximize(rosen, cfg)
        rosen_hits += float(np.linalg.norm(trace.best_point - 1.0)) < 1e-3
    elapsed = time.perf_counter() - t0
    ok = sphere_hits == 10 and rosen_hits >= 9 and elapsed < 60.0
    detail = (f"sphere to norm<1e-6: {sphere_hits}/10 (need 10), rosenbrock "
              f"within 1e-3: {rosen_hits}/10 (need 9), {elapsed:.1f}s (limit 60s)")
    assert ok, _verdict(4, ok, detail)
    _verdict(4, ok, detail)


# ---------------------------------------------------------------------------
# 5. Random-baseline anchors


def test_criterion_5_random_baseline_anchors():
    t0 = time.perf_counter()
    L = 60
    d_max = REFERENCE["hypothesis_d_max"]
    rng = derive_rng(9500, "baseline")
    ranks = np.empty(10_000)
    d_tops = np.empty(10_000)
    for i in range(10_000):
        scores = rng.uniform(0.0, 1.0, L)
        distances = rng.uniform(0.0, d_max, L)
        ranks[i] = target_rank(scores, 0, tie_seed=i)
        d_tops[i] = distances[int(np.argmax(scores))]
    mean_rank = float(ranks.mean())
    mean_d_top = float(d_tops.mean())
    elapsed = time.perf_counter() - t0
    ok = (abs(mean_rank - 30.5) <= 0.5 and abs(mean_d_top - 23.08) <= 0.3
          and elapsed < 30.0)
    detail = (f"mean random-score target rank {mean_rank:.3f} (30.5 +- 0.5), "
              f"mean top-rank distance {mean_d_top:.3f} (23.08 +- 0.3), "
              f"{elapsed:.1f}s (limit 30s)")
    assert ok, _verdict(5, ok, detail)
    _verdict(5, ok, detail)


# ---------------------------------------------------------------------------
# 6-9. Reference-configuration battery (shared across four criteria)


def _incumbent_improvement(trace) -> float:
    """Relative drop of the best-so-far candidate's true distance."""
    first_d, best_d, best_s = None, None, -np.inf
    for ev in trace.evaluations:
        if ev.nonfinite:
            continue
        if ev.score > best_s:
            best_s, best_d = ev.score, ev.distance
            if first_d is None:
                first_d = ev.distance
    if first_d in (None, 0.0):
        return 0.0
    return float((first_d - best_d) / first_d)


@pytest.fixture(scope="session")
def reference_battery():
    """Per-trial rank reports, recoveries, and controls at the pinned config."""
    model = reference_model()
    k_e = default_response_k(REFERENCE["response_dim"])
    k_z = default_latent_k(REFERENCE["latent_dim"])
    rows = []
    for trial in range(REFERENCE["n_trials"]):
        seeds = trial_seeds(trial)
        t0 = time.perf_counter()
        ds, target = reference_dataset(trial, model=model)
        hset = reference_hypothesis_set(trial, target, include_target=True)
        row = {"trial": trial}
        for label, kind, shuffled in (("ols", "ols", False),
                                      ("slr", "ols", True),
                                      ("dummy", "dummy_mean", False)):
            cfg = reference_score_config(trial, kind=kind, shuffle_aligned=shuffled)
            rep = rank_report(ds, hset, cfg)
            row[f"{label}_r"] = rep.pearson_r
            row[f"{label}_rank"] = rep.target_rank
            row[f"{label}_d_top"] = rep.d_top_rank
        row["t_rank"] = time.perf_counter() - t0

        # optimization-style evaluation: candidate set without the target,
        # then CMA-ES recovery plus a dummy-objective control on the same data
        t0 = time.perf_counter()
        cfg = reference_score_config(trial)
        hset_wo = reference_hypothesis_set(trial, target, include_target=False)
        rep_wo = rank_report(ds, hset_wo, cfg, true_target=target)
        row["comparator_d_top"] = rep_wo.d_top_rank
        pca_e = pca_fit(ds.responses, k_e)
        pca_z = pca_fit(ds.stimuli, k_z)
        cma = CmaConfig(dim=k_z, max_evaluations=1000, seed=seeds["cma"])
        zhat, _ = recover_target(ds, cfg, cma, pca_e, pca_z)
        row["recovered_distance"] = float(np.linalg.norm(zhat.coords - target.coords))
        dummy_cfg = reference_score_config(trial, kind="dummy_mean")
        z_dummy, tr_dummy = recover_target(ds, dummy_cfg, cma, pca_e, pca_z)
        row["dummy_improvement"] = _incumbent_improvement(tr_dummy)
        row["t_opt"] = time.perf_counter() - t0

        slr_cfg = reference_score_config(trial, kind="ols", shuffle_aligned=True)
        z_slr, _ = recover_target(ds, slr_cfg, cma, pca_e, pca_z)
        for label, z in (("label", zhat), ("dummy_label", z_dummy),
                         ("slr_label", z_slr)):
            _, metrics = recover_labels(ds, z)
            row[f"{label}_rmse"] = metrics["rmse"]
            row[f"{label}_rmse_pct"] = metrics["rmse_pct_of_range"]
            row[f"{label}_bound"] = float(np.linalg.norm(z.coords - target.coords))
        rows.append(row)
    return rows


def test_criterion_6_reference_ranking(reference_battery):
    rows = reference_battery
    mean = lambda key: float(np.mean([r[key] for r in rows]))
    ols_r = mean("ols_r")
    ols_rank = mean("ols_rank")
    ols_d_top = mean("ols_d_top")
    d_cap = 0.20 * REFERENCE["hypothesis_d_max"]
    slr_r = mean("slr_r")
    slr_rank = mean("slr_rank")
    dummy_rank = mean("dummy_rank")
    # a constant-score control has no defined correlation; that counts as null
    dummy_rs = [r["dummy_r"] for r in rows if r["dummy_r"] is not None]
    dummy_r_ok = all(abs(v) <= 0.15 for v in dummy_rs)
    runtime = sum(r["t_rank"] for r in rows)
    ok = (ols_r <= -0.6 and ols_rank <= 10.0 and ols_d_top <= d_cap
          and abs(slr_r) <= 0.15 and dummy_r_ok
          and 24.0 <= slr_rank <= 37.0 and 24.0 <= dummy_rank <= 37.0
          and runtime < 600.0)
    detail = (f"ols R {ols_r:.3f} (<= -0.6), rank {ols_rank:.1f} (<= 10), "
              f"d_top {ols_d_top:.2f} (<= {d_cap:.2f}); shuffled-aligned R "
              f"{slr_r:.3f} (|R| <= 0.15), rank {slr_rank:.1f} in [24, 37]; "
              f"dummy rank {dummy_rank:.1f} in [24, 37]; {runtime:.0f}s "
              f"(limit 600s)")
    assert ok, _verdict(6, ok, detail)
    _verdict(6, ok, detail)


def test_criterion_7_reference_recovery(reference_battery):
    rows = reference_battery
    wins = sum(r["recovered_distance"] <= r["comparator_d_top"] for r in rows)
    worst_improvement = max(r["dummy_improvement"] for r in rows)
    runtime = sum(r["t_opt"] for r in rows)
    ok = wins >= 8 and worst_improvement < 0.10 and runtime < 900.0
    mean_rec = float(np.mean([r["recovered_distance"] for r in rows]))
    mean_cmp = float(np.mean([r["comparator_d_top"] for r in rows]))
    detail = (f"recovery beats ranking d_top on {wins}/10 seeds (need 8; mean "
              f"recovered {mean_rec:.3f} vs comparator {mean_cmp:.3f}); dummy "
              f"control improvement {worst_improvement:.3f} (< 0.10); "
              f"{runtime:.0f}s (limit 900s)")
    assert ok, _verdict(7, ok, detail)
    _verdict(7, ok, detail)


@pytest.fixture(scope="session")
def ablation_battery():
    """Near-target ablation vs size-matched control recoveries per trial."""
    model = reference_model()
    k_e = default_response_k(REFERENCE["response_dim"])
    k_z = default_latent_k(REFERENCE["latent_dim"])
    threshold = 2.0  # largest tested: drops both near rungs of the ladder
    rows = []
    for trial in range(REFERENCE["n_trials"]):
        ds, target = reference_dataset(trial, model=model)
        seeds = trial_seeds(trial)
        ablated = ablate_near_target(ds, threshold)
        control = subsample(
            ds, ablated.n,
            derive_seed(REFERENCE["master_seed"], "trial", trial, "ablation-control"),
        )
        cfg = reference_score_config(trial)
        cma = CmaConfig(dim=k_z, max_evaluations=1000, seed=seeds["cma"])
        row = {"trial": trial, "threshold": threshold, "n": ablated.n}
        for name, cond in (("ablated", ablated), ("control", control)):
            pca_e = pca_fit(cond.responses, k_e)
            pca_z = pca_fit(cond.stimuli, k_z)
            zhat, _ = recover_target(cond, cfg, cma, pca_e, pca_z)
            row[name] = float(np.linalg.norm(zhat.coords - target.coords))
        rows.append(row)
    return rows


def test_criterion_8_ablation_hurts_recovery(ablation_battery):
    rows = ablation_battery
    worse = sum(r["ablated"] > r["control"] for r in rows)
    mean_abl = float(np.mean([r["ablated"] for r in rows]))
    mean_ctl = float(np.mean([r["control"] for r in rows]))
    ok = worse >= 8
    detail = (f"ablated recovery worse than size-matched control on {worse}/10 "
              f"seeds (need 8) at threshold {rows[0]['threshold']} "
              f"(mean {mean_abl:.2f} vs {mean_ctl:.2f}, n={rows[0]['n']})")
    assert ok, _verdict(8, ok, detail)
    _verdict(8, ok, detail)


def test_criterion_9_label_recovery(reference_battery):
    rows = reference_battery
    under_5pct = sum(r["label_rmse_pct"] < 5.0 for r in rows)
    beats = sum(r["label_rmse"] < r["dummy_label_rmse"]
                and r["label_rmse"] < r["slr_label_rmse"] for r in rows)
    bound_ok = all(r[f"{lab}_rmse"] <= r[f"{lab}_bound"] + 1e-9
                   for r in rows for lab in ("label", "dummy_label", "slr_label"))
    worst_pct = max(r["label_rmse_pct"] for r in rows)
    ok = under_5pct == 10 and beats == 10 and bound_ok
    detail = (f"label rmse < 5% of range on {under_5pct}/10 (worst "
              f"{worst_pct:.2f}%), beats both control recoveries on {beats}/10, "
              f"triangle bound rmse <= recovery distance holds={bound_ok}")
    assert ok, _verdict(9, ok, detail)
    _verdict(9, ok, detail)


# ---------------------------------------------------------------------------
# 10. Determinism and parallel safety


def test_criterion_10_manifest_determinism(tmp_path):
    gen = ["generate", "--targets", "1", "--trajectories", "6", "--points", "4",
           "--latent-dim", "6", "--response-dim", "10", "--k-signal", "2",
           "--nuisance-rank", "2", "--noise-sigma", "1.0", "--d-max", "9",
           "--seed", "11", "--format", "bin"]
    g1, g2 = tmp_path / "g1", tmp_path / "g2"
    assert cli_main(gen + ["-o", str(g1)]) == 0
    assert cli_main(["generate", "--config", str(g1 / "manifest.json"),
                     "-o", str(g2)]) == 0
    gen_ok = (g1 / "dataset.bin").read_bytes() == (g2 / "dataset.bin").read_bytes()

    data = str(g1 / "dataset.bin")
    rank = ["rank", "--data", data, "--L", "8", "--d-max", "9",
            "--folds", "4", "--seed", "11"]
    r1, r2, r8 = tmp_path / "r1", tmp_path / "r2", tmp_path / "r8"
    assert cli_main(rank + ["--workers", "1", "-o", str(r1)]) == 0
    assert cli_main(["rank", "--config", str(r1 / "manifest.json"), "-o", str(r2)]) == 0
    assert cli_main(rank + ["--workers", "8", "-o", str(r8)]) == 0
    rank_rerun_ok = all(
        (r1 / name).read_bytes() == (r2 / name).read_bytes()
        for name in ("rank.csv", "rank_rows.jsonl", "rank_detail.jsonl"))
    workers_ok = all(
        (r1 / name).read_bytes() == (r8 / name).read_bytes()
        for name in ("rank.csv", "rank_rows.jsonl", "rank_detail.jsonl"))

    opt = ["optimize", "--data", data, "--budget", "40", "--bounds", "9",
           "--population", "5", "--reduce-responses", "3", "--reduce-latents", "3",
           "--folds", "4", "--seed", "11"]
    o1, o2 = tmp_path / "o1", tmp_path / "o2"
    assert cli_main(opt + ["-o", str(o1)]) == 0
    assert cli_main(["optimize", "--config", str(o1 / "manifest.json"),
                     "-o", str(o2)]) == 0
    opt_ok = all(
        (o1 / name).read_bytes() == (o2 / name).read_bytes()
        for name in ("zhat.json", "trace.jsonl", "pca_latents.bin"))

    ok = gen_ok and rank_rerun_ok and workers_ok and opt_ok
    detail = (f"generate re-run bit-identical={gen_ok}, rank manifest re-run "
              f"identical={rank_rerun_ok}, workers 1 vs 8 identical={workers_ok}, "
              f"optimize re-run identical={opt_ok}")
    assert ok, _verdict(10, ok, detail)
    _verdict(10, ok, detail)


# ---------------------------------------------------------------------------
# 11. Windowing anchor


def test_criterion_11_windowing_anchor():
    rng = derive_rng(9110, "epoch")
    ep = EpochTensor(29, 1000, 1000.0, 0.0, rng.standard_normal((29, 1000)))
    n_w = 7
    t_start, t_end = 50.0, 800.0
    feats = window_epoch(ep, t_start, t_end, n_w)
    count_ok = feats.shape == (203,)

    dt = 1000.0 / ep.sample_rate_hz
    times = ep.t0_ms + dt * np.arange(ep.timepoints)
    edges = np.linspace(t_start, t_end, n_w + 1)
    worst = 0.0
    for c in range(ep.channels):
        for w in range(n_w):
            if w < n_w - 1:
                mask = (times >= edges[w]) & (times < edges[w + 1])
            else:
                mask = (times >= edges[w]) & (times <= edges[w + 1])
            worst = max(worst, abs(feats[c * n_w + w] - ep.data[c, mask].mean()))
    ok = count_ok and worst < 1e-12
    detail = (f"29 channels x 7 windows -> {feats.shape[0]} features "
              f"(need 203), oracle deviation {worst:.1e} (tol 1e-12)")
    assert ok, _verdict(11, ok, detail)
    _verdict(11, ok, detail)


# ---------------------------------------------------------------------------
# Committed calibration provenance


def test_reference_matches_committed_calibration():
    assert CALIBRATION_FILE.exists(), "pre-registered calibration log missing"
    with open(CALIBRATION_FILE) as fh:
        log = json.load(fh)
    key = f"{REFERENCE['noise_sigma']:g}"
    assert key in log["candidates"], "pinned noise level absent from calibration"
    cand = log["candidates"][key]
    assert cand["summary"]["trials"] == REFERENCE["n_trials"]
    assert log["reference"]["master_seed"] == REFERENCE["master_seed"]
    assert log["reference"]["trajectories"] == REFERENCE["trajectories"]
    assert log["reference"]["points"] == REFERENCE["points"]
    assert log["reference"]["d_max"] == REFERENCE["d_max"]
