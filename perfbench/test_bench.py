"""Tests for the benchmark's S(h) oracle and its metric list.

    python3 -m pytest perfbench/test_bench.py
"""

import json
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
from oracle import oracle_score  # noqa: E402

from cursor import CvConfig, EstimatorSpec, ScoreConfig, score  # noqa: E402
from cursor.dataset import dataset_from_arrays  # noqa: E402


def _data(n=200, dz=5, de=8, seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, dz)), rng.standard_normal((n, de)), rng.standard_normal(dz)


def test_noiseless_linear_case_fits_exactly():
    stimuli, responses, h = _data()
    d = np.linalg.norm(stimuli - h, axis=1)
    responses[:, 0] = 3.0 + 0.5 * d - 0.2 * responses[:, 1]
    got = oracle_score(stimuli, responses, h, cv_seed=1, perm_seed=2, n_folds=5)
    assert got.rmse_aligned < 1e-10
    assert got.rmse_shuffled > 0.1
    assert got.score > 1e8


def test_dummy_estimator_scores_exactly_one():
    stimuli, responses, h = _data(seed=1)
    got = oracle_score(stimuli, responses, h, cv_seed=3, perm_seed=4, kind="dummy_mean")
    assert got.score == 1.0


def test_matches_the_program_on_full_rank_data():
    stimuli, responses, h = _data(seed=2)
    ds = dataset_from_arrays(stimuli, responses)
    cfg = ScoreConfig(estimator=EstimatorSpec(kind="ols"), cv=CvConfig(n_folds=10, seed=11),
                      perm_seed=12)
    report = score(ds, h, cfg)
    got = oracle_score(stimuli, responses, h, report.seeds["cv_seed"], report.seeds["perm_seed"])
    for key in ("score", "rmse_aligned", "rmse_shuffled"):
        assert abs(getattr(got, key) - getattr(report, key)) <= 1e-9 * abs(getattr(report, key))


def test_benchmark_json_lists_the_metrics_the_benchmark_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.units()
    assert [m["name"] for m in spec["end_to_end"]] == \
        ["setup_s", "scores_per_s", "cpu_s", "peak_rss_mb"]
