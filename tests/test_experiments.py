"""Tests for experiment plans, sweeps, ablations, and aggregation."""

import csv
import json

import jsonschema
import numpy as np
import pytest

from cursor._util import derive_seed
from cursor.dataset import dataset_from_arrays, subsample
from cursor.estimators import CvConfig, EstimatorSpec
from cursor.experiments import (
    DEFAULT_PLAN,
    aggregate,
    default_size_ladder,
    plan_from_dict,
    plan_hash,
    recover_labels,
    replicate_dataset,
    replicate_seeds,
    run_ablation,
    run_plan,
    run_size_sweep,
    write_jsonl,
    write_table,
)
from cursor.ranking import build_hypothesis_set, rank_report
from cursor.scoring import ScoreConfig

TINY_GENERATOR = {
    "latent_dim": 4,
    "response_dim": 8,
    "trajectories": 4,
    "points": 3,
    "k_signal": 2,
    "signal_gain": 1.0,
    "noise_sigma": 0.5,
    "nuisance_rank": 2,
    "nuisance_gain": 0.5,
    "link": {"kind": "linear", "tau": 10.0},
    "d_min": 0.0,
    "d_max": 8.0,
    "spacing": "uniform",
}


def tiny_plan(**overrides):
    raw = {
        "dataset": {"generator": dict(TINY_GENERATOR)},
        "estimators": [{"kind": "ols"}],
        "hypothesis_set": {"count": 6, "d_max": 8.0, "include_target": True},
        "sizes": [12],
        "ablation_thresholds": [0.0],
        "cv": {"n_folds": 3, "train_fraction": 0.75},
        "targets": 1,
        "replicates": 1,
        "master_seed": 5,
    }
    raw.update(overrides)
    return plan_from_dict(raw)


def test_plan_schema_rejects_bad_input():
    with pytest.raises(jsonschema.ValidationError):
        plan_from_dict({"bogus": 1})
    with pytest.raises(jsonschema.ValidationError):
        plan_from_dict({"estimators": []})
    with pytest.raises(jsonschema.ValidationError):
        plan_from_dict({"estimators": [{"kind": "newton"}]})
    with pytest.raises(jsonschema.ValidationError):
        plan_from_dict({"dataset": {"generator": {"latent_dim": 0}}})
    # a dataset section must name exactly one source
    with pytest.raises(jsonschema.ValidationError):
        plan_from_dict({"dataset": {"file": "a.csv", "generator": {}}})
    with pytest.raises(jsonschema.ValidationError):
        plan_from_dict({"dataset": {}})


def test_defaults_fill_missing_sections():
    plan = plan_from_dict({})
    assert plan.raw == DEFAULT_PLAN
    assert plan.targets == 5 and plan.replicates == 3
    # partial overrides keep sibling defaults
    plan = plan_from_dict({"cv": {"n_folds": 4}})
    assert plan.raw["cv"]["n_folds"] == 4
    assert plan.raw["cv"]["train_fraction"] == 0.9
    assert plan.raw["dataset"]["generator"]["latent_dim"] == 32


def test_file_source_suppresses_generator_defaults():
    plan = plan_from_dict({"dataset": {"file": "runs/data.csv"}})
    assert plan.raw["dataset"] == {"file": "runs/data.csv"}


def test_plan_hash_is_stable_and_sensitive():
    a = tiny_plan()
    b = tiny_plan()
    assert a.hash == b.hash == plan_hash(a.raw)
    assert len(a.hash) == 12
    assert int(a.hash, 16) >= 0
    c = tiny_plan(master_seed=6)
    assert c.hash != a.hash


def test_estimator_entries_label_synthesis():
    plan = tiny_plan(estimators=[
        {"kind": "ols"},
        {"kind": "ridge", "ridge_lambda": 0.5},
        {"kind": "ols", "shuffle_aligned": True},
        {"kind": "dummy_mean", "label": "null-model"},
    ])
    entries = plan.estimator_entries()
    assert [key for key, _, _ in entries] == ["ols", "ridge-0.5", "ols-shuffled", "null-model"]
    assert entries[1][1].ridge_lambda == 0.5
    assert entries[2][2] is True
    with pytest.raises(ValueError, match="labels must be unique"):
        tiny_plan(estimators=[{"kind": "ols"}, {"kind": "ols"}])


def test_replicate_seeds_keyed_by_indices():
    plan = tiny_plan()
    s00 = replicate_seeds(plan, 0, 0)
    assert set(s00) == {"dataset", "target", "hypothesis_set", "cma"}
    assert replicate_seeds(plan, 0, 0) == s00
    assert replicate_seeds(plan, 0, 1)["dataset"] != s00["dataset"]
    assert replicate_seeds(plan, 1, 0)["target"] != s00["target"]
    # the target seed ignores the variant index so variants share a target
    assert replicate_seeds(plan, 0, 1)["target"] == s00["target"]
    with_est = replicate_seeds(plan, 0, 0, "ols")
    assert {"cv", "perm"} <= set(with_est)
    assert replicate_seeds(plan, 0, 0, "ridge-0.5")["cv"] != with_est["cv"]


def test_replicate_dataset_layout_and_determinism():
    plan = tiny_plan(targets=2, replicates=2)
    a = replicate_dataset(plan, 0, 0)
    b = replicate_dataset(plan, 0, 0)
    assert a.n == 12 and a.stimulus_dim == 4 and a.response_dim == 8
    np.testing.assert_array_equal(a.stimuli, b.stimuli)
    np.testing.assert_array_equal(a.responses, b.responses)
    # same target across variants, fresh acquisition noise
    v1 = replicate_dataset(plan, 0, 1)
    np.testing.assert_array_equal(v1.truth.target.coords, a.truth.target.coords)
    assert not np.array_equal(v1.responses, a.responses)
    # fresh target across target indices
    t1 = replicate_dataset(plan, 1, 0)
    assert not np.array_equal(t1.truth.target.coords, a.truth.target.coords)


def test_default_size_ladder_shape():
    sizes = default_size_ladder(9234, 10)
    assert sizes == sorted(set(sizes))
    assert sizes[-1] == 9234
    assert sizes[0] == 100
    assert len(sizes) == 6
    # small datasets collapse onto the floor without duplicates
    small = default_size_ladder(12, 10)
    assert small == [10, 12]
    assert all(s >= 10 for s in small)


def test_sweep_full_size_cell_matches_plain_ranking_run():
    plan = tiny_plan(sizes=[8, 12])
    cells = run_size_sweep(plan)
    assert [(c.size, c.estimator) for c in cells] == [(8, "ols"), (12, "ols")]
    ds_full = replicate_dataset(plan, 0, 0)
    seeds = replicate_seeds(plan, 0, 0, "ols")
    cfg = ScoreConfig(
        estimator=EstimatorSpec(kind="ols"),
        cv=CvConfig(n_folds=3, train_fraction=0.75, seed=seeds["cv"]),
        perm_seed=seeds["perm"],
    )
    for cell in cells:
        ds = ds_full
        if cell.size < ds_full.n:
            sub_seed = derive_seed(plan.master_seed, "subsample", 0, 0, cell.size)
            ds = subsample(ds_full, cell.size, sub_seed)
        hset = build_hypothesis_set(ds.truth.target, 6, 8.0,
                                    seeds["hypothesis_set"], include_target=True)
        rep = rank_report(ds, hset, cfg)
        assert cell.report.scores == rep.scores
        assert cell.report.pearson_r == rep.pearson_r
        assert cell.report.target_rank == rep.target_rank
        assert cell.report.d_top_rank == rep.d_top_rank
        row = cell.row()
        assert row["size"] == cell.size and row["pearson_r"] == rep.pearson_r


def test_sweep_size_validation():
    with pytest.raises(ValueError):
        run_size_sweep(tiny_plan(sizes=[13]))
    with pytest.raises(ValueError):
        run_size_sweep(tiny_plan(sizes=[2]))


def test_sweep_deterministic():
    plan = tiny_plan(replicates=2, sizes=[10, 12])
    first = run_size_sweep(plan)
    again = run_size_sweep(plan)
    assert [c.row() for c in first] == [c.row() for c in again]
    assert [c.report.scores for c in first] == [c.report.scores for c in again]


def test_ablation_zero_threshold_pairs_identical():
    plan = tiny_plan(ablation_thresholds=[0.0])
    cells = run_ablation(plan, mode="ranking")
    assert len(cells) == 2
    by_cond = {c.condition: c for c in cells}
    assert set(by_cond) == {"ablated", "control"}
    full_n = replicate_dataset(plan, 0, 0).n
    for cell in cells:
        assert cell.status == "ok"
        assert cell.size == full_n
        assert cell.mode == "ranking"
    # threshold 0 ablates nothing and the size-matched control is the full set
    assert by_cond["ablated"].report.scores == by_cond["control"].report.scores
    rows = [c.row() for c in cells]
    assert all(set(rows[0]) == set(r) for r in rows)


def test_ablation_impossible_threshold_is_skipped():
    plan = tiny_plan(ablation_thresholds=[1e6])
    cells = run_ablation(plan, mode="ranking")
    assert len(cells) == 2
    for cell in cells:
        assert cell.status == "skipped"
        assert cell.size == 0
        assert cell.report is None
        row = cell.row()
        assert row["pearson_r"] is None and row["target_rank"] is None


def test_ablation_mode_validation():
    with pytest.raises(ValueError):
        run_ablation(tiny_plan(), mode="sideways")


def test_ablation_optimization_mode():
    plan = tiny_plan(
        ablation_thresholds=[0.0],
        optimization={"budget": 16, "bounds": 10.0,
                      "reduce_responses": 2, "reduce_latents": 2},
    )
    cells = run_ablation(plan, mode="optimization")
    assert len(cells) == 2
    for cell in cells:
        assert cell.status == "ok" and cell.mode == "optimization"
        assert cell.report is None
        assert cell.evaluations == 16
        assert np.isfinite(cell.best_score)
        assert cell.recovered_distance >= 0.0
        row = cell.row()
        assert row["recovered_distance"] == cell.recovered_distance


def test_recover_labels_bound_and_exactness():
    ds = replicate_dataset(tiny_plan(), 0, 0)
    target = ds.truth.target.coords
    d_hat, info = recover_labels(ds, target)
    np.testing.assert_allclose(d_hat, ds.truth.distances, atol=1e-12)
    assert info["rmse"] <= 1e-12
    assert info["rmse_pct_of_range"] <= 1e-10
    offset = np.full(4, 0.3)
    d_hat, info = recover_labels(ds, target + offset)
    # reconstructed labels can never err by more than the recovery distance
    assert np.all(np.abs(d_hat - ds.truth.distances) <= np.linalg.norm(offset) + 1e-12)
    assert info["rmse"] <= np.linalg.norm(offset) + 1e-12
    assert info["distance_range"] > 0


def test_recover_labels_without_truth_and_bad_dim():
    ds = replicate_dataset(tiny_plan(), 0, 0)
    bare = dataset_from_arrays(ds.stimuli, ds.responses)
    d_hat, info = recover_labels(bare, np.zeros(4))
    assert info is None
    assert d_hat.shape == (ds.n,)
    with pytest.raises(ValueError):
        recover_labels(ds, np.zeros(5))


def test_aggregate_oracle():
    rows = [
        {"g": "b", "x": 2.0, "y": 7.0},
        {"g": "a", "x": 1.0, "y": None},
        {"g": "a", "x": 3.0, "y": 5.0},
    ]
    out = aggregate(rows, ("g",), ("x", "y"))
    assert [r["g"] for r in out] == ["b", "a"]
    b, a = out
    assert b == {"g": "b", "n": 1, "x_mean": 2.0, "x_std": 0.0,
                 "y_mean": 7.0, "y_std": 0.0}
    assert a["n"] == 2
    assert a["x_mean"] == pytest.approx(2.0)
    assert a["x_std"] == pytest.approx(np.sqrt(2.0))
    # None values drop out of that metric only
    assert a["y_mean"] == 5.0 and a["y_std"] == 0.0
    none_rows = [{"g": "a", "x": None}]
    out = aggregate(none_rows, ("g",), ("x",))
    assert out[0]["x_mean"] is None and out[0]["x_std"] is None
    with pytest.raises(ValueError):
        aggregate([], ("g",), ("x",))


def test_write_table_formatting(tmp_path):
    rows = [
        {"a": 1.0 / 3.0, "b": None, "c": "text", "d": True},
        {"a": 2.0, "b": 7, "c": "x,y", "d": False},
    ]
    path = tmp_path / "t.csv"
    write_table(rows, path)
    with open(path, newline="") as fh:
        got = list(csv.reader(fh))
    assert got[0] == ["a", "b", "c", "d"]
    assert got[1] == ["0.333333333333", "", "text", "true"]
    assert got[2] == ["2", "7", "x,y", "false"]
    write_table(rows, path, columns=["c", "a"])
    with open(path, newline="") as fh:
        got = list(csv.reader(fh))
    assert got[0] == ["c", "a"]


def test_write_jsonl_round_trip(tmp_path):
    records = [{"z": 1, "a": [1, 2]}, {"b": None}]
    path = tmp_path / "r.jsonl"
    write_jsonl(records, path)
    lines = path.read_text().splitlines()
    assert len(lines) == 2
    assert [json.loads(line) for line in lines] == records
    # keys are sorted so reruns diff cleanly
    assert lines[0] == '{"a":[1,2],"z":1}'.replace(":", ": ").replace(",", ", ")


def test_run_plan_writes_tables(tmp_path):
    plan = tiny_plan(sizes=[12], ablation_thresholds=[0.0])
    results = run_plan(plan, tmp_path, kinds=("sweep", "ablation"),
                       ablation_mode="ranking")
    for name in ("plan.json", "sweep.csv", "sweep_rows.jsonl", "sweep_summary.csv",
                 "ablation.csv", "ablation_rows.jsonl", "ablation_summary.csv"):
        assert (tmp_path / name).exists(), name
    with open(tmp_path / "plan.json") as fh:
        assert json.load(fh) == plan.raw
    assert set(results) == {"sweep", "ablation"}
    for row in results["sweep"]:
        assert row["plan_hash"] == plan.hash
        assert row["master_seed"] == plan.master_seed
    detail = [json.loads(line) for line in
              (tmp_path / "sweep_rows.jsonl").read_text().splitlines()]
    assert len(detail) == len(results["sweep"])
