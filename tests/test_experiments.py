"""Tests for experiment plans, sweeps, ablations, and aggregation."""

import csv
import inspect
import json

import jsonschema
import numpy as np
import pytest

from cursor._util import derive_seed
from cursor.dataset import dataset_from_arrays, subsample
from cursor.estimators import CvConfig, EstimatorSpec
from cursor.experiments import (
    DEFAULT_PLAN,
    PLAN_SCHEMA,
    aggregate,
    default_size_ladder,
    plan_from_dict,
    plan_hash,
    recover_labels,
    replicate_datasets,
    replicate_seeds,
    run_ablation,
    run_plan,
    run_size_sweep,
    write_jsonl,
    write_table,
)
from cursor.optimize import CmaConfig
from cursor.ranking import build_hypothesis_set, rank_report
from cursor.scoring import ScoreConfig
from cursor.synth import Link, generate_dataset, make_response_model

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


def test_plan_schema_is_a_valid_schema():
    # Plans are validated without checking the schema itself each time.
    jsonschema.validators.validator_for(PLAN_SCHEMA).check_schema(PLAN_SCHEMA)


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


@pytest.mark.parametrize("raw,message", [
    ({"estimators": [{"kind": "newton"}]},
     "'newton' is not one of ['ols', 'ridge', 'dummy_mean']"),
    ({"dataset": {"generator": {"link": {"kind": "cubic"}}}},
     "'cubic' is not one of ['linear', 'saturating']"),
    ({"dataset": {"generator": {"spacing": "random"}}},
     "'random' is not one of ['uniform', 'logarithmic']"),
    ({"sizes": [12, 12]}, "[12, 12] has non-unique elements"),
    ({"ablation_thresholds": [2, 2.0]}, "[2, 2.0] has non-unique elements"),
], ids=["estimator-kind", "link-kind", "spacing", "repeated-size", "repeated-threshold"])
def test_plan_schema_refusal_messages(raw, message):
    # each domain is declared once, in the module that reads it; the schema
    # names the same values, and a repeated size or threshold is no replicate
    with pytest.raises(jsonschema.ValidationError) as err:
        plan_from_dict(raw)
    assert err.value.message == message


def test_defaults_fill_missing_sections():
    plan = plan_from_dict({})
    assert plan.raw == DEFAULT_PLAN
    # the default plan is itself a valid plan, and resolves to itself
    assert plan_from_dict(DEFAULT_PLAN).raw == DEFAULT_PLAN
    assert plan.targets == 5 and plan.replicates == 3
    # partial overrides keep sibling defaults
    plan = plan_from_dict({"cv": {"n_folds": 4}})
    assert plan.raw["cv"]["n_folds"] == 4
    assert plan.raw["cv"]["train_fraction"] == 0.9
    assert plan.raw["dataset"]["generator"]["latent_dim"] == 32


def _keyword_defaults(fn) -> dict:
    return {name: p.default for name, p in inspect.signature(fn).parameters.items()
            if p.default is not inspect.Parameter.empty}


def test_library_defaults_are_the_plan_defaults():
    # one set of defaults: a library call that leaves an argument out gets
    # the value a plan that leaves the key out gets
    gen, cv = DEFAULT_PLAN["dataset"]["generator"], DEFAULT_PLAN["cv"]
    est, opt = DEFAULT_PLAN["estimators"][0], DEFAULT_PLAN["optimization"]
    assert CvConfig() == CvConfig(n_folds=cv["n_folds"], train_fraction=cv["train_fraction"])
    assert EstimatorSpec() == EstimatorSpec(kind=est["kind"], ridge_lambda=est["ridge_lambda"])
    assert Link() == Link(**gen["link"])
    cma = CmaConfig(dim=1)
    assert (cma.bounds_lo, cma.bounds_hi) == (-opt["bounds"], opt["bounds"])
    assert (cma.max_evaluations, cma.population_size, cma.sigma0) == (
        opt["budget"], opt["population_size"], opt["sigma0"])
    model = _keyword_defaults(make_response_model)
    keys = ("k_signal", "signal_gain", "noise_sigma", "nuisance_rank", "nuisance_gain")
    assert {k: model[k] for k in keys} == {k: gen[k] for k in keys}
    assert model["link"] is None  # Link(), checked above
    keys = ("d_min", "d_max", "spacing")
    assert _keyword_defaults(generate_dataset) == {k: gen[k] for k in keys}
    assert (_keyword_defaults(build_hypothesis_set)["include_target"]
            == DEFAULT_PLAN["hypothesis_set"]["include_target"])


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
    # every table is stamped with these; a changed default would move them
    assert plan_from_dict({}).hash == "e8740b6cd09a"
    assert plan_from_dict({"dataset": {"file": "x.csv"}}).hash == "28b1abe93068"
    raw = {"estimators": [{"kind": "ridge", "ridge_lambda": 2.0}], "cv": {"n_folds": 4}}
    assert plan_from_dict(raw).hash == "ce067d4c66b1"


def test_resolved_plans_share_no_objects_with_the_defaults():
    plan = plan_from_dict({})
    plan.raw["ablation_thresholds"].append(99.0)
    plan.raw["dataset"]["generator"]["link"]["tau"] = 1.0
    plan.raw["estimators"][0]["kind"] = "ridge"
    fresh = plan_from_dict({})
    assert fresh.raw == DEFAULT_PLAN
    assert fresh.hash == "e8740b6cd09a"


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


def test_plan_refuses_a_ridge_lambda_its_estimator_ignores():
    # only ridge reads ridge_lambda; 0.0, the default every kind is written
    # with, stays accepted
    with pytest.raises(ValueError, match=r"\['ols-l4'\] set a ridge_lambda that only ridge"):
        tiny_plan(estimators=[{"kind": "ols", "ridge_lambda": 4, "label": "ols-l4"}])
    with pytest.raises(ValueError, match="only ridge reads"):
        tiny_plan(estimators=[{"kind": "dummy_mean", "ridge_lambda": 0.5}])
    plan = tiny_plan(estimators=[{"kind": "ols", "ridge_lambda": 0.0},
                                 {"kind": "ridge", "ridge_lambda": 4}])
    assert [key for key, _, _ in plan.estimator_entries()] == ["ols", "ridge-4"]


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
    datasets = replicate_datasets(plan)
    assert list(datasets) == [(0, 0), (0, 1), (1, 0), (1, 1)]
    a = datasets[0, 0]
    b = replicate_datasets(plan)[0, 0]
    assert a.n == 12 and a.stimulus_dim == 4 and a.response_dim == 8
    np.testing.assert_array_equal(a.stimuli, b.stimuli)
    np.testing.assert_array_equal(a.responses, b.responses)
    # same target across variants, fresh acquisition noise
    v1 = datasets[0, 1]
    np.testing.assert_array_equal(v1.truth.target.coords, a.truth.target.coords)
    assert not np.array_equal(v1.responses, a.responses)
    # fresh target across target indices
    t1 = datasets[1, 0]
    assert not np.array_equal(t1.truth.target.coords, a.truth.target.coords)
    # a cell's dataset does not depend on how many cells the plan has
    single = replicate_datasets(tiny_plan())[0, 0]
    np.testing.assert_array_equal(single.responses, a.responses)


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
    rows = run_size_sweep(plan)
    assert [(r["size"], r["estimator"]) for r in rows] == [(8, "ols"), (12, "ols")]
    ds_full = replicate_datasets(plan)[0, 0]
    seeds = replicate_seeds(plan, 0, 0, "ols")
    cfg = ScoreConfig(
        estimator=EstimatorSpec(kind="ols"),
        cv=CvConfig(n_folds=3, train_fraction=0.75, seed=seeds["cv"]),
        perm_seed=seeds["perm"],
    )
    for row in rows:
        ds = ds_full
        if row["size"] < ds_full.n:
            sub_seed = derive_seed(plan.master_seed, "subsample", 0, 0, row["size"])
            ds = subsample(ds_full, row["size"], sub_seed)
        hset = build_hypothesis_set(ds.truth.target, 6, 8.0,
                                    seeds["hypothesis_set"], include_target=True)
        rep = rank_report(ds, hset, cfg)
        assert row == {"target": 0, "variant": 0, "size": row["size"], "estimator": "ols",
                       "pearson_r": rep.pearson_r, "target_rank": rep.target_rank,
                       "d_top_rank": rep.d_top_rank}


def test_sweep_size_validation():
    with pytest.raises(ValueError):
        run_size_sweep(tiny_plan(sizes=[13]))
    with pytest.raises(ValueError):
        run_size_sweep(tiny_plan(sizes=[2]))


def test_sweep_deterministic():
    plan = tiny_plan(replicates=2, sizes=[10, 12])
    assert run_size_sweep(plan) == run_size_sweep(plan)


def test_ablation_zero_threshold_pairs_identical():
    plan = tiny_plan(ablation_thresholds=[0.0])
    rows = run_ablation(plan, mode="ranking")
    assert len(rows) == 2
    by_cond = {r["condition"]: r for r in rows}
    assert set(by_cond) == {"ablated", "control"}
    full_n = replicate_datasets(plan)[0, 0].n
    for row in rows:
        assert row["status"] == "ok"
        assert row["size"] == full_n
        assert row["mode"] == "ranking"
    # threshold 0 ablates nothing and the size-matched control is the full set
    ablated, control = by_cond["ablated"], by_cond["control"]
    for metric in ("pearson_r", "target_rank", "d_top_rank"):
        assert ablated[metric] == control[metric]
    assert list(ablated) == list(control)


def test_ablation_impossible_threshold_is_skipped():
    # 1e6 leaves no row; the largest distance leaves 4, too few for five folds
    # (ranking) or for a response PCA of k=5 (optimization)
    full = replicate_datasets(tiny_plan())[0, 0]
    far = float(np.max(full.truth.distances))
    assert np.count_nonzero(full.truth.distances >= far) == 4
    for mode, n_folds, k_e in (("ranking", 5, None), ("optimization", 3, 5)):
        plan = tiny_plan(ablation_thresholds=[0.0, 1e6, far],
                         cv={"n_folds": n_folds, "train_fraction": 0.75},
                         optimization={"budget": 12, "reduce_responses": k_e,
                                       "reduce_latents": 2})
        rows = run_ablation(plan, mode=mode)
        assert [(r["threshold"], r["status"]) for r in rows] == [
            (0.0, "ok"), (0.0, "ok"), (1e6, "skipped"), (1e6, "skipped"),
            (far, "skipped"), (far, "skipped")], mode
        assert [r["size"] for r in rows] == [12, 12, 0, 0, 4, 4]
        for row in rows[2:]:
            assert row["pearson_r"] is None and row["target_rank"] is None
            assert row["recovered_distance"] is None and row["evaluations"] is None


def test_ablation_mode_validation():
    with pytest.raises(ValueError):
        run_ablation(tiny_plan(), mode="sideways")


def test_ablation_optimization_mode():
    plan = tiny_plan(
        ablation_thresholds=[0.0],
        optimization={"budget": 16, "bounds": 10.0,
                      "reduce_responses": 2, "reduce_latents": 2},
    )
    rows = run_ablation(plan, mode="optimization")
    assert len(rows) == 2
    for row in rows:
        assert row["status"] == "ok" and row["mode"] == "optimization"
        assert row["pearson_r"] is None
        assert row["evaluations"] == 16
        assert np.isfinite(row["best_score"])
        assert row["recovered_distance"] >= 0.0


def test_recover_labels_bound_and_exactness():
    ds = replicate_datasets(tiny_plan())[0, 0]
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
    ds = replicate_datasets(tiny_plan())[0, 0]
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
