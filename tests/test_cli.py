"""End-to-end tests of the command line interface.

Commands run in-process through main(argv) so exit codes and outputs are
checked without subprocess overhead.
"""

import argparse
import json
import re
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from cursor import experiments
from cursor.cli import COMMANDS, build_parser, main
from cursor.dataset import load_dataset
from cursor.experiments import load_plan, plan_hash

GEN_ARGS = [
    "generate",
    "--targets", "1",
    "--trajectories", "4",
    "--points", "3",
    "--latent-dim", "4",
    "--response-dim", "8",
    "--k-signal", "2",
    "--nuisance-rank", "2",
    "--noise-sigma", "0.5",
    "--d-max", "8",
    "--spacing", "uniform",
    "--seed", "3",
]


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("gen")
    assert main(GEN_ARGS + ["-o", str(out)]) == 0
    return out


@pytest.fixture(scope="module")
def data_csv(data_dir):
    return str(data_dir / "dataset.csv")


def test_generate_outputs(data_dir, data_csv):
    assert (data_dir / "dataset.csv").exists()
    assert (data_dir / "dataset.csv.json").exists()
    assert (data_dir / "manifest.json").exists()
    with open(data_dir / "manifest.json") as fh:
        manifest = json.load(fh)
    assert manifest["subcommand"] == "generate"
    assert manifest["options"]["seed"] == 3
    ds = load_dataset(data_csv)
    assert ds.n == 12
    assert ds.stimulus_dim == 4 and ds.response_dim == 8
    assert ds.truth is not None
    assert ds.provenance["cli"]["noise_sigma"] == 0.5


def test_generate_binary_matches_csv(tmp_path, data_csv):
    assert main(GEN_ARGS + ["--format", "bin", "-o", str(tmp_path)]) == 0
    binary = load_dataset(tmp_path / "dataset.bin")
    csv_ds = load_dataset(data_csv)
    np.testing.assert_array_equal(binary.stimuli, csv_ds.stimuli)
    np.testing.assert_array_equal(binary.responses, csv_ds.responses)
    np.testing.assert_array_equal(binary.truth.target.coords,
                                  csv_ds.truth.target.coords)


def test_generate_rejects_bad_model(tmp_path, capsys):
    code = main(GEN_ARGS + ["--noise-sigma", "-1", "-o", str(tmp_path)])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_score_smoke(tmp_path, data_csv, capsys):
    code = main([
        "score", "--data", data_csv, "--hypothesis", "0,0,0,0",
        "--folds", "3", "--seed", "1", "-o", str(tmp_path),
    ])
    assert code == 0
    assert "score " in capsys.readouterr().out
    with open(tmp_path / "score.json") as fh:
        rep = json.load(fh)
    assert np.isfinite(rep["score"])
    assert rep["rmse_aligned"] > 0 and rep["rmse_shuffled"] > 0
    assert (tmp_path / "score.csv").exists()


def test_score_requires_hypothesis(tmp_path, data_csv, capsys):
    code = main(["score", "--data", data_csv, "-o", str(tmp_path)])
    assert code == 2
    assert "hypothesis" in capsys.readouterr().err


def test_score_hypothesis_file(tmp_path, data_csv):
    hyp = tmp_path / "h.json"
    hyp.write_text(json.dumps({"coords": [0.0, 0.0, 0.0, 0.0]}))
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(["score", "--data", data_csv, "--hypothesis-file", str(hyp),
                 "--folds", "3", "--seed", "1", "-o", str(out_a)]) == 0
    assert main(["score", "--data", data_csv, "--hypothesis", "0,0,0,0",
                 "--folds", "3", "--seed", "1", "-o", str(out_b)]) == 0
    assert (out_a / "score.json").read_text() == (out_b / "score.json").read_text()


def test_missing_required_options(tmp_path, capsys):
    assert main(["score", "--hypothesis", "0,0", "-o", str(tmp_path)]) == 2
    assert main(["rank", "--data", "nope.csv", "-o", str(tmp_path)]) == 2
    assert main(["rank"]) == 2
    capsys.readouterr()


def test_unknown_subcommand_exits_2():
    assert main(["frobnicate"]) == 2
    assert main([]) == 2


def test_help_exits_zero(capsys):
    for cmd in ("generate", "score", "rank", "optimize", "ablate", "recover", "report"):
        assert main([cmd, "--help"]) == 0
    capsys.readouterr()


RANK_ARGS = ["--L", "6", "--d-max", "8", "--folds", "3", "--seed", "1"]


def rank_run(data_csv, out, extra=()):
    return main(["rank", "--data", data_csv, *RANK_ARGS, *extra, "-o", str(out)])


def test_rank_outputs(tmp_path, data_csv, capsys):
    assert rank_run(data_csv, tmp_path) == 0
    assert "pearson_r" in capsys.readouterr().out
    detail = [json.loads(line) for line in
              (tmp_path / "rank_detail.jsonl").read_text().splitlines()]
    assert len(detail) == 6
    assert sum(d["is_target"] for d in detail) == 1
    rows = [json.loads(line) for line in
            (tmp_path / "rank_rows.jsonl").read_text().splitlines()]
    assert rows[0]["L"] == 6
    assert rows[0]["target_rank"] >= 1
    assert (tmp_path / "rank.csv").exists()


def test_manifest_reexecution_is_bit_identical(tmp_path, data_csv):
    first = tmp_path / "first"
    again = tmp_path / "again"
    assert rank_run(data_csv, first) == 0
    code = main(["rank", "--config", str(first / "manifest.json"), "-o", str(again)])
    assert code == 0
    for name in ("rank.csv", "rank_rows.jsonl", "rank_detail.jsonl"):
        assert (first / name).read_text() == (again / name).read_text()


def test_manifest_with_workers_key_replays(tmp_path, data_csv, capsys):
    # manifests from before --workers was removed carry options["workers"]
    direct, again = tmp_path / "direct", tmp_path / "again"
    assert rank_run(data_csv, direct) == 0
    manifest = json.loads((direct / "manifest.json").read_text())
    manifest["options"]["workers"] = 8
    manifest["options"]["format"] = "csv"  # rank wrote --format until it was removed
    old = tmp_path / "old_manifest.json"
    old.write_text(json.dumps(manifest, indent=2, sort_keys=True))
    assert main(["rank", "--config", str(old), "-o", str(again)]) == 0
    for name in ("rank.csv", "rank_rows.jsonl", "rank_detail.jsonl"):
        assert (direct / name).read_bytes() == (again / name).read_bytes()
    options = json.loads((again / "manifest.json").read_text())["options"]
    assert "workers" not in options and "format" not in options
    assert rank_run(data_csv, tmp_path / "flag", ("--workers", "2")) == 2
    capsys.readouterr()


@pytest.mark.parametrize("source,scoring,accepted", [
    ("manifest", {"ratio_mode": "ratio_of_mean_rmses"}, True),
    ("manifest", {"ratio_mode": "mean_of_fold_ratios"}, False),
    ("plan", {"ratio_mode": "ratio_of_mean_rmses", "denom_floor": 1e-12}, True),
    ("plan", {"ratio_mode": "mean_of_fold_ratios"}, False),
    ("plan", {"denom_floor": 1e-6}, False),
], ids=["manifest-same-formula", "manifest-other-formula", "plan-same-formula",
        "plan-other-formula", "plan-other-floor"])
def test_older_formula_settings_replay_or_refuse(tmp_path, data_csv, capsys,
                                                 source, scoring, accepted):
    # manifests and plans from before S(h) had one formula name it; they
    # reproduce the run when they name that formula and are refused otherwise
    run, again = tmp_path / "run", tmp_path / "again"
    if source == "manifest":
        assert rank_run(data_csv, run) == 0
        manifest = json.loads((run / "manifest.json").read_text())
        manifest["options"].update(scoring)
        old = tmp_path / "old_manifest.json"
        old.write_text(json.dumps(manifest, indent=2, sort_keys=True))
        code = main(["rank", "--config", str(old), "-o", str(again)])
        if accepted:
            assert code == 0
            for name in ("rank.csv", "rank_rows.jsonl", "rank_detail.jsonl"):
                assert (run / name).read_bytes() == (again / name).read_bytes()
        else:
            assert code == 2
    else:
        assert rank_run(data_csv, run, ("--sizes", "10,12", "--replicates", "1")) == 0
        raw = json.loads((run / "plan.json").read_text())
        raw["scoring"].update(scoring)
        old = tmp_path / "old_plan.json"
        old.write_text(json.dumps(raw, indent=2, sort_keys=True))
        if accepted:
            plan = load_plan(old)
            assert plan.raw == raw
            assert plan.hash == plan_hash(raw)
        else:
            with pytest.raises(jsonschema.ValidationError):
                load_plan(old)
            assert main(["ablate", "--plan", str(old), "-o", str(again)]) == 2
    capsys.readouterr()


def test_manifest_subcommand_mismatch(tmp_path, data_csv, capsys):
    run = tmp_path / "run"
    assert rank_run(data_csv, run) == 0
    code = main(["score", "--config", str(run / "manifest.json"),
                 "--hypothesis", "0,0,0,0", "-o", str(tmp_path / "bad")])
    assert code == 2
    assert "manifest" in capsys.readouterr().err


def test_rank_sizes_runs_sweep(tmp_path, data_csv):
    assert rank_run(data_csv, tmp_path, ("--sizes", "10,12", "--replicates", "1")) == 0
    for name in ("plan.json", "sweep.csv", "sweep_rows.jsonl", "sweep_summary.csv"):
        assert (tmp_path / name).exists(), name
    rows = [json.loads(line) for line in
            (tmp_path / "sweep_rows.jsonl").read_text().splitlines()]
    assert sorted({r["size"] for r in rows}) == [10, 12]


@pytest.mark.parametrize("command", [
    ["rank", "--sizes", "10,12"],
    ["ablate", "--thresholds", "0"],
], ids=["sweep", "ablation"])
def test_file_plan_reads_its_dataset_once(tmp_path, data_csv, monkeypatch, command):
    calls = []

    def counting_load(path):
        calls.append(path)
        return load_dataset(path)

    monkeypatch.setattr(experiments, "load_dataset", counting_load)
    assert main([*command, "--data", data_csv, *RANK_ARGS, "--replicates", "2",
                 "-o", str(tmp_path)]) == 0
    assert len(calls) == 1


def test_rank_scoring_error_exits_2(tmp_path, capsys):
    # more folds than rows: the scorer's own ValueError reaches the CLI once
    gen = tmp_path / "gen"
    assert main(["generate", "--trajectories", "10", "--points", "3", "--latent-dim", "4",
                 "--response-dim", "8", "--k-signal", "2", "--nuisance-rank", "2",
                 "--seed", "5", "-o", str(gen)]) == 0
    capsys.readouterr()
    code = main(["rank", "--data", str(gen / "dataset.csv"), "--folds", "40", "--L", "5",
                 "-o", str(tmp_path / "run")])
    assert code == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and "n_folds" in lines[0]


def test_rank_sizes_accepts_one_fold(tmp_path):
    # plain rank takes --folds 1, so the size sweep's plan must too
    gen = tmp_path / "gen"
    assert main(["generate", "--trajectories", "10", "--points", "10", "--latent-dim", "4",
                 "--response-dim", "8", "--k-signal", "2", "--nuisance-rank", "2",
                 "--seed", "5", "-o", str(gen)]) == 0
    run = tmp_path / "run"
    assert main(["rank", "--data", str(gen / "dataset.csv"), "--L", "5", "--d-max", "8",
                 "--folds", "1", "--sizes", "50", "--replicates", "1", "--seed", "1",
                 "-o", str(run)]) == 0
    plan = json.loads((run / "plan.json").read_text())
    assert plan["cv"]["n_folds"] == 1
    rows = [json.loads(line) for line in (run / "sweep_rows.jsonl").read_text().splitlines()]
    assert {r["size"] for r in rows} == {50}


OPT_ARGS = ["--budget", "12", "--bounds", "10", "--population", "4",
            "--reduce-responses", "2", "--reduce-latents", "2",
            "--folds", "3", "--seed", "1"]


@pytest.fixture(scope="module")
def optimize_dir(tmp_path_factory, data_csv):
    out = tmp_path_factory.mktemp("opt")
    assert main(["optimize", "--data", data_csv, *OPT_ARGS, "-o", str(out)]) == 0
    return out


def test_optimize_outputs(optimize_dir):
    trace = [json.loads(line) for line in
             (optimize_dir / "trace.jsonl").read_text().splitlines()]
    assert len(trace) == 12
    assert all(np.isfinite(rec["score"]) for rec in trace)
    with open(optimize_dir / "summary.json") as fh:
        summary = json.load(fh)
    assert summary["evaluations"] == 12
    assert len(summary["recovered_point"]) == 4
    assert summary["recovered_distance"] >= 0
    with open(optimize_dir / "zhat.json") as fh:
        assert len(json.load(fh)["coords"]) == 4
    assert (optimize_dir / "pca_responses.bin").exists()
    assert (optimize_dir / "pca_latents.bin").exists()


def test_optimize_deterministic(tmp_path, data_csv, optimize_dir):
    assert main(["optimize", "--data", data_csv, *OPT_ARGS, "-o", str(tmp_path)]) == 0
    assert (tmp_path / "zhat.json").read_text() == (optimize_dir / "zhat.json").read_text()
    assert (tmp_path / "trace.jsonl").read_text() == (optimize_dir / "trace.jsonl").read_text()


def test_recover_accepts_summary_and_list(tmp_path, data_csv, optimize_dir):
    out1 = tmp_path / "from_summary"
    assert main(["recover", "--data", data_csv,
                 "--zhat", str(optimize_dir / "summary.json"), "-o", str(out1)]) == 0
    with open(out1 / "label_metrics.json") as fh:
        metrics = json.load(fh)
    assert metrics["rmse"] >= 0 and metrics["distance_range"] > 0
    rows = (out1 / "labels.csv").read_text().splitlines()
    assert len(rows) == 13  # header + 12 points
    assert rows[0] == "index,reconstructed_distance,true_distance"

    bare = tmp_path / "z.json"
    bare.write_text("[0.0, 0.0, 0.0, 0.0]")
    out2 = tmp_path / "from_list"
    assert main(["recover", "--data", data_csv, "--zhat", str(bare),
                 "-o", str(out2)]) == 0


def test_recover_rejects_empty_zhat(tmp_path, data_csv, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"notes": "nothing here"}))
    assert main(["recover", "--data", data_csv, "--zhat", str(bad),
                 "-o", str(tmp_path / "out")]) == 2
    capsys.readouterr()


def test_recover_zero_range_truth(tmp_path, capsys):
    # every stimulus at the same distance: the label RMSE has no range to scale by
    gen = tmp_path / "gen"
    assert main(["generate", "--trajectories", "10", "--points", "1", "--d-min", "5",
                 "--d-max", "5", "--latent-dim", "4", "--response-dim", "6",
                 "--k-signal", "1", "--nuisance-rank", "1", "--seed", "1",
                 "-o", str(gen)]) == 0
    zhat = tmp_path / "zhat.json"
    zhat.write_text(json.dumps({"coords": [0, 0, 0, 0]}))
    capsys.readouterr()
    out = tmp_path / "out"
    assert main(["recover", "--data", str(gen / "dataset.csv"), "--zhat", str(zhat),
                 "-o", str(out)]) == 0
    metrics = json.loads((out / "label_metrics.json").read_text())
    assert metrics["distance_range"] == 0 and metrics["rmse_pct_of_range"] is None
    printed = capsys.readouterr().out
    assert f"rmse {metrics['rmse']:.12g}" in printed and "undefined" in printed


def test_recover_rejects_reduced_best_point(tmp_path, data_csv, capsys):
    # summary.json's best_point is in CMA-ES reduced coordinates; even when
    # its length matches the latent dimension it is not a latent point
    only_best = tmp_path / "best.json"
    only_best.write_text(json.dumps({"best_point": [0.0, 0.0, 0.0, 0.0]}))
    assert main(["recover", "--data", data_csv, "--zhat", str(only_best),
                 "-o", str(tmp_path / "out")]) == 2
    capsys.readouterr()


def test_ablate_smoke(tmp_path, data_csv):
    code = main([
        "ablate", "--data", data_csv, "--thresholds", "0,1e6",
        "--L", "6", "--d-max", "8", "--folds", "3", "--seed", "1",
        "-o", str(tmp_path),
    ])
    assert code == 0
    rows = [json.loads(line) for line in
            (tmp_path / "ablation_rows.jsonl").read_text().splitlines()]
    assert len(rows) == 4  # 2 thresholds x (ablated, control)
    by_status = {r["status"] for r in rows}
    assert by_status == {"ok", "skipped"}
    assert (tmp_path / "ablation_summary.csv").exists()


def test_ablate_shuffle_aligned_reaches_the_plan(tmp_path, data_csv):
    code = main([
        "ablate", "--data", data_csv, "--thresholds", "0", "--L", "6", "--d-max", "8",
        "--folds", "3", "--shuffle-aligned", "-o", str(tmp_path),
    ])
    assert code == 0
    rows = [json.loads(line) for line in
            (tmp_path / "ablation_rows.jsonl").read_text().splitlines()]
    assert {r["estimator"] for r in rows} == {"ols-shuffled"}
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["options"]["shuffle_aligned"] is True


def test_ablate_rejects_plan_and_data(tmp_path, data_csv, capsys):
    plan = tmp_path / "plan.json"
    plan.write_text("{}")
    assert main(["ablate", "--plan", str(plan), "--data", data_csv,
                 "-o", str(tmp_path / "out")]) == 2
    capsys.readouterr()


def test_ablate_duplicate_labels_fail_before_plan_json(tmp_path, capsys):
    raw = {"estimators": [{"kind": "ols", "label": "a"}, {"kind": "ridge", "label": "a"}]}
    with pytest.raises(ValueError, match="labels must be unique"):
        experiments.plan_from_dict(raw)
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps(raw))
    out = tmp_path / "out"
    assert main(["ablate", "--plan", str(plan), "-o", str(out)]) == 2
    assert "labels must be unique" in capsys.readouterr().err
    assert not (out / "plan.json").exists()


@pytest.mark.parametrize("argv,needle", [
    (["ablate", "--plan", "{plan}", "--L", "40"], "--L"),
    (["ablate", "--plan", "{plan}", "--L", "40", "--folds", "7", "--estimator", "ridge",
      "--seed", "9"], "--L, --estimator, --folds, --seed"),
    (["ablate", "--plan", "{plan}", "--thresholds", "1"], "--thresholds"),
    (["rank", "--data", "{data}", *RANK_ARGS, "--replicates", "2"], "--replicates"),
    (["score", "--data", "{data}", "--hypothesis", "0,0,0,0", "--hypothesis-file", "{h}"],
     "--hypothesis-file"),
    (["rank", "--data", "{data}", *RANK_ARGS, "--format", "bin"], "--format"),
    (["recover", "--data", "{data}", "--zhat", "{h}", "--seed", "1"], "--seed"),
    (["rank", "--data", "{data}", *RANK_ARGS, "--sizes", "5000"], "exceed dataset size"),
    (["score", "--data", "{data}", "--hypothesis-file", "{data}.json"],
     "{data}.json holds neither a coordinate list"),
    (["optimize", "--data", "{data}", *OPT_ARGS, "--reduce-responses", "0"], "k must be in [1, "),
    (["optimize", "--data", "{data}", *OPT_ARGS, "--reduce-latents", "0"], "k must be in [1, "),
], ids=["ablate-plan-L", "ablate-plan-many", "ablate-plan-thresholds",
        "rank-replicates-without-sizes", "score-hypothesis-and-file", "rank-format",
        "recover-seed", "rank-sizes-above-n", "score-file-without-coords",
        "optimize-zero-response-components", "optimize-zero-latent-components"])
def test_refused_options_write_nothing(tmp_path, data_csv, capsys, argv, needle):
    # a flag the chosen mode would ignore, a value it cannot use, or a sweep
    # size above N, is refused before any output
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps({
        "dataset": {"file": data_csv}, "hypothesis_set": {"count": 6, "d_max": 8},
        "cv": {"n_folds": 3}, "ablation_thresholds": [1e6], "targets": 1, "replicates": 1,
    }))
    hyp = tmp_path / "h.json"
    hyp.write_text(json.dumps({"coords": [0.0, 0.0, 0.0, 0.0]}))
    out = tmp_path / "out"
    names = {"plan": plan, "data": data_csv, "h": hyp}
    assert main([a.format(**names) for a in argv] + ["-o", str(out)]) == 2
    assert needle.format(**names) in capsys.readouterr().err
    assert not (out / "manifest.json").exists() and not (out / "plan.json").exists()


@pytest.mark.parametrize("command", list(COMMANDS))
def test_manifest_options_are_the_table_options(tmp_path, data_csv, optimize_dir, command):
    # each command parses, resolves and records exactly the options it reads
    runs = {
        "generate": [*GEN_ARGS],
        "score": ["score", "--data", data_csv, "--hypothesis", "0,0,0,0", "--folds", "3"],
        "rank": ["rank", "--data", data_csv, *RANK_ARGS],
        "optimize": ["optimize", "--data", data_csv, *OPT_ARGS],
        "ablate": ["ablate", "--data", data_csv, "--thresholds", "1e6", *RANK_ARGS],
        "recover": ["recover", "--data", data_csv, "--zhat", str(optimize_dir / "zhat.json")],
        "report": ["report", str(optimize_dir)],
    }
    assert main(runs[command] + ["-o", str(tmp_path)]) == 0
    dests = set(COMMANDS[command][1])
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["subcommand"] == command
    assert set(manifest["options"]) == dests
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    parsed = {a.dest for a in sub.choices[command]._actions} - {"help", "config"}
    assert parsed == dests


def test_report_merges_rank_runs(tmp_path, data_csv):
    run1, run2 = tmp_path / "r1", tmp_path / "r2"
    assert rank_run(data_csv, run1) == 0
    assert main(["rank", "--data", data_csv, "--L", "6", "--d-max", "8",
                 "--folds", "3", "--seed", "2", "-o", str(run2)]) == 0
    rep = tmp_path / "rep"
    assert main(["report", str(run1), str(run2), "-o", str(rep)]) == 0
    assert (rep / "table1.csv").exists()
    assert (rep / "fig2_score_vs_distance.csv").exists()

    header, row = (rep / "table1.csv").read_text().splitlines()
    cols = dict(zip(header.split(","), row.split(",")))
    assert cols["estimator"] == "ols"
    assert cols["n"] == "2"
    r1 = json.loads((run1 / "rank_rows.jsonl").read_text())["pearson_r"]
    r2 = json.loads((run2 / "rank_rows.jsonl").read_text())["pearson_r"]
    assert float(cols["pearson_r_mean"]) == pytest.approx((r1 + r2) / 2, rel=1e-10)


def test_report_summarizes_each_ablation_mode_apart(tmp_path):
    data = tmp_path / "gen"
    assert main(["generate", "--trajectories", "20", "--points", "5",
                 "--latent-dim", "6", "--response-dim", "10", "--k-signal", "2",
                 "--nuisance-rank", "2", "--d-max", "9", "--seed", "3",
                 "-o", str(data)]) == 0
    ablate = ["ablate", "--data", str(data / "dataset.csv"), "--thresholds", "1",
              "--folds", "4", "--seed", "3"]
    ab_rank, ab_opt = tmp_path / "ab_rank", tmp_path / "ab_opt"
    assert main(ablate + ["--mode", "ranking", "--L", "6", "--d-max", "9",
                          "-o", str(ab_rank)]) == 0
    assert main(ablate + ["--mode", "optimization", "--budget", "30", "--bounds", "9",
                          "-o", str(ab_opt)]) == 0

    tables = []
    for runs in ((ab_rank, ab_opt), (ab_opt, ab_rank)):
        rep = tmp_path / f"rep_{runs[0].name}"
        assert main(["report", *map(str, runs), "-o", str(rep)]) == 0
        tables.append((rep / "ablation_summary.csv").read_text())
    assert tables[0] == tables[1]

    header, *lines = tables[0].splitlines()
    rows = [dict(zip(header.split(","), line.split(","))) for line in lines]
    assert len(rows) == 4  # 2 modes x (ablated, control)
    assert all(r["n"] == "1" for r in rows)
    assert sorted(r["mode"] for r in rows) == ["optimization"] * 2 + ["ranking"] * 2
    means = {"ranking": {"pearson_r_mean", "target_rank_mean", "d_top_rank_mean"},
             "optimization": {"recovered_distance_mean", "best_score_mean"}}
    for r in rows:
        assert {k for k, v in r.items() if k.endswith("_mean") and v} == means[r["mode"]]


def test_report_includes_trace(tmp_path, optimize_dir):
    rep = tmp_path / "rep"
    assert main(["report", str(optimize_dir), "-o", str(rep)]) == 0
    lines = (rep / "fig5_distance_vs_evaluation.csv").read_text().splitlines()
    assert len(lines) == 13  # header + 12 evaluations


def test_report_rejects_empty(tmp_path, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    assert main(["report", str(empty), "-o", str(tmp_path / "out")]) == 2
    assert main(["report", "-o", str(tmp_path / "out")]) == 2
    assert main(["report", str(tmp_path / "missing"), "-o", str(tmp_path / "out")]) == 2
    capsys.readouterr()


def test_seed_changes_outputs(tmp_path, data_csv):
    a, b = tmp_path / "a", tmp_path / "b"
    assert rank_run(data_csv, a) == 0
    assert main(["rank", "--data", data_csv, "--L", "6", "--d-max", "8",
                 "--folds", "3", "--seed", "9", "-o", str(b)]) == 0
    assert (a / "rank_detail.jsonl").read_text() != (b / "rank_detail.jsonl").read_text()


def test_negative_seed_rejected(tmp_path, data_csv, capsys):
    assert rank_run(data_csv, tmp_path, ("--seed", "-4")) == 2
    capsys.readouterr()


def test_readme_flags_exist():
    # every --flag the README names must be one some subcommand accepts
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    known = {opt for p in sub.choices.values() for opt in p._option_string_actions}
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    named = {flag for line in readme.splitlines() if "pytest" not in line
             for flag in re.findall(r"--[a-z][a-z0-9-]*", line)}
    assert named and named <= known, sorted(named - known)
