"""End-to-end tests of the command line interface.

Commands run in-process through main(argv) so exit codes and outputs are
checked without subprocess overhead.  The thread tests start a fresh
interpreter per setting, because OpenBLAS reads its thread count at load.
"""

import argparse
import csv
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from cursor import experiments
from cursor.cli import _THREAD_VARS, COMMANDS, build_parser, main
from cursor.dataset import dataset_from_arrays, load_dataset, save_dataset
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


@pytest.fixture(scope="module")
def bare_csv(tmp_path_factory, data_csv):
    # the generated dataset without its hidden target
    ds = load_dataset(data_csv)
    path = tmp_path_factory.mktemp("bare") / "bare.csv"
    save_dataset(dataset_from_arrays(ds.stimuli, ds.responses), path)
    return str(path)


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
    out = capsys.readouterr().out
    assert "score " in out and "degenerate" not in out
    with open(tmp_path / "score.json") as fh:
        rep = json.load(fh)
    assert np.isfinite(rep["score"])
    assert rep["rmse_aligned"] > 0 and rep["rmse_shuffled"] > 0
    assert not rep["degenerate_distances"]
    assert (tmp_path / "score.csv").exists()


@pytest.mark.parametrize("coord", ["5e153", "6e153"])
def test_score_says_when_distances_are_degenerate(tmp_path, data_csv, capsys, coord):
    # This far from every stimulus the distances agree within their own
    # rounding, whether or not they round to one value, so S(h) measures
    # rounding noise; at 6e153 it is nonzero and must still be flagged.
    code = main(["score", "--data", data_csv, "--hypothesis", ",".join([coord] * 4),
                 "--folds", "3", "-o", str(tmp_path)])
    assert code == 0
    assert "degenerate distances" in capsys.readouterr().out
    rep = json.loads((tmp_path / "score.json").read_text())
    assert rep["degenerate_distances"]


def test_manifest_records_the_environment(tmp_path, data_csv, monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    first, again = tmp_path / "first", tmp_path / "again"
    args = ["score", "--data", data_csv, "--hypothesis", "0,0,0,0", "--folds", "3"]
    assert main(args + ["-o", str(first)]) == 0
    env = json.loads((first / "manifest.json").read_text())["environment"]
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    assert env == {
        "python": ".".join(map(str, sys.version_info[:3])),
        "numpy": np.__version__,
        "blas": {"name": blas["name"], "version": blas["version"]},
        "thread_vars": {k: os.environ[k] for k in env["thread_vars"]},
        "cpu_count": os.cpu_count(),
    }
    assert env["thread_vars"]["OPENBLAS_NUM_THREADS"] == "1"
    assert "OMP_NUM_THREADS" not in env["thread_vars"]
    # replay reads only the options
    assert main(["score", "--config", str(first / "manifest.json"), "-o", str(again)]) == 0
    assert (first / "score.json").read_bytes() == (again / "score.json").read_bytes()


def _fresh_env(**thread_vars):
    env = {k: v for k, v in os.environ.items() if k not in _THREAD_VARS}
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    return {**env, **thread_vars}


@pytest.mark.parametrize("thread_vars, recorded", [
    ({}, {"OMP_NUM_THREADS": "1"}),
    ({"OPENBLAS_NUM_THREADS": "2"}, {"OPENBLAS_NUM_THREADS": "2"}),
])
def test_cli_runs_blas_on_one_thread_unless_told(tmp_path, data_csv, thread_vars, recorded):
    proc = subprocess.run(
        [sys.executable, "-m", "cursor.cli", "score", "--data", data_csv,
         "--hypothesis", "0,0,0,0", "--folds", "3", "-o", str(tmp_path)],
        env=_fresh_env(**thread_vars), capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    env = json.loads((tmp_path / "manifest.json").read_text())["environment"]
    assert env["thread_vars"] == recorded


def test_import_cursor_leaves_numpy_unloaded():
    # so that cursor.cli can still choose the BLAS thread count; and starting
    # the CLI leaves numpy.random (about 1 MB) to the commands that draw
    script = ("import sys, cursor\n"
              "assert 'numpy' not in sys.modules\n"
              "cursor.score\n"
              "assert 'numpy' in sys.modules\n"
              "import cursor.cli\n"
              "assert 'numpy.random' not in sys.modules, 'cursor.cli loads numpy.random'\n")
    proc = subprocess.run([sys.executable, "-c", script], env=_fresh_env(),
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


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
    assert not any(d["degenerate_distances"] for d in detail)


def test_rank_says_when_distances_are_degenerate(tmp_path, data_csv, capsys):
    # Hypotheses up to 1e154 away: most rows' distances agree within their
    # rounding, and the ranking metrics of their scores measure noise.
    code = main(["rank", "--data", data_csv, "--L", "6", "--d-max", "1e154", "--folds", "3",
                 "-o", str(tmp_path)])
    assert code == 0
    detail = [json.loads(line) for line in
              (tmp_path / "rank_detail.jsonl").read_text().splitlines()]
    flagged = sum(d["degenerate_distances"] for d in detail)
    assert 0 < flagged < 6  # the target itself, at distance 0, is never flagged
    assert not next(d for d in detail if d["is_target"])["degenerate_distances"]
    assert f"{flagged} of 6 hypotheses have degenerate distances" in capsys.readouterr().out


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


def test_config_ridge_lambda_beside_another_estimator_is_ignored(tmp_path, data_csv):
    # a --config value is no flag, so a ridge run's manifest replays under
    # --estimator ols, in a sweep too, and ranks as a plain OLS run does
    ridge = tmp_path / "ridge"
    assert rank_run(data_csv, ridge, ("--estimator", "ridge", "--ridge-lambda", "5")) == 0
    config = ["--config", str(ridge / "manifest.json"), "--estimator", "ols"]
    for extra, table in (((), "rank.csv"), (("--sizes", "6,12"), "sweep.csv")):
        plain, replay = tmp_path / f"plain-{table}", tmp_path / f"replay-{table}"
        assert rank_run(data_csv, plain, extra) == 0
        assert main(["rank", *config, *extra, "-o", str(replay)]) == 0
        assert (plain / table).read_bytes() == (replay / table).read_bytes()


@pytest.mark.parametrize("source,scoring,accepted", [
    ("manifest", {"ratio_mode": "ratio_of_mean_rmses"}, True),
    ("manifest", {"ratio_mode": "mean_of_fold_ratios"}, False),
    ("plan", {"ratio_mode": "ratio_of_mean_rmses", "denom_floor": 1e-12}, True),
    ("plan", {"ratio_mode": "mean_of_fold_ratios"}, False),
    ("plan", {"denom_floor": 1e-6}, False),
    ("manifest", {"shuffles": 1}, True),
    ("manifest", {"shuffles": 2}, False),
    ("plan", {"n_shuffles": 1}, True),
    ("plan", {"n_shuffles": 2}, False),
], ids=["manifest-same-formula", "manifest-other-formula", "plan-same-formula",
        "plan-other-formula", "plan-other-floor", "manifest-one-shuffle",
        "manifest-two-shuffles", "plan-one-shuffle", "plan-two-shuffles"])
def test_older_formula_settings_replay_or_refuse(tmp_path, data_csv, capsys,
                                                 source, scoring, accepted):
    # manifests and plans from before S(h) had one formula and one control
    # permutation name them; they reproduce the run when they name those and
    # are refused otherwise
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
            assert capsys.readouterr().err.count("\n") == 1
            assert not again.exists()
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


def test_table_headers(tmp_path, data_csv):
    # write_table orders columns as the row keys were inserted; these pin that order
    rank_metrics = ["pearson_r", "target_rank", "d_top_rank"]
    summary = [f"{m}_{stat}" for m in rank_metrics for stat in ("mean", "std")]
    stamp = ["plan_hash", "master_seed"]
    expected = {
        "rank/rank.csv": ["estimator", "L", *rank_metrics],
        "sweep/sweep.csv": [*stamp, "target", "variant", "size", "estimator", *rank_metrics],
        "sweep/sweep_summary.csv": [*stamp, "size", "estimator", "n", *summary],
        "ablate/ablation.csv": [*stamp, "target", "variant", "threshold", "condition", "size",
                                "estimator", "mode", "status", *rank_metrics,
                                "recovered_distance", "best_score", "evaluations"],
        "ablate/ablation_summary.csv": [*stamp, "threshold", "condition", "estimator", "n",
                                        *summary],
        "ablate_opt/ablation_summary.csv": [
            *stamp, "threshold", "condition", "estimator", "n",
            *[f"{m}_{stat}" for m in ("recovered_distance", "best_score")
              for stat in ("mean", "std")]],
    }
    # every ablation.csv has the same columns: ranking or optimization mode,
    # cells run or skipped
    for run in ("ablate_opt", "ablate_skipped"):
        expected[f"{run}/ablation.csv"] = expected["ablate/ablation.csv"]
    assert rank_run(data_csv, tmp_path / "rank") == 0
    assert rank_run(data_csv, tmp_path / "sweep", ("--sizes", "12")) == 0
    assert main(["ablate", "--data", data_csv, *RANK_ARGS, "--thresholds", "0",
                 "-o", str(tmp_path / "ablate")]) == 0
    assert main(["ablate", "--data", data_csv, "--mode", "optimization", "--budget", "12",
                 "--folds", "3", "--thresholds", "0", "-o", str(tmp_path / "ablate_opt")]) == 0
    assert main(["ablate", "--data", data_csv, *RANK_ARGS, "--thresholds", "1e6",
                 "-o", str(tmp_path / "ablate_skipped")]) == 0
    assert not (tmp_path / "ablate_skipped" / "ablation_summary.csv").exists()
    for name, columns in expected.items():
        header = (tmp_path / name).read_text().splitlines()[0]
        assert header == ",".join(columns), name


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


def test_optimize_records_overflowing_candidates_as_nonfinite(tmp_path, data_csv):
    # In a box this wide some candidates' distances overflow: they are logged
    # as nonfinite evaluations, without a RuntimeWarning, and the search goes on.
    argv = ["optimize", "--data", data_csv, "--budget", "40", "--bounds", "2e154",
            "--reduce-responses", "5", "--reduce-latents", "3", "--folds", "3"]
    assert main(argv + ["-o", str(tmp_path)]) == 0
    trace = [json.loads(line) for line in (tmp_path / "trace.jsonl").read_text().splitlines()]
    nonfinite = [rec["nonfinite"] for rec in trace]
    assert len(trace) == 40 and any(nonfinite) and not all(nonfinite)
    assert all(np.isnan(rec["score"]) == rec["nonfinite"] for rec in trace)


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


@pytest.mark.parametrize("argv,needle", [
    (["ablate", "--plan", "{plan}", "--data", "{data}"], "give one of --plan and --data"),
    (["ablate"], "give one of --plan and --data"),
    (["report"], "report needs at least one run directory"),
], ids=["ablate-plan-and-data", "ablate-neither", "report-no-inputs"])
def test_mode_refusals_make_no_directory(tmp_path, data_csv, capsys, argv, needle):
    # refused while the options are resolved, before the output directory exists
    plan = tmp_path / "plan.json"
    plan.write_text("{}")
    out = tmp_path / "out"
    assert main([a.format(plan=plan, data=data_csv) for a in argv] + ["-o", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {needle}\n"
    assert not out.exists()


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
    (["score", "--data", "{data}", "--hypothesis", "0,0,0,0", "--estimator", "ridge",
      "--ridge-lambda", "nan"], "ridge_lambda must be finite"),
    (["ablate", "--data", "{data}", *RANK_ARGS, "--thresholds", "nan,2"],
     "ablation_thresholds must be >= 0"),
    (["optimize", "--data", "{data}", *OPT_ARGS, "--sigma0", "inf"], "sigma0 must be positive"),
    (["rank", "--data", "{data}", *RANK_ARGS, "--d-max", "nan"], "d_max must be positive"),
    (["rank", "--data", "{data}", *RANK_ARGS, "--d-max", "inf"], "d_max must be positive"),
    (["rank", "--data", "{data}", *RANK_ARGS, "--sizes", "6", "--d-max", "nan"],
     "d_max must be positive"),
    (["rank", "--data", "{data}", *RANK_ARGS, "--d-max", "1e308"], "distance row 0 is not finite"),
    (["rank", "--data", "{data}", *RANK_ARGS, "--sizes", "6", "--d-max", "1e308"],
     "distance row 0 is not finite"),
    (["ablate", "--data", "{data}", *RANK_ARGS, "--thresholds", "0", "--d-max", "1e308"],
     "distance row 0 is not finite"),
    (["score", "--data", "{data}", "--hypothesis", "1e200,1e200,1e200,1e200", "--folds", "3"],
     "distance row 0 is not finite"),
    (["rank", "--data", "{data}", *RANK_ARGS, "--sizes", "6", "--replicates", "0"],
     "error: plan $.replicates: 0 is less than the minimum of 1"),
    (["rank", "--data", "{data}", *RANK_ARGS, "--sizes", "12,12"],
     "error: plan $.sizes: [12, 12] has non-unique elements"),
    (["ablate", "--data", "{data}", *RANK_ARGS, "--thresholds", "2,2.0"],
     "error: plan $.ablation_thresholds: [2.0, 2.0] has non-unique elements"),
    (["rank", "--data", "{data}", *RANK_ARGS, "--shuffles", "2"],
     "error: --shuffles 2 is not supported; S(h) uses one control permutation"),
    (["rank", "--data", "{bare}", *RANK_ARGS],
     "error: ranking requires a dataset with a hidden target"),
    (["rank", "--data", "{bare}", *RANK_ARGS, "--sizes", "6"],
     "error: ranking requires a dataset with a hidden target"),
    (["ablate", "--data", "{bare}", *RANK_ARGS, "--thresholds", "1"],
     "error: ablation requires a dataset with hidden truth"),
    (["ablate", "--data", "{data}", "--L", "6", "--d-max", "8", "--folds", "40"],
     "error: ablation needs at least 40 rows, got 12"),
    (["score", "--data", "{data}", "--hypothesis", "0,0,0,0", "--folds", "3",
      "--config", "{bool_config}"],
     "error: --config key 'shuffle_aligned': 'false' is not of type bool"),
    ([*GEN_ARGS, "--config", "{choice_config}"],
     "error: --config key 'format': 'xml' is not one of csv, bin"),
    (["rank", "--data", "{data}", "--L", "6", "--d-max", "8", "--folds", "3",
      "--config", "{type_config}"],
     "error: --config key 'seed': '3' is not of type int"),
    (["score", "--data", "{data}", "--hypothesis", "0,0,0,0", "--folds", "3",
      "--ridge-lambda", "5"], "error: score --estimator ols does not read --ridge-lambda"),
    ([*GEN_ARGS, "--tau", "0.5"], "error: generate --link linear does not read --tau"),
    (["rank", "--data", "{data}", "--L", "6", "--d-max", "8", "--folds", "1",
      "--sizes", "1,12"], "error: sizes [1] are below the 2 rows a cell needs"),
], ids=["ablate-plan-L", "ablate-plan-many", "ablate-plan-thresholds",
        "rank-replicates-without-sizes", "score-hypothesis-and-file", "rank-format",
        "recover-seed", "rank-sizes-above-n", "score-file-without-coords",
        "optimize-zero-response-components", "optimize-zero-latent-components",
        "score-ridge-lambda-nan", "ablate-threshold-nan", "optimize-sigma0-inf",
        "rank-d-max-nan", "rank-d-max-inf", "sweep-d-max-nan", "rank-d-max-huge",
        "sweep-d-max-huge", "ablate-d-max-huge", "score-hypothesis-huge",
        "sweep-zero-replicates", "sweep-repeated-size", "ablate-repeated-threshold",
        "rank-two-shuffles", "rank-no-target", "sweep-no-target", "ablate-no-target",
        "ablate-too-few-rows", "config-string-for-bool", "config-unknown-choice",
        "config-string-for-int", "score-ols-ridge-lambda", "generate-linear-tau",
        "sweep-size-below-two"])
def test_refused_options_write_nothing(tmp_path, data_csv, bare_csv, capsys, argv, needle):
    # a flag the chosen mode would ignore, a value it cannot use (NaN and inf
    # included), a --config value its flag could not give, a sweep size above
    # N or below the rows cross-validation needs, an ablation of a dataset too
    # small for any cell, a hypothesis so far away that its distances
    # overflow, or a ranking or ablation of a dataset with no hidden target,
    # is refused before any output, and leaves no output directory behind
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps({
        "dataset": {"file": data_csv}, "hypothesis_set": {"count": 6, "d_max": 8},
        "cv": {"n_folds": 3}, "ablation_thresholds": [1e6], "targets": 1, "replicates": 1,
    }))
    hyp = tmp_path / "h.json"
    hyp.write_text(json.dumps({"coords": [0.0, 0.0, 0.0, 0.0]}))
    out = tmp_path / "out"
    names = {"plan": plan, "data": data_csv, "h": hyp, "bare": bare_csv}
    configs = {"bool": {"shuffle_aligned": "false"}, "choice": {"format": "xml"},
               "type": {"seed": "3"}}
    for kind, config in configs.items():
        names[f"{kind}_config"] = tmp_path / f"{kind}.json"
        names[f"{kind}_config"].write_text(json.dumps(config))
    assert main([a.format(**names) for a in argv] + ["-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert needle.format(**names) in err
    # one error line; argparse prints its usage line before its own
    assert err.count("\n") == (2 if err.startswith("usage: ") else 1), err
    assert not out.exists()


def test_refused_command_removes_only_directories_it_made(tmp_path, data_csv):
    kept = tmp_path / "kept"
    kept.mkdir()
    argv = ["score", "--data", data_csv, "--hypothesis", "1e200,1e200,1e200,1e200"]
    assert main([*argv, "-o", str(kept)]) == 2
    assert main([*argv, "-o", str(tmp_path / "a" / "b")]) == 2
    assert sorted(p.name for p in tmp_path.iterdir()) == ["kept"]


@pytest.mark.parametrize("command", list(COMMANDS))
def test_manifest_options_are_the_table_options(tmp_path, data_csv, optimize_dir, command,
                                                capsys):
    # each command parses, resolves and records exactly the options it reads,
    # and prints one line on stdout and nothing on stderr
    runs = {
        "generate": [*GEN_ARGS],
        "score": ["score", "--data", data_csv, "--hypothesis", "0,0,0,0", "--folds", "3"],
        "rank": ["rank", "--data", data_csv, *RANK_ARGS],
        "optimize": ["optimize", "--data", data_csv, *OPT_ARGS],
        "ablate": ["ablate", "--data", data_csv, "--thresholds", "1e6", *RANK_ARGS],
        "recover": ["recover", "--data", data_csv, "--zhat", str(optimize_dir / "zhat.json")],
        "report": ["report", str(optimize_dir)],
    }
    capsys.readouterr()
    assert main(runs[command] + ["-o", str(tmp_path)]) == 0
    printed = capsys.readouterr()
    assert printed.out.count("\n") == 1 and printed.out.endswith("\n"), printed.out
    assert printed.err == ""
    dests = set(COMMANDS[command][1])
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["subcommand"] == command
    assert set(manifest["options"]) == dests
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    parsed = {a.dest for a in sub.choices[command]._actions} - {"help", "config"}
    assert parsed == dests
    # every recorded value passes the --config check, so the manifest replays
    assert main([command, "--config", str(tmp_path / "manifest.json"),
                 "-o", str(tmp_path / "again")]) == 0


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


def _fig5_rows(run: Path, rep: Path) -> list[dict]:
    assert main(["report", str(run), "-o", str(rep)]) == 0
    with open(rep / "fig5_distance_vs_evaluation.csv", newline="") as fh:
        return list(csv.DictReader(fh))


def test_report_includes_trace(tmp_path, optimize_dir, bare_csv):
    rows = _fig5_rows(optimize_dir, tmp_path / "rep")
    assert len(rows) == 12  # one per evaluation
    # the best-so-far columns follow the rule that wrote summary.json
    best = [float(r["best_score"]) for r in rows]
    assert best == sorted(best)
    summary = json.loads((optimize_dir / "summary.json").read_text())
    assert rows[-1]["best_score"] == f"{summary['best_score']:.12g}"
    assert rows[-1]["best_distance"] == f"{summary['best_distance']:.12g}"
    # a run without a hidden target has no distances to report
    bare = tmp_path / "bare"
    assert main(["optimize", "--data", bare_csv, *OPT_ARGS, "-o", str(bare)]) == 0
    rows = _fig5_rows(bare, tmp_path / "rep_bare")
    assert len(rows) == 12
    assert all(r["distance"] == r["best_distance"] == "" for r in rows)
    summary = json.loads((bare / "summary.json").read_text())
    assert rows[-1]["best_score"] == f"{summary['best_score']:.12g}"


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


def test_only_plans_load_jsonschema(tmp_path):
    # jsonschema takes about 0.1 s to import, and only plan validation uses it.
    data = str(tmp_path / "gen" / "dataset.csv")
    opt = tmp_path / "opt"
    argvs = [
        GEN_ARGS + ["-o", str(tmp_path / "gen")],
        ["score", "--data", data, "--hypothesis", "0,0,0,0", "--folds", "3",
         "-o", str(tmp_path / "score")],
        ["rank", "--data", data, *RANK_ARGS, "-o", str(tmp_path / "rank")],
        ["optimize", "--data", data, *OPT_ARGS, "-o", str(opt)],
        ["recover", "--data", data, "--zhat", str(opt / "zhat.json"),
         "-o", str(tmp_path / "rec")],
    ]
    script = ("import json, sys\n"
              "import cursor, cursor.cli\n"
              "assert 'jsonschema' not in sys.modules, 'import cursor'\n"
              "for argv in json.loads(sys.argv[1]):\n"
              "    assert cursor.cli.main(argv) == 0, argv[0]\n"
              "    assert 'jsonschema' not in sys.modules, argv[0]\n")
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    proc = subprocess.run([sys.executable, "-c", script, json.dumps(argvs)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


def test_score_is_bitwise_independent_of_blas_threads(tmp_path):
    # The reference size: N = 3000, De = 64, every fold on the Gram path.
    assert main(["generate", "--trajectories", "1000", "--points", "3", "--latent-dim", "32",
                 "--response-dim", "64", "--d-max", "15", "--noise-sigma", "2", "--seed", "41",
                 "-o", str(tmp_path / "gen")]) == 0
    data = tmp_path / "gen" / "dataset.csv"
    hyp = tmp_path / "h.json"
    hyp.write_text(json.dumps(load_dataset(data).truth.target.coords.tolist()))
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        proc = subprocess.run(
            [sys.executable, "-m", "cursor.cli", "score", "--data", str(data),
             "--hypothesis-file", str(hyp), "--seed", "41", "-o", str(out)],
            env=_fresh_env(OPENBLAS_NUM_THREADS=threads), capture_output=True, text=True,
            timeout=300)
        assert proc.returncode == 0, proc.stderr
        outputs.append((out / "score.json").read_bytes())
    assert outputs[0] == outputs[1]
