"""End-to-end tests of the command line interface.

Commands run in-process through main(argv) so exit codes and outputs are
checked without subprocess overhead.
"""

import json

import numpy as np
import pytest

from cursor.cli import main
from cursor.dataset import load_dataset

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


def test_rank_worker_invariance(tmp_path, data_csv):
    out1, out4 = tmp_path / "w1", tmp_path / "w4"
    assert rank_run(data_csv, out1, ("--workers", "1")) == 0
    assert rank_run(data_csv, out4, ("--workers", "8")) == 0
    for name in ("rank.csv", "rank_rows.jsonl", "rank_detail.jsonl"):
        assert (out1 / name).read_text() == (out4 / name).read_text()


def test_workers_env_variable(tmp_path, data_csv, monkeypatch):
    out_flag, out_env = tmp_path / "flag", tmp_path / "env"
    assert rank_run(data_csv, out_flag, ("--workers", "2")) == 0
    monkeypatch.setenv("CURSOR_WORKERS", "2")
    assert rank_run(data_csv, out_env) == 0
    assert (out_flag / "rank.csv").read_text() == (out_env / "rank.csv").read_text()
    with open(out_env / "manifest.json") as fh:
        assert json.load(fh)["options"]["workers"] == 2


def test_manifest_reexecution_is_bit_identical(tmp_path, data_csv):
    first = tmp_path / "first"
    again = tmp_path / "again"
    assert rank_run(data_csv, first) == 0
    code = main(["rank", "--config", str(first / "manifest.json"), "-o", str(again)])
    assert code == 0
    for name in ("rank.csv", "rank_rows.jsonl", "rank_detail.jsonl"):
        assert (first / name).read_text() == (again / name).read_text()


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
