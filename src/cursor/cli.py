"""Batch command-line front end.

Subcommands: generate, score, rank, optimize, ablate, recover, report.
Every run writes a manifest.json echoing the fully resolved options, and a
run can be replayed with --config manifest.json (explicit flags still win).
Results print with 12 significant digits in CSV; binary outputs are
bit-reproducible from the manifest.

Exit codes: 0 success, 1 runtime failure, 2 usage or validation error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import jsonschema
import numpy as np

from .dataset import StimulusResponseDataset, load_dataset, save_dataset
from .estimators import EstimatorSpec
from .latent import LatentPoint
from .optimize import CmaConfig, recover_target, trace_summary, trace_to_jsonl
from .pca import default_latent_k, default_response_k, pca_fit, save_pca
from .ranking import build_hypothesis_set, rank_report
from .scoring import ScoreConfig, report_to_json, score
from .synth import Link, generate_dataset, make_response_model
from .experiments import (
    DEFAULT_PLAN,
    aggregate,
    load_plan,
    plan_from_dict,
    recover_labels,
    run_plan,
    score_config,
    write_jsonl,
    write_table,
)
from ._util import derive_rng, derive_seed

__all__ = ["main"]

GLOBAL_DEFAULTS = {"seed": 0, "workers": None, "out": None, "format": "csv"}

_GENERATOR = DEFAULT_PLAN["dataset"]["generator"]
_ESTIMATOR = DEFAULT_PLAN["estimators"][0]
_HYPOTHESES = DEFAULT_PLAN["hypothesis_set"]
_OPTIMIZATION = DEFAULT_PLAN["optimization"]

# Defaults of the estimator flags; optimize has no --shuffle-aligned.
ESTIMATOR_DEFAULTS = {
    "estimator": _ESTIMATOR["kind"],
    "ridge_lambda": _ESTIMATOR["ridge_lambda"],
    "folds": DEFAULT_PLAN["cv"]["n_folds"],
    "train_fraction": DEFAULT_PLAN["cv"]["train_fraction"],
    "shuffles": DEFAULT_PLAN["scoring"]["n_shuffles"],
    "ratio_mode": DEFAULT_PLAN["scoring"]["ratio_mode"],
}
HYPOTHESIS_SET_DEFAULTS = {
    "L": _HYPOTHESES["count"],
    "d_max": _HYPOTHESES["d_max"],
    "include_target": _HYPOTHESES["include_target"],
}
BUDGET_DEFAULTS = {"budget": _OPTIMIZATION["budget"], "bounds": _OPTIMIZATION["bounds"]}

COMMAND_DEFAULTS = {
    "generate": {
        "targets": 1,
        "trajectories": 3,
        **{key: _GENERATOR[key] for key in (
            "points", "latent_dim", "response_dim", "k_signal", "signal_gain", "noise_sigma",
            "nuisance_rank", "nuisance_gain", "d_min", "d_max", "spacing")},
        "link": _GENERATOR["link"]["kind"],
        "tau": _GENERATOR["link"]["tau"],
        "name": "dataset",
    },
    "score": {
        "data": None,
        "hypothesis": None,
        "hypothesis_file": None,
        **ESTIMATOR_DEFAULTS,
        "shuffle_aligned": _ESTIMATOR["shuffle_aligned"],
    },
    "rank": {
        "data": None,
        **HYPOTHESIS_SET_DEFAULTS,
        "sizes": DEFAULT_PLAN["sizes"],
        "replicates": 1,
        **ESTIMATOR_DEFAULTS,
        "shuffle_aligned": _ESTIMATOR["shuffle_aligned"],
    },
    "optimize": {
        "data": None,
        **BUDGET_DEFAULTS,
        "population": _OPTIMIZATION["population_size"],
        "sigma0": _OPTIMIZATION["sigma0"],
        "reduce_responses": _OPTIMIZATION["reduce_responses"],
        "reduce_latents": _OPTIMIZATION["reduce_latents"],
        **ESTIMATOR_DEFAULTS,
    },
    "ablate": {
        "plan": None,
        "data": None,
        "thresholds": None,
        "mode": "ranking",
        "replicates": 1,
        **HYPOTHESIS_SET_DEFAULTS,
        **BUDGET_DEFAULTS,
        **ESTIMATOR_DEFAULTS,
        "shuffle_aligned": _ESTIMATOR["shuffle_aligned"],
    },
    "recover": {"data": None, "zhat": None},
    "report": {"inputs": None},
}


def _csv_floats(text: str) -> list[float]:
    return [float(tok) for tok in text.split(",") if tok.strip() != ""]


def _csv_ints(text: str) -> list[int]:
    return [int(tok) for tok in text.split(",") if tok.strip() != ""]


def _add_global_flags(p: argparse.ArgumentParser):
    p.add_argument("--seed", type=int, default=None, help="master seed (default 0)")
    p.add_argument("--workers", type=int, default=None,
                   help="worker count (default: CURSOR_WORKERS or 1; never changes numbers)")
    p.add_argument("--config", default=None,
                   help="JSON file with option overrides; a previous manifest.json works")
    p.add_argument("-o", "--out", default=None, help="output directory")
    p.add_argument("--format", choices=["csv", "bin"], default=None,
                   help="dataset file format (default csv)")


def _add_estimator_flags(p: argparse.ArgumentParser, with_shuffle_aligned=True):
    p.add_argument("--estimator", choices=["ols", "ridge", "dummy_mean"], default=None)
    p.add_argument("--ridge-lambda", type=float, default=None, dest="ridge_lambda")
    p.add_argument("--folds", type=int, default=None)
    p.add_argument("--train-fraction", type=float, default=None, dest="train_fraction")
    p.add_argument("--shuffles", type=int, default=None,
                   help="number of control permutations averaged per fold")
    p.add_argument("--ratio-mode", choices=["ratio_of_mean_rmses", "mean_of_fold_ratios"],
                   default=None, dest="ratio_mode")
    if with_shuffle_aligned:
        p.add_argument("--shuffle-aligned", action=argparse.BooleanOptionalAction,
                       default=None, dest="shuffle_aligned",
                       help="shuffle both branches (the always-shuffling control)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cursor",
        description="Self-calibrating target recovery: generate, score, rank, optimize.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="simulate a stimulus-response dataset")
    p.add_argument("--targets", type=int, default=None, help="number of hidden targets")
    p.add_argument("--trajectories", type=int, default=None, help="trajectories per target")
    p.add_argument("--points", type=int, default=None, help="points per trajectory")
    p.add_argument("--latent-dim", type=int, default=None, dest="latent_dim")
    p.add_argument("--response-dim", type=int, default=None, dest="response_dim")
    p.add_argument("--k-signal", type=int, default=None, dest="k_signal")
    p.add_argument("--signal-gain", type=float, default=None, dest="signal_gain")
    p.add_argument("--noise-sigma", type=float, default=None, dest="noise_sigma")
    p.add_argument("--nuisance-rank", type=int, default=None, dest="nuisance_rank")
    p.add_argument("--nuisance-gain", type=float, default=None, dest="nuisance_gain")
    p.add_argument("--link", choices=["linear", "saturating"], default=None)
    p.add_argument("--tau", type=float, default=None)
    p.add_argument("--d-min", type=float, default=None, dest="d_min")
    p.add_argument("--d-max", type=float, default=None, dest="d_max")
    p.add_argument("--spacing", choices=["uniform", "logarithmic"], default=None)
    p.add_argument("--name", default=None, help="output file stem")
    _add_global_flags(p)

    p = sub.add_parser("score", help="score one hypothesis against a dataset")
    p.add_argument("--data", default=None, help="dataset file")
    p.add_argument("--hypothesis", type=_csv_floats, default=None,
                   help="comma-separated latent coordinates")
    p.add_argument("--hypothesis-file", default=None, dest="hypothesis_file",
                   help="JSON file holding the coordinates")
    _add_estimator_flags(p)
    _add_global_flags(p)

    p = sub.add_parser("rank", help="rank a hypothesis set; --sizes runs a size sweep")
    p.add_argument("--data", default=None, help="dataset file")
    p.add_argument("--L", type=int, default=None, help="hypothesis set size")
    p.add_argument("--d-max", type=float, default=None, dest="d_max")
    p.add_argument("--include-target", action=argparse.BooleanOptionalAction,
                   default=None, dest="include_target")
    p.add_argument("--sizes", type=_csv_ints, default=None,
                   help="comma-separated subsample sizes (runs the sweep harness)")
    p.add_argument("--replicates", type=int, default=None,
                   help="seeded replicates per size (sweep mode)")
    _add_estimator_flags(p)
    _add_global_flags(p)

    p = sub.add_parser("optimize", help="recover the hidden target with CMA-ES")
    p.add_argument("--data", default=None, help="dataset file")
    p.add_argument("--budget", type=int, default=None, help="objective evaluation budget")
    p.add_argument("--bounds", type=float, default=None,
                   help="symmetric search bound per reduced coordinate")
    p.add_argument("--population", type=int, default=None)
    p.add_argument("--sigma0", type=float, default=None)
    p.add_argument("--reduce-responses", type=int, default=None, dest="reduce_responses")
    p.add_argument("--reduce-latents", type=int, default=None, dest="reduce_latents")
    _add_estimator_flags(p, with_shuffle_aligned=False)
    _add_global_flags(p)

    p = sub.add_parser("ablate", help="near-target ablation vs size-matched control")
    p.add_argument("--plan", default=None, help="experiment plan JSON")
    p.add_argument("--data", default=None, help="dataset file (instead of a plan)")
    p.add_argument("--thresholds", type=_csv_floats, default=None,
                   help="comma-separated ablation distances")
    p.add_argument("--mode", choices=["ranking", "optimization"], default=None)
    p.add_argument("--replicates", type=int, default=None)
    p.add_argument("--L", type=int, default=None)
    p.add_argument("--d-max", type=float, default=None, dest="d_max")
    p.add_argument("--include-target", action=argparse.BooleanOptionalAction,
                   default=None, dest="include_target")
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("--bounds", type=float, default=None)
    _add_estimator_flags(p)
    _add_global_flags(p)

    p = sub.add_parser("recover", help="reconstruct distance labels from a recovered point")
    p.add_argument("--data", default=None, help="dataset file")
    p.add_argument("--zhat", default=None, help="JSON file with the recovered coordinates")
    _add_global_flags(p)

    p = sub.add_parser("report", help="merge run outputs into figure-ready tables")
    p.add_argument("inputs", nargs="*", help="run directories to merge")
    _add_global_flags(p)

    return parser


def _resolve(args: argparse.Namespace) -> dict:
    """defaults < --config file < explicit flags."""
    config = {}
    if args.config is not None:
        with open(args.config, "r", encoding="utf-8") as fh:
            config = json.load(fh)
        if not isinstance(config, dict):
            raise ValueError("--config must hold a JSON object")
        if "options" in config and isinstance(config["options"], dict):
            if config.get("subcommand") not in (None, args.command):
                raise ValueError(
                    f"manifest is for '{config.get('subcommand')}', not '{args.command}'"
                )
            config = config["options"]

    opts = {"command": args.command}
    table = {**GLOBAL_DEFAULTS, **COMMAND_DEFAULTS[args.command]}
    for dest, default in table.items():
        cli_val = getattr(args, dest, None)
        if dest == "inputs" and cli_val == []:
            cli_val = None
        opts[dest] = cli_val if cli_val is not None else config.get(dest, default)

    if opts["workers"] is None:
        opts["workers"] = int(os.environ.get("CURSOR_WORKERS", "1"))
    if opts["workers"] < 1:
        raise ValueError("--workers must be at least 1")
    if opts["seed"] < 0:
        raise ValueError("--seed must be nonnegative")
    return opts


def _require(opts: dict, key: str, flag: str):
    if opts.get(key) is None:
        raise ValueError(f"missing required option {flag}")
    return opts[key]


def _out_dir(opts: dict) -> Path:
    out = _require(opts, "out", "--out")
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _write_manifest(out_dir: Path, opts: dict):
    manifest = {"subcommand": opts["command"],
                "options": {k: v for k, v in opts.items() if k != "command"}}
    with open(out_dir / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)


def _load_data(opts: dict) -> StimulusResponseDataset:
    path = Path(_require(opts, "data", "--data"))
    if not path.exists():
        raise FileNotFoundError(f"dataset not found: {path}")
    return load_dataset(path)


def _scoring_sections(opts: dict) -> dict:
    """The plan sections that the estimator flags set."""
    return {
        "estimators": [{
            "kind": opts["estimator"],
            "ridge_lambda": opts["ridge_lambda"],
            "shuffle_aligned": bool(opts.get("shuffle_aligned", False)),
        }],
        "cv": {"n_folds": opts["folds"], "train_fraction": opts["train_fraction"]},
        "scoring": {
            "n_shuffles": opts["shuffles"],
            "ratio_mode": opts["ratio_mode"],
            "denom_floor": DEFAULT_PLAN["scoring"]["denom_floor"],
        },
    }


def _score_config(opts: dict) -> ScoreConfig:
    seed = opts["seed"]
    return score_config(
        _scoring_sections(opts),
        EstimatorSpec(kind=opts["estimator"], ridge_lambda=opts["ridge_lambda"]),
        bool(opts.get("shuffle_aligned", False)),
        derive_seed(seed, "cv"),
        derive_seed(seed, "perm"),
    )


def _cmd_generate(opts: dict) -> int:
    out = _out_dir(opts)
    seed = opts["seed"]
    model = make_response_model(
        response_dim=opts["response_dim"],
        k_signal=opts["k_signal"],
        signal_gain=opts["signal_gain"],
        noise_sigma=opts["noise_sigma"],
        nuisance_rank=opts["nuisance_rank"],
        nuisance_gain=opts["nuisance_gain"],
        link=Link(kind=opts["link"], tau=opts["tau"]),
        seed=derive_seed(seed, "response-model"),
    )
    targets = [
        LatentPoint(derive_rng(derive_seed(seed, "target", i), "coords")
                    .standard_normal(opts["latent_dim"]))
        for i in range(opts["targets"])
    ]
    ds = generate_dataset(
        targets=targets,
        trajectories_per_target=opts["trajectories"],
        points_per_trajectory=opts["points"],
        model=model,
        master_seed=seed,
        d_min=opts["d_min"],
        d_max=opts["d_max"],
        spacing=opts["spacing"],
    )
    ds = StimulusResponseDataset(
        stimuli=ds.stimuli, responses=ds.responses, truth=ds.truth,
        provenance={**ds.provenance,
                    "cli": {k: v for k, v in opts.items() if k != "command"}},
    )
    ext = "bin" if opts["format"] == "bin" else "csv"
    path = out / f"{opts['name']}.{ext}"
    save_dataset(ds, path)
    _write_manifest(out, opts)
    print(f"wrote {path} (n={ds.n}, stimulus_dim={ds.stimulus_dim}, "
          f"response_dim={ds.response_dim}, truth={'yes' if ds.truth else 'no'})")
    return 0


def _cmd_score(opts: dict) -> int:
    out = _out_dir(opts)
    ds = _load_data(opts)
    coords = opts["hypothesis"]
    if coords is None and opts["hypothesis_file"] is not None:
        with open(opts["hypothesis_file"], "r", encoding="utf-8") as fh:
            coords = json.load(fh)
        if isinstance(coords, dict):
            coords = coords.get("coords")
    if coords is None:
        raise ValueError("provide --hypothesis or --hypothesis-file")
    cfg = _score_config(opts)
    rep = score(ds, np.asarray(coords, dtype=np.float64), cfg)
    with open(out / "score.json", "w", encoding="utf-8") as fh:
        fh.write(report_to_json(rep))
    write_table([{
        "score": rep.score,
        "rmse_aligned": rep.rmse_aligned,
        "rmse_shuffled": rep.rmse_shuffled,
        "denominator_floored": rep.denominator_floored,
        "degenerate_distances": rep.degenerate_distances,
    }], out / "score.csv")
    _write_manifest(out, opts)
    print(f"score {rep.score:.12g} (aligned rmse {rep.rmse_aligned:.12g}, "
          f"shuffled rmse {rep.rmse_shuffled:.12g})")
    return 0


def _sweep_plan(opts: dict, data: str) -> dict:
    return {
        "dataset": {"file": data},
        **_scoring_sections(opts),
        "hypothesis_set": {
            "count": opts["L"],
            "d_max": opts["d_max"],
            "include_target": opts["include_target"],
        },
        "targets": 1,
        "replicates": opts["replicates"],
        "master_seed": opts["seed"],
    }


def _cmd_rank(opts: dict) -> int:
    out = _out_dir(opts)
    data = _require(opts, "data", "--data")

    if opts["sizes"] is not None:
        raw = _sweep_plan(opts, data)
        raw["sizes"] = opts["sizes"]
        run_plan(plan_from_dict(raw), out, kinds=("sweep",), worker_count=opts["workers"])
        _write_manifest(out, opts)
        print(f"wrote sweep tables under {out}")
        return 0

    ds = _load_data(opts)
    if ds.truth is None:
        raise ValueError("ranking requires a dataset with a hidden target")
    seed = opts["seed"]
    hset = build_hypothesis_set(
        ds.truth.target, opts["L"], opts["d_max"],
        derive_seed(seed, "hypothesis-set"), include_target=opts["include_target"],
    )
    cfg = _score_config(opts)
    rep = rank_report(ds, hset, cfg, worker_count=opts["workers"])
    row = {
        "estimator": opts["estimator"],
        "L": hset.size,
        "pearson_r": rep.pearson_r,
        "target_rank": rep.target_rank,
        "d_top_rank": rep.d_top_rank,
    }
    write_table([row], out / "rank.csv")
    write_jsonl([row], out / "rank_rows.jsonl")
    write_jsonl(
        [
            {
                "index": i,
                "estimator": opts["estimator"],
                "distance": rep.hypothesis_distances[i],
                "score": rep.scores[i],
                "is_target": hset.includes_target_at == i,
            }
            for i in range(hset.size)
        ],
        out / "rank_detail.jsonl",
    )
    _write_manifest(out, opts)
    r_txt = "undefined" if rep.pearson_r is None else f"{rep.pearson_r:.12g}"
    print(f"pearson_r {r_txt}, target_rank {rep.target_rank}, "
          f"d_top_rank {rep.d_top_rank:.12g}")
    return 0


def _cmd_optimize(opts: dict) -> int:
    out = _out_dir(opts)
    ds = _load_data(opts)
    seed = opts["seed"]
    k_e = opts["reduce_responses"] or default_response_k(ds.response_dim)
    k_z = opts["reduce_latents"] or default_latent_k(ds.stimulus_dim)
    pca_e = pca_fit(ds.responses, k_e)
    pca_z = pca_fit(ds.stimuli, k_z)
    save_pca(pca_e, out / "pca_responses.bin")
    save_pca(pca_z, out / "pca_latents.bin")
    cfg = _score_config(opts)
    cma = CmaConfig(
        dim=k_z,
        bounds_lo=-opts["bounds"],
        bounds_hi=opts["bounds"],
        population_size=opts["population"],
        sigma0=opts["sigma0"],
        max_evaluations=opts["budget"],
        seed=derive_seed(seed, "cma"),
    )
    zhat, trace = recover_target(ds, cfg, cma, pca_e, pca_z)
    with open(out / "trace.jsonl", "w", encoding="utf-8") as fh:
        fh.write(trace_to_jsonl(trace))
    summary = trace_summary(trace)
    summary["recovered_point"] = [float(v) for v in zhat.coords]
    if ds.truth is not None:
        summary["recovered_distance"] = float(
            np.linalg.norm(zhat.coords - ds.truth.target.coords))
    with open(out / "summary.json", "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
    with open(out / "zhat.json", "w", encoding="utf-8") as fh:
        json.dump({"coords": [float(v) for v in zhat.coords]}, fh)
    _write_manifest(out, opts)
    dist_txt = ""
    if "recovered_distance" in summary:
        dist_txt = f", distance to target {summary['recovered_distance']:.12g}"
    print(f"best score {trace.best_score:.12g} after {len(trace.evaluations)} "
          f"evaluations{dist_txt}")
    return 0


def _cmd_ablate(opts: dict) -> int:
    out = _out_dir(opts)
    if opts["plan"] is not None and opts["data"] is not None:
        raise ValueError("give either --plan or --data, not both")
    if opts["plan"] is not None:
        plan = load_plan(opts["plan"])
    else:
        data = _require(opts, "data", "--data or --plan")
        raw = _sweep_plan(opts, data)
        if opts["thresholds"] is not None:
            raw["ablation_thresholds"] = opts["thresholds"]
        raw["optimization"] = {"budget": opts["budget"], "bounds": opts["bounds"]}
        plan = plan_from_dict(raw)
    run_plan(plan, out, kinds=("ablation",), ablation_mode=opts["mode"],
             worker_count=opts["workers"])
    _write_manifest(out, opts)
    print(f"wrote ablation tables under {out} (plan {plan.hash})")
    return 0


def _cmd_recover(opts: dict) -> int:
    out = _out_dir(opts)
    ds = _load_data(opts)
    zhat_path = _require(opts, "zhat", "--zhat")
    with open(zhat_path, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    if isinstance(raw, dict):
        coords = raw.get("coords", raw.get("recovered_point", raw.get("best_point")))
    else:
        coords = raw
    if coords is None:
        raise ValueError("zhat file must hold a coordinate list or a summary with one")
    d_hat, metrics = recover_labels(ds, np.asarray(coords, dtype=np.float64))
    rows = []
    for i, v in enumerate(d_hat):
        row = {"index": i, "reconstructed_distance": float(v)}
        if ds.truth is not None:
            row["true_distance"] = float(ds.truth.distances[i])
        rows.append(row)
    write_table(rows, out / "labels.csv")
    with open(out / "label_metrics.json", "w", encoding="utf-8") as fh:
        json.dump(metrics, fh, indent=2, sort_keys=True)
    _write_manifest(out, opts)
    if metrics is None:
        print(f"reconstructed {len(rows)} labels (no hidden truth, rmse omitted)")
    else:
        print(f"reconstructed {len(rows)} labels, rmse {metrics['rmse']:.12g} "
              f"({metrics['rmse_pct_of_range']:.3g}% of range)")
    return 0


def _read_jsonl(path: Path) -> list[dict]:
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                rows.append(json.loads(line))
    return rows


def _cmd_report(opts: dict) -> int:
    inputs = opts["inputs"]
    if not inputs:
        raise ValueError("report needs at least one run directory")
    out = _out_dir(opts)

    rank_rows, detail_rows, sweep_rows, trace_rows, ablation_rows = [], [], [], [], []
    for item in inputs:
        run = Path(item)
        if not run.is_dir():
            raise FileNotFoundError(f"run directory not found: {run}")
        tag = run.name
        if (run / "rank_rows.jsonl").exists():
            rank_rows += [{"run": tag, **r} for r in _read_jsonl(run / "rank_rows.jsonl")]
        if (run / "rank_detail.jsonl").exists():
            detail_rows += [{"run": tag, **r} for r in _read_jsonl(run / "rank_detail.jsonl")]
        if (run / "sweep_rows.jsonl").exists():
            sweep_rows += [{"run": tag, **r} for r in _read_jsonl(run / "sweep_rows.jsonl")]
        if (run / "trace.jsonl").exists():
            best_s, best_d = -np.inf, None
            for rec in _read_jsonl(run / "trace.jsonl"):
                if not rec.get("nonfinite") and rec["score"] > best_s:
                    best_s = rec["score"]
                    if rec.get("distance") is not None:
                        best_d = rec["distance"]
                trace_rows.append({
                    "run": tag,
                    "evaluation": rec["index"],
                    "score": rec["score"],
                    "best_score": None if best_s == -np.inf else best_s,
                    "distance": rec.get("distance"),
                    "best_distance": best_d,
                })
        if (run / "ablation_rows.jsonl").exists():
            ablation_rows += [{"run": tag, **r} for r in _read_jsonl(run / "ablation_rows.jsonl")]

    wrote = []
    if rank_rows:
        table = aggregate(rank_rows, ("estimator",),
                          ("pearson_r", "target_rank", "d_top_rank"))
        write_table(table, out / "table1.csv")
        wrote.append("table1.csv")
    if detail_rows:
        write_table(detail_rows, out / "fig2_score_vs_distance.csv",
                    columns=["run", "estimator", "index", "distance", "score", "is_target"])
        wrote.append("fig2_score_vs_distance.csv")
    if sweep_rows:
        table = aggregate(sweep_rows, ("size", "estimator"),
                          ("pearson_r", "target_rank", "d_top_rank"))
        write_table(table, out / "fig3_metric_vs_size.csv")
        wrote.append("fig3_metric_vs_size.csv")
    if trace_rows:
        write_table(trace_rows, out / "fig5_distance_vs_evaluation.csv",
                    columns=["run", "evaluation", "score", "best_score",
                             "distance", "best_distance"])
        wrote.append("fig5_distance_vs_evaluation.csv")
    if ablation_rows:
        ok = [r for r in ablation_rows if r.get("status") == "ok"]
        if ok:
            keys = ("recovered_distance", "best_score") if ok[0].get("mode") == "optimization" \
                else ("pearson_r", "target_rank", "d_top_rank")
            table = aggregate(ok, ("threshold", "condition", "estimator"), keys)
            write_table(table, out / "ablation_summary.csv")
            wrote.append("ablation_summary.csv")
    if not wrote:
        raise ValueError("no recognized result files under the given run directories")
    _write_manifest(out, opts)
    print(f"wrote {', '.join(wrote)} under {out}")
    return 0


HANDLERS = {
    "generate": _cmd_generate,
    "score": _cmd_score,
    "rank": _cmd_rank,
    "optimize": _cmd_optimize,
    "ablate": _cmd_ablate,
    "recover": _cmd_recover,
    "report": _cmd_report,
}

VALIDATION_ERRORS = (
    ValueError,
    FileNotFoundError,
    IsADirectoryError,
    NotADirectoryError,
    json.JSONDecodeError,
    jsonschema.ValidationError,
)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        opts = _resolve(args)
        return HANDLERS[opts["command"]](opts)
    except SystemExit as exc:  # argparse usage errors already printed
        code = exc.code
        return code if isinstance(code, int) else 2
    except VALIDATION_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"runtime error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
