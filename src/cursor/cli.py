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
import sys
from pathlib import Path

import jsonschema
import numpy as np

from .dataset import StimulusResponseDataset, load_dataset, save_dataset
from .estimators import EstimatorSpec
from .optimize import trace_summary, trace_to_jsonl
from .pca import save_pca
from .ranking import build_hypothesis_set, rank_report
from .scoring import ScoreConfig, report_to_json, score
from .experiments import (
    ABLATION_METRICS,
    DEFAULT_PLAN,
    RANK_METRICS,
    aggregate,
    draw_dataset,
    load_plan,
    plan_from_dict,
    recover,
    recover_labels,
    response_model,
    run_plan,
    score_config,
    write_jsonl,
    write_table,
)
from ._util import derive_seed

__all__ = ["main"]

_GENERATOR = DEFAULT_PLAN["dataset"]["generator"]
_ESTIMATOR = DEFAULT_PLAN["estimators"][0]
_HYPOTHESES = DEFAULT_PLAN["hypothesis_set"]
_OPTIMIZATION = DEFAULT_PLAN["optimization"]


def _csv_floats(text: str) -> list[float]:
    return [float(tok) for tok in text.split(",") if tok.strip() != ""]


def _csv_ints(text: str) -> list[int]:
    return [int(tok) for tok in text.split(",") if tok.strip() != ""]


# Every option once: dest -> (flag strings, default, argparse keywords).  A
# positional has no flag strings.
OPTIONS = {
    "seed": (("--seed",), 0, {"type": int, "help": "master seed"}),
    "out": (("-o", "--out"), None, {"help": "output directory"}),
    "format": (("--format",), "csv", {"choices": ["csv", "bin"],
                                      "help": "dataset file format"}),
    "targets": (("--targets",), 1, {"type": int, "help": "number of hidden targets"}),
    "trajectories": (("--trajectories",), 3, {"type": int, "help": "trajectories per target"}),
    "points": (("--points",), _GENERATOR["points"],
               {"type": int, "help": "points per trajectory"}),
    "latent_dim": (("--latent-dim",), _GENERATOR["latent_dim"], {"type": int}),
    "response_dim": (("--response-dim",), _GENERATOR["response_dim"], {"type": int}),
    "k_signal": (("--k-signal",), _GENERATOR["k_signal"], {"type": int}),
    "signal_gain": (("--signal-gain",), _GENERATOR["signal_gain"], {"type": float}),
    "noise_sigma": (("--noise-sigma",), _GENERATOR["noise_sigma"], {"type": float}),
    "nuisance_rank": (("--nuisance-rank",), _GENERATOR["nuisance_rank"], {"type": int}),
    "nuisance_gain": (("--nuisance-gain",), _GENERATOR["nuisance_gain"], {"type": float}),
    "link": (("--link",), _GENERATOR["link"]["kind"], {"choices": ["linear", "saturating"]}),
    "tau": (("--tau",), _GENERATOR["link"]["tau"], {"type": float}),
    "d_min": (("--d-min",), _GENERATOR["d_min"], {"type": float}),
    # generate's largest distance and the hypothesis-set radius; DEFAULT_PLAN
    # gives both the acquisition radius.
    "d_max": (("--d-max",), _HYPOTHESES["d_max"], {"type": float}),
    "spacing": (("--spacing",), _GENERATOR["spacing"], {"choices": ["uniform", "logarithmic"]}),
    "name": (("--name",), "dataset", {"help": "output file stem"}),
    "data": (("--data",), None, {"help": "dataset file"}),
    "hypothesis": (("--hypothesis",), None, {"type": _csv_floats,
                                             "help": "comma-separated latent coordinates"}),
    "hypothesis_file": (("--hypothesis-file",), None,
                        {"help": "JSON file holding the coordinates"}),
    "estimator": (("--estimator",), _ESTIMATOR["kind"],
                  {"choices": ["ols", "ridge", "dummy_mean"]}),
    "ridge_lambda": (("--ridge-lambda",), _ESTIMATOR["ridge_lambda"], {"type": float}),
    "folds": (("--folds",), DEFAULT_PLAN["cv"]["n_folds"], {"type": int}),
    "train_fraction": (("--train-fraction",), DEFAULT_PLAN["cv"]["train_fraction"],
                       {"type": float}),
    "shuffles": (("--shuffles",), DEFAULT_PLAN["scoring"]["n_shuffles"],
                 {"type": int, "help": "number of control permutations averaged per fold"}),
    "shuffle_aligned": (("--shuffle-aligned",), _ESTIMATOR["shuffle_aligned"],
                        {"action": argparse.BooleanOptionalAction,
                         "help": "shuffle both branches (the always-shuffling control)"}),
    "L": (("--L",), _HYPOTHESES["count"], {"type": int, "help": "hypothesis set size"}),
    "include_target": (("--include-target",), _HYPOTHESES["include_target"],
                       {"action": argparse.BooleanOptionalAction}),
    "sizes": (("--sizes",), DEFAULT_PLAN["sizes"],
              {"type": _csv_ints,
               "help": "comma-separated subsample sizes (runs the sweep harness)"}),
    "replicates": (("--replicates",), 1,
                   {"type": int, "help": "seeded replicates per size or threshold"}),
    "budget": (("--budget",), _OPTIMIZATION["budget"],
               {"type": int, "help": "objective evaluation budget"}),
    "bounds": (("--bounds",), _OPTIMIZATION["bounds"],
               {"type": float, "help": "symmetric search bound per reduced coordinate"}),
    "population": (("--population",), _OPTIMIZATION["population_size"], {"type": int}),
    "sigma0": (("--sigma0",), _OPTIMIZATION["sigma0"], {"type": float}),
    "reduce_responses": (("--reduce-responses",), _OPTIMIZATION["reduce_responses"],
                         {"type": int}),
    "reduce_latents": (("--reduce-latents",), _OPTIMIZATION["reduce_latents"], {"type": int}),
    "plan": (("--plan",), None, {"help": "experiment plan JSON"}),
    "thresholds": (("--thresholds",), None,
                   {"type": _csv_floats, "help": "comma-separated ablation distances"}),
    "mode": (("--mode",), "ranking", {"choices": list(ABLATION_METRICS)}),
    "zhat": (("--zhat",), None, {"help": "JSON file with the recovered coordinates"}),
    "inputs": ((), None, {"nargs": "*", "help": "run directories to merge"}),
}

_ESTIMATOR_OPTIONS = ("estimator", "ridge_lambda", "folds", "train_fraction", "shuffles")
_HYPOTHESIS_SET_OPTIONS = ("L", "d_max", "include_target")

# command -> (help, the options it reads); every command also takes --config.
COMMANDS = {
    "generate": ("simulate a stimulus-response dataset", (
        "targets", "trajectories", "points", "latent_dim", "response_dim", "k_signal",
        "signal_gain", "noise_sigma", "nuisance_rank", "nuisance_gain", "link", "tau",
        "d_min", "d_max", "spacing", "name", "seed", "out", "format")),
    "score": ("score one hypothesis against a dataset", (
        "data", "hypothesis", "hypothesis_file", *_ESTIMATOR_OPTIONS, "shuffle_aligned",
        "seed", "out")),
    "rank": ("rank a hypothesis set; --sizes runs a size sweep", (
        "data", *_HYPOTHESIS_SET_OPTIONS, "sizes", "replicates", *_ESTIMATOR_OPTIONS,
        "shuffle_aligned", "seed", "out")),
    "optimize": ("recover the hidden target with CMA-ES", (
        "data", "budget", "bounds", "population", "sigma0", "reduce_responses",
        "reduce_latents", *_ESTIMATOR_OPTIONS, "seed", "out")),
    "ablate": ("near-target ablation vs size-matched control", (
        "plan", "data", "thresholds", "mode", "replicates", *_HYPOTHESIS_SET_OPTIONS,
        "budget", "bounds", *_ESTIMATOR_OPTIONS, "shuffle_aligned", "seed", "out")),
    "recover": ("reconstruct distance labels from a recovered point", ("data", "zhat", "out")),
    "report": ("merge run outputs into figure-ready tables", ("inputs", "out")),
}


def _flag(dest: str) -> str:
    return OPTIONS[dest][0][-1]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cursor",
        description="Self-calibrating target recovery: generate, score, rank, optimize.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (summary, dests) in COMMANDS.items():
        # Unset options stay off the namespace, so _resolve sees only the
        # flags given on the command line.
        p = sub.add_parser(command, help=summary, argument_default=argparse.SUPPRESS)
        for dest in dests:
            flags, default, kwargs = OPTIONS[dest]
            if default is not None:
                help_text = f"{kwargs.get('help', '')} (default {default})".lstrip()
                kwargs = {**kwargs, "help": help_text}
            if flags:
                p.add_argument(*flags, dest=dest, **kwargs)
            else:
                p.add_argument(dest, **kwargs)
        p.add_argument("--config",
                       help="JSON file with option overrides; a previous manifest.json works")
    return parser


def _ignored(opts: dict) -> tuple[str, tuple[str, ...]]:
    """The mode that opts selects, and the options that mode does not read."""
    command = opts["command"]
    if command == "ablate" and opts["plan"] is not None:
        # _cmd_ablate refuses --data beside --plan, from a flag or --config.
        return f"ablate {_flag('plan')}", tuple(
            d for d in COMMANDS["ablate"][1] if d not in ("plan", "data", "mode", "out"))
    if command == "rank" and opts["sizes"] is None:
        return f"rank without {_flag('sizes')}", ("replicates",)
    if command == "score" and opts["hypothesis"] is not None:
        return f"score {_flag('hypothesis')}", ("hypothesis_file",)
    return command, ()


def _resolve(args: argparse.Namespace) -> dict:
    """defaults < --config file < explicit flags.

    An explicit flag that the chosen mode ignores is refused; a --config key
    that the command does not read is ignored, so older manifests replay.
    """
    given = dict(vars(args))
    command = given.pop("command")
    config = {}
    if "config" in given:
        with open(given.pop("config"), "r", encoding="utf-8") as fh:
            config = json.load(fh)
        if not isinstance(config, dict):
            raise ValueError("--config must hold a JSON object")
        if "options" in config and isinstance(config["options"], dict):
            if config.get("subcommand") not in (None, command):
                raise ValueError(
                    f"manifest is for '{config.get('subcommand')}', not '{command}'"
                )
            config = config["options"]
        # Older manifests name the formula, which is now the only one; a
        # replay that asked for another would silently score differently.
        if config.get("ratio_mode", "ratio_of_mean_rmses") != "ratio_of_mean_rmses":
            raise ValueError(f"ratio_mode {config['ratio_mode']!r} is not supported; "
                             "S(h) is the ratio of the mean RMSEs")

    opts = {"command": command}
    for dest in COMMANDS[command][1]:
        opts[dest] = given[dest] if dest in given else config.get(dest, OPTIONS[dest][1])
    mode, ignored = _ignored(opts)
    refused = [_flag(dest) for dest in ignored if dest in given]
    if refused:
        raise ValueError(f"{mode} does not read {', '.join(refused)}")
    if opts.get("seed", 0) < 0:
        raise ValueError("--seed must be nonnegative")
    return opts


def _require(opts: dict, key: str):
    if opts.get(key) is None:
        raise ValueError(f"missing required option {_flag(key)}")
    return opts[key]


def _out_dir(opts: dict) -> Path:
    out = _require(opts, "out")
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _write_manifest(out_dir: Path, opts: dict):
    manifest = {"subcommand": opts["command"],
                "options": {k: v for k, v in opts.items() if k != "command"}}
    with open(out_dir / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)


def _load_data(opts: dict) -> StimulusResponseDataset:
    path = Path(_require(opts, "data"))
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
        "scoring": {"n_shuffles": opts["shuffles"]},
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
    generator = {**opts, "link": {"kind": opts["link"], "tau": opts["tau"]}}
    ds = draw_dataset(
        generator, response_model(generator, seed),
        [derive_seed(seed, "target", i) for i in range(opts["targets"])], seed,
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
    coords, path = opts["hypothesis"], opts["hypothesis_file"]
    if coords is None and path is not None:
        with open(path, "r", encoding="utf-8") as fh:
            coords = json.load(fh)
        if isinstance(coords, dict):
            coords = coords.get("coords")
        if coords is None:
            raise ValueError(f"hypothesis file {path} holds neither a coordinate list "
                             "nor an object with \"coords\"")
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
    data = _require(opts, "data")

    if opts["sizes"] is not None:
        raw = _sweep_plan(opts, data)
        raw["sizes"] = opts["sizes"]
        run_plan(plan_from_dict(raw), out, kinds=("sweep",))
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
    rep = rank_report(ds, hset, cfg)
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
    optimization = {**opts, "population_size": opts["population"]}
    zhat, trace, pca_e, pca_z = recover(optimization, ds, _score_config(opts),
                                        derive_seed(opts["seed"], "cma"))
    save_pca(pca_e, out / "pca_responses.bin")
    save_pca(pca_z, out / "pca_latents.bin")
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
    if (opts["plan"] is None) == (opts["data"] is None):
        raise ValueError(f"give one of {_flag('plan')} and {_flag('data')}")
    out = _out_dir(opts)
    if opts["plan"] is not None:
        plan = load_plan(opts["plan"])
    else:
        raw = _sweep_plan(opts, opts["data"])
        if opts["thresholds"] is not None:
            raw["ablation_thresholds"] = opts["thresholds"]
        raw["optimization"] = {"budget": opts["budget"], "bounds": opts["bounds"]}
        plan = plan_from_dict(raw)
    run_plan(plan, out, kinds=("ablation",), ablation_mode=opts["mode"])
    _write_manifest(out, opts)
    print(f"wrote ablation tables under {out} (plan {plan.hash})")
    return 0


def _cmd_recover(opts: dict) -> int:
    out = _out_dir(opts)
    ds = _load_data(opts)
    zhat_path = _require(opts, "zhat")
    with open(zhat_path, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    if isinstance(raw, dict):
        # summary.json's best_point is in CMA-ES reduced coordinates, not latent ones
        coords = raw.get("coords", raw.get("recovered_point"))
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
        pct = metrics["rmse_pct_of_range"]
        pct_txt = "undefined: zero distance range" if pct is None else f"{pct:.3g}% of range"
        print(f"reconstructed {len(rows)} labels, rmse {metrics['rmse']:.12g} ({pct_txt})")
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
        table = aggregate(rank_rows, ("estimator",), RANK_METRICS)
        write_table(table, out / "table1.csv")
        wrote.append("table1.csv")
    if detail_rows:
        write_table(detail_rows, out / "fig2_score_vs_distance.csv",
                    columns=["run", "estimator", "index", "distance", "score", "is_target"])
        wrote.append("fig2_score_vs_distance.csv")
    if sweep_rows:
        table = aggregate(sweep_rows, ("size", "estimator"), RANK_METRICS)
        write_table(table, out / "fig3_metric_vs_size.csv")
        wrote.append("fig3_metric_vs_size.csv")
    if trace_rows:
        write_table(trace_rows, out / "fig5_distance_vs_evaluation.csv",
                    columns=["run", "evaluation", "score", "best_score",
                             "distance", "best_distance"])
        wrote.append("fig5_distance_vs_evaluation.csv")
    if ablation_rows:
        # each mode is summarized over its own cells with its own metrics
        table = []
        for mode, metrics in ABLATION_METRICS.items():
            ok = [r for r in ablation_rows
                  if r.get("status") == "ok" and r.get("mode") == mode]
            if ok:
                table += aggregate(ok, ("mode", "threshold", "condition", "estimator"), metrics)
        if table:
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
