"""Batch command-line front end.

Subcommands: generate, score, rank, optimize, ablate, recover, report.
main resolves the options, makes the output directory, runs the handler,
writes manifest.json (the fully resolved options) and prints the one line the
handler returns.  A run replays with --config manifest.json (explicit flags
still win).  Results print with 12 significant digits in CSV; binary outputs
are bit-reproducible from the manifest.

Exit codes: 0 success, 1 runtime failure, 2 usage or validation error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

# Thread variables that BLAS and OpenMP builds read; the manifest records the set ones.
_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "GOTO_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

# BLAS reads its thread count once, when numpy loads.  Every matrix cursor
# multiplies is small (De columns, a few dozen cells, ten hypotheses), so a
# second thread buys no wall time and burns CPU: run one unless the user set
# a thread variable.  OpenBLAS, MKL and BLIS all fall back to OMP_NUM_THREADS.
if "numpy" not in sys.modules and not any(v in os.environ for v in _THREAD_VARS):
    os.environ["OMP_NUM_THREADS"] = "1"

import numpy as np  # noqa: E402  (after the thread choice above)

from .dataset import StimulusResponseDataset, load_dataset, save_dataset
from .estimators import KINDS, EstimatorSpec
from .latent import SPACINGS
from .optimize import OptimizationTrace, trace_summary, trace_to_jsonl
from .pca import save_pca
from .ranking import rank_report
from .scoring import ScoreConfig, report_to_json, score
from .synth import LINK_KINDS
from .experiments import (
    ABLATION_METRICS,
    DEFAULT_PLAN,
    RANK_METRICS,
    SUMMARY_GROUPS,
    aggregate,
    draw_dataset,
    hypothesis_set,
    load_plan,
    plan_from_dict,
    rank_metrics,
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
    "link": (("--link",), _GENERATOR["link"]["kind"], {"choices": LINK_KINDS}),
    "tau": (("--tau",), _GENERATOR["link"]["tau"], {"type": float}),
    "d_min": (("--d-min",), _GENERATOR["d_min"], {"type": float}),
    # generate's largest distance and the hypothesis-set radius; DEFAULT_PLAN
    # gives both the acquisition radius.
    "d_max": (("--d-max",), _HYPOTHESES["d_max"], {"type": float}),
    "spacing": (("--spacing",), _GENERATOR["spacing"], {"choices": SPACINGS}),
    "name": (("--name",), "dataset", {"help": "output file stem"}),
    "data": (("--data",), None, {"help": "dataset file"}),
    "hypothesis": (("--hypothesis",), None, {"type": _csv_floats,
                                             "help": "comma-separated latent coordinates"}),
    "hypothesis_file": (("--hypothesis-file",), None,
                        {"help": "JSON file holding the coordinates"}),
    "estimator": (("--estimator",), _ESTIMATOR["kind"], {"choices": KINDS}),
    "ridge_lambda": (("--ridge-lambda",), _ESTIMATOR["ridge_lambda"], {"type": float}),
    "folds": (("--folds",), DEFAULT_PLAN["cv"]["n_folds"], {"type": int}),
    "train_fraction": (("--train-fraction",), DEFAULT_PLAN["cv"]["train_fraction"],
                       {"type": float}),
    "shuffles": (("--shuffles",), 1,
                 {"type": int,
                  "help": "control permutations in the shuffled RMSE; only 1 is accepted"}),
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


# The JSON types of a --config value, by its option's type (exact types: a
# bool is no int), and the item type of an option that takes a list.
_JSON_TYPES = {int: (int,), float: (int, float), bool: (bool,), str: (str,)}
_LIST_ITEMS = {_csv_ints: int, _csv_floats: float}


def _check_config(dest: str, value) -> None:
    """Refuse a --config value for dest that the option's flag could not give.

    The type, choices and boolean action come from OPTIONS (whose only action
    is BooleanOptionalAction); an int passes for a float, and null passes
    where the option's default is null.
    """
    _, default, kwargs = OPTIONS[dest]
    kind = bool if "action" in kwargs else kwargs.get("type", str)
    if kind in _LIST_ITEMS or "nargs" in kwargs:
        item = _LIST_ITEMS.get(kind, str)
        ok = type(value) is list and all(type(v) in _JSON_TYPES[item] for v in value)
        expected = f"a list of {item.__name__}"
    else:
        ok = type(value) in _JSON_TYPES[kind] and value in kwargs.get("choices", [value])
        expected = (f"one of {', '.join(kwargs['choices'])}" if "choices" in kwargs
                    else f"of type {kind.__name__}")
    if not ok and not (value is None and default is None):
        raise ValueError(f"--config key {dest!r}: {value!r} is not {expected}")


def _ignored(opts: dict) -> list[tuple[str, tuple[str, ...]]]:
    """Each mode that opts selects, with the options that mode does not read."""
    command = opts["command"]
    if command == "ablate" and opts["plan"] is not None:
        # _cmd_ablate refuses --data beside --plan, from a flag or --config.
        return [(f"ablate {_flag('plan')}", tuple(
            d for d in COMMANDS["ablate"][1] if d not in ("plan", "data", "mode", "out")))]
    modes = []
    if command == "rank" and opts["sizes"] is None:
        modes.append((f"rank without {_flag('sizes')}", ("replicates",)))
    if command == "score" and opts["hypothesis"] is not None:
        modes.append((f"score {_flag('hypothesis')}", ("hypothesis_file",)))
    if opts.get("estimator") not in (None, "ridge"):
        modes.append((f"{command} {_flag('estimator')} {opts['estimator']}", ("ridge_lambda",)))
    if opts.get("link") not in (None, "saturating"):
        modes.append((f"{command} {_flag('link')} {opts['link']}", ("tau",)))
    return modes


def _resolve(args: argparse.Namespace) -> dict:
    """defaults < --config file < explicit flags.

    An explicit flag that the chosen mode ignores is refused; a --config key
    that the command does not read is ignored, so older manifests replay.  A
    --config value is checked as its flag's would be (_check_config).
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

    opts = {"command": command}
    for dest in COMMANDS[command][1]:
        opts[dest] = given[dest] if dest in given else config.get(dest, OPTIONS[dest][1])
        if dest in config and dest not in given:
            _check_config(dest, config[dest])
    # Older manifests name the formula and the number of control permutations;
    # S(h) has one of each, and a replay asking for another would score differently.
    if config.get("ratio_mode", "ratio_of_mean_rmses") != "ratio_of_mean_rmses":
        raise ValueError(f"ratio_mode {config['ratio_mode']!r} is not supported; "
                         "S(h) is the ratio of the mean RMSEs")
    if opts.get("shuffles", 1) != 1:
        raise ValueError(f"{_flag('shuffles')} {opts['shuffles']} is not supported; "
                         "S(h) uses one control permutation")
    for mode, ignored in _ignored(opts):
        refused = [_flag(dest) for dest in ignored if dest in given]
        if refused:
            raise ValueError(f"{mode} does not read {', '.join(refused)}")
    if opts.get("seed", 0) < 0:
        raise ValueError("--seed must be nonnegative")
    if command == "ablate" and (opts["plan"] is None) == (opts["data"] is None):
        raise ValueError(f"give one of {_flag('plan')} and {_flag('data')}")
    if command == "report" and not opts["inputs"]:
        raise ValueError("report needs at least one run directory")
    return opts


def _require(opts: dict, key: str):
    if opts.get(key) is None:
        raise ValueError(f"missing required option {_flag(key)}")
    return opts[key]


def _environment() -> dict:
    """What a replay's bits depend on besides the options: LAPACK rounds per build."""
    try:
        blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    except TypeError:  # numpy < 1.26 only prints its config
        blas = {}
    return {
        "python": ".".join(map(str, sys.version_info[:3])),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "thread_vars": {k: os.environ[k] for k in _THREAD_VARS if k in os.environ},
        "cpu_count": os.cpu_count(),
    }


def _write_manifest(out_dir: Path, opts: dict):
    manifest = {"subcommand": opts["command"],
                "options": {k: v for k, v in opts.items() if k != "command"},
                "environment": _environment()}
    with open(out_dir / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)


def _load_data(opts: dict) -> StimulusResponseDataset:
    path = Path(_require(opts, "data"))
    if not path.exists():
        raise FileNotFoundError(f"dataset not found: {path}")
    return load_dataset(path)


def _read_coords(path, keys: tuple[str, ...]) -> list:
    """The coordinates in a JSON file: a list, or the first of keys in an object."""
    with open(path, "r", encoding="utf-8") as fh:
        coords = json.load(fh)
    if isinstance(coords, dict):
        coords = next((coords[k] for k in keys if k in coords), None)
    if coords is None:
        raise ValueError(f"coordinate file {path} holds neither a coordinate list nor an "
                         f"object with {' or '.join(map(json.dumps, keys))}")
    return coords


def _cv_section(opts: dict) -> dict:
    return {"n_folds": opts["folds"], "train_fraction": opts["train_fraction"]}


def _hypothesis_section(opts: dict) -> dict:
    return {"count": opts["L"], "d_max": opts["d_max"], "include_target": opts["include_target"]}


def _score_config(opts: dict) -> ScoreConfig:
    seed = opts["seed"]
    return score_config(
        _cv_section(opts),
        EstimatorSpec(kind=opts["estimator"], ridge_lambda=opts["ridge_lambda"]),
        bool(opts.get("shuffle_aligned", False)),
        derive_seed(seed, "cv"),
        derive_seed(seed, "perm"),
    )


def _cmd_generate(opts: dict, out: Path) -> str:
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
    return (f"wrote {path} (n={ds.n}, stimulus_dim={ds.stimulus_dim}, "
            f"response_dim={ds.response_dim}, truth={'yes' if ds.truth else 'no'})")


def _cmd_score(opts: dict, out: Path) -> str:
    ds = _load_data(opts)
    coords = opts["hypothesis"]
    if coords is None and opts["hypothesis_file"] is not None:
        coords = _read_coords(opts["hypothesis_file"], ("coords",))
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
    degenerate = ("; degenerate distances: equal within rounding, so S(h) is not "
                  "meaningful" if rep.degenerate_distances else "")
    return (f"score {rep.score:.12g} (aligned rmse {rep.rmse_aligned:.12g}, "
            f"shuffled rmse {rep.rmse_shuffled:.12g}{degenerate})")


def _sweep_plan(opts: dict, data: str) -> dict:
    return {
        "dataset": {"file": data},
        "estimators": [{
            "kind": opts["estimator"],
            # a plan refuses a nonzero λ on another kind; a --config λ is ignored there
            "ridge_lambda": opts["ridge_lambda"] if opts["estimator"] == "ridge" else 0.0,
            "shuffle_aligned": bool(opts.get("shuffle_aligned", False)),
        }],
        "cv": _cv_section(opts),
        "hypothesis_set": _hypothesis_section(opts),
        "targets": 1,
        "replicates": opts["replicates"],
        "master_seed": opts["seed"],
    }


def _cmd_rank(opts: dict, out: Path) -> str:
    data = _require(opts, "data")

    if opts["sizes"] is not None:
        raw = _sweep_plan(opts, data)
        raw["sizes"] = opts["sizes"]
        run_plan(plan_from_dict(raw), out, kinds=("sweep",))
        return f"wrote sweep tables under {out}"

    ds = _load_data(opts)
    hset = hypothesis_set(_hypothesis_section(opts), ds,
                          derive_seed(opts["seed"], "hypothesis-set"))
    rep = rank_report(ds, hset, _score_config(opts))
    row = {
        "estimator": opts["estimator"],
        "L": hset.size,
        **rank_metrics(rep),
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
                "degenerate_distances": rep.degenerate_distances[i],
            }
            for i in range(hset.size)
        ],
        out / "rank_detail.jsonl",
    )
    r_txt = "undefined" if rep.pearson_r is None else f"{rep.pearson_r:.12g}"
    flagged = sum(rep.degenerate_distances)
    degenerate = (f"; {flagged} of {hset.size} hypotheses have degenerate distances: equal "
                  "within rounding, so their S(h) is not meaningful" if flagged else "")
    return (f"pearson_r {r_txt}, target_rank {rep.target_rank}, "
            f"d_top_rank {rep.d_top_rank:.12g}{degenerate}")


def _cmd_optimize(opts: dict, out: Path) -> str:
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
    dist_txt = ""
    if "recovered_distance" in summary:
        dist_txt = f", distance to target {summary['recovered_distance']:.12g}"
    return (f"best score {trace.best_score:.12g} after {len(trace.evaluations)} "
            f"evaluations{dist_txt}")


def _cmd_ablate(opts: dict, out: Path) -> str:
    if opts["plan"] is not None:
        plan = load_plan(opts["plan"])
    else:
        raw = _sweep_plan(opts, opts["data"])
        if opts["thresholds"] is not None:
            raw["ablation_thresholds"] = opts["thresholds"]
        raw["optimization"] = {"budget": opts["budget"], "bounds": opts["bounds"]}
        plan = plan_from_dict(raw)
    run_plan(plan, out, kinds=("ablation",), ablation_mode=opts["mode"])
    return f"wrote ablation tables under {out} (plan {plan.hash})"


def _cmd_recover(opts: dict, out: Path) -> str:
    ds = _load_data(opts)
    # summary.json's best_point is in CMA-ES reduced coordinates, not latent ones
    coords = _read_coords(_require(opts, "zhat"), ("coords", "recovered_point"))
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
    if metrics is None:
        return f"reconstructed {len(rows)} labels (no hidden truth, rmse omitted)"
    pct = metrics["rmse_pct_of_range"]
    pct_txt = "undefined: zero distance range" if pct is None else f"{pct:.3g}% of range"
    return f"reconstructed {len(rows)} labels, rmse {metrics['rmse']:.12g} ({pct_txt})"


# The JSON-lines logs that report merges, each written by the command that owns its rows.
_RUN_LOGS = ("rank_rows", "rank_detail", "sweep_rows", "trace", "ablation_rows")


def _read_jsonl(path: Path) -> list[dict]:
    with open(path, "r", encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _cmd_report(opts: dict, out: Path) -> str:
    logs = {name: [] for name in _RUN_LOGS}  # name -> one list of rows per run
    for item in opts["inputs"]:
        run = Path(item)
        if not run.is_dir():
            raise FileNotFoundError(f"run directory not found: {run}")
        for name, runs in logs.items():
            if (run / f"{name}.jsonl").exists():
                runs.append([{"run": run.name, **r} for r in _read_jsonl(run / f"{name}.jsonl")])
    rows = {name: [r for run in runs for r in run] for name, runs in logs.items()}

    tables = {}  # file name -> (rows, columns, or None for every key in row order)
    if rows["rank_rows"]:
        tables["table1.csv"] = aggregate(rows["rank_rows"], ("estimator",), RANK_METRICS), None
    if rows["rank_detail"]:
        tables["fig2_score_vs_distance.csv"] = rows["rank_detail"], [
            "run", "estimator", "index", "distance", "score", "is_target"]
    if rows["sweep_rows"]:
        tables["fig3_metric_vs_size.csv"] = aggregate(
            rows["sweep_rows"], SUMMARY_GROUPS["sweep"], RANK_METRICS), None
    # best-so-far columns replay each trace through the rule that wrote its summary.json
    fig5 = []
    for run in logs["trace"]:
        trace = OptimizationTrace()
        for rec in run:
            trace.record(rec["point"], rec["score"], rec["distance"])
            fig5.append({**rec, "evaluation": rec["index"], "best_distance": trace.best_distance,
                         "best_score": None if trace.best_point is None else trace.best_score})
    if fig5:
        tables["fig5_distance_vs_evaluation.csv"] = fig5, [
            "run", "evaluation", "score", "best_score", "distance", "best_distance"]
    # each mode is summarized over its own cells with its own metrics
    summary = []
    for mode, metrics in ABLATION_METRICS.items():
        ok = [r for r in rows["ablation_rows"]
              if r.get("status") == "ok" and r.get("mode") == mode]
        if ok:
            summary += aggregate(ok, ("mode", *SUMMARY_GROUPS["ablation"]), metrics)
    if summary:
        tables["ablation_summary.csv"] = summary, None
    if not tables:
        raise ValueError("no recognized result files under the given run directories")
    for name, (table, columns) in tables.items():
        write_table(table, out / name, columns=columns)
    return f"wrote {', '.join(tables)} under {out}"


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
)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        opts = _resolve(args)
        out = Path(_require(opts, "out"))
        made = [p for p in (out, *out.parents) if not p.exists()]  # deepest first
        out.mkdir(parents=True, exist_ok=True)
        try:
            line = HANDLERS[opts["command"]](opts, out)
        except Exception:
            # A refused or failed command leaves no directory it made and left empty.
            for path in made:
                if any(path.iterdir()):
                    break
                path.rmdir()
            raise
        _write_manifest(out, opts)
        print(line)
        return 0
    except SystemExit as exc:  # argparse usage errors already printed
        code = exc.code
        return code if isinstance(code, int) else 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        # jsonschema is loaded only when a plan is validated, so a plan's
        # ValidationError is looked up only once the module is there.
        schema = sys.modules.get("jsonschema")
        if schema is not None and isinstance(exc, schema.ValidationError):
            exc = ValueError(f"plan {exc.json_path}: {exc.message}")
        if isinstance(exc, VALIDATION_ERRORS):
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(f"runtime error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
