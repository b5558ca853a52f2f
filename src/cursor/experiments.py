"""Reproduction harness: size sweeps, near-target ablations, label recovery.

A plan is a JSON document validated against PLAN_SCHEMA; every run derives
its per-cell seeds from the plan's master seed and the cell's own identity
(target index, variant index, estimator, condition), so cells are
order-independent and a plan file reproduces its tables bit-exactly.

Replicates follow a targets x variants design: each replicate cell draws its
own hidden target and acquisition run from the shared generator config, so
all cells have the same statistical properties but independent noise.

Each cell returns its table rows, and run_plan stamps and writes them; the
cells run in order through _map_jobs, and every row takes its rank metrics
from rank_metrics.
"""

from __future__ import annotations

import copy
import csv
import json
import hashlib
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np

from .dataset import StimulusResponseDataset, ablate_near_target, load_dataset, subsample
from .estimators import KINDS, MIN_FOLDS, CvConfig, EstimatorSpec, cv_min_rows
from .latent import ACQUISITION_D_MAX, SPACINGS, LatentPoint, as_point
from .optimize import CmaConfig, recover_target
from .pca import default_latent_k, default_response_k, pca_fit
from .ranking import HypothesisSet, RankReport, build_hypothesis_set, rank_report
from .scoring import DENOM_FLOOR, ScoreConfig
from .synth import LINK_KINDS, Link, generate_dataset, make_response_model
from ._util import derive_rng, derive_seed

__all__ = [
    "ABLATION_METRICS",
    "ExperimentPlan",
    "PLAN_SCHEMA",
    "RANK_METRICS",
    "SUMMARY_GROUPS",
    "aggregate",
    "default_size_ladder",
    "draw_dataset",
    "hypothesis_set",
    "load_plan",
    "plan_from_dict",
    "plan_hash",
    "rank_metrics",
    "recover",
    "recover_labels",
    "replicate_datasets",
    "replicate_seeds",
    "response_model",
    "run_ablation",
    "run_plan",
    "run_size_sweep",
    "score_config",
    "write_jsonl",
    "write_table",
]

PLAN_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "dataset": {
            "type": "object",
            "additionalProperties": False,
            "oneOf": [{"required": ["generator"]}, {"required": ["file"]}],
            "properties": {
                "file": {"type": "string"},
                "generator": {
                    "type": "object",
                    "additionalProperties": False,
                    "properties": {
                        "latent_dim": {"type": "integer", "minimum": 1, "default": 32},
                        "response_dim": {"type": "integer", "minimum": 1, "default": 64},
                        "trajectories": {"type": "integer", "minimum": 1, "default": 30},
                        "points": {"type": "integer", "minimum": 1, "default": 100},
                        "k_signal": {"type": "integer", "minimum": 0, "default": 3},
                        "signal_gain": {"type": "number", "minimum": 0, "default": 1.0},
                        "noise_sigma": {"type": "number", "minimum": 0, "default": 1.0},
                        "nuisance_rank": {"type": "integer", "minimum": 0, "default": 8},
                        "nuisance_gain": {"type": "number", "minimum": 0, "default": 1.0},
                        "link": {
                            "type": "object",
                            "additionalProperties": False,
                            "properties": {
                                "kind": {"enum": list(LINK_KINDS), "default": "linear"},
                                "tau": {"type": "number", "exclusiveMinimum": 0, "default": 10.0},
                            },
                        },
                        "d_min": {"type": "number", "minimum": 0, "default": 0.0},
                        "d_max": {"type": "number", "exclusiveMinimum": 0,
                                  "default": ACQUISITION_D_MAX},
                        "spacing": {"enum": list(SPACINGS), "default": "logarithmic"},
                    },
                },
            },
        },
        "estimators": {
            "type": "array",
            "minItems": 1,
            "default": [{"kind": "ols"}],
            "items": {
                "type": "object",
                "additionalProperties": False,
                "required": ["kind"],
                "properties": {
                    "kind": {"enum": list(KINDS)},
                    "ridge_lambda": {"type": "number", "minimum": 0, "default": 0.0},
                    "shuffle_aligned": {"type": "boolean", "default": False},
                    "label": {"type": "string", "minLength": 1},
                },
            },
        },
        "hypothesis_set": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "count": {"type": "integer", "minimum": 2, "default": 60},
                "d_max": {"type": "number", "exclusiveMinimum": 0, "default": ACQUISITION_D_MAX},
                "include_target": {"type": "boolean", "default": True},
            },
        },
        "sizes": {
            "type": ["array", "null"],
            "items": {"type": "integer", "minimum": 1},
            "minItems": 1,
            "uniqueItems": True,
            "default": None,
        },
        "ablation_thresholds": {
            "type": "array",
            "items": {"type": "number", "minimum": 0},
            "minItems": 1,
            "uniqueItems": True,
            "default": [0.0, 2.0, 4.0, 8.0, 12.0],
        },
        "optimization": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "budget": {"type": "integer", "minimum": 1, "default": 1000},
                "bounds": {"type": "number", "exclusiveMinimum": 0, "default": 15.0},
                "population_size": {"type": ["integer", "null"], "minimum": 2, "default": None},
                "sigma0": {"type": ["number", "null"], "exclusiveMinimum": 0, "default": None},
                "reduce_responses": {"type": ["integer", "null"], "minimum": 1,
                                     "default": None},
                "reduce_latents": {"type": ["integer", "null"], "minimum": 1, "default": None},
            },
        },
        "cv": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "n_folds": {"type": "integer", "minimum": MIN_FOLDS, "default": 10},
                "train_fraction": {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1,
                                   "default": 0.9},
            },
        },
        "scoring": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                # Legacy keys, which older plans spell out; such plans still
                # load, keep their hash, and score as they did.
                "n_shuffles": {"const": 1, "default": 1},
                "ratio_mode": {"const": "ratio_of_mean_rmses"},
                "denom_floor": {"const": DENOM_FLOOR},
            },
        },
        "targets": {"type": "integer", "minimum": 1, "default": 5},
        "replicates": {"type": "integer", "minimum": 1, "default": 3},
        "master_seed": {"type": "integer", "minimum": 0, "default": 0},
    },
}


def _with_defaults(schema: dict, value: dict) -> dict:
    """value, an object that schema validates, with schema's defaults filled in.

    A property that value leaves out takes a copy of its "default" annotation
    (objects in an array default completed from the items schema); an object
    property is filled in recursively, so a section left out gets its own
    defaults.  The result shares no object with schema.
    """
    out = {}
    for key, sub in schema["properties"].items():
        if "properties" in sub:
            out[key] = _with_defaults(sub, value.get(key, {}))
        elif key in value:
            out[key] = value[key]
        elif "default" in sub:
            default = copy.deepcopy(sub["default"])
            if "properties" in sub.get("items", {}):
                default = [_with_defaults(sub["items"], item) for item in default]
            out[key] = default
    return out


DEFAULT_PLAN = _with_defaults(PLAN_SCHEMA, {})

# Published size range spanned roughly two orders of magnitude; the default
# ladder keeps the same end-to-end ratio scaled to the synthetic N.
SIZE_LADDER_RATIO = 100.0 / 9234.0
SIZE_LADDER_RUNGS = 6


def plan_hash(resolved: dict) -> str:
    canon = json.dumps(resolved, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:12]


@dataclass(frozen=True, eq=False)
class ExperimentPlan:
    """A validated plan with all defaults filled in."""

    raw: dict

    def __post_init__(self):
        # Imported here, not at the top: it adds about 0.1 s to every process
        # start, and only plans need it.  jsonschema.validate would also check
        # PLAN_SCHEMA against its metaschema on every call, nearly all of its
        # cost; the test suite checks it once instead.
        from jsonschema.exceptions import best_match
        from jsonschema.validators import validator_for

        error = best_match(validator_for(PLAN_SCHEMA)(PLAN_SCHEMA).iter_errors(self.raw))
        if error is not None:
            raise error
        resolved = _with_defaults(PLAN_SCHEMA, self.raw)
        if "file" in resolved["dataset"] and "generator" in resolved["dataset"]:
            # defaults added a generator next to an explicit file source
            resolved["dataset"] = {"file": resolved["dataset"]["file"]}
        object.__setattr__(self, "raw", resolved)
        # jsonschema's minimum lets NaN through: every comparison with it is false
        bad = [t for t in resolved["ablation_thresholds"] if not t >= 0]
        if bad:
            raise ValueError(f"ablation_thresholds must be >= 0, got {bad}")
        entries = self.estimator_entries()
        if len({key for key, _, _ in entries}) != len(entries):
            raise ValueError("estimator labels must be unique")
        ignored = [key for key, spec, _ in entries if spec.kind != "ridge" and spec.ridge_lambda]
        if ignored:
            raise ValueError(f"estimators {ignored} set a ridge_lambda that only ridge reads")

    @property
    def hash(self) -> str:
        return plan_hash(self.raw)

    @property
    def master_seed(self) -> int:
        return self.raw["master_seed"]

    @property
    def targets(self) -> int:
        return self.raw["targets"]

    @property
    def replicates(self) -> int:
        return self.raw["replicates"]

    def estimator_entries(self) -> list[tuple[str, EstimatorSpec, bool]]:
        """(key, spec, shuffle_aligned) per configured estimator."""
        out = []
        for ent in self.raw["estimators"]:
            ent = _with_defaults(PLAN_SCHEMA["properties"]["estimators"]["items"], ent)
            spec = EstimatorSpec(kind=ent["kind"], ridge_lambda=ent["ridge_lambda"])
            shuffled = ent["shuffle_aligned"]
            key = ent.get("label")
            if key is None:
                key = spec.kind
                if spec.kind == "ridge":
                    key += f"-{spec.ridge_lambda:g}"
                if shuffled:
                    key += "-shuffled"
            out.append((key, spec, shuffled))
        return out


def plan_from_dict(raw: dict) -> ExperimentPlan:
    return ExperimentPlan(raw)


def load_plan(path) -> ExperimentPlan:
    with open(path, "r", encoding="utf-8") as fh:
        return plan_from_dict(json.load(fh))


def replicate_seeds(plan: ExperimentPlan, target_idx: int, variant_idx: int,
                    est_key: str | None = None) -> dict:
    """Every derived seed a replicate cell uses, keyed by purpose.

    Seeds depend only on (master_seed, indices, estimator key), never on
    execution order, so permuting the replicate order changes nothing.
    """
    master = plan.master_seed
    seeds = {
        "dataset": derive_seed(master, "acquisition", target_idx, variant_idx),
        "target": derive_seed(master, "target", target_idx),
        "hypothesis_set": derive_seed(master, "hypothesis-set", target_idx, variant_idx),
        "cma": derive_seed(master, "cma", target_idx, variant_idx),
    }
    if est_key is not None:
        seeds["cv"] = derive_seed(master, "cv", target_idx, variant_idx, est_key)
        seeds["perm"] = derive_seed(master, "perm", target_idx, variant_idx, est_key)
    return seeds


def response_model(generator: dict, seed: int):
    """The response model of a plan's "generator" section, drawn from seed."""
    return make_response_model(
        response_dim=generator["response_dim"],
        k_signal=generator["k_signal"],
        signal_gain=generator["signal_gain"],
        noise_sigma=generator["noise_sigma"],
        nuisance_rank=generator["nuisance_rank"],
        nuisance_gain=generator["nuisance_gain"],
        link=Link(kind=generator["link"]["kind"], tau=generator["link"]["tau"]),
        seed=derive_seed(seed, "response-model"),
    )


def draw_dataset(generator: dict, model, target_seeds,
                 master_seed: int) -> StimulusResponseDataset:
    """One hidden target per target seed, then generate_dataset under the
    "generator" section's geometry; one target seed gives hidden truth."""
    targets = [LatentPoint(derive_rng(s, "coords").standard_normal(generator["latent_dim"]))
               for s in target_seeds]
    return generate_dataset(
        targets=targets,
        trajectories_per_target=generator["trajectories"],
        points_per_trajectory=generator["points"],
        model=model,
        master_seed=master_seed,
        d_min=generator["d_min"],
        d_max=generator["d_max"],
        spacing=generator["spacing"],
    )


def replicate_datasets(plan: ExperimentPlan) -> dict:
    """The single-target dataset of every replicate cell, keyed by (target, variant).

    A file source is read once and is every cell's dataset.  A generator
    draws a fresh target per target index and fresh acquisition noise per
    variant index, and every cell shares one response model.
    """
    reps = [(t, v) for t in range(plan.targets) for v in range(plan.replicates)]
    src = plan.raw["dataset"]
    if "file" in src:
        ds = load_dataset(src["file"])
        return {rep: ds for rep in reps}
    gen = src["generator"]
    model = response_model(gen, plan.master_seed)
    seeds = {rep: replicate_seeds(plan, *rep) for rep in reps}
    return {rep: draw_dataset(gen, model, [s["target"]], s["dataset"])
            for rep, s in seeds.items()}


def score_config(cv: dict, spec: EstimatorSpec, shuffle_aligned: bool,
                 cv_seed: int, perm_seed: int) -> ScoreConfig:
    """The ScoreConfig of one cell, from a plan's "cv" section."""
    return ScoreConfig(
        estimator=spec,
        cv=CvConfig(n_folds=cv["n_folds"], train_fraction=cv["train_fraction"], seed=cv_seed),
        perm_seed=perm_seed,
        shuffle_aligned=shuffle_aligned,
    )


def hypothesis_set(section: dict, ds: StimulusResponseDataset, seed: int) -> HypothesisSet:
    """The hypothesis set of a plan's "hypothesis_set" section, drawn from
    seed around ds's hidden target."""
    if ds.truth is None:
        raise ValueError("ranking requires a dataset with a hidden target")
    return build_hypothesis_set(ds.truth.target, section["count"], section["d_max"], seed,
                                include_target=section["include_target"])


# The metrics of one rank_report that sweep and ranking tables summarize.
RANK_METRICS = ("pearson_r", "target_rank", "d_top_rank")


def rank_metrics(report: RankReport | None) -> dict:
    """The RANK_METRICS of report, each None when there is no report."""
    return {m: None if report is None else getattr(report, m) for m in RANK_METRICS}


def default_size_ladder(n: int, n_folds: int) -> list[int]:
    fracs = np.geomspace(SIZE_LADDER_RATIO, 1.0, SIZE_LADDER_RUNGS)
    return sorted({min(n, max(cv_min_rows(n_folds), int(round(n * f)))) for f in fracs})


def _map_jobs(jobs):
    # A named function, not an inline loop: perfbench/tracer.py wraps this
    # name to time each cell (experiments.cells, experiments.cell_s_p50).
    return [job() for job in jobs]


def _sweep_cell(plan: ExperimentPlan, ds: StimulusResponseDataset, t: int, v: int,
                size: int, key: str, spec: EstimatorSpec, shuffled: bool) -> dict:
    """The row of one estimator's ranking of replicate (t, v) at one size."""
    seeds = replicate_seeds(plan, t, v, key)
    if size < ds.n:
        ds = subsample(ds, size, derive_seed(plan.master_seed, "subsample", t, v, size))
    hset = hypothesis_set(plan.raw["hypothesis_set"], ds, seeds["hypothesis_set"])
    cfg = score_config(plan.raw["cv"], spec, shuffled, seeds["cv"], seeds["perm"])
    return {"target": t, "variant": v, "size": size, "estimator": key,
            **rank_metrics(rank_report(ds, hset, cfg))}


def run_size_sweep(plan: ExperimentPlan) -> list[dict]:
    """Rank-metric rows over (size, estimator, replicate) cells.

    At size == N the cell is the plain unablated ranking run with the same
    derived seeds; smaller sizes evaluate a seeded uniform subsample.  A size
    above N, or below cv_min_rows(n_folds) = max(n_folds, 2), the fewest rows
    a cell can cross-validate, is refused before any cell runs.
    """
    n_folds = plan.raw["cv"]["n_folds"]
    need = cv_min_rows(n_folds)
    datasets = replicate_datasets(plan)
    sizes = plan.raw["sizes"]
    jobs = []
    # Cells run only after every replicate's sizes are checked.
    for (t, v), ds in datasets.items():
        cell_sizes = sizes if sizes is not None else default_size_ladder(ds.n, n_folds)
        bad = [s for s in cell_sizes if s > ds.n]
        if bad:
            raise ValueError(f"sizes {bad} exceed dataset size {ds.n}")
        small = [s for s in cell_sizes if s < need]
        if small:
            raise ValueError(f"sizes {small} are below the {need} rows a cell needs")
        for size in cell_sizes:
            for key, spec, shuffled in plan.estimator_entries():
                jobs.append(partial(_sweep_cell, plan, ds, t, v, size, key, spec, shuffled))
    return _map_jobs(jobs)


# The metrics an ablation summary reports, per ablation mode.
ABLATION_METRICS = {
    "ranking": RANK_METRICS,
    "optimization": ("recovered_distance", "best_score"),
}
# The columns that a sweep and an ablation summary group their rows by.
SUMMARY_GROUPS = {"sweep": ("size", "estimator"),
                  "ablation": ("threshold", "condition", "estimator")}


def _pca_ks(optimization: dict, ds: StimulusResponseDataset) -> tuple[int, int]:
    """The response and latent PCA k of an "optimization" section, nulls set by ds's shape."""
    k_e, k_z = optimization["reduce_responses"], optimization["reduce_latents"]
    return (default_response_k(ds.response_dim) if k_e is None else k_e,
            default_latent_k(ds.stimulus_dim) if k_z is None else k_z)


def recover(optimization: dict, ds: StimulusResponseDataset, cfg: ScoreConfig, cma_seed: int):
    """CMA-ES recovery under a plan's "optimization" section.

    Fits the response and latent PCAs on ds, with k from _pca_ks, and
    returns (zhat, trace, pca_e, pca_z).
    """
    k_e, k_z = _pca_ks(optimization, ds)
    pca_e = pca_fit(ds.responses, k_e)
    pca_z = pca_fit(ds.stimuli, k_z)
    cma = CmaConfig(
        dim=k_z,
        bounds_lo=-optimization["bounds"],
        bounds_hi=optimization["bounds"],
        population_size=optimization["population_size"],
        sigma0=optimization["sigma0"],
        max_evaluations=optimization["budget"],
        seed=cma_seed,
    )
    zhat, trace = recover_target(ds, cfg, cma, pca_e, pca_z)
    return zhat, trace, pca_e, pca_z


def _ablation_cells(plan: ExperimentPlan, mode: str, need: int, full: StimulusResponseDataset,
                    t: int, v: int, thr: float, key: str, spec: EstimatorSpec,
                    shuffled: bool) -> list[dict]:
    """The rows of the ablated and the control cell of replicate (t, v) at one
    threshold, or two skipped rows when it leaves fewer than need rows."""
    def row(condition, size, status, report=None, distance=None, best=None, evaluations=None):
        return {"target": t, "variant": v, "threshold": thr, "condition": condition,
                "size": size, "estimator": key, "mode": mode, "status": status,
                **rank_metrics(report), "recovered_distance": distance,
                "best_score": best, "evaluations": evaluations}

    try:
        ablated = ablate_near_target(full, thr)
    except ValueError:  # the threshold removes every row
        ablated = None
    kept = 0 if ablated is None else ablated.n
    if kept < need:
        return [row(cond, kept, "skipped") for cond in ("ablated", "control")]
    control = subsample(full, kept, derive_seed(plan.master_seed, "ablation-control", t, v,
                                                f"{thr:.6g}"))
    seeds = replicate_seeds(plan, t, v, key)
    cfg = score_config(plan.raw["cv"], spec, shuffled, seeds["cv"], seeds["perm"])
    rows = []
    for cond, ds in (("ablated", ablated), ("control", control)):
        if mode == "ranking":
            hset = hypothesis_set(plan.raw["hypothesis_set"], ds, seeds["hypothesis_set"])
            rows.append(row(cond, ds.n, "ok", report=rank_report(ds, hset, cfg)))
        else:
            zhat, trace, _, _ = recover(plan.raw["optimization"], ds, cfg, seeds["cma"])
            dist = float(np.linalg.norm(zhat.coords - full.truth.target.coords))
            rows.append(row(cond, ds.n, "ok", distance=dist, best=trace.best_score,
                            evaluations=len(trace.evaluations)))
    return rows


def run_ablation(plan: ExperimentPlan, mode: str = "ranking") -> list[dict]:
    """Rows of the paired near-target ablation and its size-matched control.

    For each threshold the ablated dataset drops every point closer to the
    hidden target than the threshold; the control uniformly subsamples the
    full dataset down to exactly the ablated size, and both are evaluated
    with identical seeds.  A ranking cell needs at least max(n_folds, 2)
    rows, and an optimization cell also at least the k of the response and
    of the latent PCA.  A full dataset with fewer rows is refused; a
    threshold that leaves fewer is recorded as two skipped rows, whose size
    is the rows left, rather than failing the run.
    """
    if mode not in ABLATION_METRICS:
        raise ValueError("mode must be 'ranking' or 'optimization'")
    datasets = replicate_datasets(plan)
    if any(ds.truth is None for ds in datasets.values()):
        raise ValueError("ablation requires a dataset with hidden truth")
    # the fewest rows that cross-validation (and in optimization mode, both
    # PCAs) can use; every replicate dataset has the same shape
    first = next(iter(datasets.values()))
    need = cv_min_rows(plan.raw["cv"]["n_folds"])
    if mode == "optimization":
        need = max(need, *_pca_ks(plan.raw["optimization"], first))
    if first.n < need:
        raise ValueError(f"ablation needs at least {need} rows, got {first.n}")
    jobs = [partial(_ablation_cells, plan, mode, need, full, t, v, float(thr), key, spec,
                    shuffled)
            for (t, v), full in datasets.items()
            for thr in plan.raw["ablation_thresholds"]
            for key, spec, shuffled in plan.estimator_entries()]
    return [row for pair in _map_jobs(jobs) for row in pair]


def recover_labels(ds: StimulusResponseDataset, zhat) -> tuple[np.ndarray, dict | None]:
    """Reconstruct per-stimulus distance labels from a recovered point.

    Returns the reconstructed distances and, when the dataset has hidden
    truth, their RMSE against the true labels plus that RMSE as a
    percentage of the true distance range.  |d_hat_i - d_i| <= ||zhat - z*||
    for every i, so the RMSE obeys the same bound.
    """
    z = as_point(zhat)
    if z.dim != ds.stimulus_dim:
        raise ValueError(f"dimension mismatch: {z.dim} vs {ds.stimulus_dim}")
    d_hat = np.linalg.norm(ds.stimuli - z.coords, axis=1)
    if ds.truth is None:
        return d_hat, None
    err = d_hat - ds.truth.distances
    rmse = float(np.sqrt(np.mean(err * err)))
    span = float(ds.truth.distances.max() - ds.truth.distances.min())
    return d_hat, {
        "rmse": rmse,
        "distance_range": span,
        "rmse_pct_of_range": (100.0 * rmse / span) if span > 0 else None,
    }


def aggregate(rows: list[dict], group_keys: tuple[str, ...],
              value_keys: tuple[str, ...]) -> list[dict]:
    """Mean and sample std per group, in first-appearance group order.

    None-valued metrics are excluded from that metric's statistics; a group
    with a single value reports std 0.  Every output row carries the group
    size as n.
    """
    if not rows:
        raise ValueError("nothing to aggregate")
    groups: dict[tuple, list[dict]] = {}
    for row in rows:
        groups.setdefault(tuple(row[k] for k in group_keys), []).append(row)
    out = []
    for gkey, members in groups.items():
        summary = dict(zip(group_keys, gkey))
        summary["n"] = len(members)
        for vk in value_keys:
            vals = [float(m[vk]) for m in members if m.get(vk) is not None]
            if not vals:
                summary[f"{vk}_mean"] = None
                summary[f"{vk}_std"] = None
                continue
            summary[f"{vk}_mean"] = float(np.mean(vals))
            summary[f"{vk}_std"] = float(np.std(vals, ddof=1)) if len(vals) > 1 else 0.0
        out.append(summary)
    return out


def _format_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return str(v).lower()
    if isinstance(v, float):
        return f"{v:.12g}"
    return str(v)


def write_table(rows: list[dict], path, columns: list[str] | None = None) -> None:
    """CSV with floats at 12 significant digits; None prints empty."""
    if columns is None:
        columns = list(dict.fromkeys(k for row in rows for k in row))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_format_cell(row.get(c)) for c in columns])


def write_jsonl(records: list[dict], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")


def run_plan(plan: ExperimentPlan, out_dir, kinds: tuple[str, ...] = ("sweep",),
             ablation_mode: str = "ranking") -> dict:
    """Execute the requested plan sections and write tables under out_dir.

    Emits per-cell CSV + JSON-lines detail plus a mean/std summary per
    condition.  Returns {section: list of row dicts}.
    """
    sections = {}  # name -> (rows, summary metrics)
    if "sweep" in kinds:
        sections["sweep"] = (run_size_sweep(plan), RANK_METRICS)
    if "ablation" in kinds:
        sections["ablation"] = run_ablation(plan, ablation_mode), ABLATION_METRICS[ablation_mode]
    # Nothing is written until every section has run, so a plan that a
    # section refuses (sizes above N, say) leaves no plan.json behind.
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "plan.json", "w", encoding="utf-8") as fh:
        json.dump(plan.raw, fh, indent=2, sort_keys=True)
    # every emitted table identifies its plan and seed
    head = {"plan_hash": plan.hash, "master_seed": plan.master_seed}
    results = {}
    for name, (rows, metrics) in sections.items():
        rows = results[name] = [{**head, **row} for row in rows]
        write_table(rows, out_dir / f"{name}.csv")
        write_jsonl(rows, out_dir / f"{name}_rows.jsonl")
        # skipped ablation cells have no metrics to summarize
        ok = [r for r in rows if r.get("status", "ok") == "ok"]
        if ok:
            summary = [{**head, **row} for row in aggregate(ok, SUMMARY_GROUPS[name], metrics)]
            write_table(summary, out_dir / f"{name}_summary.csv")
    return results
