"""Reproduction harness: size sweeps, near-target ablations, label recovery.

A plan is a JSON document validated against PLAN_SCHEMA; every run derives
its per-cell seeds from the plan's master seed and the cell's own identity
(target index, variant index, estimator, condition), so cells are
order-independent and a plan file reproduces its tables bit-exactly.

Replicates follow a targets x variants design: each replicate cell draws its
own hidden target and acquisition run from the shared generator config, so
all cells have the same statistical properties but independent noise.
"""

from __future__ import annotations

import csv
import json
import hashlib
from dataclasses import dataclass
from pathlib import Path

import jsonschema
import numpy as np

from .dataset import StimulusResponseDataset, ablate_near_target, load_dataset, subsample
from .estimators import MIN_FOLDS, CvConfig, EstimatorSpec
from .latent import ACQUISITION_D_MAX, LatentPoint, as_point
from .optimize import CmaConfig, recover_target
from .pca import default_latent_k, default_response_k, pca_fit
from .ranking import RankReport, build_hypothesis_set, rank_report
from .scoring import DENOM_FLOOR, ScoreConfig
from .synth import Link, generate_dataset, make_response_model
from ._util import derive_rng, derive_seed

__all__ = [
    "ABLATION_METRICS",
    "AblationCell",
    "ExperimentPlan",
    "PLAN_SCHEMA",
    "RANK_METRICS",
    "SweepCell",
    "aggregate",
    "default_size_ladder",
    "draw_dataset",
    "load_plan",
    "plan_from_dict",
    "plan_hash",
    "recover",
    "recover_labels",
    "replicate_dataset",
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
                        "latent_dim": {"type": "integer", "minimum": 1},
                        "response_dim": {"type": "integer", "minimum": 1},
                        "trajectories": {"type": "integer", "minimum": 1},
                        "points": {"type": "integer", "minimum": 1},
                        "k_signal": {"type": "integer", "minimum": 0},
                        "signal_gain": {"type": "number", "minimum": 0},
                        "noise_sigma": {"type": "number", "minimum": 0},
                        "nuisance_rank": {"type": "integer", "minimum": 0},
                        "nuisance_gain": {"type": "number", "minimum": 0},
                        "link": {
                            "type": "object",
                            "additionalProperties": False,
                            "properties": {
                                "kind": {"enum": ["linear", "saturating"]},
                                "tau": {"type": "number", "exclusiveMinimum": 0},
                            },
                        },
                        "d_min": {"type": "number", "minimum": 0},
                        "d_max": {"type": "number", "exclusiveMinimum": 0},
                        "spacing": {"enum": ["uniform", "logarithmic"]},
                    },
                },
            },
        },
        "estimators": {
            "type": "array",
            "minItems": 1,
            "items": {
                "type": "object",
                "additionalProperties": False,
                "required": ["kind"],
                "properties": {
                    "kind": {"enum": ["ols", "ridge", "dummy_mean"]},
                    "ridge_lambda": {"type": "number", "minimum": 0},
                    "shuffle_aligned": {"type": "boolean"},
                    "label": {"type": "string", "minLength": 1},
                },
            },
        },
        "hypothesis_set": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "count": {"type": "integer", "minimum": 2},
                "d_max": {"type": "number", "exclusiveMinimum": 0},
                "include_target": {"type": "boolean"},
            },
        },
        "sizes": {
            "type": ["array", "null"],
            "items": {"type": "integer", "minimum": 1},
            "minItems": 1,
        },
        "ablation_thresholds": {
            "type": "array",
            "items": {"type": "number", "minimum": 0},
            "minItems": 1,
        },
        "optimization": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "budget": {"type": "integer", "minimum": 1},
                "bounds": {"type": "number", "exclusiveMinimum": 0},
                "population_size": {"type": ["integer", "null"], "minimum": 2},
                "sigma0": {"type": ["number", "null"], "exclusiveMinimum": 0},
                "reduce_responses": {"type": ["integer", "null"], "minimum": 1},
                "reduce_latents": {"type": ["integer", "null"], "minimum": 1},
            },
        },
        "cv": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "n_folds": {"type": "integer", "minimum": MIN_FOLDS},
                "train_fraction": {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1},
            },
        },
        "scoring": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "n_shuffles": {"type": "integer", "minimum": 1},
                # Plans written before S(h) had one formula spell these out;
                # they still load, keep their hash, and score as they did.
                "ratio_mode": {"const": "ratio_of_mean_rmses"},
                "denom_floor": {"const": DENOM_FLOOR},
            },
        },
        "targets": {"type": "integer", "minimum": 1},
        "replicates": {"type": "integer", "minimum": 1},
        "master_seed": {"type": "integer", "minimum": 0},
    },
}

DEFAULT_PLAN = {
    "dataset": {
        "generator": {
            "latent_dim": 32,
            "response_dim": 64,
            "trajectories": 30,
            "points": 100,
            "k_signal": 3,
            "signal_gain": 1.0,
            "noise_sigma": 1.0,
            "nuisance_rank": 8,
            "nuisance_gain": 1.0,
            "link": {"kind": "linear", "tau": 10.0},
            "d_min": 0.0,
            "d_max": ACQUISITION_D_MAX,
            "spacing": "logarithmic",
        }
    },
    "estimators": [{"kind": "ols", "ridge_lambda": 0.0, "shuffle_aligned": False}],
    "hypothesis_set": {"count": 60, "d_max": ACQUISITION_D_MAX, "include_target": True},
    "sizes": None,
    "ablation_thresholds": [0.0, 2.0, 4.0, 8.0, 12.0],
    "optimization": {
        "budget": 1000,
        "bounds": 15.0,
        "population_size": None,
        "sigma0": None,
        "reduce_responses": None,
        "reduce_latents": None,
    },
    "cv": {"n_folds": 10, "train_fraction": 0.9},
    "scoring": {"n_shuffles": 1},
    "targets": 5,
    "replicates": 3,
    "master_seed": 0,
}

# Published size range spanned roughly two orders of magnitude; the default
# ladder keeps the same end-to-end ratio scaled to the synthetic N.
SIZE_LADDER_RATIO = 100.0 / 9234.0
SIZE_LADDER_RUNGS = 6


def _merge_defaults(raw: dict, defaults: dict) -> dict:
    out = dict(defaults)
    for key, val in raw.items():
        if isinstance(val, dict) and isinstance(out.get(key), dict):
            out[key] = _merge_defaults(val, out[key])
        else:
            out[key] = val
    return out


def plan_hash(resolved: dict) -> str:
    canon = json.dumps(resolved, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:12]


@dataclass(frozen=True, eq=False)
class ExperimentPlan:
    """A validated plan with all defaults filled in."""

    raw: dict

    def __post_init__(self):
        jsonschema.validate(self.raw, PLAN_SCHEMA)
        resolved = _merge_defaults(self.raw, DEFAULT_PLAN)
        if "file" in resolved["dataset"] and "generator" in resolved["dataset"]:
            # defaults added a generator next to an explicit file source
            resolved["dataset"] = {"file": resolved["dataset"]["file"]}
        object.__setattr__(self, "raw", resolved)
        keys = [key for key, _, _ in self.estimator_entries()]
        if len(set(keys)) != len(keys):
            raise ValueError("estimator labels must be unique")

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
            spec = EstimatorSpec(kind=ent["kind"], ridge_lambda=ent.get("ridge_lambda", 0.0))
            shuffled = ent.get("shuffle_aligned", False)
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


def replicate_dataset(plan: ExperimentPlan, target_idx: int, variant_idx: int,
                      model=None) -> StimulusResponseDataset:
    """The single-target dataset for one replicate cell.

    File-sourced plans return the same dataset for every cell; generator
    plans draw a fresh target per target index and fresh acquisition noise
    per variant index, sharing one response model across all cells.
    """
    src = plan.raw["dataset"]
    if "file" in src:
        return load_dataset(src["file"])
    gen = src["generator"]
    seeds = replicate_seeds(plan, target_idx, variant_idx)
    if model is None:
        model = response_model(gen, plan.master_seed)
    return draw_dataset(gen, model, [seeds["target"]], seeds["dataset"])


def _replicate_indices(plan: ExperimentPlan):
    return [(t, v) for t in range(plan.targets) for v in range(plan.replicates)]


def _replicate_datasets(plan: ExperimentPlan) -> dict:
    """replicate_dataset of every replicate cell, keyed by (target, variant).

    A file source is the same dataset for every cell, so it is read once.
    """
    reps = _replicate_indices(plan)
    src = plan.raw["dataset"]
    if "file" in src:
        ds = load_dataset(src["file"])
        return {rep: ds for rep in reps}
    model = response_model(src["generator"], plan.master_seed)
    return {(t, v): replicate_dataset(plan, t, v, model=model) for t, v in reps}


def score_config(sections: dict, spec: EstimatorSpec, shuffle_aligned: bool,
                 cv_seed: int, perm_seed: int) -> ScoreConfig:
    """The ScoreConfig of one cell, from a plan's "cv" and "scoring" sections."""
    cv = sections["cv"]
    return ScoreConfig(
        estimator=spec,
        cv=CvConfig(n_folds=cv["n_folds"], train_fraction=cv["train_fraction"], seed=cv_seed),
        perm_seed=perm_seed,
        n_shuffles=sections["scoring"]["n_shuffles"],
        shuffle_aligned=shuffle_aligned,
    )


def _hypothesis_set(plan: ExperimentPlan, ds: StimulusResponseDataset, hset_seed: int):
    if ds.truth is None:
        raise ValueError("replicate dataset carries no hidden target")
    hs = plan.raw["hypothesis_set"]
    return build_hypothesis_set(
        ds.truth.target, hs["count"], hs["d_max"], hset_seed,
        include_target=hs["include_target"],
    )


# The metrics of one rank_report that sweep and ranking tables summarize.
RANK_METRICS = ("pearson_r", "target_rank", "d_top_rank")


def default_size_ladder(n: int, n_folds: int) -> list[int]:
    fracs = np.geomspace(SIZE_LADDER_RATIO, 1.0, SIZE_LADDER_RUNGS)
    floor = max(n_folds, 2)
    sizes = sorted({min(n, max(floor, int(round(n * f)))) for f in fracs})
    return sizes


@dataclass(frozen=True, eq=False)
class SweepCell:
    target: int
    variant: int
    size: int
    estimator: str
    report: RankReport

    def row(self) -> dict:
        return {
            "target": self.target,
            "variant": self.variant,
            "size": self.size,
            "estimator": self.estimator,
            "pearson_r": self.report.pearson_r,
            "target_rank": self.report.target_rank,
            "d_top_rank": self.report.d_top_rank,
        }


def _map_jobs(jobs):
    # A named function, not an inline loop: perfbench/tracer.py wraps this
    # name to time each cell (experiments.cells, experiments.cell_s_p50).
    return [job() for job in jobs]


def run_size_sweep(plan: ExperimentPlan) -> list[SweepCell]:
    """Rank-metric table over (size, estimator, replicate) cells.

    At size == N the cell is the plain unablated ranking run with the same
    derived seeds; smaller sizes evaluate a seeded uniform subsample.
    """
    n_folds = plan.raw["cv"]["n_folds"]
    datasets = _replicate_datasets(plan)
    sizes = plan.raw["sizes"]
    jobs = []

    def make_job(t, v, size, key, spec, shuffled):
        def job():
            ds = datasets[(t, v)]
            seeds = replicate_seeds(plan, t, v, key)
            if size < ds.n:
                ds = subsample(ds, size, derive_seed(plan.master_seed, "subsample", t, v, size))
            hset = _hypothesis_set(plan, ds, seeds["hypothesis_set"])
            cfg = score_config(plan.raw, spec, shuffled, seeds["cv"], seeds["perm"])
            return SweepCell(target=t, variant=v, size=size, estimator=key,
                             report=rank_report(ds, hset, cfg))
        return job

    # Jobs run only after every replicate's sizes are checked.
    for (t, v), ds in datasets.items():
        cell_sizes = sizes if sizes is not None else default_size_ladder(ds.n, n_folds)
        bad = [s for s in cell_sizes if s > ds.n]
        if bad:
            raise ValueError(f"sizes {bad} exceed dataset size {ds.n}")
        small = [s for s in cell_sizes if s < n_folds]
        if small:
            raise ValueError(f"sizes {small} are below n_folds={n_folds}")
        for size in cell_sizes:
            for key, spec, shuffled in plan.estimator_entries():
                jobs.append(make_job(t, v, size, key, spec, shuffled))
    return _map_jobs(jobs)


# The metrics an ablation summary reports, per ablation mode.
ABLATION_METRICS = {
    "ranking": RANK_METRICS,
    "optimization": ("recovered_distance", "best_score"),
}


@dataclass(frozen=True, eq=False)
class AblationCell:
    target: int
    variant: int
    threshold: float
    condition: str  # "ablated" or "control"
    size: int
    estimator: str
    mode: str  # "ranking" or "optimization"
    status: str  # "ok" or "skipped"
    report: RankReport | None = None
    recovered_distance: float | None = None
    best_score: float | None = None
    evaluations: int | None = None

    def row(self) -> dict:
        rep = self.report
        return {
            "target": self.target,
            "variant": self.variant,
            "threshold": self.threshold,
            "condition": self.condition,
            "size": self.size,
            "estimator": self.estimator,
            "mode": self.mode,
            "status": self.status,
            "pearson_r": None if rep is None else rep.pearson_r,
            "target_rank": None if rep is None else rep.target_rank,
            "d_top_rank": None if rep is None else rep.d_top_rank,
            "recovered_distance": self.recovered_distance,
            "best_score": self.best_score,
            "evaluations": self.evaluations,
        }


def recover(optimization: dict, ds: StimulusResponseDataset, cfg: ScoreConfig, cma_seed: int):
    """CMA-ES recovery under a plan's "optimization" section.

    Fits the response and latent PCAs on ds (reduce_responses and
    reduce_latents default to default_response_k/default_latent_k) and
    returns (zhat, trace, pca_e, pca_z).
    """
    k_e, k_z = optimization["reduce_responses"], optimization["reduce_latents"]
    if k_e is None:
        k_e = default_response_k(ds.response_dim)
    if k_z is None:
        k_z = default_latent_k(ds.stimulus_dim)
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


def run_ablation(plan: ExperimentPlan, mode: str = "ranking") -> list[AblationCell]:
    """Paired near-target-ablation vs size-matched-control table.

    For each threshold the ablated dataset drops every point closer to the
    hidden target than the threshold; the control uniformly subsamples the
    full dataset down to exactly the ablated size, and both are evaluated
    with identical seeds.  Thresholds that ablate everything are recorded
    as skipped rather than failing the run.
    """
    if mode not in ABLATION_METRICS:
        raise ValueError("mode must be 'ranking' or 'optimization'")
    datasets = _replicate_datasets(plan)
    if any(ds.truth is None for ds in datasets.values()):
        raise ValueError("ablation requires a dataset with hidden truth")

    jobs = []

    def make_job(t, v, thr, key, spec, shuffled):
        def job():
            full = datasets[(t, v)]
            seeds = replicate_seeds(plan, t, v, key)
            try:
                ablated = ablate_near_target(full, thr)
            except ValueError:
                return [AblationCell(target=t, variant=v, threshold=thr, condition=cond,
                                     size=0, estimator=key, mode=mode, status="skipped")
                        for cond in ("ablated", "control")]
            control = subsample(
                full, ablated.n,
                derive_seed(plan.master_seed, "ablation-control", t, v, f"{thr:.6g}"),
            )
            cfg = score_config(plan.raw, spec, shuffled, seeds["cv"], seeds["perm"])
            cells = []
            for cond, ds in (("ablated", ablated), ("control", control)):
                if mode == "ranking":
                    hset = _hypothesis_set(plan, ds, seeds["hypothesis_set"])
                    cells.append(AblationCell(
                        target=t, variant=v, threshold=thr, condition=cond,
                        size=ds.n, estimator=key, mode=mode, status="ok",
                        report=rank_report(ds, hset, cfg),
                    ))
                else:
                    zhat, trace, _, _ = recover(plan.raw["optimization"], ds, cfg, seeds["cma"])
                    dist = float(np.linalg.norm(zhat.coords - full.truth.target.coords))
                    cells.append(AblationCell(
                        target=t, variant=v, threshold=thr, condition=cond,
                        size=ds.n, estimator=key, mode=mode, status="ok",
                        recovered_distance=dist,
                        best_score=trace.best_score,
                        evaluations=len(trace.evaluations),
                    ))
            return cells
        return job

    for t, v in datasets:
        for thr in plan.raw["ablation_thresholds"]:
            for key, spec, shuffled in plan.estimator_entries():
                jobs.append(make_job(t, v, float(thr), key, spec, shuffled))
    out = []
    for pair in _map_jobs(jobs):
        out.extend(pair)
    return out


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


def _stamp_rows(plan: ExperimentPlan, rows: list[dict]) -> list[dict]:
    # every emitted table identifies its plan and seed
    head = {"plan_hash": plan.hash, "master_seed": plan.master_seed}
    return [{**head, **row} for row in rows]


def run_plan(plan: ExperimentPlan, out_dir, kinds: tuple[str, ...] = ("sweep",),
             ablation_mode: str = "ranking") -> dict:
    """Execute the requested plan sections and write tables under out_dir.

    Emits per-cell CSV + JSON-lines detail plus a mean/std summary per
    condition.  Returns {section: list of row dicts}.
    """
    sweep = run_size_sweep(plan) if "sweep" in kinds else None
    ablation = run_ablation(plan, mode=ablation_mode) if "ablation" in kinds else None
    # Nothing is written until every section has run, so a plan that a
    # section refuses (sizes above N, say) leaves no plan.json behind.
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "plan.json", "w", encoding="utf-8") as fh:
        json.dump(plan.raw, fh, indent=2, sort_keys=True)
    results = {}
    if sweep is not None:
        rows = _stamp_rows(plan, [c.row() for c in sweep])
        write_table(rows, out_dir / "sweep.csv")
        write_jsonl(rows, out_dir / "sweep_rows.jsonl")
        summary = aggregate(rows, ("size", "estimator"), RANK_METRICS)
        write_table(_stamp_rows(plan, summary), out_dir / "sweep_summary.csv")
        results["sweep"] = rows
    if ablation is not None:
        rows = _stamp_rows(plan, [c.row() for c in ablation])
        write_table(rows, out_dir / "ablation.csv")
        write_jsonl(rows, out_dir / "ablation_rows.jsonl")
        ok = [r for r in rows if r["status"] == "ok"]
        if ok:
            summary = aggregate(ok, ("threshold", "condition", "estimator"),
                                ABLATION_METRICS[ablation_mode])
            write_table(_stamp_rows(plan, summary), out_dir / "ablation_summary.csv")
        results["ablation"] = rows
    return results
