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
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import jsonschema
import numpy as np

from .dataset import StimulusResponseDataset, ablate_near_target, load_dataset, subsample
from .estimators import CvConfig, EstimatorSpec
from .latent import ACQUISITION_D_MAX, LatentPoint, as_point
from .optimize import CmaConfig, recover_target
from .pca import default_latent_k, default_response_k, pca_fit
from .ranking import RankReport, build_hypothesis_set, rank_report
from .scoring import ScoreConfig
from .synth import Link, generate_dataset, make_response_model
from ._util import derive_rng, derive_seed

__all__ = [
    "AblationCell",
    "ExperimentPlan",
    "PLAN_SCHEMA",
    "SweepCell",
    "aggregate",
    "default_size_ladder",
    "load_plan",
    "plan_from_dict",
    "plan_hash",
    "recover_labels",
    "replicate_dataset",
    "replicate_seeds",
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
                "n_folds": {"type": "integer", "minimum": 2},
                "train_fraction": {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1},
            },
        },
        "scoring": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "n_shuffles": {"type": "integer", "minimum": 1},
                "ratio_mode": {"enum": ["ratio_of_mean_rmses", "mean_of_fold_ratios"]},
                "denom_floor": {"type": "number", "exclusiveMinimum": 0},
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
    "scoring": {"n_shuffles": 1, "ratio_mode": "ratio_of_mean_rmses", "denom_floor": 1e-12},
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
        if len({k for k, _, _ in out}) != len(out):
            raise ValueError("estimator labels must be unique")
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


def _generator_model(plan: ExperimentPlan):
    gen = plan.raw["dataset"]["generator"]
    link = Link(kind=gen["link"]["kind"], tau=gen["link"]["tau"])
    return make_response_model(
        response_dim=gen["response_dim"],
        k_signal=gen["k_signal"],
        signal_gain=gen["signal_gain"],
        noise_sigma=gen["noise_sigma"],
        nuisance_rank=gen["nuisance_rank"],
        nuisance_gain=gen["nuisance_gain"],
        link=link,
        seed=derive_seed(plan.master_seed, "response-model"),
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
    target = derive_rng(seeds["target"], "coords").standard_normal(gen["latent_dim"])
    return generate_dataset(
        targets=[LatentPoint(target)],
        trajectories_per_target=gen["trajectories"],
        points_per_trajectory=gen["points"],
        model=model if model is not None else _generator_model(plan),
        master_seed=seeds["dataset"],
        d_min=gen["d_min"],
        d_max=gen["d_max"],
        spacing=gen["spacing"],
    )


def score_config(sections: dict, spec: EstimatorSpec, shuffle_aligned: bool,
                 cv_seed: int, perm_seed: int) -> ScoreConfig:
    """The ScoreConfig of one cell, from a plan's "cv" and "scoring" sections."""
    cv = sections["cv"]
    sc = sections["scoring"]
    return ScoreConfig(
        estimator=spec,
        cv=CvConfig(n_folds=cv["n_folds"], train_fraction=cv["train_fraction"], seed=cv_seed),
        perm_seed=perm_seed,
        denom_floor=sc["denom_floor"],
        ratio_mode=sc["ratio_mode"],
        n_shuffles=sc["n_shuffles"],
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


def default_size_ladder(n: int, n_folds: int, rungs: int = SIZE_LADDER_RUNGS) -> list[int]:
    fracs = np.geomspace(SIZE_LADDER_RATIO, 1.0, rungs)
    floor = max(n_folds, 2)
    sizes = sorted({min(n, max(floor, int(round(n * f)))) for f in fracs})
    return sizes


@dataclass(frozen=True, eq=False)
class SweepCell:
    target: int
    variant: int
    size: int
    estimator: str
    seeds: dict
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


def _replicate_indices(plan: ExperimentPlan):
    return [(t, v) for t in range(plan.targets) for v in range(plan.replicates)]


def _map_jobs(jobs, worker_count: int):
    if worker_count <= 1:
        return [job() for job in jobs]
    with ThreadPoolExecutor(max_workers=worker_count) as pool:
        futures = [pool.submit(job) for job in jobs]
        return [f.result() for f in futures]


def run_size_sweep(plan: ExperimentPlan, worker_count: int = 1) -> list[SweepCell]:
    """Rank-metric table over (size, estimator, replicate) cells.

    At size == N the cell is the plain unablated ranking run with the same
    derived seeds; smaller sizes evaluate a seeded uniform subsample.
    """
    n_folds = plan.raw["cv"]["n_folds"]
    reps = _replicate_indices(plan)
    datasets = {}
    model = None
    if "generator" in plan.raw["dataset"]:
        model = _generator_model(plan)
    for t, v in reps:
        datasets[(t, v)] = replicate_dataset(plan, t, v, model=model)

    sizes = plan.raw["sizes"]
    for (t, v), ds in datasets.items():
        cell_sizes = sizes if sizes is not None else default_size_ladder(ds.n, n_folds)
        bad = [s for s in cell_sizes if s > ds.n]
        if bad:
            raise ValueError(f"sizes {bad} exceed dataset size {ds.n}")
        small = [s for s in cell_sizes if s < n_folds]
        if small:
            raise ValueError(f"sizes {small} are below n_folds={n_folds}")

    jobs = []

    def make_job(t, v, size, key, spec, shuffled):
        def job():
            ds = datasets[(t, v)]
            seeds = replicate_seeds(plan, t, v, key)
            if size < ds.n:
                ds = subsample(ds, size, derive_seed(plan.master_seed, "subsample", t, v, size))
            hset = _hypothesis_set(plan, ds, seeds["hypothesis_set"])
            cfg = score_config(plan.raw, spec, shuffled, seeds["cv"], seeds["perm"])
            rep = rank_report(ds, hset, cfg, true_target=ds.truth.target)
            return SweepCell(target=t, variant=v, size=size, estimator=key,
                             seeds=seeds, report=rep)
        return job

    for t, v in reps:
        ds_n = datasets[(t, v)].n
        cell_sizes = sizes if sizes is not None else default_size_ladder(ds_n, n_folds)
        for size in cell_sizes:
            for key, spec, shuffled in plan.estimator_entries():
                jobs.append(make_job(t, v, size, key, spec, shuffled))
    return _map_jobs(jobs, worker_count)


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
    seeds: dict
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


def _recover_on(plan: ExperimentPlan, ds: StimulusResponseDataset, cfg: ScoreConfig,
                cma_seed: int):
    opt = plan.raw["optimization"]
    k_e = opt["reduce_responses"] or default_response_k(ds.response_dim)
    k_z = opt["reduce_latents"] or default_latent_k(ds.stimulus_dim)
    pca_e = pca_fit(ds.responses, k_e)
    pca_z = pca_fit(ds.stimuli, k_z)
    cma = CmaConfig(
        dim=k_z,
        bounds_lo=-opt["bounds"],
        bounds_hi=opt["bounds"],
        population_size=opt["population_size"],
        sigma0=opt["sigma0"],
        max_evaluations=opt["budget"],
        seed=cma_seed,
    )
    return recover_target(ds, cfg, cma, pca_e, pca_z)


def run_ablation(plan: ExperimentPlan, mode: str = "ranking",
                 worker_count: int = 1) -> list[AblationCell]:
    """Paired near-target-ablation vs size-matched-control table.

    For each threshold the ablated dataset drops every point closer to the
    hidden target than the threshold; the control uniformly subsamples the
    full dataset down to exactly the ablated size, and both are evaluated
    with identical seeds.  Thresholds that ablate everything are recorded
    as skipped rather than failing the run.
    """
    if mode not in ("ranking", "optimization"):
        raise ValueError("mode must be 'ranking' or 'optimization'")
    reps = _replicate_indices(plan)
    model = None
    if "generator" in plan.raw["dataset"]:
        model = _generator_model(plan)
    datasets = {}
    for t, v in reps:
        ds = replicate_dataset(plan, t, v, model=model)
        if ds.truth is None:
            raise ValueError("ablation requires a dataset with hidden truth")
        datasets[(t, v)] = ds

    jobs = []

    def make_job(t, v, thr, key, spec, shuffled):
        def job():
            full = datasets[(t, v)]
            seeds = replicate_seeds(plan, t, v, key)
            try:
                ablated = ablate_near_target(full, thr)
            except ValueError:
                skipped = dict(seeds)
                cells = []
                for cond in ("ablated", "control"):
                    cells.append(AblationCell(
                        target=t, variant=v, threshold=thr, condition=cond,
                        size=0, estimator=key, mode=mode, status="skipped",
                        seeds=skipped,
                    ))
                return cells
            control = subsample(
                full, ablated.n,
                derive_seed(plan.master_seed, "ablation-control", t, v, f"{thr:.6g}"),
            )
            cfg = score_config(plan.raw, spec, shuffled, seeds["cv"], seeds["perm"])
            cells = []
            for cond, ds in (("ablated", ablated), ("control", control)):
                if mode == "ranking":
                    hset = _hypothesis_set(plan, ds, seeds["hypothesis_set"])
                    rep = rank_report(ds, hset, cfg, true_target=ds.truth.target)
                    cells.append(AblationCell(
                        target=t, variant=v, threshold=thr, condition=cond,
                        size=ds.n, estimator=key, mode=mode, status="ok",
                        seeds=seeds, report=rep,
                    ))
                else:
                    zhat, trace = _recover_on(plan, ds, cfg, seeds["cma"])
                    dist = float(np.linalg.norm(zhat.coords - full.truth.target.coords))
                    cells.append(AblationCell(
                        target=t, variant=v, threshold=thr, condition=cond,
                        size=ds.n, estimator=key, mode=mode, status="ok",
                        seeds=seeds, recovered_distance=dist,
                        best_score=trace.best_score,
                        evaluations=len(trace.evaluations),
                    ))
            return cells
        return job

    for t, v in reps:
        for thr in plan.raw["ablation_thresholds"]:
            for key, spec, shuffled in plan.estimator_entries():
                jobs.append(make_job(t, v, float(thr), key, spec, shuffled))
    out = []
    for pair in _map_jobs(jobs, worker_count):
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
             ablation_mode: str = "ranking", worker_count: int = 1) -> dict:
    """Execute the requested plan sections and write tables under out_dir.

    Emits per-cell CSV + JSON-lines detail plus a mean/std summary per
    condition.  Returns {section: list of row dicts}.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "plan.json", "w", encoding="utf-8") as fh:
        json.dump(plan.raw, fh, indent=2, sort_keys=True)
    results = {}
    if "sweep" in kinds:
        cells = run_size_sweep(plan, worker_count=worker_count)
        rows = _stamp_rows(plan, [c.row() for c in cells])
        write_table(rows, out_dir / "sweep.csv")
        write_jsonl(rows, out_dir / "sweep_rows.jsonl")
        summary = aggregate(rows, ("size", "estimator"),
                            ("pearson_r", "target_rank", "d_top_rank"))
        write_table(_stamp_rows(plan, summary), out_dir / "sweep_summary.csv")
        results["sweep"] = rows
    if "ablation" in kinds:
        cells = run_ablation(plan, mode=ablation_mode, worker_count=worker_count)
        rows = _stamp_rows(plan, [c.row() for c in cells])
        write_table(rows, out_dir / "ablation.csv")
        write_jsonl(rows, out_dir / "ablation_rows.jsonl")
        ok = [r for r in rows if r["status"] == "ok"]
        if ok:
            metrics = ("pearson_r", "target_rank", "d_top_rank") if ablation_mode == "ranking" \
                else ("recovered_distance", "best_score")
            summary = aggregate(ok, ("threshold", "condition", "estimator"), metrics)
            write_table(_stamp_rows(plan, summary), out_dir / "ablation_summary.csv")
        results["ablation"] = rows
    return results
