"""Output checks for the benchmark's workloads.

Each check reads a command's output files and returns a list of problems
(empty when the outputs are correct).  Expected values are recomputed here
from the dataset file and the outputs, not taken from the program, or they
are properties the method must have.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Criterion 6 of the acceptance suite: a working ranking reaches R <= -0.6
# and puts the target in the top 10.
MAX_R = -0.6
MAX_TARGET_RANK = 10
# A recovery counts as found when it lies within 5% of the hypothesis radius.
RECOVERY_SHARE = 0.05
REL_TOL = 1e-9


@dataclass(frozen=True)
class Dataset:
    stimuli: np.ndarray
    responses: np.ndarray
    target: np.ndarray


def load_dataset_csv(path: Path) -> Dataset:
    """Parse a `cursor generate` CSV and its JSON sidecar without the program."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        body = np.loadtxt(fh, delimiter=",", ndmin=2)
    stim = [i for i, c in enumerate(header) if c.startswith("stim_")]
    resp = [i for i, c in enumerate(header) if c.startswith("resp_")]
    sidecar = json.loads(Path(str(path) + ".json").read_text(encoding="utf-8"))
    return Dataset(body[:, stim], body[:, resp], np.asarray(sidecar["hidden_target"], float))


def read_csv(path: Path) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def read_jsonl(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def close(a: float, b: float, tol: float = REL_TOL) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def rank_metrics(scores, distances, target_index: int) -> tuple[float, int, float]:
    """Pearson R of score against distance, the target's rank, the top row's distance."""
    scores = np.asarray(scores, dtype=np.float64)
    distances = np.asarray(distances, dtype=np.float64)
    r = float(np.corrcoef(scores, distances)[0, 1])
    others = np.delete(scores, target_index)
    rank = 1 + int(np.sum(others >= scores[target_index]))
    return r, rank, float(distances[int(np.argmax(scores))])


def check_rank(out: Path, L: int) -> list[str]:
    problems = []
    detail = read_jsonl(out / "rank_detail.jsonl")
    scores = [row["score"] for row in detail]
    if len(scores) != L or not all(math.isfinite(s) and s > 0 for s in scores):
        return [f"rank: expected {L} finite positive scores, got {scores[:5]}... ({len(scores)})"]
    targets = [i for i, row in enumerate(detail) if row["is_target"]]
    if len(targets) != 1 or detail[targets[0]]["distance"] != 0.0:
        return [f"rank: expected one target row at distance 0, got rows {targets}"]
    r, rank, d_top = rank_metrics(scores, [row["distance"] for row in detail], targets[0])
    row = read_csv(out / "rank.csv")[0]
    if not close(float(row["pearson_r"]), r) or int(row["target_rank"]) != rank \
            or not close(float(row["d_top_rank"]), d_top):
        problems.append(f"rank: rank.csv {row} differs from recomputed R {r}, rank {rank}, "
                        f"d_top {d_top}")
    if not (r <= MAX_R and rank <= MAX_TARGET_RANK):
        problems.append(f"rank: R {r:.4f} (need <= {MAX_R}), target rank {rank} "
                        f"(need <= {MAX_TARGET_RANK})")
    return problems


def pca_floor(stimuli: np.ndarray, target: np.ndarray, k: int) -> float:
    """Distance from the target to the affine span of the top-k principal axes."""
    mean = stimuli.mean(axis=0)
    _, _, vt = np.linalg.svd(stimuli - mean, full_matrices=False)
    basis = vt[:k]
    offset = target - mean
    return float(np.linalg.norm(offset - basis.T @ (basis @ offset)))


def check_optimize(opt: Path, rec: Path, ds: Dataset, budget: int, bounds: float,
                   floor: float, radius: float) -> list[str]:
    problems = []
    trace = read_jsonl(opt / "trace.jsonl")
    scores = [ev["score"] for ev in trace]
    points = np.array([ev["point"] for ev in trace])
    if len(trace) != budget or any(ev["nonfinite"] or not math.isfinite(ev["score"])
                                   for ev in trace):
        problems.append(f"optimize: expected {budget} finite evaluations, got {len(trace)}")
    elif np.abs(points).max() > bounds:
        problems.append(f"optimize: a candidate leaves the bounds +-{bounds}")
    summary = json.loads((opt / "summary.json").read_text(encoding="utf-8"))
    if scores and summary["best_score"] != max(scores):
        problems.append(f"optimize: best_score {summary['best_score']} is not the trace "
                        f"maximum {max(scores)}")
    zhat = np.asarray(json.loads((opt / "zhat.json").read_text(encoding="utf-8"))["coords"])
    dist = float(np.linalg.norm(zhat - ds.target))
    if not close(summary["recovered_distance"], dist):
        problems.append(f"optimize: summary distance {summary['recovered_distance']} "
                        f"!= recomputed {dist}")
    if dist < floor - 1e-9:
        problems.append(f"optimize: recovered distance {dist} is below the PCA floor {floor}")
    if dist >= RECOVERY_SHARE * radius:
        problems.append(f"optimize: recovered distance {dist:.4f} is not under "
                        f"{RECOVERY_SHARE * radius:.4f}")
    label_rmse = json.loads((rec / "label_metrics.json").read_text(encoding="utf-8"))["rmse"]
    d_hat = np.linalg.norm(ds.stimuli - zhat, axis=1)
    d_true = np.linalg.norm(ds.stimuli - ds.target, axis=1)
    own_rmse = float(np.sqrt(np.mean((d_hat - d_true) ** 2)))
    if not close(label_rmse, own_rmse) or label_rmse > dist * (1 + REL_TOL):
        problems.append(f"recover: label RMSE {label_rmse} (recomputed {own_rmse}) must not "
                        f"exceed the recovered distance {dist}")
    return problems


def check_sweep(out: Path, sizes, replicates: int, L: int) -> list[str]:
    problems = []
    rows = read_csv(out / "sweep.csv")
    cells = sorted((int(r["size"]), int(r["variant"])) for r in rows)
    want = sorted((s, v) for s in sizes for v in range(replicates))
    if cells != want:
        return [f"sweep: cells {cells} differ from one row per size and replicate {want}"]
    if any(not 1 <= int(r["target_rank"]) <= L for r in rows):
        problems.append(f"sweep: a target rank lies outside [1, {L}]")
    if any(r["pearson_r"] == "" for r in rows):
        return problems + ["sweep: a cell has no defined R"]
    mean_r = {s: float(np.mean([float(r["pearson_r"]) for r in rows if int(r["size"]) == s]))
              for s in sizes}
    small, large = mean_r[min(sizes)], mean_r[max(sizes)]
    if not (large <= MAX_R and large < small):
        problems.append(f"sweep: mean R {large:.4f} at N={max(sizes)} must be <= {MAX_R} and "
                        f"below {small:.4f} at N={min(sizes)}")
    for row in read_csv(out / "sweep_summary.csv"):
        if not close(float(row["pearson_r_mean"]), mean_r[int(row["size"])]):
            problems.append(f"sweep: summary mean R {row['pearson_r_mean']} at N={row['size']} "
                            f"!= recomputed {mean_r[int(row['size'])]}")
    return problems


def same_bytes(a: Path, b: Path, names) -> list[str]:
    return [f"{b / name} differs from {a / name}" for name in names
            if (a / name).read_bytes() != (b / name).read_bytes()]
