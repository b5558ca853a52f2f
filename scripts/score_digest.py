"""Print one SHA-256 over the per-fold RMSEs of a fixed matrix of scorer runs.

Two trees that print the same digest score every case below bit for bit alike:
ols, ridge and dummy; the aligned branch kept or shuffled; Gram, SVD and mixed
fold stacks; reference subsamples; and reference trials 0 and 1.

    PYTHONPATH=src python scripts/score_digest.py [--save FILE] [--against FILE]

A change that only rounds differently moves the digest, so --save writes the
hashed values (each report's per-fold RMSEs, score and flags, and the trial
rows) to a JSON file, one record per line, and --against compares this tree's
values with such a file.  It prints the largest relative difference of the
floats and exits 1 when that exceeds 1e-12 or when anything else (a rank, a
flag, the number of values) differs.

score_matrix.json, beside this script, was written by --save, and a tier-1
test compares this tree's matrix values with its "matrix" records the same way
(the reference calibration covers the trial rows).  A change that moves scores
on purpose rewrites it with --save scripts/score_matrix.json.
"""

import argparse
import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np

from cursor import CvConfig, EstimatorSpec, HypothesisScorer, ScoreConfig, dataset_from_arrays
from cursor.dataset import subsample
from cursor.reference import reference_dataset, run_trial

TOLERANCE = 1e-12
MATRIX_FILE = Path(__file__).with_name("score_matrix.json")


def datasets():
    """(name, dataset) of each dataset in the matrix."""
    rng = np.random.default_rng(0)
    for case in ("plain", "n_below_de", "constant", "near_duplicate"):
        n, de = (30, 40) if case == "n_below_de" else (200, 6)
        x = rng.standard_normal((n, de)) * rng.uniform(0.1, 10.0, de)
        if case == "constant":
            x[:, 2] = 1.5
        elif case == "near_duplicate":
            x[:, -1] = x[:, 0] + 1e-9 * rng.standard_normal(n)
        yield case, dataset_from_arrays(rng.standard_normal((n, 3)), x)
    # Two columns at eigenvalue ratio 1e-3: some folds take the Gram path, some the SVD.
    z = rng.standard_normal((400, 2))
    z = np.linalg.qr(z - z.mean(axis=0))[0]
    r = (1 - 1e-3) / (1 + 1e-3)
    yield "gram_and_svd", dataset_from_arrays(
        rng.standard_normal((400, 3)),
        np.column_stack([z[:, 0], r * z[:, 0] + np.sqrt(1 - r * r) * z[:, 1]]))
    full, _ = reference_dataset(0)
    for n in (40, 160):
        yield f"reference_{n}", subsample(full, n, seed=0)


def matrix():
    """(case, ScoreReport) of each scorer run in the matrix, in a fixed order."""
    for name, ds in datasets():
        rng = np.random.default_rng(ds.n)
        h = rng.standard_normal((3, ds.stimulus_dim))
        h[1] = ds.stimuli[ds.n // 2]
        h[2] *= 1e3
        for kind in ("ols", "ridge", "dummy_mean"):
            for shuffle_aligned in (False, True):
                cfg = ScoreConfig(EstimatorSpec(kind, 4.0 if kind == "ridge" else 0.0),
                                  CvConfig(n_folds=5, seed=1), 2, shuffle_aligned)
                scorer = HypothesisScorer(ds, cfg)
                case = f"{name} {kind} shuffle_aligned={shuffle_aligned}"
                # hypotheses 0-2 in one batch, then hypothesis 0 alone
                reports = scorer.score_points(h) + [scorer.score_point(h[0])]
                for label, rep in zip(("h0", "h1", "h2", "h0 alone"), reports):
                    yield f"{case} {label}", rep


def matrix_values() -> list[dict]:
    """One record per report of the matrix: per-fold RMSEs, score and flags."""
    return [{"case": case,
             "per_fold_aligned": list(rep.per_fold_aligned),
             "per_fold_shuffled": list(rep.per_fold_shuffled),
             "score": rep.score,
             "denominator_floored": rep.denominator_floored,
             "degenerate_distances": rep.degenerate_distances}
            for case, rep in matrix()]


def collect():
    """(digest, matrix records, trial rows) of this tree."""
    acc = hashlib.sha256()
    records = matrix_values()
    for record in records:
        acc.update(np.array(record["per_fold_aligned"] + record["per_fold_shuffled"]).tobytes())
    rows = [run_trial(trial)[0] for trial in (0, 1)]
    for row in rows:
        acc.update(json.dumps(row, sort_keys=True).encode())
    return acc.hexdigest(), records, rows


def largest_difference(old, new) -> float:
    """Largest relative difference of the floats in two JSON values.

    inf when anything else differs: a key, a length, a string, an int, a flag.
    """
    if isinstance(old, float) and isinstance(new, float):
        if old == new or (math.isnan(old) and math.isnan(new)):
            return 0.0
        rel = abs(old - new) / max(abs(old), abs(new))
        return rel if math.isfinite(rel) else math.inf
    if isinstance(old, dict) and isinstance(new, dict):
        if old.keys() != new.keys():
            return math.inf
        return max((largest_difference(old[k], new[k]) for k in old), default=0.0)
    if isinstance(old, list) and isinstance(new, list):
        if len(old) != len(new):
            return math.inf
        return max(map(largest_difference, old, new), default=0.0)
    return 0.0 if old == new else math.inf


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--save", metavar="FILE", help="write the hashed values to FILE")
    parser.add_argument("--against", metavar="FILE",
                        help="compare with values saved by --save; exit 1 above 1e-12")
    args = parser.parse_args()
    digest, records, rows = collect()
    print(digest)
    values = {"matrix": records, "rows": rows}
    if args.save:
        lists = (f'  "{k}": [\n' + ",\n".join("    " + json.dumps(r) for r in v) + "\n  ]"
                 for k, v in values.items())
        with open(args.save, "w", encoding="utf-8") as fh:
            fh.write(f'{{\n  "digest": "{digest}",\n' + ",\n".join(lists) + "\n}\n")
    if args.against:
        with open(args.against, "r", encoding="utf-8") as fh:
            saved = json.load(fh)
        worst = largest_difference({k: saved.get(k) for k in values}, values)
        print(f"against {saved['digest']}: largest relative difference {worst:.3g}")
        if not worst <= TOLERANCE:
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
