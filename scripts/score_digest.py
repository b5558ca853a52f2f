"""Print one SHA-256 over the per-fold RMSEs of a fixed matrix of scorer runs.

Two trees that print the same digest score every case below bit for bit alike:
ols, ridge and dummy; 1-3 shuffles; the aligned branch kept or shuffled; Gram,
SVD and mixed fold stacks; reference subsamples; and reference trials 0 and 1.

    PYTHONPATH=src python scripts/score_digest.py [--save FILE] [--against FILE]

A change that only rounds differently moves the digest, so --save writes the
hashed values (every per-fold RMSE and the trial rows) to a JSON file, and
--against compares this tree's values with such a file.  It prints the largest
relative difference of the floats and exits 1 when that exceeds 1e-12 or when
anything else (a rank, a flag, the number of values) differs.
"""

import argparse
import hashlib
import json
import sys

import numpy as np

from cursor import CvConfig, EstimatorSpec, HypothesisScorer, ScoreConfig, dataset_from_arrays
from cursor.dataset import subsample
from cursor.reference import reference_dataset, run_trial

TOLERANCE = 1e-12


def datasets():
    rng = np.random.default_rng(0)
    for case in ("plain", "n_below_de", "constant", "near_duplicate"):
        n, de = (30, 40) if case == "n_below_de" else (200, 6)
        x = rng.standard_normal((n, de)) * rng.uniform(0.1, 10.0, de)
        if case == "constant":
            x[:, 2] = 1.5
        elif case == "near_duplicate":
            x[:, -1] = x[:, 0] + 1e-9 * rng.standard_normal(n)
        yield dataset_from_arrays(rng.standard_normal((n, 3)), x)
    # Two columns at eigenvalue ratio 1e-3: some folds take the Gram path, some the SVD.
    z = rng.standard_normal((400, 2))
    z = np.linalg.qr(z - z.mean(axis=0))[0]
    r = (1 - 1e-3) / (1 + 1e-3)
    yield dataset_from_arrays(rng.standard_normal((400, 3)),
                              np.column_stack([z[:, 0], r * z[:, 0] + np.sqrt(1 - r * r) * z[:, 1]]))
    full, _ = reference_dataset(0)
    for n in (40, 160):
        yield subsample(full, n, seed=0)


def collect():
    """(digest, per-fold RMSEs, trial rows) of this tree."""
    acc = hashlib.sha256()
    rmses, rows = [], []
    for ds in datasets():
        rng = np.random.default_rng(ds.n)
        h = rng.standard_normal((3, ds.stimulus_dim))
        h[1] = ds.stimuli[ds.n // 2]
        h[2] *= 1e3
        for kind in ("ols", "ridge", "dummy_mean"):
            for n_shuffles in (1, 2, 3):
                for shuffle_aligned in (False, True):
                    cfg = ScoreConfig(EstimatorSpec(kind, 4.0 if kind == "ridge" else 0.0),
                                      CvConfig(n_folds=5, seed=1), 2, n_shuffles, shuffle_aligned)
                    scorer = HypothesisScorer(ds, cfg)
                    for rep in scorer.score_points(h) + [scorer.score_point(h[0])]:
                        values = rep.per_fold_aligned + rep.per_fold_shuffled
                        acc.update(np.array(values).tobytes())
                        rmses.extend(values)
    for trial in (0, 1):
        row = run_trial(trial)[0]
        acc.update(json.dumps(row, sort_keys=True).encode())
        rows.append(row)
    return acc.hexdigest(), rmses, rows


def largest_difference(saved: dict, rmses: list, rows: list) -> float:
    """Largest relative difference of the floats; inf when anything else differs."""
    if len(saved["rmses"]) != len(rmses) or len(saved["rows"]) != len(rows):
        return np.inf
    pairs = list(zip(saved["rmses"], rmses))
    for old, new in zip(saved["rows"], rows):
        if old.keys() != new.keys():
            return np.inf
        for key, value in old.items():
            if type(value) is float and type(new[key]) is float:
                pairs.append((value, new[key]))
            elif value != new[key]:
                return np.inf
    a, b = np.array(pairs).T
    scale = np.maximum(np.abs(a), np.abs(b))
    rel = np.divide(np.abs(a - b), scale, out=np.zeros_like(a), where=scale > 0)
    return float(rel.max())


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--save", metavar="FILE", help="write the hashed values to FILE")
    parser.add_argument("--against", metavar="FILE",
                        help="compare with values saved by --save; exit 1 above 1e-12")
    args = parser.parse_args()
    digest, rmses, rows = collect()
    print(digest)
    if args.save:
        with open(args.save, "w", encoding="utf-8") as fh:
            json.dump({"digest": digest, "rmses": rmses, "rows": rows}, fh)
    if args.against:
        with open(args.against, "r", encoding="utf-8") as fh:
            saved = json.load(fh)
        worst = largest_difference(saved, rmses, rows)
        print(f"against {saved['digest']}: largest relative difference {worst:.3g}")
        if not worst <= TOLERANCE:
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
