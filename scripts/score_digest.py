"""Print one SHA-256 over the per-fold RMSEs of a fixed matrix of scorer runs.

Two trees that print the same digest score every case below bit for bit alike:
ols, ridge and dummy; 1-3 shuffles; the aligned branch kept or shuffled; Gram,
SVD and mixed fold stacks; reference subsamples; and reference trials 0 and 1.

    PYTHONPATH=src python scripts/score_digest.py
"""

import hashlib
import json

import numpy as np

from cursor import CvConfig, EstimatorSpec, HypothesisScorer, ScoreConfig, dataset_from_arrays
from cursor.dataset import subsample
from cursor.reference import reference_dataset, run_trial


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


acc = hashlib.sha256()
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
                    acc.update(np.array(rep.per_fold_aligned + rep.per_fold_shuffled).tobytes())
for trial in (0, 1):
    acc.update(json.dumps(run_trial(trial)[0], sort_keys=True).encode())
print(acc.hexdigest())
