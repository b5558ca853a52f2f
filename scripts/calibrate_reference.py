#!/usr/bin/env python3
"""Pre-registered calibration of the reference configuration.

Runs the reference battery (cursor.reference.run_trial: ranking with
target, controls, no-target comparator, CMA-ES recovery, control
recoveries, label RMSE) at the pinned configuration over candidate noise
levels, prints per-seed numbers, and writes reference_calibration.json next
to this script.  The winning noise level is committed to
cursor/reference.py; this script is the provenance for that choice and must
not be re-tuned after the fact.

Usage: python3 scripts/calibrate_reference.py [--noises 3.0,4.0] [--trials 10] [--out NAME]
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

import numpy as np

from cursor.reference import REFERENCE, reference_model, run_trial


def summarize(rows: list[dict]) -> dict:
    def mean(key):
        vals = [r[key] for r in rows if r.get(key) is not None]
        return float(np.mean(vals)) if vals else None

    n = len(rows)
    return {
        "trials": n,
        "ols_mean_r": mean("ols_r"),
        "ols_mean_rank": mean("ols_rank"),
        "ols_mean_d_top": mean("ols_d_top"),
        "slr_mean_r": mean("slr_r"),
        "slr_mean_rank": mean("slr_rank"),
        "dummy_mean_rank": mean("dummy_rank"),
        "dummy_r_defined": any(r["dummy_r"] is not None for r in rows),
        "mean_comparator_d_top": mean("comparator_d_top"),
        "mean_recovered_distance": mean("recovered_distance"),
        "recovery_wins": sum(r["recovery_beats_comparator"] for r in rows),
        "recovery_wins_with_target": sum(r["recovery_beats_with_target"] for r in rows),
        "mean_pca_floor": mean("pca_floor"),
        "mean_label_rmse_pct": mean("label_rmse_pct"),
        "label_beats_controls": sum(
            r["label_rmse"] < r["dummy_label_rmse"] and r["label_rmse"] < r["slr_label_rmse"]
            for r in rows),
        "max_dummy_incumbent_improvement": max(r["dummy_incumbent_improvement"] for r in rows),
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--noises", default=None,
                    help="comma-separated noise levels (default: the pinned one)")
    ap.add_argument("--trials", type=int, default=REFERENCE["n_trials"])
    ap.add_argument("--out", default=None,
                    help="output JSON name (default reference_calibration.json)")
    args = ap.parse_args()
    if args.noises is None:
        noises = [REFERENCE["noise_sigma"]]
    else:
        noises = [float(tok) for tok in args.noises.split(",")]

    out = {"reference": dict(REFERENCE), "candidates": {}}
    for noise in noises:
        model = reference_model(noise_sigma=noise)
        rows = []
        for trial in range(args.trials):
            row, seconds = run_trial(trial, model)
            rows.append(row)
            print(f"noise={noise} trial={trial}: "
                  f"ols R={row['ols_r']:.3f} rank={row['ols_rank']} "
                  f"d_top={row['ols_d_top']:.2f} "
                  f"cmp={row['comparator_d_top']:.2f} "
                  f"rec={row['recovered_distance']:.2f} "
                  f"win={row['recovery_beats_comparator']} "
                  f"slr_rank={row['slr_rank']} dummy_rank={row['dummy_rank']} "
                  f"({sum(seconds.values()):.0f}s)", flush=True)
        summary = summarize(rows)
        out["candidates"][f"{noise:g}"] = {"summary": summary, "trials": rows}
        print(f"== noise={noise}: {json.dumps(summary, indent=2)}", flush=True)

    name = args.out or "reference_calibration.json"
    path = Path(__file__).resolve().parent / name
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=2, sort_keys=True)
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
