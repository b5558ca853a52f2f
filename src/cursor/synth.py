"""Synthetic response simulator standing in for signal acquisition.

Responses are a low-rank linear (or saturating) encoding of target distance
plus structured nuisance activity and isotropic sensor noise:

    e = signal_gain * g(d) * sum_k w_k + nuisance_gain * B @ eta + noise_sigma * eps

with w_k orthonormal signal directions, B a fixed seeded nuisance basis, and
eta/eps standard-normal draws from the trial seed.  This is the weakest
generative model a linear decoder can partially invert, with independent
knobs to degrade the signal.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._util import derive_rng, derive_seed
from .dataset import GroundTruth, StimulusResponseDataset
from .latent import ACQUISITION_D_MAX, TrajectorySpec, as_point, sample_trajectory

__all__ = [
    "Link",
    "ResponseModel",
    "generate_dataset",
    "make_response_model",
    "simulate_response",
]


@dataclass(frozen=True)
class Link:
    """Distance-to-amplitude link: g(d) = d, or tanh(d / tau) when saturating."""

    kind: str = "linear"
    tau: float = 10.0

    def __post_init__(self):
        if self.kind not in ("linear", "saturating"):
            raise ValueError(f"unknown link kind {self.kind!r}")
        if self.kind == "saturating" and self.tau <= 0:
            raise ValueError("saturating link needs tau > 0")

    def __call__(self, d: float) -> float:
        return float(d) if self.kind == "linear" else float(np.tanh(d / self.tau))


def _orthonormal_columns(dim: int, k: int, seed_parts) -> np.ndarray:
    if k == 0:
        return np.zeros((dim, 0))
    rng = derive_rng(*seed_parts)
    q, r = np.linalg.qr(rng.standard_normal((dim, k)))
    # Fix signs so the basis is a deterministic function of the seed alone.
    q = q * np.sign(np.diag(r))
    return q


@dataclass(frozen=True, eq=False)
class ResponseModel:
    response_dim: int
    signal_gain: float
    signal_dirs: np.ndarray  # (response_dim, k), orthonormal columns
    noise_sigma: float
    nuisance_rank: int
    nuisance_gain: float
    nuisance_basis: np.ndarray  # (response_dim, nuisance_rank)
    link: Link
    seed: int

    def __post_init__(self):
        w = np.array(self.signal_dirs, dtype=np.float64)
        b = np.array(self.nuisance_basis, dtype=np.float64)
        if w.ndim != 2 or w.shape[0] != self.response_dim or w.shape[1] < 1:
            raise ValueError("signal_dirs must be (response_dim, k>=1)")
        gram = w.T @ w
        if not np.allclose(gram, np.eye(w.shape[1]), atol=1e-9):
            raise ValueError("signal_dirs must be orthonormal within 1e-9")
        if b.shape != (self.response_dim, self.nuisance_rank):
            raise ValueError("nuisance_basis must be (response_dim, nuisance_rank)")
        if self.signal_gain < 0 or self.noise_sigma < 0 or self.nuisance_gain < 0:
            raise ValueError("gains and noise must be nonnegative")
        for name, arr in (("signal_dirs", w), ("nuisance_basis", b)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def k_signal(self) -> int:
        return self.signal_dirs.shape[1]


def make_response_model(response_dim: int, k_signal: int = 3, signal_gain: float = 1.0,
                        noise_sigma: float = 1.0, nuisance_rank: int = 8,
                        nuisance_gain: float = 1.0, link: Link | None = None,
                        seed: int = 0) -> ResponseModel:
    """Draw orthonormal signal and nuisance bases from the model seed."""
    if response_dim < 1 or k_signal < 1 or nuisance_rank < 0:
        raise ValueError("response_dim and k_signal must be >= 1, nuisance_rank >= 0")
    if k_signal + nuisance_rank > response_dim:
        raise ValueError("k_signal + nuisance_rank cannot exceed response_dim")
    return ResponseModel(
        response_dim=response_dim,
        signal_gain=signal_gain,
        signal_dirs=_orthonormal_columns(response_dim, k_signal, (seed, "signal-dirs")),
        noise_sigma=noise_sigma,
        nuisance_rank=nuisance_rank,
        nuisance_gain=nuisance_gain,
        nuisance_basis=_orthonormal_columns(response_dim, nuisance_rank, (seed, "nuisance-basis")),
        link=link or Link(),
        seed=seed,
    )


def simulate_response(model: ResponseModel, d: float, trial_seed: int) -> np.ndarray:
    """One response vector for a stimulus at true distance d."""
    if not np.isfinite(d) or d < 0:
        raise ValueError(f"distance must be finite and >= 0, got {d}")
    rng = derive_rng(trial_seed, "trial-noise")
    eta = rng.standard_normal(model.nuisance_rank)
    eps = rng.standard_normal(model.response_dim)
    signal = model.signal_gain * model.link(d) * model.signal_dirs.sum(axis=1)
    return signal + model.nuisance_gain * (model.nuisance_basis @ eta) + model.noise_sigma * eps


def generate_dataset(targets, trajectories_per_target: int, points_per_trajectory: int,
                     model: ResponseModel, master_seed: int, *,
                     d_min: float = 0.0, d_max: float = ACQUISITION_D_MAX,
                     spacing: str = "logarithmic") -> StimulusResponseDataset:
    """Simulate a full stimulus-response dataset.

    Each target contributes trajectories_per_target rays with
    points_per_trajectory stimuli each; every stimulus gets one simulated
    response driven by its true distance.  Per-trial seeds are derived from
    (master_seed, target, trajectory, point) so generation is bit-reproducible
    and independent of iteration order.  Hidden ground truth is recorded only
    for single-target datasets, where "distance to the target" is unambiguous.
    """
    targets = [as_point(t) for t in targets]
    if not targets:
        raise ValueError("at least one target is required")
    dim = targets[0].dim
    if any(t.dim != dim for t in targets):
        raise ValueError("all targets must share one latent dimension")
    if trajectories_per_target < 1 or points_per_trajectory < 1:
        raise ValueError("trajectory counts must be positive")

    stimuli, responses, distances = [], [], []
    for ti, target in enumerate(targets):
        for tj in range(trajectories_per_target):
            spec = TrajectorySpec(
                target=target,
                n_points=points_per_trajectory,
                d_min=d_min,
                d_max=d_max,
                spacing=spacing,
                direction_seed=derive_seed(master_seed, ti, tj, "trajectory"),
            )
            for pk, (point, dist) in enumerate(sample_trajectory(spec)):
                trial_seed = derive_seed(master_seed, ti, tj, pk, "trial")
                stimuli.append(point.coords)
                responses.append(simulate_response(model, dist, trial_seed))
                distances.append(dist)

    truth = None
    if len(targets) == 1:
        truth = GroundTruth(targets[0], np.asarray(distances))
    provenance = {
        "generator": {
            "master_seed": int(master_seed),
            "targets": len(targets),
            "trajectories_per_target": int(trajectories_per_target),
            "points_per_trajectory": int(points_per_trajectory),
            "d_min": float(d_min),
            "d_max": float(d_max),
            "spacing": spacing,
            "model": {
                "response_dim": model.response_dim,
                "k_signal": model.k_signal,
                "signal_gain": model.signal_gain,
                "noise_sigma": model.noise_sigma,
                "nuisance_rank": model.nuisance_rank,
                "nuisance_gain": model.nuisance_gain,
                "link": {"kind": model.link.kind, "tau": model.link.tau},
                "seed": model.seed,
            },
        }
    }
    return StimulusResponseDataset(np.asarray(stimuli), np.asarray(responses), truth, provenance)
